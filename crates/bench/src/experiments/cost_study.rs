//! Differential validation of the static cycle-bound analyzer
//! (`mpsoc_lint::cost`): the full kernel zoo × sizes × strategies ×
//! cluster counts, every cell run through **both** the analyzer and the
//! cycle-accurate simulator.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin all_experiments -- \
//!     --only cost_study [--smoke] [--out <dir> | --replay <dir>]
//! ```
//!
//! The study asserts its own headline claim — **soundness**: in every
//! cell the simulator-measured total and all five phase milestones lie
//! within the static `[best, worst]` bounds; the host path's measured
//! cycles lie within `bound_host_run`; and a co-simulated two-tenant
//! witness stays under the contention-widened worst bound (the
//! [`ContentionEnvelope`] of its co-resident). It also reports
//! **tightness** (`worst / actual`) per cell so over-approximation is
//! visible, not just bounded. Exits non-zero on any violation.
//!
//! The command line and the report's life cycle are
//! [`crate::study`]'s: a full run writes `results/cost_study.json`
//! by default and the wall-clock `BENCH_cost.json` sidecar, and a run
//! with violations writes its report before it exits 1. `--replay`
//! re-runs the grid and demands the recorded bytes; since the fresh run
//! re-checks every total, phase milestone, phase breakdown and host row
//! against the current analyzer, a byte-equal replay is a sound one.
//!
//! [`ContentionEnvelope`]: mpsoc_lint::ContentionEnvelope
//! [`PhaseBreakdown`]: mpsoc_telemetry::PhaseBreakdown

use std::error::Error;
use std::time::Instant;

use crate::render_table;
use crate::study::{Output, Run};
use mpsoc_kernels::{zoo, Daxpy, Kernel};
use mpsoc_lint::{bound_host_run, bound_offload, ContentionEnvelope};
use mpsoc_offload::{ClusterMask, OffloadStrategy, Offloader, RuntimeCosts, SessionStep};
use mpsoc_sim::Cycle;
use mpsoc_soc::SocConfig;
use serde::Serialize;

/// One `(kernel, N, M, strategy)` soundness cell.
#[derive(Debug, Serialize)]
struct CostRow {
    kernel: String,
    n: u64,
    m: usize,
    dispatch: String,
    sync: String,
    /// Static best-case total (cycles).
    best: u64,
    /// Static worst-case total (cycles).
    worst: u64,
    /// Simulator-measured total (cycles).
    actual: u64,
    /// `worst / actual` — 1.0 would be a perfectly tight bound.
    tightness: f64,
    /// Measured phase durations (dispatch, dma_in, compute, dma_out,
    /// sync).
    phases: [u64; 5],
}

/// One host-path soundness cell.
#[derive(Debug, Serialize)]
struct HostRow {
    kernel: String,
    n: u64,
    best: u64,
    worst: u64,
    actual: u64,
    tightness: f64,
}

/// The co-simulated contention witness: two credit-sync tenants on
/// disjoint partitions of one SoC, each bounded with the *other's*
/// [`ContentionEnvelope`] folded into its worst case.
#[derive(Debug, Serialize)]
struct CosimRow {
    kernel: String,
    n: u64,
    m: usize,
    /// Solo (uncontended) worst bound — what the witness would be held
    /// to if contention were ignored.
    solo_worst: u64,
    /// Contention-widened worst bound actually asserted.
    contended_worst: u64,
    /// Measured total in company (cycles, from submission).
    actual: u64,
}

/// The deterministic JSON artifact.
#[derive(Debug, Serialize)]
struct CostReport {
    smoke: bool,
    clusters: usize,
    rows: Vec<CostRow>,
    host_rows: Vec<HostRow>,
    cosim: Vec<CosimRow>,
    /// Mean `worst/actual` over all offload cells.
    mean_tightness: f64,
    /// Worst (largest) `worst/actual` over all offload cells.
    max_tightness: f64,
    violations: usize,
}

fn operands(kernel: &dyn Kernel, n: u64) -> (Vec<f64>, Vec<f64>) {
    // Timing on this SoC is data-independent; fixed patterns keep the
    // artifact a pure function of the grid.
    let xs = vec![1.0; (n * kernel.x_words_per_elem()) as usize];
    let ys = vec![0.5; n as usize];
    (xs, ys)
}

pub(super) fn run(run: &Run) -> Result<Output, Box<dyn Error>> {
    let smoke = run.smoke;
    let started = Instant::now();
    let (sizes, machines): (&[u64], &[usize]) = if smoke {
        (&[1, 64, 250], &[1, 4])
    } else {
        (&[1, 7, 64, 250, 1024, 4096], &[1, 2, 4, 8])
    };

    let config = SocConfig::manticore();
    let costs = RuntimeCosts::default();
    let solo = ContentionEnvelope::default();
    let mut rows: Vec<CostRow> = Vec::new();
    let mut host_rows: Vec<HostRow> = Vec::new();
    let mut violations = 0usize;

    for kernel in zoo() {
        for &n in sizes {
            let (xs, ys) = operands(kernel.as_ref(), n);
            for &m in machines {
                for strategy in OffloadStrategy::all() {
                    let bounds = match bound_offload(
                        kernel.as_ref(),
                        n,
                        m,
                        strategy,
                        &config,
                        &costs,
                        &solo,
                    ) {
                        Ok(b) => b,
                        Err(e) => {
                            println!("{} N={n} M={m}: unboundable: {e}", kernel.name());
                            violations += 1;
                            continue;
                        }
                    };
                    let mut off = Offloader::new(config.clone())?;
                    let run = off.offload(kernel.as_ref(), &xs, &ys, m, strategy)?;
                    let actual = run.outcome.total.as_u64();
                    let ph = &run.outcome.phases;
                    let milestones = [
                        ("dispatch", ph.last_dispatch.as_u64(), bounds.dispatch),
                        ("dma_in", ph.last_dma_in.as_u64(), bounds.dma_in),
                        ("compute", ph.last_compute.as_u64(), bounds.compute),
                        ("dma_out", ph.last_dma_out.as_u64(), bounds.dout),
                        ("sync", ph.sync_done.as_u64(), bounds.sync),
                        ("total", actual, bounds.total),
                    ];
                    for (name, milestone, b) in milestones {
                        if !b.contains(milestone) {
                            println!(
                                "{} N={n} M={m} {strategy}: {name} {milestone} outside [{}, {}]",
                                kernel.name(),
                                b.best,
                                b.worst
                            );
                            violations += 1;
                        }
                    }
                    let bd = &run.outcome.phase_breakdown;
                    let phases = [bd.dispatch, bd.dma_in, bd.compute, bd.dma_out, bd.sync];
                    if let Err(e) = bounds.check_phases(phases) {
                        println!(
                            "{} N={n} M={m} {strategy}: replay check: {e}",
                            kernel.name()
                        );
                        violations += 1;
                    }
                    rows.push(CostRow {
                        kernel: kernel.name().to_owned(),
                        n,
                        m,
                        dispatch: strategy.dispatch.to_string(),
                        sync: strategy.sync.to_string(),
                        best: bounds.total.best,
                        worst: bounds.total.worst,
                        actual,
                        tightness: bounds.total.tightness(actual),
                        phases,
                    });
                }
            }

            // Host path: the same program bounds against the measured
            // CVA6-class scalar run.
            match bound_host_run(kernel.as_ref(), n) {
                Ok(cost) => {
                    let mut off = Offloader::new(config.clone())?;
                    let (actual, _) = off.run_on_host(kernel.as_ref(), &xs, &ys)?;
                    if !cost.cycles.contains(actual) {
                        println!(
                            "host {} N={n}: {actual} outside [{}, {}]",
                            kernel.name(),
                            cost.cycles.best,
                            cost.cycles.worst
                        );
                        violations += 1;
                    }
                    host_rows.push(HostRow {
                        kernel: kernel.name().to_owned(),
                        n,
                        best: cost.cycles.best,
                        worst: cost.cycles.worst,
                        actual,
                        tightness: cost.cycles.tightness(actual),
                    });
                }
                Err(e) => {
                    println!("host {} N={n}: unboundable: {e}", kernel.name());
                    violations += 1;
                }
            }
        }
    }

    // Co-simulated contention witness: two identical credit-sync
    // tenants on disjoint partitions of one SoC. Each tenant's worst
    // bound is widened by its co-resident's ContentionEnvelope; the
    // measured in-company totals must stay inside it (this is the cell
    // that would catch an unsound envelope).
    let mut cosim: Vec<CosimRow> = Vec::new();
    {
        let kernel = Daxpy::new(2.0);
        let n = 512u64;
        let m = 2usize;
        let strategy = OffloadStrategy::extended();
        let solo_bounds = bound_offload(&kernel, n, m, strategy, &config, &costs, &solo)?;
        let neighbor = ContentionEnvelope::for_job(&kernel, n, m, strategy, &config, &costs);
        let contended = bound_offload(&kernel, n, m, strategy, &config, &costs, &neighbor)?;
        let (xs, ys) = operands(&kernel, n);
        let mut off = Offloader::new(config.clone())?;
        off.begin_jobs();
        off.submit_at(
            &kernel,
            &xs,
            &ys,
            ClusterMask::range(0, m),
            strategy,
            Cycle::ZERO,
        )?;
        off.submit_at(
            &kernel,
            &xs,
            &ys,
            ClusterMask::range(m, m),
            strategy,
            Cycle::ZERO,
        )?;
        loop {
            match off.advance_jobs(Cycle::MAX)? {
                SessionStep::Completed(tenant) => {
                    let actual = tenant.run.outcome.total.as_u64();
                    if !contended.total.contains(actual) {
                        println!(
                            "cosim {} N={n} M={m}: total {actual} outside contended [{}, {}]",
                            kernel.name(),
                            contended.total.best,
                            contended.total.worst
                        );
                        violations += 1;
                    }
                    let bd = &tenant.run.outcome.phase_breakdown;
                    if let Err(e) = contended.check_phases([
                        bd.dispatch,
                        bd.dma_in,
                        bd.compute,
                        bd.dma_out,
                        bd.sync,
                    ]) {
                        println!("cosim {} N={n} M={m}: {e}", kernel.name());
                        violations += 1;
                    }
                    cosim.push(CosimRow {
                        kernel: kernel.name().to_owned(),
                        n,
                        m,
                        solo_worst: solo_bounds.total.worst,
                        contended_worst: contended.total.worst,
                        actual,
                    });
                }
                SessionStep::Horizon => {}
                SessionStep::Idle => break,
            }
        }
        if cosim.len() != 2 {
            println!("cosim witness: expected 2 tenants, saw {}", cosim.len());
            violations += 1;
        }
    }

    let mean_tightness = rows.iter().map(|r| r.tightness).sum::<f64>() / rows.len().max(1) as f64;
    let max_tightness = rows.iter().map(|r| r.tightness).fold(0.0f64, f64::max);

    println!("cost_study — static bounds vs the cycle-accurate simulator\n");
    let mut table: Vec<Vec<String>> = Vec::new();
    for kernel in zoo() {
        let of_kernel: Vec<&CostRow> = rows.iter().filter(|r| r.kernel == kernel.name()).collect();
        if of_kernel.is_empty() {
            continue;
        }
        let mean = of_kernel.iter().map(|r| r.tightness).sum::<f64>() / of_kernel.len() as f64;
        let max = of_kernel.iter().map(|r| r.tightness).fold(0.0f64, f64::max);
        table.push(vec![
            kernel.name().to_owned(),
            of_kernel.len().to_string(),
            format!("{mean:.3}"),
            format!("{max:.3}"),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["kernel", "cells", "mean worst/actual", "max worst/actual"],
            &table
        )
    );
    println!(
        "{} offload cells, {} host cells, {} cosim tenants: mean tightness {mean_tightness:.3}, max {max_tightness:.3}, {violations} violation(s)",
        rows.len(),
        host_rows.len(),
        cosim.len()
    );

    let report = CostReport {
        smoke,
        clusters: config.clusters,
        rows,
        host_rows,
        cosim,
        mean_tightness,
        max_tightness,
        violations,
    };
    let cells = (report.rows.len() + report.host_rows.len() + report.cosim.len()) as u64;
    let wall = started.elapsed().as_secs_f64();
    let (tightness, passed) = (report.mean_tightness, report.violations == 0);
    Ok(Output::json(&report)?
        .sidecar("cost", wall, cells, tightness)
        .passed(passed))
}
