//! The **chaos study**: fault rate × shard count × recovery policy on
//! the `mpsoc-serve` front-end, with every cell co-simulated — the
//! self-healing loop (strike accounting → mid-stream auto-quarantine →
//! shard health → failover and redirect) proved end to end under
//! seeded hardware failure.
//!
//! Every fleet carries a seeded per-shard [`FaultPlan`] in which shard
//! 0 is the *rotten machine*: every one of its clusters has a flaky DMA
//! engine corrupting bursts at the swept rate, while the other shards
//! run clean (disarmed) plans. Each cell replays the *same* seeded
//! Poisson job stream (seed depends on load and shard count, never on
//! rate or recovery arm) under one of three recovery policies:
//!
//! - **none** — auto-quarantine disabled, no failover, no redirect:
//!   corruption is absorbed by bounded re-dispatch alone, so every job
//!   on the rotten shard pays up to 4× its service time forever;
//! - **quarantine** — the three-strike board retires flaky clusters
//!   mid-stream, but a dead shard strands its queue (typed
//!   `DegradedMachine` rejections at drain);
//! - **full** — quarantine plus failover of a dead shard's queue to
//!   survivors and bounded redirect of backpressure-rejected jobs.
//!
//! Self-asserted claims: (1) zero-rate cells are byte-identical to the
//! same cell with no plan installed at all — a disarmed fault plan, and
//! the armed recovery machinery over a healthy fleet, are
//! observationally invisible; (2) at the maximum fault rate the
//! quarantining arms retire the rotten shard's clusters *mid-stream*
//! (nonzero quarantine mass, fleet still completing jobs) and pay
//! fewer corruption re-dispatches than the no-recovery arm; (3) at the
//! 2.5× overload witness cell, full recovery beats no-recovery on SLO
//! attainment by ≥ 15%; (4) every job resolves exactly once in every
//! cell; (5) an in-process replay of the first cell is exactly
//! reproducible. Wall-clock throughput goes **only** into
//! `BENCH_chaos.json` (full runs); the report is a pure function of the
//! seed, so CI replays the study against its own artifact and requires
//! byte-identical output.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin all_experiments -- \
//!     --only chaos_study [--smoke] [--out <dir> | --replay <dir>]
//! ```
//!
//! The command line and the report's life cycle are
//! [`crate::study`]'s: a full run writes
//! `results/chaos_study.json` by default, and `--replay` re-runs the
//! study at the scale `--smoke` selects and demands the recorded bytes.

use std::error::Error;
use std::time::Instant;

use crate::render_table;
use crate::study::{Output, Run};
use mpsoc_offload::Offloader;
use mpsoc_sched::{
    AdmissionController, AdmissionDecision, ArrivalPattern, ModelTable, ServiceBackend, Workload,
};
use mpsoc_serve::{Fleet, FleetConfig, FleetSlo, PlacementPolicy};
use mpsoc_soc::{FaultPlan, SocConfig};
use serde::Serialize;

const SEED: u64 = 0xC_4A05_F1EE;
const CLUSTERS_PER_SHARD: usize = 2;
/// Tight on purpose: a short admission queue keeps the waiting time of
/// *admitted* jobs inside their deadline slack, so SLO attainment
/// separates "served by healthy hardware" from "served late by flaky
/// hardware" instead of being swamped by queueing delay.
const QUEUE_LIMIT: usize = 4;
/// The sweep's offered load: saturation, where lost capacity hurts.
const SWEEP_LOAD: f64 = 1.0;
/// The witness cell's offered load: deep overload, the regime the
/// attainment claim is made in.
const WITNESS_LOAD: f64 = 2.5;

/// Workload geometry of one cell: the candidate problem sizes and the
/// deadline slack range drawn against the balanced reference partition.
struct Shape {
    sizes: &'static [u64],
    slack: (f64, f64),
}

/// The sweep runs the balanced default mix.
const SWEEP_SHAPE: Shape = Shape {
    sizes: &[256, 512, 1024, 2048, 4096],
    slack: (1.5, 6.0),
};

/// The witness cell's bimodal mix, chosen against the paper-default
/// model curves so corruption *couples* the job classes through the
/// allocator:
///
/// - **n = 512** admits at `M_min = 1` for every slack draw (t̂(1) =
///   661 ≤ 1.5 × t̂(8) = 774) with a deadline of 774–955 cycles — tight
///   enough that a job served at 4× corrupt tax (2644 cycles), or one
///   stuck behind a wide job, always misses;
/// - **n = 16384** is *forced* to `M_min = 2` (t̂(1) = 9788 exceeds
///   every deadline ≤ 1.85 × t̂(8) = 9489, while t̂(2) = 7125 fits every
///   one ≥ 1.5 × 5129 = 7694), so on a two-cluster shard it spans both
///   clusters — flaky DMA included — and its corrupt-tax completion
///   (28500 cycles) can never meet any deadline in the range;
/// - the host (1832 and 57384 cycles) meets neither class's deadline,
///   so no job escapes the accelerator path.
///
/// Without recovery, strict-FIFO shards keep dispatching doomed wide
/// jobs that occupy the *healthy* cluster alongside the flaky one;
/// with quarantine the degraded shard sheds them at admission as typed
/// `DegradedMachine` rejections and its surviving cluster serves the
/// narrow class almost unloaded.
const WITNESS_SHAPE: Shape = Shape {
    sizes: &[512, 16384],
    slack: (1.5, 1.85),
};

/// How a fleet responds to corrupting hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Recovery {
    /// Re-dispatch absorbs corruption; nothing is ever retired.
    None,
    /// Auto-quarantine retires flaky clusters; dead shards strand.
    Quarantine,
    /// Quarantine + failover of dead queues + redirect on backpressure.
    Full,
}

const ALL_RECOVERY: [Recovery; 3] = [Recovery::None, Recovery::Quarantine, Recovery::Full];

impl Recovery {
    fn name(self) -> &'static str {
        match self {
            Recovery::None => "none",
            Recovery::Quarantine => "quarantine",
            Recovery::Full => "full",
        }
    }
}

/// One `(rate, shards, recovery)` cell of the study.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct ChaosRow {
    recovery: String,
    fault_rate: f64,
    offered_load: f64,
    shards: u64,
    clusters_per_shard: u64,
    queue_limit: u64,
    jobs: u64,
    completed: u64,
    offloaded: u64,
    host_runs: u64,
    rejected: u64,
    queue_full: u64,
    retries: u64,
    quarantined_clusters: u64,
    dead_shards: u64,
    failovers: u64,
    redirects: u64,
    deadline_met: u64,
    attainment: f64,
    p50: Option<u64>,
    p99: Option<u64>,
    makespan: u64,
}

/// The deterministic artifact: every cell, plus the run shape.
#[derive(Debug, Serialize)]
struct ChaosStudyReport {
    smoke: bool,
    total_jobs: u64,
    rows: Vec<ChaosRow>,
}

/// Recovery-arm summary per cell: the study-specific `detail` payload
/// of the shared `BENCH_chaos.json` sidecar.
#[derive(Debug, Serialize)]
struct BenchCell {
    fault_rate: f64,
    shards: u64,
    recovery: String,
    attainment: f64,
    quarantined_clusters: u64,
}

fn fmt_p(p: Option<u64>) -> String {
    p.map_or_else(|| "-".to_owned(), |v| v.to_string())
}

fn stream_seed(load: f64, shards: usize) -> u64 {
    // Rate- and arm-independent: every recovery policy at a given
    // (load, shards) replays the identical stream.
    SEED ^ (load * 1000.0) as u64 ^ ((shards as u64) << 32)
}

/// The fleet's failure geography. Shard 0 is the *rotten machine*:
/// every cluster's DMA engine is flaky at `rate`, so under quarantine
/// it dies outright and exercises failover. Every other shard has
/// exactly one flaky cluster — cluster 0, the first-fit allocator's
/// *preferred* target — so without quarantine the poisoned cluster
/// keeps re-capturing work, while with it the shard degrades to its
/// healthy remainder. At `rate == 0.0` every site is disarmed and the
/// plan must be observationally invisible (the zero-rate cells prove it
/// byte-for-byte).
fn shard_plan(rate: f64, shard: usize) -> FaultPlan {
    let mut plan = FaultPlan::with_seed(SEED ^ (shard as u64).wrapping_mul(0x9E37_79B9));
    plan.flaky_corrupt_rate = rate;
    plan.flaky_clusters = if shard == 0 {
        (1u64 << CLUSTERS_PER_SHARD) - 1
    } else {
        0b1
    };
    plan
}

/// Generates the cell's job stream and replays it through a
/// co-simulated fleet under one recovery policy. `install_plans: false`
/// is the pristine baseline the zero-rate cells are compared against.
#[allow(clippy::too_many_arguments)] // one flat cell coordinate, as in the other studies
fn run_cell(
    table: &ModelTable,
    shape: &Shape,
    load: f64,
    shards: usize,
    rate: f64,
    recovery: Recovery,
    jobs_per_cell: usize,
    install_plans: bool,
) -> Result<(ChaosRow, FleetSlo), Box<dyn std::error::Error>> {
    let config = FleetConfig {
        shards,
        clusters_per_shard: CLUSTERS_PER_SHARD,
        queue_limit: QUEUE_LIMIT,
        placement: PlacementPolicy::ModelGuided,
        steal: true,
        redirect_budget: if recovery == Recovery::Full { 2 } else { 0 },
        failover: recovery == Recovery::Full,
    };
    let seed = stream_seed(load, shards);
    let mut workload = Workload::balanced(
        jobs_per_cell,
        seed,
        ArrivalPattern::Poisson {
            mean_interarrival: 1.0,
        },
    );
    workload.sizes = shape.sizes.to_vec();
    workload.slack = shape.slack;
    // Price the stream at its admitted partition, exactly as
    // `serve_study` does, so `load` is a true offered-utilization ratio
    // against the *configured* (healthy) capacity. The pricing is
    // rate- and arm-independent by construction.
    let probe = workload.generate(table);
    let admission = AdmissionController::new(table.clone(), config.clusters_per_shard as u64);
    let admitted_demand: f64 = probe
        .iter()
        .map(|j| match admission.admit(j) {
            AdmissionDecision::Offload { m_min, predicted } => m_min as f64 * predicted,
            _ => 0.0,
        })
        .sum::<f64>()
        / probe.len() as f64;
    let total_clusters = (config.shards * config.clusters_per_shard) as f64;
    workload.arrivals = ArrivalPattern::Poisson {
        mean_interarrival: admitted_demand / (load * total_clusters),
    };
    let stream = workload.generate(table);

    let mut backends = Vec::with_capacity(config.shards);
    for i in 0..config.shards {
        let mut offloader = Offloader::new(SocConfig::with_clusters(config.clusters_per_shard))?;
        if install_plans {
            offloader.install_faults(shard_plan(rate, i));
        }
        backends.push(ServiceBackend::co_simulated(offloader, seed ^ i as u64));
    }
    let mut fleet = Fleet::with_backends(config, table, backends);
    if recovery == Recovery::None {
        fleet.set_auto_quarantine(None);
    }
    for job in &stream {
        fleet.submit(job.kernel, job.n, job.deadline, job.arrival)?;
    }
    fleet.drain()?;
    let slo = FleetSlo::from_fleet(&fleet);
    assert_eq!(
        slo.completed + slo.rejected,
        slo.submitted,
        "every job must resolve exactly once \
         (rate={rate}, shards={shards}, recovery={})",
        recovery.name()
    );
    let row = ChaosRow {
        recovery: recovery.name().to_owned(),
        fault_rate: rate,
        offered_load: load,
        shards: slo.shards,
        clusters_per_shard: slo.clusters_per_shard,
        queue_limit: config.queue_limit as u64,
        jobs: slo.submitted,
        completed: slo.completed,
        offloaded: slo.offloaded,
        host_runs: slo.host_runs,
        rejected: slo.rejected,
        queue_full: slo.queue_full,
        retries: slo.retries,
        quarantined_clusters: slo.quarantined_clusters,
        dead_shards: slo.dead_shards,
        failovers: slo.failovers,
        redirects: slo.redirects,
        deadline_met: slo.deadline_met,
        attainment: slo.attainment,
        p50: slo.p50,
        p99: slo.p99,
        makespan: slo.makespan,
    };
    Ok((row, slo))
}

/// Runs the whole study and returns the deterministic report (the
/// printed narration is a side effect).
fn compute_report(smoke: bool) -> Result<ChaosStudyReport, Box<dyn std::error::Error>> {
    let (rates, shard_counts, jobs_per_cell, witness_jobs): (&[f64], &[usize], usize, usize) =
        if smoke {
            (&[0.0, 1.0], &[2], 48, 400)
        } else {
            (&[0.0, 0.2, 1.0], &[2, 4], 240, 800)
        };
    let table = ModelTable::paper_defaults();
    let mut rows: Vec<ChaosRow> = Vec::new();

    // The sweep: fault rate × shards × recovery arm, all co-simulated.
    for &rate in rates {
        for &shards in shard_counts {
            for recovery in ALL_RECOVERY {
                let (row, _) = run_cell(
                    &table,
                    &SWEEP_SHAPE,
                    SWEEP_LOAD,
                    shards,
                    rate,
                    recovery,
                    jobs_per_cell,
                    true,
                )?;
                println!(
                    "rate={rate:.1} shards={shards} {:<10} quarantined={} dead={} \
                     retries={} failovers={} redirects={} attainment={:.3}",
                    row.recovery,
                    row.quarantined_clusters,
                    row.dead_shards,
                    row.retries,
                    row.failovers,
                    row.redirects,
                    row.attainment
                );
                rows.push(row);
            }
        }
    }

    let cell = |rows: &[ChaosRow], rate: f64, shards: usize, arm: Recovery| -> ChaosRow {
        rows.iter()
            .find(|r| r.fault_rate == rate && r.shards == shards as u64 && r.recovery == arm.name())
            .expect("sweep cell")
            .clone()
    };

    // Claim 1: a zero-rate plan (and the armed recovery machinery over
    // the healthy fleet it implies) is byte-invisible — every zero-rate
    // cell must match the same cell with *no plan installed at all*.
    for &shards in shard_counts {
        for recovery in ALL_RECOVERY {
            let planned = cell(&rows, 0.0, shards, recovery);
            let (pristine, _) = run_cell(
                &table,
                &SWEEP_SHAPE,
                SWEEP_LOAD,
                shards,
                0.0,
                recovery,
                jobs_per_cell,
                false,
            )?;
            assert_eq!(
                planned,
                pristine,
                "shards={shards} {}: a disarmed fault plan must be invisible",
                recovery.name()
            );
            assert_eq!(planned.quarantined_clusters, 0);
            assert_eq!(planned.dead_shards, 0);
        }
    }
    println!("zero-rate cells reproduce the no-plan fleet byte-for-byte");

    // Claim 2: at the top fault rate the quarantining arms retire the
    // rotten shard mid-stream and stop paying the re-dispatch tax.
    let top = *rates.last().expect("rates");
    for &shards in shard_counts {
        let none = cell(&rows, top, shards, Recovery::None);
        let quarantine = cell(&rows, top, shards, Recovery::Quarantine);
        let full = cell(&rows, top, shards, Recovery::Full);
        assert_eq!(
            none.quarantined_clusters, 0,
            "the no-recovery arm must never quarantine"
        );
        for armed in [&quarantine, &full] {
            assert!(
                armed.quarantined_clusters > 0,
                "shards={shards} {}: auto-quarantine must fire mid-stream",
                armed.recovery
            );
            assert!(
                armed.completed > 0,
                "shards={shards} {}: the fleet must keep serving after quarantine",
                armed.recovery
            );
            assert!(
                armed.retries < none.retries,
                "shards={shards} {}: retiring flaky clusters must cut the \
                 re-dispatch tax ({} vs {})",
                armed.recovery,
                armed.retries,
                none.retries
            );
        }
        assert!(
            full.dead_shards > 0,
            "shards={shards}: the fully flaky shard must die"
        );
        println!(
            "rate={top:.1} shards={shards}: quarantine retired {} clusters, \
             retries {} -> {}",
            full.quarantined_clusters, none.retries, full.retries
        );
    }

    // Claim 3 — the witness: at 2.5x overload on the smallest fleet,
    // full recovery must beat no-recovery on SLO attainment by >= 15%.
    let witness_shards = shard_counts[0];
    let (none_w, _) = run_cell(
        &table,
        &WITNESS_SHAPE,
        WITNESS_LOAD,
        witness_shards,
        top,
        Recovery::None,
        witness_jobs,
        true,
    )?;
    let (full_w, _) = run_cell(
        &table,
        &WITNESS_SHAPE,
        WITNESS_LOAD,
        witness_shards,
        top,
        Recovery::Full,
        witness_jobs,
        true,
    )?;
    assert!(
        full_w.quarantined_clusters > 0,
        "witness: quarantine must fire mid-stream"
    );
    assert!(
        full_w.failovers > 0,
        "witness: the rotten shard's overload queue must evacuate to survivors"
    );
    assert!(
        full_w.deadline_met > 0,
        "witness: recovery must restore a nonzero deadline-met rate \
         (the claim below must not pass 0-vs-0 vacuously)"
    );
    assert!(
        full_w.attainment >= 1.15 * none_w.attainment,
        "witness: full recovery attainment {:.3} must beat no-recovery {:.3} by >= 15%",
        full_w.attainment,
        none_w.attainment
    );
    println!(
        "witness @ {WITNESS_LOAD}x overload: attainment {:.3} (none) -> {:.3} (full), \
         failovers={} redirects={}",
        none_w.attainment, full_w.attainment, full_w.failovers, full_w.redirects
    );
    rows.push(none_w);
    rows.push(full_w);

    // Claim 5: in-process replay of the first cell is exact.
    let (replay, _) = run_cell(
        &table,
        &SWEEP_SHAPE,
        SWEEP_LOAD,
        shard_counts[0],
        rates[0],
        ALL_RECOVERY[0],
        jobs_per_cell,
        true,
    )?;
    assert_eq!(
        replay, rows[0],
        "same seed + same stream must replay exactly"
    );

    let total_jobs: u64 = rows.iter().map(|r| r.jobs).sum();
    Ok(ChaosStudyReport {
        smoke,
        total_jobs,
        rows,
    })
}

pub(super) fn run(run: &Run) -> Result<Output, Box<dyn Error>> {
    let started = Instant::now();
    let report = compute_report(run.smoke)?;
    let wall = started.elapsed().as_secs_f64();

    let table_rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.recovery.clone(),
                format!("{:.1}", r.fault_rate),
                format!("{:.1}", r.offered_load),
                r.shards.to_string(),
                r.jobs.to_string(),
                r.rejected.to_string(),
                r.retries.to_string(),
                r.quarantined_clusters.to_string(),
                r.dead_shards.to_string(),
                r.failovers.to_string(),
                r.redirects.to_string(),
                format!("{:.3}", r.attainment),
                fmt_p(r.p99),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "recovery", "rate", "load", "shards", "jobs", "rej", "retry", "quar", "dead",
                "failover", "redirect", "attain", "p99",
            ],
            &table_rows,
        )
    );

    println!(
        "\n{} jobs in {wall:.2}s ({:.0} jobs/sec)",
        report.total_jobs,
        report.total_jobs as f64 / wall
    );
    let cells: Vec<BenchCell> = report
        .rows
        .iter()
        .map(|r| BenchCell {
            fault_rate: r.fault_rate,
            shards: r.shards,
            recovery: r.recovery.clone(),
            attainment: r.attainment,
            quarantined_clusters: r.quarantined_clusters,
        })
        .collect();
    let jobs = report.total_jobs;
    Ok(Output::json(&report)?.sidecar("chaos", wall, jobs, cells))
}
