//! The **fleet serving study**: offered load × shard count × placement
//! policy on the `mpsoc-serve` front-end, at serving scale.
//!
//! Each cell replays the *same* seeded Poisson job stream (seed depends
//! on load and shard count, never on policy) through a fleet of
//! independent SoC shards behind the balancer, and reports fleet-merged
//! SLOs: p50/p99 completion latency from exact per-shard histogram
//! merges, deadline attainment, host/offload/reject/steal accounting.
//! The sweep cells run on the analytic (Eq. 1) service backend so one
//! run sustains over a million jobs; two witness sections prove the
//! parts the sweep abstracts away:
//!
//! - **backpressure cells** rerun the overload point with a tight
//!   admission-queue cap and must reject with `QueueFull`,
//! - a **co-simulated witness** drives a small fleet of real simulated
//!   SoCs (with one injected DMA corruption per shard) through the same
//!   serving path, proving the stack end-to-end: every job resolves,
//!   and the corruption re-dispatch surfaces as a nonzero fleet retry
//!   count — the `JobRecord::retries` loop closed.
//!
//! Self-asserted claims: (1) the full run offers ≥ 1M jobs; (2) at ≥2×
//! overload, least-loaded or model-guided placement beats round-robin
//! on fleet p99 for every shard count; (3) backpressure cells reject
//! with `QueueFull`; (4) an in-process replay of one cell is exactly
//! reproducible. Wall-clock throughput goes **only** into
//! `BENCH_serve.json` (full runs); the report is a pure function of the
//! seed, so CI replays the study against its own artifact and requires
//! byte-identical output.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin all_experiments -- \
//!     --only serve_study [--smoke] [--out <dir> | --replay <dir>]
//! ```
//!
//! The command line and the report's life cycle are
//! [`crate::study`]'s: a full run writes
//! `results/serve_study.json` by default.

use std::error::Error;
use std::time::Instant;

use crate::render_table;
use crate::study::{Output, Run};
use mpsoc_offload::Offloader;
use mpsoc_sched::{
    AdmissionController, AdmissionDecision, ArrivalPattern, ModelTable, ServiceBackend, Workload,
};
use mpsoc_serve::{Fleet, FleetConfig, FleetSlo, PlacementPolicy, ALL_PLACEMENTS};
use mpsoc_soc::{FaultPlan, SiteSpec, SocConfig};
use serde::Serialize;

/// One `(backend, load, shards, policy)` cell of the study.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct ServeStudyRow {
    backend: String,
    offered_load: f64,
    shards: u64,
    clusters_per_shard: u64,
    queue_limit: u64,
    steal: bool,
    placement: String,
    jobs: u64,
    completed: u64,
    offloaded: u64,
    host_runs: u64,
    rejected: u64,
    queue_full: u64,
    steals: u64,
    retries: u64,
    deadline_met: u64,
    attainment: f64,
    /// `None` when the cell completed nothing (all-rejected). `Some(x)`
    /// serializes as the bare number, so populated cells keep the old
    /// artifact layout.
    p50: Option<u64>,
    p99: Option<u64>,
    mean_latency: f64,
    makespan: u64,
}

/// Renders an optional quantile for tables and logs.
fn fmt_p(p: Option<u64>) -> String {
    p.map_or_else(|| "-".to_owned(), |v| v.to_string())
}

/// The deterministic artifact: every cell, plus the run shape.
#[derive(Debug, Serialize)]
struct ServeStudyReport {
    smoke: bool,
    total_jobs: u64,
    rows: Vec<ServeStudyRow>,
}

/// SLO attainment summary per sweep cell: the study-specific `detail`
/// payload of the shared `BENCH_serve.json` sidecar.
#[derive(Debug, Serialize)]
struct BenchCell {
    offered_load: f64,
    shards: u64,
    placement: String,
    attainment: f64,
    p99: Option<u64>,
}

const SEED: u64 = 0x5E17_F1EE;
const CLUSTERS_PER_SHARD: usize = 4;
/// Every shard bounds its admission queue, as any real serving system
/// must: under sustained overload an unbounded queue makes all
/// work-conserving placements converge (the backlog swamps any
/// imbalance), while a bounded queue turns cycle-imbalance into the two
/// things a front-end actually observes — tail latency and rejections.
const QUEUE_LIMIT: usize = 32;

fn stream_seed(load: f64, shards: usize) -> u64 {
    // Policy-independent: every policy replays the identical stream.
    SEED ^ (load * 1000.0) as u64 ^ ((shards as u64) << 32)
}

/// Generates the cell's job stream and replays it through a fleet.
fn run_cell(
    table: &ModelTable,
    config: FleetConfig,
    load: f64,
    jobs_per_cell: usize,
    cosim: bool,
) -> Result<(ServeStudyRow, FleetSlo), Box<dyn std::error::Error>> {
    let seed = stream_seed(load, config.shards);
    let mut workload = Workload::balanced(
        jobs_per_cell,
        seed,
        ArrivalPattern::Poisson {
            mean_interarrival: 1.0,
        },
    );
    if !cosim {
        // Serving traffic is heavy-tailed: stretch the size distribution
        // two octaves past the balanced default so per-job demand varies
        // by ~50x. Count-balanced placement (round-robin) then
        // accumulates cycle imbalance that load-aware placement avoids —
        // the effect the study measures. The co-simulated witness keeps
        // the balanced sizes: 32Ki-element operands exceed a real
        // cluster's TCDM.
        workload.sizes = vec![256, 512, 1024, 2048, 4096, 8192, 16384, 32768];
    }
    // Price the stream at its *admitted* partition (Eq. 3 m_min), not
    // the reference size: these kernels are overhead-dominated, so the
    // deadline-minimal partition costs ~5x fewer cluster-cycles than
    // the reference prediction, and the naive
    // `interarrival_for_load` gap would leave a nominal 2.5x overload
    // running the fleet half idle. With the admitted pricing, ρ is a
    // true offered-utilization ratio. (The kernel/size/deadline draws
    // do not depend on the arrival gap, so the probe stream carries
    // the same jobs the run will see.)
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

    let mut fleet = if cosim {
        let mut backends = Vec::with_capacity(config.shards);
        for i in 0..config.shards {
            let mut offloader =
                Offloader::new(SocConfig::with_clusters(config.clusters_per_shard))?;
            // One DMA corruption per shard: the serving path must absorb
            // it via bounded re-dispatch and report it as a retry.
            let mut plan = FaultPlan::with_seed(SEED ^ i as u64);
            plan.dma_corrupt = SiteSpec::once_at(0);
            offloader.install_faults(plan);
            backends.push(ServiceBackend::co_simulated(offloader, seed ^ i as u64));
        }
        Fleet::with_backends(config, table, backends)
    } else {
        Fleet::analytic(config, table)
    };

    for job in &stream {
        fleet.submit(job.kernel, job.n, job.deadline, job.arrival)?;
    }
    fleet.drain()?;
    let slo = FleetSlo::from_fleet(&fleet);
    let row = ServeStudyRow {
        backend: if cosim { "cosim" } else { "analytic" }.to_owned(),
        offered_load: load,
        shards: slo.shards,
        clusters_per_shard: slo.clusters_per_shard,
        queue_limit: config.queue_limit as u64,
        steal: config.steal,
        placement: slo.placement.clone(),
        jobs: slo.submitted,
        completed: slo.completed,
        offloaded: slo.offloaded,
        host_runs: slo.host_runs,
        rejected: slo.rejected,
        queue_full: slo.queue_full,
        steals: slo.steals,
        retries: slo.retries,
        deadline_met: slo.deadline_met,
        attainment: slo.attainment,
        p50: slo.p50,
        p99: slo.p99,
        mean_latency: slo.mean_latency,
        makespan: slo.makespan,
    };
    Ok((row, slo))
}

pub(super) fn run(run: &Run) -> Result<Output, Box<dyn Error>> {
    let smoke = run.smoke;
    let (loads, shard_counts, jobs_per_cell, witness_jobs): (&[f64], &[usize], usize, usize) =
        if smoke {
            (&[0.6, 2.5], &[2, 4], 400, 24)
        } else {
            (&[0.6, 1.0, 2.5], &[2, 4, 8], 40_000, 80)
        };

    let table = ModelTable::paper_defaults();
    let started = Instant::now();
    let mut rows: Vec<ServeStudyRow> = Vec::new();

    // The sweep: load × shards × placement on the analytic backend.
    for &load in loads {
        for &shards in shard_counts {
            for placement in ALL_PLACEMENTS {
                let config = FleetConfig {
                    shards,
                    clusters_per_shard: CLUSTERS_PER_SHARD,
                    queue_limit: QUEUE_LIMIT,
                    placement,
                    steal: true,
                    redirect_budget: 0,
                    failover: false,
                };
                let (row, slo) = run_cell(&table, config, load, jobs_per_cell, false)?;
                let util = slo.per_shard.iter().map(|s| s.utilization).sum::<f64>()
                    / slo.per_shard.len() as f64;
                println!(
                    "load={load:.1} shards={shards} {:<12} p99={} attainment={:.3} \
                     util={util:.2} qfull={}",
                    row.placement,
                    fmt_p(row.p99),
                    row.attainment,
                    row.queue_full
                );
                rows.push(row);
            }
        }
    }
    let overload = loads.last().copied().expect("loads");

    // Stealing ablation: round-robin at the saturation point with and
    // without work stealing — idle shards rescuing queued work must
    // actually fire, repairing the blind policy's imbalance.
    for &shards in shard_counts {
        let mut ablation = Vec::new();
        for steal in [false, true] {
            let config = FleetConfig {
                shards,
                clusters_per_shard: CLUSTERS_PER_SHARD,
                queue_limit: QUEUE_LIMIT,
                placement: PlacementPolicy::RoundRobin,
                steal,
                redirect_budget: 0,
                failover: false,
            };
            let (row, _) = run_cell(&table, config, 1.0, jobs_per_cell, false)?;
            ablation.push(row);
        }
        let (without, with) = (&ablation[0], &ablation[1]);
        assert!(
            with.steals > 0,
            "shards={shards}: stealing must fire at the saturation point"
        );
        println!(
            "shards={shards} @ 1.0x: stealing moved {} jobs, p99 {} -> {}",
            with.steals,
            fmt_p(without.p99),
            fmt_p(with.p99)
        );
        rows.extend(ablation);
    }

    // Co-simulated witness: a small fleet of real simulated SoCs with
    // one injected DMA corruption per shard, through the same path.
    let witness_config = FleetConfig {
        shards: 2,
        clusters_per_shard: 2,
        queue_limit: 64,
        placement: PlacementPolicy::LeastLoaded,
        steal: true,
        redirect_budget: 0,
        failover: false,
    };
    let (witness, witness_slo) = run_cell(&table, witness_config, 1.2, witness_jobs, true)?;
    assert_eq!(
        witness.completed + witness.rejected,
        witness.jobs,
        "every witness job must resolve exactly once"
    );
    assert!(
        witness.retries > 0,
        "the injected corruptions must surface as fleet retries"
    );
    assert!(
        witness_slo.per_shard.len() == 2,
        "witness fleet must report both shards"
    );
    rows.push(witness);

    // Replay determinism, in-process: the first sweep cell again, and
    // the whole row must match exactly.
    let replay_config = FleetConfig {
        shards: shard_counts[0],
        clusters_per_shard: CLUSTERS_PER_SHARD,
        queue_limit: QUEUE_LIMIT,
        placement: ALL_PLACEMENTS[0],
        steal: true,
        redirect_budget: 0,
        failover: false,
    };
    let (replay, _) = run_cell(&table, replay_config, loads[0], jobs_per_cell, false)?;
    assert_eq!(
        replay, rows[0],
        "same seed + same stream must replay exactly"
    );

    let total_jobs: u64 = rows.iter().map(|r| r.jobs).sum();
    let wall = started.elapsed().as_secs_f64();

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.backend.clone(),
                format!("{:.1}", r.offered_load),
                r.shards.to_string(),
                r.queue_limit.to_string(),
                if r.steal { "on" } else { "off" }.to_owned(),
                r.placement.clone(),
                r.jobs.to_string(),
                r.rejected.to_string(),
                r.queue_full.to_string(),
                r.steals.to_string(),
                r.retries.to_string(),
                format!("{:.3}", r.attainment),
                fmt_p(r.p50),
                fmt_p(r.p99),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "backend",
                "load",
                "shards",
                "cap",
                "steal",
                "placement",
                "jobs",
                "rej",
                "qfull",
                "stolen",
                "retry",
                "attain",
                "p50",
                "p99",
            ],
            &table_rows,
        )
    );

    // The serving thesis: at ≥2x overload, load-aware placement beats
    // blind rotation on tail latency, for every fleet size. The fleet
    // must also visibly push back instead of queueing without bound.
    for &shards in shard_counts {
        let cell = |name: &str| {
            rows.iter()
                .find(|r| {
                    r.backend == "analytic"
                        && r.offered_load == overload
                        && r.shards == shards as u64
                        && r.steal
                        && r.placement == name
                })
                .expect("sweep cell")
        };
        let rr = cell("round_robin");
        let rr_p99 = rr.p99.expect("overloaded round-robin completes jobs");
        let best = cell("least_loaded")
            .p99
            .expect("least-loaded completes jobs")
            .min(
                cell("model_guided")
                    .p99
                    .expect("model-guided completes jobs"),
            );
        assert!(
            best < rr_p99,
            "shards={shards}: load-aware p99 {best} must beat round-robin {rr_p99}"
        );
        assert!(
            rr.queue_full > 0,
            "shards={shards}: overload must trigger queue-depth backpressure"
        );
        println!(
            "shards={shards} @ {overload}x overload: load-aware p99 {best} < round-robin {rr_p99}"
        );
    }
    if !smoke {
        assert!(
            total_jobs >= 1_000_000,
            "the full study must offer at least 1M jobs, got {total_jobs}"
        );
    }

    println!(
        "\n{total_jobs} jobs in {wall:.2}s ({:.0} jobs/sec)",
        total_jobs as f64 / wall
    );
    let cells: Vec<BenchCell> = rows
        .iter()
        .filter(|r| r.backend == "analytic" && r.steal)
        .map(|r| BenchCell {
            offered_load: r.offered_load,
            shards: r.shards,
            placement: r.placement.clone(),
            attainment: r.attainment,
            p99: r.p99,
        })
        .collect();
    let report = ServeStudyReport {
        smoke,
        total_jobs,
        rows,
    };
    Ok(Output::json(&report)?.sidecar("serve", wall, total_jobs, cells))
}
