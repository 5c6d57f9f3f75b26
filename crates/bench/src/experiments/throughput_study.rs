//! The **throughput study**: how fast does the simulator itself run —
//! simulated-cycles-per-wall-second per service backend — with the
//! wall-clock self-profiler attributing where the time goes.
//!
//! The sweep drives the scheduling [`Engine`] over backend
//! (`analytic` / `measured` / `cosim`) × workload scale under a single
//! FIFO policy, with the hierarchical profiler enabled. It is two
//! studies in one file, kept strictly apart by the repo's determinism
//! discipline:
//!
//! - the **cycle-domain report** (`results/throughput.json`) is a pure
//!   function of the seed: per-cell job accounting, makespan, p95 —
//!   CI replays the study against its own artifact and byte-compares;
//! - the **wall-clock sidecar** (`BENCH_throughput.json`, full runs
//!   only) carries simulated-cycles-per-wall-second per backend and the
//!   hottest profile sites — never byte-compared.
//!
//! Self-asserted claims:
//!
//! 1. the profile tree reconciles with end-to-end wall time: the root
//!    scope's total is within 10% of an independent `Instant` measure;
//! 2. the interpreter (`isa.interpret`) and scheduler
//!    (`sched.engine.run`) hot sites are live — nonzero calls and time;
//! 3. with profiling disabled (`profile::set_enabled(false)` — the
//!    per-scope fast path is a single branch), the cycle-domain report
//!    replays **byte-identically**, and no samples are recorded;
//! 4. every backend sustains a nonzero cycles-per-wall-second rate;
//! 5. a live daemon answers `GetStats` with SLO quantiles equal —
//!    field for field — to a direct [`FleetSlo`] summary of its fleet.
//!
//! The study switches the process-wide profiler on for its profiled
//! pass and off for claim 3, then sets it back to what it found, so the
//! entries that run after it in one `all_experiments` process keep the
//! process's profiling state (`MPSOC_PROFILE`).
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin all_experiments -- \
//!     --only throughput_study [--smoke] [--out <dir> | --replay <dir>] \
//!     [--flamegraph out.folded] [--chrome out.trace.json]
//! ```
//!
//! `--flamegraph` writes collapsed stacks (`inferno` / `flamegraph.pl`
//! compatible); `--chrome` writes a `chrome://tracing` view of the
//! profile tree. Both name output files, so neither goes with
//! `--replay`. The rest of the command line and the report's life
//! cycle are [`crate::study`]'s.

use std::error::Error;
use std::time::Instant;

use crate::render_table;
use crate::study::{Output, Run};
use mpsoc_offload::Offloader;
use mpsoc_sched::{
    ArrivalPattern, Engine, FifoFirstFit, KernelId, ModelTable, ServiceBackend, Workload,
};
use mpsoc_serve::{
    prometheus_text, ClientScript, Daemon, Fleet, FleetConfig, FleetSlo, PlacementPolicy, Response,
};
use mpsoc_soc::SocConfig;
use mpsoc_telemetry::{profile, profile_chrome_trace_json, SiteTotal, ThroughputMeter};
use serde::Serialize;

/// One deterministic `(backend, scale)` cell: cycle-domain accounting
/// only — nothing here may depend on wall time.
#[derive(Debug, Serialize)]
struct CycleRow {
    backend: String,
    jobs: u64,
    offloaded: u64,
    host_runs: u64,
    rejected: u64,
    deadline_misses: u64,
    makespan: u64,
    p95_latency: u64,
}

/// The deterministic artifact.
#[derive(Debug, Serialize)]
struct ThroughputReport {
    smoke: bool,
    rows: Vec<CycleRow>,
}

/// Wall-clock payload of `BENCH_throughput.json`.
#[derive(Debug, Serialize)]
struct ThroughputDetail {
    /// Simulated-cycles-per-wall-second per backend.
    rates: Vec<mpsoc_telemetry::ThroughputRow>,
    /// Hottest profile sites by self time.
    hot_sites: Vec<SiteTotal>,
}

const SEED: u64 = 0x7410_0C75;
const CLUSTERS: usize = 8;

/// Sets the profiler switch back to what it captured when dropped, so
/// the entry leaves the process's profiling state as it found it on
/// every exit path.
struct RestoreProfiling(bool);

impl Drop for RestoreProfiling {
    fn drop(&mut self) {
        profile::set_enabled(self.0);
    }
}

/// Runs one cell and returns its deterministic row plus the makespan
/// (the simulated-cycle count the throughput meter charges).
fn run_cell(
    table: &ModelTable,
    backend_name: &str,
    jobs_n: usize,
) -> Result<CycleRow, Box<dyn std::error::Error>> {
    let mut workload = Workload::balanced(
        jobs_n,
        SEED ^ jobs_n as u64,
        ArrivalPattern::Poisson {
            mean_interarrival: 1.0,
        },
    );
    let gap = workload.interarrival_for_load(table, CLUSTERS, 0.8);
    workload.arrivals = ArrivalPattern::Poisson {
        mean_interarrival: gap,
    };
    let jobs = workload.generate(table);
    let backend = match backend_name {
        "analytic" => ServiceBackend::analytic(table.clone()),
        "measured" => {
            ServiceBackend::measured(Offloader::new(SocConfig::with_clusters(CLUSTERS))?, SEED)
        }
        _ => {
            ServiceBackend::co_simulated(Offloader::new(SocConfig::with_clusters(CLUSTERS))?, SEED)
        }
    };
    let mut engine = Engine::new(table.clone(), CLUSTERS, backend);
    let report = engine.run(&jobs, &mut FifoFirstFit)?;
    let m = report.metrics;
    Ok(CycleRow {
        backend: backend_name.to_owned(),
        jobs: m.jobs as u64,
        offloaded: m.offloaded as u64,
        host_runs: m.host_runs as u64,
        rejected: m.rejected as u64,
        deadline_misses: m.deadline_misses as u64,
        makespan: m.makespan,
        p95_latency: m.p95_latency,
    })
}

/// The full backend × scale sweep. The meter charges each cell's
/// simulated makespan against its wall time, keyed by backend.
fn run_sweep(
    table: &ModelTable,
    cells: &[(&str, Vec<usize>)],
    meter: &mut ThroughputMeter,
) -> Result<Vec<CycleRow>, Box<dyn std::error::Error>> {
    let mut rows = Vec::new();
    for &(backend, ref scales) in cells {
        for &jobs_n in scales {
            let row = meter.measure(backend, || {
                let row = run_cell(table, backend, jobs_n);
                let cycles = row.as_ref().map(|r| r.makespan).unwrap_or(0);
                (cycles, row)
            })?;
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Claim 5: a live daemon's `GetStats` answer equals the direct
/// [`FleetSlo`] summary of its fleet, quantiles included.
fn assert_daemon_stats_exact() -> Result<(), Box<dyn std::error::Error>> {
    let fleet = Fleet::analytic(
        FleetConfig {
            shards: 2,
            clusters_per_shard: 4,
            queue_limit: 8,
            placement: PlacementPolicy::LeastLoaded,
            steal: true,
            redirect_budget: 0,
            failover: false,
        },
        &ModelTable::paper_defaults(),
    );
    let mut daemon = Daemon::new(fleet);
    let mut jobs = ClientScript::new();
    for i in 0..40u64 {
        // Mostly servable traffic with a few infeasible deadlines, so
        // the report carries reject-reason counters too.
        let deadline = if i % 9 == 0 { 300 } else { 60_000 };
        jobs.submit_at(i * 70, i, KernelId::Daxpy, 1024 << (i % 3), deadline);
    }
    daemon.run(&[jobs])?;
    let mut poll = ClientScript::new();
    poll.poll_stats_at(5_000);
    let logs = daemon.run(&[poll])?;
    let responses = logs[0].responses()?;
    let Some(Response::Stats { report }) = responses.first() else {
        return Err("daemon did not answer GetStats".into());
    };
    let direct = FleetSlo::from_fleet(daemon.fleet());
    assert_eq!(
        report.slo, direct,
        "GetStats must match a direct FleetSlo summary exactly"
    );
    assert_eq!(report.slo.p50, direct.p50, "p50 must match exactly");
    assert_eq!(report.slo.p99, direct.p99, "p99 must match exactly");
    assert!(
        report
            .reject_reasons
            .iter()
            .any(|(k, v)| k == "infeasible" && *v > 0),
        "the infeasible submissions must show in the reason breakdown"
    );
    println!(
        "daemon GetStats: p50={:?} p99={:?} attainment={:.3} — matches FleetSlo exactly",
        report.slo.p50, report.slo.p99, report.slo.attainment
    );
    // The same report, as a scraper would see it.
    let text = prometheus_text(report, &[]);
    for line in text.lines().filter(|l| !l.starts_with('#')).take(3) {
        println!("  {line}");
    }
    Ok(())
}

pub(super) fn run(run: &Run) -> Result<Output, Box<dyn Error>> {
    let smoke = run.smoke;
    let cells: Vec<(&str, Vec<usize>)> = if smoke {
        vec![
            ("analytic", vec![300, 900]),
            ("measured", vec![20, 50]),
            ("cosim", vec![15, 35]),
        ]
    } else {
        vec![
            ("analytic", vec![20_000, 50_000]),
            ("measured", vec![120, 240]),
            ("cosim", vec![80, 160]),
        ]
    };
    let table = ModelTable::paper_defaults();

    // Profiled pass: the deterministic sweep under the profiler, with
    // an independent wall-clock measure around the same region.
    let restore = RestoreProfiling(profile::enabled());
    profile::set_enabled(true);
    profile::reset();
    let mut meter = ThroughputMeter::new();
    let started = Instant::now();
    let rows = {
        let _root = profile::scope("throughput_study.run");
        run_sweep(&table, &cells, &mut meter)?
    };
    let wall = started.elapsed();
    let prof = profile::snapshot();

    // Claim 1: the profile tree reconciles with wall time within 10%.
    let wall_ns = wall.as_nanos() as u64;
    let prof_ns = prof.total_ns();
    let drift = (wall_ns as f64 - prof_ns as f64).abs() / wall_ns as f64;
    assert!(
        drift <= 0.10,
        "profile total {prof_ns}ns vs wall {wall_ns}ns drifts {:.1}% (> 10%)",
        drift * 100.0
    );

    // Claim 2: the wired hot sites are live.
    let sites = prof.site_totals();
    let site = |name: &str| sites.iter().find(|s| s.name == name);
    for required in ["isa.interpret", "sched.engine.run"] {
        let s =
            site(required).unwrap_or_else(|| panic!("required profile site {required} missing"));
        assert!(
            s.calls > 0 && s.total_ns > 0,
            "site {required} must be live, got {s:?}"
        );
    }

    println!(
        "profiled sweep: {} cells, wall {:.2}s, profile drift {:.2}%",
        rows.len(),
        wall.as_secs_f64(),
        drift * 100.0
    );
    println!("top-3 hot sites (by self time):");
    for s in sites.iter().take(3) {
        println!(
            "  {:<24} {:>10} calls  self {:>8.1}ms  total {:>8.1}ms",
            s.name,
            s.calls,
            s.self_ns as f64 / 1e6,
            s.total_ns as f64 / 1e6
        );
    }

    // Claim 3: profiling off — a single disabled branch per scope —
    // replays the cycle-domain report byte-identically and records
    // nothing.
    profile::set_enabled(false);
    profile::reset();
    let mut silent_meter = ThroughputMeter::new();
    let rows_off = run_sweep(&table, &cells, &mut silent_meter)?;
    assert_eq!(
        serde_json::to_string(&rows)?,
        serde_json::to_string(&rows_off)?,
        "cycle-domain report must be byte-identical with profiling off"
    );
    assert!(
        profile::snapshot().roots.is_empty(),
        "disabled profiler must record no samples"
    );
    drop(restore);
    println!("profiling-off replay: byte-identical ✓");

    // Claim 4: every backend sustained a nonzero simulation rate.
    let rates = meter.report();
    for backend in ["analytic", "cosim", "measured"] {
        let r = rates
            .iter()
            .find(|r| r.component == backend)
            .unwrap_or_else(|| panic!("no throughput row for {backend}"));
        assert!(
            r.cycles_per_wall_second > 0.0,
            "{backend} must sustain a nonzero rate"
        );
    }
    println!(
        "\n{}",
        render_table(
            &["backend", "sim cycles", "wall s", "cycles/s"],
            &rates
                .iter()
                .map(|r| vec![
                    r.component.clone(),
                    r.sim_cycles.to_string(),
                    format!("{:.3}", r.wall_seconds),
                    format!("{:.3e}", r.cycles_per_wall_second),
                ])
                .collect::<Vec<_>>(),
        )
    );

    // Claim 5: live daemon stats.
    assert_daemon_stats_exact()?;

    // Optional profile exports.
    if let Some(flame) = run.path("--flamegraph") {
        std::fs::write(&flame, prof.collapsed())?;
        println!("wrote {} (collapsed stacks)", flame.display());
    }
    if let Some(chrome) = run.path("--chrome") {
        std::fs::write(&chrome, profile_chrome_trace_json(&prof))?;
        println!("wrote {} (chrome trace)", chrome.display());
    }

    let total_jobs: u64 = rows.iter().map(|r| r.jobs).sum();
    let detail = ThroughputDetail {
        rates,
        hot_sites: sites.into_iter().take(10).collect(),
    };
    Ok(Output::json(&ThroughputReport { smoke, rows })?.sidecar(
        "throughput",
        wall.as_secs_f64(),
        total_jobs,
        detail,
    ))
}
