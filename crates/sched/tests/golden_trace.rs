//! Golden closed-run traces: fixed `Engine::run` scenarios whose Chrome
//! trace export and serialized report are pinned by length and FNV-1a
//! hash.
//!
//! The analytic scenario covers every event the engine records on that
//! backend: arrivals, queue waits, offload spans, serial host runs, and
//! lint, static-cost and Eq. 3 rejections, with completions that tie
//! with arrivals. The co-simulated scenario injects DMA corruption, so
//! re-dispatches and automatic quarantines appear, and runs twice on one
//! engine so the second run starts from the quarantine the first left;
//! the second run strands a queued job, whose degraded rejection at
//! drain is traced.
//! Job ids differ from input positions and two jobs share one, so a
//! change that relabels jobs shows up in the `job_arrive` and `reject`
//! payloads. Any change to event order, span numbering, payloads or the
//! simulated results changes a hash.

use mpsoc_lint::LintContext;
use mpsoc_sched::{
    CostGate, Engine, FifoFirstFit, Job, JobOutcome, KernelId, LintGate, ModelGuided, ModelTable,
    RejectReason, RunReport, SchedPolicy, ServiceBackend,
};
use mpsoc_soc::{FaultPlan, SiteSpec, SocConfig};
use mpsoc_telemetry::{chrome_trace_json, validate_chrome_trace};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(arrival, kernel, n, deadline)` rows become jobs whose ids count
/// down from 500, except that the fourth job reuses the second's id.
fn stream(rows: &[(u64, KernelId, u64, u64)]) -> Vec<Job> {
    let mut jobs: Vec<Job> = rows
        .iter()
        .enumerate()
        .map(|(i, &(arrival, kernel, n, deadline))| Job {
            id: 500 - 7 * i as u64,
            kernel,
            n,
            arrival,
            deadline,
        })
        .collect();
    jobs[3].id = jobs[1].id;
    jobs
}

/// Runs `jobs` and returns `(trace length, trace hash, report length,
/// report hash)`, after checking that the trace is schema-valid and
/// that the report keeps every job in its input slot.
fn fingerprint(
    engine: &mut Engine,
    jobs: &[Job],
    policy: &mut dyn SchedPolicy,
) -> (RunReport, [u64; 4]) {
    let report = engine.run(jobs, policy).expect("run");
    for (record, job) in report.records.iter().zip(jobs) {
        assert_eq!(record.job, *job);
    }
    let trace = chrome_trace_json(engine.telemetry());
    validate_chrome_trace(&trace).expect("schema-valid trace");
    let json = serde_json::to_string(&report).expect("report serializes");
    let print = [
        trace.len() as u64,
        fnv1a(trace.as_bytes()),
        json.len() as u64,
        fnv1a(json.as_bytes()),
    ];
    (report, print)
}

fn kinds(engine: &Engine) -> Vec<&'static str> {
    engine
        .telemetry()
        .events()
        .iter()
        .map(|e| e.kind.name())
        .collect()
}

fn rejected(report: &RunReport, pred: fn(&RejectReason) -> bool) -> usize {
    report
        .records
        .iter()
        .filter(|r| matches!(r.outcome, JobOutcome::Rejected { reason } if pred(&reason)))
        .count()
}

/// A 2-cluster machine whose lint gate sees an 8 Ki-word TCDM, so daxpy
/// at n ≥ 4096 fails verification while smaller jobs pass.
fn analytic_engine() -> Engine {
    let table = ModelTable::paper_defaults();
    let mut engine = Engine::new(table.clone(), 2, ServiceBackend::analytic(table));
    engine.enable_lint(LintGate::new(
        LintContext {
            tcdm_words: 8192,
            ..LintContext::manticore()
        },
        8,
    ));
    engine.enable_cost(CostGate::new(SocConfig::with_clusters(2)));
    engine.enable_telemetry(1 << 14);
    engine
}

fn analytic_stream() -> Vec<Job> {
    use KernelId::{Daxpy, Dot, Memset, Scale, VecAdd};
    stream(&[
        // Three one-cluster offloads on two clusters: the third waits.
        (0, Daxpy, 1024, 100_000),
        (0, Daxpy, 1024, 100_000),
        (0, Daxpy, 1024, 1_500),
        // Eq. 3 needs five clusters.
        (0, Daxpy, 256, 450),
        // Below break-even: two runs back to back on the host.
        (10, Daxpy, 64, 100_000),
        (10, Daxpy, 64, 100_000),
        // Fails the lint gate.
        (20, Daxpy, 4096, 100_000),
        // Under the static best-case bound.
        (20, Daxpy, 1024, 30),
        (300, Memset, 2048, 1_100),
        (400, Dot, 2048, 5_000),
        (400, Scale, 1024, 2_000),
        // Arrives as the first two offloads finish.
        (956, VecAdd, 1024, 3_000),
        (956, Daxpy, 256, 700),
        (956, Daxpy, 2048, 3_000),
        (1_500, Daxpy, 64, 100_000),
        (1_500, Memset, 1024, 1_500),
        (2_000, Dot, 4096, 100_000),
        (2_100, Daxpy, 512, 900),
        (2_100, Scale, 2048, 2_500),
        (2_100, Daxpy, 1024, 20_000),
        (4_000, VecAdd, 256, 1_000),
    ])
}

#[test]
fn analytic_trace_is_pinned() {
    let jobs = analytic_stream();
    let mut engine = analytic_engine();
    let mut prints = Vec::new();
    let policies: [&mut dyn SchedPolicy; 2] = [&mut FifoFirstFit, &mut ModelGuided];
    for policy in policies {
        let (report, print) = fingerprint(&mut engine, &jobs, policy);
        let kinds = kinds(&engine);
        for kind in ["job_arrive", "offload", "queue_wait", "host_run", "reject"] {
            assert!(
                kinds.contains(&kind),
                "{} trace lacks {kind}",
                report.policy
            );
        }
        assert!(rejected(&report, |r| matches!(r, RejectReason::ProgramLint { .. })) > 0);
        assert!(
            rejected(&report, |r| matches!(
                r,
                RejectReason::StaticInfeasible { .. }
            )) > 0
        );
        assert!(
            rejected(&report, |r| matches!(
                r,
                RejectReason::NotEnoughClusters { .. }
            )) > 0
        );
        prints.push(print);
    }
    assert_eq!(prints, GOLDEN_ANALYTIC);
}

/// A 4-cluster co-simulated machine whose DMA corrupts a third of its
/// bursts: tenants are re-dispatched, and clusters that keep corrupting
/// are quarantined mid-stream.
fn cosim_engine() -> Engine {
    let table = ModelTable::paper_defaults();
    let mut offloader = mpsoc_offload::Offloader::new(SocConfig::with_clusters(4)).expect("soc");
    let mut plan = FaultPlan::with_seed(0x5EED);
    plan.dma_corrupt = SiteSpec::rate(0.3);
    offloader.install_faults(plan);
    let mut engine = Engine::new(table, 4, ServiceBackend::co_simulated(offloader, 0xBEEF));
    engine.enable_cost(CostGate::new(SocConfig::with_clusters(4)));
    engine.enable_telemetry(1 << 14);
    engine
}

fn cosim_stream() -> Vec<Job> {
    use KernelId::{Daxpy, Dot, Scale};
    stream(&[
        (0, Daxpy, 1024, 100_000),
        (0, Daxpy, 512, 100_000),
        (0, Scale, 1024, 100_000),
        (0, Daxpy, 256, 100_000),
        (0, Daxpy, 1024, 100_000),
        (50, Daxpy, 64, 100_000),
        (50, Daxpy, 1024, 30),
        (400, Dot, 512, 100_000),
        (400, Daxpy, 2048, 100_000),
        (900, Scale, 256, 100_000),
        (900, Daxpy, 512, 100_000),
        (1_800, Daxpy, 1024, 100_000),
    ])
}

#[test]
fn cosimulated_trace_is_pinned() {
    let jobs = cosim_stream();
    let mut engine = cosim_engine();
    let mut prints = Vec::new();
    let mut kinds_seen = Vec::new();
    for _ in 0..2 {
        let (report, print) = fingerprint(&mut engine, &jobs, &mut FifoFirstFit);
        kinds_seen.extend(kinds(&engine));
        assert!(
            rejected(&report, |r| matches!(
                r,
                RejectReason::StaticInfeasible { .. }
            )) > 0
        );
        prints.push(print);
    }
    for kind in [
        "redispatch",
        "quarantine",
        "queue_wait",
        "host_run",
        "offload",
    ] {
        assert!(
            kinds_seen.contains(&kind),
            "co-simulated traces lack {kind}"
        );
    }
    assert_eq!(prints, GOLDEN_COSIM);
}

/// `[trace length, trace FNV-1a, report length, report FNV-1a]` per run.
const GOLDEN_ANALYTIC: [[u64; 4]; 2] = [
    [13006, 3987713478441603515, 4296, 3576946006679825454],
    [12813, 2508323334020508001, 4304, 5078591646434588284],
];
const GOLDEN_COSIM: [[u64; 4]; 2] = [
    [9868, 17950905576453565954, 2607, 16140207383093186083],
    [10558, 5671457157600802651, 2623, 11539182071732088702],
];
