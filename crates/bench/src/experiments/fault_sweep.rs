//! Fault-injection robustness study: the self-healing offload path
//! (watchdog + bounded re-dispatch + cluster quarantine) exercised
//! against every fault site of the simulated MPSoC:
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin all_experiments -- \
//!     --only fault_sweep [--smoke] [--out <dir> | --replay <dir>]
//! ```
//!
//! Four sections, each self-asserting (the run exits non-zero when a
//! robustness claim fails, so CI can gate on it):
//!
//! 1. **Single-transient matrix** — exactly one fault per kind, forced
//!    at the first occurrence of its site. Claim: the watchdog +
//!    re-dispatch protocol recovers **100%** of single transient faults
//!    on the accelerator (no host fallback needed), with a
//!    verified-correct result.
//! 2. **Stochastic rate sweep** — fault-rate × kind × recovery-strategy
//!    grid. Claim: *every* job ends in a verified-correct completion or
//!    a typed, attributed failure — never silent data corruption, never
//!    a hang, never a panic. With host fallback enabled, completion is
//!    100%.
//! 3. **Quarantine degradation curve** — k = 0..6 permanently dead
//!    clusters on an 8-cluster machine. Claim: strike-based quarantine
//!    converges (exactly the dead clusters end up quarantined) and
//!    throughput degrades smoothly with k — no cliff, no collapse.
//! 4. **No-op byte-stability** — a zero-fault plan leaves the offload
//!    artifact byte-identical to running with no plan installed.
//!
//! Deterministic: two seed-equal runs serialize byte-identically (CI
//! replays `--smoke` against its own artifact). The command line and the
//! report's life cycle are [`crate::study`]'s.

use std::error::Error;

use crate::render_table;
use crate::study::{Output, Run};
use mpsoc_kernels::{Daxpy, Kernel};
use mpsoc_offload::{
    AttemptOutcome, OffloadStrategy, Offloader, RecoveredResult, RecoveryPolicy, ResilientReport,
};
use mpsoc_sim::rng::SplitMix64;
use mpsoc_soc::{FaultKind, FaultPlan, SiteSpec, SocConfig};
use serde::Serialize;

/// Operand seed; runs are deterministic in it.
const SEED: u64 = 0xFA_0175;
/// Extra cycles a stalled DMA burst takes, wherever the stall site is
/// armed.
const STALL_CYCLES: u64 = 400;

/// One single-transient-fault recovery experiment.
#[derive(Debug, Clone, Serialize)]
struct TransientRow {
    /// Fault site (one forced occurrence).
    kind: String,
    /// Offload strategy chosen so the site is actually exercised.
    strategy: String,
    /// Faults the injector actually placed (ground truth).
    faults_injected: u64,
    /// Dispatch attempts the resilient path needed.
    attempts: usize,
    /// How the first attempt ended.
    first_outcome: String,
    /// Whether recovery machinery ran (retry or fallback).
    recovered: bool,
    /// The result verified against the golden reference.
    verified: bool,
    /// End-to-end accounted cycles (attempts + backoff).
    total_cycles: u64,
}

/// One `(kind, rate, strategy)` cell of the stochastic sweep.
#[derive(Debug, Clone, Serialize)]
struct RateRow {
    kind: String,
    rate: f64,
    /// Recovery strategy name (`fallback` = host fallback enabled,
    /// `strict` = typed error once retries are exhausted).
    recovery: String,
    jobs: usize,
    /// Jobs that completed on the accelerator, verified.
    offloaded: usize,
    /// Jobs that completed via host fallback, verified.
    host_fallback: usize,
    /// Jobs that ended in a typed error (strict strategy only).
    typed_failures: usize,
    /// Total dispatch attempts across all jobs.
    attempts: usize,
    /// Ground-truth injected faults across all jobs.
    faults_injected: u64,
    /// Clusters quarantined by the end of the cell.
    quarantined: usize,
}

/// One point of the dead-cluster degradation curve.
#[derive(Debug, Clone, Serialize)]
struct QuarantineRow {
    dead_clusters: usize,
    jobs: usize,
    /// Clusters quarantined once the stream drained (must equal
    /// `dead_clusters`).
    quarantined: usize,
    /// Dispatch attempts the first (diagnosing) job needed.
    first_job_attempts: usize,
    /// Cycles the first job spent diagnosing and quarantining the dead
    /// clusters (watchdog budgets + backoff + the final clean run).
    diagnosis_cycles: u64,
    /// Accounted cycles for the post-quarantine jobs.
    steady_cycles: u64,
    /// Post-quarantine jobs per million accounted cycles.
    throughput_per_mcycle: f64,
}

/// The JSON artifact.
#[derive(Debug, Serialize)]
struct FaultSweepReport {
    seed: u64,
    smoke: bool,
    transient: Vec<TransientRow>,
    rates: Vec<RateRow>,
    quarantine: Vec<QuarantineRow>,
    noop_byte_stable: bool,
}

fn operands(n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SplitMix64::new(SEED ^ n as u64);
    let mut x = vec![0.0; n];
    let mut y = vec![0.0; n];
    rng.fill_f64(&mut x, -8.0, 8.0);
    rng.fill_f64(&mut y, -8.0, 8.0);
    (x, y)
}

/// The strategy under which `kind`'s site is actually on the offload
/// path: the AMO site only exists under the software polling barrier;
/// the credit site only under the credit counter. Everything else is
/// exercised by the extended (multicast + credit) path.
fn strategy_for(kind: FaultKind) -> (OffloadStrategy, &'static str) {
    match kind {
        FaultKind::AmoDrop => (OffloadStrategy::baseline(), "baseline"),
        _ => (OffloadStrategy::extended(), "extended"),
    }
}

/// A fault plan arming exactly one site.
fn plan_for(kind: FaultKind, spec: SiteSpec, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::with_seed(seed);
    *match kind {
        FaultKind::DispatchDrop => &mut plan.dispatch_drop,
        FaultKind::DispatchDup => &mut plan.dispatch_dup,
        FaultKind::WakeLoss => &mut plan.wake_loss,
        FaultKind::CreditLoss => &mut plan.credit_loss,
        FaultKind::DmaCorrupt => &mut plan.dma_corrupt,
        FaultKind::DmaStall => &mut plan.dma_stall,
        FaultKind::AmoDrop => &mut plan.amo_drop,
        other => panic!("{other} is not a stochastic site"),
    } = spec;
    plan.dma_stall_cycles = STALL_CYCLES;
    plan
}

fn outcome_name(outcome: AttemptOutcome) -> &'static str {
    match outcome {
        AttemptOutcome::Success => "success",
        AttemptOutcome::CorruptData => "corrupt_data",
        AttemptOutcome::WatchdogTimeout => "watchdog_timeout",
        AttemptOutcome::LostCompletion => "lost_completion",
    }
}

/// Section 1: one forced transient fault per site; the resilient path
/// must deliver a verified accelerator result every time.
fn transient_matrix(n: usize, m: usize) -> Vec<TransientRow> {
    let kernel = Daxpy::new(2.0);
    let (x, y) = operands(n);
    let policy = RecoveryPolicy::default();
    let mut rows = Vec::new();
    for (i, &kind) in FaultKind::SITES.iter().enumerate() {
        let (strategy, strategy_name) = strategy_for(kind);
        let mut off = Offloader::new(SocConfig::with_clusters(m)).expect("soc");
        off.install_faults(plan_for(kind, SiteSpec::once_at(0), SEED ^ i as u64));
        let report = off
            .offload_resilient(&kernel, &x, &y, m, strategy, &policy)
            .unwrap_or_else(|e| panic!("single transient {kind} must recover, got: {e}"));
        let verified = report.result.verify(&kernel, &x, &y).passed();
        let faults = off.soc().fault_stats().total();
        assert!(verified, "{kind}: recovered result must verify");
        assert!(
            faults >= 1,
            "{kind}: the forced fault must actually be exercised under {strategy_name}"
        );
        assert!(
            matches!(report.result, RecoveredResult::Offloaded(_)),
            "{kind}: a single transient fault must recover on the accelerator, \
             not via host fallback"
        );
        rows.push(TransientRow {
            kind: kind.name().to_owned(),
            strategy: strategy_name.to_owned(),
            faults_injected: faults,
            attempts: report.attempts.len(),
            first_outcome: outcome_name(report.attempts[0].outcome).to_owned(),
            recovered: report.recovered(),
            verified,
            total_cycles: report.total_cycles,
        });
    }
    rows
}

/// One verified resilient job; panics on any wrong result.
fn run_one(
    off: &mut Offloader,
    kernel: &dyn Kernel,
    x: &[f64],
    y: &[f64],
    m: usize,
    strategy: OffloadStrategy,
    policy: &RecoveryPolicy,
) -> Result<ResilientReport, String> {
    match off.offload_resilient(kernel, x, y, m, strategy, policy) {
        Ok(report) => {
            assert!(
                report.result.verify(kernel, x, y).passed(),
                "a completed resilient offload returned wrong data"
            );
            Ok(report)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Section 2: fault-rate × kind × recovery-strategy sweep.
fn rate_sweep(rates: &[f64], jobs: usize, n: usize, m: usize) -> Vec<RateRow> {
    let kernel = Daxpy::new(2.0);
    let (x, y) = operands(n);
    let strategies: [(&str, RecoveryPolicy); 2] = [
        ("fallback", RecoveryPolicy::default()),
        (
            "strict",
            RecoveryPolicy {
                host_fallback: false,
                ..RecoveryPolicy::default()
            },
        ),
    ];
    let mut rows = Vec::new();
    for (i, &kind) in FaultKind::SITES.iter().enumerate() {
        let (strategy, _) = strategy_for(kind);
        for &rate in rates {
            for (recovery_name, policy) in &strategies {
                let mut off = Offloader::new(SocConfig::with_clusters(m)).expect("soc");
                if rate > 0.0 {
                    off.install_faults(plan_for(
                        kind,
                        SiteSpec::rate(rate),
                        SEED ^ ((i as u64) << 8),
                    ));
                }
                let mut row = RateRow {
                    kind: kind.name().to_owned(),
                    rate,
                    recovery: (*recovery_name).to_owned(),
                    jobs,
                    offloaded: 0,
                    host_fallback: 0,
                    typed_failures: 0,
                    attempts: 0,
                    faults_injected: 0,
                    quarantined: 0,
                };
                for _ in 0..jobs {
                    match run_one(&mut off, &kernel, &x, &y, m, strategy, policy) {
                        Ok(report) => {
                            row.attempts += report.attempts.len();
                            match report.result {
                                RecoveredResult::Offloaded(_) => row.offloaded += 1,
                                RecoveredResult::Host { .. } => row.host_fallback += 1,
                            }
                        }
                        Err(_) => row.typed_failures += 1,
                    }
                }
                row.faults_injected = off.soc().fault_stats().total();
                row.quarantined = off.quarantined().count();
                assert_eq!(
                    row.offloaded + row.host_fallback + row.typed_failures,
                    jobs,
                    "every job must end verified-correct or as a typed failure"
                );
                if *recovery_name == "fallback" {
                    assert_eq!(
                        row.typed_failures, 0,
                        "{kind} @ {rate}: with host fallback every job completes"
                    );
                }
                if rate == 0.0 {
                    assert_eq!(row.faults_injected, 0);
                    assert_eq!(row.offloaded, jobs, "fault-free cells never retry");
                    assert_eq!(row.attempts, jobs);
                }
                rows.push(row);
            }
        }
    }
    rows
}

/// Section 3: k dead clusters on an `clusters`-cluster machine — the
/// first job diagnoses and quarantines them, the rest of the stream
/// runs degraded on the survivors.
fn quarantine_curve(max_dead: usize, clusters: usize, jobs: usize, n: usize) -> Vec<QuarantineRow> {
    let kernel = Daxpy::new(2.0);
    let (x, y) = operands(n);
    let policy = RecoveryPolicy {
        max_retries: 4,
        ..RecoveryPolicy::default()
    };
    let mut rows: Vec<QuarantineRow> = Vec::new();
    for dead in 0..=max_dead {
        let mut off = Offloader::new(SocConfig::with_clusters(clusters)).expect("soc");
        if dead > 0 {
            let mut plan = FaultPlan::with_seed(SEED ^ dead as u64);
            // Kill the *top* clusters so the surviving prefix keeps the
            // re-planned masks contiguous from cluster 0.
            plan.dead_clusters = ((1u64 << dead) - 1) << (clusters - dead);
            off.install_faults(plan);
        }
        let mut diagnosis_cycles = 0u64;
        let mut steady_cycles = 0u64;
        let mut first_job_attempts = 0usize;
        for job in 0..jobs {
            let report = run_one(
                &mut off,
                &kernel,
                &x,
                &y,
                clusters,
                OffloadStrategy::extended(),
                &policy,
            )
            .unwrap_or_else(|e| panic!("{dead} dead: job {job} must still complete: {e}"));
            assert!(
                matches!(report.result, RecoveredResult::Offloaded(_)),
                "{dead} dead of {clusters}: survivors must carry the job"
            );
            if job == 0 {
                first_job_attempts = report.attempts.len();
                diagnosis_cycles = report.total_cycles;
            } else {
                assert_eq!(
                    report.attempts.len(),
                    1,
                    "{dead} dead: after quarantine the stream runs clean"
                );
                steady_cycles += report.total_cycles;
            }
        }
        let quarantined = off.quarantined().count();
        assert_eq!(
            quarantined, dead,
            "strike attribution must quarantine exactly the dead clusters"
        );
        // Steady state: the post-quarantine jobs, with the one-off
        // diagnosis transient accounted separately.
        let throughput = (jobs - 1) as f64 / (steady_cycles as f64 / 1e6);
        if let Some(prev) = rows.last() {
            assert!(
                throughput <= prev.throughput_per_mcycle * 1.01,
                "{dead} dead: losing a cluster cannot raise steady throughput \
                 ({throughput:.1} vs {:.1})",
                prev.throughput_per_mcycle
            );
            assert!(
                throughput >= prev.throughput_per_mcycle * 0.50,
                "{dead} dead: degradation must be smooth, got a cliff \
                 ({throughput:.1} vs {:.1})",
                prev.throughput_per_mcycle
            );
        }
        rows.push(QuarantineRow {
            dead_clusters: dead,
            jobs,
            quarantined,
            first_job_attempts,
            diagnosis_cycles,
            steady_cycles,
            throughput_per_mcycle: throughput,
        });
    }
    rows
}

/// Section 4: a zero-fault plan must not perturb the artifact bytes.
fn noop_byte_stability(n: usize, m: usize) -> bool {
    let kernel = Daxpy::new(2.0);
    let (x, y) = operands(n);
    let run = |plan: Option<FaultPlan>| {
        let mut off = Offloader::new(SocConfig::with_clusters(m)).expect("soc");
        if let Some(plan) = plan {
            off.install_faults(plan);
        }
        let run = off
            .offload(&kernel, &x, &y, m, OffloadStrategy::extended())
            .expect("offload");
        serde_json::to_string(&run).expect("serialize")
    };
    let clean = run(None);
    let planned = run(Some(FaultPlan::with_seed(SEED)));
    assert_eq!(
        clean, planned,
        "a zero-fault plan must leave the offload byte-identical"
    );
    true
}

pub(super) fn run(run: &Run) -> Result<Output, Box<dyn Error>> {
    let smoke = run.smoke;

    let (n, m) = if smoke { (256, 4) } else { (1024, 8) };
    let rates: &[f64] = if smoke {
        &[0.0, 0.02]
    } else {
        &[0.0, 0.005, 0.02, 0.08]
    };
    let jobs = if smoke { 3 } else { 6 };

    println!("Fault sweep — self-healing offload under injected faults\n");

    let transient = transient_matrix(n, m);
    println!("single transient fault per site (forced at first occurrence):\n");
    let table: Vec<Vec<String>> = transient
        .iter()
        .map(|r| {
            vec![
                r.kind.clone(),
                r.strategy.clone(),
                r.faults_injected.to_string(),
                r.attempts.to_string(),
                r.first_outcome.clone(),
                if r.verified {
                    "yes".into()
                } else {
                    "NO".into()
                },
                r.total_cycles.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "site",
                "strategy",
                "faults",
                "attempts",
                "first outcome",
                "verified",
                "cycles"
            ],
            &table,
        )
    );
    println!("=> 100% of single transient faults recovered on the accelerator\n");

    let rate_rows = rate_sweep(rates, jobs, n, m);
    let table: Vec<Vec<String>> = rate_rows
        .iter()
        .map(|r| {
            vec![
                r.kind.clone(),
                format!("{:.3}", r.rate),
                r.recovery.clone(),
                format!("{}/{}", r.offloaded, r.jobs),
                r.host_fallback.to_string(),
                r.typed_failures.to_string(),
                r.attempts.to_string(),
                r.faults_injected.to_string(),
                r.quarantined.to_string(),
            ]
        })
        .collect();
    println!("stochastic rate sweep ({jobs} jobs per cell):\n");
    println!(
        "{}",
        render_table(
            &["site", "rate", "recovery", "offl", "host", "fail", "attempts", "faults", "quar"],
            &table,
        )
    );
    println!("=> every job verified-correct or a typed failure; 100% completion with fallback\n");

    let quarantine = quarantine_curve(6, 8, jobs, n);
    let table: Vec<Vec<String>> = quarantine
        .iter()
        .map(|r| {
            vec![
                r.dead_clusters.to_string(),
                r.quarantined.to_string(),
                r.first_job_attempts.to_string(),
                r.diagnosis_cycles.to_string(),
                r.steady_cycles.to_string(),
                format!("{:.1}", r.throughput_per_mcycle),
            ]
        })
        .collect();
    println!("dead-cluster degradation curve (8-cluster machine, {jobs} jobs each):\n");
    println!(
        "{}",
        render_table(
            &[
                "dead",
                "quarantined",
                "job0 attempts",
                "diagnosis",
                "steady cyc",
                "jobs/Mcyc"
            ],
            &table,
        )
    );
    println!("=> quarantine converges to exactly the dead set; throughput degrades smoothly\n");

    let noop_byte_stable = noop_byte_stability(n, m);
    println!("zero-fault plan byte-stability: ok");

    Ok(Output::json(&FaultSweepReport {
        seed: SEED,
        smoke,
        transient,
        rates: rate_rows,
        quarantine,
        noop_byte_stable,
    })?)
}
