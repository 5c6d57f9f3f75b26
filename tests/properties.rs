//! Property-based tests spanning the whole stack: random workloads
//! through the full offload pipeline, and algebraic invariants of the
//! model/decision layer.

use proptest::prelude::*;

use mpsoc::kernels::{Axpby, Daxpy, Dot, Kernel, Scale, Sum, VecAdd};
use mpsoc::noc::ClusterMask;
use mpsoc::offload::decision::{max_problem_size, min_clusters};
use mpsoc::offload::{OffloadStrategy, Offloader, RuntimeModel, Sample, SessionStep};
use mpsoc::sim::rng::SplitMix64;
use mpsoc::sim::Cycle;
use mpsoc::soc::SocConfig;

fn operands(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let mut x = vec![0.0; n];
    let mut y = vec![0.0; n];
    rng.fill_f64(&mut x, -16.0, 16.0);
    rng.fill_f64(&mut y, -16.0, 16.0);
    (x, y)
}

fn kernel_by_index(i: u8) -> Box<dyn Kernel> {
    match i % 6 {
        0 => Box::new(Daxpy::new(1.75)),
        1 => Box::new(Axpby::new(-0.25, 2.0)),
        2 => Box::new(Scale::new(3.5)),
        3 => Box::new(VecAdd::new()),
        4 => Box::new(Dot::new()),
        _ => Box::new(Sum::new()),
    }
}

/// The concurrent-session contract: a *single* job routed through the
/// submit/advance path is cycle-identical to the legacy blocking
/// `offload` path — for every zoo kernel under every dispatch × sync
/// combination. This is what licenses `run_offload` (and every
/// fig1/eq1/eq2 artifact built on it) to be a thin wrapper over the
/// multi-tenant substrate.
#[test]
fn session_path_is_cycle_identical_to_blocking_path_for_the_zoo() {
    let n = 257;
    for kernel in mpsoc::kernels::zoo() {
        let (x, _) = operands(n * kernel.x_words_per_elem() as usize, 0xC0FFEE);
        let (_, y) = operands(n, 0xC0FFEE);
        for strategy in OffloadStrategy::all() {
            let mut legacy = Offloader::new(SocConfig::with_clusters(4)).expect("soc");
            let want = legacy
                .offload(kernel.as_ref(), &x, &y, 4, strategy)
                .expect("blocking offload");

            let mut session = Offloader::new(SocConfig::with_clusters(4)).expect("soc");
            session.begin_jobs();
            session
                .submit_at(
                    kernel.as_ref(),
                    &x,
                    &y,
                    ClusterMask::first(4),
                    strategy,
                    Cycle::ZERO,
                )
                .expect("submit");
            let got = loop {
                match session.advance_jobs(Cycle::MAX).expect("advance") {
                    SessionStep::Completed(t) => break t,
                    SessionStep::Horizon => continue,
                    SessionStep::Idle => panic!("session drained without a completion"),
                }
            };
            let tag = format!("{} {strategy}", kernel.name());
            assert_eq!(got.run.cycles(), want.cycles(), "total: {tag}");
            assert_eq!(got.run.outcome.phases, want.outcome.phases, "phases: {tag}");
            assert_eq!(
                got.run.outcome.host_busy_cycles, want.outcome.host_busy_cycles,
                "host busy: {tag}"
            );
            assert_eq!(got.run.result, want.result, "result: {tag}");
            assert_eq!(got.host_wait_cycles, 0, "solo tenant never queues: {tag}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random workload offloaded to any cluster count verifies
    /// against its golden reference, under both runtimes.
    #[test]
    fn random_offloads_always_verify(
        n in 1usize..700,
        m in 1usize..=8,
        kernel_idx in 0u8..6,
        seed in any::<u64>(),
    ) {
        let mut off = Offloader::new(SocConfig::with_clusters(8)).expect("soc");
        let kernel = kernel_by_index(kernel_idx);
        let (x, y) = operands(n, seed);
        for strategy in [OffloadStrategy::baseline(), OffloadStrategy::extended()] {
            let run = off.offload(kernel.as_ref(), &x, &y, m, strategy).expect("offload");
            let report = run.verify(kernel.as_ref(), &x, &y);
            prop_assert!(report.passed(), "{} n={n} m={m} {strategy}: {report}", kernel.name());
        }
    }

    /// The extended runtime never meaningfully loses to the baseline:
    /// the baseline's completion detection is quantized by its polling
    /// period (~46 cycles), so a lucky poll can land within one period
    /// of the extended runtime — but never beat it by more than that.
    #[test]
    fn extended_never_meaningfully_loses(
        n in 64usize..1500,
        m in 1usize..=8,
    ) {
        let mut off = Offloader::new(SocConfig::with_clusters(8)).expect("soc");
        let kernel = Daxpy::new(2.0);
        let (x, y) = operands(n, n as u64);
        let base = off.offload(&kernel, &x, &y, m, OffloadStrategy::baseline()).expect("offload");
        let ext = off.offload(&kernel, &x, &y, m, OffloadStrategy::extended()).expect("offload");
        let poll_period = 46;
        prop_assert!(ext.cycles() <= base.cycles() + poll_period,
            "extended {} > baseline {} + period at n={n} m={m}", ext.cycles(), base.cycles());
    }

    /// Model fitting recovers arbitrary (well-posed) coefficients from
    /// noiseless synthetic samples.
    #[test]
    fn fit_recovers_arbitrary_coefficients(
        c0 in 50.0f64..2000.0,
        c_mem in 0.01f64..2.0,
        c_comp in 0.01f64..4.0,
    ) {
        let truth = RuntimeModel { c0, c_mem, c_comp };
        let mut samples = Vec::new();
        for &n in &[128u64, 512, 2048] {
            for &m in &[1u64, 2, 4, 8, 16, 32] {
                samples.push(Sample { m, n, cycles: truth.predict(m, n) });
            }
        }
        let fit = RuntimeModel::fit(&samples).expect("fit");
        prop_assert!((fit.model.c0 - c0).abs() < 1e-4 * c0.max(1.0));
        prop_assert!((fit.model.c_mem - c_mem).abs() < 1e-6);
        prop_assert!((fit.model.c_comp - c_comp).abs() < 1e-6);
    }

    /// Eq. 3 minimality: the returned M meets the deadline and M−1 does
    /// not, for any well-posed model and feasible deadline.
    #[test]
    fn decision_is_minimal_and_feasible(
        c0 in 100.0f64..500.0,
        c_mem in 0.05f64..0.5,
        c_comp in 0.05f64..1.0,
        n in 64u64..8192,
        slack in 1.0f64..2000.0,
    ) {
        let model = RuntimeModel { c0, c_mem, c_comp };
        let t_max = c0 + c_mem * n as f64 + slack;
        let m = min_clusters(&model, n, t_max).expect("feasible by construction");
        prop_assert!(model.predict(m, n) <= t_max + 1e-6);
        if m > 1 {
            prop_assert!(model.predict(m - 1, n) > t_max);
        }
    }

    /// Inverting in N: the returned problem size meets the deadline and
    /// one more element does not.
    #[test]
    fn max_problem_size_is_tight(
        m in 1u64..=32,
        t_max in 500.0f64..10_000.0,
    ) {
        let model = RuntimeModel::paper();
        if let Some(n) = max_problem_size(&model, m, t_max) {
            prop_assert!(model.predict(m, n) <= t_max + 1e-6);
            prop_assert!(model.predict(m, n + 1) > t_max);
        }
    }

    /// Runtime is monotone: more clusters never slow the extended
    /// configuration down (fixed N, the paper's Fig. 1 left shape).
    #[test]
    fn extended_runtime_monotone_in_clusters(
        n in 256usize..2000,
    ) {
        let mut off = Offloader::new(SocConfig::with_clusters(8)).expect("soc");
        let kernel = Daxpy::new(2.0);
        let (x, y) = operands(n, 3);
        let mut prev = u64::MAX;
        for m in [1usize, 2, 4, 8] {
            let run = off.offload(&kernel, &x, &y, m, OffloadStrategy::extended()).expect("offload");
            // Tolerance of a few cycles for DMA burst rounding.
            prop_assert!(run.cycles() <= prev.saturating_add(4),
                "n={n}: t({m}) = {} > t(prev) = {prev}", run.cycles());
            prev = run.cycles();
        }
    }
}
