//! Integration tests for the pipelined (double-buffered) offload
//! extension: correctness under overlap and the expected performance
//! shape.

use mpsoc::kernels::{zoo, Daxpy, Dot, Gemv, Kernel, Scale, Stencil3};
use mpsoc::offload::{OffloadError, OffloadStrategy, Offloader};
use mpsoc::sim::rng::SplitMix64;
use mpsoc::soc::SocConfig;

fn operands(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let mut x = vec![0.0; n];
    let mut y = vec![0.0; n];
    rng.fill_f64(&mut x, -5.0, 5.0);
    rng.fill_f64(&mut y, -5.0, 5.0);
    (x, y)
}

#[test]
fn pipelined_results_are_bit_exact_for_many_stage_counts() {
    let mut off = Offloader::new(SocConfig::with_clusters(8)).expect("soc");
    let kernel = Daxpy::new(1.25);
    let (x, y) = operands(2048, 3);
    for stages in [1usize, 2, 3, 4, 7, 8] {
        let run = off
            .offload_pipelined(&kernel, &x, &y, 8, OffloadStrategy::extended(), stages)
            .unwrap_or_else(|e| panic!("stages={stages}: {e}"));
        let report = run.verify(&kernel, &x, &y);
        assert!(report.passed(), "stages={stages}: {report}");
    }
}

#[test]
fn buffer_reuse_hazard_is_respected() {
    // Many stages with tiny sub-slices maximize buffer turnover; any
    // missing hazard gate corrupts the output. Run across awkward sizes.
    let mut off = Offloader::new(SocConfig::with_clusters(4)).expect("soc");
    let kernel = Scale::new(-2.0);
    for n in [33usize, 100, 257, 1023] {
        let (x, y) = operands(n, n as u64);
        let run = off
            .offload_pipelined(&kernel, &x, &y, 4, OffloadStrategy::extended(), 6)
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
        assert!(run.verify(&kernel, &x, &y).passed(), "n={n}");
    }
}

#[test]
fn pipelining_hides_data_movement_at_scale() {
    // With two stages, each cluster's DMA overlaps its compute, so the
    // parallel term shrinks; at large N/M this is a clear win.
    let mut off = Offloader::new(SocConfig::manticore()).expect("soc");
    let kernel = Daxpy::new(2.0);
    let (x, y) = operands(8192, 9);
    let single = off
        .offload(&kernel, &x, &y, 4, OffloadStrategy::extended())
        .expect("offload");
    let double = off
        .offload_pipelined(&kernel, &x, &y, 4, OffloadStrategy::extended(), 2)
        .expect("offload");
    assert!(double.verify(&kernel, &x, &y).passed());
    assert!(
        double.cycles() < single.cycles(),
        "double buffering must win at N=8192/M=4: {} !< {}",
        double.cycles(),
        single.cycles()
    );
}

#[test]
fn one_stage_is_exactly_the_classic_offload() {
    let mut off = Offloader::new(SocConfig::with_clusters(8)).expect("soc");
    let n = 1024;
    for kernel in zoo() {
        let (x, _) = operands(n * kernel.x_words_per_elem() as usize, 4);
        let (_, y) = operands(n, 4);
        for strategy in OffloadStrategy::all() {
            let tag = format!("{} {strategy}", kernel.name());
            let classic = off
                .offload(kernel.as_ref(), &x, &y, 8, strategy)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            let staged = off
                .offload_pipelined(kernel.as_ref(), &x, &y, 8, strategy, 1)
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert_eq!(classic.cycles(), staged.cycles(), "cycles: {tag}");
            assert_eq!(
                classic.outcome.phases, staged.outcome.phases,
                "phases: {tag}"
            );
            assert_eq!(classic.result, staged.result, "result: {tag}");
        }
    }
}

#[test]
fn gemv_pipelines_too() {
    let mut off = Offloader::new(SocConfig::with_clusters(8)).expect("soc");
    let kernel = Gemv::new(vec![1.0, -2.0, 0.5]);
    let n = 600usize;
    let (a_flat, _) = operands(n * 3, 77);
    let y = vec![0.0; n];
    let run = off
        .offload_pipelined(&kernel, &a_flat, &y, 8, OffloadStrategy::extended(), 3)
        .expect("offload");
    assert!(run.verify(&kernel, &a_flat, &y).passed());
}

#[test]
fn reductions_reject_pipelining() {
    let mut off = Offloader::new(SocConfig::with_clusters(2)).expect("soc");
    let (x, y) = operands(128, 5);
    let stencil = Stencil3::new(0.25, 0.5, 0.25);
    for kernel in [&Dot::new() as &dyn Kernel, &stencil] {
        let err = off
            .offload_pipelined(kernel, &x, &y, 2, OffloadStrategy::extended(), 2)
            .unwrap_err();
        assert!(matches!(err, OffloadError::PipelineUnsupported { .. }));
        assert!(err.to_string().contains(kernel.name()));
    }
}

#[test]
fn stages_bound_the_tcdm_footprint_per_buffer() {
    // DAXPY over 65,536 elements on one cluster: the TCDM (32,768 words)
    // holds two buffers of one sub-slice each at 16 stages, but not the
    // whole slice at one stage, nor two 8,192-element buffers at 8.
    let mut off = Offloader::new(SocConfig::with_clusters(1)).expect("soc");
    let kernel = Daxpy::new(2.0);
    let (x, y) = operands(65_536, 12);
    let run = off
        .offload_pipelined(&kernel, &x, &y, 1, OffloadStrategy::extended(), 16)
        .expect("16 stages fit");
    assert_eq!(run.cycles(), 39_043);
    assert!(run.verify(&kernel, &x, &y).passed());
    for (stages, want) in [(1usize, 131_074u64), (8, 32_770)] {
        let err = off
            .offload_pipelined(&kernel, &x, &y, 1, OffloadStrategy::extended(), stages)
            .unwrap_err();
        assert!(
            matches!(
                err,
                OffloadError::TcdmOverflow { required, capacity: 32_768 } if required == want
            ),
            "stages={stages}: {err}"
        );
    }
}

#[test]
fn pipelined_baseline_strategy_also_works() {
    // Pipelining is orthogonal to the dispatch/sync co-design.
    let mut off = Offloader::new(SocConfig::with_clusters(4)).expect("soc");
    let kernel = Daxpy::new(3.0);
    let (x, y) = operands(1024, 6);
    let run = off
        .offload_pipelined(&kernel, &x, &y, 4, OffloadStrategy::baseline(), 2)
        .expect("offload");
    assert!(run.verify(&kernel, &x, &y).passed());
}
