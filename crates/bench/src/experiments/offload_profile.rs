//! The traced offload: one DAXPY (`N = 256` on 2 of 4 clusters, so two
//! DMA chains interleave) with typed-event telemetry on. It prints the
//! per-phase cycle attribution and its residuals against the paper's
//! Eq. 1, and writes the attribution and the SoC's own Chrome trace, so
//! the committed trace pins the SoC's telemetry, HBM queueing instants
//! included.
//!
//! Its claims: the trace passes the Chrome trace-event schema check,
//! the phase attribution sums exactly to the measured end-to-end
//! runtime, and the result verifies. `run_offload --trace` profiles any
//! other offload the same way.

use std::error::Error;

use crate::study::{Output, Run};
use mpsoc_kernels::{Daxpy, Kernel};
use mpsoc_offload::{OffloadStrategy, Offloader};
use mpsoc_sim::rng::SplitMix64;
use mpsoc_soc::SocConfig;
use mpsoc_telemetry::{chrome_trace_json, validate_chrome_trace, ModelTerms, ResidualAudit};
use serde::Serialize;

/// The JSON artifact: phase attribution plus the Eq. 1 residual audit.
#[derive(Serialize)]
struct Profile {
    kernel: String,
    n: u64,
    m: usize,
    total_cycles: u64,
    phase_breakdown: mpsoc_telemetry::PhaseBreakdown,
    residuals: ResidualAudit,
    trace_events: usize,
    trace_spans: usize,
}

pub(super) fn run(_: &Run) -> Result<Output, Box<dyn Error>> {
    let (n, m, clusters, seed) = (256u64, 2usize, 4usize, 0xC0FFEE);
    let kernel = Daxpy::new(2.0);
    let mut rng = SplitMix64::new(seed);
    let mut x = vec![0.0; (n * kernel.x_words_per_elem()) as usize];
    let mut y = vec![0.0; n as usize];
    rng.fill_f64(&mut x, -4.0, 4.0);
    rng.fill_f64(&mut y, -4.0, 4.0);

    let mut offloader = Offloader::new(SocConfig::with_clusters(clusters))?;
    offloader.soc_mut().enable_telemetry(1 << 16);
    let run = offloader.offload(&kernel, &x, &y, m, OffloadStrategy::extended())?;
    let verify = run.verify(&kernel, &x, &y);

    let pb = run.outcome.phase_breakdown;
    let total = run.cycles();
    println!(
        "{} | N={n} M={m} | {total} cycles end-to-end",
        kernel.name()
    );
    println!(
        "phases  : dispatch {} | dma-in {} | compute {} | dma-out {} | sync {} (sum {})",
        pb.dispatch,
        pb.dma_in,
        pb.compute,
        pb.dma_out,
        pb.sync,
        pb.total()
    );
    let phases_sum = pb.total() == total;
    if !phases_sum {
        println!(
            "phase attribution lost cycles: phases sum to {} but the run took {total}",
            pb.total()
        );
    }

    let audit = ResidualAudit::new(&pb, n, m as u64, &ModelTerms::paper());
    print!("{}", audit.render());

    let trace = chrome_trace_json(offloader.soc().telemetry());
    let summary = validate_chrome_trace(&trace);
    match &summary {
        Ok(s) => println!(
            "trace   : {} events, {} spans, {} tracks",
            s.events, s.spans, s.tracks
        ),
        Err(e) => println!("trace   : fails schema validation: {e}"),
    }
    println!("verify  : {verify}");

    let (trace_events, trace_spans) = summary.as_ref().map_or((0, 0), |s| (s.events, s.spans));
    let profile = Profile {
        kernel: kernel.name().to_owned(),
        n,
        m,
        total_cycles: total,
        phase_breakdown: pb,
        residuals: audit,
        trace_events,
        trace_spans,
    };
    let passed = summary.is_ok() && phases_sum && verify.passed();
    Ok(Output::new(vec![serde_json::to_string_pretty(&profile)?, trace]).passed(passed))
}
