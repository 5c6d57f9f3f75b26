//! Offload profiler: runs one offload with typed-event telemetry on,
//! prints the per-phase cycle attribution and its residuals against the
//! paper's Eq. 1, and exports a Perfetto-loadable Chrome trace:
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin offload_profile -- \
//!     [--kernel daxpy|axpby|scale|vecadd|memset|dot|sum] [--n 1024] [--m 8] \
//!     [--clusters 32] [--seed 42] [--trace out.trace.json] [--json out.json]
//! ```
//!
//! Open the trace file in <https://ui.perfetto.dev> (or
//! `chrome://tracing`): one track per hardware unit — host, per-cluster
//! DMA engines and worker cores, the credit unit — with dispatch, DMA,
//! compute and synchronization spans in cycles.
//!
//! The binary re-validates its own trace output against the Chrome
//! trace-event schema and checks that the phase attribution sums exactly
//! to the measured end-to-end runtime; it exits non-zero if either
//! fails, so CI can use it as a smoke test.

use std::path::PathBuf;

use mpsoc_bench::{study, write_json};
use mpsoc_kernels::{Axpby, Daxpy, Dot, Kernel, Memset, Scale, Sum, VecAdd};
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

fn kernel_by_name(name: &str) -> Result<Box<dyn Kernel>, String> {
    Ok(match name {
        "daxpy" => Box::new(Daxpy::new(2.0)),
        "axpby" => Box::new(Axpby::new(1.5, -0.5)),
        "scale" => Box::new(Scale::new(3.0)),
        "vecadd" => Box::new(VecAdd::new()),
        "memset" => Box::new(Memset::new(1.0)),
        "dot" => Box::new(Dot::new()),
        "sum" => Box::new(Sum::new()),
        other => return Err(format!("unknown kernel '{other}'")),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flags = study::flags(
        &[
            "--kernel",
            "--n",
            "--m",
            "--clusters",
            "--seed",
            "--trace",
            "--json",
        ],
        &[],
    );
    let kernel = kernel_by_name(flags.value("--kernel").unwrap_or("daxpy"))?;
    let n: u64 = flags.parsed("--n", 1024)?;
    let m: usize = flags.parsed("--m", 8)?;
    let clusters: usize = flags.parsed("--clusters", 32)?;
    let seed: u64 = flags.parsed("--seed", 0xC0FFEE)?;
    let trace = flags
        .path("--trace")
        .unwrap_or_else(|| PathBuf::from("target/offload_profile.trace.json"));

    let mut rng = SplitMix64::new(seed);
    let mut x = vec![0.0; (n * kernel.x_words_per_elem()) as usize];
    let mut y = vec![0.0; n as usize];
    rng.fill_f64(&mut x, -4.0, 4.0);
    rng.fill_f64(&mut y, -4.0, 4.0);

    let mut offloader = Offloader::new(SocConfig::with_clusters(clusters))?;
    offloader.soc_mut().enable_telemetry(1 << 16);
    let run = offloader.offload(kernel.as_ref(), &x, &y, m, OffloadStrategy::extended())?;
    let verify = run.verify(kernel.as_ref(), &x, &y);

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
    if pb.total() != total {
        return Err(format!(
            "phase attribution lost cycles: phases sum to {} but the run took {total}",
            pb.total()
        )
        .into());
    }

    let audit = ResidualAudit::new(&pb, n, m as u64, &ModelTerms::paper());
    print!("{}", audit.render());

    // Export the Chrome trace and schema-check what was written.
    let json = chrome_trace_json(offloader.soc().telemetry());
    if let Some(parent) = trace.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&trace, &json)?;
    let written = std::fs::read_to_string(&trace)?;
    let summary = validate_chrome_trace(&written)
        .map_err(|e| format!("emitted trace fails schema validation: {e}"))?;
    println!(
        "trace   : {} events, {} spans, {} tracks -> {} (load in https://ui.perfetto.dev)",
        summary.events,
        summary.spans,
        summary.tracks,
        trace.display()
    );
    println!("verify  : {verify}");

    if let Some(path) = flags.path("--json") {
        let profile = Profile {
            kernel: kernel.name().to_owned(),
            n,
            m,
            total_cycles: total,
            phase_breakdown: pb,
            residuals: audit,
            trace_events: summary.events,
            trace_spans: summary.spans,
        };
        write_json(&path, &profile)?;
        println!("json    : {}", path.display());
    }
    if !verify.passed() {
        return Err(format!("verification failed: {verify}").into());
    }
    Ok(())
}
