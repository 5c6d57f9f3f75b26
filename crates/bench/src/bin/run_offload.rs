//! A swiss-army CLI for driving single offloads — the quickest way to
//! poke at the simulated SoC without writing code:
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin run_offload -- \
//!     [--kernel daxpy|daxpy-ssr|axpby|scale|vecadd|memset|dot|sum|gemv|stencil3] \
//!     [--n 1024] [--m 8] [--strategy baseline|extended] [--stages 1] \
//!     [--clusters 32] [--timeline] [--host] [--seed 42] [--trace out.trace.json]
//! ```
//!
//! Prints the runtime, phase breakdown, verification verdict, energy
//! estimate and (optionally) the per-cluster timeline; `--host` also
//! executes the kernel on the CVA6-class host core for comparison.
//!
//! `--trace` turns on typed-event telemetry, prints the per-phase cycle
//! attribution with its residuals against the paper's Eq. 1, and writes
//! a Perfetto-loadable Chrome trace: one track per hardware unit — host,
//! per-cluster DMA engines and worker cores, the credit unit — with
//! dispatch, DMA, compute and synchronization spans in cycles. Open it
//! in <https://ui.perfetto.dev> (or `chrome://tracing`). The run fails
//! when the phases do not sum to the runtime or the written trace fails
//! the Chrome trace-event schema check.

use mpsoc_bench::study;
use mpsoc_kernels::{
    Axpby, Daxpy, DaxpySsr, Dot, Gemv, Kernel, Memset, Scale, Stencil3, Sum, VecAdd,
};
use mpsoc_offload::{OffloadStrategy, Offloader};
use mpsoc_sim::rng::SplitMix64;
use mpsoc_soc::SocConfig;
use mpsoc_telemetry::{chrome_trace_json, validate_chrome_trace, ModelTerms, ResidualAudit};

fn kernel_by_name(name: &str) -> Result<Box<dyn Kernel>, String> {
    Ok(match name {
        "daxpy" => Box::new(Daxpy::new(2.0)),
        "daxpy-ssr" => Box::new(DaxpySsr::new(2.0)),
        "axpby" => Box::new(Axpby::new(1.5, -0.5)),
        "scale" => Box::new(Scale::new(3.0)),
        "vecadd" => Box::new(VecAdd::new()),
        "memset" => Box::new(Memset::new(1.0)),
        "dot" => Box::new(Dot::new()),
        "sum" => Box::new(Sum::new()),
        "gemv" => Box::new(Gemv::new(vec![0.5, -1.0, 2.0, 0.25])),
        "stencil3" => Box::new(Stencil3::new(0.25, 0.5, 0.25)),
        other => return Err(format!("unknown kernel '{other}'")),
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flags = study::flags(
        &[
            "--kernel",
            "--n",
            "--m",
            "--strategy",
            "--stages",
            "--clusters",
            "--seed",
            "--trace",
        ],
        &["--timeline", "--host"],
    );
    let kernel = kernel_by_name(flags.value("--kernel").unwrap_or("daxpy"))?;
    let n: u64 = flags.parsed("--n", 1024)?;
    let m: usize = flags.parsed("--m", 8)?;
    let stages: usize = flags.parsed("--stages", 1)?;
    let clusters: usize = flags.parsed("--clusters", 32)?;
    let seed: u64 = flags.parsed("--seed", 0xC0FFEE)?;
    let strategy = match flags.value("--strategy").unwrap_or("extended") {
        "baseline" => OffloadStrategy::baseline(),
        "extended" => OffloadStrategy::extended(),
        other => return Err(format!("unknown strategy '{other}'").into()),
    };

    let mut rng = SplitMix64::new(seed);
    let mut x = vec![0.0; (n * kernel.x_words_per_elem()) as usize];
    let mut y = vec![0.0; n as usize];
    rng.fill_f64(&mut x, -4.0, 4.0);
    rng.fill_f64(&mut y, -4.0, 4.0);

    let trace = flags.path("--trace");
    let mut offloader = Offloader::new(SocConfig::with_clusters(clusters))?;
    if trace.is_some() {
        offloader.soc_mut().enable_telemetry(1 << 16);
    }
    let run = offloader.offload_pipelined(kernel.as_ref(), &x, &y, m, strategy, stages)?;
    let verify = run.verify(kernel.as_ref(), &x, &y);

    println!("{} | N={n} M={m} {strategy} stages={stages}", kernel.name());
    println!("runtime : {} cycles (== ns @ 1 GHz)", run.cycles());
    let p = run.outcome.phases;
    println!(
        "phases  : dispatch {} | dma-in {} | compute {} | dma-out {} | sync {}",
        p.last_dispatch.as_u64(),
        p.last_dma_in.as_u64(),
        p.last_compute.as_u64(),
        p.last_dma_out.as_u64(),
        p.sync_done.as_u64()
    );
    println!(
        "energy  : {:.1} nJ | polls: {} | core ops: {}",
        run.outcome.energy.total_pj() / 1000.0,
        run.outcome.poll_iterations,
        run.outcome.total_core_ops()
    );
    if let Some(path) = trace {
        let pb = run.outcome.phase_breakdown;
        let audit = ResidualAudit::new(&pb, n, m as u64, &ModelTerms::paper());
        print!("{}", audit.render());
        if pb.total() != run.cycles() {
            return Err(format!(
                "phase attribution lost cycles: phases sum to {} but the run took {}",
                pb.total(),
                run.cycles()
            )
            .into());
        }
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, chrome_trace_json(offloader.soc().telemetry()))?;
        let summary = validate_chrome_trace(&std::fs::read_to_string(&path)?)
            .map_err(|e| format!("emitted trace fails schema validation: {e}"))?;
        println!(
            "trace   : {} events, {} spans, {} tracks -> {}",
            summary.events,
            summary.spans,
            summary.tracks,
            path.display()
        );
    }
    println!("verify  : {verify}");
    if flags.switch("--timeline") {
        println!("\n{}", run.outcome.render_timeline(100));
    }
    if flags.switch("--host") {
        let (host_cycles, _) = offloader.run_on_host(kernel.as_ref(), &x, &y)?;
        let speedup = host_cycles as f64 / run.cycles() as f64;
        println!("host    : {host_cycles} cycles (offload speedup {speedup:.2}x)");
    }
    if !verify.passed() {
        return Err(format!("verification failed: {verify}").into());
    }
    Ok(())
}
