//! Regenerates **Eq. 1**: fits the runtime model `t̂ = c₀ + c_mem·N +
//! c_comp·N/M` to measured extended-configuration runtimes and compares
//! the coefficients with the paper's `367 + N/4 + 2.6·N/(8M)`.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin model_fit [-- --json out.json]
//! ```

use mpsoc_bench::{study, write_json, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = study::json_flag();
    let mut harness = Harness::new()?;
    let fit = harness.model_fit()?;

    println!(
        "Eq. 1 — offload runtime model (fit on {} samples)\n",
        fit.samples
    );
    println!("  fitted : {}", fit.fitted);
    println!("  paper  : {}", fit.paper);
    println!("  r²     : {:.6}", fit.r_squared);
    println!("  max |err| over fit set: {:.2}%", fit.max_abs_pct_err);
    println!();
    println!(
        "  c₀     : {:.1} vs paper 367 (constant offload overhead)",
        fit.fitted.c0
    );
    println!(
        "  c_mem  : {:.4} vs paper 0.25 (serial data-preparation term)",
        fit.fitted.c_mem
    );
    println!(
        "  c_comp : {:.4} vs paper 0.325 (parallel term; ours folds the\n           per-cluster DMA width in — see EXPERIMENTS.md)",
        fit.fitted.c_comp
    );

    if let Some(path) = json {
        write_json(&path, &fit)?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}
