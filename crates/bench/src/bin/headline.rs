//! Regenerates the **headline result**: the speedup improvement of the
//! co-designed offload on the 1024-element DAXPY (paper: 47.9% at 32
//! clusters, a gap of more than 300 cycles).
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin headline [-- --json out.json]
//! ```

use mpsoc_bench::{study, write_json, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = study::json_flag();
    let mut harness = Harness::new()?;
    let h = harness.headline()?;

    println!("Headline — DAXPY N={}, M={}:", h.n, h.m);
    println!("  baseline : {:>6} cycles", h.baseline);
    println!("  extended : {:>6} cycles", h.extended);
    println!("  gap      : {:>6} cycles   (paper: > 300)", h.gap_cycles);
    println!(
        "  speedup improvement: {:.1}%   (paper: 47.9%)",
        h.improvement_pct
    );

    if let Some(path) = json {
        write_json(&path, &h)?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}
