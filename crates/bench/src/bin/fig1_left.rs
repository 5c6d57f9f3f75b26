//! Regenerates **Fig. 1 (left)**: runtime of a 1024-element DAXPY for
//! 1–32 clusters, baseline vs extended (multicast + credit counter).
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin fig1_left [-- --json out.json]
//! ```

use mpsoc_bench::{render_table, study, write_json, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = study::json_flag();
    let mut harness = Harness::new()?;
    let rows = harness.fig1_left()?;

    println!("Fig. 1 (left) — DAXPY N=1024 runtime [cycles == ns @ 1 GHz]\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.m.to_string(),
                r.baseline.to_string(),
                r.extended.to_string(),
                r.gap().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["M", "baseline", "extended", "gap"], &table)
    );

    let min_base = rows.iter().min_by_key(|r| r.baseline).expect("rows");
    let last = rows.last().expect("rows");
    println!(
        "baseline global minimum at M={} ({} cycles)",
        min_base.m, min_base.baseline
    );
    println!(
        "extended monotonically decreasing: {}",
        rows.windows(2).all(|w| w[1].extended <= w[0].extended)
    );
    println!("gap at M=32: {} cycles (paper: more than 300)", last.gap());

    if let Some(path) = json {
        write_json(&path, &rows)?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}
