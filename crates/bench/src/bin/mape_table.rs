//! Regenerates **Eq. 2**: the MAPE validation of the runtime model on
//! `N ∈ {256, 512, 768, 1024}` over `M ∈ {1,2,4,8,16,32}` (paper:
//! consistently below 1%).
//!
//! The model is fitted on *disjoint* problem sizes first, so this is a
//! genuine out-of-sample validation.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin mape_table [-- --json out.json]
//! ```

use mpsoc_bench::{render_table, study, write_json, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = study::json_flag();
    let mut harness = Harness::new()?;
    let (model, rows) = harness.mape_table()?;

    println!("Eq. 2 — model validation (fitted model: {model})\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.3}", r.mape_pct),
                r.points.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&["N", "MAPE [%]", "points"], &table));

    let all_below_one = rows.iter().all(|r| r.mape_pct < 1.0);
    println!("MAPE consistently below 1%: {all_below_one} (paper: true)");

    if let Some(path) = json {
        write_json(&path, &rows)?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}
