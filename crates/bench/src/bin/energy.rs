//! **Energy sweep**: first-order energy estimate of the 1024-element
//! DAXPY per strategy and cluster count. The paper motivates the
//! co-design by noting that offload overheads "add up to the runtime and
//! energy consumption"; here the removed overhead cycles translate into
//! removed idle/synchronization energy.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin energy [-- --json out.json]
//! ```

use mpsoc_bench::{render_table, study, write_json, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = study::json_flag();
    let mut harness = Harness::new()?;
    let rows = harness.energy_sweep()?;

    println!("Energy estimate — DAXPY N=1024 [nJ]\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.clone(),
                r.m.to_string(),
                r.cycles.to_string(),
                format!("{:.1}", r.total_pj / 1000.0),
                format!("{:.1}", r.idle_pj / 1000.0),
                format!("{:.1}", r.sync_pj / 1000.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["strategy", "M", "cycles", "total nJ", "idle nJ", "sync nJ"],
            &table
        )
    );

    // At every M, the extended runtime should cost no more energy than
    // the baseline (fewer total cycles -> less idle energy; no polling).
    let wins = rows
        .iter()
        .filter(|r| r.strategy.starts_with("multicast"))
        .all(|ext| {
            rows.iter()
                .find(|b| b.strategy.starts_with("sequential") && b.m == ext.m)
                .is_some_and(|b| ext.total_pj <= b.total_pj)
        });
    println!("extended never costs more energy: {wins}");

    if let Some(path) = json {
        write_json(&path, &rows)?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}
