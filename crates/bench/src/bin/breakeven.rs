//! **Break-even analysis**: for each cluster count, the smallest problem
//! size at which offloading a DAXPY beats executing it on the host — the
//! paper's introductory framing of the offload decision, answered with
//! the fitted Eq. 1 model and confirmed by simulation.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin breakeven [-- --json out.json]
//! ```

use mpsoc_bench::{render_table, study, write_json, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = study::json_flag();
    let mut harness = Harness::new()?;
    let rows = harness.breakeven()?;

    println!("Break-even problem size: offload vs CVA6-class host execution\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.m.to_string(),
                r.break_even_n.to_string(),
                r.accel_cycles.to_string(),
                format!("{:.0}", r.host_cycles),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["M", "break-even N", "accel [cyc]", "host sim [cyc]"],
            &table
        )
    );

    println!(
        "break-even shrinks with more clusters: {}",
        rows.windows(2)
            .all(|w| w[1].break_even_n <= w[0].break_even_n)
    );
    println!(
        "simulation confirms the accelerator wins at break-even: {}",
        rows.iter()
            .all(|r| (r.accel_cycles as f64) < r.host_cycles * 1.02)
    );

    if let Some(path) = json {
        write_json(&path, &rows)?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}
