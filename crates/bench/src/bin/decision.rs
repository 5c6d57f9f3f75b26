//! Regenerates **Eq. 3**: the offload decision `M_min = ⌈c_comp·N /
//! (t_max − c₀ − c_mem·N)⌉`, validated against simulation — the deadline
//! must be met at `M_min` and missed at `M_min − 1`.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin decision [-- --json out.json]
//! ```

use mpsoc_bench::{render_table, study, write_json, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = study::json_flag();
    let mut harness = Harness::new()?;
    let (model, rows) = harness.decision_table(1.0)?;

    println!("Eq. 3 — offload decision under a deadline (model: {model})\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.0}", r.t_max),
                r.m_min.map_or("-".to_owned(), |m| m.to_string()),
                r.simulated_at_m_min
                    .map_or("-".to_owned(), |t| t.to_string()),
                r.simulated_below.map_or("-".to_owned(), |t| t.to_string()),
                if r.confirmed { "yes" } else { "NO" }.to_owned(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["N", "t_max", "M_min", "t(M_min)", "t(M_min-1)", "confirmed"],
            &table
        )
    );
    let all_confirmed = rows.iter().all(|r| r.confirmed);
    println!("all decisions confirmed by simulation (±1%): {all_confirmed}");

    if let Some(path) = json {
        write_json(&path, &rows)?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}
