//! **Kernel sweep** (model generality, §IV): refits the Eq. 1-form
//! model for every kernel in the zoo and reports MAPE on a held-out
//! grid, verifying every offloaded result on the way.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin kernel_sweep [-- --json out.json]
//! ```

use mpsoc_bench::{render_table, study, write_json, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = study::json_flag();
    let mut harness = Harness::new()?;
    let rows = harness.kernel_sweep()?;

    println!("Kernel sweep — Eq. 1-form model per kernel\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                format!("{:.1}", r.fitted.c0),
                format!("{:.4}", r.fitted.c_mem),
                format!("{:.4}", r.fitted.c_comp),
                format!("{:.3}", r.mape_pct),
                format!("{:.2}", r.extended.c_host),
                format!("{:.3}", r.mape_extended_pct),
                if r.all_verified { "yes" } else { "NO" }.to_owned(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "kernel",
                "c0",
                "c_mem",
                "c_comp",
                "MAPE [%]",
                "+c_host·M",
                "MAPE+ [%]",
                "verified",
            ],
            &table
        )
    );

    println!(
        "Eq. 1 (3-term) captures every map kernel (MAPE < 1%): {}",
        rows.iter()
            .filter(|r| !matches!(r.kernel.as_str(), "dot" | "sum"))
            .all(|r| r.mape_pct < 1.0)
    );
    println!(
        "4-term extension captures every kernel incl. reductions (MAPE < 1%): {}",
        rows.iter().all(|r| r.mape_extended_pct < 1.0)
    );
    println!(
        "all results verified against golden references: {}",
        rows.iter().all(|r| r.all_verified)
    );

    if let Some(path) = json {
        write_json(&path, &rows)?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}
