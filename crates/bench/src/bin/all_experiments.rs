//! Runs **every experiment** in sequence and writes the JSON artifacts
//! under `results/` — the inputs to `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin all_experiments
//! ```
//!
//! It takes no arguments; any argument is a usage error (exit 2).

use std::path::Path;

use mpsoc_bench::{study, write_csv, write_json, Harness};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    study::flags(&[], &[]);
    let out = Path::new("results");
    let mut harness = Harness::new()?;

    println!("[1/10] fig1_left");
    let fig1_left = harness.fig1_left()?;
    write_json(&out.join("fig1_left.json"), &fig1_left)?;
    write_csv(
        &out.join("fig1_left.csv"),
        &["m", "baseline", "extended"],
        &fig1_left
            .iter()
            .map(|r| {
                vec![
                    r.m.to_string(),
                    r.baseline.to_string(),
                    r.extended.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )?;

    println!("[2/10] fig1_right");
    let fig1_right = harness.fig1_right()?;
    write_json(&out.join("fig1_right.json"), &fig1_right)?;
    write_csv(
        &out.join("fig1_right.csv"),
        &["n", "m", "baseline", "extended", "speedup"],
        &fig1_right
            .iter()
            .map(|r| {
                vec![
                    r.n.to_string(),
                    r.m.to_string(),
                    r.baseline.to_string(),
                    r.extended.to_string(),
                    format!("{:.4}", r.speedup),
                ]
            })
            .collect::<Vec<_>>(),
    )?;

    println!("[3/10] headline");
    let headline = harness.headline()?;
    write_json(&out.join("headline.json"), &headline)?;
    println!(
        "      improvement {:.1}% (paper 47.9%), gap {} cycles (paper >300)",
        headline.improvement_pct, headline.gap_cycles
    );

    println!("[4/10] model_fit");
    let fit = harness.model_fit()?;
    write_json(&out.join("model_fit.json"), &fit)?;
    println!("      fitted {}", fit.fitted);

    println!("[5/10] mape_table");
    let (_, mape_rows) = harness.mape_table()?;
    write_json(&out.join("mape_table.json"), &mape_rows)?;
    for r in &mape_rows {
        println!("      N={:>5}  MAPE {:.3}%", r.n, r.mape_pct);
    }

    println!("[6/10] decision");
    let (_, decision_rows) = harness.decision_table(1.0)?;
    write_json(&out.join("decision.json"), &decision_rows)?;
    println!(
        "      {}/{} decisions confirmed",
        decision_rows.iter().filter(|r| r.confirmed).count(),
        decision_rows.len()
    );

    println!("[7/10] ablation + kernel_sweep");
    let ablation = harness.ablation()?;
    write_json(&out.join("ablation.json"), &ablation)?;
    let sweep = harness.kernel_sweep()?;
    write_json(&out.join("kernel_sweep.json"), &sweep)?;

    println!("[8/10] breakeven");
    let breakeven = harness.breakeven()?;
    write_json(&out.join("breakeven.json"), &breakeven)?;

    println!("[9/10] energy");
    let energy = harness.energy_sweep()?;
    write_json(&out.join("energy.json"), &energy)?;

    println!("[10/10] extension experiment artifacts (run their bins with --json for tables)");
    // The four extension bins (pipeline, sensitivity, codegen_ablation,
    // bank_ablation) are slower sweeps; emit a pointer file so the
    // results directory documents how to regenerate them.
    std::fs::write(
        out.join("EXTENSIONS.txt"),
        "Extension experiments (run with --json <path> to emit artifacts):\n\
         cargo run --release -p mpsoc-bench --bin pipeline\n\
         cargo run --release -p mpsoc-bench --bin sensitivity\n\
         cargo run --release -p mpsoc-bench --bin codegen_ablation\n\
         cargo run --release -p mpsoc-bench --bin bank_ablation\n",
    )?;

    println!("\nall artifacts written to {}", out.display());
    Ok(())
}
