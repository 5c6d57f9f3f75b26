//! **Ablation** of the two co-design ingredients (§II): dispatch
//! strategy and synchronization strategy in isolation, on the
//! 1024-element DAXPY.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin ablation [-- --json out.json]
//! ```

use mpsoc_bench::{render_table, study, write_json, Harness, PAPER_M};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = study::json_flag();
    let mut harness = Harness::new()?;
    let rows = harness.ablation()?;

    println!("Ablation — DAXPY N=1024 runtime [cycles] per strategy\n");
    let strategies: Vec<String> = {
        let mut s: Vec<String> = rows.iter().map(|r| r.strategy.clone()).collect();
        s.dedup();
        s
    };
    let mut table = Vec::new();
    for strategy in &strategies {
        let mut cells = vec![strategy.clone()];
        for &m in &PAPER_M {
            let r = rows
                .iter()
                .find(|r| &r.strategy == strategy && r.m == m)
                .expect("full grid");
            cells.push(r.cycles.to_string());
        }
        table.push(cells);
    }
    let header: Vec<String> = std::iter::once("strategy \\ M".to_owned())
        .chain(PAPER_M.iter().map(|m| m.to_string()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", render_table(&header_refs, &table));

    // At M=32, each ingredient should help on its own and the
    // combination should be the best configuration.
    let at32 = |s: &str| {
        rows.iter()
            .find(|r| r.strategy == s && r.m == 32)
            .expect("grid")
            .cycles
    };
    let base = at32("sequential+software-barrier");
    let mc_only = at32("multicast+software-barrier");
    let credit_only = at32("sequential+credit-counter");
    let both = at32("multicast+credit-counter");
    println!("at M=32: baseline={base}, +multicast={mc_only}, +credit={credit_only}, both={both}");
    println!(
        "multicast helps under either sync scheme: {}",
        mc_only < base && both < credit_only
    );
    println!(
        "credit counter helps once completions arrive together (multicast): {}",
        both < mc_only
    );
    println!(
        "combination is the best configuration: {}",
        both < mc_only && both < credit_only && both < base
    );

    if let Some(path) = json {
        write_json(&path, &rows)?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}
