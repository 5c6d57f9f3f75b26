//! Regenerates **Fig. 1 (right)**: speedup of the extensions over the
//! baseline for various problem sizes and cluster counts.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin fig1_right [-- --json out.json]
//! ```

use mpsoc_bench::{render_table, study, write_json, Harness, FIG1_RIGHT_N, PAPER_M};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let json = study::json_flag();
    let mut harness = Harness::new()?;
    let rows = harness.fig1_right()?;

    println!("Fig. 1 (right) — speedup of extensions over baseline (DAXPY)\n");
    // Matrix view: one row per N, one column per M.
    let mut table = Vec::new();
    for &n in &FIG1_RIGHT_N {
        let mut cells = vec![n.to_string()];
        for &m in &PAPER_M {
            let r = rows
                .iter()
                .find(|r| r.n == n && r.m == m)
                .expect("full grid");
            cells.push(format!("{:.3}", r.speedup));
        }
        table.push(cells);
    }
    let header: Vec<String> = std::iter::once("N \\ M".to_owned())
        .chain(PAPER_M.iter().map(|m| m.to_string()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", render_table(&header_refs, &table));

    let all_above_one = rows.iter().all(|r| r.speedup > 1.0);
    let max = rows
        .iter()
        .max_by(|a, b| a.speedup.total_cmp(&b.speedup))
        .expect("rows");
    println!("speedup always > 1: {all_above_one}");
    println!(
        "max speedup {:.3} at N={}, M={} (paper: 1.479 at N=1024, M=32)",
        max.speedup, max.n, max.m
    );
    // Monotone decrease with N at fixed M.
    let monotone = PAPER_M.iter().all(|&m| {
        let series: Vec<f64> = FIG1_RIGHT_N
            .iter()
            .map(|&n| {
                rows.iter()
                    .find(|r| r.n == n && r.m == m)
                    .expect("full grid")
                    .speedup
            })
            .collect();
        series.windows(2).all(|w| w[1] <= w[0] + 0.02)
    });
    println!("speedup decreases with N at fixed M: {monotone}");

    if let Some(path) = json {
        write_json(&path, &rows)?;
        println!("\nwrote {}", path.display());
    }
    Ok(())
}
