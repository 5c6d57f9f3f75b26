//! **Pipelining study** (extension beyond the paper): double-buffered
//! cluster schedules overlap DMA with compute, shrinking the parallel
//! term of Eq. 1 from `(c_dma + c_compute)·N/M` toward
//! `max(c_dma, c_compute)·N/M`. This sweep quantifies the win across
//! problem sizes and stage counts on the extended runtime.

use std::error::Error;

use crate::render_table;
use crate::study::{Output, Run};
use mpsoc_kernels::Daxpy;
use mpsoc_offload::{OffloadStrategy, Offloader};
use mpsoc_sim::rng::SplitMix64;
use mpsoc_soc::SocConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    n: u64,
    m: usize,
    stages_1: u64,
    stages_2: u64,
    stages_4: u64,
    best_speedup: f64,
}

pub(super) fn run(_: &Run) -> Result<Output, Box<dyn Error>> {
    let mut off = Offloader::new(SocConfig::manticore())?;
    let kernel = Daxpy::new(2.0);
    let mut rows = Vec::new();

    for &n in &[1024u64, 4096, 16384] {
        let mut rng = SplitMix64::new(n);
        let mut x = vec![0.0; n as usize];
        let mut y = vec![0.0; n as usize];
        rng.fill_f64(&mut x, -2.0, 2.0);
        rng.fill_f64(&mut y, -2.0, 2.0);
        for &m in &[4usize, 16, 32] {
            let mut t = [0u64; 3];
            for (i, stages) in [1usize, 2, 4].into_iter().enumerate() {
                let run =
                    off.offload_pipelined(&kernel, &x, &y, m, OffloadStrategy::extended(), stages)?;
                assert!(run.verify(&kernel, &x, &y).passed());
                t[i] = run.cycles();
            }
            rows.push(Row {
                n,
                m,
                stages_1: t[0],
                stages_2: t[1],
                stages_4: t[2],
                best_speedup: t[0] as f64 / t[1].min(t[2]) as f64,
            });
        }
    }

    println!("Pipelined offload — DAXPY runtime [cycles] by stage count\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.m.to_string(),
                r.stages_1.to_string(),
                r.stages_2.to_string(),
                r.stages_4.to_string(),
                format!("{:.3}", r.best_speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["N", "M", "1 stage", "2 stages", "4 stages", "best ×"],
            &table
        )
    );

    // The crossover mirrors the paper's thesis: fine-grained work is
    // overhead-dominated. Pipelining adds per-stage overhead (core
    // restart, pipeline fill), so it pays only where per-cluster slices
    // are large.
    let coarse_wins = rows
        .iter()
        .filter(|r| r.n / r.m as u64 >= 1024)
        .all(|r| r.stages_2.min(r.stages_4) < r.stages_1);
    let fine_loses = rows
        .iter()
        .filter(|r| r.n / r.m as u64 <= 64)
        .all(|r| r.stages_2.min(r.stages_4) >= r.stages_1.saturating_sub(10));
    println!("pipelining wins where per-cluster slices are large (N/M ≥ 1024): {coarse_wins}");
    println!("and is overhead-bound at fine granularity (N/M ≤ 64): {fine_loses}");
    println!(
        "largest win {:.3}×",
        rows.iter().map(|r| r.best_speedup).fold(0.0f64, f64::max)
    );
    Ok(Output::json(&rows)?.passed(coarse_wins && fine_loses))
}
