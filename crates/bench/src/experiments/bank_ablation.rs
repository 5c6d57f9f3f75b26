//! **Bank-conflict ablation**: the calibrated experiments assume the
//! conflict-free TCDM layout of an optimized kernel (32 banks, 8 cores,
//! disjoint stride-1 streams). This ablation re-runs the DAXPY sweep
//! with cycle-accurate per-bank FCFS arbitration enabled
//! ([`BankMode::Banked`]) to quantify what bank conflicts would cost an
//! unoptimized layout, and to justify the `Ideal` default.

use std::error::Error;

use crate::study::{Output, Run};
use crate::{render_table, Harness, PAPER_M};
use mpsoc_mem::BankMode;
use mpsoc_offload::OffloadStrategy;
use mpsoc_soc::SocConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    m: usize,
    ideal: u64,
    banked: u64,
    conflicts: u64,
    slowdown: f64,
}

pub(super) fn run(_: &Run) -> Result<Output, Box<dyn Error>> {
    let n = 1024;
    let mut ideal = Harness::new()?;
    let mut banked_cfg = SocConfig::manticore();
    banked_cfg.bank_mode = BankMode::Banked;
    let mut banked = Harness::with_config(banked_cfg)?;

    let mut rows = Vec::new();
    for &m in &PAPER_M {
        let t_ideal = ideal.measure_daxpy(n, m, OffloadStrategy::extended())?;
        let kernel = mpsoc_kernels::Daxpy::new(2.0);
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let y = vec![1.0; n as usize];
        let run =
            banked
                .offloader_mut()
                .offload(&kernel, &x, &y, m, OffloadStrategy::extended())?;
        assert!(
            run.verify(&kernel, &x, &y).passed(),
            "banked mode must stay correct"
        );
        rows.push(Row {
            m,
            ideal: t_ideal,
            banked: run.cycles(),
            conflicts: run.outcome.tcdm_conflicts,
            slowdown: run.cycles() as f64 / t_ideal as f64,
        });
    }

    println!("TCDM bank-conflict ablation — DAXPY N={n}\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.m.to_string(),
                r.ideal.to_string(),
                r.banked.to_string(),
                r.conflicts.to_string(),
                format!("{:.3}", r.slowdown),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["M", "ideal", "banked", "conflicts", "slowdown"], &table)
    );
    let never_faster = rows.iter().all(|r| r.banked >= r.ideal);
    println!("banked mode is never faster: {never_faster}");
    println!("results remain numerically correct under contention: true (asserted per run)");
    Ok(Output::json(&rows)?.passed(never_faster))
}
