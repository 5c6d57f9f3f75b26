//! **Codegen ablation**: the paper's 2.6 cycles/element/core comes from
//! its compiled scalar DAXPY; Snitch-class cores also offer SSR streams +
//! FREP hardware loops that sustain 1 element/cycle. This ablation runs
//! both codegens through the identical offload machinery and refits the
//! Eq. 1 model for each, showing how the compute share of the parallel
//! coefficient drops from 2.6/8 to 1/8 while everything else stays put.

use std::error::Error;

use crate::study::{Output, Run};
use crate::{render_table, Harness, PAPER_M};
use mpsoc_kernels::{Daxpy, DaxpySsr, Kernel};
use mpsoc_offload::{OffloadStrategy, RuntimeModel, Sample};
use mpsoc_sim::rng::SplitMix64;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    codegen: String,
    c0: f64,
    c_mem: f64,
    c_comp: f64,
    t_1024_32: u64,
    t_8192_4: u64,
}

fn measure(
    harness: &mut Harness,
    kernel: &dyn Kernel,
    n: u64,
    m: usize,
) -> Result<u64, Box<dyn Error>> {
    let mut rng = SplitMix64::new(n ^ (m as u64) << 40);
    let mut x = vec![0.0; n as usize];
    let mut y = vec![0.0; n as usize];
    rng.fill_f64(&mut x, -2.0, 2.0);
    rng.fill_f64(&mut y, -2.0, 2.0);
    let run = harness
        .offloader_mut()
        .offload(kernel, &x, &y, m, OffloadStrategy::extended())?;
    assert!(run.verify(kernel, &x, &y).passed());
    Ok(run.cycles())
}

pub(super) fn run(_: &Run) -> Result<Output, Box<dyn Error>> {
    let mut harness = Harness::new()?;
    let kernels: Vec<(&str, Box<dyn Kernel>)> = vec![
        (
            "scalar (unroll x10, 2.6 cyc/elem)",
            Box::new(Daxpy::new(2.0)),
        ),
        ("ssr+frep (1 cyc/elem)", Box::new(DaxpySsr::new(2.0))),
    ];

    let mut rows = Vec::new();
    for (label, kernel) in &kernels {
        let mut samples = Vec::new();
        for &n in &[512u64, 1024, 2048, 4096] {
            for &m in &PAPER_M {
                samples.push(Sample {
                    m: m as u64,
                    n,
                    cycles: measure(&mut harness, kernel.as_ref(), n, m)? as f64,
                });
            }
        }
        let fit = RuntimeModel::fit(&samples)?;
        rows.push(Row {
            codegen: (*label).to_owned(),
            c0: fit.model.c0,
            c_mem: fit.model.c_mem,
            c_comp: fit.model.c_comp,
            t_1024_32: measure(&mut harness, kernel.as_ref(), 1024, 32)?,
            t_8192_4: measure(&mut harness, kernel.as_ref(), 8192, 4)?,
        });
    }

    println!("Codegen ablation — DAXPY scalar vs SSR+FREP (extended runtime)\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.codegen.clone(),
                format!("{:.1}", r.c0),
                format!("{:.4}", r.c_mem),
                format!("{:.4}", r.c_comp),
                r.t_1024_32.to_string(),
                r.t_8192_4.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "codegen",
                "c0",
                "c_mem",
                "c_comp",
                "t(1024,32)",
                "t(8192,4)"
            ],
            &table
        )
    );

    let scalar = &rows[0];
    let ssr = &rows[1];
    // Expected drop: (2.6 - 1.0)/8 = 0.2 in c_comp.
    let claims = [
        ((scalar.c_comp - ssr.c_comp) - 0.2).abs() < 0.03,
        (scalar.c0 - ssr.c0).abs() < 6.0 && (scalar.c_mem - ssr.c_mem).abs() < 0.005,
        ssr.t_8192_4 < scalar.t_8192_4,
    ];
    println!(
        "c_comp drop {:.4} (expected ~0.20 = (2.6-1.0)/8): {}",
        scalar.c_comp - ssr.c_comp,
        claims[0]
    );
    println!(
        "c0 and c_mem unchanged (|Δ| < 6 cyc / 0.005): {}",
        claims[1]
    );
    println!(
        "SSR wins end-to-end at the compute-heavy corner t(8192,4): {}",
        claims[2]
    );
    Ok(Output::json(&rows)?.passed(claims.iter().all(|&c| c)))
}
