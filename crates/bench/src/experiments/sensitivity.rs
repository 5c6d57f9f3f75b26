//! **Sensitivity analysis / design-space exploration**: how the fitted
//! Eq. 1 coefficients respond to the microarchitectural parameters of
//! the co-design. This is the experiment a designer would run to decide
//! where the next hardware dollar goes: the constant `c₀` tracks the
//! wake/ISR/setup latencies one-for-one, the serial term tracks the
//! host's preparation throughput, and the parallel term tracks the DMA
//! width — while the *form* of the model survives every variation.

use std::error::Error;

use crate::study::{Output, Run};
use crate::{render_table, Harness, PAPER_M};
use mpsoc_offload::{RuntimeModel, Sample};
use mpsoc_soc::SocConfig;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Row {
    variant: String,
    c0: f64,
    c_mem: f64,
    c_comp: f64,
    r_squared: f64,
}

fn fit_variant(name: &str, config: SocConfig) -> Result<Row, Box<dyn Error>> {
    let mut harness = Harness::with_config(config)?;
    let ns = [384u64, 768, 1536, 3072];
    let mut samples = Vec::new();
    for &n in &ns {
        for &m in &PAPER_M {
            let cycles = harness.measure_daxpy(n, m, mpsoc_offload::OffloadStrategy::extended())?;
            samples.push(Sample {
                m: m as u64,
                n,
                cycles: cycles as f64,
            });
        }
    }
    let fit = RuntimeModel::fit(&samples)?;
    Ok(Row {
        variant: name.to_owned(),
        c0: fit.model.c0,
        c_mem: fit.model.c_mem,
        c_comp: fit.model.c_comp,
        r_squared: fit.r_squared,
    })
}

pub(super) fn run(_: &Run) -> Result<Output, Box<dyn Error>> {
    let mut rows = Vec::new();

    rows.push(fit_variant(
        "calibrated (baseline config)",
        SocConfig::manticore(),
    )?);

    let mut cfg = SocConfig::manticore();
    cfg.cluster_wake_cycles *= 2;
    rows.push(fit_variant("2x cluster wake latency", cfg)?);

    let mut cfg = SocConfig::manticore();
    cfg.host_prep_words_per_cycle = 24;
    rows.push(fit_variant("2x host prep throughput", cfg)?);

    let mut cfg = SocConfig::manticore();
    cfg.dma_words_per_cycle = 32;
    rows.push(fit_variant("2x cluster DMA width", cfg)?);

    let mut cfg = SocConfig::manticore();
    cfg.noc.hop_latency = mpsoc_sim::Cycle::new(6);
    rows.push(fit_variant("2x NoC hop latency", cfg)?);

    let mut cfg = SocConfig::manticore();
    cfg.irq_latency += 40;
    rows.push(fit_variant("+40 cycles IRQ latency", cfg)?);

    println!("Sensitivity of the fitted Eq. 1 coefficients to the microarchitecture\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format!("{:.1}", r.c0),
                format!("{:.4}", r.c_mem),
                format!("{:.4}", r.c_comp),
                format!("{:.6}", r.r_squared),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["variant", "c0", "c_mem", "c_comp", "r²"], &table)
    );

    let base = &rows[0];
    let wake = &rows[1];
    let prep = &rows[2];
    let dma = &rows[3];
    let irq = &rows[5];
    let claims = [
        (wake.c0 - base.c0) > 20.0 && (wake.c_mem - base.c_mem).abs() < 0.005,
        (prep.c_mem - base.c_mem / 2.0).abs() < 0.02,
        dma.c_comp < base.c_comp - 0.05 && (dma.c_mem - base.c_mem).abs() < 0.005,
        rows.iter().all(|r| r.r_squared > 0.9999),
    ];
    println!(
        "doubling wake latency moves only c0 (Δc0 = {:+.0}, Δc_mem = {:+.4}): {}",
        wake.c0 - base.c0,
        wake.c_mem - base.c_mem,
        claims[0]
    );
    println!(
        "doubling prep throughput halves c_mem ({:.4} -> {:.4}): {}",
        base.c_mem, prep.c_mem, claims[1]
    );
    println!(
        "doubling DMA width moves only c_comp ({:.4} -> {:.4}): {}",
        base.c_comp, dma.c_comp, claims[2]
    );
    println!(
        "+40 IRQ cycles adds ~40 to c0 (Δc0 = {:+.0})",
        irq.c0 - base.c0
    );
    println!(
        "the Eq. 1 form survives every variant (r² > 0.9999): {}",
        claims[3]
    );
    Ok(Output::json(&rows)?.passed(claims.iter().all(|&c| c)))
}
