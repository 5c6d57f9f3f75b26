//! The paper's artifacts — Fig. 1 left and right, the 47.9% headline,
//! and the Eq. 1–3 fit, MAPE and decision tables — plus the ablation,
//! kernel-zoo, break-even and energy sweeps, each on a fresh
//! [`Harness`]. Every entry prints the paper-style table and its claims;
//! a claim that reads `false` fails the run. None has a reduced grid, so
//! `--smoke` runs them as they are.

use std::error::Error;

use crate::study::{Output, Run};
use crate::{render_table, to_csv, Harness, FIG1_RIGHT_N, PAPER_M};

/// **Fig. 1 (left)**: runtime of a 1024-element DAXPY for 1–32
/// clusters, baseline vs extended (multicast + credit counter).
pub(super) fn fig1_left(_: &Run) -> Result<Output, Box<dyn Error>> {
    let rows = Harness::new()?.fig1_left()?;

    println!("Fig. 1 (left) — DAXPY N=1024 runtime [cycles == ns @ 1 GHz]\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.m.to_string(),
                r.baseline.to_string(),
                r.extended.to_string(),
                r.gap().to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["M", "baseline", "extended", "gap"], &table)
    );

    let min_base = rows.iter().min_by_key(|r| r.baseline).expect("rows");
    let last = rows.last().expect("rows");
    println!(
        "baseline global minimum at M={} ({} cycles)",
        min_base.m, min_base.baseline
    );
    let monotone = rows.windows(2).all(|w| w[1].extended <= w[0].extended);
    println!("extended monotonically decreasing: {monotone}");
    println!("gap at M=32: {} cycles (paper: more than 300)", last.gap());

    let csv = to_csv(
        &["m", "baseline", "extended"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.m.to_string(),
                    r.baseline.to_string(),
                    r.extended.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    Ok(Output::new(vec![serde_json::to_string_pretty(&rows)?, csv])
        .passed(monotone && last.gap() > 300))
}

/// **Fig. 1 (right)**: speedup of the extensions over the baseline for
/// various problem sizes and cluster counts.
pub(super) fn fig1_right(_: &Run) -> Result<Output, Box<dyn Error>> {
    let rows = Harness::new()?.fig1_right()?;

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

    let csv = to_csv(
        &["n", "m", "baseline", "extended", "speedup"],
        &rows
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
    );
    Ok(Output::new(vec![serde_json::to_string_pretty(&rows)?, csv])
        .passed(all_above_one && monotone))
}

/// The **headline result**: the speedup improvement of the co-designed
/// offload on the 1024-element DAXPY (paper: 47.9% at 32 clusters, a gap
/// of more than 300 cycles).
pub(super) fn headline(_: &Run) -> Result<Output, Box<dyn Error>> {
    let h = Harness::new()?.headline()?;

    println!("Headline — DAXPY N={}, M={}:", h.n, h.m);
    println!("  baseline : {:>6} cycles", h.baseline);
    println!("  extended : {:>6} cycles", h.extended);
    println!("  gap      : {:>6} cycles   (paper: > 300)", h.gap_cycles);
    println!(
        "  speedup improvement: {:.1}%   (paper: 47.9%)",
        h.improvement_pct
    );
    Ok(Output::json(&h)?.passed(h.gap_cycles > 300))
}

/// **Eq. 1**: fits the runtime model `t̂ = c₀ + c_mem·N + c_comp·N/M` to
/// measured extended-configuration runtimes and compares the
/// coefficients with the paper's `367 + N/4 + 2.6·N/(8M)`.
pub(super) fn model_fit(_: &Run) -> Result<Output, Box<dyn Error>> {
    let fit = Harness::new()?.model_fit()?;

    println!(
        "Eq. 1 — offload runtime model (fit on {} samples)\n",
        fit.samples
    );
    println!("  fitted : {}", fit.fitted);
    println!("  paper  : {}", fit.paper);
    println!("  r²     : {:.6}", fit.r_squared);
    println!("  max |err| over fit set: {:.2}%", fit.max_abs_pct_err);
    println!();
    println!(
        "  c₀     : {:.1} vs paper 367 (constant offload overhead)",
        fit.fitted.c0
    );
    println!(
        "  c_mem  : {:.4} vs paper 0.25 (serial data-preparation term)",
        fit.fitted.c_mem
    );
    println!(
        "  c_comp : {:.4} vs paper 0.325 (parallel term; ours folds the\n           per-cluster DMA width in — see EXPERIMENTS.md)",
        fit.fitted.c_comp
    );
    Ok(Output::json(&fit)?)
}

/// **Eq. 2**: the MAPE validation of the runtime model on `N ∈ {256,
/// 512, 768, 1024}` over `M ∈ {1,2,4,8,16,32}` (paper: consistently
/// below 1%). The model is fitted on *disjoint* problem sizes first, so
/// this is a genuine out-of-sample validation.
pub(super) fn mape_table(_: &Run) -> Result<Output, Box<dyn Error>> {
    let (model, rows) = Harness::new()?.mape_table()?;

    println!("Eq. 2 — model validation (fitted model: {model})\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                format!("{:.3}", r.mape_pct),
                r.points.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&["N", "MAPE [%]", "points"], &table));

    let all_below_one = rows.iter().all(|r| r.mape_pct < 1.0);
    println!("MAPE consistently below 1%: {all_below_one} (paper: true)");
    Ok(Output::json(&rows)?.passed(all_below_one))
}

/// **Eq. 3**: the offload decision `M_min = ⌈c_comp·N / (t_max − c₀ −
/// c_mem·N)⌉`, validated against simulation — the deadline must be met
/// at `M_min` and missed at `M_min − 1`.
pub(super) fn decision(_: &Run) -> Result<Output, Box<dyn Error>> {
    let (model, rows) = Harness::new()?.decision_table(1.0)?;

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
    Ok(Output::json(&rows)?.passed(all_confirmed))
}

/// **Ablation** of the two co-design ingredients (§II): dispatch
/// strategy and synchronization strategy in isolation, on the
/// 1024-element DAXPY.
pub(super) fn ablation(_: &Run) -> Result<Output, Box<dyn Error>> {
    let rows = Harness::new()?.ablation()?;

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
    let claims = [
        mc_only < base && both < credit_only,
        both < mc_only,
        both < mc_only && both < credit_only && both < base,
    ];
    println!("multicast helps under either sync scheme: {}", claims[0]);
    println!(
        "credit counter helps once completions arrive together (multicast): {}",
        claims[1]
    );
    println!("combination is the best configuration: {}", claims[2]);
    Ok(Output::json(&rows)?.passed(claims.iter().all(|&c| c)))
}

/// **Kernel sweep** (model generality, §IV): refits the Eq. 1-form model
/// for every kernel in the zoo and reports MAPE on a held-out grid,
/// verifying every offloaded result on the way.
pub(super) fn kernel_sweep(_: &Run) -> Result<Output, Box<dyn Error>> {
    let rows = Harness::new()?.kernel_sweep()?;

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

    let claims = [
        rows.iter()
            .filter(|r| !matches!(r.kernel.as_str(), "dot" | "sum"))
            .all(|r| r.mape_pct < 1.0),
        rows.iter().all(|r| r.mape_extended_pct < 1.0),
        rows.iter().all(|r| r.all_verified),
    ];
    println!(
        "Eq. 1 (3-term) captures every map kernel (MAPE < 1%): {}",
        claims[0]
    );
    println!(
        "4-term extension captures every kernel incl. reductions (MAPE < 1%): {}",
        claims[1]
    );
    println!(
        "all results verified against golden references: {}",
        claims[2]
    );
    Ok(Output::json(&rows)?.passed(claims.iter().all(|&c| c)))
}

/// **Break-even analysis**: for each cluster count, the smallest problem
/// size at which offloading a DAXPY beats executing it on the host — the
/// paper's introductory framing of the offload decision, answered with
/// the fitted Eq. 1 model and confirmed by simulation.
pub(super) fn breakeven(_: &Run) -> Result<Output, Box<dyn Error>> {
    let rows = Harness::new()?.breakeven()?;

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

    let shrinks = rows
        .windows(2)
        .all(|w| w[1].break_even_n <= w[0].break_even_n);
    let confirmed = rows
        .iter()
        .all(|r| (r.accel_cycles as f64) < r.host_cycles * 1.02);
    println!("break-even shrinks with more clusters: {shrinks}");
    println!("simulation confirms the accelerator wins at break-even: {confirmed}");
    Ok(Output::json(&rows)?.passed(shrinks && confirmed))
}

/// **Energy sweep**: first-order energy estimate of the 1024-element
/// DAXPY per strategy and cluster count. The paper motivates the
/// co-design by noting that offload overheads "add up to the runtime and
/// energy consumption"; here the removed overhead cycles translate into
/// removed idle/synchronization energy.
pub(super) fn energy(_: &Run) -> Result<Output, Box<dyn Error>> {
    let rows = Harness::new()?.energy_sweep()?;

    println!("Energy estimate — DAXPY N=1024 [nJ]\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.clone(),
                r.m.to_string(),
                r.cycles.to_string(),
                format!("{:.1}", r.total_pj / 1000.0),
                format!("{:.1}", r.idle_pj / 1000.0),
                format!("{:.1}", r.sync_pj / 1000.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["strategy", "M", "cycles", "total nJ", "idle nJ", "sync nJ"],
            &table
        )
    );

    // At every M, the extended runtime should cost no more energy than
    // the baseline (fewer total cycles -> less idle energy; no polling).
    let wins = rows
        .iter()
        .filter(|r| r.strategy.starts_with("multicast"))
        .all(|ext| {
            rows.iter()
                .find(|b| b.strategy.starts_with("sequential") && b.m == ext.m)
                .is_some_and(|b| ext.total_pj <= b.total_pj)
        });
    println!("extended never costs more energy: {wins}");
    Ok(Output::json(&rows)?.passed(wins))
}
