//! # mpsoc-bench
//!
//! Experiment harness regenerating **every table and figure** of
//! *"Optimizing Offload Performance in Heterogeneous MPSoCs"* (DATE 2024)
//! on the `mpsoc-offload` simulator, plus the extension sweeps, a traced
//! offload and the self-asserting studies built on it.
//!
//! Every artifact under `results/` comes from one entry of the
//! experiment registry, which the `all_experiments` bin walks:
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin all_experiments -- \
//!     [--only <name>] [--smoke] [--out <dir> | --replay <dir>]
//! ```
//!
//! Each entry prints its table, fails the run when one of its claims
//! does not hold, and hands back the files it declares; [`study`] owns
//! the command line and the write-or-replay life cycle. The other bin,
//! `run_offload`, drives single offloads interactively (`--trace` adds
//! a Perfetto trace and the per-phase Eq. 1 residuals).
//!
//! The paper's artifacts, by `--only` name:
//!
//! | Entry | Paper artifact | Runner |
//! |---|---|---|
//! | `fig1_left` | Fig. 1 (left): DAXPY-1024 runtime vs clusters, baseline vs extended | [`Harness::fig1_left`] |
//! | `fig1_right` | Fig. 1 (right): speedup vs problem size and clusters | [`Harness::fig1_right`] |
//! | `headline` | Abstract: 47.9% speedup improvement | [`Harness::headline`] |
//! | `model_fit` | Eq. 1 coefficients | [`Harness::model_fit`] |
//! | `mape_table` | Eq. 2: MAPE(N) < 1% | [`Harness::mape_table`] |
//! | `decision` | Eq. 3: minimum clusters under a deadline | [`Harness::decision_table`] |
//! | `ablation` | §II design choices in isolation | [`Harness::ablation`] |
//! | `kernel_sweep` | model generality across the kernel zoo | [`Harness::kernel_sweep`] |
//! | `breakeven` | §I offload-or-not decision | [`Harness::breakeven`] |
//! | `energy` | energy per strategy and cluster count | [`Harness::energy_sweep`] |
//!
//! The rest: the extensions `pipeline`, `sensitivity`,
//! `codegen_ablation` and `bank_ablation`; the traced offload
//! `offload_profile`; and the studies `sched_study`, `interference`,
//! `fault_sweep`, `serve_study`, `cost_study`, `chaos_study`,
//! `throughput_study` and `lint_kernels`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
mod harness;
mod report;
mod results;
mod sidecar;
pub mod study;

pub use harness::Harness;
pub use report::{render_table, to_csv, write_json};
pub use results::{
    AblationRow, BreakEvenRow, DecisionRow, EnergyRow, Fig1LeftRow, Fig1RightRow, Headline,
    KernelSweepRow, MapeRow, ModelFitResult,
};
pub use sidecar::{BenchMetadata, BenchSidecar};

/// The cluster counts the paper sweeps: powers of two up to 32.
pub const PAPER_M: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The problem sizes of the paper's model validation (Eq. 2).
pub const MAPE_N: [u64; 4] = [256, 512, 768, 1024];

/// The problem sizes of the Fig. 1 (right) speedup sweep.
pub const FIG1_RIGHT_N: [u64; 4] = [1024, 2048, 4096, 8192];

/// Disjoint problem sizes used to *fit* the model before validating on
/// [`MAPE_N`] (train/validate separation the paper did not need, since
/// its coefficients came from hardware inspection).
pub const FIT_N: [u64; 6] = [384, 640, 896, 1280, 1792, 2560];

/// Serializes the unit tests that simulate: the throughput entry
/// switches the process-wide profiler, and a sample another test
/// records meanwhile would land in its profile.
#[cfg(test)]
fn simulating() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
