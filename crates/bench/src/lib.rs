//! # mpsoc-bench
//!
//! Experiment harness regenerating **every table and figure** of
//! *"Optimizing Offload Performance in Heterogeneous MPSoCs"* (DATE 2024)
//! on the `mpsoc-offload` simulator. Each experiment has
//!
//! - a programmatic runner (this library) returning typed, serializable
//!   results,
//! - a CLI binary (`cargo run -p mpsoc-bench --bin <experiment>`)
//!   printing the paper-style rows and optionally writing JSON.
//!
//! Every binary parses its command line through [`study`], strictly:
//! an unknown or repeated flag, or a value flag without its value,
//! exits 2 before anything runs. The self-asserting studies
//! (`sched_study`, `interference`, `fault_sweep`, `serve_study`,
//! `cost_study`, `chaos_study`, `throughput_study`, `lint_kernels`) also
//! share [`study::main`]: `--smoke` selects the reduced grid, a full run
//! writes `results/<artifact>.json` unless `--json <path>` points
//! elsewhere (a smoke run writes only to `--json`), and `--replay
//! <path>` re-runs the study, writes nothing and requires the report to
//! match the file byte for byte.
//!
//! | Experiment | Paper artifact | Runner |
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod harness;
mod report;
mod results;
mod sidecar;
pub mod study;

pub use harness::Harness;
pub use report::{render_table, write_csv, write_json};
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
