//! Regenerates every artifact under `results/` from the experiment
//! registry — the paper's figures and tables, the extension sweeps, the
//! traced offload and the self-asserting studies:
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin all_experiments -- \
//!     [--only <name>] [--smoke] [--out <dir> | --replay <dir>] \
//!     [--flamegraph <path>] [--chrome <path>]
//! ```
//!
//! The command line and each entry's write-or-replay life cycle are
//! [`mpsoc_bench::study`]'s.

fn main() -> std::process::ExitCode {
    mpsoc_bench::study::main()
}
