//! The experiment registry: one entry per producer of a `results/`
//! artifact. `all_experiments` walks it (see [`crate::study`]).
//!
//! Every entry builds its own state (its own [`crate::Harness`] or
//! offloader, its own seeds), so running one entry alone writes the same
//! bytes as the full walk.

use std::error::Error;

use crate::study::{Output, Run};

mod bank_ablation;
mod chaos_study;
mod codegen_ablation;
mod cost_study;
mod fault_sweep;
mod interference;
mod lint_kernels;
mod offload_profile;
mod paper;
mod pipeline;
mod sched_study;
mod sensitivity;
mod serve_study;
mod throughput_study;

/// One producer of `results/` artifacts.
pub(crate) struct Experiment {
    /// The name `--only` selects.
    pub(crate) name: &'static str,
    /// The files it writes under `results/`, in the order its
    /// [`Output`] holds their bytes.
    pub(crate) files: &'static [&'static str],
    /// Runs it at the scale [`Run::smoke`] selects.
    pub(crate) run: fn(&Run) -> Result<Output, Box<dyn Error>>,
}

const fn entry(
    name: &'static str,
    files: &'static [&'static str],
    run: fn(&Run) -> Result<Output, Box<dyn Error>>,
) -> Experiment {
    Experiment { name, files, run }
}

/// Every entry, in the order a full run walks them: the paper's
/// artifacts, the extensions, the traced offload, then the studies.
pub(crate) const EXPERIMENTS: [Experiment; 23] = [
    entry(
        "fig1_left",
        &["fig1_left.json", "fig1_left.csv"],
        paper::fig1_left,
    ),
    entry(
        "fig1_right",
        &["fig1_right.json", "fig1_right.csv"],
        paper::fig1_right,
    ),
    entry("headline", &["headline.json"], paper::headline),
    entry("model_fit", &["model_fit.json"], paper::model_fit),
    entry("mape_table", &["mape_table.json"], paper::mape_table),
    entry("decision", &["decision.json"], paper::decision),
    entry("ablation", &["ablation.json"], paper::ablation),
    entry("kernel_sweep", &["kernel_sweep.json"], paper::kernel_sweep),
    entry("breakeven", &["breakeven.json"], paper::breakeven),
    entry("energy", &["energy.json"], paper::energy),
    entry("pipeline", &["pipeline.json"], pipeline::run),
    entry("sensitivity", &["sensitivity.json"], sensitivity::run),
    entry(
        "codegen_ablation",
        &["codegen_ablation.json"],
        codegen_ablation::run,
    ),
    entry("bank_ablation", &["bank_ablation.json"], bank_ablation::run),
    entry(
        "offload_profile",
        &["offload_profile.json", "offload_profile.trace.json"],
        offload_profile::run,
    ),
    entry("sched_study", &["sched_study.json"], sched_study::run),
    entry("interference", &["interference.json"], interference::run),
    entry("fault_sweep", &["fault_sweep.json"], fault_sweep::run),
    entry("serve_study", &["serve_study.json"], serve_study::run),
    entry("cost_study", &["cost_study.json"], cost_study::run),
    entry("chaos_study", &["chaos_study.json"], chaos_study::run),
    entry(
        "throughput_study",
        &["throughput.json"],
        throughput_study::run,
    ),
    entry("lint_kernels", &["lint_kernels.json"], lint_kernels::run),
];

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::fs;
    use std::path::Path;

    use super::*;

    #[test]
    fn the_registry_declares_every_committed_artifact() {
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "entry names are unique");

        let declared: Vec<&str> = EXPERIMENTS.iter().flat_map(|e| e.files).copied().collect();
        let unique: BTreeSet<&str> = declared.iter().copied().collect();
        assert_eq!(
            unique.len(),
            declared.len(),
            "no two entries write one file"
        );

        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let committed: BTreeSet<String> = fs::read_dir(results)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        let declared: BTreeSet<String> = unique.iter().map(|f| f.to_string()).collect();
        assert_eq!(
            declared, committed,
            "every file in results/ has exactly one producer in the registry"
        );
        assert_eq!(committed.len(), 26);
    }
}
