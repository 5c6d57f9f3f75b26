//! Wall-clock sidecar artifacts: the shared `BENCH_<name>.json` schema,
//! which [`crate::study`] writes on full runs of the studies that
//! measure their own speed.
//!
//! The repo's determinism discipline splits every study's output in
//! two: the `results/*.json` artifact is a pure function of the seed
//! (CI byte-compares two runs), while wall-clock numbers — how fast the
//! simulator itself ran — go into a `BENCH_<name>.json` *sidecar* that
//! is never byte-compared. Before this module each study binary
//! hand-rolled its own sidecar struct; this is the one shared schema:
//!
//! ```json
//! {
//!   "name": "serve",
//!   "wall_seconds": 0.96,
//!   "jobs": 1320080,
//!   "throughput": 1372092.0,
//!   "metadata": { "bin": "serve_study", "profiling": true },
//!   "detail": { ... study-specific payload ... }
//! }
//! ```
//!
//! `metadata` is deliberately **git-describe-free**: no commit hashes,
//! no timestamps, no hostnames — nothing that would tempt a reader to
//! diff sidecars across machines or treat them as reproducible. The
//! only metadata is what the run itself knew: which experiment produced
//! it and whether the self-profiler was on.

use serde::Serialize;

/// Run provenance that is safe to embed in a non-reproducible artifact:
/// no VCS state, no clock, no host identity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct BenchMetadata {
    /// The producing experiment's registry name (`serve_study`, ...).
    pub bin: String,
    /// Whether the wall-clock self-profiler was enabled for the run.
    pub profiling: bool,
}

impl BenchMetadata {
    /// Metadata for a run of the experiment `bin`, with the profiling
    /// state from the live profiler switch.
    pub fn new(bin: &str) -> Self {
        BenchMetadata {
            bin: bin.to_owned(),
            profiling: mpsoc_sim::profile::enabled(),
        }
    }
}

/// The shared sidecar schema — see the module docs for the layout.
#[derive(Debug)]
pub struct BenchSidecar<T: Serialize> {
    /// Short study name; the file is written as `BENCH_<name>.json`.
    pub name: String,
    /// End-to-end wall time of the study (seconds).
    pub wall_seconds: f64,
    /// Units of work the study performed (jobs, cells, cycles — the
    /// study's own notion; `throughput` uses the same unit).
    pub jobs: u64,
    /// `jobs / wall_seconds` (0 when no time elapsed).
    pub throughput: f64,
    /// Git-describe-free provenance.
    pub metadata: BenchMetadata,
    /// Study-specific payload.
    pub detail: T,
}

// Hand-rolled: the vendored serde derive does not handle generics.
impl<T: Serialize> Serialize for BenchSidecar<T> {
    fn serialize(&self, out: &mut serde::Writer<'_>) {
        out.begin_object();
        out.field("name", &self.name);
        out.field("wall_seconds", &self.wall_seconds);
        out.field("jobs", &self.jobs);
        out.field("throughput", &self.throughput);
        out.field("metadata", &self.metadata);
        out.field("detail", &self.detail);
        out.end_object();
    }
}

impl<T: Serialize> BenchSidecar<T> {
    /// Builds a sidecar for a run of the experiment `bin`, deriving
    /// throughput from `jobs` and `wall_seconds` (0 when no time
    /// elapsed).
    pub fn new(name: &str, bin: &str, wall_seconds: f64, jobs: u64, detail: T) -> Self {
        BenchSidecar {
            name: name.to_owned(),
            wall_seconds,
            jobs,
            throughput: if wall_seconds > 0.0 {
                jobs as f64 / wall_seconds
            } else {
                0.0
            },
            metadata: BenchMetadata::new(bin),
            detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sidecar_derives_throughput_and_carries_detail() {
        let sidecar = BenchSidecar::new("unit", "unit_study", 2.0, 10, vec![1u64, 2, 3]);
        assert_eq!(sidecar.throughput, 5.0);
        let text = serde_json::to_string_pretty(&sidecar).unwrap();
        assert!(text.contains("\"throughput\": 5"));
        assert!(text.contains("\"detail\""));
        assert!(text.contains("\"profiling\""));
        assert!(text.contains("\"bin\": \"unit_study\""));
        assert!(!text.contains("commit"), "metadata must stay VCS-free");
    }

    #[test]
    fn zero_wall_time_reports_zero_throughput() {
        // A degenerate (instant) run must not divide by zero.
        assert_eq!(BenchSidecar::new("z", "z", 0.0, 5, 0u64).throughput, 0.0);
    }

    #[test]
    fn metadata_never_embeds_vcs_state() {
        let m = BenchMetadata::new("unit_study");
        let json = serde_json::to_string(&m).unwrap();
        for banned in ["commit", "describe", "branch", "host"] {
            assert!(!json.contains(banned), "{banned} leaked into metadata");
        }
    }
}
