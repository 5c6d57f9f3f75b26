//! The bench bins' command-line contract (`mpsoc_bench::study`), driven
//! through the built binaries: strict flags, no writes on a usage error
//! or a smoke run without `--json`, and a byte-comparing `--replay`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Every bench bin, by name and built path.
const BINS: [(&str, &str); 25] = [
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("all_experiments", env!("CARGO_BIN_EXE_all_experiments")),
    ("bank_ablation", env!("CARGO_BIN_EXE_bank_ablation")),
    ("breakeven", env!("CARGO_BIN_EXE_breakeven")),
    ("chaos_study", env!("CARGO_BIN_EXE_chaos_study")),
    ("codegen_ablation", env!("CARGO_BIN_EXE_codegen_ablation")),
    ("cost_study", env!("CARGO_BIN_EXE_cost_study")),
    ("decision", env!("CARGO_BIN_EXE_decision")),
    ("energy", env!("CARGO_BIN_EXE_energy")),
    ("fault_sweep", env!("CARGO_BIN_EXE_fault_sweep")),
    ("fig1_left", env!("CARGO_BIN_EXE_fig1_left")),
    ("fig1_right", env!("CARGO_BIN_EXE_fig1_right")),
    ("headline", env!("CARGO_BIN_EXE_headline")),
    ("interference", env!("CARGO_BIN_EXE_interference")),
    ("kernel_sweep", env!("CARGO_BIN_EXE_kernel_sweep")),
    ("lint_kernels", env!("CARGO_BIN_EXE_lint_kernels")),
    ("mape_table", env!("CARGO_BIN_EXE_mape_table")),
    ("model_fit", env!("CARGO_BIN_EXE_model_fit")),
    ("offload_profile", env!("CARGO_BIN_EXE_offload_profile")),
    ("pipeline", env!("CARGO_BIN_EXE_pipeline")),
    ("run_offload", env!("CARGO_BIN_EXE_run_offload")),
    ("sched_study", env!("CARGO_BIN_EXE_sched_study")),
    ("sensitivity", env!("CARGO_BIN_EXE_sensitivity")),
    ("serve_study", env!("CARGO_BIN_EXE_serve_study")),
    ("throughput_study", env!("CARGO_BIN_EXE_throughput_study")),
];

fn bin(name: &str) -> &'static str {
    BINS.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, path)| *path)
        .expect("a bench bin")
}

/// A fresh, empty working directory for one test.
fn empty_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpsoc-bench-cli-{}-{test}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `path args...` in `dir` and returns its exit code.
fn run_in(dir: &Path, path: &str, args: &[&str]) -> i32 {
    let out = Command::new(path)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the bin starts");
    out.status.code().expect("the bin exits with a code")
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

#[test]
fn every_bin_rejects_an_unknown_flag_and_writes_nothing() {
    let dir = empty_dir("unknown");
    for (name, path) in BINS {
        assert_eq!(run_in(&dir, path, &["--no-such-flag"]), 2, "{name}");
        assert!(entries(&dir).is_empty(), "{name} wrote {:?}", entries(&dir));
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn mistyped_and_incomplete_study_lines_are_usage_errors() {
    let dir = empty_dir("usage");
    for (name, args) in [
        // A typo no longer runs the full sweep.
        ("sched_study", &["--smok"][..]),
        // A forgotten path no longer falls back to results/.
        ("serve_study", &["--smoke", "--json"]),
        ("cost_study", &["--smoke", "--replay"]),
        ("chaos_study", &["--replay", "--smoke"]),
        // A replay writes nothing, so it takes no output path.
        (
            "lint_kernels",
            &["--smoke", "--json", "a.json", "--replay", "a.json"],
        ),
        (
            "throughput_study",
            &["--replay", "a.json", "--flamegraph", "f"],
        ),
        ("interference", &["--smoke", "--smoke"]),
        ("fig1_left", &["--dense"]),
        ("lint_kernels", &["--deny-warnings"]),
        ("headline", &["--json"]),
        ("all_experiments", &["--json", "a.json"]),
        ("run_offload", &["--n"]),
        ("offload_profile", &["--json", "a.json", "--json", "b.json"]),
    ] {
        assert_eq!(run_in(&dir, bin(name), args), 2, "{name} {args:?}");
        assert!(
            entries(&dir).is_empty(),
            "{name} {args:?} wrote {:?}",
            entries(&dir)
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn smoke_runs_write_nothing_without_json() {
    let dir = empty_dir("smoke");
    for name in [
        "lint_kernels",
        "serve_study",
        "cost_study",
        "chaos_study",
        "throughput_study",
    ] {
        assert_eq!(run_in(&dir, bin(name), &["--smoke"]), 0, "{name}");
        assert!(entries(&dir).is_empty(), "{name} wrote {:?}", entries(&dir));
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_full_run_writes_its_default_artifact() {
    let dir = empty_dir("full");
    assert_eq!(run_in(&dir, bin("lint_kernels"), &[]), 0);
    assert_eq!(entries(&dir), ["results"]);
    assert_eq!(entries(&dir.join("results")), ["lint_kernels.json"]);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_matches_its_own_artifact_and_catches_one_changed_byte() {
    let dir = empty_dir("replay");
    let lint = bin("lint_kernels");
    assert_eq!(run_in(&dir, lint, &["--smoke", "--json", "a.json"]), 0);
    let recorded = fs::read(dir.join("a.json")).unwrap();
    assert_eq!(run_in(&dir, lint, &["--smoke", "--replay", "a.json"]), 0);
    assert_eq!(entries(&dir), ["a.json"], "a replay writes nothing");

    // The full grid is a different report.
    assert_eq!(run_in(&dir, lint, &["--replay", "a.json"]), 1);

    let mut changed = recorded.clone();
    let at = changed.iter().position(|b| b.is_ascii_digit()).unwrap();
    changed[at] = if changed[at] == b'9' {
        b'8'
    } else {
        changed[at] + 1
    };
    fs::write(dir.join("a.json"), &changed).unwrap();
    assert_eq!(run_in(&dir, lint, &["--smoke", "--replay", "a.json"]), 1);

    // A missing recording is an error, not a pass.
    assert_eq!(
        run_in(&dir, lint, &["--smoke", "--replay", "missing.json"]),
        1
    );
    fs::remove_dir_all(&dir).ok();
}
