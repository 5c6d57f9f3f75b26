//! The bench bins' command-line contract (`mpsoc_bench::study`), driven
//! through the built binaries: strict flags, no writes on a usage error
//! or a smoke run without `--out`, and a byte-comparing `--replay`; and
//! the byte-identity contract itself: every registry entry replays
//! against the committed `results/`, and a smoke run replays with the
//! self-profiler off.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const ALL: &str = env!("CARGO_BIN_EXE_all_experiments");
const RUN_OFFLOAD: &str = env!("CARGO_BIN_EXE_run_offload");

/// A fresh, empty working directory for one test.
fn empty_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mpsoc-bench-cli-{}-{test}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir).unwrap();
    }
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn output_in(dir: &Path, path: &str, args: &[&str]) -> Output {
    Command::new(path)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("the bin starts")
}

/// Runs `path args...` in `dir` and returns its exit code.
fn run_in(dir: &Path, path: &str, args: &[&str]) -> i32 {
    output_in(dir, path, args)
        .status
        .code()
        .expect("the bin exits with a code")
}

fn entries(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// `bytes` with its first digit changed.
fn one_digit_changed(mut bytes: Vec<u8>) -> Vec<u8> {
    let at = bytes.iter().position(|b| b.is_ascii_digit()).unwrap();
    bytes[at] = if bytes[at] == b'9' {
        b'8'
    } else {
        bytes[at] + 1
    };
    bytes
}

#[test]
fn every_bin_rejects_an_unknown_flag_and_writes_nothing() {
    let dir = empty_dir("unknown");
    for path in [ALL, RUN_OFFLOAD] {
        assert_eq!(run_in(&dir, path, &["--no-such-flag"]), 2, "{path}");
        assert!(entries(&dir).is_empty(), "{path} wrote {:?}", entries(&dir));
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn mistyped_and_incomplete_study_lines_are_usage_errors() {
    let dir = empty_dir("usage");
    for (path, args) in [
        // A typo is an error, not a full sweep.
        (ALL, &["--only", "sched_study", "--smok"][..]),
        // A forgotten directory is an error, not a fall-back to results/.
        (ALL, &["--only", "serve_study", "--smoke", "--out"]),
        (ALL, &["--only", "cost_study", "--smoke", "--replay"]),
        (ALL, &["--only", "chaos_study", "--replay", "--smoke"]),
        (ALL, &["--only"]),
        // A replay writes nothing, so it takes no output path.
        (
            ALL,
            &[
                "--only",
                "lint_kernels",
                "--smoke",
                "--out",
                "a",
                "--replay",
                "a",
            ],
        ),
        (
            ALL,
            &[
                "--only",
                "throughput_study",
                "--replay",
                "a",
                "--flamegraph",
                "f",
            ],
        ),
        // An export needs the entry it exports.
        (ALL, &["--only", "headline", "--chrome", "c.json"]),
        (ALL, &["--only", "interference", "--smoke", "--smoke"]),
        (ALL, &["--only", "headline", "--only", "fig1_left"]),
        (ALL, &["--only", "fig1_left", "--dense"]),
        (ALL, &["--only", "lint_kernels", "--deny-warnings"]),
        (ALL, &["--only", "headline", "--out"]),
        // Files go under --out; there is no --json.
        (ALL, &["--json", "a.json"]),
        (RUN_OFFLOAD, &["--n"]),
        (RUN_OFFLOAD, &["--trace", "a.json", "--trace", "b.json"]),
    ] {
        assert_eq!(run_in(&dir, path, args), 2, "{path} {args:?}");
        assert!(
            entries(&dir).is_empty(),
            "{path} {args:?} wrote {:?}",
            entries(&dir)
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unknown_entry_is_a_usage_error_that_names_every_entry() {
    let dir = empty_dir("no-entry");
    let out = output_in(&dir, ALL, &["--only", "no_such_entry"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for name in ["fig1_left", "offload_profile", "pipeline", "lint_kernels"] {
        assert!(stderr.contains(name), "{stderr}");
    }
    assert!(entries(&dir).is_empty());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn smoke_runs_write_nothing_without_out() {
    let dir = empty_dir("smoke");
    assert_eq!(run_in(&dir, ALL, &["--smoke"]), 0);
    assert!(entries(&dir).is_empty(), "wrote {:?}", entries(&dir));
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_full_run_writes_its_default_artifact() {
    let dir = empty_dir("full");
    assert_eq!(run_in(&dir, ALL, &["--only", "lint_kernels"]), 0);
    assert_eq!(entries(&dir), ["results"]);
    assert_eq!(entries(&dir.join("results")), ["lint_kernels.json"]);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_matches_its_own_artifact_and_catches_one_changed_byte() {
    let dir = empty_dir("replay");
    let lint = ["--only", "lint_kernels"];
    let with = |rest: &[&'static str]| [&lint[..], rest].concat();
    assert_eq!(run_in(&dir, ALL, &with(&["--smoke", "--out", "a"])), 0);
    let recorded = fs::read(dir.join("a/lint_kernels.json")).unwrap();
    assert_eq!(run_in(&dir, ALL, &with(&["--smoke", "--replay", "a"])), 0);
    assert_eq!(entries(&dir), ["a"], "a replay writes nothing");
    assert_eq!(entries(&dir.join("a")), ["lint_kernels.json"]);

    // The full grid is a different report.
    assert_eq!(run_in(&dir, ALL, &with(&["--replay", "a"])), 1);

    fs::write(dir.join("a/lint_kernels.json"), one_digit_changed(recorded)).unwrap();
    assert_eq!(run_in(&dir, ALL, &with(&["--smoke", "--replay", "a"])), 1);

    // A missing recording is an error, not a pass.
    assert_eq!(
        run_in(&dir, ALL, &with(&["--smoke", "--replay", "missing"])),
        1
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_paper_artifact_replays_against_the_committed_results() {
    let dir = empty_dir("paper");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let committed = results.to_str().unwrap();
    let headline = ["--only", "headline", "--replay"];
    assert_eq!(
        run_in(&dir, ALL, &[&headline[..], &[committed]].concat()),
        0
    );

    let copy = dir.join("copy");
    fs::create_dir(&copy).unwrap();
    let bytes = fs::read(results.join("headline.json")).unwrap();
    fs::write(copy.join("headline.json"), one_digit_changed(bytes)).unwrap();
    assert_eq!(run_in(&dir, ALL, &[&headline[..], &["copy"]].concat()), 1);
    fs::remove_dir_all(&dir).ok();
}

/// Replays registry entry `entry` at full scale against the committed
/// `results/`: exit 0, nothing written, or the first differing line.
fn replays_against_the_committed_results(entry: &str) {
    let dir = empty_dir(entry);
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let args = ["--only", entry, "--replay", results.to_str().unwrap()];
    let out = output_in(&dir, ALL, &args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{entry} does not replay:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(entries(&dir).is_empty(), "a replay writes nothing");
    fs::remove_dir_all(&dir).ok();
}

/// One test per registry entry, so the harness replays them in
/// parallel. `headline` replays in
/// `a_paper_artifact_replays_against_the_committed_results`.
/// `sched_study` comes first because every study runs the scheduling
/// loop.
mod replays {
    macro_rules! replays {
        ($($entry:ident),* $(,)?) => {
            /// The entries replayed here.
            pub(super) const ENTRIES: &[&str] = &[$(stringify!($entry)),*];
            $(
                #[test]
                fn $entry() {
                    super::replays_against_the_committed_results(stringify!($entry));
                }
            )*
        };
    }

    replays!(
        sched_study,
        fig1_left,
        fig1_right,
        model_fit,
        mape_table,
        decision,
        ablation,
        kernel_sweep,
        breakeven,
        energy,
        pipeline,
        sensitivity,
        codegen_ablation,
        bank_ablation,
        offload_profile,
        interference,
        fault_sweep,
        serve_study,
        cost_study,
        chaos_study,
        throughput_study,
        lint_kernels,
    );
}

/// The entry list `--only` prints on a usage error is the registry's;
/// every entry in it replays in tier-1.
#[test]
fn every_registry_entry_replays_in_a_test() {
    let dir = empty_dir("registry");
    let out = output_in(&dir, ALL, &["--only", "no_such_entry"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let (_, list) = stderr.split_once("experiments: ").expect("the entry list");
    let mut registry: Vec<&str> = list.trim_end().trim_end_matches(')').split(", ").collect();
    let mut replayed = [replays::ENTRIES, &["headline"]].concat();
    registry.sort_unstable();
    replayed.sort_unstable();
    assert_eq!(registry, replayed);
    fs::remove_dir_all(&dir).ok();
}

/// `ci.sh`'s smoke gate: every entry's smoke run, with the throughput
/// profile's exports, replayed with the self-profiler off byte for byte.
#[test]
fn a_smoke_run_replays_with_profiling_off() {
    let dir = empty_dir("smoke-replay");
    let run = [
        "--smoke",
        "--out",
        "smoke",
        "--flamegraph",
        "throughput.folded",
        "--chrome",
        "throughput.trace.json",
    ];
    assert_eq!(run_in(&dir, ALL, &run), 0);
    let replay = Command::new(ALL)
        .args(["--smoke", "--replay", "smoke"])
        .env("MPSOC_PROFILE", "0")
        .current_dir(&dir)
        .output()
        .expect("the bin starts");
    assert_eq!(
        replay.status.code(),
        Some(0),
        "the smoke run does not replay:\n{}",
        String::from_utf8_lossy(&replay.stdout)
    );
    for file in entries(&dir.join("smoke")) {
        let len = fs::metadata(dir.join("smoke").join(&file)).unwrap().len();
        assert!(len > 0, "{file} is empty");
    }
    for export in ["throughput.folded", "throughput.trace.json"] {
        assert!(
            fs::metadata(dir.join(export)).unwrap().len() > 0,
            "{export}"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_offload_trace_writes_only_the_trace() {
    let dir = empty_dir("trace");
    let args = [
        "--n",
        "64",
        "--m",
        "2",
        "--clusters",
        "4",
        "--trace",
        "t.json",
    ];
    assert_eq!(run_in(&dir, RUN_OFFLOAD, &args), 0);
    assert_eq!(entries(&dir), ["t.json"]);
    fs::remove_dir_all(&dir).ok();
}
