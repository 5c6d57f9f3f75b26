//! The bench bins' one command line, and the experiment driver.
//!
//! **Flags.** Both bins parse their arguments here, strictly: each bin
//! declares the value flags and switches it accepts. Any other token, a
//! repeated flag, or a value flag without its value is a [`Usage`]
//! error: a message on stderr and exit code 2, with nothing run or
//! written.
//!
//! **The driver.** [`main`] is `all_experiments`:
//!
//! ```text
//! all_experiments [--only <name>] [--smoke] [--out <dir> | --replay <dir>]
//!                 [--flamegraph <path>] [--chrome <path>]
//! ```
//!
//! It walks the experiment registry, one entry per producer of a
//! `results/` artifact, or runs only the entry `--only` names (an
//! unknown name is a usage error that lists them all). Each entry runs
//! at the scale `--smoke` selects (an entry without a reduced grid runs
//! as it is), prints its table, checks its claims and hands back the
//! bytes of the files it declares. Then either
//!
//! - the files are written under `--out`, which defaults to `results`
//!   on a full run (a smoke run writes only where `--out` points), and
//!   a full run also writes the entry's wall-clock `BENCH_<name>.json`
//!   sidecar, if it has one, in the working directory; or
//! - **replay** (`--replay <dir>`): nothing is written, and each file
//!   is compared byte for byte with `<dir>/<file>`. A mismatch prints
//!   the first differing line of each side; a missing file is a
//!   failure. `--replay` takes no `--out`.
//!
//! `--flamegraph` and `--chrome` export `throughput_study`'s profile.
//! They name output files, so neither goes with `--replay`, and each
//! needs a selection that includes that entry.
//!
//! Every selected entry runs even after one fails. Exit codes: 0 on
//! success; 1 when a claim failed, a replay differed or an entry erred;
//! 2 on a usage error. A failing entry still writes its files first, so
//! the failing rows can be read.

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use mpsoc_sim::profile;
use serde::Serialize;

use crate::experiments::{Experiment, EXPERIMENTS};
use crate::{write_json, BenchSidecar};

/// A command-line usage error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Usage(pub String);

impl fmt::Display for Usage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Usage {
    /// Prints the error on stderr and exits the process with code 2.
    pub fn exit(self) -> ! {
        eprintln!("usage error: {self}");
        std::process::exit(2)
    }
}

/// The flags one invocation passed, checked against what the bin
/// declares.
#[derive(Debug, Default)]
pub struct Flags {
    values: Vec<(&'static str, String)>,
    switches: Vec<&'static str>,
}

impl Flags {
    /// Parses `args` (without the program name) against the declared
    /// value flags and switches.
    ///
    /// # Errors
    ///
    /// A [`Usage`] error on an undeclared token, a repeated flag, or a
    /// value flag whose value is missing (the end of the arguments, or
    /// another `--flag`).
    pub fn parse(
        values: &[&'static str],
        switches: &[&'static str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Flags, Usage> {
        let mut flags = Flags::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(&flag) = values.iter().find(|v| **v == arg) {
                if flags.value(flag).is_some() {
                    return Err(Usage(format!("{flag} given twice")));
                }
                match args.next() {
                    Some(value) if !value.starts_with("--") => flags.values.push((flag, value)),
                    _ => return Err(Usage(format!("{flag} needs a value"))),
                }
            } else if let Some(&flag) = switches.iter().find(|s| **s == arg) {
                if flags.switch(flag) {
                    return Err(Usage(format!("{flag} given twice")));
                }
                flags.switches.push(flag);
            } else {
                let accepted: Vec<String> = switches
                    .iter()
                    .map(|s| s.to_string())
                    .chain(values.iter().map(|v| format!("{v} <value>")))
                    .collect();
                return Err(Usage(if accepted.is_empty() {
                    format!("unknown argument '{arg}' (this program takes no arguments)")
                } else {
                    format!(
                        "unknown argument '{arg}' (accepted: {})",
                        accepted.join(", ")
                    )
                }));
            }
        }
        Ok(flags)
    }

    /// The value given for `flag`, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// The value given for `flag`, as a path.
    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// The value given for `flag` parsed as `T`, or `default` when the
    /// flag is absent.
    ///
    /// # Errors
    ///
    /// The parse error, prefixed with the flag.
    pub fn parsed<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String>
    where
        T::Err: fmt::Display,
    {
        self.value(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("{flag}: {e}"))
        })
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// Parses the process's arguments against the declared flags; on a
/// usage error, prints it and exits 2 before anything runs.
pub fn flags(values: &[&'static str], switches: &[&'static str]) -> Flags {
    Flags::parse(values, switches, std::env::args().skip(1)).unwrap_or_else(|e| e.exit())
}

/// What one experiment run sees of its command line.
pub(crate) struct Run<'a> {
    /// `--smoke`: run the reduced grid CI gates on.
    pub(crate) smoke: bool,
    flags: &'a Flags,
}

impl Run<'_> {
    /// The path given for one of the export flags.
    pub(crate) fn path(&self, flag: &str) -> Option<PathBuf> {
        self.flags.path(flag)
    }
}

/// An experiment run's result: the bytes of each file its entry
/// declares, in the declared order, an optional wall-clock sidecar, and
/// whether its claims held.
pub(crate) struct Output {
    files: Vec<String>,
    sidecar: Option<Sidecar>,
    passed: bool,
}

/// What a run measured for its `BENCH_<name>.json` sidecar; the driver
/// adds the provenance.
struct Sidecar {
    name: &'static str,
    wall_seconds: f64,
    jobs: u64,
    detail: Box<dyn Serialize>,
}

impl Output {
    /// A passing run with no sidecar whose files hold `files`.
    pub(crate) fn new(files: Vec<String>) -> Self {
        Output {
            files,
            sidecar: None,
            passed: true,
        }
    }

    /// A passing run with no sidecar whose one file is `report` as
    /// pretty-printed JSON.
    pub(crate) fn json(report: &impl Serialize) -> Result<Self, serde_json::Error> {
        Ok(Output::new(vec![serde_json::to_string_pretty(report)?]))
    }

    /// Adds the `BENCH_<name>.json` sidecar a full run writes: the
    /// run's wall time, its units of work and an experiment-specific
    /// detail.
    pub(crate) fn sidecar(
        mut self,
        name: &'static str,
        wall_seconds: f64,
        jobs: u64,
        detail: impl Serialize + 'static,
    ) -> Self {
        self.sidecar = Some(Sidecar {
            name,
            wall_seconds,
            jobs,
            detail: Box::new(detail),
        });
        self
    }

    /// Records whether the run's claims held. A failed run still
    /// writes its files, then the driver exits 1.
    pub(crate) fn passed(mut self, passed: bool) -> Self {
        self.passed = passed;
        self
    }
}

/// The entry whose profile `--flamegraph` and `--chrome` export.
const PROFILED: &str = "throughput_study";
const EXPORTS: [&str; 2] = ["--flamegraph", "--chrome"];

/// Runs `all_experiments`: parses its command line, runs the selected
/// entries, then writes or replays their files (see the module docs).
pub fn main() -> ExitCode {
    let (flags, selected) = parse(std::env::args().skip(1)).unwrap_or_else(|e| e.exit());
    if drive(&flags, &selected) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parses `all_experiments`' command line and selects its entries.
fn parse(
    args: impl IntoIterator<Item = String>,
) -> Result<(Flags, Vec<&'static Experiment>), Usage> {
    let flags = Flags::parse(
        &["--only", "--out", "--replay", EXPORTS[0], EXPORTS[1]],
        &["--smoke"],
        args,
    )?;
    let selected: Vec<&Experiment> = match flags.value("--only") {
        None => EXPERIMENTS.iter().collect(),
        Some(name) => {
            let Some(entry) = EXPERIMENTS.iter().find(|e| e.name == name) else {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                return Err(Usage(format!(
                    "no experiment named '{name}' (experiments: {})",
                    names.join(", ")
                )));
            };
            vec![entry]
        }
    };
    if flags.value("--replay").is_some() {
        if let Some(output) = ["--out", EXPORTS[0], EXPORTS[1]]
            .into_iter()
            .find(|f| flags.value(f).is_some())
        {
            return Err(Usage(format!(
                "--replay writes nothing, so it takes no {output}"
            )));
        }
    }
    if let Some(export) = EXPORTS.into_iter().find(|f| flags.value(f).is_some()) {
        if !selected.iter().any(|e| e.name == PROFILED) {
            return Err(Usage(format!(
                "{export} exports {PROFILED}'s profile, which --only leaves out"
            )));
        }
    }
    Ok((flags, selected))
}

/// Runs every selected entry, then writes or replays its files; returns
/// whether all of them passed.
fn drive(flags: &Flags, selected: &[&Experiment]) -> bool {
    let run = Run {
        smoke: flags.switch("--smoke"),
        flags,
    };
    let replay = flags.path("--replay");
    let out = flags
        .path("--out")
        .or_else(|| (!run.smoke && replay.is_none()).then(|| PathBuf::from("results")));
    let profiling = profile::enabled();
    let mut failed = Vec::new();
    for entry in selected {
        println!("==> {}", entry.name);
        let passed = run_entry(entry, &run, profiling)
            .and_then(|output| finish(entry, output, run.smoke, out.as_deref(), replay.as_deref()));
        match passed {
            Ok(true) => {}
            Ok(false) => failed.push(entry.name),
            Err(e) => {
                eprintln!("{} failed: {e}", entry.name);
                failed.push(entry.name);
            }
        }
    }
    if !failed.is_empty() {
        println!("FAILED: {}", failed.join(", "));
    }
    failed.is_empty()
}

/// Runs one entry, after checking that no earlier one left the profiler
/// switched away from the process's starting state, which would change
/// what a profiling-off replay covers.
fn run_entry(entry: &Experiment, run: &Run, profiling: bool) -> Result<Output, Box<dyn Error>> {
    assert_eq!(
        profile::enabled(),
        profiling,
        "an experiment before {} left the profiler switched",
        entry.name
    );
    (entry.run)(run)
}

/// Writes or replays one entry's files and writes its sidecar on a full
/// run; returns whether its claims held and its replay matched.
fn finish(
    entry: &Experiment,
    output: Output,
    smoke: bool,
    out: Option<&Path>,
    replay: Option<&Path>,
) -> Result<bool, Box<dyn Error>> {
    assert_eq!(
        output.files.len(),
        entry.files.len(),
        "{} returned a different number of files than it declares",
        entry.name
    );
    if !output.passed {
        println!("{}: a claim does not hold", entry.name);
    }
    let files = entry.files.iter().zip(&output.files);
    if let Some(dir) = replay {
        let mut passed = output.passed;
        for (name, fresh) in files {
            passed &= replays(&dir.join(name), fresh);
        }
        return Ok(passed);
    }
    if let Some(dir) = out {
        fs::create_dir_all(dir)?;
        for (name, bytes) in files {
            let path = dir.join(name);
            fs::write(&path, bytes)?;
            println!("wrote {}", path.display());
        }
    }
    if let (false, Some(s)) = (smoke, output.sidecar) {
        let path = PathBuf::from(format!("BENCH_{}.json", s.name));
        let sidecar = BenchSidecar::new(s.name, entry.name, s.wall_seconds, s.jobs, &*s.detail);
        write_json(&path, &sidecar)?;
        println!("wrote {}", path.display());
    }
    Ok(output.passed)
}

/// Whether `fresh` equals the `recorded` file byte for byte; prints the
/// verdict, or the first differing line of each side.
fn replays(recorded: &Path, fresh: &str) -> bool {
    let text = match fs::read_to_string(recorded) {
        Ok(text) => text,
        Err(e) => {
            println!("replay: cannot read {}: {e}", recorded.display());
            return false;
        }
    };
    let Some((line, was, now)) = first_difference(&text, fresh) else {
        println!("replay: {} reproduced byte for byte", recorded.display());
        return true;
    };
    let show = |side: Option<&str>| side.map_or("(end of file)".to_owned(), |l| format!("{l:?}"));
    println!(
        "replay: {} differs at line {line}\n  recorded: {}\n  fresh:    {}",
        recorded.display(),
        show(was),
        show(now)
    );
    false
}

/// The first line (1-based) where `recorded` and `fresh` differ, with
/// each side's text (`None` past its end); `None` when they are equal.
fn first_difference<'a>(
    recorded: &'a str,
    fresh: &'a str,
) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    if recorded == fresh {
        return None;
    }
    let (mut was, mut now) = (recorded.split('\n'), fresh.split('\n'));
    let mut line = 1;
    loop {
        let (a, b) = (was.next(), now.next());
        if a != b {
            return Some((line, a, b));
        }
        line += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    fn parse_line(line: &str) -> Result<Flags, Usage> {
        parse(args(line)).map(|(flags, _)| flags)
    }

    fn selected(line: &str) -> Vec<&'static str> {
        parse(args(line))
            .unwrap()
            .1
            .iter()
            .map(|e| e.name)
            .collect()
    }

    #[test]
    fn declared_flags_parse() {
        let f = parse_line("--smoke --out a --flamegraph f.folded").unwrap();
        assert!(f.switch("--smoke"));
        assert_eq!(f.path("--out"), Some(PathBuf::from("a")));
        assert_eq!(f.value("--flamegraph"), Some("f.folded"));
        assert_eq!(f.value("--replay"), None);
        let f = parse_line("--replay r --smoke").unwrap();
        assert_eq!(f.value("--replay"), Some("r"));
        assert!(parse_line("").is_ok());
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        for line in [
            "--smok",
            "--smoke extra",
            "--dense",
            "--out a b",
            "--json a.json",
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.0.starts_with("unknown argument"), "{line}: {err}");
        }
        // A flag belongs to the bin that declares it.
        assert!(Flags::parse(&["--out"], &[], args("--flamegraph f")).is_err());
        let none = Flags::parse(&[], &[], args("--out a")).unwrap_err();
        assert!(none.0.contains("takes no arguments"), "{none}");
    }

    #[test]
    fn a_value_flag_needs_its_value() {
        for line in [
            "--out",
            "--smoke --out",
            "--out --smoke",
            "--replay",
            "--flamegraph",
            "--only",
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.0.contains("needs a value"), "{line}: {err}");
        }
    }

    #[test]
    fn repeated_flags_are_usage_errors() {
        for line in [
            "--smoke --smoke",
            "--out a --out b",
            "--replay a --replay a",
            "--only headline --only headline",
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.0.contains("given twice"), "{line}: {err}");
        }
    }

    #[test]
    fn replay_takes_no_output_flag() {
        assert!(parse_line("--out a --replay b").is_err());
        assert!(parse_line("--replay b --out a").is_err());
        assert!(parse_line("--replay b --flamegraph f").is_err());
        assert!(parse_line("--smoke --replay b").is_ok());
    }

    #[test]
    fn only_selects_one_entry_by_name() {
        assert_eq!(selected("").len(), EXPERIMENTS.len());
        assert_eq!(selected("--only headline --smoke"), ["headline"]);
        let err = parse_line("--only no_such_entry").unwrap_err();
        for entry in &EXPERIMENTS {
            assert!(err.0.contains(entry.name), "{err}");
        }
    }

    #[test]
    fn exports_need_the_profiled_entry() {
        assert!(parse_line("--flamegraph f --chrome c").is_ok());
        assert!(parse_line("--only throughput_study --chrome c").is_ok());
        let err = parse_line("--only headline --flamegraph f").unwrap_err();
        assert!(err.0.contains("leaves out"), "{err}");
    }

    #[test]
    fn parsed_values_fall_back_and_report_errors() {
        let f = Flags::parse(&["--n"], &[], args("--n 12")).unwrap();
        assert_eq!(f.parsed("--n", 1u64), Ok(12));
        assert_eq!(f.parsed("--m", 8usize), Ok(8));
        let f = Flags::parse(&["--n"], &[], args("--n x")).unwrap();
        assert!(f.parsed("--n", 1u64).unwrap_err().starts_with("--n: "));
    }

    #[test]
    fn equal_bytes_replay() {
        assert_eq!(
            first_difference("{\n  \"a\": 1\n}", "{\n  \"a\": 1\n}"),
            None
        );
        assert_eq!(first_difference("", ""), None);
    }

    #[test]
    fn replay_reports_the_first_differing_line() {
        assert_eq!(
            first_difference(
                "{\n  \"a\": 1,\n  \"b\": 2\n}",
                "{\n  \"a\": 1,\n  \"b\": 3\n}"
            ),
            Some((3, Some("  \"b\": 2"), Some("  \"b\": 3")))
        );
        // A report cut short, and a trailing newline, differ past the
        // shorter side's end.
        assert_eq!(
            first_difference("[\n1", "[\n1\n]"),
            Some((3, None, Some("]")))
        );
        assert_eq!(first_difference("[]\n", "[]"), Some((2, Some(""), None)));
    }

    #[test]
    fn throughput_study_restores_the_profiler_switch() {
        let _serial = crate::simulating();
        let was = profile::enabled();
        profile::set_enabled(false);
        let flags = Flags::default();
        let run = Run {
            smoke: true,
            flags: &flags,
        };
        let entry = |name: &str| EXPERIMENTS.iter().find(|e| e.name == name).unwrap();
        run_entry(entry("throughput_study"), &run, false).unwrap();
        assert!(
            !profile::enabled(),
            "the throughput entry left profiling on"
        );
        profile::reset();
        run_entry(entry("headline"), &run, false).unwrap();
        assert!(
            profile::snapshot().roots.is_empty(),
            "an entry after the throughput entry recorded profile samples"
        );
        profile::set_enabled(was);
    }
}
