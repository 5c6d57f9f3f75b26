//! The bench bins' one command line, and a study's life cycle.
//!
//! **Flags.** Every bin parses its arguments here, strictly: each bin
//! declares the value flags (`--json <path>`, ...) and switches it
//! accepts. Any other token, a repeated flag, or a value flag without
//! its value is a [`Usage`] error: a message on stderr and exit code 2,
//! with nothing run or written.
//!
//! **Studies.** A study is a bin that asserts its own claims. [`main`]
//! owns its life cycle:
//!
//! 1. parse `--smoke`, `--json <path>`, `--replay <path>` and the
//!    study's declared value flags (`--json` and `--replay` together
//!    are a usage error, and so is `--replay` with any other flag that
//!    names an output file);
//! 2. run the study at the scale `--smoke` selects; the run asserts its
//!    claims;
//! 3. then either
//!    - write the report with [`write_json`]: to `--json`, else on a
//!      full run to `results/<artifact>.json` (a smoke run writes only
//!      where `--json` points), plus the study's wall-clock
//!      `BENCH_<name>.json` sidecar on full runs; or
//!    - **replay**: write nothing, serialize the report and compare it
//!      byte for byte with the `--replay` file. A mismatch prints the
//!      first differing line of each side.
//!
//! Exit codes: 0 on success; 1 when a claim fails, the replay differs
//! or the run errs; 2 on a usage error. A study whose claims fail
//! through [`Output::passed`] still writes its report first, so the
//! failing rows can be read.

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use serde::Serialize;

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

/// The `--json <path>` destination of a bin whose only flag it is.
pub fn json_flag() -> Option<PathBuf> {
    flags(&["--json"], &[]).path("--json")
}

/// What a study bin declares about itself.
#[derive(Debug)]
pub struct Study {
    /// The report's name: a full run writes `results/<artifact>.json`.
    pub artifact: &'static str,
    /// Value flags the study accepts besides `--json` and `--replay`,
    /// each naming an output file the study writes itself.
    pub extra: &'static [&'static str],
}

/// What one study run sees of its command line.
#[derive(Debug)]
pub struct Run<'a> {
    /// `--smoke`: run the reduced grid CI gates on.
    pub smoke: bool,
    flags: &'a Flags,
}

impl Run<'_> {
    /// The path given for one of the study's extra flags.
    pub fn path(&self, flag: &str) -> Option<PathBuf> {
        self.flags.path(flag)
    }
}

/// A study run's result: the deterministic report, an optional
/// wall-clock sidecar, and whether its claims held.
#[derive(Debug)]
pub struct Output<R, D: Serialize = NoSidecar> {
    report: R,
    sidecar: Option<BenchSidecar<D>>,
    passed: bool,
}

/// The sidecar detail type of a study that writes no sidecar.
#[derive(Debug)]
pub enum NoSidecar {}

impl Serialize for NoSidecar {
    fn serialize(&self, _: &mut serde::Writer<'_>) {
        match *self {}
    }
}

impl<R> Output<R> {
    /// A passing run with no sidecar.
    pub fn new(report: R) -> Self {
        Output {
            report,
            sidecar: None,
            passed: true,
        }
    }

    /// Adds the `BENCH_<name>.json` sidecar a full run writes: the
    /// study's wall time, its units of work and a study-specific detail.
    pub fn sidecar<D: Serialize>(
        self,
        name: &str,
        wall_seconds: f64,
        jobs: u64,
        detail: D,
    ) -> Output<R, D> {
        Output {
            report: self.report,
            sidecar: Some(BenchSidecar::new(name, wall_seconds, jobs, detail)),
            passed: self.passed,
        }
    }
}

impl<R, D: Serialize> Output<R, D> {
    /// Records whether the study's claims held. A failed run still
    /// writes its report, then exits 1.
    pub fn passed(mut self, passed: bool) -> Self {
        self.passed = passed;
        self
    }
}

/// Runs a study bin: parses its flags, runs it at the selected scale,
/// then writes or replays its report (see the module docs).
pub fn main<R, D, F>(study: &Study, run: F) -> ExitCode
where
    R: Serialize,
    D: Serialize,
    F: FnOnce(&Run<'_>) -> Result<Output<R, D>, Box<dyn Error>>,
{
    let flags = parse_study(study, std::env::args().skip(1)).unwrap_or_else(|e| e.exit());
    drive(study, &flags, run).unwrap_or_else(|e| {
        eprintln!("{} failed: {e}", study.artifact);
        ExitCode::FAILURE
    })
}

/// Parses a study's command line.
fn parse_study(study: &Study, args: impl IntoIterator<Item = String>) -> Result<Flags, Usage> {
    let values: Vec<&'static str> = ["--json", "--replay"]
        .into_iter()
        .chain(study.extra.iter().copied())
        .collect();
    let flags = Flags::parse(&values, &["--smoke"], args)?;
    if flags.value("--replay").is_some() {
        if let Some(output) = values[..1]
            .iter()
            .chain(study.extra)
            .find(|f| flags.value(f).is_some())
        {
            return Err(Usage(format!(
                "--replay writes nothing, so it takes no {output}"
            )));
        }
    }
    Ok(flags)
}

fn drive<R, D, F>(study: &Study, flags: &Flags, run: F) -> Result<ExitCode, Box<dyn Error>>
where
    R: Serialize,
    D: Serialize,
    F: FnOnce(&Run<'_>) -> Result<Output<R, D>, Box<dyn Error>>,
{
    let smoke = flags.switch("--smoke");
    let output = run(&Run { smoke, flags })?;
    if let Some(recorded) = flags.path("--replay") {
        let text = fs::read_to_string(&recorded)
            .map_err(|e| format!("cannot read {}: {e}", recorded.display()))?;
        let fresh = serde_json::to_string_pretty(&output.report)?;
        if let Some((line, was, now)) = first_difference(&text, &fresh) {
            let show =
                |side: Option<&str>| side.map_or("(end of file)".to_owned(), |l| format!("{l:?}"));
            println!(
                "replay: {} differs at line {line}\n  recorded: {}\n  fresh:    {}",
                recorded.display(),
                show(was),
                show(now)
            );
            return Ok(ExitCode::FAILURE);
        }
        println!("replay: {} reproduced byte for byte", recorded.display());
    } else {
        let default = || Path::new("results").join(format!("{}.json", study.artifact));
        if let Some(path) = flags.path("--json").or_else(|| (!smoke).then(default)) {
            write_json(&path, &output.report)?;
            println!("wrote {}", path.display());
        }
        if let (false, Some(sidecar)) = (smoke, output.sidecar) {
            let path = PathBuf::from(format!("BENCH_{}.json", sidecar.name));
            write_json(&path, &sidecar)?;
            println!("wrote {}", path.display());
        }
    }
    if output.passed {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("FAILED");
        Ok(ExitCode::FAILURE)
    }
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

    const STUDY: Study = Study {
        artifact: "unit",
        extra: &["--flamegraph"],
    };

    fn study(line: &str) -> Result<Flags, Usage> {
        parse_study(&STUDY, args(line))
    }

    #[test]
    fn declared_flags_parse() {
        let f = study("--smoke --json a.json --flamegraph f.folded").unwrap();
        assert!(f.switch("--smoke"));
        assert_eq!(f.path("--json"), Some(PathBuf::from("a.json")));
        assert_eq!(f.value("--flamegraph"), Some("f.folded"));
        assert_eq!(f.value("--replay"), None);
        let f = study("--replay r.json --smoke").unwrap();
        assert_eq!(f.value("--replay"), Some("r.json"));
        assert!(study("").is_ok());
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        for line in ["--smok", "--smoke extra", "--dense", "--json a.json b.json"] {
            let err = study(line).unwrap_err();
            assert!(err.0.starts_with("unknown argument"), "{line}: {err}");
        }
        // An extra flag belongs to the study that declares it.
        assert!(Flags::parse(&["--json"], &[], args("--flamegraph f")).is_err());
        let none = Flags::parse(&[], &[], args("--json a.json")).unwrap_err();
        assert!(none.0.contains("takes no arguments"), "{none}");
    }

    #[test]
    fn a_value_flag_needs_its_value() {
        for line in [
            "--json",
            "--smoke --json",
            "--json --smoke",
            "--replay",
            "--flamegraph",
        ] {
            let err = study(line).unwrap_err();
            assert!(err.0.contains("needs a value"), "{line}: {err}");
        }
    }

    #[test]
    fn repeated_flags_are_usage_errors() {
        for line in [
            "--smoke --smoke",
            "--json a --json b",
            "--replay a --replay a",
        ] {
            let err = study(line).unwrap_err();
            assert!(err.0.contains("given twice"), "{line}: {err}");
        }
    }

    #[test]
    fn replay_takes_no_output_flag() {
        assert!(study("--json a.json --replay b.json").is_err());
        assert!(study("--replay b.json --json a.json").is_err());
        assert!(study("--replay b.json --flamegraph f").is_err());
        assert!(study("--smoke --replay b.json").is_ok());
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
}
