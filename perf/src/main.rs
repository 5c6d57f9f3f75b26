//! `perf`: the benchmark of the MPSoC offload simulator and its serving
//! path. Four workloads; end-to-end metrics from an untraced run, and a
//! per-layer ledger from a separate traced run.
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--json FILE]
//! perf compare PARENT.jsonl CHANGE.jsonl
//! perf determinism RUNS.jsonl...
//! ```
//!
//! A run repeats its workload on fresh state, at least three times and
//! until `--seconds` have passed, and reports medians. End-to-end times
//! are on-CPU seconds scaled to a host at the reference speed (see
//! [`host`]); the ledger's shares are of wall time. The first repetition's
//! output is checked for correctness and every later one must
//! reproduce it exactly. The run prints every metric by name and
//! unit and ends with one JSON line holding `correct`, `attempted`,
//! `failed` and `metrics`. `--json FILE` appends the full run record to
//! FILE as one line, so a set of runs accumulates in one file for
//! `compare` and `determinism`.

mod check;
mod compare;
mod host;
mod layers;
mod spec;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mpsoc_sched::JobOutcome;
use mpsoc_serve::{FleetRecord, FleetSlo};
use mpsoc_telemetry::{profile, profile_chrome_trace_json};
use serde::Value;

use crate::layers::{Ledger, PolicyProbe};
use crate::spec::{Metric, Spec};
use crate::stats::{median, nearest_rank};
use crate::workload::{BoxError, Sut, Timing, Workload};

/// Repetitions per run, whatever `--seconds` allows.
const MIN_REPS: usize = 3;

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    json: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::ClosedFifo,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        json: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("not a duration"))?
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--json" => opts.json = Some(value.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::compare(&args[1..]),
        Some("determinism") => compare::determinism(&args[1..]),
        _ => parse(&args).map_err(BoxError::from).and_then(|o| run(&o)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}

/// The simulated outcome of one repetition: a pure function of the
/// workload and seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Sim {
    submitted: u64,
    completed: u64,
    deadline_met: u64,
    makespan: u64,
    /// Nearest-rank latency percentiles over completed jobs (cycles).
    p50: u64,
    p99: u64,
}

impl Sim {
    fn of(records: &[FleetRecord], submitted: u64) -> Self {
        let mut latencies: Vec<u64> = records.iter().filter_map(|r| r.record.latency()).collect();
        latencies.sort_unstable();
        let makespan = records
            .iter()
            .filter_map(|r| match r.record.outcome {
                JobOutcome::Offloaded { finish, .. } | JobOutcome::Host { finish, .. } => {
                    Some(finish)
                }
                JobOutcome::Rejected { .. } => None,
            })
            .max()
            .unwrap_or(0);
        Sim {
            submitted,
            completed: latencies.len() as u64,
            deadline_met: records
                .iter()
                .filter(|r| r.record.latency().is_some() && !r.record.missed_deadline())
                .count() as u64,
            makespan,
            p50: nearest_rank(&latencies, 50).unwrap_or(0),
            p99: nearest_rank(&latencies, 99).unwrap_or(0),
        }
    }

    fn to_value(self) -> Value {
        object([
            ("submitted", Value::U64(self.submitted)),
            ("completed", Value::U64(self.completed)),
            ("deadline_met", Value::U64(self.deadline_met)),
            ("makespan", Value::U64(self.makespan)),
            ("p50", Value::U64(self.p50)),
            ("p99", Value::U64(self.p99)),
        ])
    }
}

fn object<'a>(entries: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// One repetition: fresh set-up, then the timed run phase.
struct Rep {
    /// On-CPU seconds of the set-up.
    setup_s: f64,
    run: Timing,
    sim: Sim,
    setup: workload::Setup,
    out: workload::Output,
}

fn repetition(o: &Opts, probe: Option<&PolicyProbe>) -> Result<Rep, BoxError> {
    let started = host::thread_cpu_s()?;
    let mut setup = workload::setup(o.workload, o.seed, o.smoke, probe)?;
    let setup_s = host::thread_cpu_s()? - started;
    let (run, out) = workload::run(&mut setup)?;
    let sim = Sim::of(&out.records, setup.jobs.len() as u64);
    Ok(Rep {
        setup_s,
        run,
        sim,
        setup,
        out,
    })
}

/// The first repetition's output, which every later one must reproduce.
/// Response streams are kept as the framed bytes the daemon sent.
struct Reference {
    sim: Sim,
    records: Vec<FleetRecord>,
    streams: Vec<Vec<u8>>,
}

/// Checks and collects the repetitions of one run.
#[derive(Default)]
struct Tally {
    reference: Option<Reference>,
    violations: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Checks the first repetition in full; later ones must equal it.
    fn add(&mut self, w: Workload, rep: &Rep) {
        let verdict = match &self.reference {
            None => {
                let verdict = correctness(w, rep);
                self.reference = Some(Reference {
                    sim: rep.sim,
                    records: rep.out.records.clone(),
                    streams: streams(rep).cloned().collect(),
                });
                verdict
            }
            Some(r)
                if r.sim == rep.sim
                    && r.records == rep.out.records
                    && streams(rep).eq(&r.streams) =>
            {
                Ok(())
            }
            Some(_) => Err("a repetition's simulated output differs from the first's".to_owned()),
        };
        self.attempted += rep.sim.submitted;
        if let Err(e) = verdict {
            self.failed += rep.sim.submitted;
            self.violations.push(e);
        }
    }
}

fn streams(rep: &Rep) -> impl Iterator<Item = &Vec<u8>> {
    rep.out.logs.iter().map(|l| &l.outbound)
}

/// Every correctness check of one repetition's output.
fn correctness(w: Workload, rep: &Rep) -> Result<(), String> {
    check::all_records(&rep.out.records, rep.sim.submitted, w.clusters())?;
    if let Sut::Daemon { daemon, scripts } = &rep.setup.sut {
        let sessions = workload::responses(&rep.out.logs).map_err(|e| e.to_string())?;
        check::wire(scripts, &sessions)?;
        let slo = FleetSlo::from_fleet(daemon.fleet());
        let sim = rep.sim;
        if (slo.submitted, slo.completed, slo.deadline_met)
            != (sim.submitted, sim.completed, sim.deadline_met)
        {
            return Err("the records disagree with the fleet's own SLO accounting".to_owned());
        }
    }
    Ok(())
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Everything one run measured.
struct Measured {
    /// End-to-end metrics (untraced) or the per-layer ledger (traced).
    metrics: BTreeMap<&'static str, f64>,
    tally: Tally,
    /// Per-repetition times, by name.
    samples: Vec<(&'static str, Vec<f64>)>,
    /// The final traced repetition's profile tree.
    profile: Option<profile::ProfileReport>,
}

fn measure(o: &Opts, spec: &Spec) -> Result<Measured, BoxError> {
    let started = Instant::now();
    let more = |reps: usize| reps < MIN_REPS || started.elapsed().as_secs_f64() < o.seconds;
    let mut tally = Tally::default();
    if !o.trace {
        profile::set_enabled(false);
        let mut setups = Vec::new();
        let mut cpus = Vec::new();
        let mut walls = Vec::new();
        let mut calibrations = vec![host::calibrate()?];
        while more(cpus.len()) {
            let rep = repetition(o, None)?;
            tally.add(o.workload, &rep);
            setups.push(rep.setup_s);
            cpus.push(rep.run.cpu_s);
            walls.push(rep.run.wall_s);
            drop(rep);
            calibrations.push(host::calibrate()?);
        }
        let sim = tally
            .reference
            .as_ref()
            .expect("at least one repetition")
            .sim;
        let run_s = median(&host::reference_seconds(&cpus, &calibrations));
        let submitted = sim.submitted as f64;
        let metrics = BTreeMap::from([
            ("sim_cycles_per_s", sim.makespan as f64 / run_s),
            ("jobs_per_s", submitted / run_s),
            (
                "setup_s",
                median(&host::reference_seconds(&setups, &calibrations)),
            ),
            ("peak_rss_mib", peak_rss_mib()?),
            ("attainment", sim.deadline_met as f64 / submitted),
            ("p50_latency_cycles", sim.p50 as f64),
            ("p99_latency_cycles", sim.p99 as f64),
            ("completed_share", sim.completed as f64 / submitted),
        ]);
        return Ok(Measured {
            metrics,
            tally,
            samples: vec![
                ("run_s", cpus),
                ("run_wall_s", walls),
                ("setup_s", setups),
                ("calibration_s", calibrations),
            ],
            profile: None,
        });
    }

    // Untraced and traced repetitions alternate, so the tracing overhead
    // is measured under the same machine conditions.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut ledgers = Vec::new();
    let mut last = None;
    while more(traced.len()) {
        // Only the final traced repetition is kept, for the replays.
        drop(last.take());
        profile::set_enabled(false);
        let plain = repetition(o, None)?;
        tally.add(o.workload, &plain);
        untraced.push(plain.run.wall_s);
        drop(plain);

        profile::reset();
        profile::set_enabled(true);
        let probe = PolicyProbe::default();
        let rep = repetition(o, Some(&probe))?;
        profile::set_enabled(false);
        let report = profile::snapshot();
        tally.add(o.workload, &rep);
        traced.push(rep.run.wall_s);
        let offers = rep.setup.jobs.len() as u64;
        ledgers.push(layers::in_place(&report, probe.get(), &rep.out, offers));
        last = Some((rep, report));
    }
    let (rep, report) = last.expect("at least one traced repetition");
    let run_s = median(&traced);
    let mut ledger = merge(&ledgers, spec, &mut tally.violations);
    if let Err(e) = replays(o.workload, &rep, run_s, &mut ledger) {
        tally.violations.push(e.to_string());
    }
    ledger.insert("trace.run_s", run_s);
    ledger.insert("trace.overhead_s", run_s - median(&untraced));
    Ok(Measured {
        metrics: ledger,
        tally,
        samples: vec![("untraced_run_s", untraced), ("traced_run_s", traced)],
        profile: Some(report),
    })
}

fn run(o: &Opts) -> Result<ExitCode, BoxError> {
    let spec = spec::spec();
    let Measured {
        metrics,
        tally,
        samples,
        profile,
    } = measure(o, &spec)?;
    if let Some(report) = &profile {
        write_trace(o.workload, report)?;
    }
    let list = if o.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let sim = tally
        .reference
        .as_ref()
        .expect("at least one repetition")
        .sim;
    let correct = tally.violations.is_empty();

    println!(
        "perf {} seed={} {} reps={} {}",
        o.workload.name(),
        o.seed,
        if o.trace { "traced" } else { "untraced" },
        samples[0].1.len(),
        if correct { "correct" } else { "INCORRECT" }
    );
    for v in &tally.violations {
        println!("  violation: {v}");
    }
    let value = |m: &Metric| metrics.get(m.name.as_str()).copied().unwrap_or(0.0);
    for m in list {
        println!("  {:<32} {:>20.6} {}", m.name, value(m), m.unit);
    }
    println!(
        "  latency percentiles over {} completed jobs of {} submitted",
        sim.completed, sim.submitted
    );

    let metric_values = || {
        Value::Object(
            list.iter()
                .map(|m| {
                    let entry = object([
                        ("value", Value::F64(value(m))),
                        ("unit", Value::Str(m.unit.clone())),
                    ]);
                    (m.name.clone(), entry)
                })
                .collect(),
        )
    };
    if let Some(path) = &o.json {
        let record = object([
            ("workload", Value::Str(o.workload.name().to_owned())),
            ("seed", Value::U64(o.seed)),
            ("smoke", Value::Bool(o.smoke)),
            ("trace", Value::Bool(o.trace)),
            ("correct", Value::Bool(correct)),
            ("attempted", Value::U64(tally.attempted)),
            ("failed", Value::U64(tally.failed)),
            (
                "violations",
                Value::Array(tally.violations.iter().cloned().map(Value::Str).collect()),
            ),
            ("sim", sim.to_value()),
            (
                "samples",
                object(samples.iter().map(|(name, v)| {
                    (
                        *name,
                        Value::Array(v.iter().copied().map(Value::F64).collect()),
                    )
                })),
            ),
            ("metrics", metric_values()),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(file, "{}", serde_json::to_string(&record)?)?;
    }
    let result = object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::U64(tally.attempted)),
        ("failed", Value::U64(tally.failed)),
        ("metrics", metric_values()),
    ]);
    println!("{}", serde_json::to_string(&result)?);
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Per-layer values across traced repetitions: the median of each
/// wall-clock metric; counts must repeat exactly.
fn merge(ledgers: &[Ledger], spec: &Spec, violations: &mut Vec<String>) -> Ledger {
    let mut merged = Ledger::new();
    for &name in ledgers[0].keys() {
        let values: Vec<f64> = ledgers.iter().map(|l| l[name]).collect();
        let exact = spec
            .per_layer
            .iter()
            .find(|m| m.name == name)
            .is_some_and(|m| m.deterministic);
        if exact && values.iter().any(|v| *v != values[0]) {
            violations.push(format!("{name} differs across repetitions: {values:?}"));
        }
        merged.insert(name, if exact { values[0] } else { median(&values) });
    }
    merged
}

/// The replays that time one layer on the exact inputs the last traced
/// repetition gave it, charged as shares of the traced run phase's
/// `run_s`. A replay that cannot reproduce the run is a correctness
/// violation.
fn replays(w: Workload, rep: &Rep, run_s: f64, ledger: &mut Ledger) -> Result<(), BoxError> {
    layers::admission_replay(&rep.setup.jobs, w.clusters(), run_s, ledger);
    // Co-simulated service times emerge from the shared SoC session;
    // the backend has no per-job price to replay.
    if w != Workload::CosimSoc {
        layers::service_replay(&rep.out.records, run_s, ledger)?;
    }
    if let Sut::Daemon { daemon, scripts } = &rep.setup.sut {
        let sessions = workload::responses(&rep.out.logs)?;
        layers::fleet_replay(scripts, &sessions, daemon.fleet(), run_s, ledger)?;
        layers::wire_replay(scripts, &sessions, &rep.out.logs, run_s, ledger)?;
        let inside: f64 = [
            "serve.fleet.submit_share",
            "serve.fleet.drain_share",
            "serve.stats.report_share",
            "serve.wire.encode_share",
            "serve.wire.decode_share",
        ]
        .iter()
        .map(|k| ledger[k])
        .sum();
        ledger.insert(
            "serve.daemon.self_share",
            ledger["serve.daemon.run_share"] - inside,
        );
    }
    Ok(())
}

/// Writes the last traced repetition's profile tree as a Chrome trace to
/// `perf/out/<workload>.trace.json`.
fn write_trace(w: Workload, report: &profile::ProfileReport) -> Result<(), BoxError> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}.trace.json", w.name()));
    std::fs::write(&path, profile_chrome_trace_json(report))?;
    eprintln!("perf: wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, MutexGuard};

    use super::*;

    /// The profiler is process-wide: every test that simulates holds this
    /// lock, so no other test's scopes land in a traced run's tree.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn smoke(workload: Workload, trace: bool) -> Opts {
        Opts {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
            smoke: true,
            json: None,
        }
    }

    fn names(list: &[Metric]) -> BTreeSet<&str> {
        list.iter().map(|m| m.name.as_str()).collect()
    }

    #[test]
    fn every_workload_is_correct_and_reports_exactly_the_named_metrics() {
        let _g = serial();
        let spec = spec::spec();
        let per_layer = names(&spec.per_layer);
        let mut layers_seen = BTreeSet::new();
        for w in Workload::ALL {
            let untraced = measure(&smoke(w, false), &spec).expect("untraced run");
            let traced = measure(&smoke(w, true), &spec).expect("traced run");
            for m in [&untraced, &traced] {
                assert!(
                    m.tally.violations.is_empty(),
                    "{}: {:?}",
                    w.name(),
                    m.tally.violations
                );
            }
            let keys: BTreeSet<&str> = untraced.metrics.keys().copied().collect();
            assert_eq!(keys, names(&spec.end_to_end));
            assert!(
                untraced.metrics.values().all(|&v| v > 0.0),
                "{}: end-to-end metrics are never 0: {:?}",
                w.name(),
                untraced.metrics
            );
            let sim = |m: &Measured| m.tally.reference.as_ref().map(|r| r.sim);
            assert_eq!(
                sim(&untraced),
                sim(&traced),
                "tracing must not move the simulation"
            );
            let keys: BTreeSet<&str> = traced.metrics.keys().copied().collect();
            let unknown: Vec<_> = keys.difference(&per_layer).collect();
            assert!(unknown.is_empty(), "not in BENCHMARK.json: {unknown:?}");
            layers_seen.extend(keys);
        }
        assert_eq!(layers_seen, per_layer, "every per-layer metric is measured");
    }
}
