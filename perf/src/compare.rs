//! Reading sets of run records: `perf compare` judges a change against
//! its parent by the `BENCHMARK.json` bounds, and `perf determinism`
//! checks that simulated results and layer counts repeat exactly.

use std::collections::BTreeMap;
use std::process::ExitCode;

use serde::Value;

use crate::spec::{spec, Metric};
use crate::stats::{median, quartiles};
use crate::workload::BoxError;

/// One run record, as `perf --json` appends it.
struct Record {
    workload: String,
    seed: u64,
    smoke: bool,
    trace: bool,
    correct: bool,
    sim: Value,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Record>, BoxError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut records = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{path}:{}: {what}", i + 1);
        let value: Value = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let obj = value.as_object().ok_or_else(|| bad("not an object"))?;
        let get = |key: &str| serde::get_field(obj, key);
        let flag = |key: &str| matches!(get(key), Value::Bool(true));
        let metrics = get("metrics")
            .as_object()
            .ok_or_else(|| bad("no metrics"))?
            .iter()
            .map(|(name, m)| {
                let v = m.as_object().map(|m| serde::get_field(m, "value"));
                Ok((
                    name.clone(),
                    v.and_then(Value::as_f64).ok_or_else(|| bad(name))?,
                ))
            })
            .collect::<Result<_, String>>()?;
        records.push(Record {
            workload: get("workload")
                .as_str()
                .ok_or_else(|| bad("no workload"))?
                .to_owned(),
            seed: get("seed").as_f64().ok_or_else(|| bad("no seed"))? as u64,
            smoke: flag("smoke"),
            trace: flag("trace"),
            correct: flag("correct"),
            sim: get("sim").clone(),
            metrics,
        });
    }
    Ok(records)
}

/// One (metric, workload) row of a comparison.
struct Row {
    parent: Side,
    change: Side,
    /// Seed-matched (parent, change) values.
    pairs: Vec<(f64, f64)>,
}

struct Side {
    median: f64,
    q1: f64,
    q3: f64,
    values: Vec<f64>,
}

impl Side {
    fn new(values: Vec<f64>) -> Self {
        let median = median(&values);
        let (q1, q3) = quartiles(&values).unwrap_or((median, median));
        Side {
            median,
            q1,
            q3,
            values,
        }
    }

    /// Quartile distance as a share of the median.
    fn spread(&self) -> f64 {
        share(self.q3 - self.q1, self.median)
    }
}

fn share(delta: f64, base: f64) -> f64 {
    if delta == 0.0 {
        0.0
    } else {
        delta / base.abs()
    }
}

impl Row {
    fn new(metric: &str, parent: &[&Record], change: &[&Record]) -> Option<Row> {
        let values = |runs: &[&Record]| -> Option<Vec<f64>> {
            runs.iter()
                .map(|r| r.metrics.get(metric).copied())
                .collect()
        };
        let by_seed = |runs: &[&Record]| {
            let mut m: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
            for r in runs {
                m.entry(r.seed).or_default().push(r.metrics[metric]);
            }
            m
        };
        let (a, b) = (values(parent)?, values(change)?);
        let seeds_b = by_seed(change);
        let pairs = by_seed(parent)
            .into_iter()
            .filter_map(|(seed, xs)| seeds_b.get(&seed).map(|ys| (xs, ys.clone())))
            .flat_map(|(xs, ys)| xs.into_iter().zip(ys))
            .collect();
        Some(Row {
            parent: Side::new(a),
            change: Side::new(b),
            pairs,
        })
    }

    /// The choosing-metrics verdict for a bounded end-to-end metric.
    fn verdict(&self, metric: &Metric, bound: f64) -> &'static str {
        let sign = sign(metric);
        let better = |from: f64, to: f64| sign * (to - from) > 0.0;
        let wins = self.wins(metric);
        let gain = !self.pairs.is_empty()
            && wins * 10 >= self.pairs.len() * 9
            && sign * (self.change.median - self.parent.median) > self.parent.q3 - self.parent.q1;
        let every_run_better = self
            .change
            .values
            .iter()
            .all(|&y| self.parent.values.iter().all(|&x| better(x, y)));
        let worse_by = -sign * share(self.change.median - self.parent.median, self.parent.median);
        if gain {
            "gain"
        } else if self.parent.spread() > bound && !every_run_better {
            "unresolved"
        } else if worse_by > bound {
            "regression"
        } else {
            "within bound"
        }
    }

    /// Seed-matched pairs the change wins; ties count for neither side.
    fn wins(&self, metric: &Metric) -> usize {
        let sign = sign(metric);
        self.pairs
            .iter()
            .filter(|&&(x, y)| sign * (y - x) > 0.0)
            .count()
    }
}

/// The runs of one workload, traced or untraced.
fn side<'a>(runs: &'a [Record], workload: &str, trace: bool) -> Vec<&'a Record> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .collect()
}

/// +1 when higher is better, -1 when lower is.
fn sign(metric: &Metric) -> f64 {
    if metric.higher_is_better {
        1.0
    } else {
        -1.0
    }
}

/// `perf compare PARENT.jsonl CHANGE.jsonl`: one row per (metric,
/// workload), never a combined score. Exits 1 when any end-to-end metric
/// regressed past its bound.
pub fn compare(args: &[String]) -> Result<ExitCode, BoxError> {
    let [parent, change] = args else {
        return Err("usage: perf compare PARENT.jsonl CHANGE.jsonl".into());
    };
    let (parent, change) = (load(parent)?, load(change)?);
    let spec = spec();
    let mut regressions = 0;
    println!(
        "{:<15} {:<30} {:>10}  {:>38}  {:>38}  {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "parent median [q1, q3] spread",
        "change median [q1, q3] spread",
        "delta",
        "wins"
    );
    for w in &spec.workloads {
        for (trace, metrics) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let (a, b) = (side(&parent, w, trace), side(&change, w, trace));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            for m in metrics.iter() {
                let Some(row) = Row::new(&m.name, &a, &b) else {
                    continue;
                };
                let verdict = match m.bound {
                    Some(bound) => row.verdict(m, bound),
                    None if !m.deterministic => "tracked",
                    None if row.pairs.iter().all(|(x, y)| x == y) => "same",
                    None => "changed",
                };
                regressions += usize::from(verdict == "regression");
                let fmt = |s: &Side| {
                    format!(
                        "{:.5e} [{:.4e}, {:.4e}] {:>5.1}%",
                        s.median,
                        s.q1,
                        s.q3,
                        100.0 * s.spread()
                    )
                };
                println!(
                    "{:<15} {:<30} {:>10}  {:>38}  {:>38}  {:>+7.2}% {:>6}  {verdict}",
                    w,
                    m.name,
                    m.unit,
                    fmt(&row.parent),
                    fmt(&row.change),
                    100.0 * share(row.change.median - row.parent.median, row.parent.median),
                    format!("{}/{}", row.wins(m), row.pairs.len()),
                );
            }
        }
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{regressions} regression(s) past the BENCHMARK.json bounds");
        ExitCode::FAILURE
    })
}

/// `perf determinism RUNS.jsonl...`: for every (workload, seed) the
/// simulated results, the deterministic end-to-end metrics and the
/// per-layer counts must be identical across all runs, traced or not,
/// and every run must be correct. Exits 1 otherwise.
pub fn determinism(args: &[String]) -> Result<ExitCode, BoxError> {
    if args.is_empty() {
        return Err("usage: perf determinism RUNS.jsonl...".into());
    }
    let mut runs = Vec::new();
    for path in args {
        runs.extend(load(path)?);
    }
    let spec = spec();
    let mut groups: BTreeMap<(&str, u64, bool), Vec<&Record>> = BTreeMap::new();
    for r in &runs {
        groups
            .entry((&r.workload, r.seed, r.smoke))
            .or_default()
            .push(r);
    }
    let mut failures = 0;
    for ((workload, seed, smoke), group) in groups {
        let mut problems = Vec::new();
        if group.iter().any(|r| !r.correct) {
            problems.push("a run failed its correctness checks".to_owned());
        }
        if group.iter().any(|r| r.sim != group[0].sim) {
            problems.push("simulated results differ".to_owned());
        }
        for trace in [false, true] {
            let same_kind: Vec<_> = group.iter().filter(|r| r.trace == trace).collect();
            let metrics = if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            for m in metrics.iter().filter(|m| m.deterministic) {
                let values: Vec<_> = same_kind.iter().map(|r| r.metrics.get(&m.name)).collect();
                if values.iter().any(|v| *v != values[0]) {
                    problems.push(format!("{} differs: {values:?}", m.name));
                }
            }
        }
        let traced = group.iter().filter(|r| r.trace).count();
        println!(
            "{workload} seed={seed}{}: {} runs ({traced} traced): {}",
            if smoke { " smoke" } else { "" },
            group.len(),
            if problems.is_empty() {
                "identical".to_owned()
            } else {
                problems.join("; ")
            }
        );
        failures += usize::from(!problems.is_empty());
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
