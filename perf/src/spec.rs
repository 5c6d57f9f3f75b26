//! The metric table. `BENCHMARK.json` at the repository root is the one
//! place that names every metric with its unit, direction and bound; the
//! binary embeds it at build time.

use serde::Value;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Fixed by the workload and seed (a count or a simulated quantity),
    /// so it must repeat exactly; wall-clock values vary from run to run.
    pub deterministic: bool,
}

/// The parsed table.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// Parses the embedded `BENCHMARK.json`.
///
/// # Panics
///
/// On a malformed file: it is part of the build, so that is a bug.
pub fn spec() -> Spec {
    let root: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let root = root.as_object().expect("BENCHMARK.json is an object");
    let field = |obj: &[(String, Value)], key: &str| serde::get_field(obj, key).clone();
    let list = |key: &str| {
        field(root, key)
            .as_array()
            .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is a list"))
            .iter()
            .map(|v| v.as_object().expect("list entries are objects").to_vec())
            .collect::<Vec<_>>()
    };
    let text = |obj: &[(String, Value)], key: &str| {
        field(obj, key)
            .as_str()
            .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` is a string"))
            .to_owned()
    };
    // Timed end-to-end metrics are told apart by unit; per-layer
    // ones are seconds, or time shares named `*_share`.
    let metrics = |key: &str, wall_clock: fn(&str, &str) -> bool| {
        list(key)
            .iter()
            .map(|m| {
                let (name, unit) = (text(m, "name"), text(m, "unit"));
                Metric {
                    deterministic: !wall_clock(&name, &unit),
                    higher_is_better: text(m, "better") == "higher",
                    bound: field(m, "bound").as_f64(),
                    name,
                    unit,
                }
            })
            .collect()
    };
    Spec {
        workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
        end_to_end: metrics("end_to_end", |_, unit| {
            matches!(unit, "s" | "cycles/s" | "jobs/s" | "MiB")
        }),
        per_layer: metrics("per_layer", |name, unit| {
            unit == "s" || name.ends_with("_share")
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn the_table_names_every_workload_and_bounds_every_end_to_end_metric() {
        let spec = spec();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s");
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.and_then(|m| m.bound), Some(largest));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
