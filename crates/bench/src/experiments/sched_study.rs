//! The **multi-tenant scheduling study**: offered load × policy ×
//! machine size, on service times measured against the simulated SoC.
//!
//! For each machine size, kernel models are calibrated from measured
//! offloads, one Poisson job stream per load point is generated, and
//! every policy replays the *same* stream — twice: once against the
//! `measured` backend (solo service times replayed from a cache, the
//! study's original contention-blind premise) and once against the
//! `cosim` backend (every tenant co-simulated on one shared SoC, so
//! service times stretch under host-queueing and NoC/HBM interference
//! and each job's `contention_cycles` attribution is real). The table
//! reports deadline-miss rate, utilization, p95 latency, rejection
//! rate and mean per-job contention; the model-guided packer should
//! beat FIFO first-fit on miss rate at equal utilization under the
//! measured backend, and the cosim rows show how much interference the
//! solo-run premise hides.
//!
//! ```text
//! cargo run --release -p mpsoc-bench --bin all_experiments -- \
//!     --only sched_study [--smoke] [--out <dir> | --replay <dir>]
//! ```
//!
//! `--smoke` shrinks the sweep (one machine, two loads, fewer jobs) for
//! CI determinism gating; the statistical thesis assertions only run on
//! the full sweep, where the sample sizes make them meaningful. The
//! command line and the report's life cycle are
//! [`crate::study`]'s.

use std::error::Error;

use crate::render_table;
use crate::study::{Output, Run};
use mpsoc_offload::Offloader;
use mpsoc_sched::{
    all_policies, calibrate, ArrivalPattern, CalibrationGrid, Engine, ServiceBackend, Workload,
};
use mpsoc_soc::SocConfig;
use serde::Serialize;

/// One `(machine, load, policy)` cell of the study.
#[derive(Debug, Serialize)]
struct SchedStudyRow {
    clusters: usize,
    offered_load: f64,
    backend: String,
    policy: String,
    jobs: usize,
    offloaded: usize,
    host_runs: usize,
    rejected: usize,
    deadline_misses: usize,
    miss_rate: f64,
    cluster_utilization: f64,
    p95_latency: u64,
    throughput_per_mcycle: f64,
    /// Mean `JobRecord::contention_cycles` over offloaded jobs —
    /// structurally zero under the measured backend, emergent under
    /// cosim.
    mean_contention_cycles: f64,
}

const SEED: u64 = 0x5EED_DA7E;

pub(super) fn run(run: &Run) -> Result<Output, Box<dyn Error>> {
    let smoke = run.smoke;
    let (jobs_per_cell, loads, machines): (usize, &[f64], &[usize]) = if smoke {
        (40, &[0.5, 2.5], &[8])
    } else {
        (150, &[0.5, 1.0, 1.5, 2.5], &[8, 32])
    };
    let mut rows: Vec<SchedStudyRow> = Vec::new();

    for &clusters in machines {
        println!("calibrating {clusters}-cluster machine...");
        let mut offloader = Offloader::new(SocConfig::with_clusters(clusters))?;
        let table = calibrate(&mut offloader, &CalibrationGrid::default(), SEED)?;

        for &load in loads {
            let mut workload = Workload::balanced(
                jobs_per_cell,
                SEED ^ (load * 1000.0) as u64 ^ clusters as u64,
                ArrivalPattern::Poisson {
                    mean_interarrival: 1.0,
                },
            );
            let gap = workload.interarrival_for_load(&table, clusters, load);
            workload.arrivals = ArrivalPattern::Poisson {
                mean_interarrival: gap,
            };
            let jobs = workload.generate(&table);

            for backend_name in ["measured", "cosim"] {
                for mut policy in all_policies() {
                    // Fresh SoC per run so service times cannot leak
                    // state across policies; under `measured` the memo
                    // cache makes repeated measurements cheap, under
                    // `cosim` every job is simulated in company anyway.
                    let offloader = Offloader::new(SocConfig::with_clusters(clusters))?;
                    let backend = match backend_name {
                        "measured" => ServiceBackend::measured(offloader, SEED),
                        _ => ServiceBackend::co_simulated(offloader, SEED),
                    };
                    let mut engine = Engine::new(table.clone(), clusters, backend);
                    let report = engine.run(&jobs, policy.as_mut())?;
                    let m = report.metrics;
                    let contention: u64 = report.records.iter().map(|r| r.contention_cycles).sum();
                    rows.push(SchedStudyRow {
                        clusters,
                        offered_load: load,
                        backend: backend_name.to_owned(),
                        policy: report.policy,
                        jobs: m.jobs,
                        offloaded: m.offloaded,
                        host_runs: m.host_runs,
                        rejected: m.rejected,
                        deadline_misses: m.deadline_misses,
                        miss_rate: m.miss_rate,
                        cluster_utilization: m.cluster_utilization,
                        p95_latency: m.p95_latency,
                        throughput_per_mcycle: m.throughput_per_mcycle,
                        mean_contention_cycles: contention as f64 / m.offloaded.max(1) as f64,
                    });
                }
            }
        }
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.clusters.to_string(),
                format!("{:.1}", r.offered_load),
                r.backend.clone(),
                r.policy.clone(),
                r.offloaded.to_string(),
                r.host_runs.to_string(),
                r.rejected.to_string(),
                r.deadline_misses.to_string(),
                format!("{:.1}%", r.miss_rate * 100.0),
                format!("{:.1}%", r.cluster_utilization * 100.0),
                r.p95_latency.to_string(),
                format!("{:.2}", r.throughput_per_mcycle),
                format!("{:.1}", r.mean_contention_cycles),
            ]
        })
        .collect();
    println!(
        "\n{}",
        render_table(
            &[
                "M",
                "load",
                "backend",
                "policy",
                "offl",
                "host",
                "rej",
                "miss",
                "miss%",
                "util%",
                "p95",
                "jobs/Mcyc",
                "cont/job",
            ],
            &table_rows,
        )
    );

    // The study's thesis: model-guided beats the FIFO baseline on miss
    // rate at equal machine utilization.
    let mut guided_wins = 0;
    for &clusters in machines {
        for &load in loads {
            let cell = |name: &str| {
                rows.iter()
                    .find(|r| {
                        r.clusters == clusters
                            && r.offered_load == load
                            && r.backend == "measured"
                            && r.policy == name
                    })
                    .expect("cell")
            };
            let fifo = cell("fifo");
            let guided = cell("model_guided");
            if guided.miss_rate < fifo.miss_rate {
                guided_wins += 1;
                println!(
                    "M={clusters} load={load}: model_guided miss {:.1}% < fifo {:.1}% \
                     (util {:.1}% vs {:.1}%)",
                    guided.miss_rate * 100.0,
                    fifo.miss_rate * 100.0,
                    guided.cluster_utilization * 100.0,
                    fifo.cluster_utilization * 100.0,
                );
            }
        }
    }
    // Statistical claims need the full sample: a 40-job smoke sweep can
    // legitimately tie, so the thesis gate is full-run only.
    if !smoke {
        assert!(
            guided_wins > 0,
            "model-guided must strictly beat FIFO at some load point"
        );
    }

    // The interference report the measured premise cannot make: the
    // measured backend is structurally contention-blind, while the
    // co-simulated rows attribute real shared-resource cycles.
    assert!(
        rows.iter()
            .filter(|r| r.backend == "measured")
            .all(|r| r.mean_contention_cycles == 0.0),
        "measured service times cannot observe contention"
    );
    let peak = rows
        .iter()
        .filter(|r| r.backend == "cosim")
        .max_by(|a, b| {
            a.mean_contention_cycles
                .total_cmp(&b.mean_contention_cycles)
        })
        .expect("cosim rows exist");
    println!(
        "peak interference: M={} load={} {} — {:.1} contention cycles/job \
         (invisible to the measured backend)",
        peak.clusters, peak.offered_load, peak.policy, peak.mean_contention_cycles
    );
    Ok(Output::json(&rows)?)
}
