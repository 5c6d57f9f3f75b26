//! Model-guided admission control: Eq. 3 applied per arriving job.
//!
//! For each arrival the controller predicts the offload runtime
//! `t̂(M, N)` from the job's fitted kernel model and solves the paper's
//! Eq. 3 for the minimum partition `M_min` that meets the deadline. Jobs
//! the accelerator cannot serve in time fall back to the host when the
//! host cost line still fits the deadline (the paper's §I offload-or-not
//! decision), and are rejected otherwise.

use mpsoc_offload::decision::{decide, should_offload, Decision};
use serde::{Deserialize, Serialize};

use crate::calibrate::ModelTable;
use crate::job::Job;

/// Why a job was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RejectReason {
    /// No cluster count meets the deadline (Eq. 3 has no solution) and
    /// the host is too slow as well.
    Infeasible,
    /// Eq. 3 has a solution but it exceeds the machine, and the host is
    /// too slow as well. Carries the required cluster count.
    NotEnoughClusters {
        /// The `M_min` the deadline would need.
        required: u64,
    },
    /// The job's generated program failed static verification
    /// ([`mpsoc_lint`]): it would fault or corrupt TCDM if dispatched.
    ProgramLint {
        /// Number of lint errors in the failing report.
        errors: u32,
    },
    /// The full machine could serve the job, but cluster quarantine has
    /// shrunk the pool below the Eq. 3 minimum partition (and the host
    /// is too slow as well).
    DegradedMachine {
        /// The `M_min` the deadline would need.
        required: u64,
        /// Healthy (non-quarantined) clusters remaining.
        healthy: u64,
    },
    /// The deadline is below the *static best-case* runtime bound
    /// ([`mpsoc_lint::bound_offload`]) at every cluster count and
    /// strategy, and below the host path's static best case: no
    /// schedule can meet it regardless of what the learned Eq. 1 model
    /// predicts. Checked before Eq. 3 when a cost gate is enabled.
    StaticInfeasible {
        /// The smallest statically-possible runtime on this machine.
        best: u64,
    },
    /// The job is feasible but the shard's admitted-but-unstarted queue
    /// is at its configured cap — serving-side backpressure, distinct
    /// from the model-side reasons above (a balancer may retry it on
    /// another shard).
    QueueFull {
        /// Jobs already waiting when the cap fired.
        depth: u64,
    },
}

impl RejectReason {
    /// Stable snake_case key for per-reason counters and metric names.
    /// Payload fields (required clusters, queue depth, …) are dropped:
    /// counters aggregate by *kind*, not by instance.
    pub fn counter_key(&self) -> &'static str {
        match self {
            RejectReason::Infeasible => "infeasible",
            RejectReason::NotEnoughClusters { .. } => "not_enough_clusters",
            RejectReason::ProgramLint { .. } => "program_lint",
            RejectReason::DegradedMachine { .. } => "degraded_machine",
            RejectReason::StaticInfeasible { .. } => "static_infeasible",
            RejectReason::QueueFull { .. } => "queue_full",
        }
    }
}

/// The controller's verdict on one arriving job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionDecision {
    /// Offload with at least `m_min` clusters (Eq. 3).
    Offload {
        /// Minimum partition meeting the deadline, assuming an
        /// immediate start.
        m_min: u64,
        /// Predicted runtime at `m_min` (cycles).
        predicted: f64,
    },
    /// Run on the host core: either the accelerator cannot meet the
    /// deadline but the host can, or the job is below break-even and
    /// the host is simply faster.
    Host {
        /// Predicted host runtime (cycles).
        predicted: f64,
    },
    /// Turn the job away.
    Reject {
        /// Why.
        reason: RejectReason,
    },
}

/// Admission control over a machine of a fixed cluster count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionController {
    table: ModelTable,
    clusters: u64,
}

impl AdmissionController {
    /// A controller for a machine with `clusters` clusters.
    pub fn new(table: ModelTable, clusters: u64) -> Self {
        assert!(clusters > 0, "machine needs at least one cluster");
        AdmissionController { table, clusters }
    }

    /// The per-kernel model table in use.
    pub fn table(&self) -> &ModelTable {
        &self.table
    }

    /// The machine size admission reasons against.
    pub fn clusters(&self) -> u64 {
        self.clusters
    }

    /// Decides one job's fate, assuming it could start immediately
    /// (queueing delay is the scheduler's problem; admission bounds
    /// feasibility, not timeliness).
    pub fn admit(&self, job: &Job) -> AdmissionDecision {
        self.admit_with_clusters(job, self.clusters)
    }

    /// Admission against the `healthy` surviving pool of a (possibly
    /// quarantine-degraded) machine. When the *full* machine could have
    /// served the job but the surviving pool cannot, the rejection is
    /// reported as [`RejectReason::DegradedMachine`] so capacity lost to
    /// faults stays distinguishable from a job that was simply too big.
    /// With `healthy == clusters()` this is exactly
    /// [`AdmissionController::admit`].
    pub fn admit_degraded(&self, job: &Job, healthy: u64) -> AdmissionDecision {
        match self.admit_with_clusters(job, healthy) {
            AdmissionDecision::Reject {
                reason: RejectReason::NotEnoughClusters { required },
            } if healthy < self.clusters && required <= self.clusters => {
                AdmissionDecision::Reject {
                    reason: RejectReason::DegradedMachine { required, healthy },
                }
            }
            decision => decision,
        }
    }

    /// [`AdmissionController::admit`] against an explicit machine size —
    /// the engine passes the *healthy* cluster count here, so quarantine
    /// shrinks what admission reasons about without rebuilding the
    /// controller.
    fn admit_with_clusters(&self, job: &Job, clusters: u64) -> AdmissionDecision {
        let model = self.table.get(job.kernel);
        let budget = job.deadline as f64;
        let host_predicted = model.host.predict(job.n);
        let host_meets_deadline = host_predicted <= budget;
        match decide(&model.accel, job.n, budget, clusters) {
            Decision::Offload { m } => {
                // Below break-even the host is faster even than the
                // deadline-minimal partition: keep the job local and
                // leave the clusters to bigger tenants.
                if !should_offload(&model.host, &model.accel, job.n, m) && host_meets_deadline {
                    AdmissionDecision::Host {
                        predicted: host_predicted,
                    }
                } else {
                    AdmissionDecision::Offload {
                        m_min: m,
                        predicted: model.accel.predict(m, job.n),
                    }
                }
            }
            Decision::NotEnoughClusters { required } => {
                if host_meets_deadline {
                    AdmissionDecision::Host {
                        predicted: host_predicted,
                    }
                } else {
                    AdmissionDecision::Reject {
                        reason: RejectReason::NotEnoughClusters { required },
                    }
                }
            }
            Decision::Infeasible => {
                if host_meets_deadline {
                    AdmissionDecision::Host {
                        predicted: host_predicted,
                    }
                } else {
                    AdmissionDecision::Reject {
                        reason: RejectReason::Infeasible,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::KernelId;

    fn controller() -> AdmissionController {
        AdmissionController::new(ModelTable::paper_defaults(), 32)
    }

    fn job(n: u64, deadline: u64) -> Job {
        Job {
            id: 0,
            kernel: KernelId::Daxpy,
            n,
            arrival: 0,
            deadline,
        }
    }

    #[test]
    fn generous_deadlines_offload_with_small_partitions() {
        // Paper model at N=1024: t̂(1, 1024) = 956 — one cluster is
        // already enough for a 1000-cycle deadline.
        match controller().admit(&job(1024, 1000)) {
            AdmissionDecision::Offload { m_min, predicted } => {
                assert_eq!(m_min, 1);
                assert!(predicted <= 1000.0);
            }
            other => panic!("expected offload, got {other:?}"),
        }
    }

    #[test]
    fn tight_deadlines_need_more_clusters() {
        let loose = match controller().admit(&job(1024, 1000)) {
            AdmissionDecision::Offload { m_min, .. } => m_min,
            other => panic!("{other:?}"),
        };
        let tight = match controller().admit(&job(1024, 650)) {
            AdmissionDecision::Offload { m_min, .. } => m_min,
            other => panic!("{other:?}"),
        };
        assert!(tight > loose);
    }

    #[test]
    fn tiny_jobs_stay_on_the_host() {
        // N=64 is far below break-even: the 367-cycle offload constant
        // dominates, so even though offloading is feasible, the host
        // wins.
        match controller().admit(&job(64, 100_000)) {
            AdmissionDecision::Host { predicted } => assert!(predicted < 100_000.0),
            other => panic!("expected host, got {other:?}"),
        }
    }

    #[test]
    fn impossible_deadlines_reject() {
        // Even M→∞ cannot beat c0 + c_mem·N = 367 + 256 cycles.
        match controller().admit(&job(1024, 300)) {
            AdmissionDecision::Reject { reason } => {
                assert_eq!(reason, RejectReason::Infeasible);
            }
            other => panic!("expected reject, got {other:?}"),
        }
    }

    #[test]
    fn degraded_admission_types_quarantine_losses() {
        let c = controller();
        let j = job(1024, 700); // needs >2 clusters, host too slow
        match c.admit_degraded(&j, 2) {
            AdmissionDecision::Reject {
                reason: RejectReason::DegradedMachine { required, healthy },
            } => {
                assert!(required > 2);
                assert_eq!(healthy, 2);
            }
            other => panic!("expected degraded rejection, got {other:?}"),
        }
        // At full health the two entry points agree exactly.
        assert_eq!(c.admit_degraded(&j, 32), c.admit(&j));
    }

    #[test]
    fn small_machines_reject_what_big_machines_accept() {
        let small = AdmissionController::new(ModelTable::paper_defaults(), 2);
        let j = job(1024, 700);
        assert!(matches!(
            controller().admit(&j),
            AdmissionDecision::Offload { .. }
        ));
        assert!(matches!(
            small.admit(&j),
            AdmissionDecision::Reject {
                reason: RejectReason::NotEnoughClusters { .. }
            }
        ));
    }
}
