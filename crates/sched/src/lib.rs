//! # mpsoc-sched
//!
//! Deterministic multi-tenant offload scheduling on top of the
//! `mpsoc-offload` runtime: the paper's analytic model (Eq. 1) and
//! minimum-cluster solution (Eq. 3) put to work as an *online resource
//! manager* rather than a one-shot calculator.
//!
//! The pipeline:
//!
//! 1. **Workloads** ([`Workload`]) — seeded synthetic job streams
//!    (open-loop Poisson, closed-loop fixed-population, bursty) over the
//!    vector kernel zoo, each job carrying a problem size and a relative
//!    deadline.
//! 2. **Calibration** ([`calibrate`]) — per-kernel `t̂(M, N)` and host
//!    cost models fitted from measured offloads on the simulated SoC.
//! 3. **Admission** ([`AdmissionController`]) — Eq. 3 per arrival:
//!    offload with `M_min` clusters, fall back to the host below
//!    break-even or when the accelerator cannot meet the deadline, or
//!    reject.
//! 4. **Allocation** ([`Allocator`]) — disjoint [`ClusterMask`]
//!    partitions carved from the free set, so co-resident tenants never
//!    share a cluster.
//! 5. **Policies** ([`SchedPolicy`]) — FIFO first-fit, smallest-first,
//!    EDF, and the model-guided packer that re-solves Eq. 3 against
//!    remaining slack and backfills.
//! 6. **Engine & metrics** ([`Engine`], [`RunReport`]) — a discrete-event
//!    virtual-time simulation producing serializable per-job records and
//!    aggregate throughput/latency/miss-rate/utilization metrics. It
//!    drives the crate's one scheduling loop over a closed stream; a
//!    [`ShardSim`] drives the same loop incrementally for serving.
//!
//! Everything is deterministic under a fixed seed: two identical runs
//! serialize to byte-identical reports.
//!
//! ## Example
//!
//! ```
//! use mpsoc_sched::{
//!     ArrivalPattern, Engine, FifoFirstFit, ModelGuided, ModelTable, ServiceBackend, Workload,
//! };
//!
//! let table = ModelTable::paper_defaults();
//! let workload = Workload::balanced(
//!     40,
//!     0xD5,
//!     ArrivalPattern::Poisson { mean_interarrival: 400.0 },
//! );
//! let jobs = workload.generate(&table);
//! let mut engine = Engine::new(table.clone(), 32, ServiceBackend::analytic(table));
//! let fifo = engine.run(&jobs, &mut FifoFirstFit).unwrap();
//! let guided = engine.run(&jobs, &mut ModelGuided).unwrap();
//! assert!(guided.metrics.miss_rate <= fifo.metrics.miss_rate);
//! ```
//!
//! [`ClusterMask`]: mpsoc_noc::ClusterMask

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod alloc;
mod calibrate;
mod cost_gate;
mod engine;
mod error;
mod job;
mod lint_gate;
mod metrics;
mod policy;
mod quarantine;
mod service;
mod shard;
mod workload;

pub use admission::{AdmissionController, AdmissionDecision, RejectReason};
pub use alloc::Allocator;
pub use calibrate::{calibrate, CalibrationGrid, KernelModel, ModelTable};
pub use cost_gate::CostGate;
pub use engine::Engine;
pub use error::SchedError;
pub use job::{Job, KernelId};
pub use lint_gate::LintGate;
pub use metrics::{JobOutcome, JobRecord, Metrics, RunReport};
pub use policy::{
    all_policies, EarliestDeadlineFirst, FifoFirstFit, ModelGuided, Placement, QueuedJob,
    SchedContext, SchedPolicy, SmallestFirst,
};
pub use quarantine::{QuarantineEvent, StrikeBoard, AUTO_QUARANTINE_STRIKES};
pub use service::ServiceBackend;
pub use shard::{CostCheck, ShardDecision, ShardSim, COSIM_MAX_REDISPATCH};
pub use workload::{ArrivalPattern, Workload};
