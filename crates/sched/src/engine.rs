//! The closed-loop scheduler: one pre-sorted job stream through
//! admission, spatial allocation and policy-driven dispatch, reported
//! as a [`RunReport`].
//!
//! [`Engine::run`] drives the crate's one scheduling loop (the private
//! `SchedLoop` of [`ShardSim`](crate::ShardSim)) over the whole stream:
//! for each group of jobs arriving in the same cycle it retires the
//! completions before that cycle, re-picking after each, retires those
//! at it, admits the whole group and re-picks once; then it drains.
//! Each job's record is written into the job's input slot as it
//! resolves. How concurrent tenants are timed depends on the service
//! backend:
//!
//! - Under [`ServiceBackend::Measured`] and [`ServiceBackend::Analytic`]
//!   each offload contributes a standalone (measured-solo or predicted)
//!   cycle count as its partition's busy interval; cross-tenant NoC/HBM
//!   interference is *not* modeled — the paper's first-order premise
//!   that TCDMs and the mask-addressed offload path make partitions
//!   independent.
//! - Under [`ServiceBackend::CoSimulated`] the engine drives one shared
//!   SoC session: every placed job is submitted into the same
//!   event-driven machine, tenants on disjoint partitions overlap on
//!   the real NoC switch tree, HBM bandwidth/AMO unit and the serial
//!   host core, and each job's completion time — including its
//!   contention-stretched phases, attributed in
//!   [`JobRecord::contention_cycles`] — emerges from the co-simulation.
//!
//! Determinism: events are ordered by `(time, sequence)`, all queues are
//! insertion-ordered, and every service backend is deterministic — so a
//! fixed `(workload, policy, machine)` triple always yields a
//! byte-identical [`RunReport`].
//!
//! Host-executed jobs occupy a single serial host server (FIFO): the
//! host core runs one kernel at a time, concurrently with the clusters.
//!
//! [`JobRecord::contention_cycles`]: crate::JobRecord::contention_cycles

use mpsoc_noc::ClusterMask;
use mpsoc_telemetry::EventTrace;

use crate::admission::AdmissionController;
use crate::calibrate::ModelTable;
use crate::cost_gate::CostGate;
use crate::error::SchedError;
use crate::job::Job;
use crate::lint_gate::LintGate;
use crate::metrics::{Metrics, RunReport};
use crate::policy::SchedPolicy;
use crate::quarantine::QuarantineEvent;
use crate::service::ServiceBackend;
use crate::shard::SchedLoop;

/// The multi-tenant scheduler: admission + allocation + dispatch over a
/// service-time backend.
#[derive(Debug)]
pub struct Engine {
    sched: SchedLoop,
}

impl Engine {
    /// An engine over a machine of `clusters` clusters, using `table`
    /// for admission and predictions and `backend` for service times.
    pub fn new(table: ModelTable, clusters: usize, backend: ServiceBackend) -> Self {
        Engine {
            sched: SchedLoop::new(table, clusters, backend),
        }
    }

    /// Retires `mask` from the allocatable pool — typically clusters a
    /// resilient execution layer has diagnosed as faulty. Quarantine is
    /// cumulative and applies to every subsequent [`Engine::run`]: the
    /// allocator never grants a quarantined cluster, and jobs whose
    /// Eq. 3 minimum partition exceeds the surviving pool are rejected
    /// with [`RejectReason::DegradedMachine`].
    ///
    /// Quarantining also drops the measured backend's memoized solo-run
    /// offload timings ([`ServiceBackend::invalidate_measurements`]):
    /// they may have been taken on partitions containing the cluster
    /// now known to be faulty.
    /// Quarantining also drops the static cost gate's memoized bounds
    /// and re-bounds it to the surviving pool: min-best totals were
    /// computed over partitions the machine can no longer grant.
    ///
    /// [`RejectReason::DegradedMachine`]: crate::RejectReason::DegradedMachine
    pub fn quarantine(&mut self, mask: ClusterMask) {
        let sched = &mut self.sched;
        sched.quarantined = sched
            .quarantined
            .union(mask.intersection(ClusterMask::first(sched.clusters)));
        sched.backend.invalidate_measurements();
        let healthy = sched.healthy_clusters();
        if let Some(gate) = sched.cost_gate.as_mut() {
            gate.restrict_clusters(healthy);
        }
    }

    /// The clusters currently quarantined.
    pub fn quarantined(&self) -> ClusterMask {
        self.sched.quarantined
    }

    /// Configures automatic quarantine for co-simulated runs: a cluster
    /// is retired after `threshold` corrupt completions flagged it
    /// (default [`AUTO_QUARANTINE_STRIKES`]); `None` disables the
    /// closed loop — corruption is then absorbed by re-dispatch alone.
    ///
    /// [`AUTO_QUARANTINE_STRIKES`]: crate::AUTO_QUARANTINE_STRIKES
    pub fn set_auto_quarantine(&mut self, threshold: Option<u32>) {
        self.sched.strikes.set_threshold(threshold);
    }

    /// Automatic quarantine decisions made during the last
    /// [`Engine::run`], in firing order.
    pub fn quarantine_events(&self) -> &[QuarantineEvent] {
        &self.sched.quarantine_events
    }

    /// Enables static program verification at admission: every arriving
    /// job's worst-case core program is linted (memoized per kernel and
    /// problem size) and jobs with lint *errors* are rejected with
    /// [`RejectReason::ProgramLint`] before admission control runs.
    ///
    /// [`RejectReason::ProgramLint`]: crate::RejectReason::ProgramLint
    pub fn enable_lint(&mut self, gate: LintGate) {
        self.sched.lint_gate = Some(gate);
    }

    /// Enables static cost verification at admission: jobs whose
    /// deadline undercuts the *static best-case* runtime bound at every
    /// cluster count, strategy, and the host path are rejected with
    /// [`RejectReason::StaticInfeasible`] before Eq. 3 runs. Verdicts
    /// are memoized per kernel and problem size.
    ///
    /// [`RejectReason::StaticInfeasible`]: crate::RejectReason::StaticInfeasible
    pub fn enable_cost(&mut self, gate: CostGate) {
        self.sched.cost_gate = Some(gate);
    }

    /// The admission controller in use.
    pub fn admission(&self) -> &AdmissionController {
        &self.sched.admission
    }

    /// Enables typed-event telemetry for subsequent [`Engine::run`]
    /// calls: job arrivals, queue waits, partition occupancy spans,
    /// host runs, rejections, re-dispatches and quarantines. Disabled,
    /// every recording site is a single branch and reports stay
    /// byte-identical.
    pub fn enable_telemetry(&mut self, capacity: usize) {
        self.sched.trace = EventTrace::enabled(capacity);
    }

    /// The typed-event trace of the last [`Engine::run`] (empty unless
    /// [`Engine::enable_telemetry`] was called).
    pub fn telemetry(&self) -> &EventTrace {
        &self.sched.trace
    }

    /// Simulates `jobs` (must be sorted by arrival time) under `policy`.
    /// The report's records are in input order, each holding its job as
    /// given, so jobs may share an id.
    ///
    /// # Errors
    ///
    /// Service-backend failures (offload geometry violations, host-run
    /// faults), [`SchedError::InvalidPlacement`] when the policy
    /// returns a placement the machine cannot honour (out-of-range
    /// index, zero or unavailable partition size),
    /// [`SchedError::Unscheduled`] when the policy leaves jobs that fit
    /// the machine queued with nothing left in flight, and
    /// [`SchedError::SessionStalled`] when a co-simulated tenant never
    /// completes.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is not sorted by arrival.
    pub fn run(
        &mut self,
        jobs: &[Job],
        policy: &mut dyn SchedPolicy,
    ) -> Result<RunReport, SchedError> {
        assert!(
            jobs.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "job stream must be sorted by arrival time"
        );
        let _prof = mpsoc_sim::profile::scope("sched.engine.run");
        let records = self.sched.run(jobs, policy)?;
        let clusters = self.sched.clusters;
        Ok(RunReport {
            policy: policy.name().to_owned(),
            clusters,
            metrics: Metrics::from_records(&records, clusters),
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::KernelId;
    use crate::metrics::JobOutcome;
    use crate::policy::{FifoFirstFit, Placement, QueuedJob, SchedContext};

    fn jobs(specs: &[(u64, u64, u64)]) -> Vec<Job> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(arrival, n, deadline))| Job {
                id: i as u64,
                kernel: KernelId::Daxpy,
                n,
                arrival,
                deadline,
            })
            .collect()
    }

    fn engine(clusters: usize) -> Engine {
        Engine::new(
            ModelTable::paper_defaults(),
            clusters,
            ServiceBackend::analytic(ModelTable::paper_defaults()),
        )
    }

    #[test]
    fn one_job_runs_to_completion() {
        let stream = jobs(&[(0, 1024, 1000)]);
        let report = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.offloaded, 1);
        assert_eq!(report.metrics.deadline_misses, 0);
        match report.records[0].outcome {
            JobOutcome::Offloaded { start, finish, m } => {
                assert_eq!(start, 0);
                assert!(finish > 0);
                assert_eq!(m, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn concurrent_tenants_share_the_machine_spatially() {
        // Two jobs arriving together, each needing 1 cluster on an
        // 8-cluster machine: both run immediately, overlapping in time.
        let stream = jobs(&[(0, 1024, 1000), (0, 1024, 1000)]);
        let report = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        let (s0, f0, s1, f1) = match (report.records[0].outcome, report.records[1].outcome) {
            (
                JobOutcome::Offloaded {
                    start: s0,
                    finish: f0,
                    ..
                },
                JobOutcome::Offloaded {
                    start: s1,
                    finish: f1,
                    ..
                },
            ) => (s0, f0, s1, f1),
            other => panic!("{other:?}"),
        };
        assert_eq!((s0, s1), (0, 0), "both must start at once");
        assert!(f0 > 0 && f1 > 0);
        assert_eq!(report.metrics.deadline_misses, 0);
    }

    #[test]
    fn saturation_queues_and_misses() {
        // Eight 1-cluster jobs on a 2-cluster machine with deadlines
        // sized for an immediate start: the queue forces misses.
        let stream = jobs(&[(0, 1024, 1000); 8]);
        let report = engine(2).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.offloaded, 8);
        assert!(report.metrics.deadline_misses > 0, "{:?}", report.metrics);
    }

    #[test]
    fn host_jobs_serialize_on_the_host_core() {
        // Tiny jobs below break-even with roomy deadlines: both go to
        // the host, which runs them back to back.
        let stream = jobs(&[(0, 64, 100_000), (0, 64, 100_000)]);
        let report = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.host_runs, 2);
        let (f0, s1) = match (report.records[0].outcome, report.records[1].outcome) {
            (JobOutcome::Host { finish, .. }, JobOutcome::Host { start, .. }) => (finish, start),
            other => panic!("{other:?}"),
        };
        assert_eq!(s1, f0, "host is a serial server");
    }

    #[test]
    fn lint_gate_rejects_programs_that_fail_verification() {
        // A 64-word TCDM cannot hold a 1024-element daxpy: the gate's
        // static bounds check proves out-of-TCDM accesses and rejects
        // the job, while a clean small job still schedules normally.
        let stream = jobs(&[(0, 1024, 1000)]);
        let tiny = mpsoc_lint::LintContext {
            tcdm_words: 64,
            ..mpsoc_lint::LintContext::manticore()
        };

        let mut gated = engine(8);
        gated.enable_lint(crate::LintGate::new(tiny, 8));
        let report = gated.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.rejected, 1);
        match report.records[0].outcome {
            JobOutcome::Rejected {
                reason: crate::RejectReason::ProgramLint { errors },
            } => assert!(errors > 0),
            other => panic!("expected lint rejection, got {other:?}"),
        }

        // Same machine, real geometry: the gate waves the job through
        // and the report matches an ungated run exactly.
        let mut real = engine(8);
        real.enable_lint(crate::LintGate::manticore());
        let gated_report = real.run(&stream, &mut FifoFirstFit).expect("run");
        let plain_report = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(gated_report, plain_report);
    }

    #[test]
    fn rejections_are_recorded() {
        let stream = jobs(&[(0, 1024, 300)]); // under c0 + c_mem·N: infeasible
        let report = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.rejected, 1);
        assert!(matches!(
            report.records[0].outcome,
            JobOutcome::Rejected { .. }
        ));
    }

    #[test]
    fn telemetry_traces_queueing_and_rejections() {
        // Mixed stream on a tight machine: offloads that queue, a host
        // run and an infeasible job.
        let stream = jobs(&[
            (0, 1024, 1000),
            (0, 1024, 1000),
            (0, 1024, 1000),
            (10, 64, 100_000),
            (20, 1024, 30), // infeasible: rejected
        ]);
        let mut e = engine(2);
        e.enable_telemetry(4096);
        e.run(&stream, &mut FifoFirstFit).expect("run");
        let kinds: Vec<&str> = e
            .telemetry()
            .events()
            .iter()
            .map(|ev| ev.kind.name())
            .collect();
        assert!(kinds.contains(&"job_arrive"));
        assert!(kinds.contains(&"offload"));
        assert!(kinds.contains(&"queue_wait"));
        assert!(kinds.contains(&"host_run"));
        assert!(kinds.contains(&"reject"));

        // The trace exports to schema-valid Chrome trace JSON.
        let json = mpsoc_telemetry::chrome_trace_json(e.telemetry());
        let summary = mpsoc_telemetry::validate_chrome_trace(&json).expect("valid");
        assert!(summary.spans >= 4, "3 offload spans + 1 host run");
    }

    #[test]
    fn telemetry_does_not_change_reports() {
        let stream = jobs(&[(0, 1024, 1000), (0, 2048, 2000), (100, 256, 100_000)]);
        let plain = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        let mut traced_engine = engine(8);
        traced_engine.enable_telemetry(4096);
        let traced = traced_engine.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(plain, traced);
    }

    fn cosim_engine(clusters: usize) -> Engine {
        let offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(clusters))
                .expect("soc");
        Engine::new(
            ModelTable::paper_defaults(),
            clusters,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        )
    }

    #[test]
    fn cosimulated_backend_schedules_like_the_others() {
        let stream = jobs(&[(0, 1024, 1200), (0, 1024, 1200), (500, 2048, 3000)]);
        let report = cosim_engine(8)
            .run(&stream, &mut FifoFirstFit)
            .expect("run");
        assert_eq!(report.metrics.offloaded, 3);
        for r in &report.records {
            match r.outcome {
                JobOutcome::Offloaded { start, finish, m } => {
                    assert!(finish > start, "{r:?}");
                    assert!(m >= 1);
                }
                other => panic!("{other:?}"),
            }
        }
        // The two co-resident tenants each paid for the shared host
        // core: their measured finishes cannot both equal a solo run.
        let (f0, f1) = match (report.records[0].outcome, report.records[1].outcome) {
            (
                JobOutcome::Offloaded { finish: f0, .. },
                JobOutcome::Offloaded { finish: f1, .. },
            ) => (f0, f1),
            other => panic!("{other:?}"),
        };
        assert_ne!(f0, f1, "serialized marshalling must stagger finishes");
    }

    #[test]
    fn cosimulated_runs_are_deterministic() {
        let stream = jobs(&[
            (0, 1024, 2000),
            (0, 2048, 4000),
            (100, 256, 100_000),
            (500, 4096, 9000),
        ]);
        let a = cosim_engine(8)
            .run(&stream, &mut FifoFirstFit)
            .expect("run");
        let b = cosim_engine(8)
            .run(&stream, &mut FifoFirstFit)
            .expect("run");
        assert_eq!(a, b);
    }

    #[test]
    fn cosimulated_contention_is_attributed_under_scarce_bandwidth() {
        // Starve HBM so concurrent DMA + host operand-preparation
        // traffic queues: the per-job contention attribution must be
        // nonzero for at least one of the co-resident tenants, and it
        // is zero under the solo-run measured backend by construction.
        let mut config = mpsoc_soc::SocConfig::with_clusters(8);
        config.mem_words_per_cycle = 8;
        config.host_prep_words_per_cycle = 4;
        let offloader = mpsoc_offload::Offloader::new(config).expect("soc");
        let mut engine = Engine::new(
            ModelTable::paper_defaults(),
            8,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        );
        let stream = jobs(&[(0, 2048, 100_000), (0, 2048, 100_000)]);
        let report = engine.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.offloaded, 2);
        let total: u64 = report.records.iter().map(|r| r.contention_cycles).sum();
        assert!(total > 0, "co-residents must observe shared-HBM queueing");
    }

    #[test]
    fn measured_backend_reports_zero_contention() {
        let stream = jobs(&[(0, 2048, 100_000), (0, 2048, 100_000)]);
        let offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(8)).expect("soc");
        let mut e = Engine::new(
            ModelTable::paper_defaults(),
            8,
            ServiceBackend::measured(offloader, 0xBEEF),
        );
        let report = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert!(report.records.iter().all(|r| r.contention_cycles == 0));
    }

    #[test]
    fn quarantined_clusters_leave_the_allocator_pool() {
        // Two 1-cluster jobs arriving together overlap on a healthy
        // machine; with all but one cluster quarantined they serialize.
        let stream = jobs(&[(0, 1024, 100_000), (0, 1024, 100_000)]);
        let mut degraded = engine(8);
        degraded.quarantine(ClusterMask::range(1, 7));
        assert_eq!(degraded.quarantined().count(), 7);
        let report = degraded.run(&stream, &mut FifoFirstFit).expect("run");
        let (f0, s1) = match (report.records[0].outcome, report.records[1].outcome) {
            (JobOutcome::Offloaded { finish: f0, .. }, JobOutcome::Offloaded { start: s1, .. }) => {
                (f0, s1)
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(s1, f0, "one healthy cluster is a serial server");
    }

    #[test]
    fn degraded_machine_rejections_are_typed() {
        // Feasible on the full 8-cluster machine, infeasible on the 2
        // healthy survivors — and distinguishable from a plain
        // NotEnoughClusters rejection.
        let stream = jobs(&[(0, 1024, 700)]);
        let full = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(full.metrics.offloaded, 1);

        let mut degraded = engine(8);
        degraded.quarantine(ClusterMask::range(2, 6));
        let report = degraded.run(&stream, &mut FifoFirstFit).expect("run");
        match report.records[0].outcome {
            JobOutcome::Rejected {
                reason: crate::RejectReason::DegradedMachine { required, healthy },
            } => {
                assert!(required > 2, "required {required}");
                assert_eq!(healthy, 2);
            }
            other => panic!("expected a degraded-machine rejection, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_tolerates_a_fully_dead_machine() {
        // Everything quarantined: offloadable jobs are rejected (or go
        // to the host) instead of panicking in the allocator.
        let stream = jobs(&[(0, 1024, 1000), (0, 64, 100_000)]);
        let mut e = engine(8);
        e.quarantine(ClusterMask::first(8));
        let report = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.offloaded, 0);
        assert_eq!(report.metrics.rejected, 1);
        assert_eq!(report.metrics.host_runs, 1);
    }

    #[test]
    fn quarantine_invalidates_measured_solo_timings() {
        let offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(8)).expect("soc");
        let mut backend = ServiceBackend::measured(offloader, 0xBEEF);
        backend
            .offload_cycles(KernelId::Daxpy, 512, ClusterMask::first(2))
            .expect("offload");
        let cache_len = |b: &ServiceBackend| match b {
            ServiceBackend::Measured { offload_cache, .. } => offload_cache.len(),
            _ => unreachable!(),
        };
        assert_eq!(cache_len(&backend), 1);
        let mut e = Engine::new(ModelTable::paper_defaults(), 8, backend);
        e.quarantine(ClusterMask::single(7));
        assert_eq!(
            cache_len(&e.sched.backend),
            0,
            "quarantine must drop the cache"
        );
    }

    #[test]
    fn cosimulated_records_carry_observed_faults() {
        // A single transient DMA stall: the job still completes (late),
        // and its record reports the injected fault.
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(8)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(21);
        plan.dma_stall = mpsoc_soc::SiteSpec::once_at(0);
        plan.dma_stall_cycles = 300;
        offloader.install_faults(plan);
        let mut e = Engine::new(
            ModelTable::paper_defaults(),
            8,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        );
        let stream = jobs(&[(0, 1024, 100_000)]);
        let report = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.offloaded, 1);
        assert_eq!(report.records[0].faults_observed, 1);
        assert_eq!(report.records[0].retries, 0);
    }

    #[test]
    fn cosimulated_corruption_redispatches_and_counts_retries() {
        // A single transient DMA corruption: the CRC flags the result,
        // the engine re-dispatches on the same partition, and the
        // record carries the retry (closing the `retries: 0` gap).
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(8)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(31);
        plan.dma_corrupt = mpsoc_soc::SiteSpec::once_at(0);
        offloader.install_faults(plan);
        let mut e = Engine::new(
            ModelTable::paper_defaults(),
            8,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        );
        let stream = jobs(&[(0, 1024, 100_000)]);
        let report = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(report.metrics.offloaded, 1);
        assert_eq!(report.records[0].retries, 1);
        assert!(report.records[0].faults_observed >= 1);
        match report.records[0].outcome {
            JobOutcome::Offloaded { start, finish, .. } => {
                assert_eq!(start, 0);
                assert!(finish > 0, "the retried attempt still completes");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn persistent_corruption_auto_quarantines_without_an_explicit_call() {
        // Every DMA burst corrupts: each tenant's cluster accumulates a
        // strike per corrupt completion and crosses the 3-strike
        // threshold mid-stream. `Engine::quarantine` is never called;
        // the closed loop does it all.
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(2)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(7);
        plan.dma_corrupt = mpsoc_soc::SiteSpec::rate(1.0);
        offloader.install_faults(plan);
        let mut e = Engine::new(
            ModelTable::paper_defaults(),
            2,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        );
        e.enable_telemetry(4096);
        let stream = jobs(&[(0, 1024, 100_000), (0, 1024, 100_000), (0, 1024, 100_000)]);
        let report = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(e.quarantined().count(), 2, "both clusters condemned");
        let events = e.quarantine_events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().all(|ev| ev.strikes >= 3 && ev.at > 0));
        assert!(e
            .telemetry()
            .events()
            .iter()
            .any(|ev| ev.kind.name() == "quarantine"));
        // The two in-flight tenants complete (budget-exhausted results
        // accepted); the queued third is stranded on a dead machine and
        // resolves as a typed degraded rejection.
        assert_eq!(report.metrics.offloaded, 2);
        match report.records[2].outcome {
            JobOutcome::Rejected {
                reason: crate::RejectReason::DegradedMachine { healthy, .. },
            } => assert_eq!(healthy, 0),
            other => panic!("expected a degraded rejection, got {other:?}"),
        }
    }

    #[test]
    fn auto_quarantine_can_be_disabled() {
        let mk = || {
            let mut offloader =
                mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(2)).expect("soc");
            let mut plan = mpsoc_soc::FaultPlan::with_seed(7);
            plan.dma_corrupt = mpsoc_soc::SiteSpec::rate(1.0);
            offloader.install_faults(plan);
            Engine::new(
                ModelTable::paper_defaults(),
                2,
                ServiceBackend::co_simulated(offloader, 0xBEEF),
            )
        };
        let stream = jobs(&[(0, 1024, 100_000), (0, 1024, 100_000), (0, 1024, 100_000)]);
        let mut e = mk();
        e.set_auto_quarantine(None);
        let report = e.run(&stream, &mut FifoFirstFit).expect("run");
        assert!(e.quarantined().is_empty());
        assert!(e.quarantine_events().is_empty());
        assert_eq!(report.metrics.offloaded, 3, "every job still completes");
    }

    #[test]
    fn wedged_cosimulated_session_is_a_typed_error() {
        // A lost completion credit wedges the tenant's barrier: with no
        // arrival left to advance time, the engine must surface a typed
        // SessionStalled error instead of panicking.
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(8)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(23);
        plan.credit_loss = mpsoc_soc::SiteSpec::once_at(0);
        offloader.install_faults(plan);
        let mut e = Engine::new(
            ModelTable::paper_defaults(),
            8,
            ServiceBackend::co_simulated(offloader, 0xBEEF),
        );
        let stream = jobs(&[(0, 1024, 100_000)]);
        let err = e.run(&stream, &mut FifoFirstFit).unwrap_err();
        match err {
            SchedError::SessionStalled { in_flight } => assert_eq!(in_flight, 1),
            other => panic!("expected SessionStalled, got {other}"),
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let stream = jobs(&[
            (0, 1024, 700),
            (100, 2048, 2000),
            (100, 256, 100_000),
            (500, 4096, 3000),
        ]);
        let a = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        let b = engine(8).run(&stream, &mut FifoFirstFit).expect("run");
        assert_eq!(a, b);
    }

    /// Job ids are the caller's labels, not keys: two queued jobs that
    /// share one must each land in their own record.
    #[test]
    fn jobs_sharing_an_id_keep_their_own_outcomes() {
        let mut stream = jobs(&[(0, 1024, 100_000), (0, 4096, 100_000)]);
        stream[1].id = stream[0].id;
        for mut e in [engine(8), cosim_engine(8)] {
            let report = e.run(&stream, &mut FifoFirstFit).expect("run");
            for (record, job) in report.records.iter().zip(&stream) {
                assert_eq!(record.job, *job);
                match record.outcome {
                    JobOutcome::Offloaded { start, finish, m } => {
                        assert_eq!(start, 0);
                        assert!(finish > start && m >= 1, "{record:?}");
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    /// A policy that answers every pick with a fixed rule computed from
    /// the queue and machine state.
    struct Rogue(fn(&[QueuedJob], &SchedContext<'_>) -> Option<Placement>);

    impl SchedPolicy for Rogue {
        fn name(&self) -> &'static str {
            "rogue"
        }

        fn pick(&mut self, ready: &[QueuedJob], ctx: &SchedContext<'_>) -> Option<Placement> {
            if ready.is_empty() {
                return None;
            }
            (self.0)(ready, ctx)
        }
    }

    #[test]
    fn invalid_placements_are_typed_errors() {
        let rogues: [(Rogue, usize, usize); 3] = [
            // Past the end of the queue.
            (
                Rogue(|ready, _| {
                    Some(Placement {
                        queue_index: ready.len(),
                        m: 1,
                    })
                }),
                1,
                1,
            ),
            // A zero-width partition.
            (
                Rogue(|_, _| {
                    Some(Placement {
                        queue_index: 0,
                        m: 0,
                    })
                }),
                0,
                0,
            ),
            // More clusters than are free.
            (
                Rogue(|_, ctx| {
                    Some(Placement {
                        queue_index: 0,
                        m: ctx.free_clusters + 1,
                    })
                }),
                0,
                9,
            ),
        ];
        let stream = jobs(&[(0, 1024, 100_000)]);
        let expected = |index, m| {
            move |err: SchedError| match err {
                SchedError::InvalidPlacement {
                    queue_index,
                    queue_len,
                    m: got,
                    free,
                } => assert_eq!((queue_index, queue_len, got, free), (index, 1, m, 8)),
                other => panic!("expected InvalidPlacement, got {other}"),
            }
        };
        for (mut rogue, index, m) in rogues {
            let check = expected(index, m);
            check(engine(8).run(&stream, &mut rogue).unwrap_err());
            check(cosim_engine(8).run(&stream, &mut rogue).unwrap_err());
            let mut shard = crate::ShardSim::new(
                ModelTable::paper_defaults(),
                8,
                ServiceBackend::analytic(ModelTable::paper_defaults()),
                Box::new(rogue),
            );
            check(shard.offer(stream[0]).unwrap_err());
        }

        // A policy that never places anything leaves a job that fits the
        // idle machine queued: a typed error naming the policy, not a
        // panic or a stalled co-simulated session.
        let unscheduled = |err: SchedError| match err {
            SchedError::Unscheduled { queued } => assert_eq!(queued, 1),
            other => panic!("expected Unscheduled, got {other}"),
        };
        let never = || Rogue(|_, _| None);
        unscheduled(engine(8).run(&stream, &mut never()).unwrap_err());
        unscheduled(cosim_engine(8).run(&stream, &mut never()).unwrap_err());
        let mut shard = crate::ShardSim::new(
            ModelTable::paper_defaults(),
            8,
            ServiceBackend::analytic(ModelTable::paper_defaults()),
            Box::new(never()),
        );
        shard.offer(stream[0]).expect("the job queues");
        unscheduled(shard.drain().unwrap_err());
    }
}
