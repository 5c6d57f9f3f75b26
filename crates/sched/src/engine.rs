//! The deterministic discrete-event engine: virtual time, admission,
//! spatial allocation and policy-driven dispatch over one job stream.
//!
//! Virtual time advances from event to event (arrivals and partition
//! completions). How concurrent tenants are timed depends on the
//! service backend:
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

use std::collections::BTreeMap;

use mpsoc_noc::ClusterMask;
use mpsoc_sim::Cycle;
use mpsoc_telemetry::{EventKind, EventTrace, Unit};

use crate::admission::{AdmissionController, AdmissionDecision, RejectReason};
use crate::alloc::Allocator;
use crate::calibrate::ModelTable;
use crate::cost_gate::CostGate;
use crate::error::SchedError;
use crate::job::Job;
use crate::lint_gate::LintGate;
use crate::metrics::{JobOutcome, JobRecord, Metrics, RunReport};
use crate::policy::{Placement, QueuedJob, SchedContext, SchedPolicy};
use crate::quarantine::{QuarantineEvent, StrikeBoard, AUTO_QUARANTINE_STRIKES};
use crate::service::ServiceBackend;

/// The multi-tenant scheduler: admission + allocation + dispatch over a
/// service-time backend.
#[derive(Debug)]
pub struct Engine {
    admission: AdmissionController,
    backend: ServiceBackend,
    clusters: usize,
    quarantined: ClusterMask,
    telemetry: EventTrace,
    lint_gate: Option<LintGate>,
    cost_gate: Option<CostGate>,
    /// Corrupt completions flagged on one cluster before the engine
    /// quarantines it automatically (co-simulated runs only); `None`
    /// disables the closed loop.
    auto_quarantine: Option<u32>,
    /// Automatic quarantine decisions of the last [`Engine::run`].
    quarantine_log: Vec<QuarantineEvent>,
}

/// One dispatch step, shared by [`Engine`] and
/// [`ShardSim`](crate::ShardSim): asks `policy` for a placement against
/// the current machine state, checks it, removes the job from `ready`
/// and carves its partition. Returns the job's former queue index, the
/// job and its partition; `Ok(None)` means the policy passed.
///
/// # Errors
///
/// [`SchedError::InvalidPlacement`] when the policy names an index past
/// the queue, a zero-width partition or more clusters than are free.
pub(crate) fn place_next(
    policy: &mut dyn SchedPolicy,
    ready: &mut Vec<QueuedJob>,
    allocator: &mut Allocator,
    now: u64,
    total_clusters: usize,
    models: &ModelTable,
) -> Result<Option<(usize, QueuedJob, ClusterMask)>, SchedError> {
    let free = allocator.free_count();
    let ctx = SchedContext {
        now,
        free_clusters: free,
        total_clusters,
        models,
    };
    let Some(Placement { queue_index, m }) = policy.pick(ready, &ctx) else {
        return Ok(None);
    };
    let queue_len = ready.len();
    let invalid = || SchedError::InvalidPlacement {
        queue_index,
        queue_len,
        m,
        free,
    };
    if queue_index >= queue_len {
        return Err(invalid());
    }
    let mask = allocator.carve(m).ok_or_else(invalid)?;
    Ok(Some((queue_index, ready.remove(queue_index), mask)))
}

/// A job in flight on a carved partition.
#[derive(Debug, Clone, Copy)]
struct Running {
    record_index: usize,
    mask: ClusterMask,
    start: u64,
    job: Job,
    /// Corruption re-dispatches charged so far (co-simulated backend).
    retries: u32,
    /// Injected faults observed across every attempt.
    faults: u64,
    /// Contention cycles accumulated across every attempt.
    contention: u64,
}

impl Engine {
    /// An engine over a machine of `clusters` clusters, using `table`
    /// for admission and predictions and `backend` for service times.
    pub fn new(table: ModelTable, clusters: usize, backend: ServiceBackend) -> Self {
        Engine {
            admission: AdmissionController::new(table, clusters as u64),
            backend,
            clusters,
            quarantined: ClusterMask::EMPTY,
            telemetry: EventTrace::disabled(),
            lint_gate: None,
            cost_gate: None,
            auto_quarantine: Some(AUTO_QUARANTINE_STRIKES),
            quarantine_log: Vec::new(),
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
    pub fn quarantine(&mut self, mask: ClusterMask) {
        self.quarantined = self
            .quarantined
            .union(mask.intersection(ClusterMask::first(self.clusters)));
        self.backend.invalidate_measurements();
        if let Some(gate) = self.cost_gate.as_mut() {
            gate.restrict_clusters(self.clusters - self.quarantined.count());
        }
    }

    /// The clusters currently quarantined.
    pub fn quarantined(&self) -> ClusterMask {
        self.quarantined
    }

    /// Configures automatic quarantine for co-simulated runs: a cluster
    /// is retired after `threshold` corrupt completions flagged it
    /// (default [`AUTO_QUARANTINE_STRIKES`]); `None` disables the
    /// closed loop — corruption is then absorbed by re-dispatch alone.
    pub fn set_auto_quarantine(&mut self, threshold: Option<u32>) {
        self.auto_quarantine = threshold;
    }

    /// Automatic quarantine decisions made during the last
    /// [`Engine::run`], in firing order.
    pub fn quarantine_events(&self) -> &[QuarantineEvent] {
        &self.quarantine_log
    }

    /// Healthy (non-quarantined) clusters.
    fn healthy_clusters(&self) -> usize {
        self.clusters - self.quarantined.count()
    }

    /// Enables static program verification at admission: every arriving
    /// job's worst-case core program is linted (memoized per kernel and
    /// problem size) and jobs with lint *errors* are rejected with
    /// [`RejectReason::ProgramLint`] before admission control runs.
    pub fn enable_lint(&mut self, gate: LintGate) {
        self.lint_gate = Some(gate);
    }

    /// Enables static cost verification at admission: jobs whose
    /// deadline undercuts the *static best-case* runtime bound at every
    /// cluster count, strategy, and the host path are rejected with
    /// [`RejectReason::StaticInfeasible`] before Eq. 3 runs. Verdicts
    /// are memoized per kernel and problem size.
    pub fn enable_cost(&mut self, gate: CostGate) {
        self.cost_gate = Some(gate);
    }

    /// The admission controller in use.
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// Enables typed-event telemetry for subsequent [`Engine::run`]
    /// calls: job arrivals, queue waits, partition occupancy spans,
    /// host runs and rejections. Disabled, every recording site is a
    /// single branch and reports stay byte-identical.
    pub fn enable_telemetry(&mut self, capacity: usize) {
        self.telemetry = EventTrace::enabled(capacity);
    }

    /// The typed-event trace of the last [`Engine::run`] (empty unless
    /// [`Engine::enable_telemetry`] was called).
    pub fn telemetry(&self) -> &EventTrace {
        &self.telemetry
    }

    /// Simulates `jobs` (must be sorted by arrival time) under `policy`.
    ///
    /// # Errors
    ///
    /// Service-backend failures (offload geometry violations, host-run
    /// faults), and [`SchedError::InvalidPlacement`] when the policy
    /// returns a placement the machine cannot honour (out-of-range
    /// index, zero or unavailable partition size).
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is not sorted by arrival, or if the policy
    /// leaves a job it could schedule in the queue for good.
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
        self.telemetry.clear();
        if matches!(self.backend, ServiceBackend::CoSimulated { .. }) {
            return self.run_cosimulated(jobs, policy);
        }
        let healthy = self.healthy_clusters();
        let mut allocator = Allocator::with_quarantine(self.clusters, self.quarantined);
        let mut records: Vec<JobRecord> = Vec::with_capacity(jobs.len());
        let mut ready: Vec<QueuedJob> = Vec::new();
        // Each queued job's placeholder record, in lockstep with `ready`.
        let mut slots: Vec<usize> = Vec::new();
        // Completion events keyed by (finish, sequence): BTreeMap pops
        // in deterministic order even for simultaneous completions.
        let mut completions: BTreeMap<(u64, u64), Running> = BTreeMap::new();
        let mut seq = 0u64;
        let mut host_free_at = 0u64;
        let mut next_arrival = 0usize;

        loop {
            // Next event: the earlier of the next arrival and the next
            // completion; completions win ties so freed clusters are
            // visible to jobs arriving at the same cycle.
            let arrival_t = jobs.get(next_arrival).map(|j| j.arrival);
            let completion_t = completions.keys().next().map(|&(t, _)| t);
            let now = match (arrival_t, completion_t) {
                (Some(a), Some(c)) => a.min(c),
                (Some(a), None) => a,
                (None, Some(c)) => c,
                (None, None) => break,
            };

            // 1. Retire everything finishing at `now`.
            while let Some((&key @ (t, _), _)) = completions.iter().next() {
                if t > now {
                    break;
                }
                let done = completions.remove(&key).expect("key just observed");
                allocator.release(done.mask);
                records[done.record_index] = JobRecord {
                    job: done.job,
                    outcome: JobOutcome::Offloaded {
                        start: done.start,
                        finish: t,
                        m: done.mask.count(),
                    },
                    contention_cycles: 0,
                    retries: 0,
                    faults_observed: 0,
                };
            }

            // 2. Admit everything arriving at `now`.
            while let Some(job) = jobs.get(next_arrival).filter(|j| j.arrival == now) {
                next_arrival += 1;
                self.telemetry.instant(
                    Cycle::new(now),
                    Unit::SchedHost,
                    EventKind::JobArrive,
                    job.id,
                );
                if let Some(gate) = self.lint_gate.as_mut() {
                    if let Some(report) = gate.check(job) {
                        let errors = report.error_count() as u32;
                        self.telemetry.instant(
                            Cycle::new(now),
                            Unit::SchedHost,
                            EventKind::Reject,
                            job.id,
                        );
                        records.push(JobRecord {
                            job: *job,
                            outcome: JobOutcome::Rejected {
                                reason: RejectReason::ProgramLint { errors },
                            },
                            contention_cycles: 0,
                            retries: 0,
                            faults_observed: 0,
                        });
                        continue;
                    }
                }
                if let Some(gate) = self.cost_gate.as_mut() {
                    if let Some(best) = gate.check(job) {
                        self.telemetry.instant(
                            Cycle::new(now),
                            Unit::SchedHost,
                            EventKind::Reject,
                            job.id,
                        );
                        records.push(JobRecord {
                            job: *job,
                            outcome: JobOutcome::Rejected {
                                reason: RejectReason::StaticInfeasible { best },
                            },
                            contention_cycles: 0,
                            retries: 0,
                            faults_observed: 0,
                        });
                        continue;
                    }
                }
                match self.admission.admit_degraded(job, healthy as u64) {
                    AdmissionDecision::Offload { m_min, predicted } => {
                        // Placeholder until the offload completes; its
                        // slot remembers where to write the outcome.
                        slots.push(records.len());
                        records.push(JobRecord {
                            job: *job,
                            outcome: JobOutcome::Offloaded {
                                start: 0,
                                finish: 0,
                                m: 0,
                            },
                            contention_cycles: 0,
                            retries: 0,
                            faults_observed: 0,
                        });
                        ready.push(QueuedJob {
                            job: *job,
                            m_min,
                            predicted,
                        });
                    }
                    AdmissionDecision::Host { .. } => {
                        let start = now.max(host_free_at);
                        let cycles = self.backend.host_cycles(job.kernel, job.n)?;
                        let finish = start + cycles;
                        host_free_at = finish;
                        let span = self.telemetry.begin(
                            Cycle::new(start),
                            Unit::SchedHost,
                            EventKind::HostRun,
                        );
                        self.telemetry.end(
                            Cycle::new(finish),
                            Unit::SchedHost,
                            EventKind::HostRun,
                            span,
                        );
                        records.push(JobRecord {
                            job: *job,
                            outcome: JobOutcome::Host { start, finish },
                            contention_cycles: 0,
                            retries: 0,
                            faults_observed: 0,
                        });
                    }
                    AdmissionDecision::Reject { reason } => {
                        self.telemetry.instant(
                            Cycle::new(now),
                            Unit::SchedHost,
                            EventKind::Reject,
                            job.id,
                        );
                        records.push(JobRecord {
                            job: *job,
                            outcome: JobOutcome::Rejected { reason },
                            contention_cycles: 0,
                            retries: 0,
                            faults_observed: 0,
                        });
                    }
                }
            }

            // 3. Let the policy place queued jobs until it passes.
            while let Some((queue_index, queued, mask)) = place_next(
                policy,
                &mut ready,
                &mut allocator,
                now,
                healthy,
                self.admission.table(),
            )? {
                let record_index = slots.remove(queue_index);
                let cycles = self
                    .backend
                    .offload_cycles(queued.job.kernel, queued.job.n, mask)?;
                // One track per partition, keyed by its lowest cluster:
                // disjoint masks never overlap in time on one track.
                let part = Unit::Partition(mask.iter().next().unwrap_or(0) as u32);
                if queued.job.arrival < now {
                    self.telemetry.instant(
                        Cycle::new(now),
                        part,
                        EventKind::QueueWait,
                        now - queued.job.arrival,
                    );
                }
                let span = self
                    .telemetry
                    .begin(Cycle::new(now), part, EventKind::Offload);
                self.telemetry
                    .end(Cycle::new(now + cycles), part, EventKind::Offload, span);
                completions.insert(
                    (now + cycles, seq),
                    Running {
                        record_index,
                        mask,
                        start: now,
                        job: queued.job,
                        retries: 0,
                        faults: 0,
                        contention: 0,
                    },
                );
                seq += 1;
            }
        }

        assert!(ready.is_empty(), "policy left admitted jobs unscheduled");
        let metrics = Metrics::from_records(&records, self.clusters);
        Ok(RunReport {
            policy: policy.name().to_owned(),
            clusters: self.clusters,
            metrics,
            records,
        })
    }

    /// The [`ServiceBackend::CoSimulated`] run loop: one shared SoC
    /// session carries every placed job, and virtual time follows the
    /// SoC's own event queue instead of pre-charged busy intervals.
    ///
    /// The scheduling semantics mirror [`Engine::run`] exactly —
    /// completions retire before same-cycle arrivals are admitted (the
    /// session is advanced with the next arrival as its horizon, so any
    /// completion at or before that instant surfaces first), the policy
    /// re-picks after every event, and host-fallback jobs occupy the
    /// virtual serial host server. What changes is where offload
    /// finish times come from: each placement is *submitted* into the
    /// shared session and its completion — host queueing, NoC stalls,
    /// HBM queueing and AMO waits included — emerges from co-simulating
    /// all in-flight tenants together.
    fn run_cosimulated(
        &mut self,
        jobs: &[Job],
        policy: &mut dyn SchedPolicy,
    ) -> Result<RunReport, SchedError> {
        let mut healthy = self.healthy_clusters();
        let mut allocator = Allocator::with_quarantine(self.clusters, self.quarantined);
        // The closed loop from fault observation to scheduling decision:
        // corrupt completions accumulate strikes per flagged cluster and
        // crossing the hysteresis threshold quarantines the cluster
        // mid-stream — no external diagnosis call involved.
        let mut strikes = StrikeBoard::with_threshold(self.clusters, self.auto_quarantine);
        self.quarantine_log.clear();
        let clusters = self.clusters;
        let backend = &mut self.backend;
        backend.session().begin_jobs();

        let mut records: Vec<JobRecord> = Vec::with_capacity(jobs.len());
        let mut ready: Vec<QueuedJob> = Vec::new();
        let mut slots: Vec<usize> = Vec::new();
        // In-flight tenants keyed by their session job handle.
        let mut running: BTreeMap<mpsoc_offload::JobId, Running> = BTreeMap::new();
        let mut host_free_at = 0u64;
        let mut next_arrival = 0usize;

        loop {
            let arrival_t = jobs.get(next_arrival).map(|j| j.arrival);

            // 1. Drive the shared SoC to the next event. Advancing with
            //    the next arrival as horizon makes completions win ties:
            //    a tenant finishing at the arrival cycle retires (and
            //    frees its partition) before the arrival is admitted.
            let now = if !running.is_empty() {
                let horizon = arrival_t.map_or(Cycle::MAX, Cycle::new);
                match backend.session().advance_jobs(horizon)? {
                    mpsoc_offload::SessionStep::Completed(t) => {
                        let Some(mut done) = running.remove(&t.job) else {
                            return Err(SchedError::UnknownCompletion { job: t.job });
                        };
                        done.faults += t.faults_injected;
                        done.contention += t.contention.total_cycles();
                        let finish = t.finished_at.as_u64();
                        let part = Unit::Partition(done.mask.iter().next().unwrap_or(0) as u32);
                        if t.corrupt_clusters != 0 {
                            // Strike accounting happens on *every*
                            // corrupt completion — including the final
                            // attempt of an exhausted retry budget — so
                            // a flaky cluster is diagnosed even when
                            // re-dispatch keeps absorbing its output.
                            let fire = strikes.record(t.corrupt_clusters, self.quarantined);
                            if !fire.is_empty() {
                                for cluster in fire.iter() {
                                    self.telemetry.instant(
                                        t.finished_at,
                                        Unit::SchedHost,
                                        EventKind::Quarantine,
                                        cluster as u64,
                                    );
                                    self.quarantine_log.push(QuarantineEvent {
                                        at: finish,
                                        cluster,
                                        strikes: strikes.strikes(cluster),
                                    });
                                }
                                self.quarantined = self.quarantined.union(fire);
                                allocator.quarantine(fire);
                                healthy = clusters - self.quarantined.count();
                                if let Some(gate) = self.cost_gate.as_mut() {
                                    gate.restrict_clusters(healthy);
                                }
                            }
                        }
                        if t.corrupt_clusters != 0
                            && done.retries < crate::shard::COSIM_MAX_REDISPATCH
                        {
                            // The DMA CRC flagged corrupted data: the
                            // result cannot be returned, so re-dispatch
                            // on the same partition with fresh fault
                            // dice and charge the retry to the record.
                            done.retries += 1;
                            self.telemetry.instant(
                                t.finished_at,
                                part,
                                EventKind::Redispatch,
                                done.job.id,
                            );
                            let handle = backend.submit_at(
                                done.job.kernel,
                                done.job.n,
                                done.mask,
                                t.finished_at,
                            )?;
                            running.insert(handle, done);
                            finish
                        } else {
                            allocator.release(done.mask);
                            let span = self.telemetry.begin(
                                Cycle::new(done.start),
                                part,
                                EventKind::Offload,
                            );
                            self.telemetry
                                .end(t.finished_at, part, EventKind::Offload, span);
                            records[done.record_index] = JobRecord {
                                job: done.job,
                                outcome: JobOutcome::Offloaded {
                                    start: done.start,
                                    finish,
                                    m: done.mask.count(),
                                },
                                contention_cycles: done.contention,
                                retries: done.retries,
                                faults_observed: done.faults,
                            };
                            finish
                        }
                    }
                    mpsoc_offload::SessionStep::Horizon | mpsoc_offload::SessionStep::Idle => {
                        // With no arrival left to advance virtual time,
                        // a paused session means an in-flight tenant
                        // will never complete (reachable under injected
                        // faults: a wedged barrier or a dead cluster).
                        let Some(t) = arrival_t else {
                            return Err(SchedError::SessionStalled {
                                in_flight: running.len(),
                            });
                        };
                        t
                    }
                }
            } else {
                match arrival_t {
                    Some(a) => a,
                    None => break,
                }
            };

            // 2. Admit everything arriving at `now` (identical to the
            //    legacy path; host fallback runs on the virtual serial
            //    host server, memoized like the measured backend).
            while let Some(job) = jobs.get(next_arrival).filter(|j| j.arrival == now) {
                next_arrival += 1;
                self.telemetry.instant(
                    Cycle::new(now),
                    Unit::SchedHost,
                    EventKind::JobArrive,
                    job.id,
                );
                if let Some(gate) = self.lint_gate.as_mut() {
                    if let Some(report) = gate.check(job) {
                        let errors = report.error_count() as u32;
                        self.telemetry.instant(
                            Cycle::new(now),
                            Unit::SchedHost,
                            EventKind::Reject,
                            job.id,
                        );
                        records.push(JobRecord {
                            job: *job,
                            outcome: JobOutcome::Rejected {
                                reason: RejectReason::ProgramLint { errors },
                            },
                            contention_cycles: 0,
                            retries: 0,
                            faults_observed: 0,
                        });
                        continue;
                    }
                }
                if let Some(gate) = self.cost_gate.as_mut() {
                    if let Some(best) = gate.check(job) {
                        self.telemetry.instant(
                            Cycle::new(now),
                            Unit::SchedHost,
                            EventKind::Reject,
                            job.id,
                        );
                        records.push(JobRecord {
                            job: *job,
                            outcome: JobOutcome::Rejected {
                                reason: RejectReason::StaticInfeasible { best },
                            },
                            contention_cycles: 0,
                            retries: 0,
                            faults_observed: 0,
                        });
                        continue;
                    }
                }
                match self.admission.admit_degraded(job, healthy as u64) {
                    AdmissionDecision::Offload { m_min, predicted } => {
                        slots.push(records.len());
                        records.push(JobRecord {
                            job: *job,
                            outcome: JobOutcome::Offloaded {
                                start: 0,
                                finish: 0,
                                m: 0,
                            },
                            contention_cycles: 0,
                            retries: 0,
                            faults_observed: 0,
                        });
                        ready.push(QueuedJob {
                            job: *job,
                            m_min,
                            predicted,
                        });
                    }
                    AdmissionDecision::Host { .. } => {
                        let start = now.max(host_free_at);
                        let cycles = backend.host_cycles(job.kernel, job.n)?;
                        let finish = start + cycles;
                        host_free_at = finish;
                        let span = self.telemetry.begin(
                            Cycle::new(start),
                            Unit::SchedHost,
                            EventKind::HostRun,
                        );
                        self.telemetry.end(
                            Cycle::new(finish),
                            Unit::SchedHost,
                            EventKind::HostRun,
                            span,
                        );
                        records.push(JobRecord {
                            job: *job,
                            outcome: JobOutcome::Host { start, finish },
                            contention_cycles: 0,
                            retries: 0,
                            faults_observed: 0,
                        });
                    }
                    AdmissionDecision::Reject { reason } => {
                        self.telemetry.instant(
                            Cycle::new(now),
                            Unit::SchedHost,
                            EventKind::Reject,
                            job.id,
                        );
                        records.push(JobRecord {
                            job: *job,
                            outcome: JobOutcome::Rejected { reason },
                            contention_cycles: 0,
                            retries: 0,
                            faults_observed: 0,
                        });
                    }
                }
            }

            // 3. Let the policy place queued jobs until it passes; each
            //    placement is submitted into the shared session.
            while let Some((queue_index, queued, mask)) = place_next(
                policy,
                &mut ready,
                &mut allocator,
                now,
                healthy,
                self.admission.table(),
            )? {
                let record_index = slots.remove(queue_index);
                let part = Unit::Partition(mask.iter().next().unwrap_or(0) as u32);
                if queued.job.arrival < now {
                    self.telemetry.instant(
                        Cycle::new(now),
                        part,
                        EventKind::QueueWait,
                        now - queued.job.arrival,
                    );
                }
                let handle =
                    backend.submit_at(queued.job.kernel, queued.job.n, mask, Cycle::new(now))?;
                running.insert(
                    handle,
                    Running {
                        record_index,
                        mask,
                        start: now,
                        job: queued.job,
                        retries: 0,
                        faults: 0,
                        contention: 0,
                    },
                );
            }
        }

        // Mid-stream quarantine can strand admitted jobs whose Eq. 3
        // minimum partition no longer fits the surviving pool: resolve
        // them as typed degraded rejections — their admission verdict
        // predates the capacity loss. Anything else left queued really
        // is a policy bug.
        for (queued, record_index) in ready.drain(..).zip(slots.drain(..)) {
            assert!(
                queued.m_min > healthy as u64,
                "policy left a schedulable job unscheduled"
            );
            records[record_index] = JobRecord {
                job: queued.job,
                outcome: JobOutcome::Rejected {
                    reason: RejectReason::DegradedMachine {
                        required: queued.m_min,
                        healthy: healthy as u64,
                    },
                },
                contention_cycles: 0,
                retries: 0,
                faults_observed: 0,
            };
        }
        let metrics = Metrics::from_records(&records, self.clusters);
        Ok(RunReport {
            policy: policy.name().to_owned(),
            clusters: self.clusters,
            metrics,
            records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::KernelId;
    use crate::policy::FifoFirstFit;

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
        assert_eq!(cache_len(&e.backend), 0, "quarantine must drop the cache");
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

    /// A policy that places the queue's first job with a fixed shape
    /// computed from the queue and machine state.
    struct Rogue(fn(&[QueuedJob], &SchedContext<'_>) -> Placement);

    impl SchedPolicy for Rogue {
        fn name(&self) -> &'static str {
            "rogue"
        }

        fn pick(&mut self, ready: &[QueuedJob], ctx: &SchedContext<'_>) -> Option<Placement> {
            (!ready.is_empty()).then(|| (self.0)(ready, ctx))
        }
    }

    #[test]
    fn invalid_placements_are_typed_errors() {
        let rogues: [(Rogue, usize, usize); 3] = [
            // Past the end of the queue.
            (
                Rogue(|ready, _| Placement {
                    queue_index: ready.len(),
                    m: 1,
                }),
                1,
                1,
            ),
            // A zero-width partition.
            (
                Rogue(|_, _| Placement {
                    queue_index: 0,
                    m: 0,
                }),
                0,
                0,
            ),
            // More clusters than are free.
            (
                Rogue(|_, ctx| Placement {
                    queue_index: 0,
                    m: ctx.free_clusters + 1,
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
    }
}
