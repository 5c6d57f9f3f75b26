//! The scheduling loop, and [`ShardSim`]: one shard of a serving fleet.
//!
//! `mpsoc-sched` has one admission → allocation → dispatch loop. It
//! lives here, in a private struct whose steps take the policy from
//! their caller, and two drivers share it:
//!
//! - [`ShardSim`] drives it incrementally, for a serving front-end where
//!   jobs arrive over a wire and completions must be reported as they
//!   happen. [`ShardSim::advance`] drives virtual time to a horizon;
//!   [`ShardSim::offer`] presents one arriving job and returns its fate
//!   at once (queued, host, or rejected, including the serving-specific
//!   [`RejectReason::QueueFull`] backpressure);
//!   [`ShardSim::steal`]/[`ShardSim::inject`] move
//!   *queued-but-unstarted* jobs between shards, the work-stealing
//!   primitive of a fleet load balancer; [`ShardSim::drain_finished`]
//!   yields completed [`JobRecord`]s in completion order.
//! - [`Engine::run`](crate::Engine::run) drives it over a complete,
//!   pre-sorted job stream and writes each job's record into the job's
//!   input slot as it finishes.
//!
//! Events are ordered in virtual time. Host runs, and offloads priced by
//! the analytic or measured backend, complete at cycles known when they
//! start and are keyed `(finish, sequence)`. Under
//! [`ServiceBackend::CoSimulated`] offloads complete in one shared SoC
//! session, which is advanced no further than the next of those keyed
//! completions, so both kinds retire in global time order. The policy
//! re-picks after each retired instant, and after each co-simulated
//! completion. Host-fallback jobs serialize on the virtual host server.
//!
//! **The tie rule.** Completions at cycle `t` retire before the jobs
//! arriving at `t` are admitted. The engine then admits every job that
//! arrives at `t` and re-picks once. A shard re-picks after every
//! [`ShardSim::offer`], because a serving shard answers each offer
//! before it sees the next one. Under
//! [`FifoFirstFit`](crate::FifoFirstFit), which every fleet shard runs,
//! both rules place the same jobs (the `shard_matches_engine_*` tests);
//! a policy that reorders the queue, such as the model-guided packer,
//! can place differently, which is why the engine keeps its batch step.
//!
//! Under [`ServiceBackend::CoSimulated`] the loop re-dispatches a tenant
//! whose completion carries the observable corruption signal
//! (`corrupt_clusters`), bounded by [`COSIM_MAX_REDISPATCH`]; the
//! re-dispatch count lands in [`JobRecord::retries`]. Corrupt
//! completions also accumulate per-cluster strikes
//! ([`crate::StrikeBoard`]): a cluster flagged
//! [`crate::AUTO_QUARANTINE_STRIKES`] times is quarantined mid-stream —
//! allocator pool shrink, degraded admission, measured-cache and
//! cost-gate invalidation — and reported as a typed
//! [`QuarantineEvent`].

use std::collections::BTreeMap;

use mpsoc_noc::ClusterMask;
use mpsoc_offload::{JobId, SessionStep, TenantRun};
use mpsoc_sim::Cycle;
use mpsoc_telemetry::{EventKind, EventTrace, Unit};

use crate::admission::{AdmissionController, AdmissionDecision, RejectReason};
use crate::alloc::Allocator;
use crate::calibrate::ModelTable;
use crate::cost_gate::CostGate;
use crate::error::SchedError;
use crate::job::Job;
use crate::lint_gate::LintGate;
use crate::metrics::{JobOutcome, JobRecord};
use crate::policy::{Placement, QueuedJob, SchedContext, SchedPolicy};
use crate::quarantine::{QuarantineEvent, StrikeBoard};
use crate::queue::ReadyQueue;
use crate::service::ServiceBackend;

/// Bounded re-dispatch budget for co-simulated tenants that complete
/// with the DMA corruption flag set: the scheduler re-submits on the
/// same partition with fresh fault dice up to this many times, then
/// accepts the result as-is (matching the resilient runtime's bounded
/// retry discipline).
pub const COSIM_MAX_REDISPATCH: u32 = 3;

/// What [`ShardSim::offer`] decided about one arriving job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardDecision {
    /// Admitted for offload; waiting for (or already granted) clusters.
    Queued {
        /// Eq. 3 minimum partition.
        m_min: u64,
        /// Predicted runtime at `m_min` (cycles).
        predicted: f64,
    },
    /// Sent to the shard's serial host server; completes at `finish`.
    Host {
        /// Cycle the host will begin the job.
        start: u64,
        /// Cycle the host will finish it.
        finish: u64,
    },
    /// Turned away (admission or queue-depth backpressure).
    Rejected {
        /// Why.
        reason: RejectReason,
    },
}

/// The learned Eq. 1 prediction for one admitted job next to its static
/// `[best, worst]` envelope at the admission-time `M_min` — the
/// residual signal a serving front-end aggregates to detect model
/// drift (a prediction outside the envelope is provably mis-calibrated
/// for solo execution).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostCheck {
    /// Static best-case total at `M_min` (cycles).
    pub best: u64,
    /// Static worst-case total at `M_min` (cycles).
    pub worst: u64,
    /// The Eq. 1 model's predicted runtime at `M_min` (cycles).
    pub predicted: f64,
}

/// The record slot of a job whose record is appended to a
/// completion-ordered log instead of written into a fixed place.
const APPEND: usize = usize::MAX;

/// One job in flight: placed on a partition, or a scheduled host run
/// (an empty mask).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    job: Job,
    /// Where its record goes (see [`SchedLoop::log`]).
    slot: usize,
    /// Its share of the backlog: `M_min · t̂(M_min, N)` cluster-cycles.
    demand: f64,
    mask: ClusterMask,
    start: u64,
    /// Corruption re-dispatches charged so far (co-simulated backend).
    retries: u32,
    /// Injected faults observed across every attempt.
    faults: u64,
    /// Contention cycles accumulated across every attempt.
    contention: u64,
}

/// The trace track of the partition `mask`, keyed by its lowest
/// cluster: disjoint partitions never overlap in time on one track.
fn partition(mask: ClusterMask) -> Unit {
    Unit::Partition(mask.iter().next().unwrap_or(0) as u32)
}

/// The scheduling loop's state: admission, allocation and dispatch
/// over a service backend, in virtual time. Every step that may pick
/// takes the policy from its caller — [`ShardSim`] passes its own,
/// [`Engine::run`](crate::Engine::run) the one it borrowed.
#[derive(Debug)]
pub(crate) struct SchedLoop {
    pub(crate) admission: AdmissionController,
    pub(crate) backend: ServiceBackend,
    pub(crate) clusters: usize,
    allocator: Allocator,
    queue_limit: Option<usize>,
    now: u64,
    host_free_at: u64,
    seq: u64,
    /// Admitted jobs waiting for clusters, with their record slots.
    ready: ReadyQueue,
    /// Virtual-time completion events, keyed `(finish, sequence)`.
    completions: BTreeMap<(u64, u64), InFlight>,
    /// Co-simulated tenants keyed by their session job handle.
    running: BTreeMap<JobId, InFlight>,
    finished: Vec<JobRecord>,
    backlog_cycles: f64,
    busy_cluster_cycles: u64,
    completed_jobs: u64,
    pub(crate) lint_gate: Option<LintGate>,
    pub(crate) cost_gate: Option<CostGate>,
    last_cost_check: Option<CostCheck>,
    pub(crate) quarantined: ClusterMask,
    pub(crate) strikes: StrikeBoard,
    pub(crate) quarantine_events: Vec<QuarantineEvent>,
    pub(crate) trace: EventTrace,
}

impl SchedLoop {
    pub(crate) fn new(table: ModelTable, clusters: usize, backend: ServiceBackend) -> Self {
        let mut sched = SchedLoop {
            admission: AdmissionController::new(table, clusters as u64),
            backend,
            clusters,
            allocator: Allocator::new(clusters),
            queue_limit: None,
            now: 0,
            host_free_at: 0,
            seq: 0,
            ready: ReadyQueue::default(),
            completions: BTreeMap::new(),
            running: BTreeMap::new(),
            finished: Vec::new(),
            backlog_cycles: 0.0,
            busy_cluster_cycles: 0,
            completed_jobs: 0,
            lint_gate: None,
            cost_gate: None,
            last_cost_check: None,
            quarantined: ClusterMask::EMPTY,
            strikes: StrikeBoard::new(clusters),
            quarantine_events: Vec::new(),
            trace: EventTrace::disabled(),
        };
        sched.begin_session();
        sched
    }

    fn begin_session(&mut self) {
        if let ServiceBackend::CoSimulated { offloader, .. } = &mut self.backend {
            offloader.begin_jobs();
        }
    }

    pub(crate) fn healthy_clusters(&self) -> usize {
        self.clusters - self.quarantined.count()
    }

    fn in_flight(&self) -> usize {
        self.completions.len() + self.running.len()
    }

    /// Runs `jobs` (sorted by arrival) from an idle machine and returns
    /// their records in input order. What a run leaves behind — the
    /// standing quarantine, the backend's and the gates' memos — carries
    /// into the next; everything else starts afresh.
    ///
    /// For each group of jobs arriving at cycle `t`: retire the
    /// completions before `t`, re-picking after each; retire those at
    /// `t`; admit the whole group; re-pick once. Then drain.
    pub(crate) fn run(
        &mut self,
        jobs: &[Job],
        policy: &mut dyn SchedPolicy,
    ) -> Result<Vec<JobRecord>, SchedError> {
        self.allocator = Allocator::with_quarantine(self.clusters, self.quarantined);
        self.now = 0;
        self.host_free_at = 0;
        self.seq = 0;
        self.ready.clear();
        self.completions.clear();
        self.running.clear();
        self.backlog_cycles = 0.0;
        self.busy_cluster_cycles = 0;
        self.completed_jobs = 0;
        self.strikes.clear();
        self.quarantine_events.clear();
        self.trace.clear();
        self.begin_session();
        self.finished = Vec::with_capacity(jobs.len());

        let mut next = 0;
        while let Some(first) = jobs.get(next) {
            let t = first.arrival;
            self.advance(t, false, policy)?;
            while let Some(&job) = jobs.get(next).filter(|j| j.arrival == t) {
                // The job's slot, overwritten when the job resolves.
                self.finished.push(JobRecord {
                    job,
                    outcome: JobOutcome::Offloaded {
                        start: 0,
                        finish: 0,
                        m: 0,
                    },
                    contention_cycles: 0,
                    retries: 0,
                    faults_observed: 0,
                });
                self.admit(job, next)?;
                next += 1;
            }
            self.dispatch(policy)?;
        }
        self.drain(policy)?;
        Ok(std::mem::take(&mut self.finished))
    }

    /// Retires every completion at or before `until`, re-picking after
    /// each retired instant and each co-simulated completion — except,
    /// with `repick_at_until` false, those exactly at `until`.
    ///
    /// `advance`, `admit` and `dispatch` are inlined into every caller:
    /// a closed run takes each of them for every job, and left as calls
    /// they measurably slow the benchmark's `closed-fifo` workload.
    #[inline(always)]
    fn advance(
        &mut self,
        until: u64,
        repick_at_until: bool,
        policy: &mut dyn SchedPolicy,
    ) -> Result<(), SchedError> {
        loop {
            let next = self
                .completions
                .first_key_value()
                .map(|(&(t, _), _)| t)
                .filter(|&t| t <= until);
            // The session runs no further than the next virtual-time
            // completion, so the two retire in global time order.
            let step = if self.running.is_empty() {
                SessionStep::Idle
            } else {
                let horizon = next.unwrap_or(until);
                self.backend.session().advance_jobs(Cycle::new(horizon))?
            };
            let t = match step {
                SessionStep::Completed(run) => {
                    self.retire_session(&run)?;
                    run.finished_at.as_u64()
                }
                SessionStep::Horizon | SessionStep::Idle => {
                    let Some(t) = next else { break };
                    self.now = t;
                    while let Some(entry) =
                        self.completions.first_entry().filter(|e| e.key().0 == t)
                    {
                        let done = entry.remove();
                        self.retire(done, t);
                    }
                    t
                }
            };
            if t < until || repick_at_until {
                self.dispatch(policy)?;
            }
        }
        if until != u64::MAX {
            self.now = self.now.max(until);
        }
        Ok(())
    }

    /// Runs the loop dry: retires everything in flight and resolves the
    /// queue.
    fn drain(&mut self, policy: &mut dyn SchedPolicy) -> Result<(), SchedError> {
        loop {
            let retired = self.completed_jobs;
            // Profiled under the same site as `ShardSim::advance`: to a
            // shard's caller, draining is advancing to the end.
            {
                let _prof = mpsoc_sim::profile::scope("sched.shard.advance");
                self.advance(u64::MAX, true, policy)?;
            }
            let in_flight = self.in_flight();
            if in_flight == 0 {
                if self.ready.is_empty() {
                    return Ok(());
                }
                // Nothing in flight: no event will come to re-pick.
                // Mid-stream quarantine can strand queued jobs whose
                // Eq. 3 minimum partition no longer fits the surviving
                // pool; resolve them as typed degraded rejections — a
                // served "no" — and re-pick for the rest. A job that
                // fits and still waits was passed over by the policy.
                if self.reject_stranded() {
                    self.dispatch(policy)?;
                    continue;
                }
                return Err(SchedError::Unscheduled {
                    queued: self.ready.len(),
                });
            }
            if self.completed_jobs == retired {
                return Err(SchedError::SessionStalled { in_flight });
            }
        }
    }

    /// Decides one arriving job's fate without re-picking: the lint and
    /// cost gates, then Eq. 3 admission against the healthy pool.
    #[inline(always)]
    fn admit(&mut self, job: Job, slot: usize) -> Result<ShardDecision, SchedError> {
        self.now = self.now.max(job.arrival);
        let now = Cycle::new(self.now);
        self.trace
            .instant(now, Unit::SchedHost, EventKind::JobArrive, job.id);
        let gated = match self.lint_gate.as_mut().and_then(|g| g.check(&job)) {
            Some(report) => Some(RejectReason::ProgramLint {
                errors: report.error_count() as u32,
            }),
            None => self
                .cost_gate
                .as_mut()
                .and_then(|g| g.check(&job))
                .map(|best| RejectReason::StaticInfeasible { best }),
        };
        let decision = match gated {
            Some(reason) => AdmissionDecision::Reject { reason },
            None => self
                .admission
                .admit_degraded(&job, self.healthy_clusters() as u64),
        };
        let reason = match decision {
            AdmissionDecision::Offload { .. }
                if self
                    .queue_limit
                    .is_some_and(|limit| self.ready.len() >= limit) =>
            {
                RejectReason::QueueFull {
                    depth: self.ready.len() as u64,
                }
            }
            AdmissionDecision::Offload { m_min, predicted } => {
                self.ready.push(
                    QueuedJob {
                        job,
                        m_min,
                        predicted,
                    },
                    slot,
                );
                self.backlog_cycles += predicted * m_min as f64;
                if let Some(gate) = self.cost_gate.as_mut() {
                    self.last_cost_check =
                        gate.envelope(job.kernel, job.n, m_min as usize)
                            .map(|env| CostCheck {
                                best: env.best,
                                worst: env.worst,
                                predicted,
                            });
                }
                return Ok(ShardDecision::Queued { m_min, predicted });
            }
            AdmissionDecision::Host { .. } => {
                let start = self.now.max(self.host_free_at);
                let cycles = self.backend.host_cycles(job.kernel, job.n)?;
                let finish = start.checked_add(cycles).ok_or(SchedError::PastHorizon {
                    job: job.id,
                    start,
                    cycles,
                })?;
                self.host_free_at = finish;
                let span = self
                    .trace
                    .begin(Cycle::new(start), Unit::SchedHost, EventKind::HostRun);
                self.trace.end(
                    Cycle::new(finish),
                    Unit::SchedHost,
                    EventKind::HostRun,
                    span,
                );
                self.completions.insert(
                    (finish, self.seq),
                    InFlight {
                        job,
                        slot,
                        demand: 0.0,
                        mask: ClusterMask::EMPTY,
                        start,
                        retries: 0,
                        faults: 0,
                        contention: 0,
                    },
                );
                self.seq += 1;
                return Ok(ShardDecision::Host { start, finish });
            }
            AdmissionDecision::Reject { reason } => reason,
        };
        self.trace
            .instant(now, Unit::SchedHost, EventKind::Reject, job.id);
        self.reject(job, slot, reason);
        Ok(ShardDecision::Rejected { reason })
    }

    /// Lets the policy place queued jobs until it passes: pick, check,
    /// remove from the queue, carve the partition, start the job.
    ///
    /// # Errors
    ///
    /// [`SchedError::InvalidPlacement`] when the policy names an index
    /// past the queue, a zero-width partition or more clusters than are
    /// free; [`SchedError::PastHorizon`] when an offload would finish
    /// past cycle `u64::MAX`; service-backend failures starting the job.
    #[inline(always)]
    fn dispatch(&mut self, policy: &mut dyn SchedPolicy) -> Result<(), SchedError> {
        let total_clusters = self.healthy_clusters();
        loop {
            let free = self.allocator.free_count();
            let ctx = SchedContext {
                now: self.now,
                free_clusters: free,
                total_clusters,
                models: self.admission.table(),
                queue: &self.ready,
            };
            let Some(Placement { queue_index, m }) = policy.pick(self.ready.jobs(), &ctx) else {
                return Ok(());
            };
            let queue_len = self.ready.len();
            let invalid = || SchedError::InvalidPlacement {
                queue_index,
                queue_len,
                m,
                free,
            };
            if queue_index >= queue_len {
                return Err(invalid());
            }
            let mask = self.allocator.carve(m).ok_or_else(invalid)?;
            let (queued, slot) = self.ready.remove(queue_index);
            let placed = InFlight {
                job: queued.job,
                slot,
                demand: queued.predicted * queued.m_min as f64,
                mask,
                start: self.now,
                retries: 0,
                faults: 0,
                contention: 0,
            };
            let (now, part) = (Cycle::new(self.now), partition(mask));
            if queued.job.arrival < self.now {
                let waited = self.now - queued.job.arrival;
                self.trace.instant(now, part, EventKind::QueueWait, waited);
            }
            let (kernel, n) = (queued.job.kernel, queued.job.n);
            if matches!(self.backend, ServiceBackend::CoSimulated { .. }) {
                let handle = self.backend.submit_at(kernel, n, mask, now)?;
                self.running.insert(handle, placed);
            } else {
                let cycles = self.backend.offload_cycles(kernel, n, mask)?;
                let finish = self
                    .now
                    .checked_add(cycles)
                    .ok_or(SchedError::PastHorizon {
                        job: queued.job.id,
                        start: self.now,
                        cycles,
                    })?;
                let span = self.trace.begin(now, part, EventKind::Offload);
                self.trace
                    .end(Cycle::new(finish), part, EventKind::Offload, span);
                self.completions.insert((finish, self.seq), placed);
                self.seq += 1;
            }
        }
    }

    /// Retires (or corruption-re-dispatches) one co-simulated tenant.
    fn retire_session(&mut self, run: &TenantRun) -> Result<(), SchedError> {
        let Some(mut done) = self.running.remove(&run.job) else {
            return Err(SchedError::UnknownCompletion { job: run.job });
        };
        let finish = run.finished_at.as_u64();
        self.now = self.now.max(finish);
        done.faults += run.faults_injected;
        done.contention += run.contention.total_cycles();
        let part = partition(done.mask);
        if run.corrupt_clusters != 0 {
            // Strike accounting on every corrupt completion — including
            // a final attempt whose retry budget is exhausted — so a
            // flaky cluster is diagnosed even while re-dispatch keeps
            // absorbing its output. Crossing the hysteresis threshold
            // quarantines the cluster mid-stream, with no external
            // `quarantine` call involved.
            let fire = self.strikes.record(run.corrupt_clusters, self.quarantined);
            self.quarantine(fire);
            if done.retries < COSIM_MAX_REDISPATCH {
                // Observable corruption: re-dispatch on the same
                // partition with fresh fault dice, charging the retry
                // to the record.
                done.retries += 1;
                self.trace
                    .instant(run.finished_at, part, EventKind::Redispatch, done.job.id);
                let handle = self.backend.submit_at(
                    done.job.kernel,
                    done.job.n,
                    done.mask,
                    run.finished_at,
                )?;
                self.running.insert(handle, done);
                return Ok(());
            }
        }
        let span = self
            .trace
            .begin(Cycle::new(done.start), part, EventKind::Offload);
        self.trace
            .end(run.finished_at, part, EventKind::Offload, span);
        self.retire(done, finish);
        Ok(())
    }

    /// Retires one finished job into the record log.
    fn retire(&mut self, done: InFlight, finish: u64) {
        let outcome = if done.mask.is_empty() {
            JobOutcome::Host {
                start: done.start,
                finish,
            }
        } else {
            let m = done.mask.count();
            self.allocator.release(done.mask);
            self.backlog_cycles -= done.demand;
            self.busy_cluster_cycles += (finish - done.start) * m as u64;
            JobOutcome::Offloaded {
                start: done.start,
                finish,
                m,
            }
        };
        self.completed_jobs += 1;
        self.log(
            done.slot,
            JobRecord {
                job: done.job,
                outcome,
                contention_cycles: done.contention,
                retries: done.retries,
                faults_observed: done.faults,
            },
        );
    }

    /// Writes a record into its slot of a closed run's log, or appends
    /// it to a shard's completion-ordered log ([`APPEND`]).
    fn log(&mut self, slot: usize, record: JobRecord) {
        match self.finished.get_mut(slot) {
            Some(entry) => *entry = record,
            None => self.finished.push(record),
        }
    }

    /// Logs `job` as rejected for `reason`.
    fn reject(&mut self, job: Job, slot: usize, reason: RejectReason) {
        self.log(
            slot,
            JobRecord {
                job,
                outcome: JobOutcome::Rejected { reason },
                contention_cycles: 0,
                retries: 0,
                faults_observed: 0,
            },
        );
    }

    /// Resolves an evicted job as a [`RejectReason::DegradedMachine`]
    /// rejection against the surviving pool.
    fn reject_degraded(&mut self, q: QueuedJob, slot: usize) {
        let healthy = self.healthy_clusters() as u64;
        let reason = RejectReason::DegradedMachine {
            required: q.m_min,
            healthy,
        };
        self.reject(q.job, slot, reason);
    }

    /// Removes the queued jobs whose minimum partition exceeds the
    /// healthy pool, with their record slots, in arrival order.
    fn evict(&mut self) -> Vec<(QueuedJob, usize)> {
        let healthy = self.healthy_clusters() as u64;
        let evicted = self.ready.remove_where(|q| q.m_min > healthy);
        for (q, _) in &evicted {
            self.backlog_cycles -= q.predicted * q.m_min as f64;
        }
        evicted
    }

    /// Rejects the queued jobs quarantine stranded; returns whether
    /// there were any.
    fn reject_stranded(&mut self) -> bool {
        let stranded = self.evict();
        let any = !stranded.is_empty();
        for (q, slot) in stranded {
            self.reject_degraded(q, slot);
        }
        any
    }

    /// Retires the clusters of `mask` not yet quarantined: the allocator
    /// stops granting them, admission reasons against the surviving
    /// pool, the measured backend's and the cost gate's memos drop, and
    /// each cluster is logged as a [`QuarantineEvent`].
    fn quarantine(&mut self, mask: ClusterMask) {
        let mask = mask
            .intersection(ClusterMask::first(self.clusters))
            .without(self.quarantined);
        if mask.is_empty() {
            return;
        }
        self.quarantined = self.quarantined.union(mask);
        self.allocator.quarantine(mask);
        self.backend.invalidate_measurements();
        let healthy = self.healthy_clusters();
        if let Some(gate) = self.cost_gate.as_mut() {
            gate.restrict_clusters(healthy);
        }
        for cluster in mask.iter() {
            self.trace.instant(
                Cycle::new(self.now),
                Unit::SchedHost,
                EventKind::Quarantine,
                cluster as u64,
            );
            self.quarantine_events.push(QuarantineEvent {
                at: self.now,
                cluster,
                strikes: self.strikes.strikes(cluster),
            });
        }
    }
}

/// An incremental single-machine scheduler: admission, allocation and
/// dispatch over a service backend, driven event-by-event.
pub struct ShardSim {
    sched: SchedLoop,
    policy: Box<dyn SchedPolicy>,
}

impl ShardSim {
    /// A shard over a machine of `clusters` clusters, dispatching with
    /// `policy` over `backend`.
    pub fn new(
        table: ModelTable,
        clusters: usize,
        backend: ServiceBackend,
        policy: Box<dyn SchedPolicy>,
    ) -> Self {
        ShardSim {
            sched: SchedLoop::new(table, clusters, backend),
            policy,
        }
    }

    /// Retires `mask` from this shard's pool mid-stream — the
    /// incremental counterpart of [`Engine::quarantine`]. The allocator
    /// stops granting the clusters (busy ones are withheld at release),
    /// admission reasons against the surviving pool (typed
    /// [`RejectReason::DegradedMachine`] rejections), and — exactly
    /// like the engine — the measured backend's memoized solo-run
    /// timings and the cost gate's static memos are dropped: both were
    /// computed against a machine that no longer exists, and stale
    /// entries would admit jobs on bounds the degraded shard cannot
    /// realize. Each newly retired cluster is logged as a
    /// [`QuarantineEvent`].
    ///
    /// [`Engine::quarantine`]: crate::Engine::quarantine
    pub fn quarantine(&mut self, mask: ClusterMask) {
        self.sched.quarantine(mask);
    }

    /// Configures automatic quarantine: a cluster is retired after
    /// `threshold` corrupt co-simulated completions flagged it (default
    /// [`crate::AUTO_QUARANTINE_STRIKES`]); `None` disables the closed
    /// loop so corruption is absorbed by re-dispatch alone.
    pub fn set_auto_quarantine(&mut self, threshold: Option<u32>) {
        self.sched.strikes.set_threshold(threshold);
    }

    /// The clusters currently quarantined.
    pub fn quarantined(&self) -> ClusterMask {
        self.sched.quarantined
    }

    /// Healthy (non-quarantined) clusters — the shard's *effective*
    /// capacity, which a fleet balancer should weight by instead of the
    /// configured size.
    pub fn healthy_clusters(&self) -> usize {
        self.sched.healthy_clusters()
    }

    /// Takes the quarantine decisions (manual and automatic) made since
    /// the last drain, in firing order.
    pub fn drain_quarantine_events(&mut self) -> Vec<QuarantineEvent> {
        std::mem::take(&mut self.sched.quarantine_events)
    }

    /// Enables static cost verification: offered jobs whose deadline
    /// undercuts the static best-case runtime bound are rejected with
    /// [`RejectReason::StaticInfeasible`] before Eq. 3 runs, and every
    /// queued admission records a [`CostCheck`] residual (see
    /// [`ShardSim::take_cost_check`]).
    pub fn enable_cost(&mut self, gate: CostGate) {
        self.sched.cost_gate = Some(gate);
    }

    /// Takes the prediction-vs-static-bounds residual of the most recent
    /// queued admission, if a cost gate is enabled and the bounds were
    /// computable. Cleared on read so callers see each admission once.
    pub fn take_cost_check(&mut self) -> Option<CostCheck> {
        self.sched.last_cost_check.take()
    }

    /// Caps the admitted-but-unstarted queue: once `limit` jobs wait,
    /// further offload admissions are rejected with
    /// [`RejectReason::QueueFull`] — the shard's backpressure signal.
    /// Host-fallback jobs bypass the cap (they occupy the host server,
    /// not the cluster queue).
    pub fn set_queue_limit(&mut self, limit: usize) {
        self.sched.queue_limit = Some(limit);
    }

    /// Current virtual time (the latest horizon or event retired).
    pub fn now(&self) -> u64 {
        self.sched.now
    }

    /// The machine size.
    pub fn clusters(&self) -> usize {
        self.sched.clusters
    }

    /// Clusters currently free.
    pub fn free_clusters(&self) -> usize {
        self.sched.allocator.free_count()
    }

    /// Admitted jobs waiting for clusters.
    pub fn queue_depth(&self) -> usize {
        self.sched.ready.len()
    }

    /// Jobs currently occupying partitions or the host server.
    pub fn in_flight(&self) -> usize {
        self.sched.in_flight()
    }

    /// Predicted cluster-cycles of work admitted but not yet finished
    /// (queued + in flight, at the admission-time `M_min` estimate) —
    /// the load signal a fleet balancer compares across shards.
    pub fn backlog_cycles(&self) -> f64 {
        self.sched.backlog_cycles
    }

    /// Busy cluster-cycles accumulated by retired offloads.
    pub fn busy_cluster_cycles(&self) -> u64 {
        self.sched.busy_cluster_cycles
    }

    /// The admission controller's model table.
    pub fn models(&self) -> &ModelTable {
        self.sched.admission.table()
    }

    /// Takes every record finished since the last drain, in completion
    /// order (rejections appear at their offer time).
    pub fn drain_finished(&mut self) -> Vec<JobRecord> {
        std::mem::take(&mut self.sched.finished)
    }

    /// Drains every record finished since the last drain, in the order
    /// [`ShardSim::drain_finished`] returns them. The shard keeps its
    /// buffer, so a caller that drains after every event allocates
    /// nothing.
    pub fn drain_finished_iter(&mut self) -> std::vec::Drain<'_, JobRecord> {
        self.sched.finished.drain(..)
    }

    /// Drives virtual time to `until` (inclusive): retires every
    /// completion at or before it, re-dispatching the queue after each
    /// event. `u64::MAX` means "retire everything currently in flight"
    /// without advancing the clock past the last real event.
    ///
    /// # Errors
    ///
    /// Service-backend failures and [`SchedError::InvalidPlacement`]
    /// from the policy; [`SchedError::SessionStalled`] can surface from
    /// [`ShardSim::drain`], not from a bounded advance.
    pub fn advance(&mut self, until: u64) -> Result<(), SchedError> {
        let _prof = mpsoc_sim::profile::scope("sched.shard.advance");
        self.sched.advance(until, true, self.policy.as_mut())
    }

    /// Runs the shard dry: advances until the queue is empty and nothing
    /// is in flight.
    ///
    /// # Errors
    ///
    /// [`SchedError::SessionStalled`] when in-flight work stops making
    /// progress (a wedged co-simulated tenant under injected faults),
    /// and [`SchedError::Unscheduled`] when nothing is in flight and the
    /// policy leaves jobs that fit the machine queued.
    pub fn drain(&mut self) -> Result<(), SchedError> {
        self.sched.drain(self.policy.as_mut())
    }

    /// Removes and returns the queued-but-unstarted jobs whose minimum
    /// partition exceeds the healthy pool, in arrival order. Under a
    /// strict-FIFO policy such a job would otherwise wedge the queue
    /// head mid-stream: it can never start, and everything behind it
    /// waits until drain. A fleet calls this after quarantine shrinks a
    /// shard and either re-places the evicted jobs on a shard that still
    /// fits them or resolves them via [`ShardSim::reject_evicted`].
    pub fn evict_unservable(&mut self) -> Vec<QueuedJob> {
        self.sched.evict().into_iter().map(|(q, _)| q).collect()
    }

    /// Resolves an evicted (or failed-over-but-unplaceable) job as a
    /// typed [`RejectReason::DegradedMachine`] rejection against this
    /// shard's surviving pool — a served "no", counted exactly once like
    /// any other rejection.
    pub fn reject_evicted(&mut self, q: QueuedJob) {
        self.sched.reject_degraded(q, APPEND);
    }

    /// Presents one arriving job (arrivals must be offered in
    /// non-decreasing time order, after `advance(job.arrival)`); decides
    /// its fate and schedules it. The returned decision is also recorded
    /// (rejections immediately, completions when they retire).
    ///
    /// Virtual time ends at cycle `u64::MAX`. A host run or an offload
    /// that would finish past it is an error, not a wrapped clock.
    ///
    /// # Errors
    ///
    /// Service-backend failures measuring or submitting the job,
    /// [`SchedError::PastHorizon`] when this job's host run, or an
    /// offload the offer lets the policy start, would finish past cycle
    /// `u64::MAX`, [`SchedError::InvalidPlacement`] when the policy
    /// returns a placement the shard cannot honour, and
    /// [`SchedError::ArrivalAhead`], with the shard unchanged, when the
    /// job arrives after [`ShardSim::now`]: `advance(job.arrival)` did
    /// not come first. (An arrival at `u64::MAX` follows
    /// `advance(u64::MAX)`, which leaves the clock at the last event.)
    pub fn offer(&mut self, job: Job) -> Result<ShardDecision, SchedError> {
        if job.arrival > self.sched.now && job.arrival != u64::MAX {
            return Err(SchedError::ArrivalAhead {
                job: job.id,
                arrival: job.arrival,
                now: self.sched.now,
            });
        }
        let decision = self.sched.admit(job, APPEND)?;
        if let ShardDecision::Queued { .. } = decision {
            self.sched.dispatch(self.policy.as_mut())?;
        }
        Ok(decision)
    }

    /// Retracts the rejection record this shard just logged for
    /// `job_id`, so a balancer that re-offers the job elsewhere (and
    /// finds a taker) keeps the fleet log exactly-once. Only the *most
    /// recent* finished record is eligible — a rejection stops being
    /// retractable as soon as anything else resolves after it — and
    /// only rejections can be withdrawn. Returns whether a record was
    /// removed.
    pub fn withdraw_rejection(&mut self, job_id: u64) -> bool {
        let finished = &mut self.sched.finished;
        let retractable = matches!(
            finished.last(),
            Some(JobRecord {
                job,
                outcome: JobOutcome::Rejected { .. },
                ..
            }) if job.id == job_id
        );
        if retractable {
            finished.pop();
        }
        retractable
    }

    /// Removes the most recently admitted queued-but-unstarted job for
    /// another shard to run, or `None` when the queue is empty. Stealing
    /// from the tail leaves the oldest (most slack-starved) jobs on the
    /// shard that admitted them.
    pub fn steal(&mut self) -> Option<QueuedJob> {
        let sched = &mut self.sched;
        let (stolen, _) = sched.ready.pop()?;
        sched.backlog_cycles -= stolen.predicted * stolen.m_min as f64;
        Some(stolen)
    }

    /// Accepts a job stolen from another shard: it joins the queue with
    /// its admission solution intact and competes for clusters under
    /// this shard's policy.
    ///
    /// # Errors
    ///
    /// Service-backend failures dispatching the queue, and
    /// [`SchedError::InvalidPlacement`] from the policy.
    pub fn inject(&mut self, stolen: QueuedJob) -> Result<(), SchedError> {
        let sched = &mut self.sched;
        sched.backlog_cycles += stolen.predicted * stolen.m_min as f64;
        sched.ready.push(stolen, APPEND);
        sched.dispatch(self.policy.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::KernelId;
    use crate::policy::{FifoFirstFit, ModelGuided, SortThenScan};
    use crate::workload::{ArrivalPattern, Workload};
    use crate::Engine;

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

    fn shard(clusters: usize, backend: ServiceBackend) -> ShardSim {
        ShardSim::new(
            ModelTable::paper_defaults(),
            clusters,
            backend,
            Box::new(FifoFirstFit),
        )
    }

    fn run_stream(shard: &mut ShardSim, stream: &[Job]) -> Vec<JobRecord> {
        for job in stream {
            shard.advance(job.arrival).expect("advance");
            shard.offer(*job).expect("offer");
        }
        shard.drain().expect("drain");
        let mut records = shard.drain_finished();
        records.sort_by_key(|r| r.job.id);
        records
    }

    /// The contract that licenses fleet results: the loop's two drivers
    /// agree. Fed the same stream under FIFO, a shard (one re-pick per
    /// offer) reproduces the engine's records (one re-pick per arrival
    /// instant).
    #[test]
    fn shard_matches_engine_on_an_analytic_stream() {
        let stream = jobs(&[
            (0, 1024, 1000),
            (0, 1024, 1000),
            (0, 2048, 2000),
            (100, 256, 100_000),
            (150, 1024, 300),
            (500, 4096, 9000),
            (500, 64, 100_000),
        ]);
        let table = ModelTable::paper_defaults();
        let mut engine = Engine::new(table.clone(), 4, ServiceBackend::analytic(table.clone()));
        let want = engine.run(&stream, &mut FifoFirstFit).expect("engine");
        let mut s = shard(4, ServiceBackend::analytic(table));
        let got = run_stream(&mut s, &stream);
        assert_eq!(got, want.records);
    }

    #[test]
    fn shard_matches_engine_on_a_cosimulated_stream() {
        let stream = jobs(&[
            (0, 1024, 2000),
            (0, 2048, 4000),
            (100, 256, 100_000),
            (500, 4096, 9000),
        ]);
        let table = ModelTable::paper_defaults();
        let mk_backend = || {
            let offloader =
                mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(8)).expect("soc");
            ServiceBackend::co_simulated(offloader, 0xBEEF)
        };
        let mut engine = Engine::new(table.clone(), 8, mk_backend());
        let want = engine.run(&stream, &mut FifoFirstFit).expect("engine");
        let mut s = shard(8, mk_backend());
        let got = run_stream(&mut s, &stream);
        assert_eq!(got, want.records);
    }

    #[test]
    fn queue_limit_rejects_with_queue_full() {
        // A 1-cluster machine: the first job runs, the second queues,
        // the third hits the cap.
        let table = ModelTable::paper_defaults();
        let mut s = shard(1, ServiceBackend::analytic(table));
        s.set_queue_limit(1);
        let stream = jobs(&[(0, 1024, 100_000), (0, 1024, 100_000), (0, 1024, 100_000)]);
        assert!(matches!(
            s.offer(stream[0]).unwrap(),
            ShardDecision::Queued { .. }
        ));
        assert!(matches!(
            s.offer(stream[1]).unwrap(),
            ShardDecision::Queued { .. }
        ));
        match s.offer(stream[2]).unwrap() {
            ShardDecision::Rejected {
                reason: RejectReason::QueueFull { depth },
            } => assert_eq!(depth, 1),
            other => panic!("expected QueueFull, got {other:?}"),
        }
        s.drain().expect("drain");
        let records = s.drain_finished();
        assert_eq!(records.len(), 3);
        assert_eq!(s.sched.completed_jobs, 2);
    }

    #[test]
    fn steal_moves_queued_work_between_shards() {
        let table = ModelTable::paper_defaults();
        // Donor: 1 cluster, so the second job queues.
        let mut donor = shard(1, ServiceBackend::analytic(table.clone()));
        let stream = jobs(&[(0, 1024, 100_000), (0, 1024, 100_000)]);
        donor.offer(stream[0]).unwrap();
        donor.offer(stream[1]).unwrap();
        assert_eq!(donor.queue_depth(), 1);
        let backlog_before = donor.backlog_cycles();

        let stolen = donor.steal().expect("queued job to steal");
        assert_eq!(stolen.job.id, 1);
        assert_eq!(donor.queue_depth(), 0);
        assert!(donor.backlog_cycles() < backlog_before);
        assert!(donor.steal().is_none(), "nothing left to steal");

        // Thief: idle 1-cluster shard runs the stolen job immediately.
        let mut thief = shard(1, ServiceBackend::analytic(table));
        thief.inject(stolen).expect("inject");
        assert_eq!(thief.queue_depth(), 0, "stolen job dispatched at once");
        thief.drain().expect("drain");
        let records = thief.drain_finished();
        assert_eq!(records.len(), 1);
        assert!(matches!(
            records[0].outcome,
            JobOutcome::Offloaded { start: 0, .. }
        ));

        donor.drain().expect("drain");
        assert_eq!(donor.sched.completed_jobs, 1);
    }

    #[test]
    fn backlog_tracks_admitted_unfinished_work() {
        let table = ModelTable::paper_defaults();
        let mut s = shard(2, ServiceBackend::analytic(table));
        assert_eq!(s.backlog_cycles(), 0.0);
        let stream = jobs(&[(0, 1024, 100_000), (0, 2048, 100_000)]);
        s.offer(stream[0]).unwrap();
        let after_one = s.backlog_cycles();
        assert!(after_one > 0.0);
        s.offer(stream[1]).unwrap();
        assert!(s.backlog_cycles() > after_one);
        s.drain().expect("drain");
        assert!(
            s.backlog_cycles().abs() < 1e-9,
            "drained shard owes nothing"
        );
        assert!(s.busy_cluster_cycles() > 0);
    }

    #[test]
    fn cosimulated_shard_redispatches_on_corruption() {
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(4)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(31);
        plan.dma_corrupt = mpsoc_soc::SiteSpec::once_at(0);
        offloader.install_faults(plan);
        let mut s = shard(4, ServiceBackend::co_simulated(offloader, 0xBEEF));
        let stream = jobs(&[(0, 1024, 100_000)]);
        s.offer(stream[0]).unwrap();
        s.drain().expect("drain");
        let records = s.drain_finished();
        assert_eq!(records.len(), 1);
        assert_eq!(
            records[0].retries, 1,
            "corruption must cost one re-dispatch"
        );
        assert!(records[0].faults_observed >= 1);
        assert!(matches!(records[0].outcome, JobOutcome::Offloaded { .. }));
        // Hysteresis: one transient corruption is below the strike
        // threshold — the cluster survives.
        assert!(
            s.quarantined().is_empty(),
            "a single transient must not quarantine anything"
        );
        assert!(s.drain_quarantine_events().is_empty());
    }

    #[test]
    fn persistent_corruption_auto_quarantines_mid_stream() {
        // Every DMA burst corrupts: each tenant burns its full retry
        // budget (4 corrupt completions = 4 strikes on its cluster), so
        // each busy cluster crosses the 3-strike threshold and is
        // quarantined mid-stream with no explicit `quarantine` call.
        // The queued fifth job is stranded on a fully dead machine and
        // must resolve as a typed degraded rejection.
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(4)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(7);
        plan.dma_corrupt = mpsoc_soc::SiteSpec::rate(1.0);
        offloader.install_faults(plan);
        let mut s = shard(4, ServiceBackend::co_simulated(offloader, 0xBEEF));
        let stream = jobs(&[(0, 1024, 100_000); 5]);
        for job in &stream {
            s.offer(*job).expect("offer");
        }
        s.drain()
            .expect("drain resolves the stranded job, not stalls");
        assert_eq!(s.healthy_clusters(), 0, "all four clusters condemned");
        let events = s.drain_quarantine_events();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.strikes >= 3 && e.at > 0));
        let mut records = s.drain_finished();
        records.sort_by_key(|r| r.job.id);
        assert_eq!(records.len(), 5);
        let offloaded = records
            .iter()
            .filter(|r| matches!(r.outcome, JobOutcome::Offloaded { .. }))
            .count();
        assert_eq!(offloaded, 4, "in-flight tenants still complete");
        match records[4].outcome {
            JobOutcome::Rejected {
                reason: RejectReason::DegradedMachine { healthy, .. },
            } => assert_eq!(healthy, 0),
            other => panic!("expected a degraded rejection, got {other:?}"),
        }
    }

    #[test]
    fn disabled_auto_quarantine_leaves_the_pool_intact() {
        let mut offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(4)).expect("soc");
        let mut plan = mpsoc_soc::FaultPlan::with_seed(7);
        plan.dma_corrupt = mpsoc_soc::SiteSpec::rate(1.0);
        offloader.install_faults(plan);
        let mut s = shard(4, ServiceBackend::co_simulated(offloader, 0xBEEF));
        s.set_auto_quarantine(None);
        let stream = jobs(&[(0, 1024, 100_000); 5]);
        for job in &stream {
            s.offer(*job).expect("offer");
        }
        s.drain().expect("drain");
        assert_eq!(s.healthy_clusters(), 4);
        assert!(s.drain_quarantine_events().is_empty());
        assert_eq!(s.drain_finished().len(), 5, "every job still resolves");
    }

    #[test]
    fn shard_quarantine_invalidates_measured_and_cost_memos() {
        // Satellite fix: `ShardSim::quarantine` must drop the measured
        // solo-run cache and the cost gate's memos exactly like
        // `Engine::quarantine`, or a degraded shard admits on stale
        // t̂(M, N) and stale static bounds.
        let offloader =
            mpsoc_offload::Offloader::new(mpsoc_soc::SocConfig::with_clusters(4)).expect("soc");
        let mut s = shard(4, ServiceBackend::measured(offloader, 0xBEEF));
        s.enable_cost(CostGate::new(mpsoc_soc::SocConfig::with_clusters(4)));
        let stream = jobs(&[(0, 1024, 100_000)]);
        s.offer(stream[0]).unwrap();
        s.drain().expect("drain");
        let cache_len = |b: &ServiceBackend| match b {
            ServiceBackend::Measured { offload_cache, .. } => offload_cache.len(),
            _ => unreachable!(),
        };
        assert!(
            cache_len(&s.sched.backend) > 0,
            "the run populated the cache"
        );
        s.quarantine(ClusterMask::single(3));
        assert_eq!(cache_len(&s.sched.backend), 0, "measured cache must drop");
        assert_eq!(
            s.sched.cost_gate.as_ref().map(|g| g.effective_clusters()),
            Some(3),
            "cost gate must re-bound to the surviving pool"
        );
        let events = s.drain_quarantine_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cluster, 3);
        assert_eq!(events[0].strikes, 0, "manual quarantine carries no strikes");
    }

    #[test]
    fn eviction_unwedges_a_degraded_fifo_queue() {
        // A 2-cluster shard: a narrow filler runs on cluster 0, then a
        // deadline that only 2 clusters can meet queues an m_min=2 job.
        // Quarantining the free cluster makes that queued job
        // unservable — under strict FIFO it would wedge the queue head
        // until drain. `evict_unservable` must surgically remove it
        // (restoring the backlog ledger), leave servable work alone,
        // and `reject_evicted` must resolve it as a typed degraded
        // rejection.
        let table = ModelTable::paper_defaults();
        let t1 = table.get(KernelId::Daxpy).accel.predict(1, 16_384);
        let t2 = table.get(KernelId::Daxpy).accel.predict(2, 16_384);
        let deadline = (t2.ceil() as u64 + t1.floor() as u64) / 2;
        let mut s = shard(2, ServiceBackend::analytic(table));
        let stream = jobs(&[(0, 4096, 1_000_000), (0, 16_384, deadline)]);
        assert!(matches!(
            s.offer(stream[0]).unwrap(),
            ShardDecision::Queued { m_min: 1, .. }
        ));
        assert!(matches!(
            s.offer(stream[1]).unwrap(),
            ShardDecision::Queued { m_min: 2, .. }
        ));
        assert_eq!(s.queue_depth(), 1, "the wide job waits for both clusters");
        let backlog_before = s.backlog_cycles();

        s.quarantine(ClusterMask::single(1));
        let mut evicted = s.evict_unservable();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].job.id, 1);
        assert_eq!(evicted[0].m_min, 2);
        assert_eq!(s.queue_depth(), 0);
        assert!(
            s.backlog_cycles() < backlog_before,
            "eviction must return the job's cycles to the ledger"
        );
        assert!(
            s.evict_unservable().is_empty(),
            "eviction is idempotent once the queue fits the pool"
        );

        s.reject_evicted(evicted.pop().expect("evicted job"));
        s.drain().expect("drain");
        let mut records = s.drain_finished();
        records.sort_by_key(|r| r.job.id);
        assert_eq!(records.len(), 2);
        assert!(
            matches!(records[0].outcome, JobOutcome::Offloaded { m: 1, .. }),
            "the narrow tenant on the surviving cluster is untouched"
        );
        match records[1].outcome {
            JobOutcome::Rejected {
                reason: RejectReason::DegradedMachine { required, healthy },
            } => {
                assert_eq!(required, 2);
                assert_eq!(healthy, 1);
            }
            other => panic!("expected a degraded rejection, got {other:?}"),
        }
    }

    /// Offers a DAXPY job of `n` elements 10 cycles before virtual time
    /// ends: whatever runs it would finish past `u64::MAX`, which must be
    /// a typed error, with the clock neither wrapped nor moved back.
    fn offer_at_the_end_of_time(n: u64) {
        let mut s = shard(4, ServiceBackend::analytic(ModelTable::paper_defaults()));
        let job = jobs(&[(u64::MAX - 10, n, 100_000)])[0];
        s.advance(job.arrival).expect("advance");
        match s.offer(job) {
            Err(SchedError::PastHorizon { job: 0, start, .. }) => {
                assert_eq!(start, u64::MAX - 10)
            }
            other => panic!("expected PastHorizon, got {other:?}"),
        }
        assert_eq!(s.now(), u64::MAX - 10);
    }

    /// An offer that skips `advance(job.arrival)` is a typed error that
    /// leaves the shard as it was: the clock stays put, and the job in
    /// flight retires at its own finish, before the late arrival, which
    /// then queues and runs as if offered after the advance.
    #[test]
    fn an_offer_ahead_of_the_clock_is_a_typed_error() {
        let run = |skip_advance: bool| {
            let mut s = shard(1, ServiceBackend::analytic(ModelTable::paper_defaults()));
            let stream = jobs(&[(0, 4096, 1_000_000), (20_000, 1024, 1_000_000)]);
            s.offer(stream[0]).unwrap();
            if skip_advance {
                match s.offer(stream[1]) {
                    Err(SchedError::ArrivalAhead {
                        job: 1,
                        arrival: 20_000,
                        now: 0,
                    }) => {}
                    other => panic!("expected ArrivalAhead, got {other:?}"),
                }
                assert_eq!((s.now(), s.queue_depth()), (0, 0));
            }
            s.advance(stream[1].arrival).unwrap();
            s.offer(stream[1]).unwrap();
            s.drain().unwrap();
            s.drain_finished()
        };
        assert_eq!(run(true), run(false));
        // After `advance(u64::MAX)` the clock stays at the last event, and
        // a job arriving at the end of time still gets its own error.
        let mut s = shard(1, ServiceBackend::analytic(ModelTable::paper_defaults()));
        let job = jobs(&[(u64::MAX, 64, 100_000)])[0];
        s.advance(job.arrival).unwrap();
        assert!(matches!(s.offer(job), Err(SchedError::PastHorizon { .. })));
    }

    #[test]
    fn a_host_run_past_the_end_of_time_is_a_typed_error() {
        // Below break-even: 64 elements stay on the host.
        offer_at_the_end_of_time(64);
    }

    #[test]
    fn an_offload_past_the_end_of_time_is_a_typed_error() {
        offer_at_the_end_of_time(1024);
    }

    /// A seeded stream offered at 8× what `clusters` clusters serve at
    /// the workload's reference partition: queues form and jobs in them
    /// lose their deadlines.
    fn overloaded(seed: u64, count: usize, clusters: usize) -> Vec<Job> {
        let table = ModelTable::paper_defaults();
        let mut workload = Workload::balanced(
            count,
            seed,
            ArrivalPattern::Poisson {
                mean_interarrival: 1.0,
            },
        );
        workload.arrivals = ArrivalPattern::Poisson {
            mean_interarrival: workload.interarrival_for_load(&table, clusters, 8.0),
        };
        workload.generate(&table)
    }

    /// Drives two 4-cluster shards through `stream` under `policy`. Jobs
    /// alternate between the shards; every seventh offer moves the
    /// newest queued job of the deeper queue to the other shard; halfway
    /// through, shard 0 loses three clusters and rejects the queued jobs
    /// that no longer fit. Returns each shard's records.
    fn two_shards(stream: &[Job], policy: fn() -> Box<dyn SchedPolicy>) -> [Vec<JobRecord>; 2] {
        let table = ModelTable::paper_defaults();
        let mut shards = [0, 1].map(|_| {
            let backend = ServiceBackend::analytic(table.clone());
            let mut s = ShardSim::new(table.clone(), 4, backend, policy());
            s.set_queue_limit(64);
            s
        });
        for (i, job) in stream.iter().enumerate() {
            for s in &mut shards {
                s.advance(job.arrival).expect("advance");
            }
            shards[i % 2].offer(*job).expect("offer");
            if i % 7 == 6 {
                let from = usize::from(shards[1].queue_depth() > shards[0].queue_depth());
                if let Some(stolen) = shards[from].steal() {
                    shards[1 - from].inject(stolen).expect("inject");
                }
            }
            if i == stream.len() / 2 {
                shards[0].quarantine(ClusterMask::first(3));
                for q in shards[0].evict_unservable() {
                    shards[0].reject_evicted(q);
                }
            }
        }
        shards.map(|mut s| {
            s.drain().expect("drain");
            s.drain_finished()
        })
    }

    /// Whole shards under the indexed pick log what shards under the
    /// slice oracle log, through steals, injections, a mid-stream
    /// quarantine and the evictions it forces.
    #[test]
    fn shards_match_the_slice_oracle() {
        for seed in 1..=4 {
            let stream = overloaded(seed, 600, 8);
            let indexed = two_shards(&stream, || Box::new(ModelGuided));
            assert_eq!(indexed, two_shards(&stream, || Box::new(SortThenScan)));
            let records = indexed.concat();
            let (mut lost, mut degraded) = (0, 0);
            for r in &records {
                match r.outcome {
                    JobOutcome::Offloaded { finish, .. } if finish > r.job.absolute_deadline() => {
                        lost += 1
                    }
                    JobOutcome::Rejected {
                        reason: RejectReason::DegradedMachine { .. },
                    } => degraded += 1,
                    _ => {}
                }
            }
            assert_eq!(records.len(), stream.len());
            assert!(
                lost > 0 && degraded > 0,
                "seed {seed}: {lost} lost, {degraded} degraded"
            );
        }
    }

    /// Closed runs under the indexed pick report what runs under the
    /// slice oracle report, including a second run on the same engine
    /// after quarantine shrank it.
    #[test]
    fn engine_runs_match_the_slice_oracle() {
        let table = ModelTable::paper_defaults();
        for seed in 1..=3 {
            let stream = overloaded(seed, 600, 8);
            let runs = |policy: &mut dyn SchedPolicy| {
                let backend = ServiceBackend::analytic(table.clone());
                let mut engine = Engine::new(table.clone(), 8, backend);
                let first = engine.run(&stream, policy).expect("run");
                engine.quarantine(ClusterMask::first(3));
                (first, engine.run(&stream, policy).expect("run"))
            };
            assert_eq!(runs(&mut ModelGuided), runs(&mut SortThenScan));
        }
    }

    /// FIFO never reads the deadline index, so neither a closed run (the
    /// loop `Engine::run` drives) nor a shard builds it; the model-guided
    /// packer does.
    #[test]
    fn fifo_never_builds_the_deadline_index() {
        let table = ModelTable::paper_defaults();
        let stream = overloaded(1, 300, 8);
        let closed = |policy: &mut dyn SchedPolicy| {
            let mut sched =
                SchedLoop::new(table.clone(), 8, ServiceBackend::analytic(table.clone()));
            sched.run(&stream, policy).expect("run");
            sched.ready.index_built()
        };
        assert!(!closed(&mut FifoFirstFit));
        assert!(closed(&mut ModelGuided));
        let mut s = shard(8, ServiceBackend::analytic(table.clone()));
        run_stream(&mut s, &stream);
        assert!(!s.sched.ready.index_built());
    }
}
