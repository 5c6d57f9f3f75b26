//! The assembled SoC and its event-driven offload execution.
//!
//! The substrate is a **concurrent-job SoC**: any number of in-flight
//! jobs on disjoint [`ClusterMask`] partitions share the one NoC switch
//! tree, the HBM bandwidth and atomic units, and the host's credit/IRQ
//! path. A session is opened with [`Soc::begin_jobs`], jobs enter via
//! [`Soc::submit_job`] and run concurrently in virtual time under
//! [`Soc::advance_jobs`], which delivers per-job [`JobCompletion`]
//! events. The host core is re-entrant but serial: marshalling,
//! dispatch and ISR work from different jobs interleave one at a time
//! (a job waiting on an IRQ releases the host; a spin-polling job holds
//! it, faithfully to a spinning CVA6). Cluster phases of different jobs
//! proceed truly concurrently, so NoC stalls, HBM queueing and AMO
//! serialization between tenants *emerge* from the shared resource
//! models and are attributed per job in [`ContentionReport`]s.
//!
//! The legacy single-job API, [`Soc::run_offload`], is a thin wrapper
//! over the same machinery (one submission at cycle 0, pumped to
//! quiescence) and is cycle-for-cycle and event-for-event identical to
//! the historical blocking implementation.

use std::collections::VecDeque;

use mpsoc_faults::{FaultInjector, FaultKind, FaultPlan, FaultStats};
use mpsoc_isa::{Interpreter, MemoryPort, PortError, Words};
use mpsoc_mem::{Addr, BankMode, ClusterReg, MainMemory, MemoryMap, Tcdm};
use mpsoc_noc::{ClusterMask, Interconnect};
use mpsoc_sim::stats::StatsRegistry;
use mpsoc_sim::{Cycle, EventQueue, Scheduler};
use mpsoc_telemetry::{EventKind, EventTrace, PhaseBreakdown, Unit};

use crate::cluster::ClusterState;
use crate::energy::EnergyActivity;
use crate::host::{HostOp, HostState, HostStatus};
use crate::{
    ClusterJob, ClusterPhase, ClusterTiming, HostProgram, OffloadOutcome, PhaseTimestamps,
    SocConfig, SocError,
};

/// Identifier of a job within a concurrent-SoC session.
///
/// IDs are assigned by [`Soc::submit_job`] starting at 1; ID 0 is
/// reserved for the legacy single-job path and renders as "untagged" in
/// telemetry, keeping single-job traces byte-identical.
pub type JobId = u64;

/// Simulation events of the SoC.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SocEvent {
    /// The host executes the next runtime op of the job in `slot`.
    HostStep {
        /// Job-slot index of the program being stepped.
        slot: usize,
    },
    /// One iteration of the software-barrier polling loop of `slot`.
    HostPoll {
        /// Job-slot index of the polling program.
        slot: usize,
    },
    /// The credit-counter completion interrupt for `slot` reaches the
    /// host.
    HostIrq {
        /// Job-slot index the interrupt belongs to.
        slot: usize,
    },
    /// A posted store arrives at a cluster mailbox register.
    MailboxWrite {
        /// Target cluster.
        cluster: usize,
        /// Target register.
        reg: ClusterReg,
        /// Stored value.
        value: u64,
    },
    /// The cluster controller finished waking from the doorbell.
    ClusterWake {
        /// Cluster index.
        cluster: usize,
    },
    /// The cluster fetched and decoded the job descriptor.
    ClusterDesc {
        /// Cluster index.
        cluster: usize,
    },
    /// The cluster's DMA engine pumps its next burst.
    DmaBurst {
        /// Cluster index.
        cluster: usize,
    },
    /// A cluster DMA task (one stage, one direction) finished.
    ClusterDmaTaskDone {
        /// Cluster index.
        cluster: usize,
        /// Pipeline stage index.
        stage: usize,
        /// Transfer direction.
        dir: DmaDirection,
    },
    /// All worker cores of the cluster halted for one stage.
    ClusterComputeDone {
        /// Cluster index.
        cluster: usize,
        /// Pipeline stage index.
        stage: usize,
    },
    /// A completion credit arrives at the credit-counter unit.
    CreditArrive {
        /// Originating cluster.
        cluster: usize,
    },
    /// A completion AMO arrives at the main-memory atomic unit.
    BarrierArrive {
        /// Originating cluster.
        cluster: usize,
        /// Barrier counter address.
        addr: Addr,
    },
}

/// Adapts a cluster TCDM to the core interpreter's [`MemoryPort`].
struct TcdmPort<'a> {
    tcdm: &'a mut Tcdm,
}

impl MemoryPort for TcdmPort<'_> {
    fn load(&mut self, addr: u64) -> Result<f64, PortError> {
        if addr % 8 != 0 {
            return Err(PortError { addr });
        }
        self.tcdm.read_f64(addr / 8).map_err(|_| PortError { addr })
    }

    fn store(&mut self, addr: u64, value: f64) -> Result<(), PortError> {
        if addr % 8 != 0 {
            return Err(PortError { addr });
        }
        self.tcdm
            .write_f64(addr / 8, value)
            .map_err(|_| PortError { addr })
    }

    fn grant(&mut self, addr: u64, at: Cycle) -> Cycle {
        self.tcdm.access(addr / 8, at)
    }

    fn conflict_free(&self) -> bool {
        self.tcdm.mode() == BankMode::Ideal
    }

    fn words(&mut self) -> Option<Words<'_>> {
        self.tcdm.ideal_words().map(Words::Bits)
    }
}

/// Direction of a cluster DMA task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmaDirection {
    /// Main memory → TCDM.
    In,
    /// TCDM → main memory.
    Out,
}

/// Per-cluster DMA chain state.
#[derive(Debug, Clone, Copy)]
struct DmaChain {
    stage: usize,
    dir: DmaDirection,
    remaining: u64,
    resume_slot: u64,
}

/// How far one delivery may run a DMA chain inline: no burst later than
/// `horizon`, and none past the session's `events`-th delivered event.
#[derive(Debug, Clone, Copy)]
struct Reach {
    horizon: Cycle,
    events: u64,
}

/// What the event loop's fast paths did over a SoC's life (test-only),
/// so an oracle comparison can show that it exercised each of them.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct FastPaths {
    /// Bursts booked by closed-form bookings of two or more bursts.
    closed_form_bursts: u64,
    /// Whole cycles folded in lockstep.
    lockstep_cycles: u64,
    /// Host steps run inline.
    inline_host_steps: u64,
}

/// Shared-resource interference charged to one job: the cycles this
/// job's own requests spent queued behind *other* traffic on the NoC
/// injection port, the HBM bandwidth queue and the memory atomic unit.
///
/// In a single-job run these are all zero (or whatever the job inflicts
/// on itself across its own clusters); under co-residency they grow
/// with the tenants sharing the machine — the quantity the solo-run
/// service model cannot see.
#[derive(Debug, Clone, Copy, Default, PartialEq, serde::Serialize)]
pub struct ContentionReport {
    /// Cycles the host stalled injecting this job's dispatch stores.
    pub noc_stall_cycles: u64,
    /// Cycles this job's HBM requests (DMA bursts and host-side
    /// marshalling traffic) queued behind already-reserved bandwidth.
    pub hbm_queue_cycles: f64,
    /// Cycles this job's barrier AMOs waited for the atomic unit.
    pub amo_wait_cycles: u64,
}

impl ContentionReport {
    /// Total interference in whole cycles (NoC stall + HBM queue + AMO
    /// wait), the scalar the scheduler reports per job.
    pub fn total_cycles(&self) -> u64 {
        self.noc_stall_cycles + self.hbm_queue_cycles.round() as u64 + self.amo_wait_cycles
    }
}

/// Delivered when a submitted job's host program reaches
/// [`HostOp::End`]: the per-job outcome plus session-level attribution.
#[derive(Debug, Clone)]
pub struct JobCompletion {
    /// The job's session ID.
    pub job: JobId,
    /// The partition it ran on.
    pub mask: ClusterMask,
    /// When the job was submitted (absolute session time).
    pub submitted_at: Cycle,
    /// When its host program ended (absolute session time).
    pub finished_at: Cycle,
    /// Cycles the job spent waiting for the serial host core while
    /// other jobs held it (admission queueing, ISR serialization).
    pub host_wait_cycles: u64,
    /// Shared-resource interference attributed to this job.
    pub contention: ContentionReport,
    /// The per-job outcome; timestamps are relative to `submitted_at`,
    /// so a solo job's outcome reads exactly like [`Soc::run_offload`]'s.
    pub outcome: OffloadOutcome,
    /// Bitmask of this job's clusters whose DMA engine flagged a CRC
    /// mismatch on a transferred burst — the *architecturally visible*
    /// corruption signal a runtime is allowed to act on. Zero on every
    /// fault-free run.
    pub corrupt_clusters: u64,
    /// Number of injected faults attributed to this job (diagnostic
    /// ground truth for reporting; recovery logic must key off
    /// observable signals — `corrupt_clusters`, missing completions —
    /// never off this count).
    pub faults_injected: u64,
}

/// What [`Soc::advance_jobs`] did.
#[derive(Debug)]
pub enum SessionProgress {
    /// A job completed (at `completion.finished_at` ≤ the horizon);
    /// events past that instant have not been processed yet.
    Completed(Box<JobCompletion>),
    /// Every event at or before the horizon was processed; jobs are
    /// still in flight.
    Horizon,
    /// The event queue drained: nothing is running or pending.
    Idle,
}

/// One in-flight (or finished) job of the current session.
#[derive(Debug)]
struct JobSlot {
    id: JobId,
    mask: ClusterMask,
    host: HostState,
    irq_pending: bool,
    credit: crate::CreditCounter,
    phases: PhaseTimestamps,
    activity: EnergyActivity,
    contention: ContentionReport,
    submitted_at: Cycle,
    /// Earliest cycle the job may (re)acquire the host.
    not_before: Cycle,
    host_wait_cycles: u64,
    /// TCDM conflict counters of `mask`'s clusters at submission, so the
    /// job is charged only its own conflicts when clusters are reused.
    conflict_base: Vec<u64>,
    /// Clusters whose DMA CRC flagged corruption (see [`JobCompletion`]).
    corrupt_clusters: u64,
    /// Injected faults attributed to this job so far.
    faults_injected: u64,
    done: bool,
}

/// The simulated heterogeneous MPSoC.
///
/// Construct with [`Soc::new`], load operand data through
/// [`Soc::main_mut`], bind one [`ClusterJob`] per selected cluster with
/// [`Soc::bind_job`], then execute a [`HostProgram`] with
/// [`Soc::run_offload`]. See the crate-level example.
#[derive(Debug)]
pub struct Soc {
    config: SocConfig,
    map: MemoryMap,
    main: MainMemory,
    noc: Interconnect,
    clusters: Vec<ClusterState>,
    tcdms: Vec<Tcdm>,
    dma: Vec<Option<DmaChain>>,
    // --- concurrent-job session state ---
    queue: EventQueue<SocEvent>,
    session_now: Cycle,
    events_delivered: u64,
    /// Events popped from `queue` (see [`Soc::events_popped`]).
    events_popped: u64,
    /// The clusters whose chains a lockstep fold runs, in queue order;
    /// kept across folds so a fold allocates nothing.
    fold_order: Vec<usize>,
    /// Test-only switch to the per-event oracle: every event goes
    /// through the queue, with no inline event, closed-form booking or
    /// lockstep fold.
    #[cfg(test)]
    per_event: bool,
    /// Test-only tally of the work the fast paths took off the queue.
    #[cfg(test)]
    fast_paths: FastPaths,
    jobs: Vec<JobSlot>,
    cluster_owner: Vec<Option<usize>>,
    host_active: Option<usize>,
    host_ready: VecDeque<usize>,
    next_job_id: JobId,
    completions: VecDeque<JobCompletion>,
    session_tcdm_conflicts: u64,
    stats_folded: bool,
    stats: StatsRegistry,
    telemetry: EventTrace,
    faults: FaultInjector,
    fatal: Option<SocError>,
}

impl Soc {
    /// Builds a SoC from a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::Config`] if the configuration is inconsistent.
    pub fn new(config: SocConfig) -> Result<Self, SocError> {
        config
            .validate()
            .map_err(|reason| SocError::Config { reason })?;
        let map = MemoryMap::with_tcdm_words(config.clusters, config.main_words, config.tcdm_words);
        let main = MainMemory::new(
            map.main_base(),
            config.main_words,
            config.mem_words_per_cycle,
            Cycle::new(config.mem_latency),
            Cycle::new(config.amo_service),
        );
        let noc = Interconnect::new(config.noc, config.clusters);
        let tcdms = (0..config.clusters)
            .map(|_| Tcdm::new(config.tcdm_words, config.tcdm_banks, config.bank_mode))
            .collect();
        let clusters = vec![ClusterState::default(); config.clusters];
        let dma = vec![None; config.clusters];
        let cluster_owner = vec![None; config.clusters];
        Ok(Soc {
            config,
            map,
            main,
            noc,
            clusters,
            tcdms,
            dma,
            queue: EventQueue::new(),
            session_now: Cycle::ZERO,
            events_delivered: 0,
            events_popped: 0,
            fold_order: Vec::new(),
            #[cfg(test)]
            per_event: false,
            #[cfg(test)]
            fast_paths: FastPaths::default(),
            jobs: Vec::new(),
            cluster_owner,
            host_active: None,
            host_ready: VecDeque::new(),
            next_job_id: 1,
            completions: VecDeque::new(),
            session_tcdm_conflicts: 0,
            stats_folded: false,
            stats: StatsRegistry::new(),
            telemetry: EventTrace::disabled(),
            faults: FaultInjector::noop(),
            fatal: None,
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// The SoC address map.
    pub fn map(&self) -> &MemoryMap {
        &self.map
    }

    /// Shared access to main memory (inspect results after an offload).
    pub fn main(&self) -> &MainMemory {
        &self.main
    }

    /// Mutable access to main memory (load operands before an offload).
    pub fn main_mut(&mut self) -> &mut MainMemory {
        &mut self.main
    }

    /// Collected statistics of the last offload.
    pub fn stats(&self) -> &StatsRegistry {
        &self.stats
    }

    /// Enables typed-event telemetry with the given event capacity.
    ///
    /// When disabled (the default) every recording site is a single
    /// branch, so simulated timing and results are byte-identical with
    /// and without telemetry.
    pub fn enable_telemetry(&mut self, capacity: usize) {
        self.telemetry = EventTrace::enabled(capacity);
    }

    /// The typed-event trace collected during the last offload (empty
    /// unless [`Soc::enable_telemetry`] was called).
    pub fn telemetry(&self) -> &EventTrace {
        &self.telemetry
    }

    /// Installs a fault-injection plan, distributing its sites to the
    /// hardware points they strike: NoC outage windows to the
    /// interconnect, AMO drops to main memory's atomic unit, and the
    /// remaining sites to the SoC's own dispatch/wake/credit/DMA hooks.
    ///
    /// A [`FaultPlan::none`] plan (the default) leaves every hook a
    /// single untaken branch: timing, results and artifacts are
    /// byte-identical to a build without fault injection.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.noc.set_outages(plan.noc_outages.clone());
        self.main.set_amo_faults(plan.site(FaultKind::AmoDrop));
        self.faults = FaultInjector::new(plan);
    }

    /// The installed fault injector (plan, ground-truth records,
    /// per-kind counts).
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// Aggregated injected-fault counts across every hardware point,
    /// including the sites owned by the interconnect (NoC outages) and
    /// main memory (AMO drops).
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = self.faults.stats();
        stats.noc_outage += self.noc.outage_deferrals();
        stats.amo_drop += self.main.amo_drops();
        stats
    }

    /// Whether `cluster` posted its completion signal for the job it is
    /// (or was last) running — the architecturally observable signal a
    /// watchdog uses to attribute a lost completion to the cluster that
    /// went dark.
    pub fn cluster_completed(&self, cluster: usize) -> bool {
        self.clusters[cluster].completed
    }

    /// Records a runtime-level recovery event (watchdog expiry,
    /// re-dispatch, quarantine) on the host telemetry track, tagged with
    /// the job it concerns. No-op while telemetry is disabled.
    pub fn record_recovery_event(&mut self, at: Cycle, kind: EventKind, job: JobId, arg: u64) {
        self.telemetry.set_job(job);
        self.telemetry.instant(at, Unit::Host, kind, arg);
    }

    /// Rolls the fault die for `kind` at `cluster`; on a strike records
    /// it everywhere it is observable (injector log, stats registry,
    /// telemetry, the owning job's diagnostic counter) and returns
    /// `true`. Disarmed sites return `false` on a single branch.
    fn fault_strikes(&mut self, at: Cycle, kind: FaultKind, cluster: usize) -> bool {
        let job = self.owner_of(cluster).map_or(0, |s| self.jobs[s].id);
        if !self.faults.fire(kind, at, Some(cluster), job) {
            return false;
        }
        self.log_fault(at, kind, cluster);
        true
    }

    /// Rolls the per-cluster flaky-DMA die for one burst on `cluster`
    /// (armed only for clusters in the plan's `flaky_clusters` mask);
    /// recorded exactly like a machine-wide DMA corruption strike.
    fn flaky_strikes(&mut self, at: Cycle, cluster: usize) -> bool {
        let job = self.owner_of(cluster).map_or(0, |s| self.jobs[s].id);
        if !self.faults.flaky_fire(at, cluster, job) {
            return false;
        }
        self.log_fault(at, FaultKind::DmaCorrupt, cluster);
        true
    }

    /// Records a fault whose decision was made by the plan itself (a
    /// statically dead cluster) rather than a per-occurrence die roll.
    fn note_fault(&mut self, at: Cycle, kind: FaultKind, cluster: usize) {
        let job = self.owner_of(cluster).map_or(0, |s| self.jobs[s].id);
        self.faults.note(kind, at, Some(cluster), job);
        self.log_fault(at, kind, cluster);
    }

    fn log_fault(&mut self, at: Cycle, kind: FaultKind, cluster: usize) {
        self.stats.incr(&format!("faults.{}", kind.name()));
        self.telemetry.instant(
            at,
            Unit::Cluster(cluster as u32),
            EventKind::FaultInject,
            kind as u64,
        );
        if let Some(slot) = self.owner_of(cluster) {
            self.jobs[slot].faults_injected += 1;
        }
    }

    /// Installs the job `cluster` will execute when its doorbell rings.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn bind_job(&mut self, cluster: usize, job: ClusterJob) {
        self.clusters[cluster].job = Some(job);
    }

    fn desc_fetch_cycles(&self) -> u64 {
        // Descriptor reads are small and served by a shared cache at the
        // tree root: constant latency, no bandwidth-queue serialization
        // (see DESIGN.md, "Calibration targets").
        self.noc.config().hop_latency.as_u64() * u64::from(self.noc.levels()) * 2
            + self.config.mem_latency
            + self
                .config
                .descriptor_words
                .div_ceil(self.config.mem_words_per_cycle)
    }

    fn fail(&mut self, error: SocError) {
        if self.fatal.is_none() {
            self.fatal = Some(error);
        }
    }

    /// The job slot currently owning `cluster`, if any.
    fn owner_of(&self, cluster: usize) -> Option<usize> {
        self.cluster_owner[cluster]
    }

    /// The HBM queueing delay (in cycles) a request entering at
    /// bandwidth slot `min_slot` is about to pay behind already-reserved
    /// traffic — the per-request quantity `contention.hbm.queue_cycles`
    /// aggregates, computed *before* acquiring so it can be attributed
    /// to the requesting job.
    fn hbm_queue_delay_from(&self, min_slot: u64) -> f64 {
        let free = self.main.next_free_bandwidth_slot();
        if free > min_slot {
            (free - min_slot) as f64 / self.config.mem_words_per_cycle as f64
        } else {
            0.0
        }
    }

    /// Starts one DMA task (one stage, one direction) on `cluster`'s
    /// engine; data is moved eagerly (the timing model alone decides
    /// *when* it completes).
    fn start_dma_task(
        &mut self,
        sched: &mut Scheduler<SocEvent>,
        at: Cycle,
        cluster: usize,
        stage: usize,
        dir: DmaDirection,
    ) -> Result<(), SocError> {
        let Some(job) = self.clusters[cluster].job.as_ref() else {
            return Err(SocError::MissingJob { cluster });
        };
        let transfers = match dir {
            DmaDirection::In => &job.stages[stage].dma_in,
            DmaDirection::Out => &job.stages[stage].dma_out,
        };
        let mut total = 0;
        for t in transfers {
            match dir {
                DmaDirection::In => {
                    self.tcdms[cluster].dma_in(
                        self.main.store(),
                        t.main_addr,
                        t.local_word,
                        t.words,
                    )?;
                }
                DmaDirection::Out => {
                    let tcdm = &self.tcdms[cluster];
                    tcdm.dma_out(self.main.store_mut(), t.local_word, t.main_addr, t.words)?;
                }
            }
            total += t.words;
        }
        let first = transfers.first().copied();
        if let Some(slot) = self.owner_of(cluster) {
            self.jobs[slot].activity.dma_words += total;
        }
        let corrupt = total > 0
            && (self.fault_strikes(at, FaultKind::DmaCorrupt, cluster)
                || self.flaky_strikes(at, cluster));
        if let (true, Some(t)) = (corrupt, first) {
            // A burst took a bit flip in flight. The engine's CRC check
            // flags the transfer (the observable signal recovery acts
            // on) but the corrupted data still lands, so a runtime that
            // ignores the flag computes a wrong result.
            match dir {
                DmaDirection::In => {
                    let w = self.tcdms[cluster].read_f64(t.local_word)?;
                    self.tcdms[cluster]
                        .write_f64(t.local_word, f64::from_bits(w.to_bits() ^ (1 << 42)))?;
                }
                DmaDirection::Out => {
                    let w = self.main.store().read_u64(t.main_addr)?;
                    self.main
                        .store_mut()
                        .write_u64(t.main_addr, w ^ (1 << 42))?;
                }
            }
            if let Some(slot) = self.owner_of(cluster) {
                self.jobs[slot].corrupt_clusters |= 1 << cluster;
            }
        }
        if total == 0 {
            sched.schedule_at(
                at,
                SocEvent::ClusterDmaTaskDone {
                    cluster,
                    stage,
                    dir,
                },
            );
            return Ok(());
        }
        self.dma[cluster] = Some(DmaChain {
            stage,
            dir,
            remaining: total,
            resume_slot: 0, // initialized on the first burst
        });
        sched.schedule_at(at, SocEvent::DmaBurst { cluster });
        Ok(())
    }

    /// Reserves HBM bandwidth for `cluster`'s next DMA burst at `now`
    /// and schedules what follows it.
    ///
    /// While words are left, the next burst runs right here, without a
    /// trip through the queue, when it [runs inline](Soc::runs_inline).
    /// An inline burst has the HBM to itself: nothing else is delivered
    /// before it, so it starts at its cycle's first bandwidth slot and
    /// queues behind nothing. So are the full bursts after it, one every
    /// `⌈dma_words_per_cycle / mem_words_per_cycle⌉` cycles, up to the
    /// next queued event, the horizon or the event budget: one booking
    /// ([`MainMemory::acquire_bandwidth_periodic`]) reserves them all,
    /// and the loop keeps the burst that ends the task. A chain due back
    /// in the queue next cycle may [fold in lockstep](Soc::lockstep)
    /// with the chains due then.
    fn handle_dma_burst(
        &mut self,
        sched: &mut Scheduler<SocEvent>,
        mut now: Cycle,
        cluster: usize,
        reach: Reach,
    ) {
        let Some(mut chain) = self.dma[cluster] else {
            return;
        };
        let width = self.config.dma_words_per_cycle;
        let mut inline = false;
        let done = loop {
            let steady = if inline {
                self.steady_bursts(sched, now, &chain, reach)
            } else {
                0
            };
            let done = if steady > 0 {
                let period = self.burst_period();
                let (end_slot, done) = self.main.acquire_bandwidth_periodic(
                    self.main.bandwidth_slot_of(now),
                    period * self.config.mem_words_per_cycle,
                    width,
                    steady,
                );
                chain.resume_slot = end_slot;
                chain.remaining -= steady * width;
                now += Cycle::new((steady - 1) * period);
                self.session_now = now;
                self.events_delivered += steady - 1;
                #[cfg(test)]
                if steady > 1 {
                    self.fast_paths.closed_form_bursts += steady;
                }
                done
            } else {
                self.book_burst(now, cluster, &mut chain)
            };
            if chain.remaining == 0 {
                break done;
            }
            let next = done.max(now + Cycle::new(1));
            if !self.runs_inline(sched, next, reach) {
                self.dma[cluster] = Some(chain);
                let folded =
                    next == now + Cycle::new(1) && self.lockstep(sched, cluster, next, reach);
                if !folded {
                    sched.schedule_at(next, SocEvent::DmaBurst { cluster });
                }
                return;
            }
            now = next;
            self.session_now = now;
            self.events_delivered += 1;
            inline = true;
        };
        self.dma[cluster] = None;
        let mut finish = done + Cycle::new(self.config.mem_latency);
        if self.fault_strikes(now, FaultKind::DmaStall, cluster) {
            // The engine wedged mid-burst and needed its internal
            // timeout to recover: the task completes late but intact.
            finish += Cycle::new(self.faults.dma_stall_cycles());
        }
        sched.schedule_at(
            finish,
            SocEvent::ClusterDmaTaskDone {
                cluster,
                stage: chain.stage,
                dir: chain.dir,
            },
        );
    }

    /// Cycles between the full bursts of a chain that queues behind
    /// nothing.
    fn burst_period(&self) -> u64 {
        self.config
            .dma_words_per_cycle
            .div_ceil(self.config.mem_words_per_cycle)
    }

    /// How many full bursts an inline `chain` books at once from `now`
    /// (see [`Soc::handle_dma_burst`]): the one at `now` and every
    /// [period](Soc::burst_period) after it that runs inline, as long as
    /// words are left for a last burst; 0 when the burst at `now` may be
    /// the last.
    fn steady_bursts(
        &self,
        sched: &Scheduler<SocEvent>,
        now: Cycle,
        chain: &DmaChain,
        reach: Reach,
    ) -> u64 {
        let full = (chain.remaining - 1) / self.config.dma_words_per_cycle;
        if full == 0 {
            return 0;
        }
        let period = self.burst_period();
        let mut later = (full - 1)
            .min(reach.horizon.saturating_sub(now).as_u64() / period)
            .min(reach.events.saturating_sub(self.events_delivered));
        if let Some(queued) = sched.peek_time() {
            later = later.min(queued.saturating_sub(now).as_u64().saturating_sub(1) / period);
        }
        1 + later
    }

    /// Books the next burst of `cluster`'s `chain` at `now`: reserves its
    /// HBM bandwidth and charges the queueing it pays behind other
    /// traffic to the cluster's owner. Returns when its words are in.
    fn book_burst(&mut self, now: Cycle, cluster: usize, chain: &mut DmaChain) -> Cycle {
        let burst = chain.remaining.min(self.config.dma_words_per_cycle);
        let min_slot = chain.resume_slot.max(self.main.bandwidth_slot_of(now));
        // Attribute the queueing this burst is about to pay (behind any
        // other job's reserved bandwidth) to the cluster's owner.
        let queued = self.hbm_queue_delay_from(min_slot);
        if queued > 0.0 {
            if let Some(slot) = self.owner_of(cluster) {
                self.jobs[slot].contention.hbm_queue_cycles += queued;
            }
            self.telemetry.instant(
                now,
                Unit::MainMem,
                EventKind::HbmQueue,
                queued.round() as u64,
            );
        }
        let (end_slot, done) = self.main.acquire_bandwidth_slots(min_slot, burst);
        chain.resume_slot = end_slot;
        chain.remaining -= burst;
        done
    }

    /// Folds the DMA chains due at `at` into this delivery: `cluster`'s,
    /// whose burst at `at` is not queued yet, and each chain whose burst
    /// is queued for `at`. Returns whether it folded them, having
    /// requeued every chain; `false` leaves the queue as it was.
    ///
    /// It folds when every event due before some cycle `end > at` is
    /// another chain's burst due at `at`, the `k` chains fit the HBM rate
    /// (`k·dma_words_per_cycle ≤ mem_words_per_cycle`), and each has
    /// words left past its burst in every folded cycle. Then, in every
    /// whole cycle from `at` to before `end`, within reach, the `k`
    /// chains burst in queue order, `cluster`'s last, each as a
    /// delivered burst would ([`Soc::book_burst`] under its owner's
    /// telemetry tag, counted and clocked like any event), and are
    /// requeued in that order.
    ///
    /// *Why it is exact:* the queue would deliver the same bursts in the
    /// same order. Each cycle before `end` holds nothing but the `k`
    /// bursts; a burst requeued in a cycle goes behind the bursts still
    /// due in it, so every cycle keeps the order of the one before; and
    /// no folded burst ends its task, so none schedules anything else.
    /// The chains stay in step: each is due at `at`, so its last burst
    /// ended by `at`'s first slot, and so did the HBM's last booking,
    /// `cluster`'s; the `k` bursts of a cycle then fill at most that
    /// cycle's slots, so each chain is due again the next cycle.
    fn lockstep(
        &mut self,
        sched: &mut Scheduler<SocEvent>,
        cluster: usize,
        at: Cycle,
        reach: Reach,
    ) -> bool {
        #[cfg(test)]
        if self.per_event {
            return false;
        }
        let width = self.config.dma_words_per_cycle;
        let rate = self.config.mem_words_per_cycle;
        if sched.peek_time() != Some(at) || width.saturating_mul(2) > rate {
            return false;
        }
        // Steady cycles left to every chain, and the last cycle before
        // any other event.
        let steady = |chain: Option<DmaChain>| chain.map_or(0, |c| (c.remaining - 1) / width);
        let mut cycles = steady(self.dma[cluster]);
        let mut last = reach.horizon;
        let mut chains = 1u64 << cluster;
        let mut due = 0;
        for pending in sched.pending() {
            match *pending.event() {
                SocEvent::DmaBurst { cluster: other }
                    if pending.time() == at && chains & (1 << other) == 0 =>
                {
                    chains |= 1 << other;
                    due += 1;
                    cycles = cycles.min(steady(self.dma[other]));
                }
                _ if pending.time() <= at => return false,
                _ => last = last.min(pending.time() - Cycle::new(1)),
            }
        }
        let k = due + 1;
        if due == 0 || last < at || width.saturating_mul(k) > rate {
            return false;
        }
        let cycles = cycles
            .min((last - at).as_u64() + 1)
            .min(reach.events.saturating_sub(self.events_delivered) / k);
        if cycles == 0 {
            return false;
        }
        // The queued bursts in queue order, then `cluster`'s.
        let mut order = std::mem::take(&mut self.fold_order);
        order.clear();
        for _ in 0..due {
            let taken = sched.take_next().map(|e| e.into_parts().1);
            let Some(SocEvent::DmaBurst { cluster: other }) = taken else {
                unreachable!("the scan found {due} bursts due first");
            };
            order.push(other);
        }
        order.push(cluster);
        let mut now = at;
        for _ in 0..cycles {
            for &other in &order {
                let mut chain = self.dma[other].expect("the scan found a chain");
                self.session_now = now;
                self.events_delivered += 1;
                self.telemetry
                    .set_job(self.event_job(&SocEvent::DmaBurst { cluster: other }));
                let done = self.book_burst(now, other, &mut chain);
                debug_assert!(done <= now + Cycle::new(1), "a folded chain fell behind");
                self.dma[other] = Some(chain);
            }
            now += Cycle::new(1);
        }
        #[cfg(test)]
        {
            self.fast_paths.lockstep_cycles += cycles;
        }
        for &other in &order {
            sched.schedule_at(now, SocEvent::DmaBurst { cluster: other });
        }
        self.fold_order = order;
        true
    }

    /// Whether an event due at `next`, which the delivery in progress
    /// would otherwise schedule, may run inline: within `reach` and
    /// strictly before every queued event. The queue would deliver it
    /// next anyway, because nothing else is due before it, anything an
    /// event schedules is due no earlier than that event, and a tie goes
    /// to the event already queued.
    fn runs_inline(&self, sched: &Scheduler<SocEvent>, next: Cycle, reach: Reach) -> bool {
        #[cfg(test)]
        if self.per_event {
            return false;
        }
        next <= reach.horizon
            && self.events_delivered < reach.events
            && sched.peek_time().map_or(true, |queued| next < queued)
    }

    /// Runs every worker core of `cluster` over `stage`'s programs from
    /// `start`; returns the latest finish time.
    fn run_cores(&mut self, start: Cycle, cluster: usize, stage: usize) -> Result<Cycle, SocError> {
        let state = &mut self.clusters[cluster];
        let Some(job) = state.job.as_ref() else {
            return Err(SocError::MissingJob { cluster });
        };
        let interpreter = Interpreter::with_timing(self.config.core_timing);
        let owner = self.cluster_owner[cluster];
        let mut latest = start;
        for (core, program) in job.stages[stage].programs.iter().enumerate() {
            let mut port = TcdmPort {
                tcdm: &mut self.tcdms[cluster],
            };
            let report = interpreter
                .run_from(program, start, &mut port)
                .map_err(|error| SocError::Core {
                    cluster,
                    core,
                    error,
                })?;
            latest = latest.max(report.finish);
            if let Some(slot) = owner {
                self.jobs[slot].activity.core_ops += report.retired;
            }
            state.core_reports.push(report);
        }
        Ok(latest)
    }

    /// The cluster pipeline scheduler: starts whatever DMA task and
    /// compute stage are ready, and posts the completion signal once
    /// every stage has drained.
    ///
    /// DMA policy: one engine, FCFS over ready tasks, earliest stage
    /// first; a ready DMA-out wins a tie against a later stage's DMA-in
    /// (draining frees the stage buffer).
    fn cluster_dispatch(&mut self, sched: &mut Scheduler<SocEvent>, at: Cycle, cluster: usize) {
        let stage_count = self.clusters[cluster].stages.len();

        // 1. DMA engine.
        if !self.clusters[cluster].dma_busy {
            // In(k) may only start once the buffer it writes (parity
            // k mod 2) is fully drained: stage k−2 computed *and* wrote
            // back. This is the double-buffering hazard gate.
            let stages = &self.clusters[cluster].stages;
            let next_in = stages.iter().enumerate().position(|(k, s)| {
                !s.in_started && (k < 2 || (stages[k - 2].compute_done && stages[k - 2].out_done))
            });
            let next_out = stages.iter().position(|s| s.compute_done && !s.out_started);
            let choice = match (next_in, next_out) {
                (Some(i), Some(o)) => Some(if o <= i {
                    (o, DmaDirection::Out)
                } else {
                    (i, DmaDirection::In)
                }),
                (Some(i), None) => Some((i, DmaDirection::In)),
                (None, Some(o)) => Some((o, DmaDirection::Out)),
                (None, None) => None,
            };
            if let Some((stage, dir)) = choice {
                {
                    let progress = &mut self.clusters[cluster].stages[stage];
                    match dir {
                        DmaDirection::In => progress.in_started = true,
                        DmaDirection::Out => progress.out_started = true,
                    }
                }
                self.clusters[cluster].dma_busy = true;
                let kind = match dir {
                    DmaDirection::In => EventKind::DmaIn,
                    DmaDirection::Out => EventKind::DmaOut,
                };
                self.clusters[cluster].dma_span =
                    self.telemetry
                        .begin(at, Unit::ClusterDma(cluster as u32), kind);
                if let Err(e) = self.start_dma_task(sched, at, cluster, stage, dir) {
                    self.fail(e);
                    return;
                }
            }
        }

        // 2. Worker cores: stages compute in order, each gated on its
        //    DMA-in.
        if !self.clusters[cluster].compute_busy {
            let next = self.clusters[cluster]
                .stages
                .iter()
                .position(|s| !s.compute_started);
            if let Some(stage) = next {
                if self.clusters[cluster].stages[stage].in_done {
                    self.clusters[cluster].stages[stage].compute_started = true;
                    self.clusters[cluster].compute_busy = true;
                    self.clusters[cluster].phase = ClusterPhase::Computing;
                    let start = at + Cycle::new(self.config.core_start_cycles);
                    self.clusters[cluster].compute_span = self.telemetry.begin(
                        start,
                        Unit::ClusterCores(cluster as u32),
                        EventKind::Compute,
                    );
                    let conflicts_before = self.tcdms[cluster].conflicts();
                    match self.run_cores(start, cluster, stage) {
                        Ok(finish) => {
                            let conflicts = self.tcdms[cluster].conflicts() - conflicts_before;
                            if conflicts > 0 {
                                self.telemetry.instant(
                                    start,
                                    Unit::ClusterCores(cluster as u32),
                                    EventKind::TcdmConflict,
                                    conflicts,
                                );
                            }
                            sched.schedule_at(
                                finish,
                                SocEvent::ClusterComputeDone { cluster, stage },
                            );
                        }
                        Err(e) => {
                            self.fail(e);
                            return;
                        }
                    }
                }
            }
        }

        // 3. Completion.
        let all_done = stage_count > 0 && self.clusters[cluster].stages.iter().all(|s| s.out_done);
        if all_done && !self.clusters[cluster].completed {
            self.clusters[cluster].completed = true;
            self.clusters[cluster].phase = ClusterPhase::Done;
            let Some(job) = self.clusters[cluster].job.as_ref() else {
                self.fail(SocError::MissingJob { cluster });
                return;
            };
            match job.completion {
                crate::CompletionSignal::Credit => {
                    let arrive = self.noc.credit_upstream(at, cluster);
                    sched.schedule_at(arrive, SocEvent::CreditArrive { cluster });
                }
                crate::CompletionSignal::Barrier { addr } => {
                    let arrive = self.noc.cluster_upstream(at, cluster);
                    sched.schedule_at(arrive, SocEvent::BarrierArrive { cluster, addr });
                }
            }
        }
    }

    /// Charges the HBM queueing delay a host-side transfer entering at
    /// `at` is about to pay to job `slot` — the same per-request quantity
    /// [`MainMemory::transfer`] folds into `contention.hbm.queue_cycles`,
    /// computed *before* acquiring so it can be attributed.
    fn charge_host_hbm_queue(&mut self, slot: usize, at: Cycle, words: u64) {
        if words == 0 {
            return;
        }
        let queued = self.hbm_queue_delay_from(self.main.bandwidth_slot_of(at));
        if queued > 0.0 {
            self.jobs[slot].contention.hbm_queue_cycles += queued;
        }
    }

    /// Hands the serial host core to `slot`; it resumes at `now` or its
    /// `not_before`, whichever is later, and the difference is charged as
    /// host-wait (time spent queued behind other tenants' host phases).
    fn activate_host(&mut self, sched: &mut Scheduler<SocEvent>, now: Cycle, slot: usize) {
        let start = now.max(self.jobs[slot].not_before);
        self.jobs[slot].host_wait_cycles +=
            start.saturating_sub(self.jobs[slot].not_before).as_u64();
        self.host_active = Some(slot);
        sched.schedule_at(start, SocEvent::HostStep { slot });
    }

    /// Releases the serial host core from `slot` and wakes the next
    /// queued job, if any.
    fn release_host(&mut self, sched: &mut Scheduler<SocEvent>, now: Cycle, slot: usize) {
        debug_assert_eq!(self.host_active, Some(slot));
        self.host_active = None;
        if let Some(next) = self.host_ready.pop_front() {
            self.activate_host(sched, now, next);
        }
    }

    /// Runs `slot`'s host ops from `now`. An op whose next op is due
    /// strictly before every queued event runs that op inline, under the
    /// rule DMA bursts use ([`Soc::runs_inline`]); the host steps of one
    /// job carry one telemetry tag, so an inline step is delivered
    /// exactly like a popped one.
    fn host_step(
        &mut self,
        sched: &mut Scheduler<SocEvent>,
        mut now: Cycle,
        slot: usize,
        reach: Reach,
    ) {
        while let Some(next) = self.host_op(sched, now, slot) {
            if !self.runs_inline(sched, next, reach) {
                sched.schedule_at(next, SocEvent::HostStep { slot });
                return;
            }
            now = next;
            self.session_now = now;
            self.events_delivered += 1;
            #[cfg(test)]
            {
                self.fast_paths.inline_host_steps += 1;
            }
        }
    }

    /// Executes `slot`'s current host op at `now`; returns when its next
    /// op is due, or `None` when the op parks the host, polls, ends the
    /// program or fails.
    fn host_op(
        &mut self,
        sched: &mut Scheduler<SocEvent>,
        now: Cycle,
        slot: usize,
    ) -> Option<Cycle> {
        match self.jobs[slot].host.current() {
            None => {
                let pc = self.jobs[slot].host.pc;
                self.fail(SocError::HostStalled { pc });
                None
            }
            Some(&HostOp::Compute(cycles)) => {
                let job = &mut self.jobs[slot];
                job.host.pc += 1;
                job.host.busy_cycles += cycles;
                Some(now + Cycle::new(cycles))
            }
            Some(HostOp::WriteWords { addr, values }) => {
                // The descriptor is written straight from the program.
                let count = values.len() as u64;
                let main = self.main.store_mut();
                let written = values
                    .iter()
                    .enumerate()
                    .try_for_each(|(i, v)| main.write_u64(addr.add_words(i as u64), *v));
                let job = &mut self.jobs[slot];
                job.host.pc += 1;
                job.host.busy_cycles += count;
                job.activity.mem_words += count;
                if let Err(e) = written {
                    self.fail(e.into());
                    return None;
                }
                self.charge_host_hbm_queue(slot, now, count);
                self.main.transfer(now, count);
                Some(now + Cycle::new(count))
            }
            Some(&HostOp::PrepareOperands { words }) => {
                let cycles = words.div_ceil(self.config.host_prep_words_per_cycle);
                {
                    let job = &mut self.jobs[slot];
                    job.host.pc += 1;
                    job.host.busy_cycles += cycles;
                    job.activity.mem_words += words;
                }
                self.charge_host_hbm_queue(slot, now, words);
                self.main.transfer(now, words);
                Some(now + Cycle::new(cycles))
            }
            Some(&HostOp::StoreMailbox {
                cluster,
                reg,
                value,
            }) => {
                self.jobs[slot].host.pc += 1;
                let d = self.noc.host_unicast(now, cluster);
                self.jobs[slot].activity.noc_stores += 1;
                self.telemetry
                    .instant(now, Unit::Host, EventKind::DispatchStart, cluster as u64);
                let stall = d
                    .injected
                    .saturating_sub(now + self.noc.config().inject_cycles);
                if stall > Cycle::ZERO {
                    self.jobs[slot].contention.noc_stall_cycles += stall.as_u64();
                    self.telemetry
                        .instant(now, Unit::Noc, EventKind::NocStall, stall.as_u64());
                }
                if !self.fault_strikes(d.delivered, FaultKind::DispatchDrop, cluster) {
                    sched.schedule_at(
                        d.delivered,
                        SocEvent::MailboxWrite {
                            cluster,
                            reg,
                            value,
                        },
                    );
                    if self.fault_strikes(d.delivered, FaultKind::DispatchDup, cluster) {
                        sched.schedule_at(
                            d.delivered + Cycle::new(1),
                            SocEvent::MailboxWrite {
                                cluster,
                                reg,
                                value,
                            },
                        );
                    }
                }
                Some(d.injected)
            }
            Some(&HostOp::MulticastMailbox { mask, reg, value }) => {
                self.jobs[slot].host.pc += 1;
                let mc = self.noc.host_multicast(now, mask);
                self.jobs[slot].activity.noc_stores += mc.delivered.len() as u64;
                self.telemetry.instant(
                    now,
                    Unit::Host,
                    EventKind::DispatchStart,
                    mc.delivered.len() as u64,
                );
                let stall = mc
                    .injected
                    .saturating_sub(now + self.noc.config().inject_cycles);
                if stall > Cycle::ZERO {
                    self.jobs[slot].contention.noc_stall_cycles += stall.as_u64();
                    self.telemetry
                        .instant(now, Unit::Noc, EventKind::NocStall, stall.as_u64());
                }
                for (cluster, at) in &mc.delivered {
                    if self.fault_strikes(*at, FaultKind::DispatchDrop, *cluster) {
                        continue;
                    }
                    sched.schedule_at(
                        *at,
                        SocEvent::MailboxWrite {
                            cluster: *cluster,
                            reg,
                            value,
                        },
                    );
                    if self.fault_strikes(*at, FaultKind::DispatchDup, *cluster) {
                        sched.schedule_at(
                            *at + Cycle::new(1),
                            SocEvent::MailboxWrite {
                                cluster: *cluster,
                                reg,
                                value,
                            },
                        );
                    }
                }
                Some(mc.injected)
            }
            Some(&HostOp::CreditArm { threshold }) => {
                let job = &mut self.jobs[slot];
                job.host.pc += 1;
                job.credit.arm(threshold);
                job.irq_pending = false;
                job.activity.sync_ops += 1;
                self.telemetry
                    .instant(now, Unit::CreditUnit, EventKind::CreditArm, threshold);
                Some(now + self.noc.config().inject_cycles)
            }
            Some(&HostOp::StoreUncachedMain { addr, value }) => {
                self.jobs[slot].host.pc += 1;
                if let Err(e) = self.main.store_mut().write_u64(addr, value) {
                    self.fail(e.into());
                    return None;
                }
                self.charge_host_hbm_queue(slot, now, 1);
                self.main.transfer(now, 1);
                self.jobs[slot].activity.mem_words += 1;
                Some(now + self.noc.config().inject_cycles)
            }
            Some(HostOp::PollUntilEq { .. }) => {
                // A spinning CVA6 holds the core: the host stays occupied
                // for the whole polling loop, faithful to the baseline.
                self.jobs[slot].host.status = HostStatus::Polling;
                sched.schedule_at(now, SocEvent::HostPoll { slot });
                None
            }
            Some(HostOp::WaitIrq) => {
                let job = &mut self.jobs[slot];
                if job.irq_pending {
                    job.irq_pending = false;
                    job.host.pc += 1;
                    return Some(now);
                }
                // Parking on the IRQ frees the serial host core for
                // whichever job is queued behind it.
                job.host.status = HostStatus::WaitingIrq;
                self.release_host(sched, now, slot);
                None
            }
            Some(HostOp::End) => {
                self.jobs[slot].host.status = HostStatus::Done(now);
                self.finish_job(now, slot);
                self.release_host(sched, now, slot);
                None
            }
        }
    }

    fn host_poll(&mut self, sched: &mut Scheduler<SocEvent>, now: Cycle, slot: usize) {
        let Some(&HostOp::PollUntilEq {
            addr,
            value,
            spin_cycles,
        }) = self.jobs[slot].host.current()
        else {
            return;
        };
        // The poll is a single-word uncached read on the configuration
        // sideband: it pays the full NoC round trip plus the memory
        // latency but does not contend with bulk DMA bandwidth (one word
        // against a 512-word/cycle HBM system).
        let one_way = self.noc.config().hop_latency * u64::from(self.noc.levels());
        let observed = match self.main.store().read_u64(addr) {
            Ok(v) => v,
            Err(e) => {
                self.fail(e.into());
                return;
            }
        };
        let arrival = now + one_way * 2 + Cycle::new(self.config.mem_latency);
        self.jobs[slot].activity.sync_ops += 1;
        self.telemetry
            .instant(now, Unit::Host, EventKind::BarrierPoll, observed);
        let job = &mut self.jobs[slot];
        job.host.poll_iterations += 1;
        job.host.busy_cycles += spin_cycles;
        if observed == value {
            job.phases.sync_done = arrival;
            job.host.pc += 1;
            job.host.status = HostStatus::Running;
            sched.schedule_at(arrival, SocEvent::HostStep { slot });
        } else {
            sched.schedule_at(
                arrival + Cycle::new(spin_cycles),
                SocEvent::HostPoll { slot },
            );
        }
    }

    /// The session job an event belongs to (0 = untagged): host events
    /// carry their slot, cluster/memory events resolve through the
    /// partition owner.
    fn event_job(&self, event: &SocEvent) -> JobId {
        let slot = match event {
            SocEvent::HostStep { slot }
            | SocEvent::HostPoll { slot }
            | SocEvent::HostIrq { slot } => Some(*slot),
            SocEvent::MailboxWrite { cluster, .. }
            | SocEvent::ClusterWake { cluster }
            | SocEvent::ClusterDesc { cluster }
            | SocEvent::DmaBurst { cluster }
            | SocEvent::ClusterDmaTaskDone { cluster, .. }
            | SocEvent::ClusterComputeDone { cluster, .. }
            | SocEvent::CreditArrive { cluster }
            | SocEvent::BarrierArrive { cluster, .. } => self.owner_of(*cluster),
        };
        slot.map_or(0, |s| self.jobs[s].id)
    }

    /// Seals job `slot` at its end time `now`: frees its partition,
    /// snapshots per-cluster results (timestamps shifted to be relative
    /// to the job's submission, so a solo job's outcome reads exactly
    /// like the legacy single-job path's) and queues the
    /// [`JobCompletion`].
    fn finish_job(&mut self, now: Cycle, slot: usize) {
        self.jobs[slot].done = true;
        let mask = self.jobs[slot].mask;
        for cluster in mask.iter() {
            self.cluster_owner[cluster] = None;
        }
        let submitted = self.jobs[slot].submitted_at;
        let total = now.saturating_sub(submitted);
        let rel = |t: Cycle| t.saturating_sub(submitted);

        let mut clusters = Vec::new();
        let mut core_reports = Vec::new();
        let mut tcdm_conflicts = 0;
        for (i, cluster) in mask.iter().enumerate() {
            let t = self.clusters[cluster].timing;
            clusters.push((
                cluster,
                ClusterTiming {
                    woken_at: rel(t.woken_at),
                    desc_at: rel(t.desc_at),
                    dma_in_at: rel(t.dma_in_at),
                    compute_at: rel(t.compute_at),
                    dma_out_at: rel(t.dma_out_at),
                    complete_at: rel(t.complete_at),
                },
            ));
            core_reports.push(self.clusters[cluster].core_reports.clone());
            tcdm_conflicts += self.tcdms[cluster].conflicts() - self.jobs[slot].conflict_base[i];
        }
        self.session_tcdm_conflicts += tcdm_conflicts;

        let events_delivered = self.events_delivered;
        let job = &mut self.jobs[slot];
        job.phases.host_issue_done = job.phases.host_issue_done.max(job.phases.last_dispatch);
        job.activity.host_cycles = job.host.busy_cycles;
        job.activity.cluster_cycles = mask.count() as u64 * total.as_u64();
        let energy = self.config.energy.evaluate(&job.activity);

        let phases = PhaseTimestamps {
            host_issue_done: rel(job.phases.host_issue_done),
            last_dispatch: rel(job.phases.last_dispatch),
            last_dma_in: rel(job.phases.last_dma_in),
            last_compute: rel(job.phases.last_compute),
            last_dma_out: rel(job.phases.last_dma_out),
            sync_done: rel(job.phases.sync_done),
        };
        let phase_breakdown = PhaseBreakdown::from_milestones(
            phases.last_dispatch,
            phases.last_dma_in,
            phases.last_compute,
            phases.last_dma_out,
            total,
        );
        let outcome = OffloadOutcome {
            total,
            phases,
            phase_breakdown,
            clusters,
            core_reports,
            energy,
            host_busy_cycles: job.host.busy_cycles,
            poll_iterations: job.host.poll_iterations,
            tcdm_conflicts,
            // Session-level counter at completion time; the single-job
            // wrapper overwrites this with the final count at quiescence.
            events_delivered,
        };
        self.completions.push_back(JobCompletion {
            job: job.id,
            mask,
            submitted_at: submitted,
            finished_at: now,
            host_wait_cycles: job.host_wait_cycles,
            contention: job.contention,
            outcome,
            corrupt_clusters: job.corrupt_clusters,
            faults_injected: job.faults_injected,
        });
    }
}

impl Soc {
    /// Handles one event at simulation time `now`; follow-up events go
    /// through `sched`, except the DMA bursts and host steps that run
    /// inline, and the bursts booked in closed form or folded in
    /// lockstep, within `reach`.
    fn handle(
        &mut self,
        sched: &mut Scheduler<SocEvent>,
        now: Cycle,
        event: SocEvent,
        reach: Reach,
    ) {
        if self.fatal.is_some() {
            return;
        }
        // Ambient attribution: every telemetry record produced while
        // handling this event is tagged with the owning job (0 when the
        // owner is the legacy wrapper or the partition is free).
        self.telemetry.set_job(self.event_job(&event));
        match event {
            SocEvent::HostStep { slot } => self.host_step(sched, now, slot, reach),
            SocEvent::HostPoll { slot } => self.host_poll(sched, now, slot),
            SocEvent::HostIrq { slot } => {
                self.jobs[slot].phases.sync_done = now;
                self.telemetry.instant(now, Unit::Host, EventKind::Irq, 0);
                match self.jobs[slot].host.status {
                    HostStatus::WaitingIrq => {
                        let job = &mut self.jobs[slot];
                        job.host.status = HostStatus::Running;
                        job.host.pc += 1;
                        // The ISR runs on the serial host core: take it
                        // if free, else queue behind the jobs holding it.
                        job.not_before = now;
                        if self.host_active.is_none() {
                            self.activate_host(sched, now, slot);
                        } else {
                            self.host_ready.push_back(slot);
                        }
                    }
                    _ => {
                        // IRQ raced ahead of WaitIrq; latch it.
                        self.jobs[slot].irq_pending = true;
                    }
                }
            }
            SocEvent::MailboxWrite {
                cluster,
                reg,
                value,
            } => match reg {
                ClusterReg::JobPtr => {
                    self.clusters[cluster].mailbox_job_ptr = value;
                }
                ClusterReg::Wakeup => {
                    if let Some(slot) = self.owner_of(cluster) {
                        let phases = &mut self.jobs[slot].phases;
                        phases.last_dispatch = phases.last_dispatch.max(now);
                    }
                    self.telemetry.instant(
                        now,
                        Unit::Cluster(cluster as u32),
                        EventKind::DispatchEnd,
                        0,
                    );
                    if self.clusters[cluster].phase == ClusterPhase::Idle {
                        if self.clusters[cluster].job.is_none() {
                            self.fail(SocError::MissingJob { cluster });
                            return;
                        }
                        if self.faults.cluster_is_dead(cluster) {
                            // A permanently dead core: the doorbell
                            // rings into silence, the cluster stays
                            // Idle and never completes.
                            self.note_fault(now, FaultKind::DeadCluster, cluster);
                            return;
                        }
                        self.clusters[cluster].phase = ClusterPhase::Waking;
                        self.clusters[cluster].timing.woken_at = now;
                        self.clusters[cluster].wake_span = self.telemetry.begin(
                            now,
                            Unit::Cluster(cluster as u32),
                            EventKind::Wake,
                        );
                        if self.fault_strikes(now, FaultKind::WakeLoss, cluster) {
                            // The doorbell latched but the wake-up
                            // sequencer glitched: the controller
                            // never comes out of reset this time.
                            return;
                        }
                        sched.schedule_at(
                            now + Cycle::new(self.config.cluster_wake_cycles),
                            SocEvent::ClusterWake { cluster },
                        );
                    }
                }
            },
            SocEvent::ClusterWake { cluster } => {
                self.clusters[cluster].phase = ClusterPhase::Fetching;
                let wake = std::mem::take(&mut self.clusters[cluster].wake_span);
                self.telemetry
                    .end(now, Unit::Cluster(cluster as u32), EventKind::Wake, wake);
                self.clusters[cluster].desc_span =
                    self.telemetry
                        .begin(now, Unit::Cluster(cluster as u32), EventKind::DescFetch);
                let fetched = now + Cycle::new(self.desc_fetch_cycles());
                if let Some(slot) = self.owner_of(cluster) {
                    self.jobs[slot].activity.mem_words += self.config.descriptor_words;
                }
                sched.schedule_at(fetched, SocEvent::ClusterDesc { cluster });
            }
            SocEvent::ClusterDesc { cluster } => {
                self.clusters[cluster].timing.desc_at = now;
                let desc = std::mem::take(&mut self.clusters[cluster].desc_span);
                self.telemetry.end(
                    now,
                    Unit::Cluster(cluster as u32),
                    EventKind::DescFetch,
                    desc,
                );
                self.clusters[cluster].phase = ClusterPhase::DmaIn;
                // Stage scalar args (plus the trailing zero word of the
                // kernel ABI) into the TCDM argument area.
                let Some(job) = self.clusters[cluster].job.as_ref() else {
                    self.fail(SocError::MissingJob { cluster });
                    return;
                };
                let (base, stage_count) = (job.args_local_word, job.stages.len());
                let tcdm = &mut self.tcdms[cluster];
                let staged = job
                    .args
                    .iter()
                    .chain([&0.0])
                    .enumerate()
                    .try_for_each(|(i, arg)| tcdm.write_f64(base + i as u64, *arg));
                if let Err(e) = staged {
                    self.fail(e.into());
                    return;
                }
                // Arm the pipeline and kick off the first stage.
                self.clusters[cluster].stages =
                    vec![crate::cluster::StageProgress::default(); stage_count];
                self.clusters[cluster].dma_busy = false;
                self.clusters[cluster].compute_busy = false;
                self.clusters[cluster].completed = false;
                let t0 = now + Cycle::new(self.config.cluster_setup_cycles);
                self.cluster_dispatch(sched, t0, cluster);
            }
            SocEvent::DmaBurst { cluster } => self.handle_dma_burst(sched, now, cluster, reach),
            SocEvent::ClusterDmaTaskDone {
                cluster,
                stage,
                dir,
            } => {
                self.clusters[cluster].dma_busy = false;
                let kind = match dir {
                    DmaDirection::In => EventKind::DmaIn,
                    DmaDirection::Out => EventKind::DmaOut,
                };
                let span = std::mem::take(&mut self.clusters[cluster].dma_span);
                self.telemetry
                    .end(now, Unit::ClusterDma(cluster as u32), kind, span);
                match dir {
                    DmaDirection::In => {
                        self.clusters[cluster].stages[stage].in_done = true;
                        self.clusters[cluster].timing.dma_in_at =
                            self.clusters[cluster].timing.dma_in_at.max(now);
                        if self.clusters[cluster].stages.iter().all(|s| s.in_done) {
                            if let Some(slot) = self.owner_of(cluster) {
                                let phases = &mut self.jobs[slot].phases;
                                phases.last_dma_in = phases.last_dma_in.max(now);
                            }
                        }
                    }
                    DmaDirection::Out => {
                        self.clusters[cluster].stages[stage].out_done = true;
                        self.clusters[cluster].timing.dma_out_at =
                            self.clusters[cluster].timing.dma_out_at.max(now);
                        if self.clusters[cluster].stages.iter().all(|s| s.out_done) {
                            if let Some(slot) = self.owner_of(cluster) {
                                let phases = &mut self.jobs[slot].phases;
                                phases.last_dma_out = phases.last_dma_out.max(now);
                            }
                        }
                    }
                }
                self.cluster_dispatch(sched, now, cluster);
            }
            SocEvent::ClusterComputeDone { cluster, stage } => {
                self.clusters[cluster].compute_busy = false;
                self.clusters[cluster].stages[stage].compute_done = true;
                let span = std::mem::take(&mut self.clusters[cluster].compute_span);
                self.telemetry.end(
                    now,
                    Unit::ClusterCores(cluster as u32),
                    EventKind::Compute,
                    span,
                );
                self.clusters[cluster].timing.compute_at =
                    self.clusters[cluster].timing.compute_at.max(now);
                if self.clusters[cluster].stages.iter().all(|s| s.compute_done) {
                    if let Some(slot) = self.owner_of(cluster) {
                        let phases = &mut self.jobs[slot].phases;
                        phases.last_compute = phases.last_compute.max(now);
                    }
                }
                self.cluster_dispatch(sched, now, cluster);
            }
            SocEvent::CreditArrive { cluster } => {
                self.clusters[cluster].timing.complete_at = now;
                self.stats.incr("credit.increments");
                self.telemetry.instant(
                    now,
                    Unit::CreditUnit,
                    EventKind::CreditReturn,
                    cluster as u64,
                );
                if let Some(slot) = self.owner_of(cluster) {
                    self.jobs[slot].activity.sync_ops += 1;
                    if self.fault_strikes(now, FaultKind::CreditLoss, cluster) {
                        // The increment wire glitched: the counter never
                        // sees this credit, the barrier wedges.
                        self.jobs[slot].credit.absorb_lost(now);
                    } else if let Some(fire_at) = self.jobs[slot].credit.increment(now) {
                        sched.schedule_at(
                            fire_at + Cycle::new(self.config.irq_latency),
                            SocEvent::HostIrq { slot },
                        );
                    }
                }
            }
            SocEvent::BarrierArrive { cluster, addr } => {
                self.clusters[cluster].timing.complete_at = now;
                self.stats.incr("barrier.amos");
                self.telemetry.instant(
                    now,
                    Unit::MainMem,
                    EventKind::BarrierArrive,
                    cluster as u64,
                );
                if let Some(slot) = self.owner_of(cluster) {
                    self.jobs[slot].activity.sync_ops += 1;
                }
                match self.main.amo_add(now, addr, 1) {
                    Ok((_, done)) => {
                        // Completion past the AMO's own service and access
                        // latency is time queued on the shared atomic unit.
                        let wait = done
                            .saturating_sub(now)
                            .as_u64()
                            .saturating_sub(self.config.amo_service + self.config.mem_latency);
                        if wait > 0 {
                            if let Some(slot) = self.owner_of(cluster) {
                                self.jobs[slot].contention.amo_wait_cycles += wait;
                            }
                        }
                    }
                    Err(e) => self.fail(e.into()),
                }
            }
        }
    }
}

impl Soc {
    /// Checks that every cluster in `mask` has a well-formed job bound.
    fn validate_bindings(&self, mask: ClusterMask) -> Result<(), SocError> {
        for cluster in mask.iter() {
            let state = &self.clusters[cluster];
            let Some(job) = &state.job else {
                return Err(SocError::MissingJob { cluster });
            };
            if job.stages.is_empty() {
                return Err(SocError::ProgramCount {
                    cluster,
                    got: 0,
                    want: self.config.cores_per_cluster,
                });
            }
            for stage in &job.stages {
                if stage.programs.len() != self.config.cores_per_cluster {
                    return Err(SocError::ProgramCount {
                        cluster,
                        got: stage.programs.len(),
                        want: self.config.cores_per_cluster,
                    });
                }
            }
        }
        Ok(())
    }

    /// Opens a concurrent-job session: clears execution and bookkeeping
    /// state from previous runs (operand data in main memory and cluster
    /// job bindings persist), so identical sessions replay identically.
    pub fn begin_jobs(&mut self) {
        self.queue.clear();
        self.session_now = Cycle::ZERO;
        self.events_delivered = 0;
        self.events_popped = 0;
        self.jobs.clear();
        self.cluster_owner.fill(None);
        self.host_active = None;
        self.host_ready.clear();
        self.next_job_id = 1;
        self.completions.clear();
        self.session_tcdm_conflicts = 0;
        self.stats_folded = false;
        self.stats.clear();
        self.telemetry.clear();
        // The ground-truth fault log is per-session; occurrence counters
        // are NOT reset, so a retry session rolls fresh dice (a
        // transient fault stays transient across re-dispatch).
        self.faults.clear_records();
        self.fatal = None;
        self.main.reset_timing();
        self.noc.reset();
        for cluster in &mut self.clusters {
            cluster.phase = ClusterPhase::Idle;
            cluster.timing = Default::default();
            cluster.core_reports.clear();
            cluster.stages.clear();
            cluster.dma_busy = false;
            cluster.compute_busy = false;
            cluster.completed = false;
            cluster.wake_span = 0;
            cluster.desc_span = 0;
            cluster.dma_span = 0;
            cluster.compute_span = 0;
        }
        for tcdm in &mut self.tcdms {
            tcdm.reset_timing();
        }
        self.dma.fill(None);
    }

    /// Submits a job into the open session at absolute session time `at`
    /// (clamped up to the current session time): its host program starts
    /// marshalling as soon as the serial host core is free. Returns the
    /// assigned [`JobId`].
    ///
    /// # Errors
    ///
    /// - [`SocError::MissingJob`] / [`SocError::ProgramCount`] for
    ///   inconsistent bindings on `mask`,
    /// - [`SocError::PartitionOverlap`] if any cluster in `mask` belongs
    ///   to a job still in flight.
    pub fn submit_job(
        &mut self,
        program: HostProgram,
        mask: ClusterMask,
        at: Cycle,
    ) -> Result<JobId, SocError> {
        let id = self.next_job_id;
        self.submit_with_id(id, program, mask, at)?;
        self.next_job_id += 1;
        Ok(id)
    }

    fn submit_with_id(
        &mut self,
        id: JobId,
        program: HostProgram,
        mask: ClusterMask,
        at: Cycle,
    ) -> Result<(), SocError> {
        self.validate_bindings(mask)?;
        self.check_partition(mask)?;
        let at = at.max(self.session_now);
        let slot = self.jobs.len();
        let conflict_base = mask.iter().map(|c| self.tcdms[c].conflicts()).collect();
        for cluster in mask.iter() {
            self.cluster_owner[cluster] = Some(slot);
            // Re-arm cluster execution state: a partition may be reused
            // by successive jobs within one session.
            let state = &mut self.clusters[cluster];
            state.phase = ClusterPhase::Idle;
            state.timing = Default::default();
            state.core_reports.clear();
            state.stages.clear();
            state.dma_busy = false;
            state.compute_busy = false;
            state.completed = false;
            state.wake_span = 0;
            state.desc_span = 0;
            state.dma_span = 0;
            state.compute_span = 0;
            self.dma[cluster] = None;
        }
        self.jobs.push(JobSlot {
            id,
            mask,
            host: HostState::new(program),
            irq_pending: false,
            credit: crate::CreditCounter::new(),
            phases: PhaseTimestamps::default(),
            activity: EnergyActivity::default(),
            contention: ContentionReport::default(),
            submitted_at: at,
            not_before: at,
            host_wait_cycles: 0,
            conflict_base,
            corrupt_clusters: 0,
            faults_injected: 0,
            done: false,
        });
        if self.host_active.is_none() {
            // The host is free: the job starts marshalling at `at`.
            self.host_active = Some(slot);
            self.queue.push(at, SocEvent::HostStep { slot });
        } else {
            self.host_ready.push_back(slot);
        }
        Ok(())
    }

    /// Checks that no cluster of `mask` belongs to a job still in flight
    /// in the open session. Clusters past the end of the machine are left
    /// to the caller's range checks.
    ///
    /// A runtime that binds jobs before [`Soc::submit_job`] must call
    /// this first: [`Soc::bind_job`] on a live tenant's cluster replaces
    /// that tenant's job.
    ///
    /// # Errors
    ///
    /// [`SocError::PartitionOverlap`] naming the lowest such cluster.
    pub fn check_partition(&self, mask: ClusterMask) -> Result<(), SocError> {
        match mask
            .iter()
            .find(|&cluster| matches!(self.cluster_owner.get(cluster), Some(Some(_))))
        {
            Some(cluster) => Err(SocError::PartitionOverlap { cluster }),
            None => Ok(()),
        }
    }

    /// Delivers the next scheduled event, plus what it runs inline or
    /// folds within `reach`; returns the popped event's time, or `None`
    /// when the queue has drained.
    fn pump_one(&mut self, reach: Reach) -> Option<Cycle> {
        let scheduled = self.queue.pop()?;
        let (time, event) = scheduled.into_parts();
        self.session_now = time;
        self.events_delivered += 1;
        self.events_popped += 1;
        // Detach the queue so the handler can borrow `self` mutably; new
        // events land in the same queue object, preserving FIFO order.
        let mut queue = std::mem::replace(&mut self.queue, EventQueue::new());
        let mut sched = Scheduler::attach(&mut queue, time);
        self.handle(&mut sched, time, event, reach);
        debug_assert!(self.queue.is_empty());
        self.queue = queue;
        Some(time)
    }

    /// Advances the session until the next job completion, the `horizon`
    /// (inclusive), or quiescence — whichever comes first. On a
    /// completion, events past the completion instant have not been
    /// processed yet, so callers observe completions in order.
    ///
    /// # Errors
    ///
    /// Propagates the first fatal error ([`SocError::Core`],
    /// [`SocError::Memory`], [`SocError::HostStalled`]) raised by any
    /// job; the session is dead afterwards.
    pub fn advance_jobs(&mut self, horizon: Cycle) -> Result<SessionProgress, SocError> {
        let _prof = mpsoc_sim::profile::scope("soc.session.advance");
        loop {
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
            if let Some(done) = self.completions.pop_front() {
                return Ok(SessionProgress::Completed(Box::new(done)));
            }
            match self.queue.peek_time() {
                None => return Ok(SessionProgress::Idle),
                Some(t) if t > horizon => return Ok(SessionProgress::Horizon),
                Some(_) => {
                    // Nothing runs inline after a completion or a
                    // failure, so this loop would pump each inline event
                    // anyway.
                    self.pump_one(Reach {
                        horizon,
                        events: u64::MAX,
                    });
                }
            }
        }
    }

    /// Current session virtual time: the timestamp of the last delivered
    /// event.
    pub fn session_now(&self) -> Cycle {
        self.session_now
    }

    /// Events of the current session that the event queue delivered.
    /// The rest of the events delivered ran without a heap pop: DMA
    /// bursts and host steps due strictly before every queued event
    /// (bursts with the HBM to themselves booked in closed form), and
    /// the bursts of chains folded in lockstep. The bursts a fold takes
    /// back out of the queue and requeues are not counted.
    pub fn events_popped(&self) -> u64 {
        self.events_popped
    }

    /// Jobs submitted this session that have not yet completed.
    pub fn jobs_in_flight(&self) -> usize {
        self.jobs.iter().filter(|j| !j.done).count()
    }

    /// Folds the per-resource contention registries (NoC, main memory,
    /// TCDM) into the session stats under the stable `contention.*`
    /// prefix, plus per-job tagged copies (`contention.job<id>.*`) of
    /// each job's attributed share. Idempotent within one session; call
    /// after the last completion.
    pub fn fold_session_stats(&mut self) {
        if self.stats_folded {
            return;
        }
        self.stats_folded = true;
        self.stats.merge(self.noc.stats());
        self.stats.merge(&self.main.stats());
        self.stats.add(
            "contention.tcdm.bank_conflicts",
            self.session_tcdm_conflicts,
        );
        for job in &self.jobs {
            if job.id == 0 {
                continue;
            }
            let prefix = format!("contention.job{}", job.id);
            self.stats.add(
                &format!("{prefix}.noc_stall_cycles"),
                job.contention.noc_stall_cycles,
            );
            self.stats.add(
                &format!("{prefix}.hbm_queue_cycles"),
                job.contention.hbm_queue_cycles.round() as u64,
            );
            self.stats.add(
                &format!("{prefix}.amo_wait_cycles"),
                job.contention.amo_wait_cycles,
            );
            self.stats
                .add(&format!("{prefix}.host_wait_cycles"), job.host_wait_cycles);
        }
    }

    /// Runs one offload: executes `program` on the host against the jobs
    /// bound to the clusters in `mask`, from cycle 0 to host completion.
    ///
    /// This is the legacy single-job path, now a thin wrapper over the
    /// concurrent-job session machinery (one submission at cycle 0,
    /// pumped to quiescence) — cycle-for-cycle and event-for-event
    /// identical to the historical blocking implementation.
    ///
    /// # Errors
    ///
    /// - [`SocError::MissingJob`] / [`SocError::ProgramCount`] for
    ///   inconsistent bindings,
    /// - [`SocError::Core`] / [`SocError::Memory`] for faults during
    ///   execution,
    /// - [`SocError::HostStalled`] if the simulation ends without the
    ///   host program reaching [`HostOp::End`] (e.g. a completion signal
    ///   that can never fire).
    pub fn run_offload(
        &mut self,
        program: HostProgram,
        mask: ClusterMask,
    ) -> Result<OffloadOutcome, SocError> {
        // Validate before touching any state: binding errors must leave
        // the SoC exactly as it was (historical behaviour).
        self.validate_bindings(mask)?;
        self.begin_jobs();
        self.submit_with_id(0, program, mask, Cycle::ZERO)
            .expect("bindings validated and no job in flight");
        // 50M delivered events is far beyond any legitimate offload in
        // this study; hitting it means a stuck polling loop.
        let reach = Reach {
            horizon: Cycle::MAX,
            events: 50_000_000,
        };
        while self.events_delivered < reach.events && self.pump_one(reach).is_some() {}
        if let Some(error) = self.fatal.take() {
            return Err(error);
        }
        let Some(completion) = self.completions.pop_front() else {
            // Quiescent (or budget-exhausted) without End: the host hung.
            return Err(SocError::HostStalled {
                pc: self.jobs[0].host.pc,
            });
        };
        self.fold_session_stats();
        let mut outcome = completion.outcome;
        outcome.events_delivered = self.events_delivered;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterJob, CompletionSignal, Transfer};
    use mpsoc_isa::{FpReg, IntReg, Program, ProgramBuilder};

    fn nop_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.halt();
        b.build().unwrap()
    }

    fn nop_job(completion: CompletionSignal, cores: usize) -> ClusterJob {
        ClusterJob::single(
            vec![nop_program(); cores],
            vec![],
            vec![],
            vec![],
            0,
            completion,
        )
    }

    fn small_soc(clusters: usize) -> Soc {
        let mut cfg = SocConfig::with_clusters(clusters);
        cfg.cores_per_cluster = 2;
        Soc::new(cfg).unwrap()
    }

    /// Only an ideal TCDM lends its words to the interpreter. A banked
    /// one lends none, so a loop that an ideal TCDM would run on lent
    /// words runs op by op there, every access arbitrated: a second core
    /// streaming over the same banks from the same cycle conflicts, and
    /// the conflict is counted.
    #[test]
    fn a_banked_tcdm_port_lends_nothing_and_counts_conflicts() {
        let (p, n) = (IntReg::new(1), IntReg::new(2));
        let mut b = ProgramBuilder::new();
        b.li(p, 0);
        b.li(n, 32);
        let top = b.label();
        b.bind(top);
        b.fld(FpReg::new(0), p, 0);
        b.fsd(FpReg::new(0), p, 256);
        b.addi(p, p, 8);
        b.addi(n, n, -1);
        b.bnez(n, top);
        b.halt();
        let program = b.build().unwrap();
        let interpreter = Interpreter::new();
        for mode in [BankMode::Ideal, BankMode::Banked] {
            let mut tcdm = Tcdm::new(128, 32, mode);
            let mut port = TcdmPort { tcdm: &mut tcdm };
            assert_eq!(port.words().is_some(), mode == BankMode::Ideal);
            let first = interpreter.run(&program, &mut port).unwrap();
            let second = interpreter.run(&program, &mut port).unwrap();
            assert_eq!(first.mem_ops, 64);
            match mode {
                BankMode::Ideal => {
                    assert_eq!(second.finish, first.finish);
                    assert_eq!(tcdm.conflicts(), 0);
                }
                BankMode::Banked => {
                    assert!(second.finish > first.finish, "{second:?} vs {first:?}");
                    assert!(tcdm.conflicts() > 0);
                }
            }
        }
    }

    #[test]
    fn credit_offload_round_trip() {
        let mut soc = small_soc(2);
        for c in 0..2 {
            soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
        }
        let program = HostProgram::new(vec![
            HostOp::Compute(50),
            HostOp::CreditArm { threshold: 2 },
            HostOp::MulticastMailbox {
                mask: ClusterMask::first(2),
                reg: ClusterReg::Wakeup,
                value: 1,
            },
            HostOp::WaitIrq,
            HostOp::Compute(60),
            HostOp::End,
        ]);
        let outcome = soc.run_offload(program, ClusterMask::first(2)).unwrap();
        assert!(outcome.total > Cycle::new(110));
        assert_eq!(outcome.clusters.len(), 2);
        assert_eq!(outcome.poll_iterations, 0);
        assert!(outcome.phases.sync_done > outcome.phases.last_dispatch);
        assert!(outcome.energy.total_pj() > 0.0);
    }

    #[test]
    fn barrier_offload_round_trip() {
        let mut soc = small_soc(2);
        let barrier = soc.map().main_base().add_words(100);
        for c in 0..2 {
            soc.bind_job(c, nop_job(CompletionSignal::Barrier { addr: barrier }, 2));
        }
        let program = HostProgram::new(vec![
            HostOp::StoreUncachedMain {
                addr: barrier,
                value: 0,
            },
            HostOp::StoreMailbox {
                cluster: 0,
                reg: ClusterReg::Wakeup,
                value: 1,
            },
            HostOp::StoreMailbox {
                cluster: 1,
                reg: ClusterReg::Wakeup,
                value: 1,
            },
            HostOp::PollUntilEq {
                addr: barrier,
                value: 2,
                spin_cycles: 4,
            },
            HostOp::End,
        ]);
        let outcome = soc.run_offload(program, ClusterMask::first(2)).unwrap();
        assert!(outcome.poll_iterations >= 1);
        assert_eq!(soc.main().store().read_u64(barrier).unwrap(), 2);
        assert!(outcome.total > Cycle::ZERO);
    }

    #[test]
    fn dma_moves_real_data_and_cores_compute() {
        // One cluster, one core: DMA in two words, scale by arg via a tiny
        // program, DMA result back out.
        let mut cfg = SocConfig::with_clusters(1);
        cfg.cores_per_cluster = 1;
        let mut soc = Soc::new(cfg).unwrap();
        let base = soc.map().main_base();
        soc.main_mut()
            .store_mut()
            .write_f64_slice(base, &[3.0, 4.0])
            .unwrap();

        // Program: y[i] = a * x[i] for 2 elements, all in TCDM.
        // Layout: x at words 0..2, result at 2..4, args at word 10.
        let mut b = ProgramBuilder::new();
        let (x1, x2, x4) = (IntReg::new(1), IntReg::new(2), IntReg::new(4));
        b.li(x1, 0);
        b.li(x2, 16);
        b.li(x4, 80);
        b.fld(FpReg::new(31), x4, 0);
        for i in 0..2 {
            b.fld(FpReg::new(0), x1, i * 8);
            b.fmul(FpReg::new(1), FpReg::new(31), FpReg::new(0));
            b.fsd(FpReg::new(1), x2, i * 8);
        }
        b.halt();
        let program = b.build().unwrap();

        let job = ClusterJob::single(
            vec![program],
            vec![Transfer {
                main_addr: base,
                local_word: 0,
                words: 2,
            }],
            vec![Transfer {
                main_addr: base.add_words(8),
                local_word: 2,
                words: 2,
            }],
            vec![10.0],
            10,
            CompletionSignal::Credit,
        );
        soc.bind_job(0, job);

        let hp = HostProgram::new(vec![
            HostOp::CreditArm { threshold: 1 },
            HostOp::StoreMailbox {
                cluster: 0,
                reg: ClusterReg::Wakeup,
                value: 1,
            },
            HostOp::WaitIrq,
            HostOp::End,
        ]);
        let outcome = soc.run_offload(hp, ClusterMask::single(0)).unwrap();
        let result = soc
            .main()
            .store()
            .read_f64_slice(base.add_words(8), 2)
            .unwrap();
        assert_eq!(result, vec![30.0, 40.0]);
        let (_, timing) = outcome.clusters[0];
        assert!(timing.dma_in_at > timing.desc_at);
        assert!(timing.compute_at > timing.dma_in_at);
        assert!(timing.dma_out_at > timing.compute_at);
        assert!(timing.complete_at > timing.dma_out_at);
        assert!(outcome.total > timing.complete_at);
    }

    #[test]
    fn missing_job_is_reported() {
        let mut soc = small_soc(2);
        soc.bind_job(0, nop_job(CompletionSignal::Credit, 2));
        let hp = HostProgram::new(vec![HostOp::End]);
        let err = soc.run_offload(hp, ClusterMask::first(2)).unwrap_err();
        assert!(matches!(err, SocError::MissingJob { cluster: 1 }));
    }

    #[test]
    fn wrong_program_count_is_reported() {
        let mut soc = small_soc(1);
        soc.bind_job(0, nop_job(CompletionSignal::Credit, 5));
        let hp = HostProgram::new(vec![HostOp::End]);
        let err = soc.run_offload(hp, ClusterMask::single(0)).unwrap_err();
        assert!(matches!(
            err,
            SocError::ProgramCount {
                cluster: 0,
                got: 5,
                want: 2
            }
        ));
    }

    #[test]
    fn host_waiting_for_impossible_irq_stalls() {
        let mut soc = small_soc(1);
        soc.bind_job(0, nop_job(CompletionSignal::Credit, 2));
        // Threshold 2 but only one cluster completes: the IRQ never fires.
        let hp = HostProgram::new(vec![
            HostOp::CreditArm { threshold: 2 },
            HostOp::StoreMailbox {
                cluster: 0,
                reg: ClusterReg::Wakeup,
                value: 1,
            },
            HostOp::WaitIrq,
            HostOp::End,
        ]);
        let err = soc.run_offload(hp, ClusterMask::single(0)).unwrap_err();
        assert!(matches!(err, SocError::HostStalled { .. }));
    }

    #[test]
    fn irq_racing_ahead_of_wait_is_latched() {
        let mut soc = small_soc(1);
        soc.bind_job(0, nop_job(CompletionSignal::Credit, 2));
        // A long Compute keeps the host busy past cluster completion, so
        // HostIrq is delivered while the host is still Running.
        let hp = HostProgram::new(vec![
            HostOp::CreditArm { threshold: 1 },
            HostOp::StoreMailbox {
                cluster: 0,
                reg: ClusterReg::Wakeup,
                value: 1,
            },
            HostOp::Compute(100_000),
            HostOp::WaitIrq,
            HostOp::End,
        ]);
        let outcome = soc.run_offload(hp, ClusterMask::single(0)).unwrap();
        assert!(outcome.total >= Cycle::new(100_000));
    }

    #[test]
    fn multiple_offloads_on_one_soc_are_independent() {
        let mut soc = small_soc(1);
        soc.bind_job(0, nop_job(CompletionSignal::Credit, 2));
        let hp = || {
            HostProgram::new(vec![
                HostOp::CreditArm { threshold: 1 },
                HostOp::StoreMailbox {
                    cluster: 0,
                    reg: ClusterReg::Wakeup,
                    value: 1,
                },
                HostOp::WaitIrq,
                HostOp::End,
            ])
        };
        let a = soc.run_offload(hp(), ClusterMask::single(0)).unwrap();
        let b = soc.run_offload(hp(), ClusterMask::single(0)).unwrap();
        assert_eq!(a.total, b.total, "offloads must be reproducible");
    }

    #[test]
    fn telemetry_trace_validates_and_phases_sum_to_total() {
        let mut soc = small_soc(2);
        for c in 0..2 {
            soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
        }
        soc.enable_telemetry(4096);
        let program = HostProgram::new(vec![
            HostOp::CreditArm { threshold: 2 },
            HostOp::MulticastMailbox {
                mask: ClusterMask::first(2),
                reg: ClusterReg::Wakeup,
                value: 1,
            },
            HostOp::WaitIrq,
            HostOp::End,
        ]);
        let outcome = soc.run_offload(program, ClusterMask::first(2)).unwrap();

        // The typed trace exports as schema-valid Chrome trace JSON.
        let json = mpsoc_telemetry::chrome_trace_json(soc.telemetry());
        let summary = mpsoc_telemetry::validate_chrome_trace(&json).expect("valid trace");
        assert!(summary.events > 0);
        assert!(summary.spans >= 4, "wake + desc-fetch spans per cluster");

        // Phase attribution sums exactly to the end-to-end runtime.
        let pb = outcome.phase_breakdown;
        assert_eq!(
            pb.dispatch + pb.dma_in + pb.compute + pb.dma_out + pb.sync,
            outcome.total.as_u64(),
            "no unattributed cycles"
        );
        assert!(pb.dispatch > 0);
        assert!(pb.sync > 0);
    }

    #[test]
    fn telemetry_does_not_perturb_timing() {
        let run = |telemetry: bool| {
            let mut soc = small_soc(2);
            for c in 0..2 {
                soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
            }
            if telemetry {
                soc.enable_telemetry(4096);
            }
            let program = HostProgram::new(vec![
                HostOp::CreditArm { threshold: 2 },
                HostOp::MulticastMailbox {
                    mask: ClusterMask::first(2),
                    reg: ClusterReg::Wakeup,
                    value: 1,
                },
                HostOp::WaitIrq,
                HostOp::End,
            ]);
            soc.run_offload(program, ClusterMask::first(2)).unwrap()
        };
        let plain = run(false);
        let traced = run(true);
        assert_eq!(plain.total, traced.total);
        assert_eq!(plain.phases, traced.phases);
        assert_eq!(plain.phase_breakdown, traced.phase_breakdown);
    }

    #[test]
    fn telemetry_trace_is_reproducible() {
        let run = || {
            let mut soc = small_soc(2);
            for c in 0..2 {
                soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
            }
            soc.enable_telemetry(4096);
            let program = HostProgram::new(vec![
                HostOp::CreditArm { threshold: 2 },
                HostOp::MulticastMailbox {
                    mask: ClusterMask::first(2),
                    reg: ClusterReg::Wakeup,
                    value: 1,
                },
                HostOp::WaitIrq,
                HostOp::End,
            ]);
            soc.run_offload(program, ClusterMask::first(2)).unwrap();
            mpsoc_telemetry::chrome_trace_json(soc.telemetry())
        };
        assert_eq!(run(), run(), "equal inputs must give byte-identical traces");
    }

    #[test]
    fn contention_counters_surface_in_offload_stats() {
        let mut soc = small_soc(8);
        for c in 0..8 {
            soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
        }
        let mut ops = vec![HostOp::CreditArm { threshold: 8 }];
        for c in 0..8 {
            ops.push(HostOp::StoreMailbox {
                cluster: c,
                reg: ClusterReg::Wakeup,
                value: 1,
            });
        }
        ops.push(HostOp::WaitIrq);
        ops.push(HostOp::End);
        soc.run_offload(HostProgram::new(ops), ClusterMask::first(8))
            .unwrap();
        // The per-resource registries are folded into the offload stats
        // under the stable prefix; the TCDM counter always exists.
        let names: Vec<&str> = soc
            .stats()
            .counters()
            .map(|(name, _)| name)
            .filter(|name| name.starts_with("contention."))
            .collect();
        assert!(names.contains(&"contention.tcdm.bank_conflicts"));
    }

    #[test]
    fn partition_overlap_is_rejected() {
        let mut soc = small_soc(2);
        for c in 0..2 {
            soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
        }
        let hp = || {
            HostProgram::new(vec![
                HostOp::CreditArm { threshold: 1 },
                HostOp::StoreMailbox {
                    cluster: 0,
                    reg: ClusterReg::Wakeup,
                    value: 1,
                },
                HostOp::WaitIrq,
                HostOp::End,
            ])
        };
        soc.begin_jobs();
        soc.submit_job(hp(), ClusterMask::single(0), Cycle::ZERO)
            .unwrap();
        let err = soc
            .submit_job(hp(), ClusterMask::single(0), Cycle::ZERO)
            .unwrap_err();
        assert!(matches!(err, SocError::PartitionOverlap { cluster: 0 }));
    }

    #[test]
    fn session_single_job_matches_legacy_wrapper() {
        let build = || {
            let mut soc = small_soc(2);
            for c in 0..2 {
                soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
            }
            soc
        };
        let program = || {
            HostProgram::new(vec![
                HostOp::Compute(40),
                HostOp::CreditArm { threshold: 2 },
                HostOp::MulticastMailbox {
                    mask: ClusterMask::first(2),
                    reg: ClusterReg::Wakeup,
                    value: 1,
                },
                HostOp::WaitIrq,
                HostOp::End,
            ])
        };
        let mut legacy = build();
        let a = legacy
            .run_offload(program(), ClusterMask::first(2))
            .unwrap();

        let mut session = build();
        session.begin_jobs();
        let id = session
            .submit_job(program(), ClusterMask::first(2), Cycle::ZERO)
            .unwrap();
        let done = match session.advance_jobs(Cycle::MAX).unwrap() {
            SessionProgress::Completed(c) => c,
            other => panic!("expected a completion, got {other:?}"),
        };
        assert_eq!(done.job, id);
        assert_eq!(done.submitted_at, Cycle::ZERO);
        assert_eq!(done.host_wait_cycles, 0, "solo job never queues");
        assert_eq!(done.outcome.total, a.total);
        assert_eq!(done.outcome.phases, a.phases);
        assert_eq!(done.outcome.phase_breakdown, a.phase_breakdown);
        assert_eq!(done.outcome.host_busy_cycles, a.host_busy_cycles);
        assert!(matches!(
            session.advance_jobs(Cycle::MAX).unwrap(),
            SessionProgress::Idle
        ));
    }

    #[test]
    fn concurrent_tenants_serialize_on_the_host_and_both_complete() {
        let build = || {
            let mut soc = small_soc(2);
            for c in 0..2 {
                soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
            }
            soc
        };
        let hp = |cluster: usize| {
            HostProgram::new(vec![
                HostOp::Compute(500),
                HostOp::CreditArm { threshold: 1 },
                HostOp::StoreMailbox {
                    cluster,
                    reg: ClusterReg::Wakeup,
                    value: 1,
                },
                HostOp::WaitIrq,
                HostOp::End,
            ])
        };
        // Tenant B's solo-run reference on an otherwise idle SoC.
        let solo = build().run_offload(hp(1), ClusterMask::single(1)).unwrap();

        let mut soc = build();
        soc.begin_jobs();
        let a = soc
            .submit_job(hp(0), ClusterMask::single(0), Cycle::ZERO)
            .unwrap();
        let b = soc
            .submit_job(hp(1), ClusterMask::single(1), Cycle::ZERO)
            .unwrap();
        let mut done = Vec::new();
        while let SessionProgress::Completed(c) = soc.advance_jobs(Cycle::MAX).unwrap() {
            done.push(*c);
        }
        assert_eq!(done.len(), 2);
        assert_eq!(soc.jobs_in_flight(), 0);
        assert!(done.iter().any(|c| c.job == a));
        let b_done = done.iter().find(|c| c.job == b).expect("job b completed");
        // Tenant B could not start marshalling until tenant A's 500-cycle
        // marshalling phase released the serial host core.
        assert!(
            b_done.host_wait_cycles >= 500,
            "host wait {} cycles",
            b_done.host_wait_cycles
        );
        assert!(
            b_done.outcome.total > solo.total,
            "co-resident total {} must exceed solo {}",
            b_done.outcome.total.as_u64(),
            solo.total.as_u64()
        );
        soc.fold_session_stats();
        assert!(
            soc.stats()
                .counter(&format!("contention.job{b}.host_wait_cycles"))
                >= 500
        );
    }

    #[test]
    fn session_partitions_are_reusable_after_completion() {
        let mut soc = small_soc(1);
        soc.bind_job(0, nop_job(CompletionSignal::Credit, 2));
        let hp = || {
            HostProgram::new(vec![
                HostOp::CreditArm { threshold: 1 },
                HostOp::StoreMailbox {
                    cluster: 0,
                    reg: ClusterReg::Wakeup,
                    value: 1,
                },
                HostOp::WaitIrq,
                HostOp::End,
            ])
        };
        soc.begin_jobs();
        let first = soc
            .submit_job(hp(), ClusterMask::single(0), Cycle::ZERO)
            .unwrap();
        let done = match soc.advance_jobs(Cycle::MAX).unwrap() {
            SessionProgress::Completed(c) => c,
            other => panic!("expected completion, got {other:?}"),
        };
        assert_eq!(done.job, first);
        // Same partition, second tenant, later in the same session.
        let at = soc.session_now();
        let second = soc.submit_job(hp(), ClusterMask::single(0), at).unwrap();
        let done2 = match soc.advance_jobs(Cycle::MAX).unwrap() {
            SessionProgress::Completed(c) => c,
            other => panic!("expected completion, got {other:?}"),
        };
        assert_eq!(done2.job, second);
        assert_eq!(
            done2.outcome.total, done.outcome.total,
            "a re-run on a drained SoC takes the same relative time"
        );
    }

    #[test]
    fn concurrent_sessions_are_deterministic() {
        let run = || {
            let mut soc = small_soc(2);
            for c in 0..2 {
                soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
            }
            let hp = |cluster: usize| {
                HostProgram::new(vec![
                    HostOp::Compute(100),
                    HostOp::CreditArm { threshold: 1 },
                    HostOp::StoreMailbox {
                        cluster,
                        reg: ClusterReg::Wakeup,
                        value: 1,
                    },
                    HostOp::WaitIrq,
                    HostOp::End,
                ])
            };
            soc.begin_jobs();
            soc.submit_job(hp(0), ClusterMask::single(0), Cycle::ZERO)
                .unwrap();
            soc.submit_job(hp(1), ClusterMask::single(1), Cycle::ZERO)
                .unwrap();
            let mut finishes = Vec::new();
            while let SessionProgress::Completed(c) = soc.advance_jobs(Cycle::MAX).unwrap() {
                finishes.push((c.job, c.finished_at, c.host_wait_cycles));
            }
            finishes
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sequential_dispatch_wakes_clusters_later_than_multicast() {
        let run = |multicast: bool| {
            let mut soc = small_soc(8);
            for c in 0..8 {
                soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
            }
            let mut ops = vec![HostOp::CreditArm { threshold: 8 }];
            if multicast {
                ops.push(HostOp::MulticastMailbox {
                    mask: ClusterMask::first(8),
                    reg: ClusterReg::Wakeup,
                    value: 1,
                });
            } else {
                for c in 0..8 {
                    ops.push(HostOp::StoreMailbox {
                        cluster: c,
                        reg: ClusterReg::Wakeup,
                        value: 1,
                    });
                }
            }
            ops.push(HostOp::WaitIrq);
            ops.push(HostOp::End);
            soc.run_offload(HostProgram::new(ops), ClusterMask::first(8))
                .unwrap()
        };
        let seq = run(false);
        let mc = run(true);
        assert!(
            mc.phases.last_dispatch < seq.phases.last_dispatch,
            "multicast must deliver the last doorbell earlier"
        );
        assert!(mc.total < seq.total);
    }

    fn credit_program(clusters: usize) -> HostProgram {
        HostProgram::new(vec![
            HostOp::CreditArm {
                threshold: clusters as u64,
            },
            HostOp::MulticastMailbox {
                mask: ClusterMask::first(clusters),
                reg: ClusterReg::Wakeup,
                value: 1,
            },
            HostOp::WaitIrq,
            HostOp::End,
        ])
    }

    #[test]
    fn noop_fault_plan_changes_nothing() {
        let run = |install: bool| {
            let mut soc = small_soc(2);
            if install {
                soc.install_faults(FaultPlan::with_seed(42));
            }
            for c in 0..2 {
                soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
            }
            soc.run_offload(credit_program(2), ClusterMask::first(2))
                .unwrap()
        };
        let plain = run(false);
        let planned = run(true);
        assert_eq!(plain.total, planned.total);
        assert_eq!(plain.phases, planned.phases);
        assert_eq!(plain.events_delivered, planned.events_delivered);
    }

    #[test]
    fn lost_credit_wedges_the_session_observably() {
        let mut soc = small_soc(2);
        let mut plan = FaultPlan::with_seed(1);
        plan.credit_loss = crate::SiteSpec::once_at(0);
        soc.install_faults(plan);
        for c in 0..2 {
            soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
        }
        soc.begin_jobs();
        soc.submit_job(credit_program(2), ClusterMask::first(2), Cycle::ZERO)
            .unwrap();
        // The first credit is eaten in flight: the IRQ never fires, the
        // host parks on WaitIrq and the event queue drains — the exact
        // lost-completion signature a watchdog must catch.
        assert!(matches!(
            soc.advance_jobs(Cycle::MAX).unwrap(),
            SessionProgress::Idle
        ));
        assert_eq!(soc.jobs_in_flight(), 1);
        // Both clusters did their work: attribution must not implicate
        // either of them.
        assert!(soc.cluster_completed(0));
        assert!(soc.cluster_completed(1));
        assert_eq!(soc.fault_stats().credit_loss, 1);
        assert_eq!(soc.faults().records().len(), 1);
    }

    #[test]
    fn dropped_dispatch_beat_leaves_one_cluster_dark() {
        let mut soc = small_soc(2);
        let mut plan = FaultPlan::with_seed(1);
        plan.dispatch_drop = crate::SiteSpec::once_at(0);
        soc.install_faults(plan);
        for c in 0..2 {
            soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
        }
        soc.begin_jobs();
        soc.submit_job(credit_program(2), ClusterMask::first(2), Cycle::ZERO)
            .unwrap();
        assert!(matches!(
            soc.advance_jobs(Cycle::MAX).unwrap(),
            SessionProgress::Idle
        ));
        // The first multicast beat (cluster 0) was dropped: cluster 0
        // never woke while cluster 1 finished — per-cluster attribution
        // points at the right victim.
        assert!(!soc.cluster_completed(0));
        assert!(soc.cluster_completed(1));
        assert_eq!(soc.fault_stats().dispatch_drop, 1);
    }

    #[test]
    fn dead_cluster_never_completes_and_is_attributed() {
        let mut soc = small_soc(2);
        let mut plan = FaultPlan::with_seed(1);
        plan.dead_clusters = 1 << 1;
        soc.install_faults(plan);
        for c in 0..2 {
            soc.bind_job(c, nop_job(CompletionSignal::Credit, 2));
        }
        soc.begin_jobs();
        soc.submit_job(credit_program(2), ClusterMask::first(2), Cycle::ZERO)
            .unwrap();
        assert!(matches!(
            soc.advance_jobs(Cycle::MAX).unwrap(),
            SessionProgress::Idle
        ));
        assert!(soc.cluster_completed(0));
        assert!(!soc.cluster_completed(1));
        assert_eq!(soc.fault_stats().dead_cluster, 1);
    }

    #[test]
    fn corrupted_dma_burst_flags_the_completion() {
        let build = |plan: FaultPlan| {
            let mut cfg = SocConfig::with_clusters(1);
            cfg.cores_per_cluster = 1;
            let mut soc = Soc::new(cfg).unwrap();
            let base = soc.map().main_base();
            soc.main_mut()
                .store_mut()
                .write_f64_slice(base, &[3.0, 4.0])
                .unwrap();
            soc.install_faults(plan);

            // y[i] = a * x[i] over two DMA-ed words (see
            // dma_moves_real_data_and_cores_compute).
            let mut b = ProgramBuilder::new();
            let (x1, x2, x4) = (IntReg::new(1), IntReg::new(2), IntReg::new(4));
            b.li(x1, 0);
            b.li(x2, 16);
            b.li(x4, 80);
            b.fld(FpReg::new(31), x4, 0);
            for i in 0..2 {
                b.fld(FpReg::new(0), x1, i * 8);
                b.fmul(FpReg::new(1), FpReg::new(31), FpReg::new(0));
                b.fsd(FpReg::new(1), x2, i * 8);
            }
            b.halt();
            let program = b.build().unwrap();
            let job = ClusterJob::single(
                vec![program],
                vec![Transfer {
                    main_addr: base,
                    local_word: 0,
                    words: 2,
                }],
                vec![Transfer {
                    main_addr: base.add_words(8),
                    local_word: 2,
                    words: 2,
                }],
                vec![10.0],
                10,
                CompletionSignal::Credit,
            );
            soc.bind_job(0, job);
            soc.begin_jobs();
            soc.submit_job(credit_program(1), ClusterMask::single(0), Cycle::ZERO)
                .unwrap();
            let done = match soc.advance_jobs(Cycle::MAX).unwrap() {
                SessionProgress::Completed(c) => c,
                other => panic!("expected a completion, got {other:?}"),
            };
            let result = soc
                .main()
                .store()
                .read_f64_slice(base.add_words(8), 2)
                .unwrap();
            (done, result)
        };

        let (clean, result) = build(FaultPlan::none());
        assert_eq!(clean.corrupt_clusters, 0);
        assert_eq!(clean.faults_injected, 0);
        assert_eq!(result, vec![30.0, 40.0]);

        let mut plan = FaultPlan::with_seed(1);
        plan.dma_corrupt = crate::SiteSpec::once_at(0);
        let (flagged, corrupt) = build(plan);
        // The CRC flag is raised (the observable recovery signal) and
        // the corrupted operand really poisons the result.
        assert_eq!(flagged.corrupt_clusters, 1);
        assert_eq!(flagged.faults_injected, 1);
        assert_ne!(corrupt, vec![30.0, 40.0]);
        // Timing is untouched: corruption is silent in the time domain.
        assert_eq!(flagged.outcome.total, clean.outcome.total);
    }

    #[test]
    fn flaky_cluster_corrupts_only_its_own_bursts() {
        let mut cfg = SocConfig::with_clusters(2);
        cfg.cores_per_cluster = 1;
        let mut soc = Soc::new(cfg).unwrap();
        let base = soc.map().main_base();
        soc.main_mut()
            .store_mut()
            .write_f64_slice(base, &[1.0, 2.0])
            .unwrap();
        let mut plan = FaultPlan::with_seed(3);
        plan.flaky_clusters = 1 << 1;
        plan.flaky_corrupt_rate = 1.0;
        soc.install_faults(plan);
        for c in 0..2 {
            let job = ClusterJob::single(
                vec![nop_program()],
                vec![Transfer {
                    main_addr: base,
                    local_word: 0,
                    words: 2,
                }],
                vec![],
                vec![],
                0,
                CompletionSignal::Credit,
            );
            soc.bind_job(c, job);
        }
        soc.begin_jobs();
        soc.submit_job(credit_program(2), ClusterMask::first(2), Cycle::ZERO)
            .unwrap();
        let done = match soc.advance_jobs(Cycle::MAX).unwrap() {
            SessionProgress::Completed(c) => c,
            other => panic!("expected a completion, got {other:?}"),
        };
        // Both clusters moved the same data, but only the flaky one's
        // CRC flags corruption — the cluster-correlated signature the
        // scheduler's strike accounting keys on.
        assert_eq!(done.corrupt_clusters, 1 << 1);
        assert_eq!(done.faults_injected, 1);
        assert_eq!(soc.fault_stats().dma_corrupt, 1);
    }

    #[test]
    fn stalled_dma_burst_completes_late_but_intact() {
        let run = |plan: FaultPlan| {
            let mut cfg = SocConfig::with_clusters(1);
            cfg.cores_per_cluster = 2;
            let mut soc = Soc::new(cfg).unwrap();
            let base = soc.map().main_base();
            soc.main_mut()
                .store_mut()
                .write_f64_slice(base, &[1.0, 2.0])
                .unwrap();
            soc.install_faults(plan);
            let job = ClusterJob::single(
                vec![nop_program(); 2],
                vec![Transfer {
                    main_addr: base,
                    local_word: 0,
                    words: 2,
                }],
                vec![],
                vec![],
                0,
                CompletionSignal::Credit,
            );
            soc.bind_job(0, job);
            soc.run_offload(credit_program(1), ClusterMask::single(0))
                .unwrap()
        };
        let clean = run(FaultPlan::none());
        let mut plan = FaultPlan::with_seed(1);
        plan.dma_stall = crate::SiteSpec::once_at(0);
        plan.dma_stall_cycles = 500;
        let stalled = run(plan);
        assert_eq!(
            stalled.total,
            clean.total + Cycle::new(500),
            "the stall shifts completion by exactly the timeout"
        );
    }

    /// Runs one random session, with the event loop's fast paths or
    /// every event through the queue (`per_event`), then one blocking
    /// offload, and logs everything observable: every submit's and every
    /// `advance_jobs`' result (completions in full), with the events
    /// delivered and the session time after it, the offload's outcome,
    /// and after each the telemetry, stats, fault stats and the
    /// main-memory and TCDM words the tenants touch. Tenants overlap in
    /// time on random partitions of a 4-cluster SoC whose HBM is
    /// sometimes narrower than a DMA burst, so chains queue behind each
    /// other and behind host transfers. A quarter of the sessions are
    /// burst-heavy: 2-4 tenants submitted a few cycles apart move
    /// 1,000-4,000 words per transfer on a 512-word/cycle HBM, advanced
    /// in short steps, so their chains fold in lockstep and the horizons
    /// cut folds mid-run. Every core runs one of a few
    /// [random programs](random_program): shared copies of it, which
    /// find the compiled form its first run built, or with `fresh` a new
    /// program for every core. Also returns what the fast paths did.
    fn random_session(seed: u64, per_event: bool, fresh: bool) -> (Vec<String>, FastPaths) {
        let mut rng = proptest::TestRng::from_name(&seed.to_string());
        let heavy = rng.below(4) == 0;
        let mut cfg = SocConfig::with_clusters(4);
        cfg.cores_per_cluster = 1 + rng.below(2) as usize;
        cfg.mem_words_per_cycle = [4, 16, 64, 512][rng.below(4) as usize];
        cfg.dma_words_per_cycle = [4, 16, 32][rng.below(3) as usize];
        if heavy {
            cfg.mem_words_per_cycle = 512;
        }
        let mut soc = Soc::new(cfg).unwrap();
        soc.per_event = per_event;
        if rng.below(2) == 0 {
            soc.enable_telemetry(1 << 14);
        }
        let mut plan = FaultPlan::with_seed(rng.next_u64());
        match rng.below(4) {
            0 => plan = FaultPlan::none(),
            1 => {
                plan.dma_stall = crate::SiteSpec::rate(0.3);
                plan.dma_stall_cycles = rng.below(300);
            }
            2 => plan.dma_corrupt = crate::SiteSpec::rate(0.3),
            _ => {
                plan.flaky_clusters = rng.below(16);
                plan.flaky_corrupt_rate = 0.5;
            }
        }
        soc.install_faults(plan);
        let pool: Vec<Program> = (0..3).map(|_| random_program(&mut rng)).collect();
        let programs = Programs { pool, fresh, heavy };
        let base = soc.map().main_base();
        let words: Vec<f64> = (0..4096).map(|_| rng.unit_f64()).collect();
        soc.main_mut()
            .store_mut()
            .write_f64_slice(base, &words)
            .unwrap();
        let snapshot = |soc: &mut Soc, log: &mut Vec<String>| {
            soc.fold_session_stats();
            log.push(mpsoc_telemetry::chrome_trace_json(soc.telemetry()));
            log.push(format!("{:?}", soc.stats()));
            log.push(format!("{:?}", soc.fault_stats()));
            log.push(format!("{:?}", soc.faults().records()));
            let memory = soc.main().store().read_f64_slice(base, 4096 + 64).unwrap();
            log.push(format!("{:?}", bits(&memory)));
            for tcdm in &soc.tcdms {
                let words: Vec<u64> = (0..4400).map(|w| tcdm.read_u64(w).unwrap()).collect();
                log.push(format!("{words:?}"));
            }
        };

        let mut log = Vec::new();
        let mut tenants = 0;
        soc.begin_jobs();
        let submit = |soc: &mut Soc, rng: &mut proptest::TestRng, log: &mut Vec<String>, tenant| {
            let (mask, program) = random_tenant(soc, rng, &programs, tenant);
            let gap = if heavy { 40 } else { 2000 };
            let at = soc.session_now() + Cycle::new(rng.below(gap));
            let submitted = soc.submit_job(program, mask, at);
            log.push(format!("submit {mask:?} at {at}: {submitted:?}"));
        };
        let advance = |soc: &mut Soc, rng: &mut proptest::TestRng, log: &mut Vec<String>| {
            let step = if heavy { 300 } else { 4000 };
            let horizon = soc.session_now() + Cycle::new(rng.below(step));
            let progress = soc.advance_jobs(horizon);
            log.push(format!(
                "advance to {horizon}: {progress:?}, {} events, now {}",
                soc.events_delivered,
                soc.session_now()
            ));
        };
        if heavy {
            for _ in 0..2 + rng.below(3) {
                tenants += 1;
                submit(&mut soc, &mut rng, &mut log, tenants);
                for _ in 0..rng.below(3) {
                    advance(&mut soc, &mut rng, &mut log);
                }
            }
        }
        for _ in 0..2 + rng.below(10) {
            if rng.below(2) == 0 {
                tenants += 1;
                submit(&mut soc, &mut rng, &mut log, tenants);
            } else {
                advance(&mut soc, &mut rng, &mut log);
            }
        }
        for _ in 0..32 {
            let progress = soc.advance_jobs(soc.session_now() + Cycle::new(100_000));
            let end = !matches!(progress, Ok(SessionProgress::Completed(_)));
            log.push(format!(
                "drain: {progress:?}, {} events, now {}",
                soc.events_delivered,
                soc.session_now()
            ));
            if end {
                break;
            }
        }
        snapshot(&mut soc, &mut log);
        let (mask, program) = random_tenant(&mut soc, &mut rng, &programs, tenants + 1);
        let outcome = soc.run_offload(program, mask);
        log.push(format!("offload {mask:?}: {outcome:?}"));
        snapshot(&mut soc, &mut log);
        (log, soc.fast_paths)
    }

    /// Binds random jobs to a random partition (one cluster in a
    /// burst-heavy session), unless a job still in flight holds part of
    /// it, and returns the partition and a host program that marshals
    /// operands and then dispatches and awaits the jobs by credit counter
    /// or software barrier.
    fn random_tenant(
        soc: &mut Soc,
        rng: &mut proptest::TestRng,
        programs: &Programs,
        tenant: u64,
    ) -> (ClusterMask, HostProgram) {
        let mask = if programs.heavy {
            ClusterMask::single(rng.below(4) as usize)
        } else {
            ClusterMask::from_bits(1 + rng.below(15))
        };
        let main = soc.map().main_base();
        let completion = if rng.below(2) == 0 {
            CompletionSignal::Credit
        } else {
            CompletionSignal::Barrier {
                addr: main.add_words(4096 + tenant),
            }
        };
        if soc.check_partition(mask).is_ok() {
            let cores = soc.config().cores_per_cluster;
            for cluster in mask.iter() {
                soc.bind_job(cluster, random_job(rng, programs, cores, main, completion));
            }
        }
        let mut ops = vec![HostOp::PrepareOperands {
            words: rng.below(400),
        }];
        match completion {
            CompletionSignal::Credit => ops.extend([
                HostOp::CreditArm {
                    threshold: mask.count() as u64,
                },
                HostOp::MulticastMailbox {
                    mask,
                    reg: ClusterReg::Wakeup,
                    value: 1,
                },
                HostOp::WaitIrq,
            ]),
            CompletionSignal::Barrier { addr } => {
                ops.push(HostOp::StoreUncachedMain { addr, value: 0 });
                ops.extend(mask.iter().map(|cluster| HostOp::StoreMailbox {
                    cluster,
                    reg: ClusterReg::Wakeup,
                    value: 1,
                }));
                ops.push(HostOp::PollUntilEq {
                    addr,
                    value: mask.count() as u64,
                    spin_cycles: 4,
                });
            }
        }
        ops.push(HostOp::End);
        (mask, HostProgram::new(ops))
    }

    fn bits(words: &[f64]) -> Vec<u64> {
        words.iter().map(|w| w.to_bits()).collect()
    }

    /// The programs a random session's cores run, and how much their
    /// jobs move.
    struct Programs {
        pool: Vec<Program>,
        /// Give every core a program of its own, built from the pool's
        /// ops, which no run has compiled.
        fresh: bool,
        /// Transfers of 1,000-4,000 words instead of under 300.
        heavy: bool,
    }

    impl Programs {
        /// `cores` copies of a random program of the pool.
        fn draw(&self, rng: &mut proptest::TestRng, cores: usize) -> Vec<Program> {
            let program = &self.pool[rng.below(self.pool.len() as u64) as usize];
            if self.fresh {
                let fresh = || Program::from_ops_unchecked(program.ops().to_vec());
                (0..cores).map(|_| fresh()).collect()
            } else {
                vec![program.clone(); cores]
            }
        }
    }

    /// A core program: a countdown, or a loop of `y ← a·x + y` over up to
    /// 40 elements of TCDM words the DMA transfers also touch, with `a`
    /// the job's argument. Pointers move by one or two words per trip;
    /// the store lands on the word the trip loaded, or on the one the
    /// next trip loads, which makes the trips dependent.
    fn random_program(rng: &mut proptest::TestRng) -> Program {
        let mut b = ProgramBuilder::new();
        let (x1, x2, x3, x4) = (
            IntReg::new(1),
            IntReg::new(2),
            IntReg::new(3),
            IntReg::new(4),
        );
        let (f0, f1, f2, a) = (FpReg::new(0), FpReg::new(1), FpReg::new(2), FpReg::new(31));
        let trips = 1 + rng.below(40) as i64;
        if rng.below(4) == 0 {
            b.li(x3, trips);
            let top = b.label();
            b.bind(top);
            b.addi(x3, x3, -1);
            b.bnez(x3, top);
            b.halt();
            return b.build().unwrap();
        }
        let stride = 8 * (1 + rng.below(2) as i64);
        let feeds_next = rng.below(3) == 0;
        b.li(x1, 8 * (64 + rng.below(2000)) as i64);
        b.li(x2, 8 * (2200 + rng.below(1800)) as i64);
        b.li(x4, 64);
        b.fld(a, x4, 0);
        b.li(x3, trips);
        let top = b.label();
        b.bind(top);
        b.fld(f0, x1, 0);
        b.fld(f1, x2, 0);
        b.fmadd(f2, a, f0, f1);
        b.fsd(f2, x2, if feeds_next { stride } else { 0 });
        b.addi(x1, x1, stride);
        b.addi(x2, x2, stride);
        b.addi(x3, x3, -1);
        b.bnez(x3, top);
        b.fsd(f2, x1, 0);
        b.halt();
        b.build().unwrap()
    }

    /// A cluster job of 1-2 stages, each moving up to a few hundred words
    /// (or, in a burst-heavy session, a few thousand) in and out and
    /// running a random program on every core. Transfers stay within the
    /// words a session's log shows, below the barrier counters.
    fn random_job(
        rng: &mut proptest::TestRng,
        programs: &Programs,
        cores: usize,
        main: Addr,
        completion: CompletionSignal,
    ) -> ClusterJob {
        let transfer = |rng: &mut proptest::TestRng| {
            if programs.heavy {
                let words = 1000 + rng.below(3001);
                Transfer {
                    main_addr: main.add_words(rng.below(4097 - words)),
                    local_word: 64 + rng.below(4337 - words),
                    words,
                }
            } else {
                Transfer {
                    main_addr: main.add_words(rng.below(3500)),
                    local_word: 64 + rng.below(4000),
                    words: rng.below(300),
                }
            }
        };
        let stages = (0..1 + rng.below(2))
            .map(|_| crate::JobStage {
                dma_in: (0..rng.below(3)).map(|_| transfer(rng)).collect(),
                programs: programs.draw(rng, cores),
                dma_out: (0..rng.below(2)).map(|_| transfer(rng)).collect(),
            })
            .collect();
        ClusterJob {
            stages,
            args: vec![rng.unit_f64()],
            args_local_word: 8,
            completion,
        }
    }

    /// The random sessions the oracle proptest draws reach every fast
    /// path, so it cannot pass by never taking one: over a fixed seed
    /// list, each session matches its per-event run, which takes no fast
    /// path, and closed-form bookings, lockstep folds and inline host
    /// steps all do work.
    #[test]
    fn random_sessions_take_every_fast_path() {
        let mut total = FastPaths::default();
        for seed in 0..24 {
            let (fast, paths) = random_session(seed, false, false);
            let (oracle, none) = random_session(seed, true, false);
            assert_eq!(fast, oracle, "seed {seed}");
            assert_eq!(none, FastPaths::default(), "seed {seed}");
            total.closed_form_bursts += paths.closed_form_bursts;
            total.lockstep_cycles += paths.lockstep_cycles;
            total.inline_host_steps += paths.inline_host_steps;
        }
        assert!(
            total.closed_form_bursts > 0
                && total.lockstep_cycles > 0
                && total.inline_host_steps > 0,
            "{total:?}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The event loop's fast paths (inline DMA bursts and host
        /// steps, closed-form bookings, lockstep folds) never change what
        /// a session or a blocking offload does: completions, telemetry,
        /// stats, faults, memory, the events delivered and the session
        /// time after every `advance_jobs`, whatever the horizons,
        /// tenants and faults.
        #[test]
        fn inline_bursts_match_the_per_burst_oracle(seed in proptest::any::<u64>()) {
            let (fast, _) = random_session(seed, false, false);
            let (oracle, _) = random_session(seed, true, false);
            proptest::prop_assert_eq!(fast, oracle);
        }

        /// Sharing programs among jobs, so that every run after a
        /// program's first runs its compiled form, never changes what a
        /// session or a blocking offload does: the same log as the same
        /// session with a fresh program for every core, which compiles
        /// each program on its one run.
        #[test]
        fn compiled_programs_match_fresh_programs(seed in proptest::any::<u64>()) {
            let (shared, _) = random_session(seed, false, false);
            let (fresh, _) = random_session(seed, false, true);
            proptest::prop_assert_eq!(shared, fresh);
        }
    }
}
