//! The shard manager: a fleet of independent co-simulated (or analytic)
//! SoC shards behind one load balancer.
//!
//! Each shard is an incremental [`ShardSim`]: a driver of the one
//! admission → allocation → dispatch loop the closed-loop `Engine` also
//! drives, fed event by event. A shard re-picks after every offer,
//! because it must answer each offer before the next arrives; every
//! shard runs [`FifoFirstFit`], under which that places the same jobs as
//! the engine's one re-pick per arrival instant. The fleet layer adds
//! what a serving front-end needs on top:
//!
//! - **Placement** ([`PlacementPolicy`]): which shard an arriving job is
//!   offered to. Round-robin ignores load; least-loaded picks the
//!   shallowest queue; model-guided picks the smallest *predicted
//!   backlog* in cluster-cycles — the sum of Eq. 1 t̂(M, N) predictions
//!   of everything admitted and unfinished, normalized by shard
//!   capacity, so a queue of two huge jobs weighs more than a queue of
//!   five tiny ones.
//! - **Backpressure**: every shard runs with a bounded admission queue
//!   ([`ShardSim::set_queue_limit`]); the chosen shard's verdict is
//!   final, so an overloaded fleet rejects with
//!   [`RejectReason::QueueFull`] instead of building unbounded queues.
//! - **Work stealing**: when a shard goes idle (empty queue, free
//!   clusters) while a sibling has jobs backed up, the idle shard steals
//!   a queued-but-unstarted job. Stealing moves only jobs that have not
//!   touched hardware, so records stay exact.
//! - **Shard health & failover** ([`ShardState`]): shards degrade as
//!   auto-quarantine retires clusters and die when the pool empties.
//!   Placement weights by *effective* (healthy) capacity and skips dead
//!   shards; with [`FleetConfig::failover`] on, a dead shard's
//!   queued-but-unstarted jobs are drained to survivors over the same
//!   stealing path, so capacity loss costs latency instead of losing
//!   admitted work.
//! - **Redirect on reject**: with a nonzero
//!   [`FleetConfig::redirect_budget`], a job bounced by queue-depth
//!   backpressure is re-offered to the next-best shards before the
//!   rejection becomes final; the failed attempt's record is withdrawn
//!   so every job still resolves exactly once.
//! - **Telemetry**: per shard, typed tallies for what every accepted job
//!   and completion updates (accept/offload/miss counters, completion
//!   latency) and a [`StatsRegistry`] for the rest (rejections, steals,
//!   cost audits, the `serve.health.*` family), merged on demand into a
//!   fleet-wide [`FleetView`] whose histogram merge is exact.
//!
//! Everything iterates in shard-index order and all state lives in
//! ordered containers, so a fixed (config, job stream) pair replays to
//! byte-identical reports.
//!
//! [`RejectReason::QueueFull`]: mpsoc_sched::RejectReason::QueueFull

use mpsoc_noc::ClusterMask;
use mpsoc_sched::{
    CostGate, FifoFirstFit, Job, JobOutcome, JobRecord, KernelId, ModelTable, RejectReason,
    SchedError, ServiceBackend, ShardDecision, ShardSim,
};
use mpsoc_sim::stats::{Histogram, Summary};
use mpsoc_telemetry::{FleetView, StatsRegistry};
use serde::{Deserialize, Serialize};

/// How the balancer picks a shard for each arriving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Rotate through shards regardless of load.
    RoundRobin,
    /// The shard with the shallowest admission queue (ties to the
    /// lowest index).
    LeastLoaded,
    /// The shard with the least predicted backlog: Σ t̂(M_min, N) ·
    /// M_min over admitted-but-unfinished jobs, per cluster of
    /// capacity (ties to the lowest index).
    ModelGuided,
}

/// Every placement policy, in study order.
pub const ALL_PLACEMENTS: [PlacementPolicy; 3] = [
    PlacementPolicy::RoundRobin,
    PlacementPolicy::LeastLoaded,
    PlacementPolicy::ModelGuided,
];

impl PlacementPolicy {
    /// Stable snake_case name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::RoundRobin => "round_robin",
            PlacementPolicy::LeastLoaded => "least_loaded",
            PlacementPolicy::ModelGuided => "model_guided",
        }
    }
}

/// Fleet shape and balancing behavior.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of independent shards.
    pub shards: usize,
    /// Clusters per shard machine.
    pub clusters_per_shard: usize,
    /// Per-shard admission-queue cap (backpressure threshold).
    pub queue_limit: usize,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Whether idle shards steal queued work from loaded siblings.
    pub steal: bool,
    /// How many alternative shards a queue-full-rejected job is
    /// re-offered to before the rejection becomes final. `0` disables
    /// redirection (the first shard's verdict stands, the pre-redirect
    /// behavior).
    pub redirect_budget: u32,
    /// Whether a dead shard's queued-but-unstarted jobs are drained to
    /// surviving shards. Off, they sit until the run ends and resolve
    /// as `DegradedMachine` rejections.
    pub failover: bool,
}

/// Health of one shard, derived from its quarantine mass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ShardState {
    /// Every configured cluster is serving.
    Healthy,
    /// Quarantine has retired some clusters; the rest still serve.
    Degraded,
    /// Every cluster is quarantined: the shard can serve nothing.
    Dead,
}

impl ShardState {
    /// Stable snake_case name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ShardState::Healthy => "healthy",
            ShardState::Degraded => "degraded",
            ShardState::Dead => "dead",
        }
    }

    /// Severity code (0 healthy, 1 degraded, 2 dead). Quarantine never
    /// heals, so a shard's code is monotone over a run — which lets the
    /// `serve.health.shard_state` *counter* track the current state
    /// exactly (each transition adds the code delta).
    pub fn code(&self) -> u64 {
        match self {
            ShardState::Healthy => 0,
            ShardState::Degraded => 1,
            ShardState::Dead => 2,
        }
    }
}

/// One finished job, tagged with the shard that resolved it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetRecord {
    /// Shard index.
    pub shard: u32,
    /// The shard's record (rejections included).
    pub record: JobRecord,
}

/// The counters and latency series every accepted job and completion on
/// one shard updates, kept in typed fields so the hot path does no
/// keyed lookups; [`Fleet::fleet_view`] merges them into the shard's
/// registry under their `serve.*` names.
#[derive(Debug, Clone, Default)]
struct ShardTally {
    accepted: u64,
    offloaded: u64,
    host_runs: u64,
    deadline_missed: u64,
    retries: u64,
    latency: Summary,
    latency_histogram: Histogram,
}

impl ShardTally {
    /// Records a completion latency the way `StatsRegistry::observe`
    /// records a sample, without its lookups.
    fn observe_latency(&mut self, cycles: u64) {
        let value = cycles as f64;
        self.latency.record(value);
        self.latency_histogram.record(value.round() as u64);
    }

    /// `registry` with the tallies merged in, under the names and with
    /// the key set keyed updates would have left: a counter once it
    /// counted something, `serve.retries` once an offload added to it
    /// (even zero), and `serve.latency` once it holds a sample.
    fn merged_into(&self, registry: &StatsRegistry) -> StatsRegistry {
        let mut merged = registry.clone();
        for (name, value) in [
            ("serve.accepted", self.accepted),
            ("serve.offloaded", self.offloaded),
            ("serve.host_runs", self.host_runs),
            ("serve.deadline_missed", self.deadline_missed),
        ] {
            if value > 0 {
                merged.add(name, value);
            }
        }
        if self.offloaded > 0 {
            merged.add("serve.retries", self.retries);
        }
        if self.latency.count() > 0 {
            merged.merge_summary_named("serve.latency", &self.latency);
            merged.merge_histogram_named("serve.latency", &self.latency_histogram);
        }
        merged
    }
}

/// A fleet of shards behind one balancer.
pub struct Fleet {
    config: FleetConfig,
    shards: Vec<ShardSim>,
    /// Per shard: the typed hot-path tallies.
    tallies: Vec<ShardTally>,
    /// Per shard: the registry of the rarer counters.
    stats: Vec<StatsRegistry>,
    rr_next: usize,
    next_job_id: u64,
    submitted: u64,
    completed: Vec<FleetRecord>,
    /// Latest finish cycle among the served (non-rejected) records.
    makespan: u64,
    /// Served records that finished by their deadline.
    deadline_met: u64,
    /// Last state code published to `serve.health.shard_state`, per
    /// shard (the counter carries the delta on each transition).
    state_logged: Vec<u64>,
}

impl Fleet {
    /// A fleet whose shards all charge analytic (Eq. 1) service times —
    /// the configuration for large SLO sweeps, where a million jobs
    /// must simulate in seconds.
    pub fn analytic(config: FleetConfig, table: &ModelTable) -> Self {
        let backends = (0..config.shards)
            .map(|_| ServiceBackend::analytic(table.clone()))
            .collect();
        Fleet::with_backends(config, table, backends)
    }

    /// A fleet over explicit per-shard backends (e.g. co-simulated SoC
    /// instances). `backends.len()` must equal `config.shards`.
    pub fn with_backends(
        config: FleetConfig,
        table: &ModelTable,
        backends: Vec<ServiceBackend>,
    ) -> Self {
        assert_eq!(
            backends.len(),
            config.shards,
            "one backend per shard required"
        );
        assert!(config.shards > 0, "a fleet needs at least one shard");
        let shards = backends
            .into_iter()
            .map(|backend| {
                let mut s = ShardSim::new(
                    table.clone(),
                    config.clusters_per_shard,
                    backend,
                    Box::new(FifoFirstFit),
                );
                s.set_queue_limit(config.queue_limit);
                s
            })
            .collect();
        Fleet {
            tallies: vec![ShardTally::default(); config.shards],
            stats: (0..config.shards).map(|_| StatsRegistry::new()).collect(),
            shards,
            rr_next: 0,
            next_job_id: 0,
            submitted: 0,
            completed: Vec::new(),
            makespan: 0,
            deadline_met: 0,
            state_logged: vec![0; config.shards],
            config,
        }
    }

    /// Arms every shard with a static cost gate ([`CostGate`]): jobs
    /// whose deadline undercuts the static best-case runtime bound are
    /// rejected with `serve.reject.static_infeasible`, and each queued
    /// admission's Eq. 1 prediction is audited against the static
    /// `[best, worst]` envelope at its `M_min` — `serve.cost.checked`
    /// counts audits, `serve.cost.pred_below_best` /
    /// `serve.cost.pred_above_worst` count predictions that left the
    /// provable envelope (the model-drift alarm signal). Opt-in: the
    /// analysis runs once per distinct (kernel, n) per shard.
    pub fn enable_cost_gates(&mut self) {
        for shard in &mut self.shards {
            shard.enable_cost(CostGate::manticore());
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Jobs offered to the fleet so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Every resolved record so far (completions and rejections), in
    /// resolution order.
    pub fn completed(&self) -> &[FleetRecord] {
        &self.completed
    }

    /// The latest finish cycle among the served records so far (0 when
    /// nothing was served), kept as records are collected.
    pub(crate) fn makespan(&self) -> u64 {
        self.makespan
    }

    /// How many served records so far finished by their deadline, kept
    /// as records are collected.
    pub(crate) fn deadline_met(&self) -> u64 {
        self.deadline_met
    }

    /// Per-shard statistics registries, tallies merged in, indexed by
    /// shard.
    fn shard_stats(&self) -> Vec<StatsRegistry> {
        self.tallies
            .iter()
            .zip(&self.stats)
            .map(|(tally, registry)| tally.merged_into(registry))
            .collect()
    }

    /// The merged fleet view: global counters/histograms plus
    /// `shard<i>.`-prefixed per-shard breakdowns.
    pub fn fleet_view(&self) -> FleetView {
        FleetView::with_shards(self.shard_stats().iter())
    }

    /// Direct access to a shard (load inspection, tests).
    pub fn shard(&self, i: usize) -> &ShardSim {
        &self.shards[i]
    }

    /// Configures automatic quarantine on every shard: a cluster is
    /// retired after `threshold` corrupt co-simulated completions
    /// flagged it; `None` disables the closed loop so corruption is
    /// absorbed by bounded re-dispatch alone — the no-recovery arm
    /// chaos studies ablate against.
    pub fn set_auto_quarantine(&mut self, threshold: Option<u32>) {
        for shard in &mut self.shards {
            shard.set_auto_quarantine(threshold);
        }
    }

    /// Manually retires clusters on shard `i` — the operator-driven
    /// path through the same quarantine machinery auto-quarantine
    /// drives, publishing the same `serve.health.*` telemetry
    /// immediately.
    pub fn quarantine_shard(&mut self, i: usize, mask: ClusterMask) {
        self.shards[i].quarantine(mask);
        self.collect(i);
    }

    /// Shard `i`'s health, derived from its healthy-cluster count
    /// against the configured size.
    pub fn shard_state(&self, i: usize) -> ShardState {
        match self.shards[i].healthy_clusters() {
            0 => ShardState::Dead,
            h if h < self.config.clusters_per_shard => ShardState::Degraded,
            _ => ShardState::Healthy,
        }
    }

    /// Advances every shard to `until`, collects completions, and — when
    /// stealing is on — lets idle shards take queued work from loaded
    /// siblings.
    ///
    /// # Errors
    ///
    /// Shard service-backend failures.
    pub fn advance(&mut self, until: u64) -> Result<(), SchedError> {
        let _prof = mpsoc_sim::profile::scope("serve.fleet.advance");
        for i in 0..self.shards.len() {
            self.shards[i].advance(until)?;
            self.collect(i);
        }
        self.fail_over()?;
        self.rebalance()
    }

    /// Submits one job at virtual time `now` (non-decreasing across
    /// calls). The placement policy picks the shard; that shard's
    /// admission verdict is final.
    ///
    /// # Errors
    ///
    /// Shard service-backend failures.
    pub fn submit(
        &mut self,
        kernel: KernelId,
        n: u64,
        deadline: u64,
        now: u64,
    ) -> Result<(u32, ShardDecision), SchedError> {
        self.advance(now)?;
        let first = self.place();
        let job = Job {
            id: self.next_job_id,
            kernel,
            n,
            arrival: now,
            deadline,
        };
        self.next_job_id += 1;
        self.submitted += 1;
        let mut shard = first;
        let mut decision = self.shards[first].offer(job)?;
        if matches!(
            decision,
            ShardDecision::Rejected {
                reason: RejectReason::QueueFull { .. }
            }
        ) && self.config.redirect_budget > 0
        {
            (shard, decision) = self.redirect(first, job, decision)?;
        }
        if matches!(
            decision,
            ShardDecision::Queued { .. } | ShardDecision::Host { .. }
        ) {
            self.tallies[shard].accepted += 1;
            if let Some(check) = self.shards[shard].take_cost_check() {
                self.stats[shard].incr("serve.cost.checked");
                if check.predicted < check.best as f64 {
                    self.stats[shard].incr("serve.cost.pred_below_best");
                }
                if check.predicted > check.worst as f64 {
                    self.stats[shard].incr("serve.cost.pred_above_worst");
                }
            }
        }
        // Rejections are counted when their records are collected, so a
        // withdrawn (successfully redirected) rejection never shows up.
        self.collect(first);
        if shard != first {
            self.collect(shard);
        }
        Ok((shard as u32, decision))
    }

    /// Re-offers a queue-full-rejected job to up to
    /// [`FleetConfig::redirect_budget`] next-best live shards. The first
    /// taker wins: the original shard's rejection record is withdrawn
    /// and the taker's verdict replaces it. Failed attempts withdraw
    /// their own records immediately, and when the budget exhausts (or
    /// no alternative exists) the original rejection stands — exactly
    /// one record per job either way.
    fn redirect(
        &mut self,
        first: usize,
        job: Job,
        original: ShardDecision,
    ) -> Result<(usize, ShardDecision), SchedError> {
        let mut tried = vec![false; self.shards.len()];
        tried[first] = true;
        for _ in 0..self.config.redirect_budget {
            let Some(next) = self.next_choice(&tried) else {
                break;
            };
            tried[next] = true;
            let decision = self.shards[next].offer(job)?;
            match decision {
                ShardDecision::Queued { .. } | ShardDecision::Host { .. } => {
                    let withdrawn = self.shards[first].withdraw_rejection(job.id);
                    debug_assert!(withdrawn, "the queue-full rejection must still be last");
                    self.stats[first].incr("serve.health.redirects");
                    return Ok((next, decision));
                }
                ShardDecision::Rejected { .. } => {
                    // This attempt is not final: drop its record and
                    // keep looking (the original rejection still
                    // stands if nothing takes the job).
                    self.shards[next].withdraw_rejection(job.id);
                }
            }
        }
        Ok((first, original))
    }

    /// The untried live shard with the shallowest queue (ties to the
    /// lowest index) — the deterministic "next-best" choice redirection
    /// and failover share.
    fn next_choice(&self, tried: &[bool]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, s) in self.shards.iter().enumerate() {
            if tried[i] || s.healthy_clusters() == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some(b) => s.queue_depth() < self.shards[b].queue_depth(),
            };
            if better {
                best = Some(i);
            }
        }
        best
    }

    /// Runs every shard dry and collects the remaining completions.
    ///
    /// # Errors
    ///
    /// Shard failures, including a stalled co-simulated session.
    pub fn drain(&mut self) -> Result<(), SchedError> {
        self.fail_over()?;
        self.rebalance()?;
        for i in 0..self.shards.len() {
            self.shards[i].drain()?;
            self.collect(i);
        }
        Ok(())
    }

    /// The placement policy's shard choice for the next job. Dead
    /// shards are skipped and capacity-normalized scores divide by the
    /// *healthy* cluster count, so a degraded shard attracts
    /// proportionally less work; on an all-healthy fleet every branch
    /// reduces exactly to the pre-health behavior. With every shard
    /// dead, shard 0 takes the offer (and rejects it as degraded).
    fn place(&mut self) -> usize {
        match self.config.placement {
            PlacementPolicy::RoundRobin => {
                for _ in 0..self.shards.len() {
                    let shard = self.rr_next % self.shards.len();
                    self.rr_next += 1;
                    if self.shards[shard].healthy_clusters() > 0 {
                        return shard;
                    }
                }
                0
            }
            PlacementPolicy::LeastLoaded => {
                let mut best: Option<usize> = None;
                for (i, s) in self.shards.iter().enumerate() {
                    if s.healthy_clusters() == 0 {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => s.queue_depth() < self.shards[b].queue_depth(),
                    };
                    if better {
                        best = Some(i);
                    }
                }
                best.unwrap_or(0)
            }
            PlacementPolicy::ModelGuided => {
                let mut best: Option<usize> = None;
                let mut best_score = f64::INFINITY;
                for (i, s) in self.shards.iter().enumerate() {
                    if s.healthy_clusters() == 0 {
                        continue;
                    }
                    let sc = s.backlog_cycles() / s.healthy_clusters() as f64;
                    if best.is_none() || sc < best_score {
                        best = Some(i);
                        best_score = sc;
                    }
                }
                best.unwrap_or(0)
            }
        }
    }

    /// Evacuates work stranded by quarantine. Dead shards (whole pool
    /// quarantined) give up their entire queue; degraded shards give up
    /// exactly the jobs whose minimum partition no longer fits their
    /// surviving pool — under the shards' strict-FIFO policy such a job
    /// would otherwise wedge the queue head mid-stream, starving every
    /// job behind it until drain. Each evacuated job moves to the
    /// shallowest live shard whose healthy pool still fits it
    /// (admission solution intact, no hardware state to migrate); with
    /// no fitting survivor it resolves immediately as a typed
    /// `DegradedMachine` rejection. No-op unless
    /// [`FleetConfig::failover`] is on.
    fn fail_over(&mut self) -> Result<(), SchedError> {
        if !self.config.failover {
            return Ok(());
        }
        for i in 0..self.shards.len() {
            let evicted = if self.shards[i].healthy_clusters() == 0 {
                // Steal pops the tail; reverse to evacuate in arrival
                // order so the oldest jobs get first pick of survivors.
                let mut all = Vec::new();
                while let Some(q) = self.shards[i].steal() {
                    all.push(q);
                }
                all.reverse();
                all
            } else {
                self.shards[i].evict_unservable()
            };
            for q in evicted {
                let mut tried = vec![false; self.shards.len()];
                tried[i] = true;
                let target = loop {
                    match self.next_choice(&tried) {
                        Some(t) if self.shards[t].healthy_clusters() as u64 >= q.m_min => {
                            break Some(t);
                        }
                        Some(t) => tried[t] = true,
                        None => break None,
                    }
                };
                match target {
                    Some(t) => {
                        self.stats[i].incr("serve.health.failovers");
                        self.shards[t].inject(q)?;
                    }
                    None => self.shards[i].reject_evicted(q),
                }
            }
        }
        Ok(())
    }

    /// One stealing pass: each idle shard (empty queue, free clusters)
    /// takes one queued-but-unstarted job from the deepest queue holding
    /// at least two. Bounded by the shard count, deterministic in index
    /// order.
    fn rebalance(&mut self) -> Result<(), SchedError> {
        if !self.config.steal {
            return Ok(());
        }
        for i in 0..self.shards.len() {
            if self.shards[i].queue_depth() != 0 || self.shards[i].free_clusters() == 0 {
                continue;
            }
            let mut donor = None;
            let mut depth = 1usize; // require at least 2 queued to steal
            for (j, s) in self.shards.iter().enumerate() {
                if j != i && s.queue_depth() > depth {
                    donor = Some(j);
                    depth = s.queue_depth();
                }
            }
            let Some(j) = donor else { continue };
            if let Some(stolen) = self.shards[j].steal() {
                self.stats[j].incr("serve.steals_out");
                self.stats[i].incr("serve.steals_in");
                self.shards[i].inject(stolen)?;
            }
        }
        Ok(())
    }

    /// Drains shard `i`'s finished records into the fleet log, its
    /// tallies and registry and the fleet's running SLO counters, along
    /// with its quarantine events and any health-state transition they
    /// caused.
    fn collect(&mut self, i: usize) {
        let (tally, reg) = (&mut self.tallies[i], &mut self.stats[i]);
        for record in self.shards[i].drain_finished_iter() {
            if let JobOutcome::Offloaded { finish, .. } | JobOutcome::Host { finish, .. } =
                record.outcome
            {
                self.makespan = self.makespan.max(finish);
                if record.missed_deadline() {
                    tally.deadline_missed += 1;
                } else {
                    self.deadline_met += 1;
                }
                if let Some(l) = record.latency() {
                    tally.observe_latency(l);
                }
            }
            match record.outcome {
                JobOutcome::Offloaded { .. } => {
                    tally.offloaded += 1;
                    tally.retries += u64::from(record.retries);
                }
                JobOutcome::Host { .. } => tally.host_runs += 1,
                // Counted here — not at submit time — so rejections
                // that materialize mid-run (stranded jobs on a dead
                // shard) are counted too, and rejections withdrawn by a
                // successful redirect never are. Rejections are rare
                // next to completions, so they stay keyed.
                JobOutcome::Rejected { reason } => {
                    reg.incr("serve.rejected");
                    // One named counter per rejection kind, so
                    // operators can tell backpressure from model-side
                    // infeasibility at a glance
                    // (`serve.reject.queue_full` vs `.infeasible` …).
                    reg.incr(&format!("serve.reject.{}", reason.counter_key()));
                    if matches!(reason, RejectReason::QueueFull { .. }) {
                        reg.incr("serve.queue_full");
                    }
                }
            }
            self.completed.push(FleetRecord {
                shard: i as u32,
                record,
            });
        }
        let retired = self.shards[i].drain_quarantine_events();
        if !retired.is_empty() {
            self.stats[i].add("serve.health.quarantined_clusters", retired.len() as u64);
            let code = self.shard_state(i).code();
            if code > self.state_logged[i] {
                self.stats[i].add("serve.health.shard_state", code - self.state_logged[i]);
                self.state_logged[i] = code;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(placement: PlacementPolicy) -> FleetConfig {
        FleetConfig {
            shards: 4,
            clusters_per_shard: 4,
            queue_limit: 4,
            placement,
            steal: true,
            redirect_budget: 0,
            failover: false,
        }
    }

    fn fleet(placement: PlacementPolicy) -> Fleet {
        Fleet::analytic(config(placement), &ModelTable::paper_defaults())
    }

    #[test]
    fn cost_gates_reject_static_infeasible_and_audit_predictions() {
        let mut f = fleet(PlacementPolicy::RoundRobin);
        f.enable_cost_gates();

        // A one-cycle deadline is below the static best case of any
        // path; the gate fires before Eq. 3 even sees the job.
        let (shard, d) = f.submit(KernelId::Daxpy, 4_096, 1, 0).expect("submit");
        match d {
            ShardDecision::Rejected {
                reason: RejectReason::StaticInfeasible { best },
            } => assert!(best > 1),
            other => panic!("expected static-infeasible rejection, got {other:?}"),
        }
        assert_eq!(
            f.shard_stats()[shard as usize].counter("serve.reject.static_infeasible"),
            1
        );

        // A generous deadline passes the gate; the queued admission is
        // audited against the static envelope.
        let (shard, d) = f
            .submit(KernelId::Daxpy, 4_096, 10_000_000, 10)
            .expect("submit");
        assert!(matches!(d, ShardDecision::Queued { .. }));
        assert_eq!(
            f.shard_stats()[shard as usize].counter("serve.cost.checked"),
            1
        );
        f.drain().expect("drain");
    }

    #[test]
    fn cost_gates_pass_a_job_whose_geometry_overflows_the_address_space() {
        // 2^62 DAXPY elements have no 64-bit byte addresses, so the
        // static analysis cannot bound the job: the gate stays open, as
        // for any program it cannot bound, and Eq. 3 decides.
        let mut f = fleet(PlacementPolicy::RoundRobin);
        f.enable_cost_gates();
        let (_, d) = f
            .submit(KernelId::Daxpy, 1 << 62, u64::MAX / 2, 0)
            .expect("submit");
        assert!(
            !matches!(
                d,
                ShardDecision::Rejected {
                    reason: RejectReason::StaticInfeasible { .. }
                }
            ),
            "{d:?}"
        );
        f.drain().expect("drain");
        assert_eq!(f.completed().len(), 1);
        assert_eq!(f.fleet_view().stats().counter("serve.cost.checked"), 0);
    }

    #[test]
    fn round_robin_rotates_across_shards() {
        let mut f = fleet(PlacementPolicy::RoundRobin);
        let mut shards = Vec::new();
        for i in 0..8 {
            let (s, d) = f
                .submit(KernelId::Daxpy, 1024, 100_000, i * 10)
                .expect("submit");
            assert!(matches!(d, ShardDecision::Queued { .. }));
            shards.push(s);
        }
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        f.drain().expect("drain");
        assert_eq!(f.completed().len(), 8);
    }

    #[test]
    fn least_loaded_avoids_the_deep_queue() {
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 2,
                clusters_per_shard: 1,
                queue_limit: 8,
                placement: PlacementPolicy::LeastLoaded,
                steal: false,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        // All at t=0: the balancer must alternate as queues grow.
        let mut placements = Vec::new();
        for _ in 0..6 {
            let (s, _) = f
                .submit(KernelId::Daxpy, 4096, 1_000_000, 0)
                .expect("submit");
            placements.push(s);
        }
        let on_zero = placements.iter().filter(|&&s| s == 0).count();
        assert_eq!(on_zero, 3, "load must spread evenly: {placements:?}");
        f.drain().expect("drain");
    }

    #[test]
    fn queue_limit_backpressure_rejects_when_saturated() {
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 1,
                clusters_per_shard: 1,
                queue_limit: 2,
                placement: PlacementPolicy::RoundRobin,
                steal: false,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        let mut rejected = 0;
        for _ in 0..8 {
            let (_, d) = f
                .submit(KernelId::Daxpy, 4096, 1_000_000, 0)
                .expect("submit");
            if matches!(
                d,
                ShardDecision::Rejected {
                    reason: RejectReason::QueueFull { .. }
                }
            ) {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "saturation must trip backpressure");
        let view = f.fleet_view();
        assert_eq!(view.stats().counter("serve.queue_full"), rejected);
        f.drain().expect("drain");
        assert_eq!(f.completed().len(), 8, "every job resolves exactly once");
    }

    #[test]
    fn idle_shards_steal_queued_work() {
        // Round-robin on 2 shards with 1 cluster each; shard 0 gets a
        // burst of big jobs (deep queue) while shard 1 receives tiny
        // host-bound jobs and idles its cluster — stealing must move
        // queued offloads over.
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 2,
                clusters_per_shard: 1,
                queue_limit: 16,
                placement: PlacementPolicy::RoundRobin,
                steal: true,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        // Even submissions (shard 0): large offloads. Odd (shard 1):
        // below-break-even jobs that run on the host, leaving the
        // cluster free.
        for k in 0..10 {
            let (n, deadline) = if k % 2 == 0 {
                (4096, 1_000_000)
            } else {
                (64, 1_000_000)
            };
            f.submit(KernelId::Daxpy, n, deadline, k).expect("submit");
        }
        // Advance a little so shard 1 finishes nothing yet but the
        // balancer sees shard 0's queue.
        f.advance(100).expect("advance");
        let view = f.fleet_view();
        assert!(
            view.stats().counter("serve.steals_in") > 0,
            "idle shard must steal: {:?}",
            view.stats().counters().collect::<Vec<_>>()
        );
        f.drain().expect("drain");
        assert_eq!(f.completed().len(), 10);
    }

    #[test]
    fn shard_health_tracks_quarantine_mass() {
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 1,
                clusters_per_shard: 2,
                queue_limit: 4,
                placement: PlacementPolicy::RoundRobin,
                steal: false,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        assert_eq!(f.shard_state(0), ShardState::Healthy);
        f.quarantine_shard(0, ClusterMask::single(0));
        assert_eq!(f.shard_state(0), ShardState::Degraded);
        f.quarantine_shard(0, ClusterMask::single(1));
        assert_eq!(f.shard_state(0), ShardState::Dead);
        let stats = &f.shard_stats()[0];
        assert_eq!(stats.counter("serve.health.quarantined_clusters"), 2);
        // The monotone state counter carries the *current* code.
        assert_eq!(
            stats.counter("serve.health.shard_state"),
            ShardState::Dead.code()
        );
    }

    #[test]
    fn failover_moves_a_dead_shards_queue_to_survivors() {
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 2,
                clusters_per_shard: 1,
                queue_limit: 16,
                placement: PlacementPolicy::RoundRobin,
                steal: false,
                redirect_budget: 0,
                failover: true,
            },
            &ModelTable::paper_defaults(),
        );
        // Round-robin at t=0: three offloads land on each shard (one
        // running, two queued).
        for _ in 0..6 {
            let (_, d) = f
                .submit(KernelId::Daxpy, 4096, 1_000_000, 0)
                .expect("submit");
            assert!(matches!(d, ShardDecision::Queued { .. }));
        }
        f.quarantine_shard(0, ClusterMask::single(0));
        assert_eq!(f.shard_state(0), ShardState::Dead);
        f.drain().expect("drain");
        let view = f.fleet_view();
        assert!(
            view.stats().counter("serve.health.failovers") > 0,
            "the dead shard's queue must evacuate: {:?}",
            view.stats().counters().collect::<Vec<_>>()
        );
        // Nothing admitted is lost: every job resolves as a completion,
        // not a stranded DegradedMachine rejection.
        assert_eq!(f.completed().len(), 6);
        assert!(f
            .completed()
            .iter()
            .all(|r| !matches!(r.record.outcome, JobOutcome::Rejected { .. })));
    }

    /// A 2×2 fleet where each shard runs a narrow filler on cluster 0
    /// and shard 0 additionally queues a job whose deadline only a
    /// 2-cluster partition can meet (t̂(1, 16384) misses, t̂(2, 16384)
    /// fits, host is far out of range).
    fn degraded_wide_job_fleet(shards: usize) -> Fleet {
        let mut f = Fleet::analytic(
            FleetConfig {
                shards,
                clusters_per_shard: 2,
                queue_limit: 8,
                placement: PlacementPolicy::RoundRobin,
                steal: false,
                redirect_budget: 0,
                failover: true,
            },
            &ModelTable::paper_defaults(),
        );
        for _ in 0..shards {
            let (_, d) = f
                .submit(KernelId::Daxpy, 4096, 1_000_000, 0)
                .expect("submit filler");
            assert!(matches!(d, ShardDecision::Queued { m_min: 1, .. }));
        }
        let (s, d) = f.submit(KernelId::Daxpy, 16_384, 8_000, 0).expect("submit");
        assert_eq!(s, 0, "round-robin wraps the wide job onto shard 0");
        assert!(
            matches!(d, ShardDecision::Queued { m_min: 2, .. }),
            "the deadline must force a 2-cluster partition, got {d:?}"
        );
        f
    }

    #[test]
    fn failover_rescues_a_wedged_wide_job_from_a_degraded_shard() {
        // Quarantining shard 0's free cluster leaves its queued m_min=2
        // job unservable — without eviction it would wedge the strict
        // FIFO head until drain. Failover must move it to shard 1,
        // whose full pool still fits it, where it completes 2-wide.
        let mut f = degraded_wide_job_fleet(2);
        f.quarantine_shard(0, ClusterMask::single(1));
        assert_eq!(f.shard_state(0), ShardState::Degraded);
        f.drain().expect("drain");
        assert!(f.fleet_view().stats().counter("serve.health.failovers") > 0);
        assert_eq!(f.completed().len(), 3);
        let wide = f
            .completed()
            .iter()
            .find(|r| r.record.job.id == 2)
            .expect("wide job resolves");
        assert_eq!(wide.shard, 1, "the wide job must land on the survivor");
        assert!(
            matches!(wide.record.outcome, JobOutcome::Offloaded { m: 2, .. }),
            "rescued job still runs at its admitted width: {:?}",
            wide.record.outcome
        );
    }

    #[test]
    fn eviction_rejects_typed_when_no_survivor_fits() {
        // Same wedge, but every shard is degraded to one cluster: no
        // pool fits the m_min=2 job, so eviction must resolve it as an
        // immediate `DegradedMachine` rejection instead of moving it —
        // and the narrow tenants on the surviving clusters finish
        // untouched.
        let mut f = degraded_wide_job_fleet(2);
        f.quarantine_shard(0, ClusterMask::single(1));
        f.quarantine_shard(1, ClusterMask::single(1));
        f.drain().expect("drain");
        assert_eq!(f.fleet_view().stats().counter("serve.health.failovers"), 0);
        assert_eq!(f.completed().len(), 3);
        let wide = f
            .completed()
            .iter()
            .find(|r| r.record.job.id == 2)
            .expect("wide job resolves");
        match wide.record.outcome {
            JobOutcome::Rejected {
                reason: RejectReason::DegradedMachine { required, healthy },
            } => {
                assert_eq!(required, 2);
                assert_eq!(healthy, 1);
            }
            ref other => panic!("expected a degraded rejection, got {other:?}"),
        }
        let offloaded = f
            .completed()
            .iter()
            .filter(|r| matches!(r.record.outcome, JobOutcome::Offloaded { .. }))
            .count();
        assert_eq!(offloaded, 2, "both fillers complete on surviving clusters");
    }

    #[test]
    fn without_failover_a_dead_shard_strands_its_queue() {
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 2,
                clusters_per_shard: 1,
                queue_limit: 16,
                placement: PlacementPolicy::RoundRobin,
                steal: false,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        for _ in 0..6 {
            f.submit(KernelId::Daxpy, 4096, 1_000_000, 0)
                .expect("submit");
        }
        f.quarantine_shard(0, ClusterMask::single(0));
        f.drain().expect("drain");
        let stranded = f
            .completed()
            .iter()
            .filter(|r| {
                matches!(
                    r.record.outcome,
                    JobOutcome::Rejected {
                        reason: RejectReason::DegradedMachine { .. }
                    }
                )
            })
            .count();
        assert!(stranded > 0, "queued work on the dead shard must strand");
        assert_eq!(f.completed().len(), 6);
        assert_eq!(f.fleet_view().stats().counter("serve.health.failovers"), 0);
    }

    #[test]
    fn queue_full_jobs_redirect_to_shards_with_room() {
        // Round-robin sends heavy offloads to shard 0 (even arrivals)
        // and below-break-even host jobs to shard 1 (odd arrivals), so
        // shard 0's queue saturates while shard 1 sits empty.
        let run = |redirect_budget: u32| {
            let mut f = Fleet::analytic(
                FleetConfig {
                    shards: 2,
                    clusters_per_shard: 1,
                    queue_limit: 2,
                    placement: PlacementPolicy::RoundRobin,
                    steal: false,
                    redirect_budget,
                    failover: false,
                },
                &ModelTable::paper_defaults(),
            );
            for k in 0..12u64 {
                let n = if k % 2 == 0 { 4096 } else { 64 };
                f.submit(KernelId::Daxpy, n, 1_000_000, 0).expect("submit");
            }
            f.drain().expect("drain");
            f
        };
        let strict = run(0);
        let healed = run(1);
        let queue_full = |f: &Fleet| f.fleet_view().stats().counter("serve.queue_full");
        assert!(
            queue_full(&healed) < queue_full(&strict),
            "redirection must convert backpressure rejections into work: {} vs {}",
            queue_full(&healed),
            queue_full(&strict)
        );
        assert!(
            healed
                .fleet_view()
                .stats()
                .counter("serve.health.redirects")
                > 0
        );
        // Exactly-once resolution under withdrawal: 12 records, one per
        // distinct job.
        for f in [&strict, &healed] {
            let mut ids: Vec<u64> = f.completed().iter().map(|r| r.record.job.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 12);
        }
    }

    #[test]
    fn placement_skips_dead_shards() {
        for placement in ALL_PLACEMENTS {
            let mut f = Fleet::analytic(
                FleetConfig {
                    shards: 3,
                    clusters_per_shard: 2,
                    queue_limit: 8,
                    placement,
                    steal: false,
                    redirect_budget: 0,
                    failover: false,
                },
                &ModelTable::paper_defaults(),
            );
            f.quarantine_shard(1, ClusterMask::first(2));
            for i in 0..9u64 {
                let (s, _) = f
                    .submit(KernelId::Daxpy, 1024, 100_000, i * 10)
                    .expect("submit");
                assert_ne!(s, 1, "{placement:?} placed on a dead shard");
            }
            f.drain().expect("drain");
        }
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let run = || {
            let mut f = fleet(PlacementPolicy::ModelGuided);
            for i in 0..50u64 {
                let n = 256 << (i % 4);
                f.submit(KernelId::Daxpy, n, 50_000, i * 137)
                    .expect("submit");
            }
            f.drain().expect("drain");
            serde_json::to_string(&f.completed().to_vec()).expect("serialize")
        };
        assert_eq!(run(), run());
    }

    /// Each shard's registry as keyed updates built it before the
    /// typed tallies: `accepted_on` names the shard each accepted job's
    /// submit returned, and every served record is counted on the shard
    /// that resolved it. Rejections are keyed in the registry already.
    fn keyed_registries(f: &Fleet, accepted_on: &[u32]) -> Vec<StatsRegistry> {
        let mut regs = f.stats.clone();
        for &shard in accepted_on {
            regs[shard as usize].incr("serve.accepted");
        }
        for fr in f.completed() {
            let (reg, record) = (&mut regs[fr.shard as usize], &fr.record);
            let offloaded = match record.outcome {
                JobOutcome::Offloaded { .. } => true,
                JobOutcome::Host { .. } => false,
                JobOutcome::Rejected { .. } => continue,
            };
            reg.incr(if offloaded {
                "serve.offloaded"
            } else {
                "serve.host_runs"
            });
            if let Some(l) = record.latency() {
                reg.observe("serve.latency", l as f64);
            }
            if record.missed_deadline() {
                reg.incr("serve.deadline_missed");
            }
            if offloaded {
                reg.add("serve.retries", u64::from(record.retries));
            }
        }
        regs
    }

    fn assert_same_registry(got: &StatsRegistry, want: &StatsRegistry) {
        assert_eq!(
            got.counters().collect::<Vec<_>>(),
            want.counters().collect::<Vec<_>>()
        );
        assert_eq!(
            got.summaries().collect::<Vec<_>>(),
            want.summaries().collect::<Vec<_>>()
        );
        assert_eq!(
            got.histograms().collect::<Vec<_>>(),
            want.histograms().collect::<Vec<_>>()
        );
    }

    #[test]
    fn a_fresh_fleet_reports_no_serve_counters() {
        let f = fleet(PlacementPolicy::ModelGuided);
        let view = f.fleet_view();
        assert_eq!(view.stats().counters().count(), 0);
        assert_eq!(view.stats().summaries().count(), 0);
        assert_eq!(view.stats().histograms().count(), 0);
    }

    #[test]
    fn the_first_offload_without_retries_reports_zero_retries() {
        let mut f = fleet(PlacementPolicy::RoundRobin);
        let (shard, d) = f.submit(KernelId::Daxpy, 1024, 100_000, 0).expect("submit");
        assert!(matches!(d, ShardDecision::Queued { .. }));
        let counters = |f: &Fleet| -> Vec<(String, u64)> {
            f.fleet_view()
                .stats()
                .counters()
                .map(|(name, value)| (name.to_owned(), value))
                .collect()
        };
        // Accepted, not yet finished: no retries key yet.
        assert!(!counters(&f)
            .iter()
            .any(|(name, _)| name.ends_with("retries")));
        f.drain().expect("drain");
        let counters = counters(&f);
        let has = |name: &str, value: u64| counters.contains(&(name.to_owned(), value));
        assert!(has("serve.retries", 0), "{counters:?}");
        assert!(
            has(&format!("shard{shard}.serve.retries"), 0),
            "{counters:?}"
        );
        assert!(has("serve.offloaded", 1), "{counters:?}");
        assert!(!counters.iter().any(|(name, _)| name.contains("reject")));
    }

    #[test]
    fn every_rejection_kind_counts_under_its_keyed_name() {
        // One shard of two clusters behind a two-deep queue: a burst of
        // long jobs fills the queue, a one-cycle deadline is infeasible
        // statically and by Eq. 3, a deadline only a wide partition
        // meets needs more clusters than the shard has, and a dead
        // shard rejects as degraded. `program_lint` is the one kind a
        // fleet cannot produce: the lint gate is an `Engine` option.
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 1,
                clusters_per_shard: 2,
                queue_limit: 2,
                placement: PlacementPolicy::RoundRobin,
                steal: false,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        let mut accepted_on = Vec::new();
        let mut submit = |f: &mut Fleet, n: u64, deadline: u64, now: u64| {
            let (shard, d) = f.submit(KernelId::Daxpy, n, deadline, now).expect("submit");
            if !matches!(d, ShardDecision::Rejected { .. }) {
                accepted_on.push(shard);
            }
            d
        };
        for _ in 0..6 {
            submit(&mut f, 16_384, 10_000_000, 0);
        }
        submit(&mut f, 4_096, 1, 0);
        submit(&mut f, 65_536, 20_000, 0);
        f.enable_cost_gates();
        submit(&mut f, 4_096, 1, 0);
        f.quarantine_shard(0, ClusterMask::first(2));
        submit(&mut f, 4_096, 10_000_000, 10);
        f.drain().expect("drain");

        let mut kinds: Vec<&str> = f
            .completed()
            .iter()
            .filter_map(|r| match r.record.outcome {
                JobOutcome::Rejected { reason } => Some(reason.counter_key()),
                _ => None,
            })
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(
            kinds,
            [
                "degraded_machine",
                "infeasible",
                "not_enough_clusters",
                "queue_full",
                "static_infeasible"
            ]
        );
        let keyed = keyed_registries(&f, &accepted_on);
        let typed = f.shard_stats();
        assert_same_registry(&typed[0], &keyed[0]);
        let view = f.fleet_view();
        for kind in kinds {
            let count = f
                .completed()
                .iter()
                .filter(|r| {
                    matches!(r.record.outcome, JobOutcome::Rejected { reason }
                        if reason.counter_key() == kind)
                })
                .count() as u64;
            assert_eq!(view.stats().counter(&format!("serve.reject.{kind}")), count);
            assert_eq!(
                view.stats().counter(&format!("shard0.serve.reject.{kind}")),
                count
            );
        }
    }

    #[test]
    fn typed_tallies_merge_to_the_keyed_registries() {
        // Offloads, host runs, misses, steals, redirects and queue-full
        // rejections across four shards.
        let mut f = Fleet::analytic(
            FleetConfig {
                redirect_budget: 1,
                ..config(PlacementPolicy::ModelGuided)
            },
            &ModelTable::paper_defaults(),
        );
        let mut accepted_on = Vec::new();
        for i in 0..400u64 {
            let n = [64, 1024, 8192, 32_768][(i % 4) as usize];
            let deadline = [400, 20_000, 60_000, 1_000_000][(i % 3) as usize];
            let (shard, d) = f
                .submit(KernelId::ALL[(i % 7) as usize], n, deadline, i * 150)
                .expect("submit");
            if !matches!(d, ShardDecision::Rejected { .. }) {
                accepted_on.push(shard);
            }
        }
        f.drain().expect("drain");
        let view = f.fleet_view();
        for name in [
            "serve.host_runs",
            "serve.deadline_missed",
            "serve.queue_full",
        ] {
            assert!(view.stats().counter(name) > 0, "{name} never counted");
        }
        let keyed = keyed_registries(&f, &accepted_on);
        for (typed, keyed) in f.shard_stats().iter().zip(&keyed) {
            assert_same_registry(typed, keyed);
        }
        let keyed_view = FleetView::with_shards(keyed.iter());
        assert_same_registry(view.stats(), keyed_view.stats());
    }

    #[test]
    fn fleet_view_merges_per_shard_latencies() {
        let mut f = fleet(PlacementPolicy::RoundRobin);
        for i in 0..16u64 {
            f.submit(KernelId::Daxpy, 1024, 100_000, i * 1000)
                .expect("submit");
        }
        f.drain().expect("drain");
        let view = f.fleet_view();
        let global = view.stats().histogram("serve.latency");
        let per_shard: u64 = (0..4)
            .map(|i| {
                view.stats()
                    .histogram(&format!("shard{i}.serve.latency"))
                    .count()
            })
            .sum();
        assert_eq!(global.count(), 16);
        assert_eq!(per_shard, 16);
        assert!(view.quantile("serve.latency", 0.99).is_some());
    }
}
