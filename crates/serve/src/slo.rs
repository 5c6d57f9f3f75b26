//! Fleet SLO accounting: one serializable summary per (fleet, run).
//!
//! The serving SLO here is latency-against-deadline: a job *attains* its
//! SLO when it completes by its submission-relative deadline. Rejected
//! jobs (admission or backpressure) count against attainment — turning
//! work away is a served "no", not a free pass. Quantiles come from the
//! exact merge of per-shard log-bucketed histograms, so fleet p50/p99
//! carry the same 1/16 relative-error bound as any single shard's.

use mpsoc_telemetry::FleetView;
use serde::{Deserialize, Serialize};

use crate::fleet::Fleet;

/// Per-shard slice of the fleet summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSlo {
    /// Shard index.
    pub shard: u32,
    /// Jobs this shard accepted (offload or host).
    pub accepted: u64,
    /// Jobs this shard rejected.
    pub rejected: u64,
    /// Rejections specifically from queue-depth backpressure.
    pub queue_full: u64,
    /// Completed cluster offloads.
    pub offloaded: u64,
    /// Completed host-fallback runs.
    pub host_runs: u64,
    /// Queued jobs stolen *from* this shard.
    pub steals_out: u64,
    /// Queued jobs stolen *into* this shard.
    pub steals_in: u64,
    /// Health at summary time (`"healthy"` / `"degraded"` / `"dead"`).
    pub state: String,
    /// Clusters auto-quarantined (or manually retired) on this shard.
    pub quarantined_clusters: u64,
    /// Queued jobs evacuated from this shard after it died.
    pub failovers: u64,
    /// Queue-full rejections redirected *away* from this shard that
    /// found a taker.
    pub redirects: u64,
    /// Median completion latency (cycles; `None` when nothing
    /// completed — `Some(0)` would be indistinguishable from a real
    /// zero-cycle completion).
    pub p50: Option<u64>,
    /// 99th-percentile completion latency (cycles; `None` when nothing
    /// completed).
    pub p99: Option<u64>,
    /// Busy cluster-cycles over capacity × fleet makespan.
    pub utilization: f64,
}

/// The fleet-wide SLO summary of one serving run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSlo {
    /// Placement policy name.
    pub placement: String,
    /// Shard count.
    pub shards: u64,
    /// Clusters per shard.
    pub clusters_per_shard: u64,
    /// Jobs offered to the fleet.
    pub submitted: u64,
    /// Jobs that completed (offload + host).
    pub completed: u64,
    /// Completed cluster offloads.
    pub offloaded: u64,
    /// Completed host-fallback runs.
    pub host_runs: u64,
    /// Jobs rejected (all reasons).
    pub rejected: u64,
    /// Rejections from queue-depth backpressure.
    pub queue_full: u64,
    /// Work-stealing transfers.
    pub steals: u64,
    /// Corruption re-dispatches across the fleet.
    pub retries: u64,
    /// Clusters quarantined across the fleet.
    pub quarantined_clusters: u64,
    /// Shards with every cluster quarantined at summary time.
    pub dead_shards: u64,
    /// Jobs evacuated from dead shards to survivors.
    pub failovers: u64,
    /// Queue-full rejections that found a taker on another shard.
    pub redirects: u64,
    /// Completed jobs that met their deadline.
    pub deadline_met: u64,
    /// `deadline_met / submitted` — rejections count against SLO.
    pub attainment: f64,
    /// Fleet median completion latency (cycles; `None` when nothing
    /// completed anywhere — e.g. every job rejected).
    pub p50: Option<u64>,
    /// Fleet 99th-percentile completion latency (cycles; `None` when
    /// nothing completed anywhere).
    pub p99: Option<u64>,
    /// Mean completion latency (cycles).
    pub mean_latency: f64,
    /// Last completion cycle across the fleet.
    pub makespan: u64,
    /// Per-shard breakdowns.
    pub per_shard: Vec<ShardSlo>,
}

impl FleetSlo {
    /// Summarizes a fleet after (or during) a run.
    pub fn from_fleet(fleet: &Fleet) -> Self {
        Self::from_view(fleet, &fleet.fleet_view())
    }

    /// Summarizes `fleet` from `view`, its [`Fleet::fleet_view`], so a
    /// caller that also reads the view's counters builds it once.
    pub(crate) fn from_view(fleet: &Fleet, view: &FleetView) -> Self {
        let stats = view.stats();
        let config = fleet.config();
        // Kept as the fleet collects records, so a summary costs time in
        // the shard count, not the number of jobs served.
        let makespan = fleet.makespan();
        let deadline_met = fleet.deadline_met();
        let submitted = fleet.submitted();
        let latency = stats.histogram("serve.latency");
        let per_shard = (0..config.shards)
            .map(|i| {
                let shard_hist = stats.histogram(&format!("shard{i}.serve.latency"));
                let c = |name: &str| stats.counter(&format!("shard{i}.serve.{name}"));
                let capacity = (config.clusters_per_shard as u64) * makespan;
                ShardSlo {
                    shard: i as u32,
                    accepted: c("accepted"),
                    rejected: c("rejected"),
                    queue_full: c("queue_full"),
                    offloaded: c("offloaded"),
                    host_runs: c("host_runs"),
                    steals_out: c("steals_out"),
                    steals_in: c("steals_in"),
                    state: fleet.shard_state(i).name().to_owned(),
                    quarantined_clusters: c("health.quarantined_clusters"),
                    failovers: c("health.failovers"),
                    redirects: c("health.redirects"),
                    p50: shard_hist.p50(),
                    p99: shard_hist.p99(),
                    utilization: if capacity == 0 {
                        0.0
                    } else {
                        fleet.shard(i).busy_cluster_cycles() as f64 / capacity as f64
                    },
                }
            })
            .collect();
        FleetSlo {
            placement: config.placement.name().to_owned(),
            shards: config.shards as u64,
            clusters_per_shard: config.clusters_per_shard as u64,
            submitted,
            completed: stats.counter("serve.offloaded") + stats.counter("serve.host_runs"),
            offloaded: stats.counter("serve.offloaded"),
            host_runs: stats.counter("serve.host_runs"),
            rejected: stats.counter("serve.rejected"),
            queue_full: stats.counter("serve.queue_full"),
            steals: stats.counter("serve.steals_in"),
            retries: stats.counter("serve.retries"),
            quarantined_clusters: stats.counter("serve.health.quarantined_clusters"),
            dead_shards: (0..config.shards)
                .filter(|&i| fleet.shard_state(i) == crate::fleet::ShardState::Dead)
                .count() as u64,
            failovers: stats.counter("serve.health.failovers"),
            redirects: stats.counter("serve.health.redirects"),
            deadline_met,
            attainment: if submitted == 0 {
                1.0
            } else {
                deadline_met as f64 / submitted as f64
            },
            p50: latency.p50(),
            p99: latency.p99(),
            mean_latency: stats.summary("serve.latency").mean().unwrap_or(0.0),
            makespan,
            per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, PlacementPolicy};
    use mpsoc_sched::{KernelId, ModelTable};

    #[test]
    fn slo_accounting_balances() {
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 2,
                clusters_per_shard: 2,
                queue_limit: 2,
                placement: PlacementPolicy::LeastLoaded,
                steal: true,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        for i in 0..40u64 {
            f.submit(KernelId::Daxpy, 2048, 20_000, i * 50)
                .expect("submit");
        }
        f.drain().expect("drain");
        let slo = FleetSlo::from_fleet(&f);
        assert_eq!(slo.submitted, 40);
        assert_eq!(slo.completed + slo.rejected, 40);
        assert_eq!(slo.offloaded + slo.host_runs, slo.completed);
        assert!(slo.attainment <= 1.0);
        assert!(slo.makespan > 0);
        assert_eq!(slo.per_shard.len(), 2);
        let shard_accepts: u64 = slo.per_shard.iter().map(|s| s.accepted).sum();
        assert_eq!(shard_accepts + slo.rejected, 40);
        if slo.completed > 0 {
            assert!(slo.p99.expect("completions imply p99") >= slo.p50.expect("p50"));
            assert!(slo.per_shard.iter().any(|s| s.utilization > 0.0));
        }
    }

    #[test]
    fn empty_shard_merges_as_none_not_zero() {
        // Round-robin over 2 shards with a single job: shard 0 serves
        // it, shard 1 never sees work. The idle shard must report
        // `None` quantiles — not a fake 0-cycle latency — and the
        // fleet-level merge must equal the busy shard's view.
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 2,
                clusters_per_shard: 4,
                queue_limit: 8,
                placement: PlacementPolicy::RoundRobin,
                steal: false,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        f.submit(KernelId::Daxpy, 4096, 50_000, 0).expect("submit");
        f.drain().expect("drain");
        let slo = FleetSlo::from_fleet(&f);
        assert_eq!(slo.completed, 1);
        let busy = &slo.per_shard[0];
        let idle = &slo.per_shard[1];
        assert!(busy.p50.is_some() && busy.p99.is_some());
        assert_eq!(idle.p50, None);
        assert_eq!(idle.p99, None);
        assert_eq!(idle.utilization, 0.0);
        // Merging the empty shard's histogram must not disturb the
        // fleet quantiles.
        assert_eq!(slo.p50, busy.p50);
        assert_eq!(slo.p99, busy.p99);
    }

    #[test]
    fn all_rejections_yield_zero_attainment_and_no_quantiles() {
        // Deadline 300 is below the Daxpy offload floor (c0 + c_mem·N)
        // and the host line, so every job rejects as Infeasible.
        let mut f = Fleet::analytic(
            FleetConfig {
                shards: 2,
                clusters_per_shard: 2,
                queue_limit: 4,
                placement: PlacementPolicy::LeastLoaded,
                steal: true,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        );
        for i in 0..10u64 {
            f.submit(KernelId::Daxpy, 1024, 300, i * 10)
                .expect("submit");
        }
        f.drain().expect("drain");
        let slo = FleetSlo::from_fleet(&f);
        assert_eq!(slo.submitted, 10);
        assert_eq!(slo.completed, 0);
        assert_eq!(slo.rejected, 10);
        // Nothing was served: attainment is a hard 0, not 0/0 = NaN …
        assert_eq!(slo.attainment, 0.0);
        // … and latency quantiles are absent, not zero.
        assert_eq!(slo.p50, None);
        assert_eq!(slo.p99, None);
        assert_eq!(slo.makespan, 0);
        assert!(slo
            .per_shard
            .iter()
            .all(|s| s.p50.is_none() && s.p99.is_none()));
    }
}
