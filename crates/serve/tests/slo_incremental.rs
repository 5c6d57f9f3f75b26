//! The fleet keeps its makespan and deadline-met count as it collects
//! records, so a `FleetSlo` summary costs time in the shard count rather
//! than the number of jobs served. This property checks those running
//! values against a reference that scans every resolved record, after
//! every step of random fleets: each placement, stealing on and off,
//! redirect budgets, failover, and a quarantine in the middle of the
//! stream that degrades or kills a shard.

use mpsoc_noc::ClusterMask;
use mpsoc_sched::{JobOutcome, KernelId, ModelTable};
use mpsoc_serve::{Fleet, FleetConfig, FleetSlo, ALL_PLACEMENTS};
use proptest::prelude::*;

/// `FleetSlo::from_fleet` with the makespan, the deadline-met count and
/// everything derived from them recomputed by scanning `completed()`.
fn scanned(fleet: &Fleet) -> FleetSlo {
    let mut slo = FleetSlo::from_fleet(fleet);
    let served = fleet
        .completed()
        .iter()
        .filter(|fr| !matches!(fr.record.outcome, JobOutcome::Rejected { .. }));
    slo.makespan = served
        .clone()
        .filter_map(|fr| match fr.record.outcome {
            JobOutcome::Offloaded { finish, .. } | JobOutcome::Host { finish, .. } => Some(finish),
            JobOutcome::Rejected { .. } => None,
        })
        .max()
        .unwrap_or(0);
    slo.deadline_met = served.filter(|fr| !fr.record.missed_deadline()).count() as u64;
    slo.attainment = if slo.submitted == 0 {
        1.0
    } else {
        slo.deadline_met as f64 / slo.submitted as f64
    };
    let capacity = slo.clusters_per_shard * slo.makespan;
    for (i, shard) in slo.per_shard.iter_mut().enumerate() {
        shard.utilization = if capacity == 0 {
            0.0
        } else {
            fleet.shard(i).busy_cluster_cycles() as f64 / capacity as f64
        };
    }
    slo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn incremental_slo_matches_a_scan_after_every_step(
        placement in 0usize..3,
        steal in any::<bool>(),
        redirect_budget in 0u32..3,
        failover in any::<bool>(),
        shards in 1usize..4,
        clusters_per_shard in 1usize..4,
        queue_limit in 1usize..5,
        // (kernel, size exponent, deadline class, gap to the next job)
        jobs in prop::collection::vec((0usize..7, 0u32..6, 0u64..4, 0u64..3_000), 1..48),
        // (after which job, which shard, how many clusters)
        quarantine in (0usize..48, 0usize..4, 1usize..4),
    ) {
        let config = FleetConfig {
            shards,
            clusters_per_shard,
            queue_limit,
            placement: ALL_PLACEMENTS[placement],
            steal,
            redirect_budget,
            failover,
        };
        let mut fleet = Fleet::analytic(config, &ModelTable::paper_defaults());
        prop_assert_eq!(FleetSlo::from_fleet(&fleet), scanned(&fleet));
        let (at, shard, retire) = quarantine;
        let mut now = 0;
        for (k, &(kernel, exp, class, gap)) in jobs.iter().enumerate() {
            if k == at % jobs.len() {
                fleet.quarantine_shard(
                    shard % shards,
                    ClusterMask::first(retire.min(clusters_per_shard)),
                );
                prop_assert_eq!(FleetSlo::from_fleet(&fleet), scanned(&fleet));
            }
            // Tight, middling and loose deadlines, so some served jobs
            // miss theirs.
            let deadline = [2_000, 8_000, 30_000, 1_000_000][class as usize];
            fleet
                .submit(KernelId::ALL[kernel], 256 << exp, deadline, now)
                .expect("submit");
            prop_assert_eq!(FleetSlo::from_fleet(&fleet), scanned(&fleet));
            now += gap;
        }
        fleet.drain().expect("drain");
        let slo = FleetSlo::from_fleet(&fleet);
        prop_assert_eq!(&slo, &scanned(&fleet));
        prop_assert_eq!(slo.completed + slo.rejected, jobs.len() as u64);
    }
}
