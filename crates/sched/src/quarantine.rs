//! Strike accounting for automatic mid-stream quarantine.
//!
//! Under [`ServiceBackend::CoSimulated`] the DMA CRC flags corrupted
//! partitions per completion (`TenantRun::corrupt_clusters`). One flag
//! is weak evidence — transients exist, and the re-dispatch path
//! already absorbs them — but the *same* cluster corrupting repeatedly
//! is a hardware diagnosis. The [`StrikeBoard`] turns per-completion
//! corruption masks into quarantine decisions with hysteresis: a
//! cluster is condemned only after [`AUTO_QUARANTINE_STRIKES`] corrupt
//! completions flagged it, so one transient never kills a cluster while
//! a flaky DMA engine is retired after a bounded amount of wasted work.
//!
//! Every decision is reported as a typed [`QuarantineEvent`] so the
//! serving layer (and its operators) can see *when* and *why* capacity
//! left the pool, not just that throughput dropped.
//!
//! [`ServiceBackend::CoSimulated`]: crate::ServiceBackend::CoSimulated

use mpsoc_noc::ClusterMask;
use serde::{Deserialize, Serialize};

/// Corrupt completions flagged on one cluster before auto-quarantine
/// fires. Three strikes: the first corruption is absorbed as a
/// transient by the re-dispatch path, the second is suspicious, the
/// third condemns the cluster.
pub const AUTO_QUARANTINE_STRIKES: u32 = 3;

/// One automatic quarantine decision: which cluster was retired, when,
/// and on how much evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantineEvent {
    /// Virtual cycle the quarantine took effect (the corrupt
    /// completion that crossed the threshold).
    pub at: u64,
    /// The cluster retired from the pool.
    pub cluster: usize,
    /// Corruption strikes accumulated when the decision fired.
    pub strikes: u32,
}

/// Per-cluster corruption strike counters with a quarantine threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrikeBoard {
    threshold: Option<u32>,
    strikes: Vec<u32>,
}

impl StrikeBoard {
    /// A board over `clusters` clusters with the default hysteresis.
    pub fn new(clusters: usize) -> Self {
        StrikeBoard::with_threshold(clusters, Some(AUTO_QUARANTINE_STRIKES))
    }

    /// A board with an explicit threshold; `None` disables automatic
    /// quarantine (strikes still accumulate and stay observable).
    pub fn with_threshold(clusters: usize, threshold: Option<u32>) -> Self {
        StrikeBoard {
            threshold,
            strikes: vec![0; clusters],
        }
    }

    /// Changes the threshold for subsequent [`StrikeBoard::record`]
    /// calls. Lowering it below an already-accumulated count fires on
    /// the *next* corrupt completion, not retroactively.
    pub fn set_threshold(&mut self, threshold: Option<u32>) {
        self.threshold = threshold;
    }

    /// Forgets every strike; the threshold stays.
    pub(crate) fn clear(&mut self) {
        self.strikes.fill(0);
    }

    /// Strikes accumulated against `cluster` so far.
    pub fn strikes(&self, cluster: usize) -> u32 {
        self.strikes.get(cluster).copied().unwrap_or(0)
    }

    /// Records one corrupt completion whose DMA CRC flagged the
    /// clusters in `corrupt` (a bitmask, as carried by
    /// `TenantRun::corrupt_clusters`). Already-quarantined clusters are
    /// skipped — their partitions may still be draining. Returns the
    /// mask of clusters that just crossed the threshold and must be
    /// quarantined now.
    pub fn record(&mut self, corrupt: u64, quarantined: ClusterMask) -> ClusterMask {
        let mut fire = ClusterMask::EMPTY;
        for cluster in 0..self.strikes.len() {
            if corrupt >> cluster & 1 == 0 || quarantined.contains(cluster) {
                continue;
            }
            self.strikes[cluster] += 1;
            if self.threshold.is_some_and(|t| self.strikes[cluster] >= t) {
                fire.insert(cluster);
            }
        }
        fire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hysteresis_needs_threshold_strikes_on_the_same_cluster() {
        let mut board = StrikeBoard::new(4);
        // Two corruptions on cluster 0 plus two on cluster 1: four
        // transients fleet-wide, but no single cluster reaches three —
        // nothing fires.
        assert!(board.record(0b01, ClusterMask::EMPTY).is_empty());
        assert!(board.record(0b10, ClusterMask::EMPTY).is_empty());
        assert!(board.record(0b01, ClusterMask::EMPTY).is_empty());
        assert!(board.record(0b10, ClusterMask::EMPTY).is_empty());
        // The third strike on cluster 0 condemns exactly cluster 0.
        let fire = board.record(0b01, ClusterMask::EMPTY);
        assert_eq!(fire, ClusterMask::single(0));
        assert_eq!(board.strikes(0), 3);
        assert_eq!(board.strikes(1), 2);
    }

    #[test]
    fn quarantined_clusters_stop_accumulating() {
        let mut board = StrikeBoard::new(2);
        let q = ClusterMask::single(0);
        for _ in 0..5 {
            assert!(board.record(0b01, q).is_empty());
        }
        assert_eq!(board.strikes(0), 0, "drained partitions add no strikes");
    }

    #[test]
    fn disabled_threshold_never_fires_but_still_counts() {
        let mut board = StrikeBoard::with_threshold(2, None);
        for _ in 0..10 {
            assert!(board.record(0b11, ClusterMask::EMPTY).is_empty());
        }
        assert_eq!(board.strikes(1), 10);
    }

    #[test]
    fn one_completion_can_condemn_several_clusters() {
        let mut board = StrikeBoard::with_threshold(4, Some(1));
        let fire = board.record(0b0110, ClusterMask::EMPTY);
        assert_eq!(fire.iter().collect::<Vec<_>>(), vec![1, 2]);
    }
}
