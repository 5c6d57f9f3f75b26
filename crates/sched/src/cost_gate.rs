//! Static cost verification at admission: jobs whose deadline is below
//! even the *static best-case* runtime are rejected before Eq. 3.
//!
//! The learned Eq. 1 model can drift (faults, contention, refits); the
//! static analyzer ([`mpsoc_lint::bound_offload`]) cannot — its bounds
//! are derived from the machine description alone. The gate computes
//! the smallest statically-possible runtime for a `(kernel, n)` pair
//! across every cluster count, every dispatch/sync strategy, and the
//! host fallback path, and rejects jobs whose deadline undercuts it
//! with [`RejectReason::StaticInfeasible`]. It also exposes the static
//! `[best, worst]` envelope at a specific cluster count so callers can
//! audit the learned model's predictions against sound bounds
//! (`serve.cost.*` counters in the serving front-end).
//!
//! Verdicts are memoized per `(kernel, n)` like [`LintGate`]'s, so job
//! streams over the usual handful of kernel/size pairs pay for the
//! analysis once per pair.
//!
//! [`LintGate`]: crate::LintGate
//! [`RejectReason::StaticInfeasible`]: crate::RejectReason::StaticInfeasible

use std::collections::HashMap;

use mpsoc_lint::{bound_host_run, bound_offload, ContentionEnvelope, CycleBounds};
use mpsoc_offload::{OffloadStrategy, RuntimeCosts};
use mpsoc_soc::SocConfig;

use crate::job::{Job, KernelId};

/// A memoizing static-cost check applied to every arriving job.
#[derive(Debug, Clone)]
pub struct CostGate {
    config: SocConfig,
    costs: RuntimeCosts,
    /// Cluster counts the analysis may assume available. Starts at the
    /// configured machine size; quarantine shrinks it via
    /// [`CostGate::restrict_clusters`].
    effective_clusters: usize,
    /// Smallest static best-case total per `(kernel, n)`; `None` when
    /// the program is unboundable (the gate then stays open — an
    /// incomplete analysis is not evidence of infeasibility).
    min_best: HashMap<(KernelId, u64), Option<u64>>,
    /// Static `[best, worst]` total at `(kernel, n, m)`, maximized over
    /// strategies on the worst side and minimized on the best side.
    envelopes: HashMap<(KernelId, u64, usize), Option<CycleBounds>>,
}

impl CostGate {
    /// A gate for the machine described by `config` with the default
    /// runtime-constant calibration.
    pub fn new(config: SocConfig) -> Self {
        let effective_clusters = config.clusters;
        CostGate {
            config,
            costs: RuntimeCosts::default(),
            effective_clusters,
            min_best: HashMap::new(),
            envelopes: HashMap::new(),
        }
    }

    /// Re-bounds the analysis to `healthy` surviving clusters and drops
    /// every memoized verdict. Both memo families were computed against
    /// the previous machine size: a shrunken pool raises the true
    /// minimum best case (the widest partitions are gone), so stale
    /// entries would keep admitting jobs on bounds the degraded machine
    /// can no longer realize. Cluster counts beyond `healthy` stop
    /// yielding envelopes — the machine cannot grant them.
    pub fn restrict_clusters(&mut self, healthy: usize) {
        let healthy = healthy.min(self.config.clusters);
        if healthy == self.effective_clusters {
            return;
        }
        self.effective_clusters = healthy;
        self.min_best.clear();
        self.envelopes.clear();
    }

    /// Cluster counts the gate currently reasons over.
    pub fn effective_clusters(&self) -> usize {
        self.effective_clusters
    }

    /// A gate for the calibrated Manticore-class machine.
    pub fn manticore() -> Self {
        CostGate::new(SocConfig::manticore())
    }

    /// Checks one job: `Some(best)` when the deadline is statically
    /// infeasible (reject with that bound), `None` when the gate passes.
    pub fn check(&mut self, job: &Job) -> Option<u64> {
        let best = self.min_best(job.kernel, job.n)?;
        (job.deadline < best).then_some(best)
    }

    /// The smallest statically-possible runtime for `(kernel, n)` on
    /// this machine — any cluster count, any strategy, or the host.
    /// `None` when the generated programs cannot be bounded.
    fn min_best(&mut self, kernel: KernelId, n: u64) -> Option<u64> {
        if let Some(v) = self.min_best.get(&(kernel, n)) {
            return *v;
        }
        let v = self.compute_min_best(kernel, n);
        self.min_best.insert((kernel, n), v);
        v
    }

    /// The static total-runtime envelope at exactly `m` clusters:
    /// best minimized and worst maximized over the four strategies.
    /// Used to audit learned-model predictions: a prediction outside
    /// this interval is provably mis-calibrated for solo execution.
    pub fn envelope(&mut self, kernel: KernelId, n: u64, m: usize) -> Option<CycleBounds> {
        if let Some(v) = self.envelopes.get(&(kernel, n, m)) {
            return *v;
        }
        let v = self.compute_envelope(kernel, n, m);
        self.envelopes.insert((kernel, n, m), v);
        v
    }

    fn compute_min_best(&self, kernel: KernelId, n: u64) -> Option<u64> {
        let k = kernel.instantiate();
        let solo = ContentionEnvelope::default();
        let mut best = bound_host_run(k.as_ref(), n).ok()?.cycles.best;
        for m in 1..=self.effective_clusters {
            for strategy in OffloadStrategy::all() {
                let bounds =
                    bound_offload(k.as_ref(), n, m, strategy, &self.config, &self.costs, &solo)
                        .ok()?;
                best = best.min(bounds.total.best);
            }
        }
        Some(best)
    }

    fn compute_envelope(&self, kernel: KernelId, n: u64, m: usize) -> Option<CycleBounds> {
        if m == 0 || m > self.effective_clusters {
            return None;
        }
        let k = kernel.instantiate();
        let solo = ContentionEnvelope::default();
        let mut envelope: Option<CycleBounds> = None;
        for strategy in OffloadStrategy::all() {
            let bounds =
                bound_offload(k.as_ref(), n, m, strategy, &self.config, &self.costs, &solo).ok()?;
            envelope = Some(match envelope {
                None => bounds.total,
                Some(e) => CycleBounds {
                    best: e.best.min(bounds.total.best),
                    worst: e.worst.max(bounds.total.worst),
                },
            });
        }
        envelope
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(kernel: KernelId, n: u64, deadline: u64) -> Job {
        Job {
            id: 0,
            kernel,
            n,
            arrival: 0,
            deadline,
        }
    }

    #[test]
    fn generous_deadlines_pass_every_zoo_kernel() {
        let mut gate = CostGate::manticore();
        for kernel in KernelId::ALL {
            for n in [1, 64, 1024] {
                assert_eq!(
                    gate.check(&job(kernel, n, 10_000_000)),
                    None,
                    "{kernel} n={n} blocked with a generous deadline"
                );
            }
        }
    }

    #[test]
    fn impossible_deadlines_are_rejected_with_the_bound() {
        let mut gate = CostGate::manticore();
        // One cycle is below any offload's dispatch latency and below
        // any host run of 4096 elements.
        let best = gate
            .check(&job(KernelId::Daxpy, 4_096, 1))
            .expect("statically infeasible");
        assert!(best > 1, "carried bound {best} explains the rejection");
        // The carried bound is exactly the memoized minimum best case.
        assert_eq!(gate.min_best(KernelId::Daxpy, 4_096), Some(best));
        // A deadline at the bound itself is admissible.
        assert_eq!(gate.check(&job(KernelId::Daxpy, 4_096, best)), None);
    }

    #[test]
    fn restricting_clusters_drops_memos_and_raises_the_bound() {
        let mut gate = CostGate::manticore();
        let full = gate.min_best(KernelId::Daxpy, 65_536).expect("boundable");
        assert!(gate.envelope(KernelId::Daxpy, 65_536, 8).is_some());
        gate.restrict_clusters(1);
        assert_eq!(gate.effective_clusters(), 1);
        // Envelopes beyond the surviving pool are no longer claimable.
        assert_eq!(gate.envelope(KernelId::Daxpy, 65_536, 8), None);
        // The recomputed minimum can only get worse on a smaller machine.
        let degraded = gate.min_best(KernelId::Daxpy, 65_536).expect("boundable");
        assert!(
            degraded >= full,
            "degraded bound {degraded} must not undercut the full machine's {full}"
        );
        // Restricting to the same size is a no-op (memos survive).
        gate.restrict_clusters(1);
        assert_eq!(gate.min_best(KernelId::Daxpy, 65_536), Some(degraded));
    }

    #[test]
    fn envelope_is_well_formed_and_brackets_min_best() {
        let mut gate = CostGate::manticore();
        let min_best = gate.min_best(KernelId::Dot, 2_048).expect("boundable");
        for m in [1usize, 4, 32] {
            let env = gate.envelope(KernelId::Dot, 2_048, m).expect("boundable");
            assert!(env.is_well_formed());
            assert!(env.best >= min_best, "per-m best below the global minimum");
        }
        assert_eq!(gate.envelope(KernelId::Dot, 2_048, 0), None);
        assert_eq!(gate.envelope(KernelId::Dot, 2_048, 999), None);
    }
}
