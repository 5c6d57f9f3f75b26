//! Scheduling policies: which queued job starts next, and how many
//! clusters it gets.
//!
//! All policies see the same interface — the admitted-but-waiting queue
//! and a snapshot of machine state — and return one placement at a time;
//! the engine re-asks until the policy passes. This keeps policies pure
//! decision logic: carving masks, clocks and bookkeeping stay in the
//! engine.

use mpsoc_offload::decision::min_clusters;
use serde::{Deserialize, Serialize};

use crate::calibrate::ModelTable;
use crate::job::Job;

/// An admitted job waiting for clusters, with its admission-time
/// solution of Eq. 3 attached.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueuedJob {
    /// The job.
    pub job: Job,
    /// `M_min` from admission: the smallest partition that met the
    /// deadline assuming an immediate start.
    pub m_min: u64,
    /// Predicted runtime at `m_min` (cycles).
    pub predicted: f64,
}

/// Machine-state snapshot a policy decides against.
#[derive(Debug, Clone, Copy)]
pub struct SchedContext<'a> {
    /// Current virtual time (cycles).
    pub now: u64,
    /// Clusters currently free.
    pub free_clusters: usize,
    /// Usable machine size: total clusters minus any quarantined ones —
    /// the largest partition the allocator could ever grant.
    pub total_clusters: usize,
    /// Per-kernel fitted models (for policies that re-predict).
    pub models: &'a ModelTable,
}

/// One placement: start the `queue_index`-th waiting job on `m`
/// clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Index into the ready queue passed to [`SchedPolicy::pick`].
    pub queue_index: usize,
    /// Partition size to carve; must not exceed the free count.
    pub m: usize,
}

/// A scheduling discipline.
pub trait SchedPolicy {
    /// Stable identifier used in reports and tables.
    fn name(&self) -> &'static str;

    /// Picks the next placement, or `None` to leave the machine as-is
    /// until the next event. Called repeatedly after every arrival and
    /// completion; each returned placement removes that job from the
    /// queue before the next call.
    fn pick(&mut self, ready: &[QueuedJob], ctx: &SchedContext<'_>) -> Option<Placement>;
}

/// FIFO with head-of-line blocking: strictly serves the oldest admitted
/// job at its admission-time `M_min`; if that partition is not free,
/// everything waits. The classic baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct FifoFirstFit;

impl SchedPolicy for FifoFirstFit {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn pick(&mut self, ready: &[QueuedJob], ctx: &SchedContext<'_>) -> Option<Placement> {
        let head = ready.first()?;
        let m = head.m_min as usize;
        (m <= ctx.free_clusters).then_some(Placement { queue_index: 0, m })
    }
}

/// Serves the waiting job with the smallest `M_min` first (ties: oldest
/// first). Packs well — small jobs drain fast — but can starve wide
/// jobs under pressure and ignores deadlines entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct SmallestFirst;

impl SchedPolicy for SmallestFirst {
    fn name(&self) -> &'static str {
        "smallest_first"
    }

    fn pick(&mut self, ready: &[QueuedJob], ctx: &SchedContext<'_>) -> Option<Placement> {
        let (queue_index, job) = ready
            .iter()
            .enumerate()
            .min_by_key(|(i, q)| (q.m_min, *i))?;
        let m = job.m_min as usize;
        (m <= ctx.free_clusters).then_some(Placement { queue_index, m })
    }
}

/// Earliest deadline first at the admission-time `M_min`, with
/// head-of-line blocking on the most urgent job. Deadline-aware but
/// static: it never revises the partition size as slack erodes in the
/// queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct EarliestDeadlineFirst;

impl SchedPolicy for EarliestDeadlineFirst {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn pick(&mut self, ready: &[QueuedJob], ctx: &SchedContext<'_>) -> Option<Placement> {
        let (queue_index, job) = ready
            .iter()
            .enumerate()
            .min_by_key(|(i, q)| (q.job.absolute_deadline(), *i))?;
        let m = job.m_min as usize;
        (m <= ctx.free_clusters).then_some(Placement { queue_index, m })
    }
}

/// The model-guided packer: EDF order, but Eq. 3 is re-solved at pick
/// time against each job's *remaining* slack, so partitions grow as
/// queueing eats the budget (and never shrink below need). Jobs whose
/// recomputed partition does not fit right now are skipped and a less
/// urgent job backfills the free clusters instead of idling them.
/// Jobs that can no longer make their deadline at any size run
/// best-effort at `M_min`.
///
/// Each pick is one allocation-free pass over the queue that returns
/// exactly what scanning it in `(absolute deadline, index)` order would.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelGuided;

impl SchedPolicy for ModelGuided {
    fn name(&self) -> &'static str {
        "model_guided"
    }

    fn pick(&mut self, ready: &[QueuedJob], ctx: &SchedContext<'_>) -> Option<Placement> {
        // Running minima keyed `(deadline, index)`: the most urgent
        // winnable job whose re-solved partition fits now, and the most
        // urgent lost job whose `M_min` fits. Indices ascend, so
        // "strictly earlier deadline" is the whole comparison.
        let mut winnable: Option<(u64, Placement)> = None;
        let mut best_effort: Option<(u64, Placement)> = None;
        for (queue_index, q) in ready.iter().enumerate() {
            let deadline = q.job.absolute_deadline();
            // Either outcome needs `M_min` free clusters, and a job no
            // more urgent than the winnable candidate cannot displace
            // it: neither needs Eq. 3 solved.
            if q.m_min as usize > ctx.free_clusters || winnable.is_some_and(|(d, _)| deadline >= d)
            {
                continue;
            }
            let budget = deadline.saturating_sub(ctx.now);
            let model = &ctx.models.get(q.job.kernel).accel;
            match min_clusters(model, q.job.n, budget as f64) {
                Some(required) if required as usize <= ctx.total_clusters => {
                    let m = required.max(q.m_min) as usize;
                    if m <= ctx.free_clusters {
                        winnable = Some((deadline, Placement { queue_index, m }));
                    }
                    // Needs more clusters than are free: wait for a
                    // release, let someone else backfill.
                }
                _ => {
                    // Deadline already lost at any width: salvage
                    // throughput at the cheap admission-time size, but
                    // only if nothing winnable fits.
                    if best_effort.map_or(true, |(d, _)| deadline < d) {
                        let m = q.m_min as usize;
                        best_effort = Some((deadline, Placement { queue_index, m }));
                    }
                }
            }
        }
        winnable.or(best_effort).map(|(_, placement)| placement)
    }
}

/// Every built-in policy, in a fixed order (baseline first).
pub fn all_policies() -> Vec<Box<dyn SchedPolicy>> {
    vec![
        Box::new(FifoFirstFit),
        Box::new(SmallestFirst),
        Box::new(EarliestDeadlineFirst),
        Box::new(ModelGuided),
    ]
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::calibrate::KernelModel;
    use crate::job::KernelId;

    fn queued(id: u64, arrival: u64, deadline: u64, m_min: u64) -> QueuedJob {
        QueuedJob {
            job: Job {
                id,
                kernel: KernelId::Daxpy,
                n: 1024,
                arrival,
                deadline,
            },
            m_min,
            predicted: 0.0,
        }
    }

    fn ctx(table: &ModelTable, now: u64, free: usize) -> SchedContext<'_> {
        SchedContext {
            now,
            free_clusters: free,
            total_clusters: 32,
            models: table,
        }
    }

    #[test]
    fn fifo_blocks_on_the_head() {
        let table = ModelTable::paper_defaults();
        let ready = vec![queued(0, 0, 1000, 8), queued(1, 10, 1000, 1)];
        let mut fifo = FifoFirstFit;
        // Head needs 8, only 4 free: everything waits, even the 1-wide
        // second job.
        assert_eq!(fifo.pick(&ready, &ctx(&table, 0, 4)), None);
        assert_eq!(
            fifo.pick(&ready, &ctx(&table, 0, 8)),
            Some(Placement {
                queue_index: 0,
                m: 8
            })
        );
    }

    #[test]
    fn smallest_first_prefers_narrow_jobs() {
        let table = ModelTable::paper_defaults();
        let ready = vec![queued(0, 0, 1000, 8), queued(1, 10, 1000, 2)];
        assert_eq!(
            SmallestFirst.pick(&ready, &ctx(&table, 0, 4)),
            Some(Placement {
                queue_index: 1,
                m: 2
            })
        );
    }

    #[test]
    fn edf_prefers_urgent_jobs() {
        let table = ModelTable::paper_defaults();
        let ready = vec![queued(0, 0, 5000, 2), queued(1, 10, 500, 2)];
        assert_eq!(
            EarliestDeadlineFirst.pick(&ready, &ctx(&table, 0, 4)),
            Some(Placement {
                queue_index: 1,
                m: 2
            })
        );
    }

    #[test]
    fn model_guided_widens_as_slack_erodes() {
        let table = ModelTable::paper_defaults();
        // Admitted with M_min = 1 against a 1000-cycle budget
        // (t̂(1,1024) = 956). 300 cycles later the budget is 700 and
        // Eq. 3 needs five clusters.
        let ready = vec![queued(0, 0, 1000, 1)];
        let early = ModelGuided.pick(&ready, &ctx(&table, 0, 32)).unwrap();
        let late = ModelGuided.pick(&ready, &ctx(&table, 300, 32)).unwrap();
        assert_eq!(early.m, 1);
        assert!(late.m > 1, "eroded slack must widen the partition");
    }

    #[test]
    fn model_guided_backfills_past_blocked_urgent_jobs() {
        let table = ModelTable::paper_defaults();
        // Urgent job needs more clusters than are free; the later job
        // fits and should run instead of idling the machine.
        let ready = vec![queued(0, 0, 700, 13), queued(1, 0, 100_000, 1)];
        let pick = ModelGuided.pick(&ready, &ctx(&table, 0, 4)).unwrap();
        assert_eq!(pick.queue_index, 1);
    }

    #[test]
    fn policies_idle_on_an_empty_queue() {
        let table = ModelTable::paper_defaults();
        for mut policy in all_policies() {
            assert!(policy.pick(&[], &ctx(&table, 0, 32)).is_none());
            assert!(!policy.name().is_empty());
        }
    }

    /// The model-guided pick as first written: sort the queue by
    /// `(deadline, index)`, then return the first winnable job that fits,
    /// else the first lost job whose `M_min` fits.
    fn sort_then_scan(ready: &[QueuedJob], ctx: &SchedContext<'_>) -> Option<Placement> {
        let mut order: Vec<usize> = (0..ready.len()).collect();
        order.sort_by_key(|&i| (ready[i].job.absolute_deadline(), i));
        let mut best_effort: Option<Placement> = None;
        for &i in &order {
            let q = &ready[i];
            let budget = q.job.absolute_deadline().saturating_sub(ctx.now);
            let model = &ctx.models.get(q.job.kernel).accel;
            match min_clusters(model, q.job.n, budget as f64) {
                Some(required) if required as usize <= ctx.total_clusters => {
                    let m = required.max(q.m_min) as usize;
                    if m <= ctx.free_clusters {
                        return Some(Placement { queue_index: i, m });
                    }
                }
                _ => {
                    let m = q.m_min as usize;
                    if best_effort.is_none() && m <= ctx.free_clusters {
                        best_effort = Some(Placement { queue_index: i, m });
                    }
                }
            }
        }
        best_effort
    }

    /// A table whose kernels differ in overhead and parallel work, so
    /// Eq. 3 answers differently for jobs of equal size.
    fn mixed_table() -> ModelTable {
        ModelTable::new(
            KernelId::ALL
                .iter()
                .enumerate()
                .map(|(i, &kernel)| KernelModel {
                    kernel,
                    accel: mpsoc_offload::RuntimeModel {
                        c0: 367.0 + 40.0 * i as f64,
                        c_mem: 0.25,
                        c_comp: 0.325 * (1 + i) as f64,
                    },
                    host: mpsoc_offload::decision::HostModel::cva6_daxpy(),
                    r_squared: 1.0,
                })
                .collect(),
        )
    }

    const SIZES: [u64; 5] = [64, 256, 1024, 4096, 16_384];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The one-pass pick returns exactly what sort-then-scan returns,
        /// ties included: deadlines sit on a coarse grid so many jobs
        /// share one, `now` falls before and after them, and the usable
        /// pool is often smaller than the machine, as under quarantine.
        #[test]
        fn model_guided_matches_sort_then_scan(
            specs in prop::collection::vec((0usize..35, 0u64..8, 0u64..60, any::<u64>()), 0..=300),
            machine in 1usize..=32,
            pools in (any::<u64>(), any::<u64>()),
            now in 0u64..16_000,
        ) {
            let table = mixed_table();
            let total = (pools.0 % (machine as u64 + 1)) as usize;
            let free = (pools.1 % (total as u64 + 1)) as usize;
            let ready: Vec<QueuedJob> = specs
                .iter()
                .enumerate()
                .map(|(id, &(shape, arrival, deadline, m_min))| QueuedJob {
                    job: Job {
                        id: id as u64,
                        kernel: KernelId::ALL[shape % KernelId::ALL.len()],
                        n: SIZES[shape / KernelId::ALL.len()],
                        arrival: arrival * 125,
                        deadline: deadline * 250,
                    },
                    m_min: m_min % (total as u64 + 1),
                    predicted: 0.0,
                })
                .collect();
            let ctx = SchedContext {
                now,
                free_clusters: free,
                total_clusters: total,
                models: &table,
            };
            prop_assert_eq!(ModelGuided.pick(&ready, &ctx), sort_then_scan(&ready, &ctx));
        }
    }
}
