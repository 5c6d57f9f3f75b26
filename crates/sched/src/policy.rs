//! Scheduling policies: which queued job starts next, and how many
//! clusters it gets.
//!
//! A policy sees the admitted-but-waiting jobs as a slice in admission
//! order, and a [`SchedContext`]: a snapshot of the machine and the
//! [`ReadyQueue`] that slice belongs to. It returns one placement at a
//! time, and the scheduling loop re-asks until the policy passes.
//! FIFO, smallest-first and EDF scan the slice. The model-guided packer
//! walks the queue's deadline index instead, which keeps what earlier
//! picks learned: the jobs that can no longer meet their deadline.
//! Policies stay pure decision logic: carving masks, clocks and
//! bookkeeping stay in the loop.

use mpsoc_offload::decision::min_clusters;
use serde::{Deserialize, Serialize};

use crate::calibrate::ModelTable;
use crate::job::Job;
use crate::queue::ReadyQueue;

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
    /// The queue whose jobs [`SchedPolicy::pick`] receives as `ready`.
    /// [`ModelGuided`] walks its deadline index.
    pub queue: &'a ReadyQueue,
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
    /// queue before the next call. `ready` is `ctx.queue.jobs()`.
    ///
    /// The loop calls `pick` only while `ready` is non-empty and
    /// `ctx.free_clusters ≥ 1`. A placement names a queued job and
    /// `1 ≤ m ≤ free` clusters, so without both the only valid answer is
    /// `None`. Skipping such a call is exact as long as a pick's only
    /// side effect is a cache that a later call refills to the same
    /// answer: [`ModelGuided`] files the jobs it finds lost in the
    /// queue's deadline index, and since a lost job stays lost, the
    /// next walk files the same jobs and returns what it would have.
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
/// A pick walks the open jobs of the queue's deadline index in
/// `(absolute deadline, admission)` order and returns the first whose
/// partition fits. A job it finds lost leaves the walk for good; when
/// no open job fits, the most urgent lost job whose `M_min` fits runs.
/// That is exactly what scanning the whole queue in deadline order
/// returns, but Eq. 3 is solved once per lost job, not once per pick.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelGuided;

impl SchedPolicy for ModelGuided {
    fn name(&self) -> &'static str {
        "model_guided"
    }

    fn pick(&mut self, ready: &[QueuedJob], ctx: &SchedContext<'_>) -> Option<Placement> {
        debug_assert_eq!(ready.len(), ctx.queue.len(), "`ready` is the queue's slice");
        let mut index = ctx.queue.deadline_index(ctx);
        let mut after = None;
        while let Some((key, q)) = index.next_open(after) {
            match required_clusters(&q, ctx) {
                Some(m) if m <= ctx.free_clusters => {
                    let queue_index = index.position(key);
                    return Some(Placement { queue_index, m });
                }
                // Needs more clusters than are free: wait for a release,
                // let someone else backfill.
                Some(_) => {}
                None => index.retire(key),
            }
            after = Some(key);
        }
        // Every lost job is now out of the walk. Salvage throughput at
        // the cheap admission-time size, since nothing winnable fits.
        let (key, m_min) = index.most_urgent_lost(ctx.free_clusters)?;
        Some(Placement {
            queue_index: index.position(key),
            m: m_min as usize,
        })
    }
}

/// The partition `q` needs to meet its deadline starting at `ctx.now`:
/// Eq. 3 re-solved against the remaining slack, never below `M_min`.
/// `None` when no partition of the usable pool meets the deadline: the
/// job is lost.
fn required_clusters(q: &QueuedJob, ctx: &SchedContext<'_>) -> Option<usize> {
    let budget = q.job.absolute_deadline().saturating_sub(ctx.now);
    let model = &ctx.models.get(q.job.kernel).accel;
    let required = min_clusters(model, q.job.n, budget as f64)?;
    (required as usize <= ctx.total_clusters).then(|| required.max(q.m_min) as usize)
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

/// The model-guided pick as first written, kept as the reference the
/// deadline index is tested against: sort the queue by `(deadline,
/// index)`, then return the first winnable job that fits, else the first
/// lost job whose `M_min` fits.
#[cfg(test)]
pub(crate) fn sort_then_scan(ready: &[QueuedJob], ctx: &SchedContext<'_>) -> Option<Placement> {
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

/// [`ModelGuided`] answered by [`sort_then_scan`] on the slice alone,
/// never reading `ctx.queue`. It reports under the packer's name, so
/// whole run reports compare equal.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SortThenScan;

#[cfg(test)]
impl SchedPolicy for SortThenScan {
    fn name(&self) -> &'static str {
        ModelGuided.name()
    }

    fn pick(&mut self, ready: &[QueuedJob], ctx: &SchedContext<'_>) -> Option<Placement> {
        sort_then_scan(ready, ctx)
    }
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

    fn queue_of(jobs: &[QueuedJob]) -> ReadyQueue {
        let mut queue = ReadyQueue::default();
        for (slot, q) in jobs.iter().enumerate() {
            queue.push(*q, slot);
        }
        queue
    }

    fn ctx<'a>(
        table: &'a ModelTable,
        queue: &'a ReadyQueue,
        now: u64,
        free: usize,
    ) -> SchedContext<'a> {
        SchedContext {
            now,
            free_clusters: free,
            total_clusters: 32,
            models: table,
            queue,
        }
    }

    #[test]
    fn fifo_blocks_on_the_head() {
        let table = ModelTable::paper_defaults();
        let ready = queue_of(&[queued(0, 0, 1000, 8), queued(1, 10, 1000, 1)]);
        let mut fifo = FifoFirstFit;
        // Head needs 8, only 4 free: everything waits, even the 1-wide
        // second job.
        assert_eq!(fifo.pick(ready.jobs(), &ctx(&table, &ready, 0, 4)), None);
        assert_eq!(
            fifo.pick(ready.jobs(), &ctx(&table, &ready, 0, 8)),
            Some(Placement {
                queue_index: 0,
                m: 8
            })
        );
    }

    #[test]
    fn smallest_first_prefers_narrow_jobs() {
        let table = ModelTable::paper_defaults();
        let ready = queue_of(&[queued(0, 0, 1000, 8), queued(1, 10, 1000, 2)]);
        assert_eq!(
            SmallestFirst.pick(ready.jobs(), &ctx(&table, &ready, 0, 4)),
            Some(Placement {
                queue_index: 1,
                m: 2
            })
        );
    }

    #[test]
    fn edf_prefers_urgent_jobs() {
        let table = ModelTable::paper_defaults();
        let ready = queue_of(&[queued(0, 0, 5000, 2), queued(1, 10, 500, 2)]);
        assert_eq!(
            EarliestDeadlineFirst.pick(ready.jobs(), &ctx(&table, &ready, 0, 4)),
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
        let ready = queue_of(&[queued(0, 0, 1000, 1)]);
        let early = ModelGuided
            .pick(ready.jobs(), &ctx(&table, &ready, 0, 32))
            .unwrap();
        let late = ModelGuided
            .pick(ready.jobs(), &ctx(&table, &ready, 300, 32))
            .unwrap();
        assert_eq!(early.m, 1);
        assert!(late.m > 1, "eroded slack must widen the partition");
    }

    #[test]
    fn model_guided_backfills_past_blocked_urgent_jobs() {
        let table = ModelTable::paper_defaults();
        // Urgent job needs more clusters than are free; the later job
        // fits and should run instead of idling the machine.
        let ready = queue_of(&[queued(0, 0, 700, 13), queued(1, 0, 100_000, 1)]);
        let pick = ModelGuided
            .pick(ready.jobs(), &ctx(&table, &ready, 0, 4))
            .unwrap();
        assert_eq!(pick.queue_index, 1);
    }

    /// A job found lost is winnable again when a later read moves the
    /// context back: an earlier `now`, a larger pool, another table.
    #[test]
    fn model_guided_reopens_lost_jobs_when_the_context_moves_back() {
        let table = ModelTable::paper_defaults();
        // A 700-cycle budget needs five clusters from cycle 0 (Eq. 3
        // slack 77 against 332.8 cycles of parallel work); from cycle 300
        // no partition meets it.
        let ready = queue_of(&[queued(0, 0, 700, 1)]);
        let m = |ctx: SchedContext<'_>| ModelGuided.pick(ready.jobs(), &ctx).map(|p| p.m);
        assert_eq!(
            m(ctx(&table, &ready, 300, 32)),
            Some(1),
            "lost: best effort"
        );
        assert_eq!(m(ctx(&table, &ready, 0, 32)), Some(5), "earlier now");
        let small = SchedContext {
            total_clusters: 4,
            ..ctx(&table, &ready, 0, 4)
        };
        assert_eq!(m(small), Some(1), "lost on four clusters");
        assert_eq!(m(ctx(&table, &ready, 0, 32)), Some(5), "larger pool");
        let slow = ModelTable::new(
            KernelId::ALL
                .iter()
                .map(|&kernel| KernelModel {
                    accel: mpsoc_offload::RuntimeModel {
                        c0: 10_000.0,
                        ..mpsoc_offload::RuntimeModel::paper()
                    },
                    ..*table.get(kernel)
                })
                .collect(),
        );
        assert_eq!(
            m(ctx(&slow, &ready, 0, 32)),
            Some(1),
            "lost under a slow model"
        );
        assert_eq!(m(ctx(&table, &ready, 0, 32)), Some(5), "another table");
    }

    #[test]
    fn policies_idle_on_an_empty_queue() {
        let table = ModelTable::paper_defaults();
        let empty = ReadyQueue::default();
        for mut policy in all_policies() {
            assert!(policy
                .pick(empty.jobs(), &ctx(&table, &empty, 0, 32))
                .is_none());
            assert!(!policy.name().is_empty());
        }
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

        /// The indexed pick returns exactly what sort-then-scan returns
        /// on the current slice after every step of a random sequence:
        /// pushes, picks that remove their placement and take its
        /// clusters, steals from the tail, evictions of jobs wider than
        /// the pool, `now` advancing, clusters freed and the pool
        /// shrinking, as under quarantine. Deadlines sit on a coarse
        /// grid so many jobs share one, and `M_min` spans `0..=total`.
        #[test]
        fn model_guided_matches_sort_then_scan(
            steps in prop::collection::vec((0u8..10, 0usize..35, 0u64..60, any::<u64>()), 0..=300),
            machine in 1usize..=32,
            start in 0u64..8_000,
        ) {
            let table = mixed_table();
            let mut queue = ReadyQueue::default();
            let (mut now, mut total, mut free) = (start, machine, machine);
            for (id, &(op, shape, deadline, dice)) in steps.iter().enumerate() {
                let mut take = false;
                match op {
                    0..=4 => queue.push(
                        QueuedJob {
                            job: Job {
                                id: id as u64,
                                kernel: KernelId::ALL[shape % KernelId::ALL.len()],
                                n: SIZES[shape / KernelId::ALL.len()],
                                arrival: (dice >> 32) % 8 * 125,
                                deadline: deadline * 250,
                            },
                            m_min: dice % (total as u64 + 1),
                            predicted: 0.0,
                        },
                        id,
                    ),
                    5 => take = true,
                    6 => {
                        queue.pop();
                    }
                    7 => {
                        queue.remove_where(|q| q.m_min > total as u64);
                    }
                    8 => now += dice % 500,
                    _ if dice % 2 == 0 => free = (dice / 2 % (total as u64 + 1)) as usize,
                    _ => {
                        total -= total.min((dice / 2 % 2) as usize);
                        free = free.min(total);
                    }
                }
                let ctx = SchedContext {
                    now,
                    free_clusters: free,
                    total_clusters: total,
                    models: &table,
                    queue: &queue,
                };
                let got = ModelGuided.pick(queue.jobs(), &ctx);
                prop_assert_eq!(got, sort_then_scan(queue.jobs(), &ctx));
                if let Some(p) = got.filter(|_| take) {
                    queue.remove(p.queue_index);
                    free -= p.m;
                }
            }
        }
    }
}
