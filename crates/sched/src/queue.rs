//! The ready queue: the jobs a scheduling loop admitted and has not yet
//! placed, and the deadline index the model-guided pick walks.
//!
//! Jobs sit in admission order, each beside the record slot the loop
//! logs it into. That contiguous slice is the `ready` argument of every
//! [`SchedPolicy::pick`]; FIFO, smallest-first and EDF read nothing
//! else. [`ModelGuided`] reads the deadline index instead, through
//! [`SchedContext::queue`]. The first such read builds the index; until
//! then a push or a removal costs one branch more than on a bare `Vec`.
//!
//! **The index.** It splits the queue into *open* jobs, ordered by
//! (absolute deadline, admission), and *lost* jobs, grouped by `M_min`.
//! A job is lost when Eq. 3 has no partition within the usable pool
//! that meets its deadline from `now`. The pick moves a job from open to
//! lost the first time it finds it lost, and never solves Eq. 3 for it
//! again. That is exact because a lost job stays lost: its budget
//! `deadline − now` only shrinks as `now` advances, the partition Eq. 3
//! needs only grows as the budget shrinks, and the usable pool only
//! shrinks under quarantine. A read whose context breaks that order —
//! an earlier `now`, a larger pool, or another model table than the
//! last read — rebuilds the index with every job open.
//!
//! [`SchedPolicy::pick`]: crate::SchedPolicy::pick
//! [`ModelGuided`]: crate::ModelGuided

use std::cell::{RefCell, RefMut};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use crate::calibrate::KernelModel;
use crate::job::KernelId;
use crate::policy::{QueuedJob, SchedContext};

/// The admitted-but-waiting jobs of one scheduling loop, in admission
/// order, with a deadline index built the first time a policy reads it.
#[derive(Debug, Default)]
pub struct ReadyQueue {
    jobs: Vec<QueuedJob>,
    /// Each job's record slot, in lockstep with `jobs`.
    slots: Vec<usize>,
    index: RefCell<Option<DeadlineIndex>>,
}

impl ReadyQueue {
    /// The waiting jobs, oldest admission first.
    #[inline]
    pub fn jobs(&self) -> &[QueuedJob] {
        &self.jobs
    }

    /// How many jobs wait.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no job waits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Appends an admitted job whose record goes to `slot`.
    #[inline]
    pub(crate) fn push(&mut self, q: QueuedJob, slot: usize) {
        if let Some(index) = self.index.get_mut() {
            index.insert(&q);
        }
        self.jobs.push(q);
        self.slots.push(slot);
    }

    /// Removes the job at admission-order position `i`, with its slot.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) -> (QueuedJob, usize) {
        let q = self.jobs.remove(i);
        if let Some(index) = self.index.get_mut() {
            index.remove(i, &q);
        }
        (q, self.slots.remove(i))
    }

    /// Removes the most recently admitted job, with its slot.
    pub(crate) fn pop(&mut self) -> Option<(QueuedJob, usize)> {
        let last = self.jobs.len().checked_sub(1)?;
        Some(self.remove(last))
    }

    /// Removes every job `unwanted` picks out, with their slots, in
    /// admission order.
    pub(crate) fn remove_where(
        &mut self,
        mut unwanted: impl FnMut(&QueuedJob) -> bool,
    ) -> Vec<(QueuedJob, usize)> {
        let mut removed = Vec::new();
        let mut i = 0;
        while i < self.jobs.len() {
            if unwanted(&self.jobs[i]) {
                removed.push(self.remove(i));
            } else {
                i += 1;
            }
        }
        removed
    }

    /// Empties the queue and drops its index.
    pub(crate) fn clear(&mut self) {
        self.jobs.clear();
        self.slots.clear();
        *self.index.get_mut() = None;
    }

    /// The deadline index, exact for `ctx`: built on the first read,
    /// rebuilt when `ctx` breaks the order the lost sets rely on.
    pub(crate) fn deadline_index(&self, ctx: &SchedContext<'_>) -> RefMut<'_, DeadlineIndex> {
        let mut index = self.index.borrow_mut();
        if !index.as_ref().is_some_and(|i| i.holds_for(ctx)) {
            *index = Some(DeadlineIndex::build(&self.jobs, ctx));
        }
        RefMut::map(index, |index| {
            let index = index.as_mut().expect("the index was just checked or built");
            index.now = ctx.now;
            index.total_clusters = ctx.total_clusters;
            index
        })
    }

    /// Whether a policy has read the deadline index since the queue was
    /// last cleared.
    #[cfg(test)]
    pub(crate) fn index_built(&self) -> bool {
        self.index.borrow().is_some()
    }
}

/// A job's place in the deadline order: its absolute deadline, then its
/// handle. Handles count up in admission order, so deadline ties break
/// by admission, as they do by position in the queue's slice.
pub(crate) type Key = (u64, u64);

/// The ready queue ordered by deadline and split into open and lost
/// jobs (see the module docs).
#[derive(Debug)]
pub(crate) struct DeadlineIndex {
    /// Each queued job's handle, in lockstep with the queue, so sorted.
    handles: Vec<u64>,
    next_handle: u64,
    /// Jobs Eq. 3 could still serve at the last read.
    open: BTreeMap<Key, QueuedJob>,
    /// Jobs found lost, by `M_min`. No set is empty.
    lost: BTreeMap<u64, BTreeSet<Key>>,
    /// The last read's context. The lost sets hold for any read at this
    /// `now` or later, on this pool or a smaller one, with these models.
    now: u64,
    total_clusters: usize,
    models: Vec<ModelBits>,
}

/// A table entry as Eq. 3 reads it: the kernel and the bits of its
/// Eq. 1 coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ModelBits {
    kernel: KernelId,
    c0: u64,
    c_mem: u64,
    c_comp: u64,
}

impl ModelBits {
    fn of(entry: &KernelModel) -> Self {
        ModelBits {
            kernel: entry.kernel,
            c0: entry.accel.c0.to_bits(),
            c_mem: entry.accel.c_mem.to_bits(),
            c_comp: entry.accel.c_comp.to_bits(),
        }
    }
}

impl DeadlineIndex {
    fn build(jobs: &[QueuedJob], ctx: &SchedContext<'_>) -> Self {
        let mut index = DeadlineIndex {
            handles: Vec::with_capacity(jobs.len()),
            next_handle: 0,
            open: BTreeMap::new(),
            lost: BTreeMap::new(),
            now: ctx.now,
            total_clusters: ctx.total_clusters,
            models: ctx.models.entries().iter().map(ModelBits::of).collect(),
        };
        for q in jobs {
            index.insert(q);
        }
        index
    }

    fn holds_for(&self, ctx: &SchedContext<'_>) -> bool {
        let entries = ctx.models.entries();
        ctx.now >= self.now
            && ctx.total_clusters <= self.total_clusters
            && entries.len() == self.models.len()
            && entries
                .iter()
                .zip(&self.models)
                .all(|(entry, bits)| ModelBits::of(entry) == *bits)
    }

    fn insert(&mut self, q: &QueuedJob) {
        let handle = self.next_handle;
        self.next_handle += 1;
        self.handles.push(handle);
        self.open.insert((q.job.absolute_deadline(), handle), *q);
    }

    fn remove(&mut self, i: usize, q: &QueuedJob) {
        let key = (q.job.absolute_deadline(), self.handles.remove(i));
        if self.open.remove(&key).is_none() {
            let set = self
                .lost
                .get_mut(&q.m_min)
                .expect("a queued job is open or lost");
            set.remove(&key);
            if set.is_empty() {
                self.lost.remove(&q.m_min);
            }
        }
    }

    /// The first open job after `after` in deadline order, or the first
    /// of all with `None`.
    pub(crate) fn next_open(&self, after: Option<Key>) -> Option<(Key, QueuedJob)> {
        let from = after.map_or(Bound::Unbounded, Bound::Excluded);
        let (&key, &q) = self.open.range((from, Bound::Unbounded)).next()?;
        Some((key, q))
    }

    /// Moves the open job `key` to the lost jobs; only a rebuild reopens
    /// it.
    pub(crate) fn retire(&mut self, key: Key) {
        let q = self.open.remove(&key).expect("only an open job retires");
        self.lost.entry(q.m_min).or_default().insert(key);
    }

    /// The most urgent lost job whose `M_min` is at most `free`, with
    /// that `M_min`. Costs one lookup per distinct `M_min`.
    pub(crate) fn most_urgent_lost(&self, free: usize) -> Option<(Key, u64)> {
        self.lost
            .range(..=free as u64)
            .filter_map(|(&m_min, set)| Some((*set.first()?, m_min)))
            .min()
    }

    /// The admission-order position of the job keyed `key`.
    pub(crate) fn position(&self, key: Key) -> usize {
        self.handles
            .binary_search(&key.1)
            .expect("an indexed job is queued")
    }
}
