//! The shared main-memory system (HBM-class).

use mpsoc_faults::FaultSite;
use mpsoc_sim::stats::{Histogram, StatsRegistry, Summary};
use mpsoc_sim::{Cycle, ThroughputResource, UnitResource};

use crate::{Addr, MemoryError, WordStore};

/// The SoC's shared main memory: data plus a timing model.
///
/// Timing model:
///
/// - **Bandwidth**: all bulk traffic (DMA bursts, host block writes) shares
///   one aggregate [`ThroughputResource`] in words per cycle. With the
///   calibrated 12 words/cycle, a DAXPY of `N` elements moves `3·N` words
///   (x in, y in, y out) in `N/4` cycles — the paper's Eq. 1 data term.
/// - **Latency**: every access additionally pays a fixed pipeline latency.
/// - **Atomics**: read-modify-write operations serialize on a dedicated
///   [`UnitResource`], which is how software-barrier contention grows with
///   the number of clusters in the baseline configuration.
///
/// # Example
///
/// ```
/// use mpsoc_mem::{Addr, MainMemory};
/// use mpsoc_sim::Cycle;
///
/// # fn main() -> Result<(), mpsoc_mem::MemoryError> {
/// let mut mem = MainMemory::new(Addr::new(0x8000_0000), 1024, 12, Cycle::new(20), Cycle::new(4));
/// mem.store_mut().write_f64(Addr::new(0x8000_0000), 3.0)?;
///
/// // A 3072-word burst at 12 words/cycle: 20 + 256 cycles.
/// let done = mem.transfer(Cycle::ZERO, 3072);
/// assert_eq!(done, Cycle::new(276));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MainMemory {
    store: WordStore,
    bandwidth: ThroughputResource,
    latency: Cycle,
    atomic_unit: UnitResource,
    atomic_service: Cycle,
    amo_faults: FaultSite,
    stats: StatsRegistry,
    /// Bandwidth requests that queued behind reserved traffic, and their
    /// delays in cycles: `contention.hbm.queue_events` and
    /// `contention.hbm.queue_cycles` of [`MainMemory::stats`], kept in
    /// fields because a busy HBM queues most bursts.
    queue_events: u64,
    queue_cycles: Summary,
    queue_histogram: Histogram,
}

impl MainMemory {
    /// Creates a main memory.
    ///
    /// * `base`, `words`: geometry of the backing store.
    /// * `words_per_cycle`: aggregate bandwidth shared by all clients.
    /// * `latency`: fixed access latency added to every timed transfer.
    /// * `atomic_service`: occupancy of the atomic unit per AMO.
    ///
    /// # Panics
    ///
    /// Panics if `words_per_cycle` is zero or `base` is unaligned.
    pub fn new(
        base: Addr,
        words: u64,
        words_per_cycle: u64,
        latency: Cycle,
        atomic_service: Cycle,
    ) -> Self {
        MainMemory {
            store: WordStore::new(base, words),
            bandwidth: ThroughputResource::new(words_per_cycle),
            latency,
            atomic_unit: UnitResource::new(),
            atomic_service,
            amo_faults: FaultSite::off(),
            stats: StatsRegistry::new(),
            queue_events: 0,
            queue_cycles: Summary::new(),
            queue_histogram: Histogram::new(),
        }
    }

    /// Installs the AMO-drop fault site (fault injection): occurrences
    /// it selects are acknowledged and timed normally but the memory
    /// update is silently lost. The default disarmed site is a single
    /// untaken branch.
    pub fn set_amo_faults(&mut self, site: FaultSite) {
        self.amo_faults = site;
    }

    /// AMO updates dropped by fault injection so far.
    pub fn amo_drops(&self) -> u64 {
        self.amo_faults.fired()
    }

    /// Collected statistics: HBM queueing and atomic-unit contention
    /// under the stable `contention.*` prefix.
    pub fn stats(&self) -> StatsRegistry {
        let mut stats = self.stats.clone();
        if self.queue_events > 0 {
            let name = "contention.hbm.queue_cycles";
            stats.add("contention.hbm.queue_events", self.queue_events);
            stats.merge_summary_named(name, &self.queue_cycles);
            stats.merge_histogram_named(name, &self.queue_histogram);
        }
        stats
    }

    // A bandwidth request whose start slot is already reserved queues
    // behind earlier traffic; `min_slot` is where the client could have
    // started on an idle memory.
    fn note_queueing(&mut self, min_slot: u64) {
        let free = self.bandwidth.next_free_slot();
        if free > min_slot {
            // What `StatsRegistry::observe` records, without its lookups.
            let cycles = (free - min_slot) as f64 / self.bandwidth.rate() as f64;
            self.queue_events += 1;
            self.queue_cycles.record(cycles);
            self.queue_histogram.record(cycles.round() as u64);
        }
    }

    /// The data backing store.
    pub fn store(&self) -> &WordStore {
        &self.store
    }

    /// Mutable access to the data backing store (test benches and
    /// zero-time initialization).
    pub fn store_mut(&mut self) -> &mut WordStore {
        &mut self.store
    }

    /// Fixed access latency.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Aggregate bandwidth in words per cycle.
    pub fn words_per_cycle(&self) -> u64 {
        self.bandwidth.rate()
    }

    /// Reserves bandwidth for a `words`-long burst issued at `at`; returns
    /// the completion time (`latency` + queued transfer time).
    ///
    /// The data itself is moved separately via [`MainMemory::store_mut`] /
    /// [`WordStore::copy_words_from`]; decoupling data from timing keeps
    /// the bandwidth accounting independent of the copy direction.
    pub fn transfer(&mut self, at: Cycle, words: u64) -> Cycle {
        if words > 0 {
            self.note_queueing(self.bandwidth.slot_of(at));
        }
        self.bandwidth.acquire(at, words) + self.latency
    }

    /// Total words of bandwidth consumed so far.
    pub fn words_transferred(&self) -> u64 {
        self.bandwidth.items_served()
    }

    /// Bandwidth slot index at the start of cycle `at` (see
    /// [`ThroughputResource::slot_of`]).
    pub fn bandwidth_slot_of(&self, at: Cycle) -> u64 {
        self.bandwidth.slot_of(at)
    }

    /// The next free bandwidth slot: where a transfer requested now would
    /// actually start once queued traffic drains.
    ///
    /// Comparing this against [`MainMemory::bandwidth_slot_of`] *before*
    /// acquiring exposes the queueing delay a client is about to pay —
    /// the same quantity `contention.hbm.queue_cycles` aggregates — so a
    /// concurrent-job SoC can attribute it to the requesting job.
    pub fn next_free_bandwidth_slot(&self) -> u64 {
        self.bandwidth.next_free_slot()
    }

    /// Exact-continuation bandwidth reservation for burst-chained DMA
    /// engines (see [`ThroughputResource::acquire_from_slot`]); returns
    /// `(end_slot, completion_cycle)`. The fixed access latency is *not*
    /// included — DMA engines pay it once per transfer, not per burst.
    pub fn acquire_bandwidth_slots(&mut self, min_slot: u64, words: u64) -> (u64, Cycle) {
        if words > 0 {
            self.note_queueing(min_slot);
        }
        self.bandwidth.acquire_from_slot(min_slot, words)
    }

    /// Books `count` DMA bursts of `words` each, the `i`-th from slot
    /// `first_slot + i·stride`, in one step (see
    /// [`ThroughputResource::acquire_periodic`], whose panics apply):
    /// what `count` calls of [`MainMemory::acquire_bandwidth_slots`]
    /// book for a chain that queues behind nothing, so no queueing is
    /// tallied. Returns the last burst's `(end_slot, completion_cycle)`.
    pub fn acquire_bandwidth_periodic(
        &mut self,
        first_slot: u64,
        stride: u64,
        words: u64,
        count: u64,
    ) -> (u64, Cycle) {
        self.bandwidth
            .acquire_periodic(first_slot, stride, words, count)
    }

    /// Performs a timed atomic fetch-add on `addr`, returning the new value
    /// and the completion time. AMOs serialize on the atomic unit, so
    /// concurrent requests queue — exactly the contention the baseline
    /// software barrier suffers.
    ///
    /// # Errors
    ///
    /// Returns an error if `addr` is invalid for the backing store.
    pub fn amo_add(
        &mut self,
        at: Cycle,
        addr: Addr,
        delta: u64,
    ) -> Result<(u64, Cycle), MemoryError> {
        let start = self.atomic_unit.acquire(at, self.atomic_service);
        if start > at {
            self.stats.incr("contention.hbm.amo_conflicts");
            self.stats
                .observe("contention.hbm.amo_wait_cycles", (start - at).as_f64());
        }
        // A dropped AMO is acknowledged with the *stale* value and full
        // timing: the requester cannot tell locally that the update was
        // lost, exactly like a silent datapath fault.
        let value = if self.amo_faults.is_armed() && self.amo_faults.fire() {
            self.stats.incr("faults.amo_drops");
            self.store.read_u64(addr)?
        } else {
            self.store.fetch_add_u64(addr, delta)?
        };
        Ok((value, start + self.atomic_service + self.latency))
    }

    /// Performs a timed uncached single-word read (e.g. the host polling
    /// the software-barrier counter); returns the value and completion time.
    ///
    /// # Errors
    ///
    /// Returns an error if `addr` is invalid for the backing store.
    pub fn read_uncached(&mut self, at: Cycle, addr: Addr) -> Result<(u64, Cycle), MemoryError> {
        self.note_queueing(self.bandwidth.slot_of(at));
        let done = self.bandwidth.acquire(at, 1) + self.latency;
        let value = self.store.read_u64(addr)?;
        Ok((value, done))
    }

    /// Resets the timing state (bandwidth queue and atomic unit) while
    /// keeping the data. Used between repeated experiments on one SoC.
    pub fn reset_timing(&mut self) {
        self.bandwidth.reset();
        self.atomic_unit.reset();
        self.stats.clear();
        self.queue_events = 0;
        self.queue_cycles = Summary::new();
        self.queue_histogram = Histogram::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MainMemory {
        MainMemory::new(
            Addr::new(0x8000_0000),
            4096,
            12,
            Cycle::new(20),
            Cycle::new(4),
        )
    }

    #[test]
    fn transfer_time_is_latency_plus_bandwidth() {
        let mut m = mem();
        assert_eq!(m.transfer(Cycle::ZERO, 12), Cycle::new(21));
        // Second burst queues behind the first.
        assert_eq!(m.transfer(Cycle::ZERO, 12), Cycle::new(22));
        assert_eq!(m.words_transferred(), 24);
    }

    #[test]
    fn daxpy_bandwidth_term_matches_eq1() {
        // 3·N words at 12 words/cycle must take N/4 cycles (plus latency).
        let mut m = mem();
        let n = 1024;
        let done = m.transfer(Cycle::ZERO, 3 * n);
        assert_eq!(done, Cycle::new(n / 4 + 20));
    }

    #[test]
    fn amo_serializes_under_contention() {
        let mut m = mem();
        let addr = Addr::new(0x8000_0000);
        let (v1, t1) = m.amo_add(Cycle::ZERO, addr, 1).unwrap();
        let (v2, t2) = m.amo_add(Cycle::ZERO, addr, 1).unwrap();
        let (v3, t3) = m.amo_add(Cycle::ZERO, addr, 1).unwrap();
        assert_eq!((v1, v2, v3), (1, 2, 3));
        // Each atomic occupies the unit for 4 cycles; latency is 20.
        assert_eq!(t1, Cycle::new(24));
        assert_eq!(t2, Cycle::new(28));
        assert_eq!(t3, Cycle::new(32));
    }

    #[test]
    fn uncached_read_returns_current_value() {
        let mut m = mem();
        let addr = Addr::new(0x8000_0008);
        m.store_mut().write_u64(addr, 77).unwrap();
        let (v, t) = m.read_uncached(Cycle::new(100), addr).unwrap();
        assert_eq!(v, 77);
        assert!(t > Cycle::new(100));
    }

    #[test]
    fn contention_counters_track_queueing_and_amo_conflicts() {
        let mut m = mem();
        // Idle memory: no queueing.
        m.transfer(Cycle::ZERO, 12);
        assert_eq!(m.stats().counter("contention.hbm.queue_events"), 0);
        // Same-cycle burst queues behind the first for 12/12 = 1 cycle.
        m.transfer(Cycle::ZERO, 12);
        assert_eq!(m.stats().counter("contention.hbm.queue_events"), 1);
        assert_eq!(
            m.stats().summary("contention.hbm.queue_cycles").max(),
            Some(1.0)
        );

        // Chained slot acquisition behind foreign traffic also counts.
        let (_, _) = m.acquire_bandwidth_slots(0, 12);
        assert_eq!(m.stats().counter("contention.hbm.queue_events"), 2);

        // Concurrent AMOs serialize on the atomic unit.
        let addr = Addr::new(0x8000_0000);
        m.amo_add(Cycle::ZERO, addr, 1).unwrap();
        m.amo_add(Cycle::ZERO, addr, 1).unwrap();
        assert_eq!(m.stats().counter("contention.hbm.amo_conflicts"), 1);
        assert_eq!(
            m.stats().summary("contention.hbm.amo_wait_cycles").count(),
            1
        );

        m.reset_timing();
        assert_eq!(m.stats().counter("contention.hbm.queue_events"), 0);
    }

    #[test]
    fn dropped_amo_keeps_timing_but_loses_the_update() {
        use mpsoc_faults::{FaultKind, FaultPlan, SiteSpec};
        let mut m = mem();
        let mut plan = FaultPlan::with_seed(1);
        plan.amo_drop = SiteSpec::once_at(1); // second AMO faults
        m.set_amo_faults(plan.site(FaultKind::AmoDrop));
        let addr = Addr::new(0x8000_0000);
        let (v1, t1) = m.amo_add(Cycle::ZERO, addr, 1).unwrap();
        let (v2, t2) = m.amo_add(Cycle::ZERO, addr, 1).unwrap();
        let (v3, t3) = m.amo_add(Cycle::ZERO, addr, 1).unwrap();
        // The dropped AMO acknowledges the stale value; the next one
        // lands on the un-incremented counter.
        assert_eq!((v1, v2, v3), (1, 1, 2));
        // Timing is identical to the fault-free test above.
        assert_eq!(
            (t1, t2, t3),
            (Cycle::new(24), Cycle::new(28), Cycle::new(32))
        );
        assert_eq!(m.amo_drops(), 1);
        assert_eq!(m.stats().counter("faults.amo_drops"), 1);
        assert_eq!(m.store().read_u64(addr).unwrap(), 2);
    }

    #[test]
    fn amo_on_bad_address_errors() {
        let mut m = mem();
        assert!(m.amo_add(Cycle::ZERO, Addr::new(0x0), 1).is_err());
    }

    #[test]
    fn reset_timing_keeps_data() {
        let mut m = mem();
        let addr = Addr::new(0x8000_0000);
        m.store_mut().write_f64(addr, 9.5).unwrap();
        m.transfer(Cycle::ZERO, 1000);
        m.reset_timing();
        assert_eq!(m.transfer(Cycle::ZERO, 12), Cycle::new(21));
        assert_eq!(m.store().read_f64(addr).unwrap(), 9.5);
    }
}
