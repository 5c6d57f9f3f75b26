//! Timed hardware-resource primitives.
//!
//! These small accounting structures model contention for shared hardware
//! without simulating it structurally: a client asks *"if I request this
//! resource at cycle `t`, when am I served?"* and the resource answers with
//! a grant time while recording the reservation. Because every caller goes
//! through the same FIFO accounting, aggregate behaviour (queueing delay,
//! bandwidth saturation, serialization) emerges correctly and
//! deterministically.

use crate::Cycle;

/// A single-server FCFS resource (e.g. a bus port or an atomic unit).
///
/// Requests are granted in call order: each `acquire` starts no earlier
/// than both the request time and the completion of the previous grant.
///
/// # Example
///
/// ```
/// use mpsoc_sim::{Cycle, UnitResource};
///
/// let mut port = UnitResource::new();
/// // Two back-to-back 3-cycle operations requested at the same time:
/// assert_eq!(port.acquire(Cycle::new(10), Cycle::new(3)), Cycle::new(10));
/// assert_eq!(port.acquire(Cycle::new(10), Cycle::new(3)), Cycle::new(13));
/// // A later request after the queue drained is served immediately:
/// assert_eq!(port.acquire(Cycle::new(100), Cycle::new(3)), Cycle::new(100));
/// ```
#[derive(Debug, Clone, Default)]
pub struct UnitResource {
    free_at: Cycle,
    busy_cycles: u64,
    grants: u64,
}

impl UnitResource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        UnitResource::default()
    }

    /// Reserves the resource for `duration` starting no earlier than `at`;
    /// returns the cycle at which service *starts*. The operation completes
    /// at `start + duration`.
    pub fn acquire(&mut self, at: Cycle, duration: Cycle) -> Cycle {
        let start = at.max(self.free_at);
        self.free_at = start + duration;
        self.busy_cycles += duration.as_u64();
        self.grants += 1;
        start
    }

    /// Like [`UnitResource::acquire`] but returns the *completion* cycle.
    #[cfg(test)]
    fn acquire_until(&mut self, at: Cycle, duration: Cycle) -> Cycle {
        self.acquire(at, duration) + duration
    }

    /// The cycle at which the resource next becomes free.
    #[cfg(test)]
    fn free_at(&self) -> Cycle {
        self.free_at
    }

    /// Total cycles of reserved service time.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Resets to idle, clearing statistics.
    pub fn reset(&mut self) {
        *self = UnitResource::default();
    }
}

/// A bandwidth-limited resource serving `rate` items per cycle FIFO
/// (e.g. an HBM controller's aggregate data bandwidth).
///
/// Internally accounts in *item slots* (cycle × rate) so fractional-cycle
/// service times need no floating point: requesting `n` items at cycle `t`
/// occupies slots `max(t·rate, next_free_slot) .. +n` and completes at
/// `ceil(end_slot / rate)` cycles.
///
/// # Example
///
/// ```
/// use mpsoc_sim::{Cycle, ThroughputResource};
///
/// // 12 doubles per cycle, as in the calibrated main-memory system.
/// let mut hbm = ThroughputResource::new(12);
/// // 1024 elements of three operands = 3072 items => 256 cycles.
/// let done = hbm.acquire(Cycle::ZERO, 3072);
/// assert_eq!(done, Cycle::new(256));
/// ```
#[derive(Debug, Clone)]
pub struct ThroughputResource {
    rate: u64,
    next_free_slot: u64,
    items_served: u64,
    grants: u64,
}

impl ThroughputResource {
    /// Creates a resource serving `rate` items per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn new(rate: u64) -> Self {
        assert!(rate > 0, "throughput rate must be positive");
        ThroughputResource {
            rate,
            next_free_slot: 0,
            items_served: 0,
            grants: 0,
        }
    }

    /// Items served per cycle.
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Reserves bandwidth for `items` starting no earlier than `at`;
    /// returns the cycle by which the last item has been transferred.
    ///
    /// Zero-item requests complete immediately at `at`.
    pub fn acquire(&mut self, at: Cycle, items: u64) -> Cycle {
        if items == 0 {
            return at;
        }
        let request_slot = at.as_u64() * self.rate;
        let start_slot = request_slot.max(self.next_free_slot);
        let end_slot = start_slot + items;
        self.next_free_slot = end_slot;
        self.items_served += items;
        self.grants += 1;
        Cycle::new(end_slot.div_ceil(self.rate))
    }

    /// Slot index corresponding to the start of cycle `at` (for use with
    /// [`ThroughputResource::acquire_from_slot`]).
    pub fn slot_of(&self, at: Cycle) -> u64 {
        at.as_u64() * self.rate
    }

    /// Reserves bandwidth for `items` starting no earlier than item-slot
    /// `min_slot`; returns `(end_slot, completion_cycle)`.
    ///
    /// This is the exact-continuation variant of
    /// [`ThroughputResource::acquire`]: chained requests (a DMA engine
    /// pumping bursts) pass the previous call's `end_slot` back in, so no
    /// bandwidth is lost to cycle rounding between bursts, while competing
    /// clients still interleave FIFO through the shared `next_free_slot`.
    pub fn acquire_from_slot(&mut self, min_slot: u64, items: u64) -> (u64, Cycle) {
        if items == 0 {
            return (
                min_slot.max(self.next_free_slot),
                Cycle::new(min_slot.max(self.next_free_slot).div_ceil(self.rate)),
            );
        }
        let start_slot = min_slot.max(self.next_free_slot);
        let end_slot = start_slot + items;
        self.next_free_slot = end_slot;
        self.items_served += items;
        self.grants += 1;
        (end_slot, Cycle::new(end_slot.div_ceil(self.rate)))
    }

    /// Reserves `count` bursts of `items` each, the `i`-th from item slot
    /// `first_slot + i·stride`; returns the last burst's
    /// `(end_slot, completion_cycle)`.
    ///
    /// This is the closed form of `count` calls of
    /// [`ThroughputResource::acquire_from_slot`] by a client that has the
    /// resource to itself: with `first_slot` at or past the first free
    /// slot and `stride ≥ items`, no burst queues behind another, so those
    /// calls book exactly these slots.
    ///
    /// # Panics
    ///
    /// Panics unless `count` and `items` are positive, `stride ≥ items`
    /// and `first_slot ≥` [`ThroughputResource::next_free_slot`].
    pub fn acquire_periodic(
        &mut self,
        first_slot: u64,
        stride: u64,
        items: u64,
        count: u64,
    ) -> (u64, Cycle) {
        assert!(
            count > 0 && items > 0 && stride >= items && first_slot >= self.next_free_slot,
            "periodic bursts must not queue behind each other or earlier traffic"
        );
        let end_slot = first_slot + (count - 1) * stride + items;
        self.next_free_slot = end_slot;
        self.items_served += count * items;
        self.grants += count;
        (end_slot, Cycle::new(end_slot.div_ceil(self.rate)))
    }

    /// The earliest cycle at which a new request would start service.
    pub fn free_at(&self) -> Cycle {
        Cycle::new(self.next_free_slot.div_ceil(self.rate))
    }

    /// The first unreserved item slot (exact, sub-cycle granularity);
    /// a request whose start slot is below this queues behind earlier
    /// traffic.
    pub fn next_free_slot(&self) -> u64 {
        self.next_free_slot
    }

    /// Total items served.
    pub fn items_served(&self) -> u64 {
        self.items_served
    }

    /// Number of grants issued.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Resets to idle, clearing statistics but keeping the rate.
    pub fn reset(&mut self) {
        self.next_free_slot = 0;
        self.items_served = 0;
        self.grants = 0;
    }
}

/// An array of single-cycle-granularity FCFS banks (e.g. TCDM banks).
///
/// Each bank serves one access per `service` cycles; conflicting accesses
/// to the same bank are serialized, accesses to distinct banks proceed in
/// parallel.
///
/// # Example
///
/// ```
/// use mpsoc_sim::{Cycle, BankedResource};
///
/// let mut tcdm = BankedResource::new(32, Cycle::new(1));
/// // Two cores hit the same bank in the same cycle: one is delayed.
/// assert_eq!(tcdm.acquire(5, Cycle::new(0)), Cycle::new(0));
/// assert_eq!(tcdm.acquire(5, Cycle::new(0)), Cycle::new(1));
/// // A different bank is free.
/// assert_eq!(tcdm.acquire(6, Cycle::new(0)), Cycle::new(0));
/// ```
#[derive(Debug, Clone)]
pub struct BankedResource {
    banks: Vec<UnitResource>,
    service: Cycle,
    conflicts: u64,
}

impl BankedResource {
    /// Creates `banks` banks, each with the given per-access `service` time.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero or `service` is zero.
    pub fn new(banks: usize, service: Cycle) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(service > Cycle::ZERO, "service time must be positive");
        BankedResource {
            banks: vec![UnitResource::new(); banks],
            service,
            conflicts: 0,
        }
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Requests access to `bank` at time `at`; returns the grant (service
    /// start) time. A grant later than `at` indicates a bank conflict.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn acquire(&mut self, bank: usize, at: Cycle) -> Cycle {
        let service = self.service;
        let granted = self.banks[bank].acquire(at, service);
        if granted > at {
            self.conflicts += 1;
        }
        granted
    }

    /// Total accesses that were delayed by a conflict.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Total accesses granted across all banks.
    pub fn accesses(&self) -> u64 {
        self.banks.iter().map(UnitResource::grants).sum()
    }

    /// Resets all banks to idle and clears statistics.
    pub fn reset(&mut self) {
        for bank in &mut self.banks {
            bank.reset();
        }
        self.conflicts = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_resource_serializes_overlapping_requests() {
        let mut r = UnitResource::new();
        assert_eq!(r.acquire(Cycle::new(0), Cycle::new(5)), Cycle::new(0));
        assert_eq!(r.acquire(Cycle::new(2), Cycle::new(5)), Cycle::new(5));
        assert_eq!(r.acquire(Cycle::new(20), Cycle::new(1)), Cycle::new(20));
        assert_eq!(r.busy_cycles(), 11);
        assert_eq!(r.grants(), 3);
        assert_eq!(r.free_at(), Cycle::new(21));
    }

    #[test]
    fn unit_resource_acquire_until() {
        let mut r = UnitResource::new();
        assert_eq!(
            r.acquire_until(Cycle::new(4), Cycle::new(6)),
            Cycle::new(10)
        );
    }

    #[test]
    fn unit_resource_reset() {
        let mut r = UnitResource::new();
        r.acquire(Cycle::new(0), Cycle::new(100));
        r.reset();
        assert_eq!(r.free_at(), Cycle::ZERO);
        assert_eq!(r.busy_cycles(), 0);
    }

    #[test]
    fn throughput_basic_rate_math() {
        let mut r = ThroughputResource::new(4);
        // 10 items at rate 4 from t=0: ceil(10/4) = 3 cycles.
        assert_eq!(r.acquire(Cycle::ZERO, 10), Cycle::new(3));
        // Next 2 items start at slot 10, end slot 12 -> cycle 3.
        assert_eq!(r.acquire(Cycle::ZERO, 2), Cycle::new(3));
        // Next item ends at slot 13 -> cycle ceil(13/4)=4.
        assert_eq!(r.acquire(Cycle::ZERO, 1), Cycle::new(4));
        assert_eq!(r.items_served(), 13);
    }

    #[test]
    fn throughput_idle_gap_resets_slot_origin() {
        let mut r = ThroughputResource::new(2);
        r.acquire(Cycle::ZERO, 4); // busy until slot 4 (cycle 2)
                                   // Requesting at cycle 100 starts from slot 200, not slot 4.
        assert_eq!(r.acquire(Cycle::new(100), 2), Cycle::new(101));
    }

    #[test]
    fn throughput_zero_items_is_free() {
        let mut r = ThroughputResource::new(8);
        assert_eq!(r.acquire(Cycle::new(42), 0), Cycle::new(42));
        assert_eq!(r.grants(), 0);
    }

    #[test]
    fn throughput_concurrent_streams_share_bandwidth() {
        // Two streams of 120 items each at aggregate rate 12 finish
        // together at 240/12 = 20 cycles when interleaved in small bursts.
        let mut r = ThroughputResource::new(12);
        let mut done_a = Cycle::ZERO;
        let mut done_b = Cycle::ZERO;
        for _ in 0..15 {
            done_a = r.acquire(Cycle::ZERO, 8);
            done_b = r.acquire(Cycle::ZERO, 8);
        }
        assert_eq!(done_a.max(done_b), Cycle::new(20));
    }

    #[test]
    #[should_panic(expected = "throughput rate must be positive")]
    fn throughput_rejects_zero_rate() {
        let _ = ThroughputResource::new(0);
    }

    #[test]
    fn slot_continuation_loses_no_bandwidth() {
        // A single client pumping 16-item bursts through a 12-items/cycle
        // resource must sustain the full 12 items/cycle: 768 items in
        // exactly 64 cycles, despite per-burst cycle rounding.
        let mut r = ThroughputResource::new(12);
        let mut slot = r.slot_of(Cycle::ZERO);
        let mut done = Cycle::ZERO;
        for _ in 0..48 {
            let (end, d) = r.acquire_from_slot(slot, 16);
            slot = end;
            done = d;
        }
        assert_eq!(done, Cycle::new(64));
        assert_eq!(r.items_served(), 768);
    }

    #[test]
    fn slot_continuation_interleaves_competing_clients_fairly() {
        // Two burst chains sharing the resource each get half the rate.
        let mut r = ThroughputResource::new(12);
        let mut slot_a = 0;
        let mut slot_b = 0;
        let mut done_a = Cycle::ZERO;
        let mut done_b = Cycle::ZERO;
        for _ in 0..24 {
            let (ea, da) = r.acquire_from_slot(slot_a, 16);
            slot_a = ea;
            done_a = da;
            let (eb, db) = r.acquire_from_slot(slot_b, 16);
            slot_b = eb;
            done_b = db;
        }
        // 768 total items at 12/cycle = 64 cycles, both finish together.
        assert_eq!(done_a.max(done_b), Cycle::new(64));
        assert!(done_b - done_a <= Cycle::new(2));
    }

    #[test]
    fn periodic_bursts_book_what_one_call_per_burst_books() {
        for (rate, items, stride) in [(512, 16, 512), (12, 16, 24), (4, 4, 4), (8, 3, 17)] {
            let mut looped = ThroughputResource::new(rate);
            looped.acquire(Cycle::ZERO, 5);
            let mut bulk = looped.clone();
            let first = looped.next_free_slot() + 3;
            let mut last = (0, Cycle::ZERO);
            for i in 0..9 {
                last = looped.acquire_from_slot(first + i * stride, items);
            }
            assert_eq!(bulk.acquire_periodic(first, stride, items, 9), last);
            assert_eq!(bulk.next_free_slot(), looped.next_free_slot());
            assert_eq!(bulk.items_served(), looped.items_served());
            assert_eq!(bulk.grants(), looped.grants());
        }
    }

    #[test]
    #[should_panic(expected = "must not queue")]
    fn periodic_bursts_that_would_queue_are_refused() {
        let mut r = ThroughputResource::new(4);
        r.acquire(Cycle::ZERO, 8);
        r.acquire_periodic(4, 4, 4, 2);
    }

    #[test]
    fn slot_continuation_zero_items_is_free() {
        let mut r = ThroughputResource::new(4);
        let (end, done) = r.acquire_from_slot(10, 0);
        assert_eq!(end, 10);
        assert_eq!(done, Cycle::new(3));
        assert_eq!(r.grants(), 0);
    }

    #[test]
    fn banked_conflicts_are_counted_and_serialized() {
        let mut r = BankedResource::new(4, Cycle::new(1));
        assert_eq!(r.acquire(0, Cycle::new(0)), Cycle::new(0));
        assert_eq!(r.acquire(0, Cycle::new(0)), Cycle::new(1));
        assert_eq!(r.acquire(0, Cycle::new(0)), Cycle::new(2));
        assert_eq!(r.acquire(1, Cycle::new(0)), Cycle::new(0));
        assert_eq!(r.conflicts(), 2);
        assert_eq!(r.accesses(), 4);
    }

    #[test]
    fn banked_reset() {
        let mut r = BankedResource::new(2, Cycle::new(2));
        r.acquire(0, Cycle::ZERO);
        r.acquire(0, Cycle::ZERO);
        r.reset();
        assert_eq!(r.conflicts(), 0);
        assert_eq!(r.acquire(0, Cycle::ZERO), Cycle::ZERO);
    }

    #[test]
    #[should_panic]
    fn banked_out_of_range_panics() {
        let mut r = BankedResource::new(2, Cycle::new(1));
        r.acquire(2, Cycle::ZERO);
    }
}
