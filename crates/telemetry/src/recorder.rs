//! The bounded typed-event collector with span bookkeeping.

use std::collections::VecDeque;

use mpsoc_sim::Cycle;
use serde::{Serialize, Writer};

use crate::event::{EventKind, Mark, TraceEvent};
use crate::Unit;

/// A bounded ring buffer of [`TraceEvent`]s plus a deterministic span-ID
/// allocator.
///
/// The disabled path is a single branch and every hot-path helper
/// returns immediately, so hardware models can call these hooks
/// unconditionally. Span IDs start at 1 and increase in allocation order
/// (0 means "no span"), so traces of equal runs are identical
/// event-for-event.
///
/// # Example
///
/// ```
/// use mpsoc_sim::Cycle;
/// use mpsoc_telemetry::{EventKind, EventTrace, Mark, Unit};
///
/// let mut t = EventTrace::enabled(64);
/// let span = t.begin(Cycle::new(3), Unit::ClusterCores(0), EventKind::Compute);
/// t.instant(Cycle::new(5), Unit::CreditUnit, EventKind::CreditReturn, 1);
/// t.end(Cycle::new(9), Unit::ClusterCores(0), EventKind::Compute, span);
/// assert_eq!(t.events().len(), 3);
/// assert_eq!(t.events()[0].mark, Mark::Begin);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventTrace {
    enabled: bool,
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    next_span: u64,
    current_job: u64,
}

impl EventTrace {
    /// Creates a trace that keeps the most recent `capacity` events.
    pub fn enabled(capacity: usize) -> Self {
        EventTrace {
            enabled: true,
            capacity: capacity.max(1),
            events: VecDeque::new(),
            dropped: 0,
            next_span: 1,
            current_job: 0,
        }
    }

    /// Creates a no-op trace.
    pub fn disabled() -> Self {
        EventTrace::default()
    }

    /// `true` when events are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the ambient job ID stamped onto subsequently recorded events
    /// (via [`EventTrace::begin`], [`EventTrace::end`] and
    /// [`EventTrace::instant`]). Zero — the default — means "untagged";
    /// a concurrent-job SoC sets this before delivering each event to
    /// attribute the resulting trace records to the owning tenant.
    pub fn set_job(&mut self, job: u64) {
        self.current_job = job;
    }

    /// The ambient job ID in effect (zero when untagged).
    #[cfg(test)]
    fn current_job(&self) -> u64 {
        self.current_job
    }

    /// Records a fully-formed event (no-op when disabled).
    pub fn record(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Opens a span of `kind` on `unit` at `time`; returns the span ID to
    /// pass to [`EventTrace::end`]. Returns 0 without recording when
    /// disabled.
    pub fn begin(&mut self, time: Cycle, unit: Unit, kind: EventKind) -> u64 {
        if !self.enabled {
            return 0;
        }
        let span = self.next_span;
        self.next_span += 1;
        self.record(TraceEvent {
            time,
            unit,
            kind,
            mark: Mark::Begin,
            span,
            arg: 0,
            job: self.current_job,
        });
        span
    }

    /// Closes span `span` of `kind` on `unit` at `time` (no-op when
    /// disabled or `span` is 0).
    pub fn end(&mut self, time: Cycle, unit: Unit, kind: EventKind, span: u64) {
        if !self.enabled || span == 0 {
            return;
        }
        self.record(TraceEvent {
            time,
            unit,
            kind,
            mark: Mark::End,
            span,
            arg: 0,
            job: self.current_job,
        });
    }

    /// Records an instantaneous event with payload `arg` (no-op when
    /// disabled).
    pub fn instant(&mut self, time: Cycle, unit: Unit, kind: EventKind, arg: u64) {
        if !self.enabled {
            return;
        }
        self.record(TraceEvent {
            time,
            unit,
            kind,
            mark: Mark::Instant,
            span: 0,
            arg,
            job: self.current_job,
        });
    }

    /// The collected events, oldest first.
    pub fn events(&self) -> &VecDeque<TraceEvent> {
        &self.events
    }

    /// Number of events discarded because the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes all collected events and resets the span allocator, so a
    /// cleared trace re-records identically.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
        self.next_span = if self.enabled { 1 } else { 0 };
        self.current_job = 0;
    }

    /// Renders the events as a multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!(
                "... {} earlier events dropped ...\n",
                self.dropped
            ));
        }
        for event in &self.events {
            out.push_str(&event.to_string());
            out.push('\n');
        }
        out
    }
}

// Hand-written: only the recorded state goes out, in a fixed field
// order, and the ring buffer flattens to an oldest-first array.
impl Serialize for EventTrace {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_object();
        out.field("enabled", &self.enabled);
        out.field("capacity", &self.capacity);
        out.field("dropped", &self.dropped);
        out.field("events", &self.events);
        out.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_is_inert_and_allocates_no_spans() {
        let mut t = EventTrace::disabled();
        let span = t.begin(Cycle::new(1), Unit::Host, EventKind::Wake);
        assert_eq!(span, 0);
        t.end(Cycle::new(2), Unit::Host, EventKind::Wake, span);
        t.instant(Cycle::new(3), Unit::Host, EventKind::Irq, 0);
        assert!(t.events().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn span_ids_are_sequential_from_one() {
        let mut t = EventTrace::enabled(16);
        let a = t.begin(Cycle::new(1), Unit::Cluster(0), EventKind::Wake);
        let b = t.begin(Cycle::new(2), Unit::Cluster(1), EventKind::Wake);
        assert_eq!((a, b), (1, 2));
        t.end(Cycle::new(5), Unit::Cluster(0), EventKind::Wake, a);
        let marks: Vec<Mark> = t.events().iter().map(|e| e.mark).collect();
        assert_eq!(marks, vec![Mark::Begin, Mark::Begin, Mark::End]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut t = EventTrace::enabled(2);
        for i in 0..5u64 {
            t.instant(Cycle::new(i), Unit::Noc, EventKind::NocStall, i);
        }
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.events()[0].arg, 3);
        assert_eq!(t.events()[1].arg, 4);
        assert!(t.render().contains("3 earlier events dropped"));
    }

    #[test]
    fn clear_resets_span_allocator_for_reproducible_reruns() {
        let mut t = EventTrace::enabled(16);
        let first = t.begin(Cycle::new(1), Unit::Host, EventKind::Wake);
        t.clear();
        let again = t.begin(Cycle::new(1), Unit::Host, EventKind::Wake);
        assert_eq!(first, again);
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ambient_job_id_tags_events_until_changed() {
        let mut t = EventTrace::enabled(16);
        t.instant(Cycle::new(1), Unit::Host, EventKind::Irq, 0);
        t.set_job(7);
        let span = t.begin(Cycle::new(2), Unit::Cluster(0), EventKind::Wake);
        t.end(Cycle::new(3), Unit::Cluster(0), EventKind::Wake, span);
        t.set_job(0);
        t.instant(Cycle::new(4), Unit::Host, EventKind::Irq, 0);
        let jobs: Vec<u64> = t.events().iter().map(|e| e.job).collect();
        assert_eq!(jobs, vec![0, 7, 7, 0]);
        t.clear();
        assert_eq!(t.current_job(), 0, "clear resets the ambient job");
    }

    #[test]
    fn serializes_events_and_drop_count() {
        let mut t = EventTrace::enabled(1);
        t.instant(Cycle::new(1), Unit::Host, EventKind::Irq, 0);
        t.instant(Cycle::new(2), Unit::CreditUnit, EventKind::CreditReturn, 9);
        let json = serde_json::to_string(&t).expect("serialize");
        assert!(json.contains("\"dropped\":1"));
        assert!(json.contains("CreditReturn"));
        assert!(!json.contains("Irq"));
    }
}
