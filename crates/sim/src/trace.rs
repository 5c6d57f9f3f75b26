//! Optional event tracing for debugging and timeline reports.
//!
//! A [`Tracer`] collects timestamped records from the hardware models.
//! Tracing is off by default (the enabled check is a single branch), so
//! calibrated experiments pay essentially nothing for the hooks.

use std::collections::VecDeque;
use std::fmt;

use serde::{Deserialize, Serialize, Writer};

use crate::Cycle;

/// One trace record: when, which unit, what happened.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Simulation time of the record.
    pub time: Cycle,
    /// Hardware unit that emitted the record (e.g. `"host"`, `"cluster3.dma"`).
    pub unit: String,
    /// Free-form description of the event.
    pub message: String,
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>10}] {:<16} {}",
            self.time.as_u64(),
            self.unit,
            self.message
        )
    }
}

/// A bounded in-memory trace collector.
///
/// Records live in a ring buffer: when the capacity is reached the oldest
/// records are dropped in O(1), so a runaway simulation cannot exhaust
/// memory and the eviction path stays off the critical path; the number
/// of dropped records is reported by [`Tracer::dropped`].
///
/// # Example
///
/// ```
/// use mpsoc_sim::{trace::Tracer, Cycle};
///
/// let mut t = Tracer::enabled(1024);
/// t.record(Cycle::new(5), "host", "multicast dispatch");
/// assert_eq!(t.records().len(), 1);
/// assert!(t.records()[0].to_string().contains("multicast"));
///
/// let mut off = Tracer::disabled();
/// off.record(Cycle::new(5), "host", "ignored");
/// assert!(off.records().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    records: VecDeque<TraceRecord>,
    dropped: u64,
}

impl Tracer {
    /// Creates a tracer that records up to `capacity` entries.
    pub fn enabled(capacity: usize) -> Self {
        Tracer {
            enabled: true,
            capacity: capacity.max(1),
            records: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Creates a no-op tracer.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// `true` when records are being collected.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled).
    pub fn record(&mut self, time: Cycle, unit: &str, message: impl Into<String>) {
        if !self.enabled {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(TraceRecord {
            time,
            unit: unit.to_owned(),
            message: message.into(),
        });
    }

    /// The collected records, oldest first.
    pub fn records(&self) -> &VecDeque<TraceRecord> {
        &self.records
    }

    /// Number of records discarded because the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Removes all collected records.
    pub fn clear(&mut self) {
        self.records.clear();
        self.dropped = 0;
    }

    /// Renders the trace as a multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!(
                "... {} earlier records dropped ...\n",
                self.dropped
            ));
        }
        for record in &self.records {
            out.push_str(&record.to_string());
            out.push('\n');
        }
        out
    }
}

// Hand-written so bench reports can embed a whole trace in a fixed
// field order (not the declaration order); the ring buffer flattens to
// an oldest-first array regardless of its internal split.
impl Serialize for Tracer {
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_object();
        out.field("enabled", &self.enabled);
        out.field("capacity", &self.capacity);
        out.field("dropped", &self.dropped);
        out.field("records", &self.records);
        out.end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_collects_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.record(Cycle::new(1), "u", "m");
        assert!(t.records().is_empty());
    }

    #[test]
    fn enabled_tracer_collects_in_order() {
        let mut t = Tracer::enabled(16);
        t.record(Cycle::new(1), "a", "first");
        t.record(Cycle::new(2), "b", "second");
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].unit, "a");
        assert_eq!(recs[1].message, "second");
    }

    #[test]
    fn capacity_evicts_oldest_and_counts_drops() {
        let mut t = Tracer::enabled(3);
        for i in 0..5u64 {
            t.record(Cycle::new(i), "u", format!("m{i}"));
        }
        assert_eq!(t.records().len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.records()[0].message, "m2");
        let rendered = t.render();
        assert!(rendered.contains("2 earlier records dropped"));
        assert!(rendered.contains("m4"));
    }

    #[test]
    fn clear_resets() {
        let mut t = Tracer::enabled(2);
        t.record(Cycle::new(1), "u", "m");
        t.record(Cycle::new(2), "u", "m");
        t.record(Cycle::new(3), "u", "m");
        t.clear();
        assert!(t.records().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut t = Tracer::enabled(0);
        t.record(Cycle::new(1), "u", "kept");
        assert_eq!(t.records().len(), 1);
    }

    #[test]
    fn record_display_contains_fields() {
        let r = TraceRecord {
            time: Cycle::new(12),
            unit: "cluster0".into(),
            message: "dma in done".into(),
        };
        let s = r.to_string();
        assert!(s.contains("12"));
        assert!(s.contains("cluster0"));
        assert!(s.contains("dma in done"));
    }

    #[test]
    fn eviction_order_survives_wraparound() {
        // Push far past capacity so the ring wraps several times; the
        // surviving window must still be the most recent, oldest first.
        let mut t = Tracer::enabled(4);
        for i in 0..19u64 {
            t.record(Cycle::new(i), "u", format!("m{i}"));
        }
        assert_eq!(t.dropped(), 15);
        let msgs: Vec<&str> = t.records().iter().map(|r| r.message.as_str()).collect();
        assert_eq!(msgs, vec!["m15", "m16", "m17", "m18"]);
    }

    #[test]
    fn tracer_serializes_records_and_drop_count() {
        let mut t = Tracer::enabled(2);
        t.record(Cycle::new(1), "u", "old");
        t.record(Cycle::new(2), "u", "mid");
        t.record(Cycle::new(3), "u", "new");
        let json = serde_json::to_string(&t).expect("serialize");
        assert!(json.contains("\"dropped\":1"));
        assert!(json.contains("\"mid\""));
        assert!(json.contains("\"new\""));
        assert!(!json.contains("\"old\""));
    }
}
