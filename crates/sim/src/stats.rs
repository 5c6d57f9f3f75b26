//! Lightweight instrumentation: named counters and streaming summaries.
//!
//! Every hardware model in the workspace records what it did (events
//! delivered, bytes moved, conflicts suffered) into a [`StatsRegistry`] so
//! experiments can report utilization breakdowns next to raw runtimes.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// A streaming summary of an observed quantity: count, sum, min, max and
/// mean, without storing samples.
///
/// # Example
///
/// ```
/// use mpsoc_sim::stats::Summary;
///
/// let mut s = Summary::new();
/// for v in [2.0, 4.0, 6.0] {
///     s.record(v);
/// }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.mean(), Some(4.0));
/// assert_eq!(s.min(), Some(2.0));
/// assert_eq!(s.max(), Some(6.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Summary {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            if value < self.min {
                self.min = value;
            }
            if value > self.max {
                self.max = value;
            }
        }
        self.count += 1;
        self.sum += value;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples, `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest recorded sample, `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(
                f,
                "n={} mean={:.3} min={:.3} max={:.3}",
                self.count, mean, self.min, self.max
            ),
            None => write!(f, "n=0"),
        }
    }
}

/// An HDR-style log-bucketed histogram over non-negative integer samples
/// (cycle counts, queue depths), answering p50/p95/p99 without storing
/// samples.
///
/// Values below 16 get exact buckets; above that, each power-of-two octave
/// splits into 16 sub-buckets, bounding the relative quantile error at
/// 1/16 (6.25%) while keeping at most ~1000 buckets for the full `u64`
/// range. Buckets are stored sparsely as sorted `(bucket, count)` pairs,
/// so serialization is compact and byte-stable.
///
/// # Example
///
/// ```
/// use mpsoc_sim::stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=100u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 100);
/// let p50 = h.quantile(0.50).unwrap();
/// assert!((48..=56).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<(u64, u64)>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Exact buckets below this value; log-bucketed with 16 sub-buckets per
/// octave above it.
const HIST_LINEAR_LIMIT: u64 = 16;

fn hist_bucket_of(value: u64) -> u64 {
    if value < HIST_LINEAR_LIMIT {
        value
    } else {
        let msb = 63 - u64::from(value.leading_zeros());
        HIST_LINEAR_LIMIT + (msb - 4) * 16 + ((value >> (msb - 4)) & 0xF)
    }
}

/// Largest value that maps to `bucket` (the reported quantile estimate).
fn hist_bucket_high(bucket: u64) -> u64 {
    if bucket < HIST_LINEAR_LIMIT {
        bucket
    } else {
        let octave = (bucket - HIST_LINEAR_LIMIT) / 16;
        let sub = (bucket - HIST_LINEAR_LIMIT) % 16;
        let low = (16 + sub) << octave;
        low + (1u64 << octave) - 1
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = hist_bucket_of(value);
        match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
            Ok(i) => self.buckets[i].1 += 1,
            Err(i) => self.buckets.insert(i, (bucket, 1)),
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The value at quantile `q` in `[0, 1]` (upper bucket bound, clamped
    /// to the observed max), `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for &(bucket, count) in &self.buckets {
            seen += count;
            if seen >= rank {
                return Some(hist_bucket_high(bucket).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        for &(bucket, count) in &other.buckets {
            match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
                Ok(i) => self.buckets[i].1 += count,
                Err(i) => self.buckets.insert(i, (bucket, count)),
            }
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.p50(), self.p95(), self.p99()) {
            (Some(p50), Some(p95), Some(p99)) => write!(
                f,
                "n={} p50={} p95={} p99={} min={} max={}",
                self.count, p50, p95, p99, self.min, self.max
            ),
            _ => write!(f, "n=0"),
        }
    }
}

/// A registry of named `u64` counters and named [`Summary`] series.
///
/// Names are ordinary `&str` keys stored in sorted order so reports are
/// stable across runs.
///
/// # Example
///
/// ```
/// use mpsoc_sim::stats::StatsRegistry;
///
/// let mut stats = StatsRegistry::new();
/// stats.add("noc.multicast_stores", 1);
/// stats.add("noc.multicast_stores", 1);
/// stats.observe("dma.burst_cycles", 12.0);
/// assert_eq!(stats.counter("noc.multicast_stores"), 2);
/// assert_eq!(stats.counter("unknown"), 0);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StatsRegistry {
    counters: BTreeMap<String, u64>,
    summaries: BTreeMap<String, Summary>,
    histograms: BTreeMap<String, Histogram>,
}

impl StatsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        StatsRegistry::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &str, delta: u64) {
        upsert(&mut self.counters, name, |c| *c += delta);
    }

    /// Increments the counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a counter; absent counters read as zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records a sample into the summary `name` and, for non-negative
    /// values, into the matching [`Histogram`] (rounded to integer), so
    /// every observed series gets p50/p95/p99 for free.
    pub fn observe(&mut self, name: &str, value: f64) {
        upsert(&mut self.summaries, name, |s| s.record(value));
        if value >= 0.0 {
            upsert(&mut self.histograms, name, |h| {
                h.record(value.round() as u64)
            });
        }
    }

    /// Reads a summary; absent summaries read as empty.
    pub fn summary(&self, name: &str) -> Summary {
        self.summaries.get(name).copied().unwrap_or_default()
    }

    /// Reads a histogram; absent histograms read as empty.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Iterates over `(name, value)` counter pairs in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates over `(name, summary)` pairs in name order.
    pub fn summaries(&self) -> impl Iterator<Item = (&str, &Summary)> {
        self.summaries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Iterates over `(name, histogram)` pairs in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges `summary` into the series `name`, creating it if absent —
    /// the single-series form of [`StatsRegistry::merge`], used when
    /// aggregating under a different name than the source (e.g. a
    /// per-shard prefix).
    pub fn merge_summary_named(&mut self, name: &str, summary: &Summary) {
        upsert(&mut self.summaries, name, |s| s.merge(summary));
    }

    /// Merges `histogram` into the series `name`, creating it if absent.
    pub fn merge_histogram_named(&mut self, name: &str, histogram: &Histogram) {
        upsert(&mut self.histograms, name, |h| h.merge(histogram));
    }

    /// Merges another registry into this one (counters add, summaries and
    /// histograms merge).
    pub fn merge(&mut self, other: &StatsRegistry) {
        for (name, value) in &other.counters {
            upsert(&mut self.counters, name, |c| *c += value);
        }
        for (name, summary) in &other.summaries {
            self.merge_summary_named(name, summary);
        }
        for (name, histogram) in &other.histograms {
            self.merge_histogram_named(name, histogram);
        }
    }

    /// Removes all counters, summaries and histograms.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.summaries.clear();
        self.histograms.clear();
    }
}

/// Applies `update` to the entry `name`, creating it at its default
/// first. The key is only allocated for a name the map has not seen, so
/// a hot counter costs one lookup and no allocation per update.
fn upsert<V: Default>(map: &mut BTreeMap<String, V>, name: &str, update: impl FnOnce(&mut V)) {
    match map.get_mut(name) {
        Some(v) => update(v),
        None => update(map.entry(name.to_owned()).or_default()),
    }
}

impl fmt::Display for StatsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.counters {
            writeln!(f, "{name}: {value}")?;
        }
        for (name, summary) in &self.summaries {
            writeln!(f, "{name}: {summary}")?;
        }
        for (name, histogram) in &self.histograms {
            writeln!(f, "{name} [hist]: {histogram}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_empty_behaviour() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.to_string(), "n=0");
    }

    #[test]
    fn summary_single_sample() {
        let mut s = Summary::new();
        s.record(-3.5);
        assert_eq!(s.mean(), Some(-3.5));
        assert_eq!(s.min(), Some(-3.5));
        assert_eq!(s.max(), Some(-3.5));
    }

    #[test]
    fn summary_merge() {
        let mut a = Summary::new();
        a.record(1.0);
        a.record(2.0);
        let mut b = Summary::new();
        b.record(10.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(10.0));
        assert_eq!(a.min(), Some(1.0));

        let mut empty = Summary::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 3);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);
    }

    #[test]
    fn registry_counters() {
        let mut r = StatsRegistry::new();
        r.incr("a");
        r.add("a", 4);
        r.add("b", 1);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("b"), 1);
        assert_eq!(r.counter("missing"), 0);
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }

    #[test]
    fn registry_summaries() {
        let mut r = StatsRegistry::new();
        r.observe("lat", 5.0);
        r.observe("lat", 15.0);
        assert_eq!(r.summary("lat").mean(), Some(10.0));
        assert_eq!(r.summary("missing").count(), 0);
    }

    #[test]
    fn registry_merge_and_clear() {
        let mut a = StatsRegistry::new();
        a.add("x", 2);
        a.observe("s", 1.0);
        let mut b = StatsRegistry::new();
        b.add("x", 3);
        b.add("y", 1);
        b.observe("s", 3.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.summary("s").count(), 2);
        a.clear();
        assert_eq!(a.counter("x"), 0);
        assert_eq!(a.counters().count(), 0);
    }

    #[test]
    fn histogram_empty_behaviour() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.to_string(), "n=0");
    }

    #[test]
    fn histogram_small_values_are_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7, 8, 9] {
            h.record(v);
        }
        assert_eq!(h.p50(), Some(4));
        assert_eq!(h.quantile(1.0), Some(9));
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(9));
    }

    #[test]
    fn histogram_log_buckets_bound_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, exact) in [(0.50, 5_000u64), (0.95, 9_500), (0.99, 9_900)] {
            let est = h.quantile(q).unwrap() as f64;
            let err = (est - exact as f64).abs() / exact as f64;
            assert!(err <= 1.0 / 16.0, "q={q}: est={est} exact={exact}");
        }
    }

    #[test]
    fn histogram_quantile_never_exceeds_max() {
        let mut h = Histogram::new();
        h.record(1_000_003);
        assert_eq!(h.p99(), Some(1_000_003));
    }

    #[test]
    fn histogram_merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in 0..500u64 {
            a.record(v * 3);
            all.record(v * 3);
        }
        for v in 0..500u64 {
            b.record(v * 7 + 1);
            all.record(v * 7 + 1);
        }
        a.merge(&b);
        assert_eq!(a, all);

        let mut empty = Histogram::new();
        empty.merge(&all);
        assert_eq!(empty, all);
    }

    #[test]
    fn histogram_serde_round_trip() {
        let mut h = Histogram::new();
        for v in [3u64, 17, 900, 65_536] {
            h.record(v);
        }
        let json = serde_json::to_string(&h).expect("serialize");
        let back: Histogram = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, h);
    }

    #[test]
    fn registry_observe_feeds_histograms() {
        let mut r = StatsRegistry::new();
        for v in 1..=100 {
            r.observe("lat", f64::from(v));
        }
        // Negative samples stay out of the histogram but land in the summary.
        r.observe("signed", -5.0);
        assert_eq!(r.histogram("lat").count(), 100);
        assert!(r.histogram("lat").p95().unwrap() >= 90);
        assert_eq!(r.histogram("signed").count(), 0);
        assert_eq!(r.summary("signed").count(), 1);
        assert_eq!(r.histogram("missing").count(), 0);
        let names: Vec<&str> = r.histograms().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["lat"]);

        let mut other = StatsRegistry::new();
        other.observe("lat", 7.0);
        r.merge(&other);
        assert_eq!(r.histogram("lat").count(), 101);
        r.clear();
        assert_eq!(r.histogram("lat").count(), 0);
    }

    #[test]
    fn registry_display_lists_everything() {
        let mut r = StatsRegistry::new();
        r.add("events", 7);
        r.observe("lat", 2.0);
        let text = r.to_string();
        assert!(text.contains("events: 7"));
        assert!(text.contains("lat: n=1"));
        assert!(text.contains("lat [hist]: n=1"));
    }
}
