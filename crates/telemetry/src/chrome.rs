//! Chrome trace-event JSON export, loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Each hardware [`Unit`] gets its own named track (`pid`/`tid` pair plus
//! metadata records); span events become `"B"`/`"E"` pairs and instants
//! become thread-scoped `"i"` events. Timestamps are raw simulator
//! cycles written as the `ts` field, so durations in the UI are
//! proportional to cycles (at the 1 GHz reference clock, 1 cycle = 1 ns).
//!
//! Output is deterministic: events sort stably by time and the builder
//! uses insertion-ordered JSON objects, so equal traces serialize to
//! byte-identical text — the property the determinism tests pin down.

use std::collections::BTreeSet;

use serde::Value;

use crate::event::{Mark, TraceEvent};
use crate::recorder::EventTrace;
use crate::Unit;

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn str_value(s: &str) -> Value {
    Value::Str(s.to_owned())
}

fn process_name(pid: u64) -> &'static str {
    if pid == 2 {
        "sched"
    } else {
        "soc"
    }
}

/// Builds the Chrome trace-event JSON document for `trace` as a
/// [`Value`] tree (see [`chrome_trace_json`] for the serialized form).
fn chrome_trace_value(trace: &EventTrace) -> Value {
    let mut records: Vec<Value> = Vec::new();

    // One named track per unit that actually emitted events; BTreeSet
    // gives a stable track order.
    let units: BTreeSet<Unit> = trace.events().iter().map(|e| e.unit).collect();
    let pids: BTreeSet<u64> = units.iter().map(Unit::pid).collect();
    for pid in pids {
        records.push(obj(vec![
            ("name", str_value("process_name")),
            ("ph", str_value("M")),
            ("pid", Value::U64(pid)),
            ("args", obj(vec![("name", str_value(process_name(pid)))])),
        ]));
    }
    for unit in &units {
        records.push(obj(vec![
            ("name", str_value("thread_name")),
            ("ph", str_value("M")),
            ("pid", Value::U64(unit.pid())),
            ("tid", Value::U64(unit.tid())),
            ("args", obj(vec![("name", str_value(&unit.track_name()))])),
        ]));
    }

    // Stable sort by time: handlers may record a span begin whose start
    // lies after events recorded later, and B/E pairs on a track must be
    // time-ordered for the importer.
    let mut events: Vec<&TraceEvent> = trace.events().iter().collect();
    events.sort_by_key(|e| e.time);
    for event in events {
        let ph = match event.mark {
            Mark::Begin => "B",
            Mark::End => "E",
            Mark::Instant => "i",
        };
        let mut entry = vec![
            ("name", str_value(event.kind.name())),
            ("cat", str_value(process_name(event.unit.pid()))),
            ("ph", str_value(ph)),
            ("ts", Value::U64(event.time.as_u64())),
            ("pid", Value::U64(event.unit.pid())),
            ("tid", Value::U64(event.unit.tid())),
        ];
        if event.mark == Mark::Instant {
            entry.push(("s", str_value("t")));
        }
        let mut args = Vec::new();
        if event.span != 0 {
            args.push(("span", Value::U64(event.span)));
        }
        if event.arg != 0 {
            args.push(("arg", Value::U64(event.arg)));
        }
        // Job attribution from the concurrent-job SoC; omitted when
        // untagged so single-job traces export byte-identically.
        if event.job != 0 {
            args.push(("job", Value::U64(event.job)));
        }
        if !args.is_empty() {
            entry.push(("args", obj(args)));
        }
        records.push(obj(entry));
    }

    obj(vec![
        ("displayTimeUnit", str_value("ns")),
        ("traceEvents", Value::Array(records)),
    ])
}

/// Serializes `trace` as pretty-printed Chrome trace-event JSON.
pub fn chrome_trace_json(trace: &EventTrace) -> String {
    serde_json::to_string_pretty(&chrome_trace_value(trace))
        .expect("trace values contain no non-finite floats")
}

/// The synthetic `pid` profile-tree tracks export under (the cycle
/// exporter uses 1 for the SoC and 2 for the scheduler).
const PROFILE_PID: u64 = 3;

/// Builds a Chrome trace-event document for a wall-clock
/// [`ProfileReport`](mpsoc_sim::profile::ProfileReport) as complete
/// (`"X"`) events: each tree node becomes one slice whose duration is
/// its inclusive wall time, children nested inside their parent by
/// synthetic timestamps (sites aggregate many calls, so slice *offsets*
/// are schematic while widths are real nanoseconds).
pub fn profile_chrome_trace_value(report: &mpsoc_sim::profile::ProfileReport) -> Value {
    let mut records: Vec<Value> = vec![
        obj(vec![
            ("name", str_value("process_name")),
            ("ph", str_value("M")),
            ("pid", Value::U64(PROFILE_PID)),
            ("args", obj(vec![("name", str_value("profiler"))])),
        ]),
        obj(vec![
            ("name", str_value("thread_name")),
            ("ph", str_value("M")),
            ("pid", Value::U64(PROFILE_PID)),
            ("tid", Value::U64(0)),
            ("args", obj(vec![("name", str_value("wall-clock tree"))])),
        ]),
    ];
    // Pre-order emission yields non-decreasing `ts`: a child starts at
    // its parent's cursor, and each sibling starts where the previous
    // sibling's subtree ended.
    fn emit(nodes: &[mpsoc_sim::profile::ProfileNode], start: u64, records: &mut Vec<Value>) {
        let mut cursor = start;
        for node in nodes {
            records.push(obj(vec![
                ("name", str_value(&node.name)),
                ("cat", str_value("profile")),
                ("ph", str_value("X")),
                ("ts", Value::U64(cursor)),
                ("dur", Value::U64(node.total_ns)),
                ("pid", Value::U64(PROFILE_PID)),
                ("tid", Value::U64(0)),
                (
                    "args",
                    obj(vec![
                        ("calls", Value::U64(node.calls)),
                        ("self_ns", Value::U64(node.self_ns)),
                    ]),
                ),
            ]));
            emit(&node.children, cursor, records);
            cursor += node.total_ns;
        }
    }
    emit(&report.roots, 0, &mut records);
    obj(vec![
        ("displayTimeUnit", str_value("ns")),
        ("traceEvents", Value::Array(records)),
    ])
}

/// Serializes a profile report as pretty-printed Chrome trace JSON.
pub fn profile_chrome_trace_json(report: &mpsoc_sim::profile::ProfileReport) -> String {
    serde_json::to_string_pretty(&profile_chrome_trace_value(report))
        .expect("profile values contain no non-finite floats")
}

/// What [`validate_chrome_trace`] found in a well-formed trace document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Non-metadata events in the document.
    pub events: usize,
    /// Distinct `(pid, tid)` tracks seen.
    pub tracks: usize,
    /// Completed `B`/`E` span pairs.
    pub spans: usize,
}

fn field<'a>(entries: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn num(value: &Value) -> Option<u64> {
    match value {
        Value::U64(u) => Some(*u),
        Value::I64(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

/// Schema-checks Chrome trace-event JSON text: a `traceEvents` array
/// whose entries carry `name`/`ph`, numeric `ts`/`pid`/`tid` on
/// non-metadata events, known phase codes, time-ordered events and
/// balanced `B`/`E` pairs per track.
///
/// # Errors
///
/// Returns a description of the first schema violation (or parse error).
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let root: Value = serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let Value::Object(entries) = &root else {
        return Err("top level is not an object".to_owned());
    };
    let Some(Value::Array(records)) = field(entries, "traceEvents") else {
        return Err("missing `traceEvents` array".to_owned());
    };

    let mut events = 0usize;
    let mut spans = 0usize;
    let mut tracks: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut open: Vec<((u64, u64), u64)> = Vec::new(); // (track, span)
    let mut last_ts = 0u64;
    for (i, record) in records.iter().enumerate() {
        let Value::Object(entry) = record else {
            return Err(format!("traceEvents[{i}] is not an object"));
        };
        let Some(Value::Str(_)) = field(entry, "name") else {
            return Err(format!("traceEvents[{i}] has no string `name`"));
        };
        let Some(Value::Str(ph)) = field(entry, "ph") else {
            return Err(format!("traceEvents[{i}] has no string `ph`"));
        };
        match ph.as_str() {
            "M" => continue,
            "B" | "E" | "i" | "X" => {}
            other => return Err(format!("traceEvents[{i}] has unknown phase `{other}`")),
        }
        let ts = field(entry, "ts")
            .and_then(num)
            .ok_or_else(|| format!("traceEvents[{i}] has no numeric `ts`"))?;
        let pid = field(entry, "pid")
            .and_then(num)
            .ok_or_else(|| format!("traceEvents[{i}] has no numeric `pid`"))?;
        let tid = field(entry, "tid")
            .and_then(num)
            .ok_or_else(|| format!("traceEvents[{i}] has no numeric `tid`"))?;
        if ts < last_ts {
            return Err(format!(
                "traceEvents[{i}] goes back in time ({ts} < {last_ts})"
            ));
        }
        last_ts = ts;
        tracks.insert((pid, tid));
        events += 1;
        let span = field(entry, "args")
            .and_then(|args| match args {
                Value::Object(inner) => field(inner, "span").and_then(num),
                _ => None,
            })
            .unwrap_or(0);
        match ph.as_str() {
            "B" => open.push(((pid, tid), span)),
            "E" => {
                let Some(at) = open
                    .iter()
                    .rposition(|&(t, s)| t == (pid, tid) && s == span)
                else {
                    return Err(format!(
                        "traceEvents[{i}] closes span {span} on ({pid},{tid}) that is not open"
                    ));
                };
                open.remove(at);
                spans += 1;
            }
            _ => {}
        }
    }
    if !open.is_empty() {
        return Err(format!("{} span(s) never closed: {open:?}", open.len()));
    }
    Ok(ChromeTraceSummary {
        events,
        tracks: tracks.len(),
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use mpsoc_sim::Cycle;

    fn sample_trace() -> EventTrace {
        let mut t = EventTrace::enabled(64);
        t.instant(Cycle::new(50), Unit::Host, EventKind::DispatchStart, 0);
        t.instant(Cycle::new(90), Unit::Cluster(0), EventKind::DispatchEnd, 0);
        let dma = t.begin(Cycle::new(95), Unit::ClusterDma(0), EventKind::DmaIn);
        t.end(Cycle::new(300), Unit::ClusterDma(0), EventKind::DmaIn, dma);
        let cmp = t.begin(Cycle::new(300), Unit::ClusterCores(0), EventKind::Compute);
        t.end(
            Cycle::new(700),
            Unit::ClusterCores(0),
            EventKind::Compute,
            cmp,
        );
        t.instant(
            Cycle::new(710),
            Unit::CreditUnit,
            EventKind::CreditReturn,
            1,
        );
        t
    }

    #[test]
    fn export_validates_and_counts() {
        let json = chrome_trace_json(&sample_trace());
        let summary = validate_chrome_trace(&json).expect("valid");
        assert_eq!(summary.events, 7);
        assert_eq!(summary.spans, 2);
        assert_eq!(summary.tracks, 5);
        assert!(json.contains("\"displayTimeUnit\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"cluster0.dma\""));
    }

    #[test]
    fn job_tags_export_only_when_set() {
        let untagged = chrome_trace_json(&sample_trace());
        assert!(!untagged.contains("\"job\""));

        let mut t = EventTrace::enabled(16);
        t.set_job(2);
        let s = t.begin(Cycle::new(10), Unit::ClusterDma(1), EventKind::DmaIn);
        t.end(Cycle::new(20), Unit::ClusterDma(1), EventKind::DmaIn, s);
        let tagged = chrome_trace_json(&t);
        assert!(tagged.contains("\"job\": 2"));
        validate_chrome_trace(&tagged).expect("tagged trace stays schema-valid");
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace_json(&sample_trace());
        let b = chrome_trace_json(&sample_trace());
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_order_recording_still_exports_sorted() {
        let mut t = EventTrace::enabled(16);
        // A DMA span whose begin lies in the future relative to the next
        // recorded instant — the exporter must sort by time.
        let s = t.begin(Cycle::new(200), Unit::ClusterDma(0), EventKind::DmaOut);
        t.instant(Cycle::new(100), Unit::Host, EventKind::BarrierPoll, 0);
        t.end(Cycle::new(240), Unit::ClusterDma(0), EventKind::DmaOut, s);
        let json = chrome_trace_json(&t);
        validate_chrome_trace(&json).expect("sorted output validates");
    }

    #[test]
    fn profile_export_nests_and_validates() {
        use mpsoc_sim::profile::{ProfileNode, ProfileReport};
        let report = ProfileReport {
            roots: vec![ProfileNode {
                name: "run".into(),
                calls: 2,
                total_ns: 1000,
                self_ns: 400,
                children: vec![
                    ProfileNode {
                        name: "dispatch".into(),
                        calls: 8,
                        total_ns: 350,
                        self_ns: 350,
                        children: vec![],
                    },
                    ProfileNode {
                        name: "retire".into(),
                        calls: 8,
                        total_ns: 250,
                        self_ns: 250,
                        children: vec![],
                    },
                ],
            }],
        };
        let json = profile_chrome_trace_json(&report);
        let summary = validate_chrome_trace(&json).expect("valid");
        assert_eq!(summary.events, 3, "one X slice per tree node");
        assert!(json.contains("\"dur\": 1000"));
        assert!(json.contains("\"calls\": 8"));
        // The second child starts where the first ended, inside the parent.
        assert!(json.contains("\"ts\": 350"));
        assert_eq!(json, profile_chrome_trace_json(&report), "deterministic");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": [{}]}").is_err());
        let missing_ts = r#"{"traceEvents": [{"name": "x", "ph": "B", "pid": 1, "tid": 1}]}"#;
        assert!(validate_chrome_trace(missing_ts)
            .unwrap_err()
            .contains("ts"));
        let unbalanced = r#"{"traceEvents": [
            {"name": "x", "ph": "B", "ts": 1, "pid": 1, "tid": 1, "args": {"span": 5}}
        ]}"#;
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("never closed"));
        let backwards = r#"{"traceEvents": [
            {"name": "a", "ph": "i", "ts": 10, "pid": 1, "tid": 1, "s": "t"},
            {"name": "b", "ph": "i", "ts": 5, "pid": 1, "tid": 1, "s": "t"}
        ]}"#;
        assert!(validate_chrome_trace(backwards)
            .unwrap_err()
            .contains("back in time"));
    }
}
