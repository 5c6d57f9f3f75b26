//! Pins what the JSON reader accepts: a seeded corpus of payload
//! variants of every wire message, each decoded as its message type
//! (through a [`Decoder`]) and as a raw [`serde_json::Value`], with the
//! list of outcomes fixed by its length and FNV-1a hash.
//!
//! The variants cover the reader's edges: reordered, unknown and
//! duplicated keys, whitespace between tokens, `\u`-escaped key
//! characters, integers in forms that are not plain digits or do not
//! fit their field, missing fields, malformed variant objects, trailing
//! bytes, bad escapes, lone surrogates and nesting up to depth 64. An
//! outcome is either `Ok` with the decoded value's `Debug` form or
//! `Err` without its message, so the pin covers which inputs are
//! accepted and what they decode to, not how errors are worded.

use mpsoc_sched::{KernelId, ModelTable, RejectReason};
use mpsoc_serve::{
    encode, ClientScript, Daemon, Decoder, Fleet, FleetConfig, PlacementPolicy, Request, Response,
    StatsReport, PROTOCOL_VERSION,
};
use serde_json::Value;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A small xorshift generator, so the corpus needs no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// A JSON document whose leaves and keys are raw text, so a variant can
/// spell a number or a string any way it likes.
#[derive(Clone)]
enum Doc {
    Raw(String),
    Array(Vec<Doc>),
    Object(Vec<(String, Doc)>),
}

impl Doc {
    /// The canonical spelling of a parsed value.
    fn from_value(v: &Value) -> Doc {
        match v {
            Value::Array(items) => Doc::Array(items.iter().map(Doc::from_value).collect()),
            Value::Object(entries) => Doc::Object(
                entries
                    .iter()
                    .map(|(k, v)| (quote(k), Doc::from_value(v)))
                    .collect(),
            ),
            leaf => Doc::Raw(serde_json::to_string(leaf).expect("finite leaf")),
        }
    }

    /// Renders the document, with whitespace from `ws` between tokens
    /// when given.
    fn render(&self, ws: &mut Option<Rng>) -> String {
        let mut out = String::new();
        self.render_into(&mut out, ws);
        out
    }

    fn render_into(&self, out: &mut String, ws: &mut Option<Rng>) {
        let gap = |out: &mut String, ws: &mut Option<Rng>| {
            if let Some(rng) = ws {
                for _ in 0..rng.below(3) {
                    out.push(*rng.pick(&[' ', '\t', '\n', '\r']));
                }
            }
        };
        match self {
            Doc::Raw(text) => out.push_str(text),
            Doc::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    gap(out, ws);
                    item.render_into(out, ws);
                    gap(out, ws);
                }
                out.push(']');
            }
            Doc::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    gap(out, ws);
                    out.push_str(key);
                    gap(out, ws);
                    out.push(':');
                    gap(out, ws);
                    value.render_into(out, ws);
                    gap(out, ws);
                }
                out.push('}');
            }
        }
    }

    /// Paths to every object in the document, outermost first.
    fn objects(&self) -> Vec<Vec<usize>> {
        let mut found = Vec::new();
        self.walk(&mut Vec::new(), &mut |path, doc| {
            if matches!(doc, Doc::Object(_)) {
                found.push(path.to_vec());
            }
        });
        found
    }

    /// Paths to every leaf that is an integer literal.
    fn integers(&self) -> Vec<Vec<usize>> {
        let mut found = Vec::new();
        self.walk(&mut Vec::new(), &mut |path, doc| {
            if let Doc::Raw(text) = doc {
                if text.bytes().all(|b| b.is_ascii_digit()) {
                    found.push(path.to_vec());
                }
            }
        });
        found
    }

    /// Paths to every leaf that is a string literal.
    fn strings(&self) -> Vec<Vec<usize>> {
        let mut found = Vec::new();
        self.walk(&mut Vec::new(), &mut |path, doc| {
            if let Doc::Raw(text) = doc {
                if text.starts_with('"') {
                    found.push(path.to_vec());
                }
            }
        });
        found
    }

    fn walk(&self, path: &mut Vec<usize>, visit: &mut dyn FnMut(&[usize], &Doc)) {
        visit(path, self);
        let children: Vec<&Doc> = match self {
            Doc::Raw(_) => Vec::new(),
            Doc::Array(items) => items.iter().collect(),
            Doc::Object(entries) => entries.iter().map(|(_, v)| v).collect(),
        };
        for (i, child) in children.into_iter().enumerate() {
            path.push(i);
            child.walk(path, visit);
            path.pop();
        }
    }

    fn at(&mut self, path: &[usize]) -> &mut Doc {
        match path.split_first() {
            None => self,
            Some((&i, rest)) => match self {
                Doc::Array(items) => items[i].at(rest),
                Doc::Object(entries) => entries[i].1.at(rest),
                Doc::Raw(_) => unreachable!("paths only lead through containers"),
            },
        }
    }

    fn entries(&mut self) -> &mut Vec<(String, Doc)> {
        match self {
            Doc::Object(entries) => entries,
            _ => unreachable!("object paths lead to objects"),
        }
    }
}

fn quote(s: &str) -> String {
    serde_json::to_string(&s.to_owned()).expect("string")
}

/// A junk value for an unknown key: a literal, a string or a container.
fn junk(rng: &mut Rng) -> Doc {
    match rng.below(6) {
        0 => Doc::Raw(
            rng.pick(&["null", "true", "false", "0", "-7", "2.5e-3"])
                .to_string(),
        ),
        1 => Doc::Raw(rng.pick(&[r#""""#, r#""x""#, r#""\né\"""#]).to_string()),
        2 => Doc::Array(vec![Doc::Raw("1".into()), Doc::Raw(r#""a""#.into())]),
        3 => Doc::Object(vec![(quote("k"), Doc::Array(Vec::new()))]),
        4 => nested(rng.below(8) + 1, rng.below(2) == 0),
        _ => Doc::Object(Vec::new()),
    }
}

/// `depth` levels of nested arrays (or single-key objects) around `0`.
fn nested(depth: usize, arrays: bool) -> Doc {
    (0..depth).fold(Doc::Raw("0".into()), |inner, _| {
        if arrays {
            Doc::Array(vec![inner])
        } else {
            Doc::Object(vec![(quote("d"), inner)])
        }
    })
}

/// Spells one character of `key` (a quoted key) as a `\u` escape.
fn escape_one_char(key: &str, rng: &mut Rng) -> String {
    let inner = &key[1..key.len() - 1];
    if inner.is_empty() || inner.contains('\\') {
        return key.to_owned();
    }
    let chars: Vec<char> = inner.chars().collect();
    let at = rng.below(chars.len());
    let mut out = String::from("\"");
    for (i, c) in chars.iter().enumerate() {
        if i == at {
            if rng.below(2) == 0 {
                out.push_str(&format!("\\u{:04x}", *c as u32));
            } else {
                out.push_str(&format!("\\u{:04X}", *c as u32));
            }
        } else {
            out.push(*c);
        }
    }
    out.push('"');
    out
}

/// Integer spellings the reader must classify exactly: floats that
/// hold integers, a negative zero, leading zeros, negatives, and the
/// edges of `u32` and `u64`.
const INTEGER_FORMS: &[&str] = &[
    "1.0",
    "1e3",
    "1E3",
    "-0",
    "01",
    "007",
    "-1",
    "0",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775808",
    "-9223372036854775809",
    "1e400",
    "2.",
    "-",
    "1-2",
    "1e",
];

/// String spellings with escapes: valid ones, bad ones, surrogate
/// pairs and lone halves.
const STRING_FORMS: &[&str] = &[
    r#""plain""#,
    r#""Aé\/\b\f\n\r\t\"\\""#,
    r#""😀""#,
    r#""\ud800""#,
    r#""\udc00x""#,
    r#""\ud800A""#,
    r#""\ud800\n""#,
    r#""\x""#,
    r#""\u12""#,
    r#""\u+041""#,
    r#""\uzzzz""#,
    "\"raw\ttab\"",
    r#""unterminated"#,
];

/// One variant of `base`: a random mutation, rendered.
fn variant(base: &Doc, rng: &mut Rng) -> String {
    let mut doc = base.clone();
    let objects = doc.objects();
    let mut ws = None;
    let mut prefix = "";
    let mut suffix = "";
    // A bare unit variant has no object to reorder, extend or trim.
    let mutation = if objects.is_empty() {
        *rng.pick(&[3, 8, 9, 10, 13])
    } else {
        rng.below(14)
    };
    match mutation {
        // Reordered keys.
        0 => {
            let path = rng.pick(&objects).clone();
            let turn = rng.next() as usize;
            let entries = doc.at(&path).entries();
            if !entries.is_empty() {
                let len = entries.len();
                entries.rotate_left(turn % len);
            }
            entries.reverse();
        }
        // An unknown key holding junk.
        1 => {
            let path = rng.pick(&objects).clone();
            let junk = junk(rng);
            let entries = doc.at(&path).entries();
            let at = rng.below(entries.len() + 1);
            entries.insert(at, (quote("zz_unknown"), junk));
        }
        // A duplicated key, before or after the original, holding the
        // same value or junk.
        2 => {
            let path = rng.pick(&objects).clone();
            let junk = junk(rng);
            let same = rng.below(2) == 0;
            let before = rng.below(2) == 0;
            let entries = doc.at(&path).entries();
            if !entries.is_empty() {
                let i = rng.below(entries.len());
                let (key, value) = entries[i].clone();
                let dup = (key, if same { value } else { junk });
                entries.insert(if before { i } else { i + 1 }, dup);
            }
        }
        // Whitespace between every pair of tokens.
        3 => {
            ws = Some(Rng(rng.next() | 1));
            prefix = " \r\n";
        }
        // An escaped character in a key.
        4 => {
            let path = rng.pick(&objects).clone();
            let choice = rng.next();
            let entries = doc.at(&path).entries();
            if !entries.is_empty() {
                let i = (choice % entries.len() as u64) as usize;
                entries[i].0 = escape_one_char(&entries[i].0, &mut Rng(choice | 1));
            }
        }
        // An integer spelled another way.
        5 | 6 => {
            let ints = doc.integers();
            if !ints.is_empty() {
                let path = rng.pick(&ints).clone();
                *doc.at(&path) = Doc::Raw(rng.pick(INTEGER_FORMS).to_string());
            }
        }
        // A missing field.
        7 => {
            let path = rng.pick(&objects).clone();
            let choice = rng.next();
            let entries = doc.at(&path).entries();
            if !entries.is_empty() {
                entries.remove((choice % entries.len() as u64) as usize);
            }
        }
        // A second key beside a variant's tag, or a unit variant
        // written as an object.
        8 => match &mut doc {
            Doc::Object(entries) => {
                let key = *rng.pick(&["SubmitJob", "x", "Stats"]);
                let extra = (quote(key), junk(rng));
                if rng.below(2) == 0 {
                    entries.push(extra);
                } else {
                    entries.insert(0, extra);
                }
            }
            Doc::Raw(tag) => {
                let inner = if rng.below(2) == 0 {
                    Doc::Raw("null".into())
                } else {
                    Doc::Object(Vec::new())
                };
                doc = Doc::Object(vec![(tag.clone(), inner)]);
            }
            Doc::Array(_) => {}
        },
        // Trailing bytes.
        9 => {
            suffix = *rng.pick(&[" ", "\n\t", " x", "}", ",", "0", "null"]);
        }
        // A string spelled with escapes, good and bad.
        10 => {
            let strings = doc.strings();
            let form = rng.pick(STRING_FORMS).to_string();
            if strings.is_empty() {
                let path = rng.pick(&objects).clone();
                doc.at(&path)
                    .entries()
                    .push((quote("zz_note"), Doc::Raw(form)));
            } else {
                let path = rng.pick(&strings).clone();
                *doc.at(&path) = Doc::Raw(form);
            }
        }
        // A bad escape or lone surrogate in a key.
        11 => {
            let path = rng.pick(&objects).clone();
            let form = rng.pick(STRING_FORMS).to_string();
            let entries = doc.at(&path).entries();
            let at = rng.below(entries.len() + 1);
            entries.insert(at, (form, Doc::Raw("1".into())));
        }
        // Nesting up to depth 64 under an unknown key.
        12 => {
            let path = rng.pick(&objects).clone();
            let depth = 1 + rng.below(64);
            let arrays = rng.below(2) == 0;
            doc.at(&path)
                .entries()
                .push((quote("zz_deep"), nested(depth, arrays)));
        }
        // The payload cut short.
        _ => {
            let text = doc.render(&mut None);
            let mut cut = rng.below(text.len());
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            return text[..cut].to_owned();
        }
    }
    format!("{prefix}{}{suffix}", doc.render(&mut ws))
}

/// A real stats report: the daemon's snapshot after a small run that
/// completes, rejects and redirects jobs.
fn real_stats_report() -> StatsReport {
    let mut daemon = Daemon::new(Fleet::analytic(
        FleetConfig {
            shards: 2,
            clusters_per_shard: 2,
            queue_limit: 1,
            placement: PlacementPolicy::ModelGuided,
            steal: true,
            redirect_budget: 1,
            failover: false,
        },
        &ModelTable::paper_defaults(),
    ));
    let mut script = ClientScript::new();
    for i in 0..12u64 {
        let deadline = if i % 5 == 0 { 300 } else { 60_000 };
        script.submit_at(i * 50, i, KernelId::ALL[i as usize % 7], 512, deadline);
    }
    daemon.run(&[script]).expect("run");
    daemon.stats_report(5_000)
}

/// Every wire message, with a value in every field shape it carries.
fn messages() -> Vec<Message> {
    let mut out = Vec::new();
    for (i, kernel) in KernelId::ALL.iter().enumerate() {
        out.push(Message::Request(Request::SubmitJob {
            client_job: 7 + i as u64,
            kernel: *kernel,
            n: 1024 << i,
            deadline: 90_000 + i as u64,
        }));
    }
    out.push(Message::Request(Request::GetStats));
    out.push(Message::Response(Box::new(Response::JobAccepted {
        client_job: 3,
        shard: 1,
    })));
    for reason in [
        RejectReason::Infeasible,
        RejectReason::NotEnoughClusters { required: 9 },
        RejectReason::ProgramLint { errors: 2 },
        RejectReason::DegradedMachine {
            required: 4,
            healthy: 3,
        },
        RejectReason::StaticInfeasible { best: 1_234 },
        RejectReason::QueueFull { depth: 32 },
    ] {
        out.push(Message::Response(Box::new(Response::JobRejected {
            client_job: 11,
            reason,
        })));
    }
    out.push(Message::Response(Box::new(Response::JobComplete {
        client_job: 5,
        shard: 0,
        start: 100,
        finish: 4_100,
        on_host: false,
        deadline_met: true,
        retries: 1,
    })));
    out.push(Message::Response(Box::new(Response::Stats {
        report: real_stats_report(),
    })));
    out
}

enum Message {
    Request(Request),
    Response(Box<Response>),
}

impl Message {
    fn text(&self) -> String {
        match self {
            Message::Request(r) => serde_json::to_string(r),
            Message::Response(r) => serde_json::to_string(&**r),
        }
        .expect("protocol messages serialize")
    }

    /// Decodes `payload` as this message's type through the wire
    /// decoder, in its own frame.
    fn decode_typed(&self, payload: &str) -> String {
        let mut frame = Vec::new();
        frame.extend_from_slice(b"MJ");
        frame.push(PROTOCOL_VERSION);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload.as_bytes());
        let mut decoder = Decoder::new();
        decoder.push(&frame);
        let outcome = match self {
            Message::Request(_) => decoder
                .next_message::<Request>()
                .map(|m| format!("{:?}", m.expect("one whole frame"))),
            Message::Response(_) => decoder
                .next_message::<Response>()
                .map(|m| format!("{:?}", m.expect("one whole frame"))),
        };
        match outcome {
            Ok(debug) => format!("Ok({debug})"),
            Err(_) => "Err".to_owned(),
        }
    }
}

fn decode_value(payload: &str) -> String {
    match serde_json::from_str::<Value>(payload) {
        Ok(v) => format!("Ok({v:?})"),
        Err(_) => "Err".to_owned(),
    }
}

/// The corpus: each message's canonical payload, then seeded variants
/// of it, with both outcomes per payload.
fn corpus() -> Vec<String> {
    let mut rng = Rng(0x5851_f42d_4c95_7f2d);
    let mut lines = Vec::new();
    for message in messages() {
        let canonical = message.text();
        let base = Doc::from_value(&serde_json::from_str(&canonical).expect("canonical"));
        let mut payloads = vec![canonical];
        payloads.extend((0..150).map(|_| variant(&base, &mut rng)));
        for payload in payloads {
            lines.push(format!(
                "{payload}\n  typed {}\n  value {}",
                message.decode_typed(&payload),
                decode_value(&payload)
            ));
        }
    }
    lines
}

#[test]
fn canonical_payloads_decode_to_their_messages() {
    for message in messages() {
        let text = message.text();
        let frame = match &message {
            Message::Request(r) => encode(r),
            Message::Response(r) => encode(&**r),
        };
        assert_eq!(&frame[7..], text.as_bytes());
        assert!(message.decode_typed(&text).starts_with("Ok("));
        assert!(decode_value(&text).starts_with("Ok("));
    }
}

#[test]
fn reader_outcomes_match_the_recorded_corpus() {
    let lines = corpus();
    let typed_ok = lines.iter().filter(|l| l.contains("typed Ok")).count();
    let value_ok = lines.iter().filter(|l| l.contains("value Ok")).count();
    // Not vacuous: many variants decode, many are refused, and the two
    // readers disagree where a payload is valid JSON of the wrong shape.
    assert!(typed_ok > lines.len() / 4, "{typed_ok} of {}", lines.len());
    assert!(typed_ok < value_ok, "{typed_ok} typed vs {value_ok} value");
    assert!(value_ok < lines.len() * 9 / 10);

    let joined = lines.join("\n");
    // Recorded from the reader that decoded through a value tree.
    assert_eq!(
        (lines.len(), typed_ok, value_ok, fnv1a(joined.as_bytes())),
        (2_567, 1_071, 2_027, 0x8ece_e9d3_506f_89c9)
    );
}
