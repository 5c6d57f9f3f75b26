//! Offline shim for the subset of `serde_json` this workspace uses: the
//! entry points [`to_string`], [`to_string_pretty`], [`to_writer`] and
//! [`from_str`] over the vendored `serde` shim, whose traits read and
//! write JSON text themselves (`serde::Writer`, `serde::Reader`).
//!
//! The emitted text is plain JSON. Fields keep declaration order and
//! [`Value`] objects insertion order, so repeated serializations of
//! equal data are byte-identical — the determinism guarantee the
//! scheduler reports rely on. Floats print via Rust's
//! shortest-round-trip `Display`, integers as integers; `NaN` and
//! infinities are rejected (JSON has no encoding for them).

#![forbid(unsafe_code)]

use serde::{Deserialize, Reader, Serialize, Writer};
pub use serde::{Error, Value};

/// Serializes `value` as compact JSON.
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite float.
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = Vec::with_capacity(128);
    to_writer(&mut out, value)?;
    Ok(String::from_utf8(out).expect("the writer emits UTF-8"))
}

/// Serializes `value` as pretty-printed JSON (two-space indent).
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite float.
pub fn to_string_pretty<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    let mut writer = Writer::pretty(&mut out);
    value.serialize(&mut writer);
    writer.finish()?;
    Ok(String::from_utf8(out).expect("the writer emits UTF-8"))
}

/// Appends `value` as compact JSON to `out`.
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite float; `out`
/// then ends in text that is not valid JSON.
pub fn to_writer<T: Serialize>(out: &mut Vec<u8>, value: &T) -> Result<(), Error> {
    let mut writer = Writer::compact(out);
    value.serialize(&mut writer);
    writer.finish()
}

/// Parses JSON text into `T`.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON, nesting deeper than
/// `serde::MAX_DEPTH`, or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let mut reader = Reader::new(text);
    let value = T::deserialize(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn compact_and_pretty_round_trip() {
        let value = vec![(1u64, -2i64), (3, 4)];
        let compact = to_string(&value).unwrap();
        assert_eq!(compact, "[[1,-2],[3,4]]");
        let back: Vec<(u64, i64)> = from_str(&compact).unwrap();
        assert_eq!(back, value);
        let pretty = to_string_pretty(&value).unwrap();
        assert!(pretty.contains('\n'));
        let back: Vec<(u64, i64)> = from_str(&pretty).unwrap();
        assert_eq!(back, value);
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "say \"hi\"\nüñî".to_owned();
        let text = to_string(&s).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, s);
        let uni: String = from_str(r#""Aé""#).unwrap();
        assert_eq!(uni, "Aé");
    }

    #[test]
    fn floats_survive() {
        let xs = vec![1.0f64, -0.25, 633.4, 1e-9];
        let text = to_string(&xs).unwrap();
        let back: Vec<f64> = from_str(&text).unwrap();
        assert_eq!(back, xs);
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<u64>("[1").is_err());
        assert!(from_str::<u64>("1 2").is_err());
        assert!(from_str::<u64>("nul").is_err());
    }

    /// Every control character, the characters JSON escapes or may
    /// escape, and non-ASCII text, including DEL.
    fn awkward() -> String {
        let controls: String = (0u8..0x20).map(char::from).collect();
        format!("{controls}\"\\/é€😀\u{7f}")
    }

    // The expected strings below were recorded from the writer that
    // rendered a value tree.

    /// `awkward()` as written: short escapes for `"`, `\`, `\n`, `\r`
    /// and `\t`, lowercase `\u00xx` for the other control characters,
    /// everything else verbatim.
    const AWKWARD: &str = "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\u0008\
                           \\t\\n\\u000b\\u000c\\r\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\
                           \\u0014\\u0015\\u0016\\u0017\\u0018\\u0019\\u001a\\u001b\\u001c\
                           \\u001d\\u001e\\u001f\\\"\\\\/é€😀\u{7f}\"";

    #[test]
    fn strings_and_keys_escape_as_recorded() {
        let s = awkward();
        let doc = Value::Object(vec![(s.clone(), Value::Str(s.clone()))]);
        assert_eq!(to_string(&doc).unwrap(), format!("{{{AWKWARD}:{AWKWARD}}}"));
        assert_eq!(
            to_string_pretty(&doc).unwrap(),
            format!("{{\n  {AWKWARD}: {AWKWARD}\n}}")
        );
        let map = BTreeMap::from([(s.clone(), s.clone())]);
        assert_eq!(to_string(&map).unwrap(), format!("{{{AWKWARD}:{AWKWARD}}}"));
        assert_eq!(from_str::<String>(AWKWARD).unwrap(), s);
    }

    #[test]
    fn numbers_format_as_recorded() {
        let floats = [0.0f64, -0.0, 3.0, 0.1, 1e-9, 1e21, 5e-324, f64::MAX];
        let tiny = format!("0.{}5", "0".repeat(323));
        let max = format!("17976931348623157{}", "0".repeat(292));
        let texts = [
            "0",
            "-0",
            "3",
            "0.1",
            "0.000000001",
            "1000000000000000000000",
            &tiny,
            &max,
        ];
        assert_eq!(
            to_string(&floats).unwrap(),
            format!("[{}]", texts.join(","))
        );
        assert_eq!(
            to_string_pretty(&floats).unwrap(),
            format!("[\n  {}\n]", texts.join(",\n  "))
        );
        let ints = (u64::MAX, i64::MIN);
        assert_eq!(
            to_string(&ints).unwrap(),
            "[18446744073709551615,-9223372036854775808]"
        );
        assert_eq!(
            to_string_pretty(&ints).unwrap(),
            "[\n  18446744073709551615,\n  -9223372036854775808\n]"
        );
        assert_eq!(
            from_str::<(u64, i64)>("[18446744073709551615,-9223372036854775808]"),
            Ok(ints)
        );
    }

    #[derive(serde::Serialize)]
    struct Probe {
        xs: Vec<u64>,
        none: Option<u64>,
        nested: Vec<Vec<u64>>,
        map: BTreeMap<String, u64>,
        x: f64,
    }

    fn probe(x: f64) -> Probe {
        Probe {
            xs: Vec::new(),
            none: None,
            nested: vec![Vec::new()],
            map: BTreeMap::new(),
            x,
        }
    }

    #[test]
    fn empty_containers_and_none_write_as_recorded() {
        let doc = Value::Array(vec![
            Value::Array(Vec::new()),
            Value::Object(Vec::new()),
            Value::Array(vec![Value::Object(vec![(
                "k".to_owned(),
                Value::Array(Vec::new()),
            )])]),
        ]);
        assert_eq!(to_string(&doc).unwrap(), r#"[[],{},[{"k":[]}]]"#);
        assert_eq!(
            to_string_pretty(&doc).unwrap(),
            "[\n  [],\n  {},\n  [\n    {\n      \"k\": []\n    }\n  ]\n]"
        );
        assert_eq!(
            to_string(&probe(0.5)).unwrap(),
            r#"{"xs":[],"none":null,"nested":[[]],"map":{},"x":0.5}"#
        );
        assert_eq!(
            to_string_pretty(&probe(0.5)).unwrap(),
            "{\n  \"xs\": [],\n  \"none\": null,\n  \"nested\": [\n    []\n  ],\n  \
             \"map\": {},\n  \"x\": 0.5\n}"
        );
        assert_eq!(to_string(&None::<u64>).unwrap(), "null");
        assert_eq!(to_string_pretty(&None::<u64>).unwrap(), "null");
        assert_eq!(to_string(&Vec::<u64>::new()).unwrap(), "[]");
        assert_eq!(to_string_pretty(&Value::Object(Vec::new())).unwrap(), "{}");
    }

    #[test]
    fn non_finite_floats_are_errors_at_any_depth() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(to_string(&bad).is_err());
            assert!(to_string_pretty(&bad).is_err());
            assert!(to_string(&probe(bad)).is_err());
            assert!(to_string_pretty(&probe(bad)).is_err());
            assert!(to_string(&vec![Some(1.0), Some(bad)]).is_err());
        }
    }
}
