//! Offline shim for the subset of `serde` this workspace uses.
//!
//! The workspace builds offline, so the real `serde` is not fetched.
//! This shim keeps the workspace's source unchanged —
//! `use serde::{Serialize, Deserialize}` and the derive attributes work
//! as before — but it speaks one format only, JSON, so the traits skip
//! serde's data model and work on the text directly:
//!
//! - [`Serialize`] writes a type as JSON into the caller's buffer through
//!   a [`Writer`], which tracks separators and compact or pretty
//!   indentation;
//! - [`Deserialize`] reads a type from a [`Reader`], a cursor over the
//!   borrowed input text;
//! - the derive macros (from the sibling `serde_derive` shim) emit
//!   straight-line code for both, for structs and enums, honoring
//!   `#[serde(transparent)]` and serde's default externally-tagged enum
//!   representation. Field and variant names are matched as literals.
//!
//! [`Value`] is the one dynamic type: any JSON document, for callers
//! that inspect documents without a schema. It implements both traits;
//! typed data never passes through it. The `serde_json` shim provides
//! the entry points (`to_string`, `to_string_pretty`, `from_str`).
//!
//! Output is deterministic: fields are written in declaration order and
//! [`Value`] objects in insertion order, so equal data serializes to
//! equal bytes — a property the byte-identical reports rely on. The
//! reader bounds nesting at [`MAX_DEPTH`], so no input can exhaust the
//! stack.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;

pub use serde_derive::{Deserialize, Serialize};

/// Deepest nesting of arrays and objects the [`Reader`] accepts
/// (serde_json's default). Deeper input is an error.
pub const MAX_DEPTH: usize = 128;

/// A JSON document of any shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    U64(u64),
    /// Negative integer (`-0` also reads as this variant; other
    /// non-negatives read as [`Value::U64`]).
    I64(i64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, in insertion order (duplicate keys kept).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(elems) => Some(elems),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value widened to `f64`, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(u) => Some(u as f64),
            Value::I64(i) => Some(i as f64),
            Value::F64(f) => Some(f),
            _ => None,
        }
    }
}

static NULL_VALUE: Value = Value::Null;

/// Looks up `name` in an object's entries, yielding `Null` when absent:
/// the rule derived types read fields by (the first of a repeated key
/// wins, a missing one reads as `null`).
pub fn get_field<'a>(entries: &'a [(String, Value)], name: &str) -> &'a Value {
    entries
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .unwrap_or(&NULL_VALUE)
}

/// A serialization or parse failure: a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// Writes `self` as JSON. The derive macro implements this for structs
/// and enums; primitives and containers are implemented here.
pub trait Serialize {
    /// Writes `self` into `out`.
    fn serialize(&self, out: &mut Writer<'_>);
}

/// Reads `Self` from JSON text.
pub trait Deserialize: Sized {
    /// Reads one value from `input`, with a descriptive error on
    /// malformed text or a shape mismatch.
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error>;
}

/// Appends JSON text to a byte buffer, compact or pretty-printed with a
/// two-space indent.
///
/// The writer places separators and indentation itself: a container is
/// opened, filled through [`Writer::field`] or [`Writer::element`] (or
/// [`Writer::quoted_key`] followed by the value), and closed. An empty
/// container is `[]` or `{}` in both modes. A non-finite float has no
/// JSON form; writing one makes [`Writer::finish`] fail.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    pretty: bool,
    /// Containers open around the next value.
    depth: usize,
    /// The innermost open container has no entry yet.
    empty: bool,
    /// A non-finite float was written.
    non_finite: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending compact JSON to `out`.
    pub fn compact(out: &'a mut Vec<u8>) -> Self {
        Writer {
            out,
            pretty: false,
            depth: 0,
            empty: false,
            non_finite: false,
        }
    }

    /// A writer appending pretty-printed JSON to `out`.
    pub fn pretty(out: &'a mut Vec<u8>) -> Self {
        Writer {
            pretty: true,
            ..Writer::compact(out)
        }
    }

    /// Ends writing: an error if a non-finite float was written, and
    /// the text in the buffer is then not valid JSON.
    pub fn finish(self) -> Result<(), Error> {
        if self.non_finite {
            return Err(Error::new("non-finite float is not representable in JSON"));
        }
        Ok(())
    }

    /// Writes `null`.
    #[inline]
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    /// Writes a boolean.
    #[inline]
    pub fn bool(&mut self, b: bool) {
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    /// Writes a non-negative integer.
    #[inline]
    pub fn u64(&mut self, mut v: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&digits[at..]);
    }

    /// Writes an integer.
    #[inline]
    pub fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push(b'-');
        }
        self.u64(v.unsigned_abs());
    }

    /// Writes a float in Rust's shortest round-trip `Display` form. A
    /// non-finite float writes nothing and fails [`Writer::finish`].
    pub fn f64(&mut self, v: f64) {
        if v.is_finite() {
            // Writing into a `Vec` cannot fail.
            let _ = write!(self.out, "{v}");
        } else {
            self.non_finite = true;
        }
    }

    /// Writes a string, escaping `"`, `\` and control characters.
    #[inline]
    pub fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let out = &mut *self.out;
        out.push(b'"');
        let bytes = s.as_bytes();
        let mut run = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            out.extend_from_slice(&bytes[run..i]);
            run = i + 1;
            match b {
                b'"' => out.extend_from_slice(b"\\\""),
                b'\\' => out.extend_from_slice(b"\\\\"),
                b'\n' => out.extend_from_slice(b"\\n"),
                b'\r' => out.extend_from_slice(b"\\r"),
                b'\t' => out.extend_from_slice(b"\\t"),
                _ => out.extend_from_slice(&[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xf)],
                ]),
            }
        }
        out.extend_from_slice(&bytes[run..]);
        out.push(b'"');
    }

    /// Opens an array.
    #[inline]
    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    /// Writes one array element.
    pub fn element<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.next_entry();
        value.serialize(self);
    }

    /// Closes the innermost array.
    #[inline]
    pub fn end_array(&mut self) {
        self.close(b']');
    }

    /// Opens an object.
    #[inline]
    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    /// Writes an object key given as a JSON string literal, quotes
    /// included — how the derive macro writes field and variant names,
    /// which need no escaping. The caller writes its value next.
    #[inline]
    pub fn quoted_key(&mut self, literal: &str) {
        self.next_entry();
        self.raw(literal);
        self.colon();
    }

    /// Writes text that is already JSON, such as a quoted variant name.
    #[inline]
    pub fn raw(&mut self, json: &str) {
        self.out.extend_from_slice(json.as_bytes());
    }

    /// Writes one object entry.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.next_entry();
        self.str(key);
        self.colon();
        value.serialize(self);
    }

    /// Closes the innermost object.
    #[inline]
    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    #[inline]
    fn open(&mut self, bracket: u8) {
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    /// The separator and indentation before an entry.
    #[inline]
    fn next_entry(&mut self) {
        if !std::mem::take(&mut self.empty) {
            self.out.push(b',');
        }
        self.newline();
    }

    #[inline]
    fn close(&mut self, bracket: u8) {
        self.depth -= 1;
        // A closed container is an entry of its parent, so the parent is
        // not empty either.
        if !std::mem::take(&mut self.empty) {
            self.newline();
        }
        self.out.push(bracket);
    }

    #[inline]
    fn colon(&mut self) {
        self.out.push(b':');
        if self.pretty {
            self.out.push(b' ');
        }
    }

    #[inline]
    fn newline(&mut self) {
        if self.pretty {
            self.out.push(b'\n');
            let indented = self.out.len() + 2 * self.depth;
            self.out.resize(indented, b' ');
        }
    }
}

/// A cursor over JSON text: reads one value at a time, borrowing
/// strings from the input where they hold no escapes.
///
/// Whitespace may sit between any two tokens. A container is opened,
/// walked with [`Reader::next_key`] or [`Reader::next_element`] until
/// they report its end, and is closed by that call. Arrays and objects
/// nest at most [`MAX_DEPTH`] deep. Numbers are classified as the
/// variants of [`Value`]: a token of digits (with an optional `-`) is an
/// integer if it fits, anything with `.`, `e`, `E` or `+` is a float, so
/// `1.0` is not an integer while `-0` is.
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Containers open around the cursor.
    depth: usize,
    /// The innermost open container has no entry yet.
    empty: bool,
}

/// An enum variant's tag, as [`Reader::variant`] found it.
pub enum VariantTag<'a> {
    /// A bare string: a unit variant.
    Unit(Cow<'a, str>),
    /// The key of a single-key object: a data variant, whose value the
    /// reader is positioned at.
    Data(Cow<'a, str>),
}

/// A number token, classified as [`Value`] classifies it.
enum Number {
    U64(u64),
    I64(i64),
    F64(f64),
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            empty: false,
        }
    }

    /// Checks that only whitespace follows the value read.
    pub fn finish(&mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// Reads `null` if the next value is one, reporting whether it was.
    #[inline]
    fn null(&mut self) -> Result<bool, Error> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.literal("null")?;
        Ok(true)
    }

    /// Reads a boolean.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.error("expected boolean")),
        }
    }

    /// Reads a string: borrowed from the input when it holds no escape.
    /// A lone surrogate escape reads as U+FFFD.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected string"));
        }
        self.pos += 1;
        let start = self.pos;
        self.skip_plain();
        if self.byte() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        self.escaped_str(start).map(Cow::Owned)
    }

    /// The rest of a string whose first run, from `start`, stopped at a
    /// backslash or the end of the input.
    fn escaped_str(&mut self, start: usize) -> Result<String, Error> {
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.byte() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                // The run stopped at a backslash: decode one escape.
                Some(_) => {
                    self.pos += 1;
                    let esc = self
                        .byte()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.error(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
            }
            let run = self.pos;
            self.skip_plain();
            out.push_str(&self.text[run..self.pos]);
        }
    }

    /// Opens an array; an error if opening it would nest deeper than
    /// [`MAX_DEPTH`].
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[', "expected array")
    }

    /// Moves to the next element of the innermost open array: `false`
    /// once the array has ended (and been closed).
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.next_entry(b']')
    }

    /// Opens an object; an error if opening it would nest deeper than
    /// [`MAX_DEPTH`].
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{', "expected object")
    }

    /// Reads the next key of the innermost open object and its `:`, so
    /// the reader is positioned at the key's value. `None` once the
    /// object has ended (and been closed).
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, Error> {
        if !self.next_entry(b'}')? {
            return Ok(None);
        }
        let key = self.str()?;
        if self.peek() != Some(b':') {
            return Err(self.error("expected `:`"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Skips one value of any shape, checking it as [`Value`] would read
    /// it, without building it.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
                Ok(())
            }
            Some(b'"') => self.str().map(drop),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            Some(b't' | b'f') => self.bool().map(drop),
            Some(b'n') => self.literal("null"),
            _ => Err(self.error("unexpected byte")),
        }
    }

    /// Reads an enum variant's tag: a string for a unit variant, or the
    /// key of a non-empty object for a data variant. After reading a data
    /// variant's value, call [`Reader::end_variant`].
    #[inline]
    pub fn variant(&mut self) -> Result<VariantTag<'a>, Error> {
        if self.peek() == Some(b'"') {
            return self.str().map(VariantTag::Unit);
        }
        if self.peek() == Some(b'{') {
            self.begin_object()?;
            if let Some(tag) = self.next_key()? {
                return Ok(VariantTag::Data(tag));
            }
        }
        Err(self.error("expected string or single-key object for an enum"))
    }

    /// Closes a data variant's object, which must hold no other key.
    #[inline]
    pub fn end_variant(&mut self) -> Result<(), Error> {
        match self.next_key()? {
            None => Ok(()),
            Some(_) => Err(self.error("expected a single-key object for an enum")),
        }
    }

    /// Reads the next element of a fixed-length array (a tuple). Once
    /// the array has ended — `open` turns false — each further element
    /// reads as `null`, as a missing field does.
    #[inline]
    pub fn tuple_element<T: Deserialize>(&mut self, open: &mut bool) -> Result<T, Error> {
        *open = *open && self.next_element()?;
        if *open {
            T::deserialize(self)
        } else {
            missing()
        }
    }

    /// Ends a tuple read with [`Reader::tuple_element`]: skips elements
    /// past its length and closes the array.
    #[inline]
    pub fn end_tuple(&mut self, open: bool) -> Result<(), Error> {
        if open {
            while self.next_element()? {
                self.skip_value()?;
            }
        }
        Ok(())
    }

    #[inline]
    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips whitespace and returns the next byte.
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.byte() {
            self.pos += 1;
        }
        self.byte()
    }

    fn error(&self, what: impl std::fmt::Display) -> Error {
        Error::new(format!("{what} at byte {}", self.pos))
    }

    /// Advances to the next quote or backslash (or the end).
    #[inline]
    fn skip_plain(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len());
    }

    #[inline]
    fn literal(&mut self, word: &str) -> Result<(), Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.error("invalid literal"))
        }
    }

    #[inline]
    fn open(&mut self, bracket: u8, expected: &str) -> Result<(), Error> {
        if self.peek() != Some(bracket) {
            return Err(self.error(expected));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.depth += 1;
        self.empty = true;
        Ok(())
    }

    #[inline]
    fn next_entry(&mut self, bracket: u8) -> Result<bool, Error> {
        let next = self.peek();
        if next == Some(bracket) {
            self.pos += 1;
            self.depth -= 1;
            // A closed container is an entry of its parent.
            self.empty = false;
            return Ok(false);
        }
        if std::mem::take(&mut self.empty) {
            return Ok(true);
        }
        if next == Some(b',') {
            self.pos += 1;
            return Ok(true);
        }
        Err(self.error(format!("expected `,` or `{}`", bracket as char)))
    }

    /// Decodes the code point of a `\u` escape whose `\u` was consumed,
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let code = self.hex4()?;
        let c = if (0xD800..0xDC00).contains(&code) {
            // A high surrogate: read the low half if an escape follows.
            if self.byte() == Some(b'\\') {
                self.pos += 1;
                if self.byte() != Some(b'u') {
                    return Err(self.error("expected `u`"));
                }
                self.pos += 1;
                let low = self.hex4()?;
                char::from_u32(
                    0x10000 + ((code - 0xD800) << 10) + (low.wrapping_sub(0xDC00) & 0x3FF),
                )
            } else {
                None
            }
        } else {
            char::from_u32(code)
        };
        Ok(c.unwrap_or('\u{FFFD}'))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let end = self.pos + 4;
        let chunk = self
            .text
            .as_bytes()
            .get(self.pos..end)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let code = std::str::from_utf8(chunk)
            .ok()
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    /// Reads a number token: `-`, digits, `.`, `e`, `E` and `+`. A plain
    /// integer is summed while it is scanned; any other token is parsed.
    #[inline]
    fn number(&mut self) -> Result<Number, Error> {
        let negative = match self.peek() {
            Some(b'-') => true,
            Some(b'0'..=b'9') => false,
            _ => return Err(self.error("expected number")),
        };
        let start = self.pos;
        self.pos += usize::from(negative);
        let mut sum = 0u64;
        let mut float = false;
        while let Some(b) = self.byte() {
            match b {
                b'0'..=b'9' => sum = sum.wrapping_mul(10).wrapping_add(u64::from(b - b'0')),
                b'.' | b'e' | b'E' | b'+' | b'-' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        // Up to 19 digits cannot overflow the sum.
        let digits = self.pos - start - usize::from(negative);
        match sum {
            _ if float || digits == 0 || digits > 19 => self.parse_number(start, float),
            v if !negative => Ok(Number::U64(v)),
            v if v <= 1 << 63 => Ok(Number::I64((v as i64).wrapping_neg())),
            _ => self.parse_number(start, float),
        }
    }

    /// Classifies the number token from `start` that is not a plain
    /// integer in range: a float, or an integer past `u64` (past `i64`,
    /// if negative), which reads as a float.
    fn parse_number(&self, start: usize, float: bool) -> Result<Number, Error> {
        let text = &self.text[start..self.pos];
        let number = if float {
            text.parse().ok().map(Number::F64)
        } else if let Some(digits) = text.strip_prefix('-') {
            digits
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse().ok())
                .map(Number::I64)
                .or_else(|| text.parse().ok().map(Number::F64))
        } else {
            text.parse()
                .ok()
                .map(Number::U64)
                .or_else(|| text.parse().ok().map(Number::F64))
        };
        number.ok_or_else(|| self.error(format!("invalid number `{text}`")))
    }
}

/// What a struct field or tuple element absent from the input reads as:
/// `null`, so an `Option` becomes `None` and other types fail.
pub fn missing<T: Deserialize>() -> Result<T, Error> {
    T::deserialize(&mut Reader::new("null"))
}

impl Serialize for Value {
    fn serialize(&self, out: &mut Writer<'_>) {
        match self {
            Value::Null => out.null(),
            Value::Bool(b) => out.bool(*b),
            Value::U64(u) => out.u64(*u),
            Value::I64(i) => out.i64(*i),
            Value::F64(f) => out.f64(*f),
            Value::Str(s) => out.str(s),
            Value::Array(elems) => elems.serialize(out),
            Value::Object(entries) => {
                out.begin_object();
                for (key, value) in entries {
                    out.field(key, value);
                }
                out.end_object();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match input.peek() {
            Some(b'n') => {
                input.literal("null")?;
                Value::Null
            }
            Some(b't' | b'f') => Value::Bool(input.bool()?),
            Some(b'"') => Value::Str(input.str()?.into_owned()),
            Some(b'[') => {
                input.begin_array()?;
                let mut elems = Vec::new();
                while input.next_element()? {
                    elems.push(Value::deserialize(input)?);
                }
                Value::Array(elems)
            }
            Some(b'{') => {
                input.begin_object()?;
                let mut entries = Vec::new();
                while let Some(key) = input.next_key()? {
                    entries.push((key.into_owned(), Value::deserialize(input)?));
                }
                Value::Object(entries)
            }
            Some(b'-' | b'0'..=b'9') => match input.number()? {
                Number::U64(u) => Value::U64(u),
                Number::I64(i) => Value::I64(i),
                Number::F64(f) => Value::F64(f),
            },
            _ => return Err(input.error("unexpected byte")),
        })
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize(&self, out: &mut Writer<'_>) {
                out.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
                let wide = match input.number()? {
                    Number::U64(u) => u,
                    Number::I64(i) if i >= 0 => i as u64,
                    _ => {
                        return Err(input.error(concat!(
                            "expected unsigned integer for ",
                            stringify!($t)
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| input.error(concat!("integer out of range for ", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize(&self, out: &mut Writer<'_>) {
                out.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
                let out_of_range =
                    |input: &Reader<'_>| input.error(concat!("integer out of range for ", stringify!($t)));
                let wide = match input.number()? {
                    Number::U64(u) => i64::try_from(u).map_err(|_| out_of_range(input))?,
                    Number::I64(i) => i,
                    Number::F64(_) => {
                        return Err(input.error(concat!("expected integer for ", stringify!($t))))
                    }
                };
                <$t>::try_from(wide).map_err(|_| out_of_range(input))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            #[inline]
            fn serialize(&self, out: &mut Writer<'_>) {
                out.f64(*self as f64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
                let wide = match input.number()? {
                    Number::U64(u) => u as f64,
                    Number::I64(i) => i as f64,
                    Number::F64(f) => f,
                };
                Ok(wide as $t)
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    #[inline]
    fn serialize(&self, out: &mut Writer<'_>) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    #[inline]
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        input.bool()
    }
}

impl Serialize for String {
    #[inline]
    fn serialize(&self, out: &mut Writer<'_>) {
        out.str(self);
    }
}

impl Deserialize for String {
    #[inline]
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        input.str().map(Cow::into_owned)
    }
}

impl Serialize for str {
    #[inline]
    fn serialize(&self, out: &mut Writer<'_>) {
        out.str(self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    #[inline]
    fn serialize(&self, out: &mut Writer<'_>) {
        (**self).serialize(out);
    }
}

impl<T: Serialize> Serialize for [T] {
    #[inline]
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_array();
        for elem in self {
            out.element(elem);
        }
        out.end_array();
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    #[inline]
    fn serialize(&self, out: &mut Writer<'_>) {
        self.as_slice().serialize(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    #[inline]
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        input.begin_array()?;
        let mut elems = Vec::new();
        while input.next_element()? {
            elems.push(T::deserialize(input)?);
        }
        Ok(elems)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    #[inline]
    fn serialize(&self, out: &mut Writer<'_>) {
        self.as_slice().serialize(out);
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    #[inline]
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_array();
        for elem in self {
            out.element(elem);
        }
        out.end_array();
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    #[inline]
    fn serialize(&self, out: &mut Writer<'_>) {
        out.begin_object();
        for (key, value) in self {
            out.field(key, value);
        }
        out.end_object();
    }
}

/// A repeated key keeps its last value.
impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    #[inline]
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        input.begin_object()?;
        let mut map = BTreeMap::new();
        while let Some(key) = input.next_key()? {
            map.insert(key.into_owned(), V::deserialize(input)?);
        }
        Ok(map)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    #[inline]
    fn serialize(&self, out: &mut Writer<'_>) {
        match self {
            Some(inner) => inner.serialize(out),
            None => out.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    #[inline]
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
        if input.null()? {
            Ok(None)
        } else {
            T::deserialize(input).map(Some)
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            #[inline]
            fn serialize(&self, out: &mut Writer<'_>) {
                out.begin_array();
                $(out.element(&self.$idx);)+
                out.end_array();
            }
        }
        /// Missing elements read as `null`; extra ones are skipped.
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            #[inline]
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, Error> {
                input.begin_array()?;
                let mut open = true;
                let tuple = ($(input.tuple_element::<$name>(&mut open)?,)+);
                input.end_tuple(open)?;
                Ok(tuple)
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = Vec::new();
        let mut w = Writer::compact(&mut out);
        value.serialize(&mut w);
        w.finish().expect("finite");
        String::from_utf8(out).expect("UTF-8")
    }

    fn read<T: Deserialize>(text: &str) -> Result<T, Error> {
        let mut r = Reader::new(text);
        let value = T::deserialize(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(write(&42u64), "42");
        assert_eq!(write(&-3i64), "-3");
        assert_eq!(read::<u64>("7"), Ok(7));
        assert_eq!(read::<i32>("-9"), Ok(-9));
        assert_eq!(read::<f64>("3"), Ok(3.0));
        assert!(read::<u8>("300").is_err());
        assert_eq!(read::<u8>("-0"), Ok(0));
        assert!(read::<u64>("1.0").is_err());
    }

    #[test]
    fn numbers_classify_by_their_token() {
        let cases = [
            ("0", Value::U64(0)),
            ("9999999999999999999", Value::U64(9_999_999_999_999_999_999)),
            ("18446744073709551615", Value::U64(u64::MAX)),
            ("00000000000000000001", Value::U64(1)),
            (
                "18446744073709551616",
                Value::F64(18_446_744_073_709_551_616.0),
            ),
            ("-0", Value::I64(0)),
            ("-9223372036854775808", Value::I64(i64::MIN)),
            (
                "-9223372036854775809",
                Value::F64(-9_223_372_036_854_775_809.0),
            ),
            ("1.0", Value::F64(1.0)),
            ("1e3", Value::F64(1000.0)),
            ("2.", Value::F64(2.0)),
            ("1e400", Value::F64(f64::INFINITY)),
        ];
        for (text, value) in cases {
            assert_eq!(read::<Value>(text), Ok(value), "{text}");
        }
        for bad in ["-", "1e", "1-2", "--1", "1.2.3", "+1", ".5"] {
            assert!(read::<Value>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn containers_round_trip() {
        assert_eq!(write(&vec![1u64, 2, 3]), "[1,2,3]");
        assert_eq!(read::<Vec<u64>>(" [ 1 , 2,3 ] "), Ok(vec![1, 2, 3]));
        assert_eq!(write(&(1u64, -2i64)), "[1,-2]");
        assert_eq!(read::<(u64, i64)>("[1,-2]"), Ok((1, -2)));
        assert_eq!(read::<Option<u64>>("null"), Ok(None));
        assert_eq!(write(&Some(5u64)), "5");
    }

    #[test]
    fn tuples_null_fill_and_skip_extra_elements() {
        assert_eq!(read::<(u64, Option<u64>)>("[1]"), Ok((1, None)));
        assert!(read::<(u64, u64)>("[1]").is_err());
        assert_eq!(read::<(u64,)>("[1,[2,{\"a\":3}],4]"), Ok((1,)));
        assert!(read::<(u64,)>("[1,[2,]]").is_err());
    }

    #[test]
    fn missing_fields_read_as_null() {
        let obj = vec![("a".to_owned(), Value::U64(1))];
        assert_eq!(get_field(&obj, "a"), &Value::U64(1));
        assert_eq!(get_field(&obj, "b"), &Value::Null);
        assert_eq!(missing::<Option<u64>>(), Ok(None));
        assert!(missing::<u64>().is_err());
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new(r#""plain" "es\"caped""#);
        assert!(matches!(r.str(), Ok(Cow::Borrowed("plain"))));
        assert!(matches!(r.str(), Ok(Cow::Owned(s)) if s == "es\"caped"));
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(read::<Value>(&ok).is_ok());
        let deep = format!("[{ok}]");
        assert!(read::<Value>(&deep).is_err());
        let mut r = Reader::new(&deep);
        assert!(r.skip_value().is_err());
    }
}
