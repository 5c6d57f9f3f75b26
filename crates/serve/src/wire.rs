//! Length-prefixed binary framing for the job protocol.
//!
//! Frame grammar (all multi-byte integers little-endian):
//!
//! ```text
//! frame   := magic version length payload
//! magic   := 0x4D 0x4A                ; "MJ"
//! version := u8                       ; PROTOCOL_VERSION (currently 3)
//! length  := u32                      ; payload byte count, ≤ MAX_PAYLOAD
//! payload := length bytes of UTF-8 JSON (one Request or Response)
//! ```
//!
//! The codec is *incremental*: a [`Decoder`] accepts arbitrary byte
//! slices (as a stream transport would deliver them), buffers partial
//! frames, and yields complete messages as they materialize. Every
//! malformed input maps to a typed [`DecodeError`] — bad magic, unknown
//! version, oversized length, truncated stream, undecodable payload —
//! so a serving daemon can tell a confused client apart from a torn
//! connection.

use std::fmt;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::proto::PROTOCOL_VERSION;

/// Frame preamble: "MJ" (MPSoC Job).
pub const MAGIC: [u8; 2] = *b"MJ";

/// Header size: magic (2) + version (1) + length (4).
pub const HEADER_LEN: usize = 7;

/// Upper bound on one frame's payload. Protocol messages are a few
/// hundred bytes; anything near this bound is a corrupt or hostile
/// length field, rejected before any allocation is attempted.
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream does not start with the frame magic: not this
    /// protocol (or a desynchronized stream).
    BadMagic {
        /// The two bytes found where the magic belonged.
        found: [u8; 2],
    },
    /// The frame's version byte is not one this decoder speaks.
    UnknownVersion {
        /// The version byte found.
        found: u8,
    },
    /// The length field exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The declared payload length.
        declared: u64,
    },
    /// The stream ended mid-frame (only reported by
    /// [`Decoder::finish`]; mid-stream a partial frame just waits for
    /// more bytes).
    Truncated {
        /// Bytes of the cut-off frame that arrived.
        buffered: usize,
        /// Bytes the cut-off frame still needed.
        missing: usize,
    },
    /// The payload is not a well-formed message of the expected type.
    Malformed {
        /// The JSON decoder's description of the mismatch.
        detail: String,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic { found } => {
                write!(f, "bad frame magic {found:#04x?} (expected \"MJ\")")
            }
            DecodeError::UnknownVersion { found } => {
                write!(
                    f,
                    "unknown protocol version {found} (speak {PROTOCOL_VERSION})"
                )
            }
            DecodeError::Oversized { declared } => {
                write!(
                    f,
                    "frame declares {declared} payload bytes (cap {MAX_PAYLOAD})"
                )
            }
            DecodeError::Truncated { buffered, missing } => write!(
                f,
                "stream ended mid-frame: {buffered} byte(s) buffered, {missing} still needed"
            ),
            DecodeError::Malformed { detail } => write!(f, "malformed payload: {detail}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes one message as a complete frame.
///
/// # Panics
///
/// Panics if the message serializes to more than [`MAX_PAYLOAD`] bytes —
/// impossible for the fixed-size protocol messages, so a bug, not an
/// input condition.
pub fn encode<T: Serialize>(msg: &T) -> Vec<u8> {
    // Room for the header and a typical message, as serde_json's
    // `to_vec` starts with.
    let mut frame = Vec::with_capacity(HEADER_LEN + 128);
    encode_into(&mut frame, msg);
    frame
}

/// Appends one message's complete frame to `out` — [`encode`] without
/// the per-frame buffer, for callers that frame many messages into one.
/// The payload is written in place behind a placeholder header, whose
/// length field is filled in afterwards.
///
/// # Panics
///
/// As [`encode`].
pub(crate) fn encode_into<T: Serialize>(out: &mut Vec<u8>, msg: &T) {
    let header = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(PROTOCOL_VERSION);
    out.extend_from_slice(&[0; 4]);
    serde_json::to_writer(out, msg).expect("protocol messages contain no non-finite floats");
    let len = out.len() - header - HEADER_LEN;
    assert!(len <= MAX_PAYLOAD, "outgoing frame exceeds MAX_PAYLOAD");
    out[header + 3..header + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Decodes one payload into a typed message.
///
/// # Errors
///
/// [`DecodeError::Malformed`] when the payload is not valid UTF-8 JSON
/// of the expected shape.
fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, DecodeError> {
    let text = std::str::from_utf8(payload).map_err(|e| DecodeError::Malformed {
        detail: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| DecodeError::Malformed {
        detail: e.to_string(),
    })
}

/// An incremental frame decoder over a byte stream.
///
/// Popping a frame only advances a read cursor; the consumed prefix is
/// dropped once, by the next [`Decoder::push`]. So a frame never moves
/// the bytes buffered behind it, and a chunk holding many frames costs
/// time linear in its length.
#[derive(Debug, Default, Clone)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes in `buf`.
    pos: usize,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Appends stream bytes (any chunking, including one byte at a
    /// time).
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (a partial frame, between frames: 0).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Pops the next complete frame's payload, `Ok(None)` when the
    /// buffer holds no complete frame yet.
    ///
    /// # Errors
    ///
    /// Header-level [`DecodeError`]s (bad magic, unknown version,
    /// oversized length) as soon as the offending header bytes are
    /// visible — before waiting for the declared payload.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, DecodeError> {
        Ok(self.pop_frame()?.map(|payload| self.buf[payload].to_vec()))
    }

    /// Pops the next complete frame decoded as a typed message,
    /// `Ok(None)` when no complete frame is buffered. The payload is
    /// decoded where it lies in the buffer.
    ///
    /// # Errors
    ///
    /// Everything [`Decoder::next_frame`] reports, plus
    /// [`DecodeError::Malformed`] for undecodable payloads (the frame is
    /// consumed either way).
    pub fn next_message<T: Deserialize>(&mut self) -> Result<Option<T>, DecodeError> {
        match self.pop_frame()? {
            Some(payload) => decode_payload(&self.buf[payload]).map(Some),
            None => Ok(None),
        }
    }

    /// Validates the next frame's header and, once the whole frame is
    /// buffered, consumes it and returns its payload's place in `buf`.
    fn pop_frame(&mut self) -> Result<Option<Range<usize>>, DecodeError> {
        let rest = &self.buf[self.pos..];
        match frame_len(rest)? {
            Some(total) if rest.len() >= total => {
                let payload = self.pos + HEADER_LEN..self.pos + total;
                self.pos += total;
                Ok(Some(payload))
            }
            _ => Ok(None),
        }
    }

    /// Declares the stream ended and checks that it ended on a frame
    /// boundary. Complete frames still buffered are not an error: the
    /// stream carried them whole, and they stay poppable. Only a frame
    /// cut off mid-flight is.
    ///
    /// # Errors
    ///
    /// [`DecodeError::Truncated`] for a partial frame at the end of the
    /// stream, and the header errors [`Decoder::next_frame`] would
    /// report for a buffered frame not yet popped.
    pub fn finish(&self) -> Result<(), DecodeError> {
        let mut rest = &self.buf[self.pos..];
        while !rest.is_empty() {
            let needed = frame_len(rest)?.unwrap_or(HEADER_LEN);
            if rest.len() < needed {
                return Err(DecodeError::Truncated {
                    buffered: rest.len(),
                    missing: needed - rest.len(),
                });
            }
            rest = &rest[needed..];
        }
        Ok(())
    }
}

/// Validates the header at the start of `rest` and returns the whole
/// frame's length, `None` while the length field is incomplete.
///
/// # Errors
///
/// Header-level [`DecodeError`]s as soon as the offending bytes are
/// visible.
fn frame_len(rest: &[u8]) -> Result<Option<usize>, DecodeError> {
    if rest.len() >= 2 {
        let found = [rest[0], rest[1]];
        if found != MAGIC {
            return Err(DecodeError::BadMagic { found });
        }
    }
    if rest.len() >= 3 {
        let found = rest[2];
        if found != PROTOCOL_VERSION {
            return Err(DecodeError::UnknownVersion { found });
        }
    }
    if rest.len() < HEADER_LEN {
        return Ok(None);
    }
    let declared = u32::from_le_bytes([rest[3], rest[4], rest[5], rest[6]]) as u64;
    if declared > MAX_PAYLOAD as u64 {
        return Err(DecodeError::Oversized { declared });
    }
    Ok(Some(HEADER_LEN + declared as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Request, Response};
    use mpsoc_sched::KernelId;

    fn submit(client_job: u64) -> Request {
        Request::SubmitJob {
            client_job,
            kernel: KernelId::Daxpy,
            n: 1024,
            deadline: 9000,
        }
    }

    #[test]
    fn frames_round_trip_whole() {
        let msg = submit(3);
        let mut dec = Decoder::new();
        dec.push(&encode(&msg));
        let back: Request = dec.next_message().expect("decode").expect("one frame");
        assert_eq!(back, msg);
        assert!(dec.next_message::<Request>().expect("decode").is_none());
        dec.finish().expect("clean end");
    }

    #[test]
    fn frames_round_trip_byte_at_a_time() {
        let msg = Response::JobAccepted {
            client_job: 9,
            shard: 2,
        };
        let frame = encode(&msg);
        let mut dec = Decoder::new();
        let mut seen = None;
        for &b in &frame {
            dec.push(&[b]);
            if let Some(m) = dec.next_message::<Response>().expect("decode") {
                assert!(seen.is_none(), "only one frame in the stream");
                seen = Some(m);
            }
        }
        assert_eq!(seen, Some(msg));
    }

    #[test]
    fn back_to_back_frames_all_surface() {
        let mut dec = Decoder::new();
        let mut bytes = Vec::new();
        for i in 0..5 {
            bytes.extend_from_slice(&encode(&submit(i)));
        }
        dec.push(&bytes);
        let mut got = Vec::new();
        while let Some(m) = dec.next_message::<Request>().expect("decode") {
            got.push(m);
        }
        assert_eq!(got.len(), 5);
        assert_eq!(got[4], submit(4));
        dec.finish().expect("clean end");
    }

    #[test]
    fn bad_magic_is_rejected_immediately() {
        let mut dec = Decoder::new();
        dec.push(b"XJ rest never examined");
        match dec.next_frame() {
            Err(DecodeError::BadMagic { found }) => assert_eq!(&found, b"XJ"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn unknown_version_is_rejected_before_payload() {
        let mut dec = Decoder::new();
        dec.push(&[MAGIC[0], MAGIC[1], 99]);
        match dec.next_frame() {
            Err(DecodeError::UnknownVersion { found }) => assert_eq!(found, 99),
            other => panic!("expected UnknownVersion, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_buffering() {
        let mut dec = Decoder::new();
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC);
        header.push(PROTOCOL_VERSION);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        dec.push(&header);
        match dec.next_frame() {
            Err(DecodeError::Oversized { declared }) => {
                assert_eq!(declared, u64::from(u32::MAX));
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_stream_surfaces_at_finish() {
        let frame = encode(&submit(1));
        let mut dec = Decoder::new();
        dec.push(&frame[..frame.len() - 3]);
        assert!(dec.next_message::<Request>().expect("waiting").is_none());
        match dec.finish() {
            Err(DecodeError::Truncated { missing, .. }) => assert_eq!(missing, 3),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    /// A frame around an arbitrary payload.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(PROTOCOL_VERSION);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn malformed_payload_is_a_typed_error() {
        let mut dec = Decoder::new();
        dec.push(&frame(b"{not json"));
        match dec.next_message::<Request>() {
            Err(DecodeError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn nesting_past_the_bound_is_malformed_and_the_stream_goes_on() {
        // Nested arrays filling a whole frame: as the payload itself, and
        // under an unknown field of a submission, which the reader skips.
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let prefix = r#"{"SubmitJob":{"client_job":1,"kernel":"Daxpy","n":8,"deadline":9,"x":"#;
        let depth = (MAX_PAYLOAD - prefix.len() - 2) / 2;
        let mut in_field = format!("{prefix}{}}}}}", nest(depth));
        in_field.push_str(&" ".repeat(MAX_PAYLOAD - in_field.len()));
        for payload in [nest(MAX_PAYLOAD / 2), in_field] {
            assert_eq!(payload.len(), MAX_PAYLOAD);
            let mut dec = Decoder::new();
            dec.push(&frame(payload.as_bytes()));
            dec.push(&encode(&submit(2)));
            match dec.next_message::<Request>() {
                Err(DecodeError::Malformed { .. }) => {}
                other => panic!("expected Malformed, got {other:?}"),
            }
            assert_eq!(dec.next_message::<Request>(), Ok(Some(submit(2))));
            assert!(serde_json::from_str::<serde_json::Value>(&payload).is_err());
        }
    }
}
