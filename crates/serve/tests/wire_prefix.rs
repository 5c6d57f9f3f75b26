//! Every-prefix truncation property of the frame decoder, over one frame
//! per protocol message variant.
//!
//! A strict prefix of a frame must read as "need more bytes" and, if the
//! stream ends there, as a typed truncation that says exactly how many
//! bytes were buffered and how many were still missing. The same decoder
//! must then yield the message once the rest arrives. Streams of
//! back-to-back frames must decode to the same messages however they are
//! split, which exercises the decoder's read cursor and the compaction
//! on the next push.

use std::fmt::Debug;

use mpsoc_sched::{KernelId, ModelTable, RejectReason};
use mpsoc_serve::wire::HEADER_LEN;
use mpsoc_serve::{
    encode, ClientScript, Daemon, DecodeError, Decoder, Fleet, FleetConfig, PlacementPolicy,
    Request, Response,
};
use serde::{Deserialize, Serialize};

fn requests() -> Vec<Request> {
    vec![
        Request::SubmitJob {
            client_job: 7,
            kernel: KernelId::Axpby,
            n: 4096,
            deadline: 90_000,
        },
        Request::GetStats,
    ]
}

/// One response per variant and per rejection reason; the `Stats`
/// answer comes from a daemon that served and rejected real jobs.
fn responses() -> Vec<Response> {
    let mut daemon = Daemon::new(Fleet::analytic(
        FleetConfig {
            shards: 2,
            clusters_per_shard: 2,
            queue_limit: 1,
            placement: PlacementPolicy::LeastLoaded,
            steal: true,
            redirect_budget: 0,
            failover: false,
        },
        &ModelTable::paper_defaults(),
    ));
    let mut script = ClientScript::new();
    for i in 0..12 {
        script.submit_at(0, i, KernelId::Daxpy, 2048, 60_000);
    }
    daemon.run(&[script]).expect("run");
    let report = daemon.stats_report(5_000);
    assert!(report.slo.rejected > 0 && report.slo.completed > 0);

    let mut out = vec![Response::JobAccepted {
        client_job: 1,
        shard: 3,
    }];
    out.extend(
        [
            RejectReason::Infeasible,
            RejectReason::NotEnoughClusters { required: 9 },
            RejectReason::ProgramLint { errors: 2 },
            RejectReason::DegradedMachine {
                required: 4,
                healthy: 1,
            },
            RejectReason::StaticInfeasible { best: 812 },
            RejectReason::QueueFull { depth: 32 },
        ]
        .into_iter()
        .map(|reason| Response::JobRejected {
            client_job: 2,
            reason,
        }),
    );
    out.push(Response::JobComplete {
        client_job: 3,
        shard: 1,
        start: 100,
        finish: 2_345,
        on_host: true,
        deadline_met: false,
        retries: 2,
    });
    out.push(Response::Stats { report });
    out
}

/// Checks every strict prefix of `msg`'s frame, then the whole frame.
fn every_prefix<T>(msg: &T)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let frame = encode(msg);
    let len = frame.len();
    for i in 1..len {
        let mut dec = Decoder::new();
        dec.push(&frame[..i]);
        assert_eq!(dec.next_message::<T>(), Ok(None), "prefix {i} of {len}");
        assert_eq!(dec.buffered(), i);
        let missing = if i < HEADER_LEN {
            HEADER_LEN - i
        } else {
            len - i
        };
        assert_eq!(
            dec.finish(),
            Err(DecodeError::Truncated {
                buffered: i,
                missing,
            }),
            "prefix {i} of {len}"
        );
        // The rest completes the frame in the same decoder.
        dec.push(&frame[i..]);
        let got = dec.next_message::<T>().expect("complete frame");
        assert_eq!(
            got.as_ref(),
            Some(msg),
            "prefix {i} of {len}, then the rest"
        );
        assert_eq!(dec.buffered(), 0);
        assert_eq!(dec.finish(), Ok(()));
    }
    let mut dec = Decoder::new();
    dec.push(&frame);
    let got = dec.next_message::<T>().expect("complete frame");
    assert_eq!(got.as_ref(), Some(msg));
    assert_eq!(dec.next_message::<T>(), Ok(None));
    assert_eq!(dec.finish(), Ok(()));
}

/// Pushes `pieces` one after another, popping every complete message
/// after each push.
fn decode_pieces<'a, T: Deserialize>(pieces: impl IntoIterator<Item = &'a [u8]>) -> Vec<T> {
    let mut dec = Decoder::new();
    let mut got = Vec::new();
    for piece in pieces {
        dec.push(piece);
        while let Some(m) = dec.next_message::<T>().expect("well-formed stream") {
            got.push(m);
        }
    }
    assert_eq!(dec.finish(), Ok(()));
    got
}

/// Back-to-back frames decode to the same messages when the stream is
/// split at every byte boundary and when it arrives byte by byte.
fn every_split<T>(msgs: &[T])
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let stream: Vec<u8> = msgs.iter().flat_map(encode).collect();
    for k in 0..=stream.len() {
        let (head, tail) = stream.split_at(k);
        assert_eq!(decode_pieces::<T>([head, tail]), msgs, "split at {k}");
    }
    assert_eq!(decode_pieces::<T>(stream.chunks(1)), msgs);
}

#[test]
fn every_strict_prefix_of_every_request_frame_waits_for_more() {
    for msg in requests() {
        every_prefix(&msg);
    }
}

#[test]
fn every_strict_prefix_of_every_response_frame_waits_for_more() {
    for msg in responses() {
        every_prefix(&msg);
    }
}

#[test]
fn request_streams_decode_the_same_however_they_are_split() {
    every_split(&requests());
}

#[test]
fn response_streams_decode_the_same_however_they_are_split() {
    every_split(&responses());
}

/// A caller that stops popping early leaves whole frames buffered. The
/// stream still ended on a frame boundary, so `finish` reports nothing
/// cut off, however many frames wait; the frames stay poppable after it.
#[test]
fn finish_with_complete_frames_unread_is_clean() {
    let msgs = requests();
    let stream: Vec<u8> = msgs.iter().flat_map(encode).collect();
    for unread in 1..=msgs.len() {
        let mut dec = Decoder::new();
        dec.push(&stream);
        let popped = msgs.len() - unread;
        for &msg in &msgs[..popped] {
            assert_eq!(dec.next_message::<Request>(), Ok(Some(msg)));
        }
        assert_eq!(dec.finish(), Ok(()), "{unread} frame(s) unread");
        for &msg in &msgs[popped..] {
            assert_eq!(dec.next_message::<Request>(), Ok(Some(msg)));
        }
        assert_eq!(dec.finish(), Ok(()));
    }
}

/// Whole frames followed by a cut-off one: `finish` reports the cut-off
/// frame alone, with the same counts as if it were the only frame.
#[test]
fn finish_behind_complete_frames_reports_only_the_cut_off_frame() {
    let whole: Vec<u8> = requests().iter().flat_map(encode).collect();
    let last = encode(&requests()[0]);
    for i in 1..last.len() {
        let mut dec = Decoder::new();
        dec.push(&whole);
        dec.push(&last[..i]);
        let missing = if i < HEADER_LEN {
            HEADER_LEN - i
        } else {
            last.len() - i
        };
        assert_eq!(
            dec.finish(),
            Err(DecodeError::Truncated {
                buffered: i,
                missing,
            }),
            "two whole frames, then {i} of {} bytes",
            last.len()
        );
    }
}
