//! The serving daemon: one event loop multiplexing many client sessions
//! over in-process duplex pipes onto the shard fleet.
//!
//! A client is a *script* — a list of `(virtual time, Request)` sends,
//! non-decreasing in time — because determinism is the contract: the
//! same scripts against the same fleet seed must produce byte-identical
//! response streams. The loop merges all clients' sends into one global
//! time order (ties broken by session index, then send order), moves the
//! encoded bytes through each session's [`Duplex`], decodes frames
//! incrementally, and drives the fleet:
//!
//! - `SubmitJob` → [`Fleet::submit`] at the send's virtual time; the
//!   verdict returns immediately as `JobAccepted` / `JobRejected`.
//! - Completions surface whenever the fleet advances; each becomes a
//!   `JobComplete` at its finish time, delivered to the session that
//!   submitted the job.
//!
//! Responses are timestamped and globally ordered before framing, so a
//! session's outbound stream is in virtual-time order even though
//! completions are discovered lazily. The daemon never blocks: clients
//! that send garbage get a typed [`ServeError::Decode`] naming their
//! session, not a hang.

use std::fmt;
use std::ops::Range;

use mpsoc_sched::{JobOutcome, SchedError, ShardDecision};

use crate::fleet::Fleet;
use crate::proto::{Request, Response, StatsReport};
use crate::slo::FleetSlo;
use crate::transport::Duplex;
use crate::wire::{encode_into, DecodeError, Decoder};

/// One scripted client session: timed protocol sends.
#[derive(Debug, Clone, Default)]
pub struct ClientScript {
    /// `(virtual time, request)` pairs, non-decreasing in time
    /// ([`Daemon::run`] refuses a script that is not).
    pub sends: Vec<(u64, Request)>,
}

impl ClientScript {
    /// An empty script.
    pub fn new() -> Self {
        ClientScript::default()
    }

    /// Appends a submission at `time`.
    pub fn submit_at(
        &mut self,
        time: u64,
        client_job: u64,
        kernel: mpsoc_sched::KernelId,
        n: u64,
        deadline: u64,
    ) -> &mut Self {
        self.sends.push((
            time,
            Request::SubmitJob {
                client_job,
                kernel,
                n,
                deadline,
            },
        ));
        self
    }

    /// Appends a live-statistics poll at `time`.
    pub fn poll_stats_at(&mut self, time: u64) -> &mut Self {
        self.sends.push((time, Request::GetStats));
        self
    }
}

/// What one serving run produced for one session.
#[derive(Debug, Clone, Default)]
pub struct SessionLog {
    /// The framed response byte stream (decode with
    /// [`SessionLog::responses`]).
    pub outbound: Vec<u8>,
}

impl SessionLog {
    /// Decodes the outbound stream back into typed responses.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the stream is corrupt (a daemon bug, not a
    /// client condition).
    pub fn responses(&self) -> Result<Vec<Response>, DecodeError> {
        let mut dec = Decoder::new();
        dec.push(&self.outbound);
        let mut out = Vec::new();
        while let Some(r) = dec.next_message::<Response>()? {
            out.push(r);
        }
        dec.finish()?;
        Ok(out)
    }
}

/// Daemon failure: a scheduling error, a client's undecodable bytes, or
/// a client script that goes back in time.
#[derive(Debug)]
pub enum ServeError {
    /// The fleet failed (service backend error, stalled session).
    Sched(SchedError),
    /// A session's inbound byte stream failed to decode.
    Decode {
        /// Which session sent the bytes.
        session: usize,
        /// What was wrong with them.
        error: DecodeError,
    },
    /// A client script is not ordered by time.
    ScriptOrder {
        /// Which session's script.
        session: usize,
        /// Index of the first send earlier than the one before it.
        send: usize,
        /// That send's virtual time.
        at: u64,
        /// The virtual time of the send before it.
        after: u64,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Sched(e) => write!(f, "fleet error: {e}"),
            ServeError::Decode { session, error } => {
                write!(f, "session {session}: {error}")
            }
            ServeError::ScriptOrder {
                session,
                send,
                at,
                after,
            } => write!(
                f,
                "session {session}: send {send} at time {at} comes after a send at time {after}"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sched(e) => Some(e),
            ServeError::Decode { error, .. } => Some(error),
            ServeError::ScriptOrder { .. } => None,
        }
    }
}

impl From<SchedError> for ServeError {
    fn from(e: SchedError) -> Self {
        ServeError::Sched(e)
    }
}

/// The serving daemon: fleet + per-session transports.
pub struct Daemon {
    fleet: Fleet,
}

impl Daemon {
    /// A daemon over `fleet`.
    pub fn new(fleet: Fleet) -> Self {
        Daemon { fleet }
    }

    /// The fleet (for SLO summaries after a run).
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// Runs the scripts to completion and returns one [`SessionLog`] per
    /// script (same order).
    ///
    /// # Errors
    ///
    /// [`ServeError`] on fleet failures, undecodable client bytes, or a
    /// script that is not ordered by time (checked before anything
    /// runs).
    pub fn run(&mut self, scripts: &[ClientScript]) -> Result<Vec<SessionLog>, ServeError> {
        let _prof = mpsoc_sim::profile::scope("serve.daemon.run");
        // Merge all sends into (time, session, send index) order.
        let mut events: Vec<(u64, usize, usize)> = Vec::new();
        for (session, script) in scripts.iter().enumerate() {
            if let Some(i) = script.sends.windows(2).position(|w| w[0].0 > w[1].0) {
                return Err(ServeError::ScriptOrder {
                    session,
                    send: i + 1,
                    at: script.sends[i + 1].0,
                    after: script.sends[i].0,
                });
            }
            for (idx, &(t, _)) in script.sends.iter().enumerate() {
                events.push((t, session, idx));
            }
        }
        // (time, session, index) is unique, so the unstable sort is exact.
        events.sort_unstable();

        let mut pipes: Vec<Duplex> = scripts.iter().map(|_| Duplex::new()).collect();
        let mut decoders: Vec<Decoder> = scripts.iter().map(|_| Decoder::new()).collect();
        // The daemon's private mapping from fleet identity to wire
        // identity: fleet job ids are sequential, so the job with id
        // `first_job + i` came from `origin[i]` (`None` for a rejection).
        let first_job = self.fleet.submitted();
        let mut origin: Vec<Option<(usize, u64)>> = Vec::new();
        let mut outbox = Outbox::default();
        // Records resolved before this run were answered by earlier runs.
        let mut collected = self.fleet.completed().len();
        let mut frame = Vec::new();

        for (t, session, idx) in events {
            // The "wire": the client's encoded frame crosses its pipe
            // now; the daemon drains and decodes incrementally.
            let (_, request) = scripts[session].sends[idx];
            frame.clear();
            encode_into(&mut frame, &request);
            pipes[session].client_send(&frame);
            let inbound = pipes[session].server_drain();
            decoders[session].push(&inbound);
            loop {
                let decoded = decoders[session]
                    .next_message::<Request>()
                    .map_err(|error| ServeError::Decode { session, error })?;
                let Some(decoded) = decoded else {
                    break;
                };
                match decoded {
                    Request::SubmitJob {
                        client_job,
                        kernel,
                        n,
                        deadline,
                    } => {
                        debug_assert_eq!(self.fleet.submitted(), first_job + origin.len() as u64);
                        let (shard, decision) = self.fleet.submit(kernel, n, deadline, t)?;
                        let verdict = match decision {
                            ShardDecision::Queued { .. } | ShardDecision::Host { .. } => {
                                origin.push(Some((session, client_job)));
                                Response::JobAccepted { client_job, shard }
                            }
                            ShardDecision::Rejected { reason } => {
                                origin.push(None);
                                Response::JobRejected { client_job, reason }
                            }
                        };
                        outbox.emit(t, session, &verdict);
                        // Completions the submit's advance uncovered.
                        Self::collect_completions(
                            &self.fleet,
                            &mut collected,
                            first_job,
                            &origin,
                            &mut outbox,
                        );
                    }
                    // Stats polls are read-only: they snapshot the fleet
                    // *as of the last submission's advance* and never
                    // move virtual time, touch placement state, or
                    // trigger stealing — so a job stream replays
                    // byte-identically with or without polls.
                    Request::GetStats => {
                        let report = self.stats_report(t);
                        outbox.emit(t, session, &Response::Stats { report });
                    }
                }
            }
        }

        self.fleet.drain()?;
        Self::collect_completions(&self.fleet, &mut collected, first_job, &origin, &mut outbox);
        outbox.deliver(&mut pipes);
        Ok(pipes
            .into_iter()
            .map(|mut p| SessionLog {
                outbound: p.client_drain(),
            })
            .collect())
    }

    /// A [`StatsReport`] snapshot of the fleet as it stands, stamped
    /// with virtual time `time`. Read-only: building a report never
    /// advances the fleet, so it is safe to call mid-run (it is exactly
    /// what [`Request::GetStats`] gets) or after a drain.
    pub fn stats_report(&self, time: u64) -> StatsReport {
        let slo = FleetSlo::from_fleet(&self.fleet);
        let view = self.fleet.fleet_view();
        let counters: Vec<(String, u64)> = view
            .stats()
            .counters()
            .map(|(name, value)| (name.to_owned(), value))
            .collect();
        let reject_reasons = counters
            .iter()
            .filter_map(|(name, value)| {
                name.strip_prefix("serve.reject.")
                    .map(|kind| (kind.to_owned(), *value))
            })
            .collect();
        StatsReport {
            time,
            slo,
            reject_reasons,
            counters,
        }
    }

    /// Emits `JobComplete` for fleet records not yet reported; jobs
    /// submitted before `first_job` belong to no session of this run.
    fn collect_completions(
        fleet: &Fleet,
        collected: &mut usize,
        first_job: u64,
        origin: &[Option<(usize, u64)>],
        outbox: &mut Outbox,
    ) {
        let records = fleet.completed();
        while *collected < records.len() {
            let fr = &records[*collected];
            *collected += 1;
            let (start, finish, on_host) = match fr.record.outcome {
                JobOutcome::Offloaded { start, finish, .. } => (start, finish, false),
                JobOutcome::Host { start, finish } => (start, finish, true),
                // Rejections were answered at submit time.
                JobOutcome::Rejected { .. } => continue,
            };
            let Some(&Some((session, client_job))) = fr
                .record
                .job
                .id
                .checked_sub(first_job)
                .and_then(|i| origin.get(i as usize))
            else {
                continue;
            };
            outbox.emit(
                finish,
                session,
                &Response::JobComplete {
                    client_job,
                    shard: fr.shard,
                    start,
                    finish,
                    on_host,
                    deadline_met: !fr.record.missed_deadline(),
                    retries: fr.record.retries,
                },
            );
        }
    }
}

/// One run's responses, each framed once when it is emitted into a
/// shared byte arena and delivered at the end in global virtual-time
/// order, so each session's stream is time-sorted even though
/// completions are discovered lazily.
#[derive(Default)]
struct Outbox {
    arena: Vec<u8>,
    /// `(virtual time, emit sequence, session, frame's place in arena)`.
    keys: Vec<(u64, u64, usize, Range<usize>)>,
}

impl Outbox {
    fn emit(&mut self, time: u64, session: usize, response: &Response) {
        let start = self.arena.len();
        encode_into(&mut self.arena, response);
        let seq = self.keys.len() as u64;
        self.keys
            .push((time, seq, session, start..self.arena.len()));
    }

    /// Copies every frame into its session's pipe, ordered by (virtual
    /// time, emit sequence). The pair is unique, so the unstable sort
    /// yields the one order a stable sort by time would.
    fn deliver(mut self, pipes: &mut [Duplex]) {
        self.keys
            .sort_unstable_by_key(|&(time, seq, ..)| (time, seq));
        for (_, _, session, frame) in self.keys {
            pipes[session].server_send(&self.arena[frame]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, PlacementPolicy};
    use crate::wire::encode;
    use mpsoc_sched::{KernelId, ModelTable, RejectReason};

    fn daemon(shards: usize, queue_limit: usize) -> Daemon {
        Daemon::new(Fleet::analytic(
            FleetConfig {
                shards,
                clusters_per_shard: 2,
                queue_limit,
                placement: PlacementPolicy::LeastLoaded,
                steal: true,
                redirect_budget: 0,
                failover: false,
            },
            &ModelTable::paper_defaults(),
        ))
    }

    #[test]
    fn out_of_order_script_is_a_typed_error_naming_the_send() {
        let mut ordered = ClientScript::new();
        ordered.submit_at(0, 1, KernelId::Daxpy, 1024, 100_000);
        let mut late = ClientScript::new();
        late.submit_at(50, 1, KernelId::Daxpy, 1024, 100_000);
        late.submit_at(70, 2, KernelId::Daxpy, 1024, 100_000);
        late.submit_at(60, 3, KernelId::Daxpy, 1024, 100_000);
        let mut d = daemon(2, 8);
        let err = d
            .run(&[ordered, late])
            .expect_err("script 1 goes back in time");
        assert!(matches!(
            err,
            ServeError::ScriptOrder {
                session: 1,
                send: 2,
                at: 60,
                after: 70
            }
        ));
        assert_eq!(
            err.to_string(),
            "session 1: send 2 at time 60 comes after a send at time 70"
        );
        // Nothing ran: the fleet saw no job.
        assert_eq!(d.fleet().submitted(), 0);
    }

    #[test]
    fn one_client_gets_accept_then_complete() {
        let mut script = ClientScript::new();
        script.submit_at(0, 77, KernelId::Daxpy, 1024, 100_000);
        let logs = daemon(2, 8).run(&[script]).expect("run");
        let responses = logs[0].responses().expect("decode");
        assert_eq!(responses.len(), 2);
        assert!(matches!(
            responses[0],
            Response::JobAccepted { client_job: 77, .. }
        ));
        match &responses[1] {
            Response::JobComplete {
                client_job,
                deadline_met,
                on_host,
                finish,
                ..
            } => {
                assert_eq!(*client_job, 77);
                assert!(deadline_met);
                assert!(!on_host);
                assert!(*finish > 0);
            }
            other => panic!("expected JobComplete, got {other:?}"),
        }
    }

    #[test]
    fn sessions_are_isolated_and_complete_in_time_order() {
        let mut a = ClientScript::new();
        a.submit_at(0, 1, KernelId::Daxpy, 4096, 1_000_000);
        a.submit_at(10, 2, KernelId::Daxpy, 1024, 1_000_000);
        let mut b = ClientScript::new();
        b.submit_at(5, 1, KernelId::Daxpy, 256, 1_000_000);
        let logs = daemon(2, 8).run(&[a, b]).expect("run");
        let ra = logs[0].responses().expect("decode");
        let rb = logs[1].responses().expect("decode");
        // Each session sees only its own jobs, accepts and completes.
        assert_eq!(ra.len(), 4);
        assert_eq!(rb.len(), 2);
        assert!(rb.iter().all(|r| r.client_job() == Some(1)));
        // Outbound streams are time-ordered: completions carry finish
        // times; every accept precedes its job's completion.
        let complete_pos = |rs: &[Response], cj: u64| {
            rs.iter()
                .position(
                    |r| matches!(r, Response::JobComplete { client_job, .. } if *client_job == cj),
                )
                .expect("completion present")
        };
        let accept_pos = |rs: &[Response], cj: u64| {
            rs.iter()
                .position(
                    |r| matches!(r, Response::JobAccepted { client_job, .. } if *client_job == cj),
                )
                .expect("accept present")
        };
        assert!(accept_pos(&ra, 1) < complete_pos(&ra, 1));
        assert!(accept_pos(&ra, 2) < complete_pos(&ra, 2));
    }

    #[test]
    fn backpressure_surfaces_as_job_rejected() {
        let mut script = ClientScript::new();
        for i in 0..20 {
            script.submit_at(0, i, KernelId::Daxpy, 4096, 1_000_000);
        }
        let logs = daemon(1, 2).run(&[script]).expect("run");
        let responses = logs[0].responses().expect("decode");
        let rejected = responses
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Response::JobRejected {
                        reason: RejectReason::QueueFull { .. },
                        ..
                    }
                )
            })
            .count();
        assert!(rejected > 0, "saturation must reject over the wire");
        let accepted = responses
            .iter()
            .filter(|r| matches!(r, Response::JobAccepted { .. }))
            .count();
        let completed = responses
            .iter()
            .filter(|r| matches!(r, Response::JobComplete { .. }))
            .count();
        assert_eq!(accepted, completed, "every accepted job completes");
        assert_eq!(accepted + rejected, 20);
    }

    #[test]
    fn daemon_runs_are_byte_identical() {
        let scripts = || {
            let mut a = ClientScript::new();
            let mut b = ClientScript::new();
            for i in 0..30u64 {
                a.submit_at(i * 100, i, KernelId::Daxpy, 256 << (i % 4), 50_000);
                b.submit_at(i * 130, i, KernelId::Daxpy, 512 << (i % 3), 80_000);
            }
            vec![a, b]
        };
        let run = || daemon(3, 4).run(&scripts()).expect("run");
        let x = run();
        let y = run();
        assert_eq!(x.len(), y.len());
        for (lx, ly) in x.iter().zip(&y) {
            assert_eq!(lx.outbound, ly.outbound, "byte-identical replay");
        }
    }

    #[test]
    fn stats_polls_do_not_perturb_virtual_time() {
        // The same job stream, with and without interleaved GetStats
        // polls, must produce byte-identical job responses: polls are
        // read-only and never advance the fleet.
        let script = |with_polls: bool| {
            let mut s = ClientScript::new();
            for i in 0..20u64 {
                s.submit_at(i * 80, i, KernelId::Daxpy, 256 << (i % 4), 40_000);
                if with_polls && i % 3 == 0 {
                    s.poll_stats_at(i * 80);
                }
            }
            s
        };
        let run = |with_polls: bool| {
            let logs = daemon(2, 4).run(&[script(with_polls)]).expect("run");
            logs[0].responses().expect("decode")
        };
        let plain = run(false);
        let polled = run(true);
        let polls = polled
            .iter()
            .filter(|r| matches!(r, Response::Stats { .. }))
            .count();
        assert_eq!(polls, 7, "each GetStats is answered");
        let job_only: Vec<Response> = polled
            .into_iter()
            .filter(|r| r.client_job().is_some())
            .collect();
        // Byte-identity, not just structural equality: re-encode both
        // job-response streams and compare the frames.
        let enc = |rs: &[Response]| -> Vec<u8> { rs.iter().flat_map(encode).collect() };
        assert_eq!(enc(&job_only), enc(&plain));
    }

    #[test]
    fn stats_poll_after_drain_matches_fleet_slo_exactly() {
        use crate::slo::FleetSlo;
        let mut d = daemon(2, 4);
        let mut jobs = ClientScript::new();
        for i in 0..25u64 {
            jobs.submit_at(i * 60, i, KernelId::Daxpy, 512 << (i % 3), 30_000);
        }
        d.run(&[jobs]).expect("first batch");
        // Second batch: a lone poll against the drained fleet. Its
        // report must equal a direct FleetSlo summary, field for field.
        let mut poll = ClientScript::new();
        poll.poll_stats_at(2_000);
        let logs = d.run(&[poll]).expect("poll batch");
        let responses = logs[0].responses().expect("decode");
        assert_eq!(responses.len(), 1);
        let Response::Stats { report } = &responses[0] else {
            panic!("expected Stats, got {:?}", responses[0]);
        };
        let direct = FleetSlo::from_fleet(d.fleet());
        assert_eq!(report.slo, direct);
        assert_eq!(report.slo.p50, direct.p50);
        assert_eq!(report.slo.p99, direct.p99);
        assert_eq!(report.time, 2_000);
        // Counters in the report are name-sorted and include the
        // per-reason rejection family when rejections happened.
        assert!(report.counters.windows(2).all(|w| w[0].0 < w[1].0));
        let rejected = report
            .counters
            .iter()
            .find(|(k, _)| k == "serve.rejected")
            .map_or(0, |(_, v)| *v);
        let by_reason: u64 = report.reject_reasons.iter().map(|(_, v)| v).sum();
        assert_eq!(by_reason, rejected, "reason breakdown sums to total");
    }
}
