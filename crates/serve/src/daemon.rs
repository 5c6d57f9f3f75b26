//! The serving daemon: one event loop multiplexing many client sessions
//! onto the shard fleet, entirely in process.
//!
//! A client is a *script* — a list of `(virtual time, Request)` sends,
//! non-decreasing in time — because determinism is the contract: the
//! same scripts against the same fleet seed must produce byte-identical
//! response streams. The loop merges all clients' sends into one global
//! time order (ties broken by session index, then send order), pushes
//! each encoded frame into its session's incremental decoder, and drives
//! the fleet:
//!
//! - `SubmitJob` → [`Fleet::submit`] at the send's virtual time; the
//!   verdict returns immediately as `JobAccepted` / `JobRejected`.
//! - Completions surface whenever the fleet advances; each becomes a
//!   `JobComplete` at its finish time, delivered to the session that
//!   submitted the job.
//!
//! Each response is framed when it is emitted, stamped with its virtual
//! time, and sent once virtual time passes it: after every event, the
//! frames stamped at or before the time the fleet was last advanced to
//! go to their sessions in (time, emit order), and later ones wait. No
//! frame discovered later can sort before one already sent, so a
//! session's outbound stream is in virtual-time order even though
//! completions are discovered lazily. The daemon never blocks: clients
//! that send garbage get a typed [`ServeError::Decode`] naming their
//! session, not a hang.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::Range;

use mpsoc_sched::{JobOutcome, SchedError, ShardDecision};

use crate::fleet::Fleet;
use crate::proto::{Request, Response, StatsReport};
use crate::slo::FleetSlo;
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

/// The serving daemon: a fleet behind scripted client sessions.
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
        check_order(scripts)?;
        let mut run = RunState::new(&self.fleet, scripts.len());
        let mut logs = vec![SessionLog::default(); scripts.len()];
        let mut outbox = Outbox::default();
        // The time the fleet was last advanced to in this run. The
        // advance retired every completion at or before it; whatever
        // is dispatched after it finishes at or after it; and every
        // later verdict or report is stamped at or after it, with a
        // larger emit sequence. So no frame emitted later sorts before
        // a frame stamped at or before it, and those can go now.
        let mut watermark = None;
        // The scripts are each ordered by time, so a heap holding each
        // session's next send `(time, session, index)` merges them.
        let mut next: BinaryHeap<_> = scripts
            .iter()
            .enumerate()
            .filter_map(|(session, script)| {
                script.sends.first().map(|&(t, _)| Reverse((t, session, 0)))
            })
            .collect();
        while let Some(Reverse((t, session, idx))) = next.pop() {
            let sends = &scripts[session].sends;
            if let Some(&(later, _)) = sends.get(idx + 1) {
                next.push(Reverse((later, session, idx + 1)));
            }
            if self.step(&mut run, t, session, sends[idx].1, &mut outbox)? {
                watermark = Some(t);
            }
            if let Some(watermark) = watermark {
                outbox.flush(watermark, &mut logs);
            }
        }
        self.finish(&mut run, &mut outbox)?;
        outbox.flush(u64::MAX, &mut logs);
        Ok(logs)
    }

    /// Delivers one send: `session`'s encoded `request` arrives at
    /// virtual time `t`, and every response it causes goes to `out`.
    /// Returns whether the fleet was advanced to `t`.
    fn step(
        &mut self,
        run: &mut RunState,
        t: u64,
        session: usize,
        request: Request,
        out: &mut impl Emit,
    ) -> Result<bool, ServeError> {
        // The "wire": the client's encoded frame arrives now and the
        // daemon decodes it incrementally.
        run.frame.clear();
        encode_into(&mut run.frame, &request);
        run.decoders[session].push(&run.frame);
        let mut advanced = false;
        while let Some(decoded) = run.decoders[session]
            .next_message::<Request>()
            .map_err(|error| ServeError::Decode { session, error })?
        {
            match decoded {
                Request::SubmitJob {
                    client_job,
                    kernel,
                    n,
                    deadline,
                } => {
                    debug_assert_eq!(
                        self.fleet.submitted(),
                        run.first_job + run.origin.len() as u64
                    );
                    let (shard, decision) = self.fleet.submit(kernel, n, deadline, t)?;
                    advanced = true;
                    let verdict = match decision {
                        ShardDecision::Queued { .. } | ShardDecision::Host { .. } => {
                            run.origin.push(Some((session, client_job)));
                            Response::JobAccepted { client_job, shard }
                        }
                        ShardDecision::Rejected { reason } => {
                            run.origin.push(None);
                            Response::JobRejected { client_job, reason }
                        }
                    };
                    out.emit(t, session, &verdict);
                    // Completions the submit's advance uncovered.
                    run.collect_completions(&self.fleet, out);
                }
                // Stats polls are read-only: they snapshot the fleet
                // *as of the last submission's advance* and never
                // move virtual time, touch placement state, or
                // trigger stealing — so a job stream replays
                // byte-identically with or without polls.
                Request::GetStats => {
                    let report = self.stats_report(t);
                    out.emit(t, session, &Response::Stats { report });
                }
            }
        }
        Ok(advanced)
    }

    /// Runs the fleet dry and emits the remaining completions.
    fn finish(&mut self, run: &mut RunState, out: &mut impl Emit) -> Result<(), ServeError> {
        self.fleet.drain()?;
        run.collect_completions(&self.fleet, out);
        Ok(())
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
}

/// Refuses a script whose sends go back in time, naming the first such
/// send.
fn check_order(scripts: &[ClientScript]) -> Result<(), ServeError> {
    for (session, script) in scripts.iter().enumerate() {
        if let Some(i) = script.sends.windows(2).position(|w| w[0].0 > w[1].0) {
            return Err(ServeError::ScriptOrder {
                session,
                send: i + 1,
                at: script.sends[i + 1].0,
                after: script.sends[i].0,
            });
        }
    }
    Ok(())
}

/// What one run carries from send to send.
struct RunState {
    decoders: Vec<Decoder>,
    /// The daemon's private mapping from fleet identity to wire
    /// identity: fleet job ids are sequential, so the job with id
    /// `first_job + i` came from `origin[i]` (`None` for a rejection).
    first_job: u64,
    origin: Vec<Option<(usize, u64)>>,
    /// Fleet records already answered; those resolved before this run
    /// were answered by earlier runs.
    collected: usize,
    /// The request frame on the wire.
    frame: Vec<u8>,
}

impl RunState {
    fn new(fleet: &Fleet, sessions: usize) -> Self {
        RunState {
            decoders: (0..sessions).map(|_| Decoder::new()).collect(),
            first_job: fleet.submitted(),
            origin: Vec::new(),
            collected: fleet.completed().len(),
            frame: Vec::new(),
        }
    }

    /// Emits `JobComplete` for fleet records not yet reported; jobs
    /// submitted before `first_job` belong to no session of this run.
    fn collect_completions(&mut self, fleet: &Fleet, out: &mut impl Emit) {
        let records = fleet.completed();
        for fr in &records[self.collected..] {
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
                .checked_sub(self.first_job)
                .and_then(|i| self.origin.get(i as usize))
            else {
                continue;
            };
            out.emit(
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
        self.collected = records.len();
    }
}

/// Where a run's responses go as they are emitted, each stamped with
/// its virtual time and the session it answers.
trait Emit {
    fn emit(&mut self, time: u64, session: usize, response: &Response);
}

/// The responses emitted and not yet sent, each framed once into a byte
/// arena when it is emitted; a flush sorts only their small keys.
#[derive(Default)]
struct Outbox {
    arena: Vec<u8>,
    /// `(virtual time, emit sequence, session, frame's place in arena)`.
    keys: Vec<(u64, u64, usize, Range<usize>)>,
    /// Frames emitted so far this run.
    emitted: u64,
}

impl Emit for Outbox {
    fn emit(&mut self, time: u64, session: usize, response: &Response) {
        let start = self.arena.len();
        encode_into(&mut self.arena, response);
        self.keys
            .push((time, self.emitted, session, start..self.arena.len()));
        self.emitted += 1;
    }
}

impl Outbox {
    /// Appends every frame stamped at or before `watermark` to its
    /// session's outbound stream, ordered by (virtual time, emit
    /// sequence); later frames wait for a later flush. The pair is
    /// unique, so the unstable sort yields the one order a stable sort
    /// by time would.
    fn flush(&mut self, watermark: u64, logs: &mut [SessionLog]) {
        self.keys
            .sort_unstable_by_key(|&(time, seq, ..)| (time, seq));
        let ready = self.keys.partition_point(|&(time, ..)| time <= watermark);
        for (_, _, session, frame) in self.keys.drain(..ready) {
            logs[session].outbound.extend_from_slice(&self.arena[frame]);
        }
        // Waiting frames keep their bytes in place; the arena empties
        // once none wait, which the next advance past them ensures.
        if self.keys.is_empty() {
            self.arena.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{FleetConfig, PlacementPolicy};
    use crate::wire::encode;
    use mpsoc_sched::{KernelId, ModelTable, RejectReason};
    use proptest::prelude::*;

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

    /// The run as it was before responses streamed, kept as the oracle
    /// for their order: every send of the run sorted up front, every
    /// response held in one arena until the run ends, then sorted and
    /// delivered at once.
    fn reference_run(
        d: &mut Daemon,
        scripts: &[ClientScript],
    ) -> Result<Vec<SessionLog>, ServeError> {
        check_order(scripts)?;
        let mut events: Vec<(u64, usize, usize)> = Vec::new();
        for (session, script) in scripts.iter().enumerate() {
            for (idx, &(t, _)) in script.sends.iter().enumerate() {
                events.push((t, session, idx));
            }
        }
        // (time, session, index) is unique, so the unstable sort is exact.
        events.sort_unstable();
        let mut run = RunState::new(&d.fleet, scripts.len());
        let mut outbox = ReferenceOutbox::default();
        for (t, session, idx) in events {
            d.step(
                &mut run,
                t,
                session,
                scripts[session].sends[idx].1,
                &mut outbox,
            )?;
        }
        d.finish(&mut run, &mut outbox)?;
        Ok(outbox.deliver(scripts.len()))
    }

    /// One run's responses, each framed once when it is emitted into a
    /// shared byte arena and delivered at the end in global virtual-time
    /// order.
    #[derive(Default)]
    struct ReferenceOutbox {
        arena: Vec<u8>,
        /// `(virtual time, emit sequence, session, frame's place in arena)`.
        keys: Vec<(u64, u64, usize, Range<usize>)>,
    }

    impl Emit for ReferenceOutbox {
        fn emit(&mut self, time: u64, session: usize, response: &Response) {
            let start = self.arena.len();
            encode_into(&mut self.arena, response);
            let seq = self.keys.len() as u64;
            self.keys
                .push((time, seq, session, start..self.arena.len()));
        }
    }

    impl ReferenceOutbox {
        /// Appends every frame to its session's outbound stream, ordered
        /// by (virtual time, emit sequence), and returns the `sessions`
        /// logs.
        fn deliver(mut self, sessions: usize) -> Vec<SessionLog> {
            self.keys
                .sort_unstable_by_key(|&(time, seq, ..)| (time, seq));
            let mut logs = vec![SessionLog::default(); sessions];
            for (_, _, session, frame) in self.keys {
                logs[session].outbound.extend_from_slice(&self.arena[frame]);
            }
            logs
        }
    }

    /// Random scripts over `sessions` sessions. Each send is `(session,
    /// gap class, kind, deadline class)`: gap class 0 sends at the same
    /// time as the session's previous send (ties within and, through
    /// the shared time grid, across sessions), larger classes wait up
    /// to 60,000 cycles, past most completions; a quarter of the kinds
    /// are stats polls; the deadline classes reach rejections and host
    /// runs.
    fn random_scripts(sessions: usize, sends: &[(usize, u64, u64, u64)]) -> Vec<ClientScript> {
        const GAPS: [u64; 6] = [0, 0, 100, 1_000, 10_000, 60_000];
        const DEADLINES: [u64; 4] = [50, 3_000, 30_000, 1_000_000];
        let mut scripts = vec![ClientScript::new(); sessions];
        let mut clock = vec![0u64; sessions];
        for (i, &(session, gap, kind, deadline)) in sends.iter().enumerate() {
            let session = session % sessions;
            clock[session] += GAPS[gap as usize % GAPS.len()];
            let t = clock[session];
            if kind % 4 == 0 {
                scripts[session].poll_stats_at(t);
            } else {
                let kernel = KernelId::ALL[kind as usize % KernelId::ALL.len()];
                let n = 64 << (kind % 8);
                let deadline = DEADLINES[deadline as usize % DEADLINES.len()];
                scripts[session].submit_at(t, i as u64, kernel, n, deadline);
            }
        }
        scripts
    }

    fn assert_streams_match(got: &[SessionLog], want: &[SessionLog]) {
        assert_eq!(got.len(), want.len());
        for (session, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.outbound, w.outbound, "session {session}'s stream differs");
        }
    }

    #[test]
    fn a_stats_poll_waits_for_completions_found_after_it() {
        // The job finishes at 956, but the daemon only learns so at the
        // submit at 60,000, after the poll at 50,000 has been emitted.
        // The completion still goes out first: the poll is stamped past
        // the fleet's clock, so it waits.
        let mut script = ClientScript::new();
        script.submit_at(0, 1, KernelId::Daxpy, 1024, 100_000);
        script.poll_stats_at(50_000);
        script.submit_at(60_000, 2, KernelId::Daxpy, 1024, 100_000);
        let scripts = [script];
        let logs = daemon(2, 8).run(&scripts).expect("run");
        let stamps: Vec<(Option<u64>, u64)> = logs[0]
            .responses()
            .expect("decode")
            .iter()
            .map(|r| match r {
                Response::JobAccepted { client_job, .. } => (Some(*client_job), 0),
                Response::JobComplete {
                    client_job, finish, ..
                } => (Some(*client_job), *finish),
                Response::Stats { report } => (None, report.time),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(stamps[..3], [(Some(1), 0), (Some(1), 956), (None, 50_000)]);
        assert_eq!(stamps[3], (Some(2), 0));
        assert_eq!(stamps.len(), 5);
        let reference = reference_run(&mut daemon(2, 8), &scripts).expect("reference");
        assert_streams_match(&logs, &reference);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn streamed_responses_match_the_end_of_run_sort(
            sessions in 1usize..5,
            queue_limit in 1usize..4,
            first in prop::collection::vec((0usize..4, 0u64..6, 0u64..24, 0u64..4), 1..60),
            second in prop::collection::vec((0usize..4, 0u64..6, 0u64..24, 0u64..4), 0..30),
        ) {
            let mut streamed = daemon(2, queue_limit);
            let mut reference = daemon(2, queue_limit);
            // A second run on the same daemon starts from the first
            // run's fleet, and its times may go back to zero.
            for sends in [&first, &second] {
                let scripts = random_scripts(sessions, sends);
                let got = streamed.run(&scripts).expect("run");
                let want = reference_run(&mut reference, &scripts).expect("reference");
                prop_assert_eq!(got.len(), want.len());
                for (session, (g, w)) in got.iter().zip(&want).enumerate() {
                    prop_assert!(g.outbound == w.outbound, "session {} differs", session);
                }
            }
            prop_assert_eq!(streamed.fleet().completed(), reference.fleet().completed());
        }
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
