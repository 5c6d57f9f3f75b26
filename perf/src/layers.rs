//! The per-layer ledger of a traced run: work counts, and the share of
//! the run phase's wall time charged to each named layer, measured from
//! the benchmark's side of each layer's public API.
//!
//! Three sources feed it:
//!
//! - the profile tree of each traced repetition — bench-side `perf.*`
//!   scopes around every call into a layer, the library's own sites
//!   beneath them, and the [`TimedPolicy`] scope around each pick;
//! - counters the bench keeps while it drives the layers (picks, queue
//!   depth, records);
//! - replays, after the timed repetitions, that feed one layer the exact
//!   inputs the run gave it and time each call: admission, service
//!   pricing, the fleet with its stats reports, and the wire codec. A
//!   replay's time is charged as a share of the traced run phase.
//!
//! Times are reported as shares so that a layer a workload does not
//! drive reads 0 as a share, never as a time; `trace.run_s` gives the
//! scale.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use mpsoc_offload::ClusterMask;
use mpsoc_sched::{
    AdmissionController, AdmissionDecision, Job, JobOutcome, ModelTable, Placement, QueuedJob,
    SchedContext, SchedPolicy, ServiceBackend,
};
use mpsoc_serve::{
    encode, ClientScript, Decoder, Fleet, FleetRecord, FleetSlo, Request, Response, SessionLog,
};
use mpsoc_telemetry::{profile, ProfileReport, SiteTotal};

use crate::workload::{BoxError, Output, SERVE_FLEET};

/// Per-layer metric values by name.
pub type Ledger = BTreeMap<&'static str, f64>;

/// Deterministic work counts of one policy.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PolicyCounts {
    /// `pick` calls.
    pub picks: u64,
    /// Picks that placed a job.
    pub placements: u64,
    /// Σ `ready.len()` over picks: queue entries the policy could scan.
    pub scanned: u64,
}

/// Shared handle a [`TimedPolicy`] reports to; the policy itself is
/// owned by the engine or shard it was handed to.
pub type PolicyProbe = Rc<Cell<PolicyCounts>>;

/// Wraps a policy, counting its work and timing each pick under the
/// `sched.policy.pick` profile site.
pub struct TimedPolicy<P> {
    inner: P,
    probe: PolicyProbe,
}

impl<P> TimedPolicy<P> {
    pub fn new(inner: P, probe: PolicyProbe) -> Self {
        TimedPolicy { inner, probe }
    }
}

impl<P: SchedPolicy> SchedPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, ready: &[QueuedJob], ctx: &SchedContext<'_>) -> Option<Placement> {
        let placement = {
            let _s = profile::scope("sched.policy.pick");
            self.inner.pick(ready, ctx)
        };
        let mut c = self.probe.get();
        c.picks += 1;
        c.placements += u64::from(placement.is_some());
        c.scanned += ready.len() as u64;
        self.probe.set(c);
        placement
    }
}

/// `num ÷ den`, or 0 when nothing was measured.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The ledger entries one traced repetition yields in place: work counts,
/// and each site's time as a share of the run phase.
pub fn in_place(report: &ProfileReport, policy: PolicyCounts, out: &Output, offers: u64) -> Ledger {
    let sites = report.site_totals();
    let site = |name: &str| {
        sites
            .iter()
            .find(|s| s.name == name)
            .cloned()
            .unwrap_or(SiteTotal {
                name: name.to_owned(),
                calls: 0,
                self_ns: 0,
                total_ns: 0,
            })
    };
    let root = site("perf.run").total_ns as f64;
    let share = |ns: u64| ratio(ns as f64, root);
    let total = |name: &str| share(site(name).total_ns);
    let own = |name: &str| share(site(name).self_ns);
    let calls = |name: &str| site(name).calls as f64;
    let (picks, placements, scanned) = (
        policy.picks as f64,
        policy.placements as f64,
        policy.scanned as f64,
    );
    let (mut contention, mut busy, mut retries) = (0u64, 0u64, 0u64);
    for r in &out.records {
        if let JobOutcome::Offloaded { start, finish, .. } = r.record.outcome {
            busy += finish - start;
        }
        contention += r.record.contention_cycles;
        retries += u64::from(r.record.retries);
    }
    Ledger::from([
        ("trace.unattributed_share", own("perf.run")),
        ("sched.engine.run_share", total("sched.engine.run")),
        ("sched.engine.self_share", own("sched.engine.run")),
        ("sched.shard.offer_calls", calls("perf.shard.offer")),
        ("sched.shard.offer_share", total("perf.shard.offer")),
        ("sched.shard.advance_calls", calls("sched.shard.advance")),
        ("sched.shard.advance_share", total("perf.shard.advance")),
        ("sched.shard.drain_share", total("perf.shard.drain")),
        ("sched.shard.queue_depth_max", out.depth_max as f64),
        (
            "sched.shard.queue_depth_mean",
            ratio(out.depth_sum as f64, offers as f64),
        ),
        ("sched.policy.picks", picks),
        ("sched.policy.placements", placements),
        ("sched.policy.place_ratio", ratio(placements, picks)),
        ("sched.policy.scanned", scanned),
        ("sched.policy.scanned_per_pick", ratio(scanned, picks)),
        ("sched.policy.pick_share", total("sched.policy.pick")),
        ("soc.session.advance_calls", calls("soc.session.advance")),
        ("soc.session.advance_self_share", own("soc.session.advance")),
        ("isa.interpret.calls", calls("isa.interpret")),
        ("isa.interpret.self_share", own("isa.interpret")),
        ("serve.daemon.run_share", total("serve.daemon.run")),
        (
            "serve.wire.client_decode_share",
            total("perf.client.decode"),
        ),
        (
            "cosim.contention_ratio",
            ratio(contention as f64, busy as f64),
        ),
        ("cosim.retries", retries as f64),
    ])
}

/// Eq. 3 admission over the whole stream, as one machine of `clusters`
/// clusters decides it. `run_s` is the traced run phase's wall time.
pub fn admission_replay(jobs: &[Job], clusters: usize, run_s: f64, ledger: &mut Ledger) {
    let controller = AdmissionController::new(ModelTable::paper_defaults(), clusters as u64);
    let mut verdicts = [0u64; 3];
    let started = Instant::now();
    for job in jobs {
        let slot = match controller.admit(black_box(job)) {
            AdmissionDecision::Offload { .. } => 0,
            AdmissionDecision::Host { .. } => 1,
            AdmissionDecision::Reject { .. } => 2,
        };
        verdicts[slot] += 1;
    }
    let elapsed = started.elapsed().as_secs_f64();
    ledger.extend([
        ("sched.admission.calls", jobs.len() as f64),
        ("sched.admission.offload", verdicts[0] as f64),
        ("sched.admission.host", verdicts[1] as f64),
        ("sched.admission.reject", verdicts[2] as f64),
        ("sched.admission.admit_share", elapsed / run_s),
    ]);
}

/// Re-prices every offloaded record through the analytic backend. Each
/// charge must equal the record's busy interval, since the analytic runs
/// were charged by the same call.
pub fn service_replay(
    records: &[FleetRecord],
    run_s: f64,
    ledger: &mut Ledger,
) -> Result<(), BoxError> {
    let offloads: Vec<_> = records
        .iter()
        .filter_map(|r| match r.record.outcome {
            JobOutcome::Offloaded { start, finish, m } => Some((r.record.job, m, finish - start)),
            _ => None,
        })
        .collect();
    let mut backend = ServiceBackend::analytic(ModelTable::paper_defaults());
    let mut charged = Vec::with_capacity(offloads.len());
    let started = Instant::now();
    for &(job, m, _) in &offloads {
        charged.push(backend.offload_cycles(job.kernel, job.n, ClusterMask::first(m))?);
    }
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(((job, _, busy), c)) = offloads.iter().zip(&charged).find(|((_, _, b), c)| b != *c)
    {
        return Err(format!(
            "job {} was busy {busy} cycles but the backend charges {c}",
            job.id
        )
        .into());
    }
    ledger.extend([
        ("sched.service.calls", offloads.len() as f64),
        ("sched.service.offload_share", elapsed / run_s),
    ]);
    Ok(())
}

/// Feeds `Fleet::submit` the run's submissions in the daemon's
/// (time, session, index) order, builds a stats report at each poll, and
/// drains. `Daemon` owns its fleet, so the replay times the two public
/// calls `Daemon::stats_report` is made of: `FleetSlo::from_fleet` and
/// the fleet view's counters. The replay must reproduce the daemon
/// exactly: every report equals the `Stats` answer the client decoded,
/// and the drained fleet's `FleetSlo` equals the daemon's.
pub fn fleet_replay(
    scripts: &[ClientScript],
    sessions: &[Vec<Response>],
    daemon_fleet: &Fleet,
    run_s: f64,
    ledger: &mut Ledger,
) -> Result<(), BoxError> {
    let mut events: Vec<(u64, usize, usize)> = scripts
        .iter()
        .enumerate()
        .flat_map(|(s, script)| {
            script
                .sends
                .iter()
                .enumerate()
                .map(move |(i, &(t, _))| (t, s, i))
        })
        .collect();
    events.sort_unstable();
    let mut fleet = Fleet::analytic(SERVE_FLEET, &ModelTable::paper_defaults());
    let mut submit_s = 0.0;
    let mut report_s = 0.0;
    let mut reports = Vec::new();
    for (t, s, i) in events {
        match scripts[s].sends[i].1 {
            Request::SubmitJob {
                kernel,
                n,
                deadline,
                ..
            } => {
                let started = Instant::now();
                black_box(fleet.submit(kernel, n, deadline, t)?);
                submit_s += started.elapsed().as_secs_f64();
            }
            Request::GetStats => {
                let started = Instant::now();
                let slo = FleetSlo::from_fleet(&fleet);
                let counters: Vec<(String, u64)> = fleet
                    .fleet_view()
                    .stats()
                    .counters()
                    .map(|(name, value)| (name.to_owned(), value))
                    .collect();
                report_s += started.elapsed().as_secs_f64();
                reports.push((slo, counters));
            }
        }
    }
    let started = Instant::now();
    fleet.drain()?;
    let drain_s = started.elapsed().as_secs_f64();

    // Polls come from one session, whose stream is in poll order.
    let answered: Vec<_> = sessions
        .iter()
        .flatten()
        .filter_map(|r| match r {
            Response::Stats { report } => Some(report),
            _ => None,
        })
        .collect();
    if answered.len() != reports.len()
        || answered
            .iter()
            .zip(&reports)
            .any(|(a, (slo, counters))| a.slo != *slo || a.counters != *counters)
    {
        return Err("the fleet replay's stats reports differ from the daemon's answers".into());
    }
    let slo = FleetSlo::from_fleet(&fleet);
    if slo != FleetSlo::from_fleet(daemon_fleet) {
        return Err("the fleet replay's FleetSlo differs from the daemon's".into());
    }

    ledger.extend([
        ("serve.fleet.submit_share", submit_s / run_s),
        ("serve.fleet.drain_share", drain_s / run_s),
        ("serve.fleet.steals", slo.steals as f64),
        ("serve.fleet.redirects", slo.redirects as f64),
        ("serve.fleet.queue_full", slo.queue_full as f64),
        ("serve.stats.polls", reports.len() as f64),
        ("serve.stats.report_share", report_s / run_s),
    ]);
    Ok(())
}

/// Re-encodes every frame the run carried, then decodes the inbound
/// frames one at a time, as the daemon receives them. Decoding the
/// outbound streams is the client's part, timed in place.
pub fn wire_replay(
    scripts: &[ClientScript],
    sessions: &[Vec<Response>],
    logs: &[SessionLog],
    run_s: f64,
    ledger: &mut Ledger,
) -> Result<(), BoxError> {
    let requests: Vec<Request> = scripts
        .iter()
        .flat_map(|s| s.sends.iter().map(|&(_, r)| r))
        .collect();
    let responses: Vec<&Response> = sessions.iter().flatten().collect();

    let started = Instant::now();
    let inbound: Vec<Vec<u8>> = requests.iter().map(encode).collect();
    let outbound_bytes: usize = responses.iter().map(|r| encode(r).len()).sum();
    let encode_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut decoder = Decoder::new();
    let mut decoded = 0usize;
    for frame in &inbound {
        decoder.push(frame);
        while let Some(r) = decoder.next_message::<Request>()? {
            black_box(r);
            decoded += 1;
        }
    }
    let decode_s = started.elapsed().as_secs_f64();

    let streamed: usize = logs.iter().map(|l| l.outbound.len()).sum();
    if decoded != requests.len() || outbound_bytes != streamed {
        return Err("the wire replay does not reproduce the run's frames".into());
    }
    ledger.extend([
        ("serve.wire.frames_in", requests.len() as f64),
        ("serve.wire.frames_out", responses.len() as f64),
        (
            "serve.wire.bytes_in",
            inbound.iter().map(Vec::len).sum::<usize>() as f64,
        ),
        ("serve.wire.bytes_out", streamed as f64),
        ("serve.wire.encode_share", encode_s / run_s),
        ("serve.wire.decode_share", decode_s / run_s),
    ]);
    Ok(())
}
