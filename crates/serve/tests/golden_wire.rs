//! Golden wire streams: a fixed daemon scenario whose every outbound
//! byte stream is pinned by its length and FNV-1a hash.
//!
//! The scenario covers what the daemon's output path has to get right:
//! three sessions whose sends tie in virtual time, `GetStats` polls
//! interleaved with submissions, a queue limit small enough that
//! backpressure rejects jobs (and redirects some), and a second `run` on
//! the same daemon. Any change to framing, response order, the JSON
//! encoding or the simulated results changes a hash.

use mpsoc_sched::{KernelId, ModelTable, RejectReason};
use mpsoc_serve::{
    ClientScript, Daemon, Fleet, FleetConfig, FleetSlo, PlacementPolicy, Response, SessionLog,
};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A small xorshift generator, so the scenario needs no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Three sessions starting at `start`, sending in bursts: every session
/// sends twice at each burst's instant, so sends tie both across and
/// within sessions. Session 2 polls stats before each of its
/// submissions.
fn scripts(seed: u64, start: u64) -> Vec<ClientScript> {
    let mut rng = Rng(seed);
    let mut sessions = vec![
        ClientScript::new(),
        ClientScript::new(),
        ClientScript::new(),
    ];
    let mut t = start;
    let mut client_job = 0;
    for _ in 0..30 {
        t += rng.next() % 1_500;
        for (session, script) in sessions.iter_mut().enumerate() {
            for send in 0..2 {
                if session == 2 && send == 0 {
                    script.poll_stats_at(t);
                    continue;
                }
                let kernel = KernelId::ALL[(rng.next() % KernelId::ALL.len() as u64) as usize];
                let n = 256 << (rng.next() % 6);
                // Mostly generous deadlines, some too tight for any
                // placement.
                let deadline = match rng.next() % 8 {
                    0 => 400,
                    1 => 3_000,
                    _ => 40_000 + rng.next() % 200_000,
                };
                script.submit_at(t, client_job, kernel, n, deadline);
                client_job += 1;
            }
        }
    }
    sessions[2].poll_stats_at(t + 5_000);
    sessions
}

fn daemon() -> Daemon {
    Daemon::new(Fleet::analytic(
        FleetConfig {
            shards: 2,
            clusters_per_shard: 2,
            queue_limit: 2,
            placement: PlacementPolicy::ModelGuided,
            steal: true,
            redirect_budget: 1,
            failover: false,
        },
        &ModelTable::paper_defaults(),
    ))
}

fn fingerprint(logs: &[SessionLog]) -> Vec<(usize, u64)> {
    logs.iter()
        .map(|l| (l.outbound.len(), fnv1a(&l.outbound)))
        .collect()
}

#[test]
fn daemon_streams_match_the_recorded_golden_bytes() {
    let mut d = daemon();
    let first = d
        .run(&scripts(0x9e37_79b9_7f4a_7c15, 0))
        .expect("first run");
    let resume = FleetSlo::from_fleet(d.fleet()).makespan + 1_000;
    let second = d
        .run(&scripts(0x2545_f491_4f6c_dd1d, resume))
        .expect("second run");

    // The scenario is not vacuous: it rejects on backpressure, answers
    // polls and completes jobs in both runs.
    for logs in [&first, &second] {
        let responses: Vec<Response> = logs
            .iter()
            .flat_map(|l| l.responses().expect("decode"))
            .collect();
        let count = |f: fn(&Response) -> bool| responses.iter().filter(|r| f(r)).count();
        assert!(
            count(|r| matches!(
                r,
                Response::JobRejected {
                    reason: RejectReason::QueueFull { .. },
                    ..
                }
            )) > 0
        );
        assert!(count(|r| matches!(r, Response::Stats { .. })) > 5);
        assert!(count(|r| matches!(r, Response::JobComplete { .. })) > 20);
    }
    assert!(FleetSlo::from_fleet(d.fleet()).redirects > 0);

    // Recorded from the daemon before its output path was rewritten to
    // frame each response once into an arena.
    assert_eq!(
        fingerprint(&first),
        [
            (6_764, 0x2275_9e6a_6315_8d71),
            (5_519, 0xf441_9333_c642_a70f),
            (56_382, 0xb1b6_6232_45df_15da),
        ]
    );
    assert_eq!(
        fingerprint(&second),
        [
            (8_428, 0xeba2_6ec6_4089_ee9b),
            (5_776, 0x1fcf_5de4_dd09_c153),
            (65_022, 0x9898_a4d4_5708_a102),
        ]
    );
}
