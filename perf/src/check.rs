//! Correctness checks run after every workload, outside the timed region.
//!
//! Each checker returns the first violation it finds as a sentence; the
//! runner reports any violation as `"correct": false`.

use std::collections::BTreeMap;

use mpsoc_sched::JobOutcome;
use mpsoc_serve::{ClientScript, FleetRecord, Request, Response};

/// Every record-level check below, on machines of `clusters` clusters.
pub fn all_records(records: &[FleetRecord], submitted: u64, clusters: usize) -> Result<(), String> {
    resolves_once(records, submitted)?;
    causal(records, clusters)?;
    partitions_fit(records, clusters)?;
    host_serial(records)
}

/// Every job id in `0..submitted` resolves exactly once.
pub fn resolves_once(records: &[FleetRecord], submitted: u64) -> Result<(), String> {
    let mut seen = vec![false; submitted as usize];
    for r in records {
        let id = r.record.job.id;
        let slot = seen
            .get_mut(id as usize)
            .ok_or_else(|| format!("job {id} resolved but was never submitted"))?;
        if *slot {
            return Err(format!("job {id} resolved more than once"));
        }
        *slot = true;
    }
    match seen.iter().position(|&s| !s) {
        Some(id) => Err(format!("job {id} never resolved")),
        None => Ok(()),
    }
}

/// `arrival ≤ start ≤ finish` for every executed job, and every offload
/// ran on `1 ≤ m ≤ clusters` clusters.
pub fn causal(records: &[FleetRecord], clusters: usize) -> Result<(), String> {
    for r in records {
        let job = &r.record.job;
        let (start, finish) = match r.record.outcome {
            JobOutcome::Offloaded { start, finish, m } => {
                if m == 0 || m > clusters {
                    return Err(format!("job {} ran on {m} clusters of {clusters}", job.id));
                }
                (start, finish)
            }
            JobOutcome::Host { start, finish } => (start, finish),
            JobOutcome::Rejected { .. } => continue,
        };
        if !(job.arrival <= start && start <= finish) {
            return Err(format!(
                "job {}: arrival {} start {start} finish {finish} out of order",
                job.id, job.arrival
            ));
        }
    }
    Ok(())
}

/// An event sweep per machine: the partitions running at any instant
/// hold at most `clusters` clusters between them. A partition released at
/// `t` is free for one carved at `t`.
pub fn partitions_fit(records: &[FleetRecord], clusters: usize) -> Result<(), String> {
    let mut events: BTreeMap<u32, Vec<(u64, i64)>> = BTreeMap::new();
    for r in records {
        if let JobOutcome::Offloaded { start, finish, m } = r.record.outcome {
            let e = events.entry(r.shard).or_default();
            e.push((start, m as i64));
            e.push((finish, -(m as i64)));
        }
    }
    for (machine, mut e) in events {
        // Releases (negative) sort before same-instant acquisitions.
        e.sort_unstable();
        let mut held = 0i64;
        for (t, delta) in e {
            held += delta;
            if held > clusters as i64 {
                return Err(format!(
                    "machine {machine}: {held} clusters busy at cycle {t}, only {clusters} exist"
                ));
            }
        }
    }
    Ok(())
}

/// Host-fallback runs on one machine never overlap: the host core is a
/// serial server.
pub fn host_serial(records: &[FleetRecord]) -> Result<(), String> {
    let mut runs: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for r in records {
        if let JobOutcome::Host { start, finish } = r.record.outcome {
            runs.entry(r.shard).or_default().push((start, finish));
        }
    }
    for (machine, mut runs) in runs {
        runs.sort_unstable();
        for w in runs.windows(2) {
            if w[1].0 < w[0].1 {
                return Err(format!(
                    "machine {machine}: host run at cycle {} starts before the one ending at {}",
                    w[1].0, w[0].1
                ));
            }
        }
    }
    Ok(())
}

/// Serving-protocol invariants, per session: every `SubmitJob` gets
/// exactly one `JobAccepted` or `JobRejected`, every accepted job exactly
/// one `JobComplete`, every `GetStats` one `Stats`, and the stream is in
/// virtual-time order (a verdict is stamped with its submission time).
pub fn wire(scripts: &[ClientScript], sessions: &[Vec<Response>]) -> Result<(), String> {
    if scripts.len() != sessions.len() {
        return Err(format!(
            "{} scripts but {} response streams",
            scripts.len(),
            sessions.len()
        ));
    }
    for (s, (script, responses)) in scripts.iter().zip(sessions).enumerate() {
        let mut submitted_at: BTreeMap<u64, u64> = BTreeMap::new();
        let mut polls = 0usize;
        for &(t, request) in &script.sends {
            match request {
                Request::SubmitJob { client_job, .. } => {
                    if submitted_at.insert(client_job, t).is_some() {
                        return Err(format!("session {s}: client job {client_job} sent twice"));
                    }
                }
                Request::GetStats => polls += 1,
            }
        }
        // client job → (accepted, completed)
        let mut verdicts: BTreeMap<u64, (bool, bool)> = BTreeMap::new();
        let mut stats = 0usize;
        let mut last = 0u64;
        for r in responses {
            let t = match r {
                Response::JobAccepted { client_job, .. }
                | Response::JobRejected { client_job, .. } => {
                    let t = *submitted_at.get(client_job).ok_or_else(|| {
                        format!("session {s}: verdict for unknown client job {client_job}")
                    })?;
                    let accepted = matches!(r, Response::JobAccepted { .. });
                    if verdicts.insert(*client_job, (accepted, false)).is_some() {
                        return Err(format!(
                            "session {s}: client job {client_job} got two verdicts"
                        ));
                    }
                    t
                }
                Response::JobComplete {
                    client_job, finish, ..
                } => {
                    match verdicts.get_mut(client_job) {
                        Some((true, done @ false)) => *done = true,
                        Some((true, true)) => {
                            return Err(format!(
                                "session {s}: client job {client_job} completed twice"
                            ))
                        }
                        _ => {
                            return Err(format!(
                                "session {s}: client job {client_job} completed without being accepted first"
                            ))
                        }
                    }
                    *finish
                }
                Response::Stats { report } => {
                    stats += 1;
                    report.time
                }
            };
            if t < last {
                return Err(format!(
                    "session {s}: response at cycle {t} follows one at {last}"
                ));
            }
            last = t;
        }
        if let Some(cj) = submitted_at.keys().find(|cj| !verdicts.contains_key(cj)) {
            return Err(format!("session {s}: client job {cj} got no verdict"));
        }
        if let Some((cj, _)) = verdicts
            .iter()
            .find(|(_, &(accepted, done))| accepted && !done)
        {
            return Err(format!(
                "session {s}: accepted client job {cj} never completed"
            ));
        }
        if stats != polls {
            return Err(format!(
                "session {s}: {polls} GetStats sent, {stats} answered"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_sched::{Job, JobRecord, KernelId, ModelTable, RejectReason};
    use mpsoc_serve::{Daemon, Fleet, FleetConfig, PlacementPolicy};

    fn rec(shard: u32, id: u64, arrival: u64, outcome: JobOutcome) -> FleetRecord {
        FleetRecord {
            shard,
            record: JobRecord {
                job: Job {
                    id,
                    kernel: KernelId::Daxpy,
                    n: 1024,
                    arrival,
                    deadline: 100,
                },
                outcome,
                contention_cycles: 0,
                retries: 0,
                faults_observed: 0,
            },
        }
    }

    fn off(start: u64, finish: u64, m: usize) -> JobOutcome {
        JobOutcome::Offloaded { start, finish, m }
    }

    fn host(start: u64, finish: u64) -> JobOutcome {
        JobOutcome::Host { start, finish }
    }

    /// Six jobs on one 8-cluster machine: two 4-wide partitions share
    /// it, a third starts the cycle the second is released, two host runs
    /// queue back to back, one job is rejected.
    fn valid() -> Vec<FleetRecord> {
        vec![
            rec(0, 0, 0, off(0, 10, 4)),
            rec(0, 1, 2, off(2, 8, 4)),
            rec(0, 2, 5, host(5, 9)),
            rec(0, 3, 6, host(9, 12)),
            rec(
                0,
                4,
                7,
                JobOutcome::Rejected {
                    reason: RejectReason::Infeasible,
                },
            ),
            rec(0, 5, 7, off(8, 20, 4)),
        ]
    }

    use super::all_records as all;

    #[test]
    fn a_valid_record_set_passes_every_check() {
        assert_eq!(all(&valid(), 6, 8), Ok(()));
    }

    #[test]
    fn resolves_once_rejects_lost_duplicate_and_phantom_jobs() {
        let mut lost = valid();
        lost.remove(3);
        assert!(resolves_once(&lost, 6)
            .unwrap_err()
            .contains("never resolved"));
        let mut dup = valid();
        dup.push(dup[1].clone());
        assert!(resolves_once(&dup, 6)
            .unwrap_err()
            .contains("more than once"));
        assert!(resolves_once(&valid(), 5)
            .unwrap_err()
            .contains("never submitted"));
    }

    #[test]
    fn causal_rejects_time_travel_and_bad_widths() {
        let mut early = valid();
        early[1] = rec(0, 1, 2, off(1, 8, 4));
        assert!(causal(&early, 8).is_err());
        let mut backwards = valid();
        backwards[2] = rec(0, 2, 5, host(9, 5));
        assert!(causal(&backwards, 8).is_err());
        let mut empty = valid();
        empty[0] = rec(0, 0, 0, off(0, 10, 0));
        assert!(causal(&empty, 8).unwrap_err().contains("0 clusters"));
        let mut wide = valid();
        wide[0] = rec(0, 0, 0, off(0, 10, 9));
        assert!(causal(&wide, 8).unwrap_err().contains("9 clusters"));
    }

    #[test]
    fn partitions_fit_rejects_oversubscription() {
        let mut over = valid();
        // Job 5 now starts while jobs 0 and 1 still hold all 8 clusters.
        over[5] = rec(0, 5, 7, off(7, 20, 4));
        assert_eq!(causal(&over, 8), Ok(()));
        assert!(partitions_fit(&over, 8)
            .unwrap_err()
            .contains("12 clusters"));
        // The same partition on another machine is fine.
        over[5].shard = 1;
        assert_eq!(partitions_fit(&over, 8), Ok(()));
    }

    #[test]
    fn host_serial_rejects_overlapping_host_runs() {
        let mut overlap = valid();
        overlap[3] = rec(0, 3, 6, host(8, 12));
        assert_eq!(causal(&overlap, 8), Ok(()));
        assert!(host_serial(&overlap).is_err());
        overlap[3].shard = 1;
        assert_eq!(host_serial(&overlap), Ok(()));
    }

    /// A real two-session daemon run: the checkers must accept it.
    fn served() -> (Vec<ClientScript>, Vec<Vec<Response>>, Vec<FleetRecord>) {
        let fleet = Fleet::analytic(
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
        );
        let mut a = ClientScript::new();
        let mut b = ClientScript::new();
        for i in 0..12u64 {
            a.submit_at(i * 40, i, KernelId::Daxpy, 4096, 30_000);
            b.submit_at(i * 40 + 5, i, KernelId::Scale, 1024, 30_000);
            if i == 5 {
                a.poll_stats_at(i * 40);
            }
        }
        let mut daemon = Daemon::new(fleet);
        let logs = daemon.run(&[a.clone(), b.clone()]).expect("run");
        let sessions = logs
            .iter()
            .map(|l| l.responses().expect("decode"))
            .collect();
        (vec![a, b], sessions, daemon.fleet().completed().to_vec())
    }

    #[test]
    fn a_real_serving_run_passes_every_check() {
        let _g = crate::tests::serial();
        let (scripts, sessions, records) = served();
        assert_eq!(wire(&scripts, &sessions), Ok(()));
        assert_eq!(all(&records, 24, 2), Ok(()));
        let rejected = sessions[0]
            .iter()
            .chain(&sessions[1])
            .filter(|r| matches!(r, Response::JobRejected { .. }))
            .count();
        assert!(rejected > 0, "the tight queues must turn some jobs away");
    }

    fn position(rs: &[Response], f: impl Fn(&Response) -> bool) -> usize {
        rs.iter().position(f).expect("response present")
    }

    #[test]
    fn wire_rejects_lost_duplicated_and_reordered_responses() {
        let _g = crate::tests::serial();
        let (scripts, sessions, _) = served();
        let complete = |r: &Response| matches!(r, Response::JobComplete { .. });
        let accepted = |r: &Response| matches!(r, Response::JobAccepted { .. });
        let rejected = |r: &Response| matches!(r, Response::JobRejected { .. });

        // Dropping a rejection leaves its job without any verdict.
        let mut no_verdict = sessions.clone();
        let s = (0..2)
            .find(|&s| no_verdict[s].iter().any(rejected))
            .expect("a rejection");
        let i = position(&no_verdict[s], rejected);
        no_verdict[s].remove(i);
        assert!(wire(&scripts, &no_verdict)
            .unwrap_err()
            .contains("no verdict"));

        let mut twice = sessions.clone();
        let i = position(&twice[0], accepted);
        let dup = twice[0][i].clone();
        twice[0].insert(i + 1, dup);
        assert!(wire(&scripts, &twice).unwrap_err().contains("two verdicts"));

        let mut orphan = sessions.clone();
        let i = position(&orphan[0], accepted);
        orphan[0].remove(i);
        assert!(wire(&scripts, &orphan)
            .unwrap_err()
            .contains("without being accepted"));

        let mut lost = sessions.clone();
        let i = position(&lost[0], complete);
        lost[0].remove(i);
        assert!(wire(&scripts, &lost)
            .unwrap_err()
            .contains("never completed"));

        let mut unanswered = sessions.clone();
        let i = position(&unanswered[0], |r| matches!(r, Response::Stats { .. }));
        unanswered[0].remove(i);
        assert!(wire(&scripts, &unanswered)
            .unwrap_err()
            .contains("answered"));

        let mut reordered = sessions.clone();
        let last = reordered[0].len() - 1;
        reordered[0].swap(0, last);
        assert!(wire(&scripts, &reordered).is_err());
    }
}
