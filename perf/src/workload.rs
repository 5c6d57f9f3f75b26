//! The four workloads: how each builds its inputs and a fresh system
//! under test (the set-up phase), and how it drives that system through
//! its public API (the run phase).
//!
//! Every stream is open-loop Poisson in *virtual* time and is generated
//! whole during set-up, so a slow simulator can never make the generator
//! run late: throughput measures capacity.

use std::error::Error;
use std::hint::black_box;
use std::time::Instant;

use mpsoc_offload::Offloader;
use mpsoc_sched::{
    AdmissionController, AdmissionDecision, ArrivalPattern, Engine, FifoFirstFit, Job, JobRecord,
    ModelGuided, ModelTable, SchedPolicy, ServiceBackend, ShardSim,
};
use mpsoc_serve::{
    ClientScript, Daemon, DecodeError, Decoder, Fleet, FleetConfig, FleetRecord, PlacementPolicy,
    Response, SessionLog,
};
use mpsoc_soc::SocConfig;
use mpsoc_telemetry::profile;

use crate::host::thread_cpu_s;
use crate::layers::{PolicyProbe, TimedPolicy};

pub type BoxError = Box<dyn Error>;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Engine::run`, analytic backend, FIFO, 8 clusters at ρ = 0.8 of
    /// admitted demand: engine bookkeeping dominates.
    ClosedFifo,
    /// A bench-driven `ShardSim`, analytic backend, model-guided policy,
    /// 8 clusters at ρ = 1.5 behind a 256-deep queue: policy picks
    /// dominate.
    ShardOverload,
    /// `Daemon::run` over a 4 × 4 analytic fleet at ρ = 0.9 with two
    /// submit sessions and one stats poller: wire, daemon, fleet and
    /// stats layers.
    ServeWire,
    /// A bench-driven `ShardSim`, co-simulated backend, FIFO, 8 clusters
    /// at ρ = 0.1: the SoC session, event loop and ISA interpreter.
    CosimSoc,
}

/// The serving fleet of `serve-wire`.
pub const SERVE_FLEET: FleetConfig = FleetConfig {
    shards: 4,
    clusters_per_shard: 4,
    queue_limit: 32,
    placement: PlacementPolicy::ModelGuided,
    steal: true,
    redirect_budget: 1,
    failover: false,
};

/// The monitoring session polls `GetStats` at every this-many arrivals.
pub const POLL_EVERY: usize = 1024;

/// Clients decode their response streams in socket-sized reads.
pub const CLIENT_CHUNK: usize = 64 * 1024;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ClosedFifo,
        Workload::ShardOverload,
        Workload::ServeWire,
        Workload::CosimSoc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ClosedFifo => "closed-fifo",
            Workload::ShardOverload => "shard-overload",
            Workload::ServeWire => "serve-wire",
            Workload::CosimSoc => "cosim-soc",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs per repetition: 1–1.5 s on a 2-core x86-64 box, so a run's
    /// median is over many repetitions, and enough jobs that the simulated
    /// metrics vary by less than a third of their bounds from seed to
    /// seed; `--smoke` runs a hundredth.
    pub fn jobs(self, smoke: bool) -> usize {
        let full = match self {
            Workload::ClosedFifo => 40_000,
            Workload::ShardOverload => 100_000,
            Workload::ServeWire => 150_000,
            Workload::CosimSoc => 10_000,
        };
        if smoke {
            full / 100
        } else {
            full
        }
    }

    /// Clusters per machine (`serve-wire` runs four such machines).
    pub fn clusters(self) -> usize {
        match self {
            Workload::ServeWire => SERVE_FLEET.clusters_per_shard,
            _ => 8,
        }
    }
}

/// One repetition's inputs and its fresh system under test.
pub struct Setup {
    pub jobs: Vec<Job>,
    pub sut: Sut,
}

/// The system under test, as each workload drives it.
pub enum Sut {
    Engine {
        engine: Engine,
        policy: Box<dyn SchedPolicy>,
    },
    Shard(ShardSim),
    Daemon {
        daemon: Daemon,
        scripts: Vec<ClientScript>,
    },
}

/// What one run phase produced.
#[derive(Default)]
pub struct Output {
    /// Every resolved job, tagged with the machine that resolved it.
    pub records: Vec<FleetRecord>,
    /// `serve-wire`: each session's framed response stream.
    pub logs: Vec<SessionLog>,
    /// Bench-driven shards: the deepest ready queue seen after an offer,
    /// and the sum of the depths after every offer.
    pub depth_max: usize,
    pub depth_sum: u64,
}

/// Builds the inputs and a fresh system under test. With a `probe`, the
/// scheduling policy is wrapped in a [`TimedPolicy`] reporting to it.
pub fn setup(
    workload: Workload,
    seed: u64,
    smoke: bool,
    probe: Option<&PolicyProbe>,
) -> Result<Setup, BoxError> {
    let table = ModelTable::paper_defaults();
    let mix = mpsoc_sched::Workload::balanced(
        workload.jobs(smoke),
        seed,
        ArrivalPattern::Poisson {
            mean_interarrival: 1.0,
        },
    );
    let clusters = workload.clusters();
    Ok(match workload {
        // Priced at admitted demand like the others. Priced at the
        // reference partition (`interarrival_for_load`), ρ = 0.8 keeps the
        // machine about 15% busy: no job queues, and every latency
        // percentile is a bare service time, the same for every seed.
        Workload::ClosedFifo => Setup {
            jobs: admitted_stream(&table, mix, clusters, clusters, 0.8),
            sut: Sut::Engine {
                engine: Engine::new(table.clone(), clusters, ServiceBackend::analytic(table)),
                policy: wrap(FifoFirstFit, probe),
            },
        },
        Workload::ShardOverload => {
            let jobs = admitted_stream(&table, mix, clusters, clusters, 1.5);
            let mut shard = ShardSim::new(
                table.clone(),
                clusters,
                ServiceBackend::analytic(table),
                wrap(ModelGuided, probe),
            );
            shard.set_queue_limit(256);
            Setup {
                jobs,
                sut: Sut::Shard(shard),
            }
        }
        Workload::CosimSoc => {
            let jobs = admitted_stream(&table, mix, clusters, clusters, 0.1);
            let offloader = Offloader::new(SocConfig::with_clusters(clusters))?;
            let shard = ShardSim::new(
                table,
                clusters,
                ServiceBackend::co_simulated(offloader, seed),
                wrap(FifoFirstFit, probe),
            );
            Setup {
                jobs,
                sut: Sut::Shard(shard),
            }
        }
        Workload::ServeWire => {
            // serve_study's heavy-tailed serving sizes.
            let mut mix = mix;
            mix.sizes = vec![256, 512, 1024, 2048, 4096, 8192, 16384, 32768];
            let total = SERVE_FLEET.shards * clusters;
            let jobs = admitted_stream(&table, mix, clusters, total, 0.9);
            let scripts = scripts(&jobs);
            Setup {
                jobs,
                sut: Sut::Daemon {
                    daemon: Daemon::new(Fleet::analytic(SERVE_FLEET, &table)),
                    scripts,
                },
            }
        }
    })
}

fn wrap<P: SchedPolicy + 'static>(policy: P, probe: Option<&PolicyProbe>) -> Box<dyn SchedPolicy> {
    match probe {
        Some(probe) => Box::new(TimedPolicy::new(policy, probe.clone())),
        None => Box::new(policy),
    }
}

/// Generates `mix` with its load priced at each job's *admitted*
/// partition (Eq. 3 `m_min · t̂`, as `serve_study` prices it), so `rho`
/// is the offered share of `total_clusters`. The kernel, size and
/// deadline draws do not depend on the gap, so the probe stream carries
/// the same jobs as the final one.
fn admitted_stream(
    table: &ModelTable,
    mut mix: mpsoc_sched::Workload,
    machine_clusters: usize,
    total_clusters: usize,
    rho: f64,
) -> Vec<Job> {
    let probe = mix.generate(table);
    let admission = AdmissionController::new(table.clone(), machine_clusters as u64);
    let demand = probe
        .iter()
        .map(|j| match admission.admit(j) {
            AdmissionDecision::Offload { m_min, predicted } => m_min as f64 * predicted,
            _ => 0.0,
        })
        .sum::<f64>()
        / probe.len() as f64;
    mix.arrivals = ArrivalPattern::Poisson {
        mean_interarrival: demand / (rho * total_clusters as f64),
    };
    mix.generate(table)
}

/// Two submit sessions split the stream (even and odd arrivals); a
/// third polls `GetStats` at every [`POLL_EVERY`]th arrival, so stats
/// reads sit beside the submits.
fn scripts(jobs: &[Job]) -> Vec<ClientScript> {
    let mut scripts = vec![ClientScript::new(); 3];
    for (i, job) in jobs.iter().enumerate() {
        scripts[i % 2].submit_at(job.arrival, job.id, job.kernel, job.n, job.deadline);
        if (i + 1) % POLL_EVERY == 0 {
            scripts[2].poll_stats_at(job.arrival);
        }
    }
    scripts
}

/// The seconds one run phase took.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub wall_s: f64,
    /// On-CPU seconds of the (single) simulating thread.
    pub cpu_s: f64,
}

/// The run phase: drives the system under test through its public API
/// and returns the time it took. The `perf.*` profile scopes are inert
/// unless the profiler is enabled (traced runs).
pub fn run(setup: &mut Setup) -> Result<(Timing, Output), BoxError> {
    let Setup { jobs, sut } = setup;
    let mut out = Output::default();
    let cpu_started = thread_cpu_s()?;
    let started = Instant::now();
    let root = profile::scope("perf.run");
    let raw: Vec<JobRecord> = match sut {
        Sut::Engine { engine, policy } => engine.run(jobs, policy.as_mut())?.records,
        Sut::Shard(shard) => {
            for job in jobs.iter() {
                {
                    let _s = profile::scope("perf.shard.advance");
                    shard.advance(job.arrival)?;
                }
                {
                    let _s = profile::scope("perf.shard.offer");
                    shard.offer(*job)?;
                }
                let depth = shard.queue_depth();
                out.depth_max = out.depth_max.max(depth);
                out.depth_sum += depth as u64;
            }
            {
                let _s = profile::scope("perf.shard.drain");
                shard.drain()?;
            }
            shard.drain_finished()
        }
        Sut::Daemon { daemon, scripts } => {
            out.logs = {
                let _s = profile::scope("perf.daemon.run");
                daemon.run(scripts)?
            };
            {
                let _s = profile::scope("perf.client.decode");
                for log in &out.logs {
                    decode(log, |r| {
                        black_box(r);
                    })?;
                }
            }
            Vec::new()
        }
    };
    drop(root);
    let timing = Timing {
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: thread_cpu_s()? - cpu_started,
    };
    out.records = match sut {
        Sut::Daemon { daemon, .. } => daemon.fleet().completed().to_vec(),
        _ => raw
            .into_iter()
            .map(|record| FleetRecord { shard: 0, record })
            .collect(),
    };
    Ok((timing, out))
}

/// Decodes one session's outbound stream the way a socket reader would,
/// in [`CLIENT_CHUNK`]-byte reads pushed into an incremental [`Decoder`],
/// handing each response to `handle`.
pub fn decode(log: &SessionLog, mut handle: impl FnMut(Response)) -> Result<(), DecodeError> {
    let mut decoder = Decoder::new();
    for chunk in log.outbound.chunks(CLIENT_CHUNK) {
        decoder.push(chunk);
        while let Some(r) = decoder.next_message::<Response>()? {
            handle(r);
        }
    }
    decoder.finish()
}

/// Every session's responses, decoded as the client decodes them.
pub fn responses(logs: &[SessionLog]) -> Result<Vec<Vec<Response>>, DecodeError> {
    logs.iter()
        .map(|log| {
            let mut responses = Vec::new();
            decode(log, |r| responses.push(r))?;
            Ok(responses)
        })
        .collect()
}
