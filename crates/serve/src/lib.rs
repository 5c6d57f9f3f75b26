//! # mpsoc-serve
//!
//! The serving front-end over the MPSoC offload substrate: jobs arrive
//! over a wire protocol, a daemon multiplexes client sessions, and a
//! load-balanced fleet of simulated SoC shards executes them — the
//! "heavy traffic from millions of users" story on top of the paper's
//! per-job offload machinery.
//!
//! The stack, bottom-up:
//!
//! 1. **Protocol** ([`proto`]) — `SubmitJob` and `GetStats` in;
//!    `JobAccepted`, `JobRejected`, `JobComplete` and `Stats` out.
//!    Plain serde messages, client-scoped job numbers.
//! 2. **Framing** ([`wire`]) — length-prefixed binary frames (magic +
//!    version + u32 length + JSON payload) with an incremental
//!    [`Decoder`] and typed [`DecodeError`]s for truncated, oversized,
//!    bad-magic and bad-version streams.
//! 3. **Transport** ([`transport`]) — deterministic in-process duplex
//!    pipes (CI needs no sockets).
//! 4. **Fleet** ([`fleet`]) — independent [`ShardSim`] machines behind a
//!    balancer with pluggable placement (round-robin, least-loaded,
//!    model-guided on Eq. 1 backlog), queue-depth backpressure, work
//!    stealing of queued-but-unstarted jobs, and self-healing: shard
//!    health states ([`fleet::ShardState`]) driven by auto-quarantine,
//!    failover of a dead shard's queue to survivors, and bounded
//!    redirect of backpressure-rejected jobs.
//! 5. **Daemon** ([`daemon`]) — the event loop tying scripts → frames →
//!    fleet → time-ordered response streams, deterministically.
//! 6. **SLO** ([`slo`]) — fleet p50/p99 from exact per-shard histogram
//!    merges, attainment, utilization, steal/reject accounting.
//! 7. **Metrics** ([`metrics`]) — the live [`StatsReport`] rendered as
//!    canonical JSON or Prometheus-style text for scrapers, with
//!    per-shard counters folded into `{shard=…}` labels.
//!
//! Determinism is end-to-end: the same client scripts against the same
//! fleet configuration produce byte-identical response streams and
//! reports ([`daemon::Daemon::run`] is replayable), which is what lets
//! CI gate on byte-equality of two serving-study runs.
//!
//! ## Example
//!
//! ```
//! use mpsoc_sched::{KernelId, ModelTable};
//! use mpsoc_serve::{
//!     ClientScript, Daemon, Fleet, FleetConfig, FleetSlo, PlacementPolicy, Response,
//! };
//!
//! let fleet = Fleet::analytic(
//!     FleetConfig {
//!         shards: 2,
//!         clusters_per_shard: 4,
//!         queue_limit: 8,
//!         placement: PlacementPolicy::LeastLoaded,
//!         steal: true,
//!         redirect_budget: 0,
//!         failover: false,
//!     },
//!     &ModelTable::paper_defaults(),
//! );
//! let mut script = ClientScript::new();
//! script.submit_at(0, 1, KernelId::Daxpy, 1024, 100_000);
//! let mut daemon = Daemon::new(fleet);
//! let logs = daemon.run(&[script]).unwrap();
//! let responses = logs[0].responses().unwrap();
//! assert!(matches!(responses[0], Response::JobAccepted { .. }));
//! let slo = FleetSlo::from_fleet(daemon.fleet());
//! assert_eq!(slo.completed, 1);
//! ```
//!
//! [`ShardSim`]: mpsoc_sched::ShardSim
//! [`Decoder`]: wire::Decoder
//! [`DecodeError`]: wire::DecodeError

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod fleet;
pub mod metrics;
pub mod proto;
pub mod slo;
pub mod transport;
pub mod wire;

pub use daemon::{ClientScript, Daemon, ServeError, SessionLog};
pub use fleet::{Fleet, FleetConfig, FleetRecord, PlacementPolicy, ShardState, ALL_PLACEMENTS};
pub use metrics::{prometheus_text, stats_json};
pub use proto::{Request, Response, StatsReport, PROTOCOL_VERSION};
pub use slo::{FleetSlo, ShardSlo};
pub use transport::Duplex;
pub use wire::{encode, DecodeError, Decoder};
