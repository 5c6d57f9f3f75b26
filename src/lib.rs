//! # mpsoc
//!
//! Meta-crate for the `mpsoc-offload` workspace: a from-scratch Rust
//! reproduction of *"Optimizing Offload Performance in Heterogeneous
//! MPSoCs"* (Colagrande & Benini, DATE 2024).
//!
//! This crate simply re-exports the public API of every workspace member
//! under one roof so that examples and downstream users can depend on a
//! single crate:
//!
//! - [`sim`]: deterministic discrete-event simulation kernel,
//! - [`mem`]: main memory and banked TCDM models,
//! - [`noc`]: host-to-cluster interconnect with the multicast extension,
//! - [`isa`]: micro-op ISA and in-order accelerator core timing model,
//! - [`soc`]: the assembled Manticore-class heterogeneous MPSoC,
//! - [`kernels`]: the data-parallel kernel zoo and golden references,
//! - [`offload`]: the paper's contribution — co-designed offload runtime,
//!   analytic runtime model (Eq. 1), MAPE validation (Eq. 2) and offload
//!   decision solver (Eq. 3),
//! - [`lint`]: static verifier for offload programs and job descriptors
//!   — dataflow, SSR-protocol and address-interval checks with stable
//!   diagnostic codes,
//! - [`sched`]: multi-tenant offload scheduling on top of the decision
//!   model — admission control (optionally lint-gated), spatial
//!   partitioning, pluggable policies and a deterministic discrete-event
//!   engine,
//! - [`serve`]: the sharded serving front-end — binary job protocol,
//!   deterministic session daemon, load-balanced shard fleet with work
//!   stealing, and fleet SLO telemetry,
//! - [`telemetry`]: typed-event traces, per-phase cycle attribution with
//!   Eq. 1 residual audits, and Chrome trace-event (Perfetto) export.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete offload round-trip, or run:
//!
//! ```text
//! cargo run --example quickstart
//! ```

#![forbid(unsafe_code)]

pub use mpsoc_isa as isa;
pub use mpsoc_kernels as kernels;
pub use mpsoc_lint as lint;
pub use mpsoc_mem as mem;
pub use mpsoc_noc as noc;
pub use mpsoc_offload as offload;
pub use mpsoc_sched as sched;
pub use mpsoc_serve as serve;
pub use mpsoc_sim as sim;
pub use mpsoc_soc as soc;
pub use mpsoc_telemetry as telemetry;
