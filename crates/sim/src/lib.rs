//! # mpsoc-sim
//!
//! Deterministic discrete-event simulation kernel underpinning the
//! `mpsoc-offload` reproduction of *"Optimizing Offload Performance in
//! Heterogeneous MPSoCs"* (DATE 2024).
//!
//! The crate is deliberately small and generic: it knows nothing about
//! MPSoCs. It provides
//!
//! - [`Cycle`]: a strongly-typed simulation timestamp (1 cycle == 1 ns at
//!   the paper's 1 GHz testbench clock),
//! - [`EventQueue`] and [`Scheduler`]: a total-order, FIFO-stable event
//!   queue, and the handle an event handler schedules follow-up events
//!   through; a model pumps its own queue (the SoC does),
//! - timed hardware resource primitives ([`UnitResource`],
//!   [`ThroughputResource`], [`BankedResource`]) shared by the memory and
//!   interconnect models,
//! - [`stats`]: named counters and summaries for instrumentation,
//! - [`profile`]: a wall-clock scoped self-profiler (RAII guards into a
//!   per-site call tree) for measuring the simulator itself,
//! - [`rng::SplitMix64`]: a tiny deterministic RNG for reproducible
//!   stochastic workloads.
//!
//! # Example
//!
//! ```
//! use mpsoc_sim::{Cycle, EventQueue, Scheduler};
//!
//! /// A counter that re-schedules itself until it has ticked three times.
//! fn tick(ticks: &mut u32, sched: &mut Scheduler<()>) {
//!     *ticks += 1;
//!     if *ticks < 3 {
//!         sched.schedule_in(Cycle::new(10), ());
//!     }
//! }
//!
//! let mut queue = EventQueue::new();
//! queue.push(Cycle::ZERO, ());
//! let (mut ticks, mut now) = (0, Cycle::ZERO);
//! // The event loop: deliver the earliest event, let its handler
//! // schedule more through a `Scheduler` at the event's time.
//! while let Some(event) = queue.pop() {
//!     let (time, ()) = event.into_parts();
//!     now = time;
//!     tick(&mut ticks, &mut Scheduler::attach(&mut queue, now));
//! }
//! assert_eq!(ticks, 3);
//! assert_eq!(now, Cycle::new(20));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod queue;
mod resource;
mod time;

pub mod profile;
pub mod rng;
pub mod stats;

pub use queue::{EventQueue, ScheduledEvent, Scheduler};
pub use resource::{BankedResource, ThroughputResource, UnitResource};
pub use time::Cycle;
