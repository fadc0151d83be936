//! Deterministic cycle-driven simulation kernel for the `ntg` platform.
//!
//! This crate provides the timing substrate that every other `ntg` crate is
//! built on: a cycle counter with nanosecond conversion ([`ClockConfig`]),
//! the [`Component`] trait implemented by every simulated hardware block,
//! a generic [`Simulator`] engine that ticks a set of boxed components, and
//! small statistics helpers ([`stats::Counter`], [`stats::Histogram`]).
//!
//! # Design
//!
//! The kernel is intentionally *cycle-driven*, not event-driven: every
//! component is ticked once per simulated clock cycle in a fixed order.
//! This mirrors the bit- and cycle-true SystemC simulation style of the
//! MPARM platform that the reproduced paper (Mahadevan et al., DATE 2005)
//! is built on, and it is what makes the paper's headline claim
//! reproducible: replacing an instruction-set-simulator master by a tiny
//! traffic-generator master speeds the simulation up because the TG does
//! far less work *per cycle*, not because the kernel warps time.
//!
//! Determinism is guaranteed by two rules:
//!
//! 1. components are always ticked in the order they were added, and
//! 2. inter-component communication goes through handshaked channels
//!    (see `ntg-ocp`) whose values only become visible one cycle after
//!    they were produced, so intra-cycle tick order cannot leak.
//!
//! # Example
//!
//! ```
//! use ntg_sim::{Component, Simulator, Cycle};
//!
//! struct Counter { n: u64 }
//! impl Component for Counter {
//!     fn name(&self) -> &str { "counter" }
//!     fn tick(&mut self, _now: Cycle, _net: &mut ()) { self.n += 1; }
//! }
//!
//! let mut sim = Simulator::new();
//! sim.add(Box::new(Counter { n: 0 }));
//! sim.run_for(100);
//! assert_eq!(sim.now(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod component;
mod kernel;
pub mod observe;
pub mod sched;
pub mod stats;

pub use clock::{ClockConfig, Nanos};
pub use component::{Activity, Component};
pub use kernel::{RunOutcome, Simulator};
pub use observe::{Contention, LinkMetrics, WindowSeries};
pub use sched::{ActiveSet, WakeWheel};

/// A simulated clock-cycle index.
///
/// Cycle 0 is the first cycle ever executed; all timestamps in the
/// simulator are expressed in cycles and converted to nanoseconds only at
/// the trace-file boundary (see [`ClockConfig`]).
pub type Cycle = u64;
