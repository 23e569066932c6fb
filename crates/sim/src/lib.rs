//! Deterministic simulation kernel for the PIMnet reproduction.
//!
//! This crate is the bottom of the workspace's crate graph. It provides:
//!
//! * strongly-typed physical units ([`Bytes`], [`Bandwidth`], [`Frequency`],
//!   [`Cycles`]) whose arithmetic is exact integer math,
//! * a picosecond-resolution simulated clock ([`SimTime`]),
//! * a seeded random source ([`SimRng`]) and the coordinate hash the
//!   fault injector draws from ([`rng::hash_coords`]),
//! * a deterministic fan-out helper ([`par`]) that runs independent work
//!   items on a scoped thread pool and returns results in input order,
//! * a deterministic observability layer: structured event tracing
//!   ([`trace`]), typed counters ([`metrics`]), and the [`Probe`] handle
//!   bundling both for instrumented code paths.
//!
//! There is no event queue: PIMnet schedules every collective statically,
//! so the layers above price a collective by walking its schedule (or, for
//! the credit NoC, by stepping cycle by cycle) and never queue an event.
//!
//! Everything above (the architecture model, PIMnet itself, the NoC
//! simulator, the workloads) is built on these types, so simulation results
//! are reproducible bit-for-bit across platforms and runs.
//!
//! # Example
//!
//! ```
//! use pim_sim::{Bandwidth, Bytes, SimTime};
//!
//! // How long does it take to push a 32 KiB message through a 0.7 GB/s
//! // PIMnet inter-bank channel?
//! let t = Bandwidth::gbps(0.7).transfer_time(Bytes::kib(32));
//! assert_eq!(t, SimTime::from_ps(46_811_429));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod par;
pub mod probe;
pub mod rng;
mod time;
pub mod trace;
mod units;

pub use metrics::{Metrics, MetricsReport};
pub use probe::Probe;
pub use rng::SimRng;
pub use time::SimTime;
pub use trace::{Trace, TraceEvent, Tracer};
pub use units::{Bandwidth, Bytes, Cycles, Frequency};
