//! Cycle-accurate flit/byte-level NoC simulation for the PIMnet topology.
//!
//! The paper's Fig 13 asks: what does PIMnet give up by replacing dynamic,
//! credit-based flow control with compile-time scheduling? The authors
//! rebuilt PIMnet's topology in Booksim 2.0 and compared the two. This
//! crate is our from-scratch equivalent:
//!
//! * [`credit`] — a cycle-driven, wormhole-routed network with per-hop
//!   input buffers and credit back-pressure. Every DPU injects its
//!   collective traffic the moment its compute finishes; convergent flows
//!   contend at the inter-chip crossbar channels and the shared bus, with
//!   real head-of-line blocking.
//! * [`scheduled`] — PIM-controlled playback: a global READY/START barrier
//!   after the *last* DPU finishes, then the static
//!   [`pimnet::schedule::CommSchedule`] steps run back-to-back,
//!   contention-free by construction.
//!
//! Both modes move byte-for-byte identical traffic (generated from the same
//! schedule) over byte-for-byte identical link bandwidths, so completion
//! times are directly comparable. The paper's result — AllReduce within
//! ~1 %, All-to-All ~19 % better under PIM control because credit-based
//! wormhole flow control suffers crossbar contention — falls out of the
//! same mechanisms here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod credit;
pub mod packet;
pub mod report;
pub mod scheduled;
pub mod traffic;

pub use config::NocConfig;
pub use credit::{simulate_credit, simulate_credit_packets};
pub use packet::inject_retransmissions;
pub use report::NocReport;
pub use scheduled::{simulate_scheduled, simulate_scheduled_repaired};
