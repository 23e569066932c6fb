//! Workload suite for the PIMnet reproduction (paper Table VII).
//!
//! Every workload of the paper's evaluation is implemented as a [`Workload`]
//! that compiles itself — for a given [`pim_arch::SystemConfig`] — into a
//! [`program::Program`]: an alternating sequence of per-DPU compute phases
//! (instruction counts fed through the DPU timing model) and collective
//! communication phases (timed by whichever
//! [`pimnet::backends::CollectiveBackend`] is under evaluation). The
//! compute side is identical across backends by construction, exactly as
//! the paper requires for its Fig 10 comparison.
//!
//! | workload | description | collective |
//! |----------|-------------|------------|
//! | [`emb::Emb`] | DLRM embedding-table lookup (synthetic + RM1–RM3 profiles) | ReduceScatter |
//! | [`ntt::NttWorkload`] | 2D Number Theoretic Transform, `N = 2^16` | All-to-All |
//! | [`gemv::Gemv`] | dense matrix–vector multiplication | ReduceScatter |
//! | [`mlp::Mlp`] | multi-layer perceptron (tensor parallel) | AllReduce |
//! | [`spmv::Spmv`] | sparse matrix–vector (SparseP DBCOO, 32 vertical partitions) | ReduceScatter |
//! | [`bfs::Bfs`] | breadth-first search on a log-gowalla-like graph | AllReduce |
//! | [`cc::Cc`] | connected components on the same graph | AllReduce |
//! | [`join::HashJoin`] | hash join, 64 M tuples | All-to-All |
//!
//! The irregular workloads are *actually executed*: [`graph`] generates a
//! seeded power-law graph at the published log-gowalla scale and the
//! BFS/CC phase structure comes from running the real traversal;
//! [`ntt`] contains a complete NTT implementation over the Goldilocks
//! prime, property-tested against the naive DFT.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bfs;
pub mod cc;
pub mod emb;
pub mod error;
pub mod gemv;
pub mod graph;
pub mod join;
pub mod mlp;
pub mod ntt;
pub mod program;
pub mod spmv;

pub use error::WorkloadError;
pub use program::{run_program, ExecutionReport, Phase, Program, Workload};

use pim_arch::SystemConfig;

/// Every paper workload with its representative configuration, in the
/// Fig 10 order.
#[must_use]
pub fn paper_suite() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(bfs::Bfs::log_gowalla()),
        Box::new(cc::Cc::log_gowalla()),
        Box::new(mlp::Mlp::new(1024)),
        Box::new(gemv::Gemv::new(1024, 64)),
        Box::new(emb::Emb::synth()),
        Box::new(emb::Emb::rm1()),
        Box::new(emb::Emb::rm2()),
        Box::new(emb::Emb::rm3()),
        Box::new(ntt::NttWorkload::paper()),
        Box::new(spmv::Spmv::paper()),
        Box::new(join::HashJoin::paper()),
    ]
}

/// Runs every suite workload against one backend (convenience for the
/// figures and tests).
///
/// # Errors
///
/// Propagates the first backend error (unsupported collectives are mapped
/// to `None` instead of failing the sweep).
pub fn run_suite(
    system: &SystemConfig,
    backend: &dyn pimnet::backends::CollectiveBackend,
) -> Result<Vec<(String, Option<ExecutionReport>)>, pimnet::PimnetError> {
    let mut out = Vec::new();
    for w in paper_suite() {
        let program = w.program(system);
        if program
            .collective_kinds()
            .iter()
            .any(|&k| !backend.supports(k))
        {
            out.push((w.name().to_string(), None));
            continue;
        }
        let report = program::run_program(&program, system, backend, pim_sim::Probe::disabled())?;
        out.push((w.name().to_string(), Some(report)));
    }
    Ok(out)
}
