//! Dense matrix–vector multiplication (Table VII: GEMV, ReduceScatter).
//!
//! Tensor-parallel partitioning, as in PID-Comm \[67\]: the matrix is split
//! column-wise across DPUs, each DPU produces a full-length *partial*
//! output vector, and a ReduceScatter combines the partials — after every
//! single GEMV of the batch, which is why GEMV sees more communication
//! benefit than MLP despite identical multiply counts (§VI-B).

use pim_sim::Bytes;

use pim_arch::{OpCounts, SystemConfig};
use pimnet::collective::CollectiveKind;

use crate::program::{Phase, Program, Workload};

/// A batched square GEMV: `batch` products with an `n × n` matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gemv {
    /// Matrix dimension (the paper evaluates 1024 and 2048).
    pub n: u64,
    /// Number of input vectors (64 and 128 in the paper).
    pub batch: u64,
}

impl Gemv {
    /// Creates a batched GEMV workload.
    #[must_use]
    pub fn new(n: u64, batch: u64) -> Self {
        Gemv { n, batch }
    }
}

impl Workload for Gemv {
    fn name(&self) -> &str {
        "GEMV"
    }

    fn comm_pattern(&self) -> CollectiveKind {
        CollectiveKind::ReduceScatter
    }

    fn program(&self, system: &SystemConfig) -> Program {
        let p = u64::from(system.geometry.dpus_per_channel());
        let cols_per_dpu = self.n.div_ceil(p);
        // One GEMV on one DPU: n rows x cols_per_dpu MACs.
        let macs = self.n * cols_per_dpu;
        // Same ~20-cycle per-MAC loop/addressing overhead as MLP.
        let per_gemv = OpCounts::new()
            .with_muls(macs)
            .with_adds(macs)
            .with_loads(macs + self.n)
            .with_stores(self.n)
            .with_other(macs * 20);
        // Partial output: n x 4 B per DPU, reduce-scattered each iteration.
        let rs_bytes = Bytes::new(self.n * 4);
        let mut phases = Vec::with_capacity(self.batch as usize * 2);
        for _ in 0..self.batch {
            phases.push(Phase::compute(per_gemv));
            phases.push(Phase::collective(CollectiveKind::ReduceScatter, rs_bytes));
        }
        Program::new(phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn communicates_after_every_gemv() {
        let p = Gemv::new(1024, 64).program(&SystemConfig::paper());
        assert_eq!(p.phases.len(), 128);
        assert_eq!(p.collective_kinds(), vec![CollectiveKind::ReduceScatter]);
        assert_eq!(p.total_collective_bytes(), Bytes::kib(4) * 64);
    }

    #[test]
    fn work_scales_with_matrix_size() {
        let sys = SystemConfig::paper();
        let small = crate::program::run_program(
            &Gemv::new(1024, 64).program(&sys),
            &sys,
            &pimnet::backends::PimnetBackend::paper(),
            pim_sim::Probe::disabled(),
        )
        .unwrap();
        let large = crate::program::run_program(
            &Gemv::new(2048, 64).program(&sys),
            &sys,
            &pimnet::backends::PimnetBackend::paper(),
            pim_sim::Probe::disabled(),
        )
        .unwrap();
        assert!(large.compute.as_ps() >= small.compute.as_ps() * 3);
    }
}
