//! Multi-layer perceptron inference (Table VII: MLP, AllReduce).
//!
//! Three fully-connected `d × d` layers, tensor-parallel: each layer's
//! weight matrix is column-split across DPUs and an AllReduce combines the
//! activations after every layer. On UPMEM the software-emulated multiply
//! dominates, which is why the paper sees only ~1.3× from PIMnet here —
//! and ~40× once Fig 15 swaps in GDDR6-AiM-class compute.

use pim_sim::Bytes;

use pim_arch::{OpCounts, SystemConfig};
use pimnet::collective::CollectiveKind;

use crate::program::{Phase, Program, Workload};

/// An MLP with square layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mlp {
    /// Layer width (256 / 512 / 1024 in the paper).
    pub width: u64,
    /// Number of layers.
    pub layers: u32,
}

impl Mlp {
    /// Creates a 3-layer MLP of the given width.
    #[must_use]
    pub fn new(width: u64) -> Self {
        Mlp { width, layers: 3 }
    }
}

impl Workload for Mlp {
    fn name(&self) -> &str {
        "MLP"
    }

    fn comm_pattern(&self) -> CollectiveKind {
        CollectiveKind::AllReduce
    }

    fn program(&self, system: &SystemConfig) -> Program {
        let p = u64::from(system.geometry.dpus_per_channel());
        let cols_per_dpu = self.width.div_ceil(p);
        let macs = self.width * cols_per_dpu;
        // ~20 extra cycles per MAC: loop control, operand addressing and
        // WRAM tile management around the emulated multiply.
        let per_layer = OpCounts::new()
            .with_muls(macs)
            .with_adds(macs + self.width) // MACs + activation
            .with_loads(macs + self.width)
            .with_stores(self.width)
            .with_other(macs * 20);
        let ar_bytes = Bytes::new(self.width * 4);
        let mut phases = Vec::new();
        for _ in 0..self.layers {
            phases.push(Phase::compute(per_layer));
            phases.push(Phase::collective(CollectiveKind::AllReduce, ar_bytes));
        }
        Program::new(phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::run_program;
    use pimnet::backends::{BaselineHostBackend, PimnetBackend};

    #[test]
    fn three_layers_three_allreduces() {
        let p = Mlp::new(1024).program(&SystemConfig::paper());
        assert_eq!(p.phases.len(), 6);
        assert_eq!(p.collective_kinds(), vec![CollectiveKind::AllReduce]);
    }

    #[test]
    fn mlp_is_compute_bound_on_upmem() {
        // §VI-B: the emulated multiply makes MLP mostly compute, so the
        // PIMnet speedup is modest (the paper reports ~1.3x).
        let sys = SystemConfig::paper();
        let prog = Mlp::new(1024).program(&sys);
        let pim = run_program(
            &prog,
            &sys,
            &PimnetBackend::paper(),
            pim_sim::Probe::disabled(),
        )
        .unwrap();
        let base = run_program(
            &prog,
            &sys,
            &BaselineHostBackend::new(sys),
            pim_sim::Probe::disabled(),
        )
        .unwrap();
        assert!(
            pim.comm_fraction() < 0.3,
            "MLP on PIMnet should be compute-dominated: {:.2}",
            pim.comm_fraction()
        );
        let speedup = base.total().ratio(pim.total());
        assert!(
            (1.0..4.0).contains(&speedup),
            "MLP speedup {speedup:.2} should be modest"
        );
    }
}
