//! Connected components (Table VII: CC, AllReduce).
//!
//! Synchronous min-label propagation: every sweep relaxes each vertex's
//! label to the minimum over its neighbourhood, then an AllReduce (min)
//! over the full label array merges the partitions' views. The sweep count
//! comes from really running the algorithm on the graph. Labels are a full
//! `4 B × V` array per DPU, so the per-iteration collective is much larger
//! than BFS's bitmap — which is why the paper sees CC gain more from
//! PIMnet than BFS (5.6× vs less), and why its Fig 11 breakdown shows a
//! visible `Mem` component (the array exceeds the WRAM staging budget).

use pim_sim::Bytes;

use pim_arch::{OpCounts, SystemConfig};
use pimnet::collective::CollectiveKind;

use crate::graph::Graph;
use crate::program::{Phase, Program, Workload};

/// Connected components over a fixed graph.
#[derive(Debug, Clone)]
pub struct Cc {
    graph: &'static Graph,
    iterations: usize,
}

impl Cc {
    /// CC on the log-gowalla-scale graph (cached globally).
    #[must_use]
    pub fn log_gowalla() -> Self {
        let graph = Graph::log_gowalla();
        let (_, iterations) = graph.connected_components();
        Cc { graph, iterations }
    }

    /// Label-propagation sweeps until convergence.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl Workload for Cc {
    fn name(&self) -> &str {
        "CC"
    }

    fn comm_pattern(&self) -> CollectiveKind {
        CollectiveKind::AllReduce
    }

    fn program(&self, system: &SystemConfig) -> Program {
        let p = u64::from(system.geometry.dpus_per_channel());
        let v = self.graph.vertex_count() as u64;
        let e = self.graph.edge_count() as u64;
        // Per sweep, only the labels that changed (boundary vertices,
        // ~1/8 of V on power-law graphs) are exchanged; each sweep streams
        // every edge with a random label lookup (~125 effective cycles).
        let label_bytes = Bytes::new(v * 4 / 8);
        let per_sweep = OpCounts::new()
            .with_adds(e.div_ceil(p)) // min comparisons
            .with_loads(e.div_ceil(p) * 2)
            .with_stores(v.div_ceil(p))
            .with_other(e.div_ceil(p) * 125);
        let mut phases = Vec::new();
        for _ in 0..self.iterations {
            phases.push(Phase::Compute {
                per_dpu: per_sweep,
                imbalance: 0.2,
            });
            phases.push(Phase::collective(CollectiveKind::AllReduce, label_bytes));
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
    fn converges_in_a_handful_of_sweeps() {
        let cc = Cc::log_gowalla();
        assert!((3..=20).contains(&cc.iterations()), "{}", cc.iterations());
    }

    #[test]
    fn paper_headline_cc_speedup_band() {
        // Fig 10: baseline CC is >80% AllReduce; PIMnet cuts it to a few
        // percent and gains ~5.6x end to end.
        let sys = SystemConfig::paper();
        let prog = Cc::log_gowalla().program(&sys);
        let base = run_program(
            &prog,
            &sys,
            &BaselineHostBackend::new(sys),
            pim_sim::Probe::disabled(),
        )
        .unwrap();
        let pim = run_program(
            &prog,
            &sys,
            &PimnetBackend::paper(),
            pim_sim::Probe::disabled(),
        )
        .unwrap();
        assert!(
            base.comm_fraction() > 0.7,
            "baseline CC comm fraction {:.2}",
            base.comm_fraction()
        );
        let speedup = base.total().ratio(pim.total());
        assert!(
            (2.0..30.0).contains(&speedup),
            "CC speedup {speedup:.1}x out of band"
        );
        // The big label array overflows WRAM: Mem shows up under PIMnet.
        assert!(pim.comm.mem > pim_sim::SimTime::ZERO);
    }

    #[test]
    fn cc_gains_more_than_bfs() {
        // §VI-B: "the larger amount of communication for CC results in
        // higher performance improvement [than BFS]".
        let sys = SystemConfig::paper();
        let speedup = |prog: &crate::Program| {
            let b = run_program(
                prog,
                &sys,
                &BaselineHostBackend::new(sys),
                pim_sim::Probe::disabled(),
            )
            .unwrap();
            let p = run_program(
                prog,
                &sys,
                &PimnetBackend::paper(),
                pim_sim::Probe::disabled(),
            )
            .unwrap();
            b.total().ratio(p.total())
        };
        let cc = speedup(&Cc::log_gowalla().program(&sys));
        let bfs = speedup(&crate::bfs::Bfs::log_gowalla().program(&sys));
        assert!(cc > bfs, "CC {cc:.2}x should exceed BFS {bfs:.2}x");
    }
}
