//! Breadth-first search (Table VII: BFS, AllReduce).
//!
//! Vertex-partitioned frontier BFS as in the PrIM suite \[39\]: each DPU owns
//! a slice of the vertices, expands its part of the frontier, and an
//! AllReduce (bitwise OR, modeled as an elementwise reduce of the frontier
//! bitmap) merges the next frontier after every level. The phase structure
//! comes from *actually running* BFS on the graph, so frontier sizes and
//! level counts are real.

use pim_sim::Bytes;

use pim_arch::{OpCounts, SystemConfig};
use pimnet::collective::CollectiveKind;

use crate::graph::{Graph, LevelStats};
use crate::program::{Phase, Program, Workload};

/// BFS over a fixed graph, rooted at its highest-degree vertex.
#[derive(Debug, Clone)]
pub struct Bfs {
    graph: &'static Graph,
    levels: Vec<LevelStats>,
}

impl Bfs {
    /// BFS on the log-gowalla-scale graph (cached globally).
    #[must_use]
    pub fn log_gowalla() -> Self {
        let graph = Graph::log_gowalla();
        let (_, levels) = graph.bfs(graph.hub());
        Bfs { graph, levels }
    }

    /// The level statistics the traversal produced.
    #[must_use]
    pub fn levels(&self) -> &[LevelStats] {
        &self.levels
    }
}

impl Workload for Bfs {
    fn name(&self) -> &str {
        "BFS"
    }

    fn comm_pattern(&self) -> CollectiveKind {
        CollectiveKind::AllReduce
    }

    fn program(&self, system: &SystemConfig) -> Program {
        let p = u64::from(system.geometry.dpus_per_channel());
        let v = self.graph.vertex_count() as u64;
        // Frontier bitmap: one bit per vertex, AllReduced (OR) per level.
        let bitmap_bytes = Bytes::new(v.div_ceil(8));
        let mut phases = Vec::new();
        for level in &self.levels {
            let edges = level.edges_scanned as u64;
            // Edge expansion: per scanned edge, load the neighbour, test and
            // set the bitmap. Graph partitions are degree-skewed, hence the
            // higher imbalance.
            // ~400 effective cycles per scanned edge: random neighbour
            // fetches from MRAM through the DMA engine, bitmap tests and
            // branchy frontier updates (PrIM [39] measures BFS at hundreds
            // of cycles per edge on real DPUs).
            let per_dpu = OpCounts::new()
                .with_adds(edges.div_ceil(p) * 2)
                .with_loads(edges.div_ceil(p) * 2)
                .with_stores((level.frontier as u64).div_ceil(p))
                .with_other(edges.div_ceil(p) * 400);
            phases.push(Phase::Compute {
                per_dpu,
                imbalance: 0.25,
            });
            phases.push(Phase::collective(CollectiveKind::AllReduce, bitmap_bytes));
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
    fn level_structure_is_real() {
        let bfs = Bfs::log_gowalla();
        assert!((3..=12).contains(&bfs.levels().len()));
        // The middle levels carry most of the graph.
        let total: usize = bfs.levels().iter().map(|l| l.frontier).sum();
        assert!(total > 150_000, "giant component too small: {total}");
    }

    #[test]
    fn baseline_bfs_is_communication_bound() {
        // Fig 10: AllReduce is up to ~80% of baseline BFS/CC time.
        let sys = SystemConfig::paper();
        let prog = Bfs::log_gowalla().program(&sys);
        let base = run_program(
            &prog,
            &sys,
            &BaselineHostBackend::new(sys),
            pim_sim::Probe::disabled(),
        )
        .unwrap();
        assert!(
            base.comm_fraction() > 0.5,
            "baseline BFS comm fraction {:.2}",
            base.comm_fraction()
        );
        let pim = run_program(
            &prog,
            &sys,
            &PimnetBackend::paper(),
            pim_sim::Probe::disabled(),
        )
        .unwrap();
        assert!(
            pim.comm_fraction() < base.comm_fraction(),
            "PIMnet must shrink the communication share"
        );
        assert!(base.total() > pim.total());
    }
}
