//! DLRM embedding-table lookup (Table VII: EMB, ReduceScatter).
//!
//! The paper evaluates a synthetic table (4 M entries, embedding dimension
//! 64, pooling factor 8, batch 256, Cx-Ry column/row partitioning \[49\])
//! and three production-shaped models RM1–RM3 \[63\]. The production traces
//! are proprietary; the RM profiles here are synthetic stand-ins whose
//! lookup/pooling/batch shapes reproduce the paper's qualitative ordering —
//! RM3 communicates the most relative to its memory work, so it gains the
//! most from PIMnet (§VI-B).
//!
//! With row-wise partitioning, each row shard produces a *partial* pooled
//! sum for every batch element, and a ReduceScatter across shards merges
//! them.

use pim_sim::Bytes;

use pim_arch::{OpCounts, SystemConfig};
use pimnet::collective::CollectiveKind;

use crate::error::WorkloadError;
use crate::program::{Phase, Program, Workload};

/// An embedding table: `entries × dim` values, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    dim: usize,
    values: Vec<f32>,
}

impl EmbeddingTable {
    /// Deterministic synthetic table (`value = f(row, column)`).
    #[must_use]
    pub fn synthetic(entries: usize, dim: usize) -> Self {
        let values = (0..entries * dim)
            .map(|i| ((i % 97) as f32) * 0.25 - 12.0)
            .collect();
        EmbeddingTable { dim, values }
    }

    /// Number of rows (zero for a degenerate zero-dim table).
    #[must_use]
    pub fn entries(&self) -> usize {
        self.values.len().checked_div(self.dim).unwrap_or(0)
    }

    /// One embedding row.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::IndexOutOfBounds`] if `idx` names a row past the
    /// end of the table.
    pub fn row(&self, idx: usize) -> Result<&[f32], WorkloadError> {
        if idx >= self.entries() {
            return Err(WorkloadError::IndexOutOfBounds {
                what: "embedding table row",
                index: idx,
                len: self.entries(),
            });
        }
        Ok(&self.values[idx * self.dim..(idx + 1) * self.dim])
    }

    /// Reference pooled lookup: sum of the rows named by each bag of
    /// indices (one bag per batch element).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::IndexOutOfBounds`] if any bag names a row past the
    /// end of the table.
    pub fn pooled_lookup(&self, bags: &[Vec<usize>]) -> Result<Vec<Vec<f32>>, WorkloadError> {
        bags.iter()
            .map(|bag| {
                let mut out = vec![0.0f32; self.dim];
                for &idx in bag {
                    for (o, v) in out.iter_mut().zip(self.row(idx)?) {
                        *o += v;
                    }
                }
                Ok(out)
            })
            .collect()
    }

    /// The PIM execution: rows are sharded across `row_parts` banks; each
    /// bank pools the rows it owns into a *partial* per batch element, and
    /// the partials are summed — the data movement of the ReduceScatter
    /// phase. Must equal [`Self::pooled_lookup`].
    ///
    /// # Errors
    ///
    /// [`WorkloadError::ZeroPartitions`] if `row_parts` is zero;
    /// [`WorkloadError::IndexOutOfBounds`] for out-of-table indices.
    pub fn sharded_pooled_lookup(
        &self,
        bags: &[Vec<usize>],
        row_parts: usize,
    ) -> Result<Vec<Vec<f32>>, WorkloadError> {
        if row_parts == 0 {
            return Err(WorkloadError::ZeroPartitions {
                what: "embedding row sharding",
            });
        }
        // Every index must resolve, even ones a shard filter would skip.
        for bag in bags {
            for &idx in bag {
                self.row(idx)?;
            }
        }
        let stripe = self.entries().div_ceil(row_parts).max(1);
        let mut out = vec![vec![0.0f32; self.dim]; bags.len()];
        for shard in 0..row_parts {
            let lo = shard * stripe;
            let hi = (lo + stripe).min(self.entries());
            for (b, bag) in bags.iter().enumerate() {
                // This shard's partial pooled sum for batch element b...
                let mut partial = vec![0.0f32; self.dim];
                for &idx in bag.iter().filter(|&&i| i >= lo && i < hi) {
                    for (o, v) in partial.iter_mut().zip(self.row(idx)?) {
                        *o += v;
                    }
                }
                // ...reduced across shards (the collective).
                for (o, v) in out[b].iter_mut().zip(&partial) {
                    *o += v;
                }
            }
        }
        Ok(out)
    }
}

/// An embedding-lookup workload (one table shard configuration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Emb {
    label: String,
    /// Table entries.
    pub entries: u64,
    /// Embedding dimension.
    pub dim: u64,
    /// Rows pooled (summed) per output.
    pub pooling: u64,
    /// Batch size (lookups per inference step).
    pub batch: u64,
    /// Column-wise partitions (the `Cx` of Cx-Ry).
    pub col_parts: u64,
    /// Number of embedding tables processed per step.
    pub tables: u64,
}

impl Emb {
    /// The paper's synthetic table: 4 M entries, dim 64, pooling 8, batch
    /// 256, C4 column partitioning.
    #[must_use]
    pub fn synth() -> Self {
        Emb {
            label: "EMB_Synth".into(),
            entries: 4_000_000,
            dim: 64,
            pooling: 8,
            batch: 256,
            col_parts: 4,
            tables: 8,
        }
    }

    /// RM1 stand-in: compute-heavy (large pooling), light communication.
    #[must_use]
    pub fn rm1() -> Self {
        Emb {
            label: "EMB_RM1".into(),
            entries: 1_000_000,
            dim: 32,
            pooling: 80,
            batch: 128,
            col_parts: 2,
            tables: 8,
        }
    }

    /// RM2 stand-in: balanced.
    #[must_use]
    pub fn rm2() -> Self {
        Emb {
            label: "EMB_RM2".into(),
            entries: 4_000_000,
            dim: 64,
            pooling: 20,
            batch: 256,
            col_parts: 4,
            tables: 16,
        }
    }

    /// RM3 stand-in: wide embeddings, tiny pooling — communication-heavy,
    /// the biggest PIMnet win of the EMB family.
    #[must_use]
    pub fn rm3() -> Self {
        Emb {
            label: "EMB_RM3".into(),
            entries: 8_000_000,
            dim: 128,
            pooling: 4,
            batch: 512,
            col_parts: 4,
            tables: 16,
        }
    }
}

impl Workload for Emb {
    fn name(&self) -> &str {
        &self.label
    }

    fn comm_pattern(&self) -> CollectiveKind {
        CollectiveKind::ReduceScatter
    }

    fn program(&self, system: &SystemConfig) -> Program {
        let p = u64::from(system.geometry.dpus_per_channel());
        let row_parts = (p / self.col_parts).max(1);
        // Per DPU, per table: batch/row-shard lookups of pooling rows, each
        // dim/col_parts wide, summed.
        let dim_slice = self.dim.div_ceil(self.col_parts);
        let lookups = self.batch.div_ceil(row_parts) * self.pooling;
        // ~420 effective cycles per lookup: a random embedding row is a
        // fresh MRAM row activation plus a DMA descriptor (~1.2 us).
        let per_table = OpCounts::new()
            .with_adds(lookups * dim_slice)
            .with_loads(lookups * dim_slice + lookups) // rows + indices
            .with_stores(self.batch.div_ceil(row_parts) * dim_slice)
            .with_other(lookups * 420);
        // Partial pooled outputs: batch x dim_slice x 4 B per DPU, reduced
        // across the row shards.
        let rs_bytes = Bytes::new(self.batch * dim_slice * 4);
        let mut phases = Vec::new();
        for _ in 0..self.tables {
            phases.push(Phase::Compute {
                per_dpu: per_table,
                imbalance: 0.15, // skewed index popularity
            });
            phases.push(Phase::collective(CollectiveKind::ReduceScatter, rs_bytes));
        }
        Program::new(phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::run_program;
    use pimnet::backends::{BaselineHostBackend, PimnetBackend};

    fn speedup(w: &Emb) -> f64 {
        let sys = SystemConfig::paper();
        let prog = w.program(&sys);
        let b = run_program(
            &prog,
            &sys,
            &BaselineHostBackend::new(sys),
            pim_sim::Probe::disabled(),
        )
        .unwrap();
        let p = run_program(
            &prog,
            &sys,
            &PimnetBackend::paper(),
            pim_sim::Probe::disabled(),
        )
        .unwrap();
        b.total().ratio(p.total())
    }

    #[test]
    fn rm3_gains_the_most() {
        // §VI-B: "RM3 results in the biggest improvement ... because of a
        // higher amount of communication and a relatively low amount of
        // memory access".
        let rm1 = speedup(&Emb::rm1());
        let rm2 = speedup(&Emb::rm2());
        let rm3 = speedup(&Emb::rm3());
        assert!(rm3 > rm2, "RM3 {rm3:.2}x should beat RM2 {rm2:.2}x");
        assert!(rm3 > rm1, "RM3 {rm3:.2}x should beat RM1 {rm1:.2}x");
    }

    #[test]
    fn all_profiles_speed_up() {
        for w in [Emb::synth(), Emb::rm1(), Emb::rm2(), Emb::rm3()] {
            let s = speedup(&w);
            assert!(s > 1.0, "{} speedup {s:.2}x", w.name());
        }
    }

    #[test]
    fn sharded_lookup_equals_direct() {
        let table = EmbeddingTable::synthetic(1_000, 16);
        let bags: Vec<Vec<usize>> = (0..32)
            .map(|b| (0..8).map(|i| (b * 131 + i * 977) % 1_000).collect())
            .collect();
        let direct = table.pooled_lookup(&bags).unwrap();
        for shards in [1usize, 4, 64, 1_000] {
            let sharded = table.sharded_pooled_lookup(&bags, shards).unwrap();
            for (d, s) in direct.iter().zip(&sharded) {
                for (a, b) in d.iter().zip(s) {
                    assert!((a - b).abs() < 1e-3, "{shards} shards: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn table_accessors() {
        let t = EmbeddingTable::synthetic(10, 4);
        assert_eq!(t.entries(), 10);
        assert_eq!(t.row(3).unwrap().len(), 4);
    }

    #[test]
    fn out_of_table_lookups_are_typed_errors() {
        use crate::error::WorkloadError;
        let t = EmbeddingTable::synthetic(10, 4);
        assert_eq!(
            t.row(10),
            Err(WorkloadError::IndexOutOfBounds {
                what: "embedding table row",
                index: 10,
                len: 10,
            })
        );
        let bad_bags = vec![vec![3usize, 42]];
        assert!(t.pooled_lookup(&bad_bags).is_err());
        // Sharded lookup rejects the same bad index even when the owning
        // shard filter would have skipped it.
        assert!(t.sharded_pooled_lookup(&bad_bags, 4).is_err());
        assert!(matches!(
            t.sharded_pooled_lookup(&[vec![1]], 0),
            Err(WorkloadError::ZeroPartitions { .. })
        ));
        // A zero-dim table has no rows rather than a divide-by-zero.
        assert_eq!(EmbeddingTable::synthetic(10, 0).entries(), 0);
    }

    #[test]
    fn synth_shape() {
        let prog = Emb::synth().program(&SystemConfig::paper());
        assert_eq!(prog.phases.len(), 16);
        // 256 batch x 16 dims x 4 B = 16 KiB per table.
        assert_eq!(prog.total_collective_bytes(), Bytes::kib(16) * 8);
    }
}
