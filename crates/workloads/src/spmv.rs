//! Sparse matrix–vector multiplication (Table VII: SpMV, ReduceScatter).
//!
//! SparseP-style \[31\] 2D DBCOO partitioning with 32 vertical partitions:
//! the matrix is tiled into a `vertical × horizontal` grid of COO blocks,
//! one per DPU. After the local block-SpMV, the DPUs sharing a row stripe
//! hold partial output vectors that a ReduceScatter merges — the paper
//! reports 2.43× from doing that merge over PIMnet instead of the host.

use pim_sim::rng::SimRng;
use pim_sim::Bytes;

use pim_arch::{OpCounts, SystemConfig};
use pimnet::collective::CollectiveKind;

use crate::error::WorkloadError;
use crate::program::{Phase, Program, Workload};

/// A sparse matrix in COO form (the DBCOO partitioning unit of SparseP).
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix {
    /// Rows (= columns; square).
    pub n: usize,
    /// `(row, col, value)` triples, unsorted.
    pub entries: Vec<(u32, u32, f64)>,
}

impl CooMatrix {
    /// Seeded random sparse matrix with about `nnz` non-zeros.
    #[must_use]
    pub fn random(n: usize, nnz: usize, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed);
        let entries = (0..nnz)
            .map(|_| {
                (
                    rng.gen_range(0..n as u32),
                    rng.gen_range(0..n as u32),
                    f64::from(rng.gen_range(-100i32..=100)),
                )
            })
            .collect();
        CooMatrix { n, entries }
    }

    /// Dense reference SpMV: `y = A x`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::ShapeMismatch`] if `x.len() != n`;
    /// [`WorkloadError::IndexOutOfBounds`] if an entry's row or column
    /// lies outside the matrix.
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>, WorkloadError> {
        if x.len() != self.n {
            return Err(WorkloadError::ShapeMismatch {
                what: "spmv input vector",
                expected: self.n,
                got: x.len(),
            });
        }
        let mut y = vec![0.0; self.n];
        for &(r, c, v) in &self.entries {
            let (r, c) = (r as usize, c as usize);
            let oob = r.max(c);
            if oob >= self.n {
                return Err(WorkloadError::IndexOutOfBounds {
                    what: "coo matrix entry",
                    index: oob,
                    len: self.n,
                });
            }
            y[r] += v * x[c];
        }
        Ok(y)
    }

    /// 2D DBCOO partitioning into a `vertical × horizontal` grid of COO
    /// blocks — one block per PIM bank, exactly as the workload maps it.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::ZeroPartitions`] if either grid dimension is zero;
    /// [`WorkloadError::IndexOutOfBounds`] if an entry lies outside the
    /// matrix (it would not map to any block).
    pub fn partition_2d(
        &self,
        vertical: usize,
        horizontal: usize,
    ) -> Result<Vec<CooMatrix>, WorkloadError> {
        if vertical == 0 || horizontal == 0 {
            return Err(WorkloadError::ZeroPartitions {
                what: "2d dbcoo partitioning",
            });
        }
        let row_stripe = self.n.div_ceil(vertical).max(1);
        let col_stripe = self.n.div_ceil(horizontal).max(1);
        let mut blocks = vec![
            CooMatrix {
                n: self.n,
                entries: Vec::new()
            };
            vertical * horizontal
        ];
        for &(r, c, v) in &self.entries {
            let (r, c) = (r as usize, c as usize);
            let oob = r.max(c);
            if oob >= self.n {
                return Err(WorkloadError::IndexOutOfBounds {
                    what: "coo matrix entry",
                    index: oob,
                    len: self.n,
                });
            }
            let bi = (r / row_stripe) * horizontal + c / col_stripe;
            blocks[bi].entries.push((r as u32, c as u32, v));
        }
        Ok(blocks)
    }

    /// The partitioned SpMV the PIM system runs: every block computes a
    /// partial output, and the per-stripe partials are reduced — the data
    /// movement the ReduceScatter phase performs. Must equal [`Self::spmv`].
    ///
    /// # Errors
    ///
    /// Propagates [`Self::partition_2d`] and [`Self::spmv`] errors.
    pub fn partitioned_spmv(
        &self,
        x: &[f64],
        vertical: usize,
        horizontal: usize,
    ) -> Result<Vec<f64>, WorkloadError> {
        let mut y = vec![0.0; self.n];
        for block in self.partition_2d(vertical, horizontal)? {
            // Each block's partial is produced independently on its bank...
            let partial = block.spmv(x)?;
            // ...and reduced into the stripe's output (the collective).
            for (i, v) in partial.into_iter().enumerate() {
                y[i] += v;
            }
        }
        Ok(y)
    }
}

/// A 2D-partitioned SpMV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spmv {
    /// Matrix rows (= columns; square, graph-like).
    pub rows: u64,
    /// Non-zero count.
    pub nnz: u64,
    /// Vertical partitions (32 in the paper's configuration).
    pub vertical_partitions: u64,
}

impl Spmv {
    /// The paper configuration: a gowalla-scale sparse matrix with 32
    /// vertical partitions.
    #[must_use]
    pub fn paper() -> Self {
        Spmv {
            rows: 196_591,
            nnz: 1_900_000,
            vertical_partitions: 32,
        }
    }
}

impl Workload for Spmv {
    fn name(&self) -> &str {
        "SpMV"
    }

    fn comm_pattern(&self) -> CollectiveKind {
        CollectiveKind::ReduceScatter
    }

    fn program(&self, system: &SystemConfig) -> Program {
        let p = u64::from(system.geometry.dpus_per_channel());
        // Each DPU's COO block: nnz/p entries; per entry one MAC plus COO
        // index decoding.
        let nnz_per_dpu = self.nnz.div_ceil(p);
        // ~220 effective cycles per non-zero: COO decode plus a random
        // x[col] gather from MRAM (SparseP measures DPUs heavily
        // latency-bound on exactly this access).
        let compute = OpCounts::new()
            .with_muls(nnz_per_dpu)
            .with_adds(nnz_per_dpu)
            .with_loads(nnz_per_dpu * 3) // value + row + col
            .with_stores(nnz_per_dpu)
            .with_other(nnz_per_dpu * 220);
        // Partial outputs: each DPU holds its row stripe's partial vector
        // (rows / vertical_partitions values), reduced across the stripe.
        let rs_bytes = Bytes::new(self.rows.div_ceil(self.vertical_partitions) * 4);
        Program::new(vec![
            Phase::Compute {
                per_dpu: compute,
                imbalance: 0.3, // COO blocks are very uneven
            },
            Phase::collective(CollectiveKind::ReduceScatter, rs_bytes),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::run_program;
    use pimnet::backends::{BaselineHostBackend, PimnetBackend};

    #[test]
    fn paper_speedup_band() {
        // The paper reports 2.43x end-to-end from accelerating the partial
        // sum Reduce-Scatter.
        let sys = SystemConfig::paper();
        let prog = Spmv::paper().program(&sys);
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
        let speedup = base.total().ratio(pim.total());
        assert!(
            (1.3..8.0).contains(&speedup),
            "SpMV speedup {speedup:.2}x out of band"
        );
    }

    #[test]
    fn partitioned_spmv_equals_direct() {
        let m = CooMatrix::random(500, 4_000, 42);
        let x: Vec<f64> = (0..500).map(|i| f64::from(i % 17) - 8.0).collect();
        let direct = m.spmv(&x).unwrap();
        for (v, h) in [(32usize, 8usize), (4, 4), (1, 1), (500, 1)] {
            let part = m.partitioned_spmv(&x, v, h).unwrap();
            for (a, b) in direct.iter().zip(&part) {
                assert!((a - b).abs() < 1e-9, "({v},{h}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        use crate::error::WorkloadError;
        let m = CooMatrix::random(100, 500, 3);
        // Wrong input-vector length.
        assert_eq!(
            m.spmv(&[0.0; 99]),
            Err(WorkloadError::ShapeMismatch {
                what: "spmv input vector",
                expected: 100,
                got: 99,
            })
        );
        // Zero-way partitioning.
        assert!(matches!(
            m.partition_2d(0, 8),
            Err(WorkloadError::ZeroPartitions { .. })
        ));
        assert!(matches!(
            m.partitioned_spmv(&[1.0; 100], 4, 0),
            Err(WorkloadError::ZeroPartitions { .. })
        ));
        // An entry outside the matrix surfaces instead of panicking.
        let bad = CooMatrix {
            n: 10,
            entries: vec![(3, 12, 1.0)],
        };
        assert_eq!(
            bad.spmv(&[1.0; 10]),
            Err(WorkloadError::IndexOutOfBounds {
                what: "coo matrix entry",
                index: 12,
                len: 10,
            })
        );
        assert!(bad.partition_2d(2, 2).is_err());
    }

    #[test]
    fn partition_preserves_every_entry() {
        let m = CooMatrix::random(200, 1_500, 7);
        let blocks = m.partition_2d(32, 8).unwrap();
        assert_eq!(blocks.len(), 256);
        let total: usize = blocks.iter().map(|b| b.entries.len()).sum();
        assert_eq!(total, m.entries.len());
        // Blocks are genuinely uneven — the source of the workload's high
        // compute imbalance.
        let max = blocks.iter().map(|b| b.entries.len()).max().unwrap();
        let min = blocks.iter().map(|b| b.entries.len()).min().unwrap();
        assert!(max > min);
    }

    #[test]
    fn rs_payload_is_the_row_stripe() {
        let prog = Spmv::paper().program(&SystemConfig::paper());
        // 196591 / 32 ~= 6144 values x 4 B ~= 24 KiB.
        let bytes = prog.total_collective_bytes().as_u64();
        assert!((20_000..30_000).contains(&bytes), "{bytes}");
    }
}
