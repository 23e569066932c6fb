//! Hash join (Table VII: Join, All-to-All).
//!
//! The processing-in-DIMM join of Lim et al. \[61\]: tuples are globally
//! hash-partitioned so that matching keys land on the same PIM bank, which
//! costs one All-to-All of (nearly) the whole input; each bank then builds
//! and probes a local hash table. The paper reports a 36 % end-to-end gain
//! with 64 M tuples.

use std::collections::HashMap;

use pim_sim::rng::SimRng;
use pim_sim::Bytes;

use pim_arch::{OpCounts, SystemConfig};
use pimnet::collective::CollectiveKind;

use crate::error::WorkloadError;
use crate::program::{Phase, Program, Workload};

/// A relation of `(key, payload)` tuples.
pub type Relation = Vec<(u64, u64)>;

/// Seeded random relation with keys drawn from `0..key_space` (smaller key
/// spaces produce more matches and more skew).
#[must_use]
pub fn random_relation(tuples: usize, key_space: u64, seed: u64) -> Relation {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..tuples)
        .map(|i| (rng.gen_range(0..key_space), i as u64))
        .collect()
}

/// Reference equi-join: number of matching `(r, s)` pairs.
#[must_use]
pub fn join_count(r: &Relation, s: &Relation) -> u64 {
    let mut table: HashMap<u64, u64> = HashMap::new();
    for &(k, _) in r {
        *table.entry(k).or_insert(0) += 1;
    }
    s.iter()
        .map(|&(k, _)| table.get(&k).copied().unwrap_or(0))
        .sum()
}

/// The PIM algorithm \[61\]: hash-partition both relations across `banks`
/// (the All-to-All), then join every bucket locally. Must equal
/// [`join_count`].
///
/// # Errors
///
/// [`WorkloadError::ZeroPartitions`] if `banks` is zero.
pub fn partitioned_join_count(
    r: &Relation,
    s: &Relation,
    banks: usize,
) -> Result<u64, WorkloadError> {
    if banks == 0 {
        return Err(WorkloadError::ZeroPartitions { what: "hash join" });
    }
    let bucket = |k: u64| (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % banks;
    let mut r_parts: Vec<Relation> = vec![Vec::new(); banks];
    let mut s_parts: Vec<Relation> = vec![Vec::new(); banks];
    for &(k, p) in r {
        r_parts[bucket(k)].push((k, p));
    }
    for &(k, p) in s {
        s_parts[bucket(k)].push((k, p));
    }
    // After the A2A, every bank joins its bucket independently.
    Ok(r_parts
        .iter()
        .zip(&s_parts)
        .map(|(rp, sp)| join_count(rp, sp))
        .sum())
}

/// An equi-join of two relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashJoin {
    /// Total tuples across both relations (64 M in the paper).
    pub tuples: u64,
    /// Bytes per tuple (key + payload).
    pub tuple_bytes: u64,
}

impl HashJoin {
    /// The paper configuration: 64 M 8-byte tuples.
    #[must_use]
    pub fn paper() -> Self {
        HashJoin {
            tuples: 64_000_000,
            tuple_bytes: 8,
        }
    }
}

impl Workload for HashJoin {
    fn name(&self) -> &str {
        "Join"
    }

    fn comm_pattern(&self) -> CollectiveKind {
        CollectiveKind::AllToAll
    }

    fn program(&self, system: &SystemConfig) -> Program {
        let p = u64::from(system.geometry.dpus_per_channel());
        let per_dpu_tuples = self.tuples.div_ceil(p);
        // Phase 1: hash + partition every local tuple.
        // ~500 effective cycles per tuple: hash, bucket append with
        // MRAM-resident partitions (random 8 B writes through the DMA).
        let partition = OpCounts::new()
            .with_muls(per_dpu_tuples) // multiplicative hash
            .with_adds(per_dpu_tuples * 2)
            .with_loads(per_dpu_tuples * 2)
            .with_stores(per_dpu_tuples * 2)
            .with_other(per_dpu_tuples * 500);
        // Phase 2: global All-to-All of the partitioned tuples.
        let a2a_bytes = Bytes::new(per_dpu_tuples * self.tuple_bytes);
        // Phase 3: build + probe the local hash table.
        // ~700 effective cycles per tuple for build + probe: hash-table
        // chains live in MRAM, so every probe is a dependent random access.
        let build_probe = OpCounts::new()
            .with_muls(per_dpu_tuples)
            .with_adds(per_dpu_tuples * 3)
            .with_loads(per_dpu_tuples * 4)
            .with_stores(per_dpu_tuples * 2)
            .with_other(per_dpu_tuples * 700);
        Program::new(vec![
            Phase::Compute {
                per_dpu: partition,
                imbalance: 0.1,
            },
            Phase::Collective {
                kind: CollectiveKind::AllToAll,
                bytes_per_dpu: a2a_bytes,
                elem_bytes: 8,
            },
            Phase::Compute {
                per_dpu: build_probe,
                imbalance: 0.2, // key skew
            },
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::run_program;
    use pimnet::backends::{BaselineHostBackend, PimnetBackend};

    #[test]
    fn paper_band_36_percent() {
        // "PIMnet provides 36% improvement in performance with 64M tuples
        // compared to the baseline."
        let sys = SystemConfig::paper();
        let prog = HashJoin::paper().program(&sys);
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
            (1.05..3.5).contains(&speedup),
            "Join speedup {speedup:.2}x out of band"
        );
    }

    #[test]
    fn partitioned_join_equals_reference() {
        let r = random_relation(5_000, 900, 1);
        let s = random_relation(4_000, 900, 2);
        let reference = join_count(&r, &s);
        assert!(reference > 0);
        for banks in [1usize, 8, 64, 256] {
            assert_eq!(
                partitioned_join_count(&r, &s, banks).unwrap(),
                reference,
                "{banks} banks"
            );
        }
        // Zero banks is a typed error, not a divide-by-zero panic.
        assert!(matches!(
            partitioned_join_count(&r, &s, 0),
            Err(crate::error::WorkloadError::ZeroPartitions { .. })
        ));
    }

    #[test]
    fn disjoint_keys_join_to_nothing() {
        let r: Relation = (0..100).map(|i| (i, i)).collect();
        let s: Relation = (1_000..1_100).map(|i| (i, i)).collect();
        assert_eq!(join_count(&r, &s), 0);
        assert_eq!(partitioned_join_count(&r, &s, 16).unwrap(), 0);
    }

    #[test]
    fn a2a_moves_the_whole_input() {
        let prog = HashJoin::paper().program(&SystemConfig::paper());
        // 64M x 8 B / 256 DPUs = 2 MB per DPU.
        assert_eq!(
            prog.total_collective_bytes(),
            Bytes::new(64_000_000 / 256 * 8)
        );
    }
}
