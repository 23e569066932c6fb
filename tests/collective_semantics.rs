//! Cross-crate integration tests: collective *semantics* hold end-to-end —
//! schedules compiled by `pimnet`, validated, and executed on real data —
//! including property tests over arbitrary geometries and payloads.

use pim_arch::geometry::{DpuId, PimGeometry};
use pim_sim::SimRng;
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::exec::{run_collective, ReduceOp};
use pimnet_suite::net::schedule::{build_composed, validate, CommSchedule, Composition};

fn input(id: DpuId, elems: usize, salt: u64) -> Vec<u64> {
    (0..elems)
        .map(|e| {
            (u64::from(id.0) + 1)
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(e as u64)
                .wrapping_add(salt)
        })
        .collect()
}

/// AllReduce followed by nothing == ReduceScatter followed by AllGather of
/// the pieces: the composition law the paper's Table V builds on.
#[test]
fn allreduce_equals_reduce_scatter_plus_gather_of_pieces() {
    let g = PimGeometry::paper_scaled(64);
    let elems = 512usize;
    let ar = CommSchedule::build(CollectiveKind::AllReduce, &g, elems, 4).unwrap();
    let rs = CommSchedule::build(CollectiveKind::ReduceScatter, &g, elems, 4).unwrap();

    let mar = run_collective(&ar, ReduceOp::Sum, |id| input(id, elems, 0)).unwrap();
    let mrs = run_collective(&rs, ReduceOp::Sum, |id| input(id, elems, 0)).unwrap();

    // Stitch the RS pieces back together and compare to any AR node.
    let reference = mar.result(&ar, DpuId(0));
    let mut stitched = vec![0u64; elems];
    for id in rs.participants() {
        for span in &rs.result_spans[id.index()] {
            stitched[span.range()].copy_from_slice(&mrs.buffer(id)[span.range()]);
        }
    }
    assert_eq!(stitched, reference);
}

#[test]
fn gather_then_broadcast_equals_allgather() {
    let g = PimGeometry::paper_scaled(16);
    let elems = 24usize;
    let ag = CommSchedule::build(CollectiveKind::AllGather, &g, elems, 4).unwrap();
    let gather = CommSchedule::build(CollectiveKind::Gather, &g, elems, 4).unwrap();

    let mag = run_collective(&ag, ReduceOp::Sum, |id| input(id, elems, 7)).unwrap();
    let mg = run_collective(&gather, ReduceOp::Sum, |id| input(id, elems, 7)).unwrap();

    // The gather root's buffer equals every AG participant's result.
    let root_view = mg.result(&gather, DpuId(0));
    for id in ag.participants() {
        assert_eq!(mag.result(&ag, id), root_view, "node {id}");
    }
}

#[test]
fn alltoall_is_an_involution() {
    // Applying the transpose twice returns every chunk home.
    let g = PimGeometry::paper_scaled(32);
    let elems = 32 * 4usize;
    let s = CommSchedule::build(CollectiveKind::AllToAll, &g, elems, 4).unwrap();
    let m1 = run_collective(&s, ReduceOp::Sum, |id| input(id, elems, 3)).unwrap();
    // Feed the out-region back in as the second round's input.
    let m2 = run_collective(&s, ReduceOp::Sum, |id| m1.result(&s, id)).unwrap();
    for id in s.participants() {
        assert_eq!(m2.result(&s, id), input(id, elems, 3), "node {id}");
    }
}

/// Every collective validates and executes correctly for arbitrary
/// power-of-two system sizes and payload lengths.
#[test]
fn collectives_hold_for_arbitrary_shapes() {
    let mut rng = SimRng::seed_from_u64(0xC011_0001);
    for _ in 0..24 {
        let n_exp = rng.gen_range(0u32..=8);
        let elems = rng.gen_range(1usize..300);
        let salt = rng.next_u64();
        let n = 1u32 << n_exp;
        let g = PimGeometry::paper_scaled(n);
        // AllReduce: everyone gets the elementwise wrapping sum.
        let s = CommSchedule::build(CollectiveKind::AllReduce, &g, elems, 4).unwrap();
        validate::validate(&s).unwrap();
        let m = run_collective(&s, ReduceOp::Sum, |id| input(id, elems, salt)).unwrap();
        let expected: Vec<u64> = (0..elems)
            .map(|e| {
                (0..n)
                    .map(|i| input(DpuId(i), elems, salt)[e])
                    .fold(0u64, u64::wrapping_add)
            })
            .collect();
        for id in s.participants() {
            assert_eq!(m.result(&s, id), expected.clone());
        }
    }
}

/// ReduceScatter pieces tile the vector exactly and carry the sum.
#[test]
fn reduce_scatter_partition_property() {
    let mut rng = SimRng::seed_from_u64(0xC011_0002);
    for _ in 0..24 {
        let n_exp = rng.gen_range(0u32..=8);
        let elems = rng.gen_range(1usize..300);
        let n = 1u32 << n_exp;
        let g = PimGeometry::paper_scaled(n);
        let s = CommSchedule::build(CollectiveKind::ReduceScatter, &g, elems, 4).unwrap();
        let spans: Vec<_> = s.result_spans.iter().flatten().collect();
        let covered: usize = spans.iter().map(|sp| sp.len).sum();
        assert_eq!(covered, elems);
        let mut seen = vec![false; elems];
        for sp in spans {
            for i in sp.range() {
                assert!(!seen[i], "element {} owned twice", i);
                seen[i] = true;
            }
        }
    }
}

/// Recursive halving must carve non-power-of-two payloads with the
/// *recursive* partition ([`pimnet_suite::net::schedule::Span::split_pow2`]),
/// never the flat `split_elems` chunk table — for `len = 11, k = 8` the
/// two disagree (`2,2,2,1,…` vs `2,1,2,1,…`), and an implementation that
/// mixes them silently corrupts ownership. These payloads are chosen so
/// every halving level splits unevenly somewhere; correctness must come
/// from the partition itself, not from builder special-cases. Halving–
/// doubling over all DPUs is the all-`rabenseifner` composition (the
/// `ablation_allreduce` row).
#[test]
fn halving_doubling_handles_non_power_of_two_payloads() {
    let halving = Composition::parse("rabenseifner_rabenseifner_rabenseifner").unwrap();
    for n in [8u32, 64, 256] {
        let g = PimGeometry::paper_scaled(n);
        for elems in [1usize, 3, 7, 11, 67, 193, 1030] {
            let s = build_composed(CollectiveKind::AllReduce, &g, elems, 4, halving).unwrap();
            validate::validate(&s).unwrap();
            let m = run_collective(&s, ReduceOp::Sum, |id| input(id, elems, 11)).unwrap();
            let expected: Vec<u64> = (0..elems)
                .map(|e| {
                    (0..n)
                        .map(|i| input(DpuId(i), elems, 11)[e])
                        .fold(0u64, u64::wrapping_add)
                })
                .collect();
            for id in s.participants() {
                assert_eq!(m.result(&s, id), expected, "n={n} elems={elems} {id}");
            }
        }
    }
}

/// The same non-power-of-two payloads through the composed Rabenseifner
/// tiers: the halving reduce-scatter and doubling all-gather re-derive
/// per-position ownership from the recursive partition, so ragged
/// payloads must survive reduction *and* the scatter boundary contract
/// (ReduceScatter pieces tile the vector exactly).
#[test]
fn composed_rabenseifner_handles_non_power_of_two_payloads() {
    let comp = Composition::parse("rabenseifner_rabenseifner_ring").unwrap();
    for n in [8u32, 64, 256] {
        let g = PimGeometry::paper_scaled(n);
        for elems in [1usize, 3, 7, 11, 67, 193] {
            for kind in [CollectiveKind::AllReduce, CollectiveKind::ReduceScatter] {
                let s = build_composed(kind, &g, elems, 4, comp).unwrap();
                validate::validate(&s).unwrap();
                let m = run_collective(&s, ReduceOp::Sum, |id| input(id, elems, 13)).unwrap();
                let reduced: Vec<u64> = (0..elems)
                    .map(|e| {
                        (0..n)
                            .map(|i| input(DpuId(i), elems, 13)[e])
                            .fold(0u64, u64::wrapping_add)
                    })
                    .collect();
                match kind {
                    CollectiveKind::AllReduce => {
                        for id in s.participants() {
                            assert_eq!(m.result(&s, id), reduced, "n={n} e={elems} {id}");
                        }
                    }
                    _ => {
                        let mut seen = vec![false; elems];
                        for id in s.participants() {
                            for sp in &s.result_spans[id.index()] {
                                for i in sp.range() {
                                    assert!(!seen[i], "element {i} owned twice");
                                    seen[i] = true;
                                    assert_eq!(
                                        m.buffer(id)[i],
                                        reduced[i],
                                        "n={n} e={elems} {id} element {i}"
                                    );
                                }
                            }
                        }
                        assert!(
                            seen.iter().all(|&b| b),
                            "n={n} e={elems}: uncovered element"
                        );
                    }
                }
            }
        }
    }
}

/// Max- and min-reductions agree with the scalar fold.
#[test]
fn reduce_ops_agree_with_fold() {
    let mut rng = SimRng::seed_from_u64(0xC011_0003);
    for _ in 0..24 {
        let n_exp = rng.gen_range(1u32..=6);
        let elems = rng.gen_range(1usize..64);
        let op_is_max = rng.gen_bool(0.5);
        let n = 1u32 << n_exp;
        let g = PimGeometry::paper_scaled(n);
        let s = CommSchedule::build(CollectiveKind::AllReduce, &g, elems, 4).unwrap();
        let op = if op_is_max {
            ReduceOp::Max
        } else {
            ReduceOp::Min
        };
        let m = run_collective(&s, op, |id| input(id, elems, 1)).unwrap();
        let expected: Vec<u64> = (0..elems)
            .map(|e| {
                let vals = (0..n).map(|i| input(DpuId(i), elems, 1)[e]);
                if op_is_max { vals.max() } else { vals.min() }.unwrap()
            })
            .collect();
        assert_eq!(m.result(&s, DpuId(0)), expected);
    }
}
