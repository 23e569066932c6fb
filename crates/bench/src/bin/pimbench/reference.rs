//! Functional reference for an executed collective: each node's result
//! computed from the collective's definition over [`payload`], never from
//! the schedule's transfers.

use std::ops::Range;

use crate::layers::{payload, CollectiveKind};

/// What the reference needs to know about an executed collective.
pub struct Shape {
    pub kind: CollectiveKind,
    pub dpus: u32,
    pub elems: usize,
    /// Per node, the element ranges its result covers (ReduceScatter's
    /// pieces are the schedule's own; the values still come from the
    /// reference reduction).
    pub result_ranges: Vec<Vec<Range<usize>>>,
}

/// Checks every node's result, as `result(node)` returns it, against the
/// reference. Results are fetched one node at a time so a large gather
/// never holds every node's copy at once.
pub fn check(x: &Shape, result: impl Fn(u32) -> Vec<u64>) -> Result<(), String> {
    let (n, total) = (x.elems, x.dpus);
    let reduced: Vec<u64> = if matches!(
        x.kind,
        CollectiveKind::AllReduce | CollectiveKind::ReduceScatter | CollectiveKind::Reduce
    ) {
        (0..n)
            .map(|e| (0..total).fold(0u64, |acc, j| acc.wrapping_add(payload(j, e))))
            .collect()
    } else {
        Vec::new()
    };
    let gathered = || (0..total).flat_map(move |j| (0..n).map(move |e| payload(j, e)));
    for i in 0..total {
        let got = result(i);
        let root = i == 0;
        let same = match x.kind {
            CollectiveKind::AllReduce => got == reduced,
            CollectiveKind::Reduce => got[..] == reduced[..usize::from(root) * n],
            CollectiveKind::ReduceScatter => got.iter().copied().eq(x.result_ranges[i as usize]
                .iter()
                .flat_map(Clone::clone)
                .map(|e| reduced[e])),
            CollectiveKind::AllGather => got.iter().copied().eq(gathered()),
            CollectiveKind::Gather if root => got.iter().copied().eq(gathered()),
            CollectiveKind::Gather => got.is_empty(),
            CollectiveKind::Broadcast => got.iter().copied().eq((0..n).map(|e| payload(0, e))),
            CollectiveKind::AllToAll => {
                let chunk = n / total as usize;
                let base = i as usize * chunk;
                got.iter()
                    .copied()
                    .eq((0..total).flat_map(|j| (0..chunk).map(move |c| payload(j, base + c))))
            }
        };
        if !same {
            return Err(format!(
                "{} x{total} e{n}: node {i} diverged from the reference",
                x.kind
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;
    use crate::trace::Tracer;

    #[test]
    fn every_kind_matches_its_reference_and_a_flipped_bit_is_flagged() {
        let t = Tracer::new(false);
        for kind in CollectiveKind::ALL {
            let s = layers::build(&t, kind, 64, 256).expect("builds");
            let m = layers::exec_clean(&t, &s);
            let shape = layers::shape(&s);
            assert_eq!(
                check(&shape, |i| layers::result(&s, &m, i)),
                Ok(()),
                "{kind}"
            );

            // Node 0 holds a result for every kind (it is the root of the
            // rooted ones): flip one bit of it.
            let corrupted = |i| {
                let mut r = layers::result(&s, &m, i);
                if i == 0 {
                    r[0] ^= 1;
                }
                r
            };
            assert!(
                check(&shape, corrupted).is_err(),
                "{kind}: corruption went unnoticed"
            );
        }
    }
}
