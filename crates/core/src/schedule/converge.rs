//! Reduce and Gather schedule builders — the N-to-1 collectives the paper
//! sketches at the end of §V-E ("a single DPU can be used"), which are not
//! in Table V and have no composed form: leaves converge on chip leaders,
//! chip leaders on rank leaders, rank leaders on the root.

use pim_arch::geometry::{DpuCoord, DpuId, PimGeometry};

use crate::collective::CollectiveKind;
use crate::topology::{chip_path, rank_path, ring_path, shorter_direction};

use super::{CommSchedule, CommStep, Phase, PhaseLabel, Span, Transfer};

/// The fixed root of the N-to-one collectives.
const ROOT: DpuId = DpuId(0);

fn at(geometry: &PimGeometry, rank: u32, chip: u32, bank: u32) -> DpuId {
    geometry.id(DpuCoord {
        channel: 0,
        rank,
        chip,
        bank,
    })
}

pub(super) fn build_reduce(geometry: &PimGeometry, elems: usize, elem_bytes: u32) -> CommSchedule {
    let full = Span::new(0, elems);
    let spans = vec![(full, full); geometry.total_dpus() as usize];
    let mut schedule = converge(geometry, elem_bytes, &spans, true, CollectiveKind::Reduce);
    schedule.elems_per_node = elems;
    schedule.buffer_len = elems;
    schedule.result_spans = result_at_root(geometry, vec![full]);
    schedule
}

pub(super) fn build_gather(geometry: &PimGeometry, elems: usize, elem_bytes: u32) -> CommSchedule {
    let total = geometry.total_dpus() as usize;
    // Node i's contribution sits (and stays) at piece i of the N·n buffer.
    let spans: Vec<(Span, Span)> = (0..total)
        .map(|i| {
            let p = Span::new(i * elems, elems);
            (p, p)
        })
        .collect();
    let mut schedule = converge(geometry, elem_bytes, &spans, false, CollectiveKind::Gather);
    schedule.elems_per_node = elems;
    schedule.buffer_len = total * elems;
    schedule.result_spans = result_at_root(geometry, vec![Span::new(0, total * elems)]);
    schedule
}

fn result_at_root(geometry: &PimGeometry, root_spans: Vec<Span>) -> Vec<Vec<Span>> {
    let mut out = vec![Vec::new(); geometry.total_dpus() as usize];
    out[ROOT.index()] = root_spans;
    out
}

/// Shared N-to-1 convergecast structure for Reduce and Gather.
///
/// `spans[i]` is the (src, dst) span pair for node `i`'s contribution; with
/// `combine = true` all contributions share one span and reduce in place.
/// For Gather, a forwarding node must relay everything it has accumulated
/// so far, which is why the per-tier span sets below grow as the data
/// converges.
fn converge(
    geometry: &PimGeometry,
    elem_bytes: u32,
    spans: &[(Span, Span)],
    combine: bool,
    kind: CollectiveKind,
) -> CommSchedule {
    let (banks, chips, ranks) = (
        geometry.banks_per_chip,
        geometry.chips_per_rank,
        geometry.ranks_per_channel,
    );
    let mut phases = Vec::new();

    // What each node currently holds (indices into `spans`).
    let total = geometry.total_dpus() as usize;
    let mut holds: Vec<Vec<usize>> = (0..total).map(|i| vec![i]).collect();

    // ---- Tier 1: banks -> chip leader (bank 0). ----
    if banks > 1 {
        let mut transfers = Vec::new();
        for rank in 0..ranks {
            for chip in 0..chips {
                let leader = at(geometry, rank, chip, 0);
                for bank in 1..banks {
                    let src = at(geometry, rank, chip, bank);
                    for &item in &holds[src.index()].clone() {
                        transfers.push(Transfer {
                            src,
                            dsts: vec![leader],
                            src_span: spans[item].0,
                            dst_span: spans[item].1,
                            combine,
                            resources: ring_path(
                                geometry,
                                src,
                                leader,
                                shorter_direction(banks, bank, 0),
                            ),
                        });
                        // Reductions fold in place: the leader still forwards
                        // a single (now reduced) span, not one per leaf.
                        if !combine {
                            holds[leader.index()].push(item);
                        }
                    }
                }
            }
        }
        phases.push(Phase::new(
            PhaseLabel::InterBank,
            vec![CommStep::new(transfers)],
            true,
        ));
    }

    // ---- Tier 2: chip leaders -> rank leader (chip 0, bank 0). ----
    if chips > 1 {
        let mut transfers = Vec::new();
        for rank in 0..ranks {
            let leader = at(geometry, rank, 0, 0);
            for chip in 1..chips {
                let src = at(geometry, rank, chip, 0);
                for &item in &holds[src.index()].clone() {
                    transfers.push(Transfer {
                        src,
                        dsts: vec![leader],
                        src_span: spans[item].0,
                        dst_span: spans[item].1,
                        combine,
                        resources: chip_path(geometry, src, leader),
                    });
                    if !combine {
                        holds[leader.index()].push(item);
                    }
                }
            }
        }
        phases.push(Phase::new(
            PhaseLabel::InterChip,
            vec![CommStep::new(transfers)],
            true,
        ));
    }

    // ---- Tier 3: rank leaders -> root. ----
    if ranks > 1 {
        let root_rank = geometry.coord(ROOT).rank;
        let mut transfers = Vec::new();
        for rank in (0..ranks).filter(|&r| r != root_rank) {
            let src = at(geometry, rank, 0, 0);
            for &item in &holds[src.index()].clone() {
                transfers.push(Transfer {
                    src,
                    dsts: vec![ROOT],
                    src_span: spans[item].0,
                    dst_span: spans[item].1,
                    combine,
                    resources: rank_path(geometry, src, &[ROOT]),
                });
            }
        }
        phases.push(Phase::new(
            PhaseLabel::InterRank,
            vec![CommStep::new(transfers)],
            true,
        ));
    }

    phases.retain(|p| !p.steps.is_empty());
    CommSchedule {
        kind,
        geometry: *geometry,
        elems_per_node: 0, // caller fills in
        elem_bytes,
        buffer_len: 0, // caller fills in
        result_spans: Vec::new(),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_converges_to_root_only() {
        let g = PimGeometry::paper();
        let s = build_reduce(&g, 64, 4);
        assert_eq!(s.result_spans[0], vec![Span::new(0, 64)]);
        assert!(s.result_spans[1..].iter().all(Vec::is_empty));
        assert!(s
            .phases
            .iter()
            .flat_map(|p| &p.steps)
            .flat_map(|st| &st.transfers)
            .all(|t| t.combine));
    }

    #[test]
    fn gather_relays_accumulated_pieces() {
        let g = PimGeometry::new(2, 2, 2, 1);
        let s = build_gather(&g, 4, 4);
        assert_eq!(s.buffer_len, 8 * 4);
        // The rank-leader hop must carry more than one piece (its own plus
        // everything it collected from its rank).
        let rank_phase = s
            .phases
            .iter()
            .find(|p| p.label == PhaseLabel::InterRank)
            .unwrap();
        let from_rank1: Vec<_> = rank_phase.steps[0]
            .transfers
            .iter()
            .filter(|t| t.src == DpuId(4))
            .collect();
        assert_eq!(from_rank1.len(), 4, "rank leader must relay 4 pieces");
        assert!(from_rank1.iter().all(|t| !t.combine));
    }
}
