//! Structural pass (`P0xx`): the one copy of the schedule's shape rules.
//!
//! Spans stay inside the buffer, resource paths connect their endpoints
//! at the right tier and name only the geometry's own fabric, reductions
//! only appear in reducing collectives, the result table describes every
//! node inside the buffer, and no exclusive resource
//! ([`Resource::requires_exclusive_step`]: a bufferless ring segment or a
//! chip DQ channel) carries two flows in a step of a non-multiplexed
//! phase (paper §IV-C).
//!
//! The kernels emit one [`Diagnostic`] per violation and never stop
//! early. The analysis drivers keep every finding, so a lint run reports
//! all structural problems at once; [`crate::schedule::validate`] runs
//! the same kernels plus the sync pass's `P301` and returns the first
//! error in report order.

use pim_arch::geometry::DpuId;

use crate::schedule::{ScheduleHeader, StepRef, TransferRef};
use crate::topology::{ChipLoc, Resource, SlotIndex};

use super::diagnostics::{Diagnostic, Location};

/// `P001` — transfer with no destination.
pub const EMPTY_DSTS: &str = "P001";
/// `P002` — source and destination spans have different lengths.
pub const SPAN_LEN_MISMATCH: &str = "P002";
/// `P003` — a span reaches beyond the communication buffer.
pub const SPAN_OUT_OF_BOUNDS: &str = "P003";
/// `P004` — a combining transfer in a non-reducing collective.
pub const COMBINE_IN_NON_REDUCING: &str = "P004";
/// `P005` — a resource-less transfer that is not a local self-copy.
pub const NON_LOCAL_WITHOUT_RESOURCES: &str = "P005";
/// `P006` — a node sends to itself over the fabric.
pub const FABRIC_SELF_SEND: &str = "P006";
/// `P007` — resources do not match the transfer's tier.
pub const WRONG_TIER_RESOURCES: &str = "P007";
/// `P008` — a DQ-crossing transfer is missing its Tx or Rx channel.
pub const MISSING_DQ_ENDPOINT: &str = "P008";
/// `P009` — an exclusive resource (a ring segment or a chip DQ channel)
/// carries two flows in a non-multiplexed step.
pub const EXCLUSIVE_SHARING: &str = "P009";
/// `P010` — the result-span table is malformed (wrong node count or a
/// span beyond the buffer).
pub const MALFORMED_RESULT_TABLE: &str = "P010";
/// `P011` — a resource names a channel, rank, chip or bank outside the
/// geometry.
pub const RESOURCE_OUTSIDE_GEOMETRY: &str = "P011";

/// Schedule-level structural checks (the result-span table), independent
/// of any step.
pub(crate) fn check_prologue(hdr: &ScheduleHeader<'_>, diags: &mut Vec<Diagnostic>) {
    let total = hdr.geometry.total_dpus();

    if hdr.result_spans.len() != total as usize {
        diags.push(Diagnostic::error(
            MALFORMED_RESULT_TABLE,
            Location::SCHEDULE,
            format!(
                "result table describes {} node(s) but the geometry has {total}",
                hdr.result_spans.len()
            ),
        ));
    }
    for (i, spans) in hdr.result_spans.iter().enumerate() {
        for span in spans {
            if span.end() > hdr.buffer_len {
                diags.push(Diagnostic::error(
                    MALFORMED_RESULT_TABLE,
                    Location::node(i as u32),
                    format!(
                        "result span {span} beyond buffer ({} elems)",
                        hdr.buffer_len
                    ),
                ));
            }
        }
    }
}

/// Structural checks for one step at `(pi, si)`. Step-local by
/// construction, so every driver calls it verbatim.
///
/// Returns the most distinct flows one resource of each class carried in
/// the step, `[ring segment, chip DQ channel, rank bus]`, whether or not
/// the phase is multiplexed.
pub(crate) fn check_step(
    hdr: &ScheduleHeader<'_>,
    pi: usize,
    si: usize,
    step: StepRef<'_>,
    multiplexed: bool,
    diags: &mut Vec<Diagnostic>,
) -> [usize; 3] {
    // A "flow" is a distinct (source, destination-set) pair: back-to-back
    // transfers of one pair share a single scheduled slot on the wire.
    // Sorted and deduplicated, the (resource slot, flow) pairs form one
    // run per resource, in resource order, whose length is its flow count.
    let mut slots = SlotIndex::new(hdr.geometry);
    let mut usage: Vec<(u32, DpuId, &[DpuId])> = Vec::new();
    for (ti, t) in step.transfers().enumerate() {
        check_transfer(hdr, t, Location::at(pi, si, ti), diags);
        if !t.is_local() {
            usage.extend(t.resources.iter().map(|r| (slots.slot(r), t.src, t.dsts)));
        }
    }
    usage.sort_unstable();
    usage.dedup();
    let mut sharing = [0; 3];
    for run in usage.chunk_by(|a, b| a.0 == b.0) {
        let (r, flows) = (slots.resource(run[0].0), run.len());
        let class = &mut sharing[r.tier_index() - 1];
        *class = (*class).max(flows);
        if flows > 1 && !multiplexed && r.requires_exclusive_step() {
            let what = match r {
                Resource::RingSegment { .. } => "bufferless resource",
                _ => "chip channel",
            };
            diags.push(Diagnostic::error(
                EXCLUSIVE_SHARING,
                Location::step(pi, si),
                format!("{what} {r} carries {flows} flows in a non-multiplexed step"),
            ));
        }
    }
    sharing
}

fn check_transfer(
    hdr: &ScheduleHeader<'_>,
    t: TransferRef<'_>,
    loc: Location,
    diags: &mut Vec<Diagnostic>,
) {
    let g = hdr.geometry;
    let total = g.total_dpus();

    if t.dsts.is_empty() {
        diags.push(Diagnostic::error(
            EMPTY_DSTS,
            loc,
            "transfer with no destination".into(),
        ));
    }
    if t.src_span.len != t.dst_span.len {
        diags.push(Diagnostic::error(
            SPAN_LEN_MISMATCH,
            loc,
            format!(
                "span length mismatch: src {} vs dst {}",
                t.src_span, t.dst_span
            ),
        ));
    }
    if t.src_span.end() > hdr.buffer_len || t.dst_span.end() > hdr.buffer_len {
        diags.push(Diagnostic::error(
            SPAN_OUT_OF_BOUNDS,
            loc,
            format!(
                "span beyond buffer ({} elems): src {} dst {}",
                hdr.buffer_len, t.src_span, t.dst_span
            ),
        ));
    }
    if t.combine && !hdr.kind.reduces() {
        diags.push(Diagnostic::error(
            COMBINE_IN_NON_REDUCING,
            loc,
            format!("reduction in non-reducing collective {}", hdr.kind),
        ));
    }

    if t.is_local() {
        if t.dsts != [t.src] {
            diags.push(Diagnostic::error(
                NON_LOCAL_WITHOUT_RESOURCES,
                loc,
                "resource-less transfer must be a local self-copy".into(),
            ));
        }
        return;
    }
    if t.dsts.iter().any(|d| d.0 == t.src.0) {
        diags.push(Diagnostic::error(
            FABRIC_SELF_SEND,
            loc,
            format!("node {} sends to itself over the fabric", t.src),
        ));
    }
    for r in t.resources.iter().filter(|r| r.slot(g).is_none()) {
        diags.push(Diagnostic::error(
            RESOURCE_OUTSIDE_GEOMETRY,
            loc,
            format!("resource {r} lies outside the geometry"),
        ));
    }

    // Tier/endpoint consistency needs coordinates; out-of-range ids are
    // the sync pass's `P301`, so skip rather than panic in `coord`.
    if t.src.0 >= total || t.dsts.iter().any(|d| d.0 >= total) {
        return;
    }
    let src = g.coord(t.src);
    let all_same_chip = t.dsts.iter().all(|&d| g.same_chip(t.src, d));
    let all_same_rank = t.dsts.iter().all(|&d| g.same_rank(t.src, d));
    let crosses_rank = t.dsts.iter().any(|&d| !g.same_rank(t.src, d));
    let uses_bus = t
        .resources
        .iter()
        .any(|r| matches!(r, Resource::RankBus { .. }));
    let uses_ring = t
        .resources
        .iter()
        .any(|r| matches!(r, Resource::RingSegment { .. }));

    if all_same_chip {
        if !t
            .resources
            .iter()
            .all(|r| matches!(r, Resource::RingSegment { chip, .. } if *chip == ChipLoc::of(src)))
        {
            diags.push(Diagnostic::error(
                WRONG_TIER_RESOURCES,
                loc,
                "same-chip transfer must use only its own ring segments".into(),
            ));
        }
    } else if all_same_rank {
        if uses_bus || uses_ring {
            diags.push(Diagnostic::error(
                WRONG_TIER_RESOURCES,
                loc,
                "same-rank transfer must use only DQ channels".into(),
            ));
        }
        expect_dq_endpoints(hdr, t, loc, diags);
    } else {
        if !crosses_rank || !uses_bus {
            diags.push(Diagnostic::error(
                WRONG_TIER_RESOURCES,
                loc,
                "cross-rank transfer must traverse the rank bus".into(),
            ));
        }
        expect_dq_endpoints(hdr, t, loc, diags);
    }
}

fn expect_dq_endpoints(
    hdr: &ScheduleHeader<'_>,
    t: TransferRef<'_>,
    loc: Location,
    diags: &mut Vec<Diagnostic>,
) {
    let g = hdr.geometry;
    let src_chip = ChipLoc::of(g.coord(t.src));
    let has_tx = t
        .resources
        .iter()
        .any(|r| matches!(r, Resource::ChipTx { chip } if *chip == src_chip));
    if !has_tx {
        diags.push(Diagnostic::error(
            MISSING_DQ_ENDPOINT,
            loc,
            "missing source chip Tx channel in path".into(),
        ));
    }
    for &d in t.dsts {
        let dst_chip = ChipLoc::of(g.coord(d));
        let has_rx = t
            .resources
            .iter()
            .any(|r| matches!(r, Resource::ChipRx { chip } if *chip == dst_chip));
        if !has_rx {
            diags.push(Diagnostic::error(
                MISSING_DQ_ENDPOINT,
                loc,
                format!("missing destination chip Rx channel for {d}"),
            ));
        }
    }
}
