//! Self-healing static schedules: repair around permanent fabric faults.
//!
//! A [`CommSchedule`] is compiled against a healthy fabric. A permanently
//! dead component — a ring segment, a crossbar port, a whole rank — does
//! not drop packets at runtime; it invalidates the *plan*. This module
//! rewrites a built schedule around a [`PermanentFaultSet`] while
//! preserving PIMnet's two core properties:
//!
//! * **No arbitration.** The repaired schedule is still static and
//!   contention-checked: it must pass [`super::validate::validate`] like
//!   any other schedule.
//! * **Bit-identical results.** Repair never touches element spans or
//!   reduction flags — only resource paths and step boundaries — so
//!   executing the repaired schedule produces exactly the fault-free
//!   collective result.
//!
//! Three repairs, in increasing blast radius:
//!
//! 1. **Ring reroute** — a transfer whose path crosses a dead segment is
//!    sent the *other way around* the ring (the skip-segment route). The
//!    longer path costs more hops and more segment occupancy, which the
//!    timing model prices automatically; if the reverse path is also dead,
//!    the pair is unreachable and repair fails typed
//!    ([`PimnetError::Unroutable`]).
//! 2. **Port remap** — a chip whose crossbar Tx (or Rx) port is dead
//!    borrows the port of a surviving *buddy* chip in the same rank. The
//!    transfer then occupies both its own DQ channel and the buddy's port,
//!    so steps where the buddy is also active must serialize.
//! 3. **Step serialization** — rerouted/remapped transfers that now
//!    contend inside a non-multiplexed step are split into sequential
//!    sub-steps (readers-before-writers, so snapshot semantics are
//!    preserved) until every step is contention-free again.
//!
//! Faults that no rewrite can absorb — a dead rank, a partitioned ring, a
//! rank with no surviving port — surface as typed errors so
//! [`crate::resilience::plan_degraded`] can fall down the degradation
//! ladder (`Full → Repaired → Shrunk → HostFallback`) instead of
//! panicking. [`unusable_dpus`] is the planner's predictor for that fall:
//! the DPUs that *cannot* be kept even by repair.

use std::sync::Arc;

use pim_arch::geometry::PimGeometry;
use pim_faults::permanent::{PermanentFaultSet, PortId, PortSide, SegmentId};

use crate::error::PimnetError;
use crate::topology::{ring_path, ChipLoc, Direction, Occupancy, Resource};

use super::{CommSchedule, CommStep, Phase, Transfer};

/// What a successful repair did to the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairReport {
    /// Dead ring segments the schedule actually routed around.
    pub rerouted_transfers: usize,
    /// Total ring hops added by reroutes (the price of going the long way).
    pub extra_hops: usize,
    /// Transfers remapped onto a buddy chip's crossbar port.
    pub remapped_transfers: usize,
    /// Serialization steps added to restore contention-freedom.
    pub extra_steps: usize,
}

impl RepairReport {
    /// `true` when the schedule needed no rewriting (identity repair).
    #[must_use]
    pub fn is_identity(&self) -> bool {
        *self == RepairReport::default()
    }
}

/// A repaired schedule plus the account of what the repair cost.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairedSchedule {
    /// The rewritten, re-validated schedule, shared: the schedule cache's
    /// faulted [`CommSchedule`] product, the Repaired plan of
    /// [`crate::resilience::plan_degraded`] and the proof's summary all
    /// hold this one allocation. The cached product of an identity repair
    /// holds the base schedule's.
    pub schedule: Arc<CommSchedule>,
    /// What changed.
    pub report: RepairReport,
}

/// Is this exact segment resource dead? (Fault sets are per-channel; the
/// schedule's single channel is implied.)
fn segment_dead(faults: &PermanentFaultSet, chip: ChipLoc, from_bank: u32, dir: Direction) -> bool {
    faults.segments.contains(&SegmentId {
        rank: chip.rank,
        chip: chip.chip,
        from_bank,
        east: dir == Direction::East,
    })
}

fn port_dead(faults: &PermanentFaultSet, chip: ChipLoc, side: PortSide) -> bool {
    faults.ports.contains(&PortId {
        rank: chip.rank,
        chip: chip.chip,
        side,
    })
}

/// The surviving chip (same rank) whose `side` port a dead-ported chip
/// borrows: the next chip index cyclically whose own port is alive.
fn buddy_port(
    g: &PimGeometry,
    faults: &PermanentFaultSet,
    chip: ChipLoc,
    side: PortSide,
) -> Option<ChipLoc> {
    let chips = g.chips_per_rank;
    (1..chips)
        .map(|d| ChipLoc {
            chip: (chip.chip + d) % chips,
            ..chip
        })
        .find(|&c| !port_dead(faults, c, side))
}

/// Does any resource of this path name a dead segment?
fn path_hits_dead_segment(faults: &PermanentFaultSet, resources: &[Resource]) -> bool {
    resources.iter().any(|r| {
        matches!(
            r,
            Resource::RingSegment { chip, from_bank, dir }
                if segment_dead(faults, *chip, *from_bank, *dir)
        )
    })
}

/// Rewrites one transfer around the fault set. Spans and reduction flags
/// are never touched; only `resources` changes.
fn repair_transfer(
    schedule: &CommSchedule,
    faults: &PermanentFaultSet,
    t: &Transfer,
    report: &mut RepairReport,
) -> Result<Transfer, PimnetError> {
    let g = &schedule.geometry;
    let mut out = t.clone();
    if t.is_local() {
        return Ok(out);
    }

    // 1. Ring reroute (same-chip transfers: the path is pure segments).
    let is_ring = t
        .resources
        .iter()
        .all(|r| matches!(r, Resource::RingSegment { .. }));
    if is_ring {
        if path_hits_dead_segment(faults, &t.resources) {
            let dir = match t.resources[0] {
                Resource::RingSegment { dir, .. } => dir,
                _ => unreachable!("is_ring checked above"),
            };
            let dst = t.dsts[0];
            let reverse = ring_path(g, t.src, dst, dir.opposite());
            if path_hits_dead_segment(faults, &reverse) {
                return Err(PimnetError::Unroutable {
                    reason: format!("ring pair {} -> {dst} is dead in both directions", t.src),
                });
            }
            report.rerouted_transfers += 1;
            report.extra_hops += reverse.len().saturating_sub(t.resources.len());
            out.resources = reverse;
        }
        return Ok(out);
    }

    // 2. Crossbar port remap (DQ transfers: inter-chip and inter-rank).
    let src_chip = ChipLoc::of(g.coord(t.src));
    let mut borrowed = false;
    if port_dead(faults, src_chip, PortSide::Tx) {
        let buddy = buddy_port(g, faults, src_chip, PortSide::Tx).ok_or_else(|| {
            PimnetError::Unroutable {
                reason: format!("no surviving Tx port in rank {}", src_chip.rank),
            }
        })?;
        let extra = Resource::ChipTx { chip: buddy };
        if !out.resources.contains(&extra) {
            out.resources.push(extra);
        }
        borrowed = true;
    }
    for &d in &t.dsts {
        let dst_chip = ChipLoc::of(g.coord(d));
        if port_dead(faults, dst_chip, PortSide::Rx) {
            let buddy = buddy_port(g, faults, dst_chip, PortSide::Rx).ok_or_else(|| {
                PimnetError::Unroutable {
                    reason: format!("no surviving Rx port in rank {}", dst_chip.rank),
                }
            })?;
            let extra = Resource::ChipRx { chip: buddy };
            if !out.resources.contains(&extra) {
                out.resources.push(extra);
            }
            borrowed = true;
        }
    }
    if borrowed {
        report.remapped_transfers += 1;
    }
    Ok(out)
}

fn spans_overlap(a: super::Span, b: super::Span) -> bool {
    a.start < b.end() && b.start < a.end()
}

/// Claims every exclusive resource of `t` in `used`, for transfer `i`.
fn claim(used: &mut Occupancy<usize>, i: usize, t: &Transfer) {
    for r in t.resources.iter().filter(|r| r.requires_exclusive_step()) {
        used.insert(r, i);
    }
}

/// One read of a sub-step: `transfer` reads `span` of `node`.
#[derive(Debug, Clone, Copy)]
struct Read {
    node: u32,
    span: super::Span,
    transfer: u32,
}

/// One read node's slice of [`ReadIndex::reads`], with the length of its
/// longest read.
#[derive(Debug, Clone, Copy)]
struct NodeReads {
    node: u32,
    lo: usize,
    hi: usize,
    longest: usize,
}

/// The reads of the transfers left to place, sorted by source node, then
/// span start, then transfer: the split's hazard rule asks it which
/// transfers read what a writer overwrites.
///
/// A read that can overlap span `s` on node `n` starts before `s.end()`
/// and, being no longer than `n`'s longest read `L`, no earlier than
/// `s.start - L`; two `partition_point`s over `n`'s slice bound that
/// range, as in the analysis fold's access index.
#[derive(Debug, Default)]
struct ReadIndex {
    reads: Vec<Read>,
    nodes: Vec<NodeReads>,
}

impl ReadIndex {
    /// Rebuilds the index over `transfers`, reusing the buffers.
    fn build(&mut self, transfers: &[Transfer]) {
        self.reads.clear();
        self.nodes.clear();
        self.reads
            .extend(transfers.iter().enumerate().map(|(i, t)| Read {
                node: t.src.0,
                span: t.src_span,
                transfer: i as u32,
            }));
        self.reads
            .sort_unstable_by_key(|r| (r.node, r.span.start, r.transfer));
        let mut lo = 0;
        while let Some(first) = self.reads.get(lo) {
            let node = first.node;
            let hi = lo + self.reads[lo..].partition_point(|r| r.node == node);
            let longest = self.reads[lo..hi]
                .iter()
                .map(|r| r.span.len)
                .max()
                .unwrap_or(0);
            self.nodes.push(NodeReads {
                node,
                lo,
                hi,
                longest,
            });
            lo = hi;
        }
    }

    /// The reads of `node` that overlap `span`, by span start then
    /// transfer.
    fn overlapping(&self, node: u32, span: super::Span) -> impl Iterator<Item = &Read> {
        let reads = match self.nodes.binary_search_by_key(&node, |n| n.node) {
            Ok(k) => {
                let n = self.nodes[k];
                let reads = &self.reads[n.lo..n.hi];
                let from = span.start.saturating_sub(n.longest);
                let lo = reads.partition_point(|r| r.span.start < from);
                &reads[lo..lo + reads[lo..].partition_point(|r| r.span.start < span.end())]
            }
            Err(_) => &[],
        };
        reads.iter().filter(move |r| spans_overlap(span, r.span))
    }

    /// Does picked writer `i` overwrite, on one of its destinations, a
    /// span that a transfer not (or no longer) picked reads? (`i` itself
    /// is picked, so it is never its own left-behind reader.)
    fn leaves_reader(&self, transfers: &[Transfer], picked: &[bool], i: usize) -> bool {
        let w = &transfers[i];
        w.dsts.iter().any(|d| {
            self.overlapping(d.0, w.dst_span)
                .any(|r| !picked[r.transfer as usize])
        })
    }
}

/// Splits one step's transfers into sequential contention-free sub-steps.
///
/// Two constraints:
/// * transfers in one sub-step must not share an exclusive resource;
/// * a transfer that *writes* a span another transfer *reads* (on the same
///   node) must not run in an earlier sub-step than the reader — the
///   original step's snapshot semantics read pre-step data, and keeping
///   readers at-or-before their writers preserves that exactly.
///
/// The hazard rule queries a [`ReadIndex`] of the transfers left to
/// place, rebuilt for each sub-step.
///
/// `used` holds the claimed resources while it works; it is left clear.
fn split_step(
    used: &mut Occupancy<usize>,
    transfers: Vec<Transfer>,
) -> Result<Vec<CommStep>, PimnetError> {
    split_step_by(used, transfers, ReadIndex::leaves_reader)
}

/// [`split_step`] with the hazard rule's query as an argument, so tests
/// can run the pairwise reference through the same loop.
fn split_step_by(
    used: &mut Occupancy<usize>,
    transfers: Vec<Transfer>,
    leaves_reader: impl Fn(&ReadIndex, &[Transfer], &[bool], usize) -> bool,
) -> Result<Vec<CommStep>, PimnetError> {
    let mut remaining = transfers;
    let mut reads = ReadIndex::default();
    let mut out = Vec::new();
    while !remaining.is_empty() {
        let n = remaining.len();
        reads.build(&remaining);
        let mut picked = vec![false; n];
        // Writers unpicked by the hazard pass stay out of *this* sub-step,
        // freeing their resources for the readers they would have clobbered
        // (and bounding the loop: each iteration bans or breaks).
        let mut banned = vec![false; n];
        used.clear();
        loop {
            // Greedy fill: first-fit by exclusive-resource compatibility.
            for (i, t) in remaining.iter().enumerate() {
                if picked[i]
                    || banned[i]
                    || t.resources
                        .iter()
                        .any(|r| r.requires_exclusive_step() && used.get(r).is_some())
                {
                    continue;
                }
                picked[i] = true;
                claim(used, i, t);
            }
            // Hazard pass: a picked writer whose reader would be left
            // behind must wait — the reader needs the pre-write value. A
            // writer unpicked earlier in this pass counts as left behind
            // for the writers after it.
            let mut any_unpicked = false;
            for i in 0..n {
                if picked[i] && leaves_reader(&reads, &remaining, &picked, i) {
                    picked[i] = false;
                    banned[i] = true;
                    any_unpicked = true;
                }
            }
            if !any_unpicked {
                break;
            }
            used.clear();
            for (i, t) in remaining.iter().enumerate() {
                if picked[i] {
                    claim(used, i, t);
                }
            }
        }
        used.clear();
        if !picked.iter().any(|&p| p) {
            return Err(PimnetError::Unroutable {
                reason: "repair serialization deadlock: cyclic read/write hazard \
                         among contending transfers"
                    .into(),
            });
        }
        let mut kept = Vec::new();
        let mut rest = Vec::new();
        for (t, p) in remaining.into_iter().zip(picked) {
            if p {
                kept.push(t);
            } else {
                rest.push(t);
            }
        }
        out.push(CommStep::new(kept));
        remaining = rest;
    }
    Ok(out)
}

/// Does a step of a non-multiplexed phase violate exclusivity? (Distinct
/// flows — `(src, dsts)` pairs, as in the structural pass's `P009` —
/// sharing an exclusive resource.) An early-exit pre-check that decides
/// whether to split the step; [`repair`] re-validates its output anyway.
///
/// `seen` maps each claimed resource to the first transfer that claimed
/// it; it is left clear.
fn step_has_contention(seen: &mut Occupancy<usize>, step: &CommStep) -> bool {
    let mut contended = false;
    'scan: for (i, t) in step.transfers.iter().enumerate() {
        for r in t.resources.iter().filter(|r| r.requires_exclusive_step()) {
            let first = &step.transfers[*seen.entry(r, i)];
            if first.src != t.src || first.dsts != t.dsts {
                contended = true;
                break 'scan;
            }
        }
    }
    seen.clear();
    contended
}

/// Repairs `schedule` around `faults`.
///
/// The repaired schedule moves exactly the same element spans with exactly
/// the same reductions — executing it is bit-identical to the fault-free
/// plan — but its resource paths avoid every dead component, and it passes
/// [`super::validate::validate`] (the result is re-checked before being
/// returned). The [`RepairReport`] accounts for the price: rerouted
/// transfers, extra ring hops, borrowed ports, serialization steps.
///
/// # Errors
///
/// * [`PimnetError::DeadRank`] — a participating rank's DQ lanes are dead;
///   no rewrite keeps its DPUs reachable.
/// * [`PimnetError::Unroutable`] — a ring pair is dead in both directions,
///   a rank has no surviving crossbar port, or serialization cannot
///   restore contention-freedom.
/// * [`PimnetError::ScheduleInvalid`] — the repaired schedule failed
///   re-validation (a repair bug surfaced, never silently mistimed).
pub fn repair(
    schedule: &CommSchedule,
    faults: &PermanentFaultSet,
) -> Result<RepairedSchedule, PimnetError> {
    if faults.is_empty() {
        return Ok(RepairedSchedule {
            schedule: Arc::new(schedule.clone()),
            report: RepairReport::default(),
        });
    }
    let g = &schedule.geometry;
    if let Some(&rank) = faults.dead_ranks.iter().find(|&&r| r < g.ranks_per_channel) {
        return Err(PimnetError::DeadRank { rank });
    }

    let mut report = RepairReport::default();
    let mut claims = Occupancy::new(g);
    let mut phases = Vec::with_capacity(schedule.phases.len());
    for phase in &schedule.phases {
        let mut steps = Vec::with_capacity(phase.steps.len());
        for step in &phase.steps {
            let repaired: Vec<Transfer> = step
                .transfers
                .iter()
                .map(|t| repair_transfer(schedule, faults, t, &mut report))
                .collect::<Result<_, _>>()?;
            let repaired_step = CommStep::new(repaired);
            if !phase.multiplexed && step_has_contention(&mut claims, &repaired_step) {
                let sub = split_step(&mut claims, repaired_step.transfers)?;
                report.extra_steps += sub.len().saturating_sub(1);
                steps.extend(sub);
            } else {
                steps.push(repaired_step);
            }
        }
        phases.push(Phase::new(phase.label, steps, phase.multiplexed));
    }

    let repaired = CommSchedule {
        kind: schedule.kind,
        geometry: schedule.geometry,
        elems_per_node: schedule.elems_per_node,
        elem_bytes: schedule.elem_bytes,
        buffer_len: schedule.buffer_len,
        result_spans: schedule.result_spans.clone(),
        phases,
    };
    super::validate::validate(&repaired)?;
    Ok(RepairedSchedule {
        schedule: Arc::new(repaired),
        report,
    })
}

/// The DPUs that not even repair can keep in the collective: every DPU of
/// a dead rank, of a rank with no surviving Tx (or Rx) crossbar port when
/// the geometry needs DQ traffic, and of a chip whose internal ring is
/// *partitioned* (some bank pair unreachable in both directions).
///
/// [`crate::resilience::plan_degraded`] excludes exactly these before
/// choosing a ladder tier: when the list is empty the full participant set
/// survives (Full or Repaired); otherwise the plan shrinks around them.
/// The analysis is conservative per component, not per schedule — a
/// partitioned chip is excluded even if a particular collective never
/// routes the broken pair.
#[must_use]
pub fn unusable_dpus(geometry: &PimGeometry, faults: &PermanentFaultSet) -> Vec<u32> {
    let mut unusable: Vec<u32> = Vec::new();
    if faults.is_empty() {
        return unusable;
    }
    let needs_dq = geometry.chips_per_rank > 1 || geometry.ranks_per_channel > 1;
    for id in geometry.dpus() {
        let c = geometry.coord(id);
        let chip = ChipLoc::of(c);
        let dead_rank = faults.dead_ranks.contains(&c.rank);
        let portless = needs_dq
            && ((port_dead(faults, chip, PortSide::Tx)
                && buddy_port(geometry, faults, chip, PortSide::Tx).is_none())
                || (port_dead(faults, chip, PortSide::Rx)
                    && buddy_port(geometry, faults, chip, PortSide::Rx).is_none()));
        if dead_rank || portless || chip_ring_partitioned(geometry, faults, chip) {
            unusable.push(id.0);
        }
    }
    unusable
}

/// Is some bank pair of this chip unreachable in both ring directions?
fn chip_ring_partitioned(g: &PimGeometry, faults: &PermanentFaultSet, chip: ChipLoc) -> bool {
    let banks = g.banks_per_chip;
    let has_dead = (0..banks).any(|b| {
        segment_dead(faults, chip, b, Direction::East)
            || segment_dead(faults, chip, b, Direction::West)
    });
    if !has_dead {
        return false;
    }
    let blocked = |a: u32, b: u32, dir: Direction| {
        let mut cur = a;
        while cur != b {
            if segment_dead(faults, chip, cur, dir) {
                return true;
            }
            cur = dir.next(cur, banks);
        }
        false
    };
    for a in 0..banks {
        for b in 0..banks {
            if a != b && blocked(a, b, Direction::East) && blocked(a, b, Direction::West) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveKind;
    use crate::exec::{ExecMachine, ReduceOp};
    use crate::timing::TimingModel;
    use pim_arch::geometry::DpuId;
    use pim_sim::SimTime;

    fn build(kind: CollectiveKind, n: u32, elems: usize) -> CommSchedule {
        CommSchedule::build(kind, &PimGeometry::paper_scaled(n), elems, 4).unwrap()
    }

    fn faults(tokens: &str) -> PermanentFaultSet {
        PermanentFaultSet::parse_tokens(tokens).unwrap()
    }

    fn exec_sum(s: &CommSchedule, elems: usize) -> ExecMachine<u64> {
        let mut m = ExecMachine::init(s, |id| vec![u64::from(id.0) + 1; elems]);
        m.run(s, ReduceOp::Sum);
        m
    }

    #[test]
    fn empty_fault_set_is_the_identity() {
        let s = build(CollectiveKind::AllReduce, 64, 256);
        let r = repair(&s, &PermanentFaultSet::none()).unwrap();
        assert_eq!(*r.schedule, s);
        assert!(r.report.is_identity());
    }

    #[test]
    fn dead_segment_reroutes_and_stays_bit_identical() {
        // Single chip, 8 banks: kill one eastbound segment.
        let s = build(CollectiveKind::AllReduce, 8, 64);
        let f = faults("r0c0b2E");
        let r = repair(&s, &f).unwrap();
        assert!(r.report.rerouted_transfers > 0);
        assert!(r.report.extra_hops > 0);
        // The reversed route collides with the opposite ring direction's
        // traffic in the (non-multiplexed) bank phase, forcing sub-steps.
        assert!(r.report.extra_steps > 0);
        // No repaired transfer touches the dead segment.
        for phase in &r.schedule.phases {
            for step in &phase.steps {
                for t in &step.transfers {
                    assert!(!path_hits_dead_segment(&f, &t.resources));
                }
            }
        }
        super::super::validate::validate(&r.schedule).unwrap();
        assert_eq!(exec_sum(&r.schedule, 64), exec_sum(&s, 64));
        // The longer route costs time.
        let m = TimingModel::paper();
        assert!(
            m.time_schedule(&r.schedule, SimTime::ZERO).total()
                >= m.time_schedule(&s, SimTime::ZERO).total()
        );
    }

    #[test]
    fn tiny_payloads_repair_without_empty_span_panics() {
        // Fewer elements than participants: span splitting yields empty
        // pieces (dropped by the builders), and repair must survive the
        // sparse schedules that result — validating and staying
        // bit-identical, never indexing an empty span.
        for kind in [
            CollectiveKind::AllReduce,
            CollectiveKind::AllGather,
            CollectiveKind::AllToAll,
            CollectiveKind::Broadcast,
        ] {
            for elems in [1usize, 3] {
                let s = build(kind, 64, elems);
                let f = faults("r0c0b1E, r0c2tx");
                let r = repair(&s, &f).unwrap_or_else(|e| panic!("{kind} elems={elems}: {e}"));
                super::super::validate::validate(&r.schedule)
                    .unwrap_or_else(|e| panic!("{kind} elems={elems}: {e}"));
                assert_eq!(
                    exec_sum(&r.schedule, elems),
                    exec_sum(&s, elems),
                    "{kind} elems={elems}: repaired result diverged"
                );
            }
        }
    }

    #[test]
    fn dead_port_remaps_to_a_buddy_and_serializes() {
        // 64 DPUs = 8 banks x 8 chips, one rank: kill chip 1's Tx port.
        let s = build(CollectiveKind::AllReduce, 64, 256);
        let f = faults("r0c1tx");
        let r = repair(&s, &f).unwrap();
        assert!(r.report.remapped_transfers > 0);
        super::super::validate::validate(&r.schedule).unwrap();
        assert_eq!(exec_sum(&r.schedule, 256), exec_sum(&s, 256));
        // Inter-chip phases are multiplexed (WAIT-slot DQ scheduling), so
        // the borrowed port shows up as doubled occupancy — priced by the
        // timing model — rather than as extra steps.
        let m = TimingModel::paper();
        assert!(
            m.time_schedule(&r.schedule, SimTime::ZERO).total()
                > m.time_schedule(&s, SimTime::ZERO).total()
        );
    }

    #[test]
    fn repairs_every_collective_on_a_multi_tier_geometry() {
        let f = faults("r0c0b1E, r0c1rx");
        for kind in CollectiveKind::ALL {
            let s = build(kind, 128, 128);
            let r = repair(&s, &f).unwrap_or_else(|e| panic!("{kind}: {e}"));
            super::super::validate::validate(&r.schedule).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert_eq!(
                exec_sum(&r.schedule, 128),
                exec_sum(&s, 128),
                "{kind}: repaired run diverged"
            );
        }
    }

    #[test]
    fn dead_rank_is_a_typed_error() {
        let s = build(CollectiveKind::AllReduce, 256, 64);
        let err = repair(&s, &faults("rank1")).unwrap_err();
        assert_eq!(err, PimnetError::DeadRank { rank: 1 });
    }

    #[test]
    fn pair_dead_both_ways_is_unroutable() {
        // 8 banks, one chip. Kill the eastbound segment out of bank 0 and
        // every westbound segment: bank 0 -> 1 has no surviving route.
        let mut f = faults("r0c0b0E");
        for b in 0..8 {
            f.segments.insert(SegmentId {
                rank: 0,
                chip: 0,
                from_bank: b,
                east: false,
            });
        }
        let s = build(CollectiveKind::AllReduce, 8, 64);
        let err = repair(&s, &f).unwrap_err();
        assert!(matches!(err, PimnetError::Unroutable { .. }));
        // And the predictor agrees: the chip is partitioned.
        let g = PimGeometry::paper_scaled(8);
        assert_eq!(unusable_dpus(&g, &f).len(), 8);
    }

    #[test]
    fn unusable_covers_ranks_ports_and_partitions() {
        let g = PimGeometry::paper_scaled(256); // 8 banks, 8 chips, 4 ranks
        assert!(unusable_dpus(&g, &PermanentFaultSet::none()).is_empty());
        // Dead rank: all 64 of its DPUs.
        assert_eq!(unusable_dpus(&g, &faults("rank2")).len(), 64);
        // One dead port with 7 surviving buddies: nothing unusable.
        assert!(unusable_dpus(&g, &faults("r0c1tx")).is_empty());
        // Every Tx port of rank 0 dead: the whole rank is unusable.
        let all_tx: String = (0..8).map(|c| format!("r0c{c}tx,")).collect();
        assert_eq!(unusable_dpus(&g, &faults(&all_tx)).len(), 64);
        // A single dead segment is repairable, not unusable.
        assert!(unusable_dpus(&g, &faults("r0c0b3W")).is_empty());
    }

    #[test]
    fn repair_is_deterministic() {
        let s = build(CollectiveKind::AllToAll, 64, 128);
        let f = faults("r0c0b1E, r0c2tx, r0c5rx");
        let a = repair(&s, &f).unwrap();
        let b = repair(&s, &f).unwrap();
        assert_eq!(a, b);
    }

    /// The pairwise hazard scan the read index replaced: every transfer
    /// tested against the writer. The reference for the indexed query; it
    /// scans destinations on purpose, which the split itself must not.
    #[allow(clippy::manual_contains)]
    fn leaves_reader_pairwise(
        _: &ReadIndex,
        transfers: &[Transfer],
        picked: &[bool],
        i: usize,
    ) -> bool {
        let w = &transfers[i];
        transfers.iter().enumerate().any(|(j, u)| {
            j != i
                && !picked[j]
                && w.dsts.iter().any(|&d| d == u.src)
                && spans_overlap(w.dst_span, u.src_span)
        })
    }

    /// A seeded step over 6 nodes and a pool of 10 exclusive resources
    /// plus the rank bus: multi-destination transfers, overlapping and
    /// empty spans, combining and overwriting writes.
    fn random_step(rng: &mut pim_sim::rng::SimRng) -> Vec<Transfer> {
        let chip = |c: u32| ChipLoc {
            channel: 0,
            rank: 0,
            chip: c,
        };
        let mut pool: Vec<Resource> = (0..3)
            .flat_map(|c| {
                [
                    Resource::ChipTx { chip: chip(c) },
                    Resource::ChipRx { chip: chip(c) },
                ]
            })
            .collect();
        for from_bank in 0..2 {
            for dir in [Direction::East, Direction::West] {
                pool.push(Resource::RingSegment {
                    chip: chip(0),
                    from_bank,
                    dir,
                });
            }
        }
        pool.push(Resource::RankBus { channel: 0 });
        let n = 1 + rng.below(24) as usize;
        (0..n)
            .map(|_| {
                let len = rng.below(5) as usize;
                let dsts = (0..1 + rng.below(3))
                    .map(|_| DpuId(rng.below(6) as u32))
                    .collect();
                let resources = (0..1 + rng.below(2))
                    .map(|_| pool[rng.below(pool.len() as u64) as usize])
                    .collect();
                Transfer {
                    src: DpuId(rng.below(6) as u32),
                    dsts,
                    src_span: super::super::Span::new(rng.below(12) as usize, len),
                    dst_span: super::super::Span::new(rng.below(12) as usize, len),
                    combine: rng.gen_bool(0.3),
                    resources,
                }
            })
            .collect()
    }

    #[test]
    fn indexed_split_matches_the_pairwise_reference() {
        let mut rng = pim_sim::rng::SimRng::seed_from_u64(0x5711);
        let mut used = Occupancy::new(&PimGeometry::paper_scaled(64));
        let (mut split, mut deadlocked, mut hazard_moved) = (0, 0, 0);
        for case in 0..600 {
            let step = random_step(&mut rng);
            let indexed = split_step(&mut used, step.clone());
            let reference = split_step_by(&mut used, step.clone(), leaves_reader_pairwise);
            assert_eq!(indexed, reference, "case {case}: {step:?}");
            match &indexed {
                Ok(steps) if steps.len() > 1 => split += 1,
                Ok(_) => {}
                Err(_) => deadlocked += 1,
            }
            if indexed != split_step_by(&mut used, step, |_, _, _, _| false) {
                hazard_moved += 1;
            }
        }
        // The cases exercise both constraints and both outcomes:
        // contention splits most steps, the hazard rule changes the
        // partition of many, and cyclic hazards deadlock some.
        assert!(split > 300, "only {split} of 600 steps split");
        assert!(
            hazard_moved > 300,
            "the hazard rule moved only {hazard_moved}"
        );
        assert!((50..250).contains(&deadlocked), "{deadlocked} deadlocked");
    }

    #[test]
    fn split_step_preserves_reader_before_writer() {
        use super::super::Span;
        // A writes into node 2's [0..4); B reads node 2's [0..4). Both
        // fight over one exclusive segment, so they must serialize with B
        // (the reader) first.
        let seg = Resource::RingSegment {
            chip: ChipLoc {
                channel: 0,
                rank: 0,
                chip: 0,
            },
            from_bank: 0,
            dir: Direction::East,
        };
        let a = Transfer {
            src: DpuId(1),
            dsts: vec![DpuId(2)],
            src_span: Span::new(4, 4),
            dst_span: Span::new(0, 4),
            combine: false,
            resources: vec![seg],
        };
        let b = Transfer {
            src: DpuId(2),
            dsts: vec![DpuId(3)],
            src_span: Span::new(0, 4),
            dst_span: Span::new(0, 4),
            combine: false,
            resources: vec![seg],
        };
        let mut used = Occupancy::new(&PimGeometry::paper_scaled(8));
        let steps = split_step(&mut used, vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].transfers, vec![b]);
        assert_eq!(steps[1].transfers, vec![a]);
    }
}
