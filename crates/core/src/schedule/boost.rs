//! Boost mode: representative-slice timing for large symmetric geometries.
//!
//! Large geometries make full-schedule timing and timeline construction
//! O(total transfers) — at 256 DPUs an AllReduce carries thousands of
//! transfers per phase, nearly all of them byte-for-byte copies of the
//! traffic through one representative chip. Boost mode exploits that
//! symmetry: [`plan`] thins a compiled [`CommSchedule`] down to the
//! transfers that touch one *representative chip* (the least-loaded
//! chip, so rooted collectives keep their slices thin too) and records,
//! per step, the aggregate [`StepFacts`] the analytic
//! reconstruction needs. [`BoostPlan::breakdown`] and
//! [`BoostPlan::timeline`] then reproduce the full-fabric numbers from
//! the plan alone — O(1) per step for the breakdown, O(kept transfers)
//! for the timeline — instead of re-walking every transfer of the full
//! schedule.
//!
//! The facts are *per resource class*, which is what makes a thin plan
//! sufficient: every resource of a class shares one bandwidth
//! ([`Resource::bandwidth`] depends only on the variant), so one
//! `(transfer count, largest payload)` pair for the busiest resource of
//! each class prices the whole class under any [`TimingModel`]. This is
//! also why the facts must cover *all* classes rather than lean on the
//! representative slice: a rank-broadcast step concentrates its send-side
//! occupancy on the sending rank's DQ channels, which a fixed
//! representative chip only carries in one step out of `R`.
//!
//! **Accuracy contract** (pinned by `tests/boost_accuracy.rs`): when the
//! busiest resource of every class carries uniform payloads — true for
//! the Table V collectives whenever the payload divides evenly — the
//! reconstruction is *exact*: `count x serialization(largest)` is then
//! precisely the resource's occupancy sum. On uneven splits each class
//! reconstructs from its byte sum instead, and the only divergence from
//! the full walk is picosecond ceiling-rounding slack — at most one
//! picosecond per transfer of the step, vanishing against microsecond
//! step times.
//!
//! A [`BoostPlan`] is a pure function of the schedule — no
//! [`TimingModel`] is involved at plan time — so the schedule cache can
//! store one plan and re-price it under any fabric configuration.
//!
//! A schedule priced once and never walked as a timeline needs the facts
//! and nothing else: [`price`] runs the same per-step tally as [`plan`]
//! and assembles the same breakdown, without picking a representative
//! chip or copying a transfer, so it equals
//! `plan(schedule).breakdown(timing, skew)` exactly.

use pim_sim::{Bandwidth, Bytes, SimTime};

use pim_arch::geometry::DpuId;

use crate::sync::SyncModel;
use crate::timeline::{Timeline, TransferWindow};
use crate::timing::{CommBreakdown, TimingModel};
use crate::topology::{chip_at, chip_index, ChipLoc, Occupancy, Resource};

use super::{CommSchedule, CommStep, Phase, Transfer};

/// The busiest resource of one bandwidth class within one step: how many
/// transfers cross it, the largest single payload among them, and their
/// byte sum.
///
/// Its reconstructed occupancy is `transfers x serialization(unit_bytes)`
/// when the payloads are uniform (the symmetric-schedule case) — exactly
/// the resource's occupancy sum. On a non-uniform mix it falls back to
/// `serialization(total_bytes)` plus the class's ceiling slack: each
/// transfer's serialization rounds up to a whole picosecond, so the sum
/// of `transfers` roundings exceeds the rounding of the sum by at most
/// `slack - 1` ps — a bound, not an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassFacts {
    /// Transfers crossing the class's busiest resource.
    pub transfers: u32,
    /// Largest single payload among them.
    pub unit_bytes: Bytes,
    /// Byte sum across them.
    pub total_bytes: Bytes,
    /// Largest transfer count of *any* resource in the class this step
    /// (the ceiling-rounding slack of the non-uniform bound).
    pub slack: u32,
}

/// Per-step aggregates recorded over the *full* schedule at plan time,
/// from which [`BoostPlan`] reconstructs whole-fabric step times without
/// the full transfer list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StepFacts {
    /// Busiest inter-bank ring segment.
    pub ring: ClassFacts,
    /// Busiest DQ channel (send or receive side, whichever is busier).
    pub dq: ClassFacts,
    /// The rank bus (one per channel; single-channel schedules have
    /// exactly one).
    pub bus: ClassFacts,
    /// Longest resource path of any transfer in the full step.
    pub max_hops: u32,
}

/// The representative slice of a schedule plus the per-step facts that
/// re-price it: the product of [`plan`], consumed by
/// [`BoostPlan::breakdown`] and [`BoostPlan::timeline`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoostPlan {
    /// The thin slice: the full schedule's phase/step skeleton with only
    /// the transfers touching the representative chip retained (and its
    /// `result_spans` dropped). Timing-only — it neither executes nor
    /// validates as a collective; it exists so the boosted timeline can
    /// emit real per-transfer windows.
    pub thin: CommSchedule,
    /// Per-step aggregates, phase-major (one entry per step of `thin`).
    pub facts: Vec<StepFacts>,
    /// Full-schedule wire bytes per tier, indexed like
    /// [`super::PhaseLabel::tier_index`].
    pub tier_wire_bytes: [Bytes; 4],
    /// Non-local transfers kept in the thin slice.
    pub kept_transfers: usize,
    /// Non-local transfers in the full schedule.
    pub total_transfers: usize,
}

/// Running per-resource tallies while scanning one step.
#[derive(Default, Clone, Copy)]
struct Tally {
    bytes_sum: u64,
    transfers: u32,
    max_single: u64,
}

/// The chip a ring segment or DQ channel belongs to; `None` for the rank
/// bus, which belongs to no chip.
fn chip_of(r: &Resource) -> Option<ChipLoc> {
    match r {
        Resource::RingSegment { chip, .. }
        | Resource::ChipTx { chip }
        | Resource::ChipRx { chip } => Some(*chip),
        Resource::RankBus { .. } => None,
    }
}

/// Picks the representative chip: the chip whose resources the fewest
/// non-local transfers occupy (smallest [`ChipLoc`] on ties, so the
/// choice is deterministic). On symmetric collectives every chip carries
/// the same slice; on rooted ones (gather, reduce, broadcast) this
/// steers the slice away from the root's funnel, keeping the reduction
/// high. Falls back to DPU 0's chip when no transfer names a chip.
///
/// Counts go to a dense per-chip table in (channel, rank, chip) order,
/// which is [`ChipLoc`]'s order; a chip outside the geometry (a P011
/// resource) gets an overflow entry of its own and competes under the
/// same (count, chip) order.
#[must_use]
pub fn representative_chip(schedule: &CommSchedule) -> ChipLoc {
    let g = &schedule.geometry;
    let mut touch = vec![0usize; g.total_chips() as usize];
    let mut outside: Vec<(ChipLoc, usize)> = Vec::new();
    let mut chips: Vec<ChipLoc> = Vec::new();
    let steps = schedule.phases.iter().flat_map(|p| &p.steps);
    for t in steps.flat_map(|s| &s.transfers).filter(|t| !t.is_local()) {
        chips.clear();
        chips.extend(t.resources.iter().filter_map(chip_of));
        chips.sort_unstable();
        chips.dedup();
        for &chip in &chips {
            match chip_index(g, chip) {
                Some(i) => touch[i as usize] += 1,
                None => match outside.iter_mut().find(|(c, _)| *c == chip) {
                    Some((_, n)) => *n += 1,
                    None => outside.push((chip, 1)),
                },
            }
        }
    }
    let inside = (0u32..).zip(touch).filter(|&(_, n)| n > 0);
    inside
        .map(|(i, n)| (n, chip_at(g, i)))
        .chain(outside.into_iter().map(|(chip, n)| (n, chip)))
        .min()
        .map_or_else(|| ChipLoc::of(g.coord(DpuId(0))), |(_, chip)| chip)
}

/// Tallies one step's non-local transfers into `tallies` (left clear on
/// return) and returns the step's [`StepFacts`] and wire bytes. `visit`
/// sees every non-local transfer, in step order.
///
/// The busiest resource of each bandwidth class is picked by byte sum
/// (the first in resource order wins ties); the slack is the class-wide
/// maximum transfer count, so the non-uniform bound dominates every
/// resource of the class, not just the busiest-by-bytes one.
fn tally_step<'s>(
    step: &'s CommStep,
    elem_bytes: u32,
    tallies: &mut Occupancy<Tally>,
    mut visit: impl FnMut(&'s Transfer),
) -> (StepFacts, u64) {
    let mut f = StepFacts::default();
    let mut wire_bytes = 0u64;
    for t in step.transfers.iter().filter(|t| !t.is_local()) {
        let bytes = t.bytes(elem_bytes).as_u64();
        wire_bytes += bytes;
        f.max_hops = f.max_hops.max(t.resources.len() as u32);
        for r in &t.resources {
            let tally = tallies.entry(r, Tally::default());
            tally.bytes_sum += bytes;
            tally.transfers += 1;
            tally.max_single = tally.max_single.max(bytes);
        }
        visit(t);
    }
    let mut best = [0u64; 3];
    let mut slack = [0u32; 3];
    for (r, tally) in tallies.drain_sorted() {
        let (slot, class) = match r {
            Resource::RingSegment { .. } => (0, &mut f.ring),
            Resource::ChipTx { .. } | Resource::ChipRx { .. } => (1, &mut f.dq),
            Resource::RankBus { .. } => (2, &mut f.bus),
        };
        slack[slot] = slack[slot].max(tally.transfers);
        if tally.bytes_sum > best[slot] {
            best[slot] = tally.bytes_sum;
            *class = ClassFacts {
                transfers: tally.transfers,
                unit_bytes: Bytes::new(tally.max_single),
                total_bytes: Bytes::new(tally.bytes_sum),
                slack: 0,
            };
        }
    }
    f.ring.slack = slack[0];
    f.dq.slack = slack[1];
    f.bus.slack = slack[2];
    (f, wire_bytes)
}

/// Thins `schedule` to its representative slice and records the per-step
/// reconstruction facts.
///
/// The representative chip is the least-loaded chip
/// ([`representative_chip`]). A transfer is kept in the thin slice iff it
/// occupies any of that chip's resources (its ring segments or its DQ
/// send/receive channels). A step none of whose transfers touch the
/// representative chip (possible on asymmetric or repaired schedules)
/// keeps its single largest transfer, so the step skeleton — and with it
/// the phase-major facts alignment — stays 1:1 with the full schedule.
#[must_use]
pub fn plan(schedule: &CommSchedule) -> BoostPlan {
    let rep = representative_chip(schedule);
    let is_rep = |r: &Resource| chip_of(r) == Some(rep);

    let mut tallies: Occupancy<Tally> = Occupancy::new(&schedule.geometry);
    let mut facts = Vec::with_capacity(schedule.step_count());
    let mut tier_bytes = [0u64; 4];
    let mut kept_transfers = 0usize;
    let mut total_transfers = 0usize;
    let mut phases = Vec::with_capacity(schedule.phases.len());
    for phase in &schedule.phases {
        let tier = phase.label.tier_index();
        let mut steps = Vec::with_capacity(phase.steps.len());
        for step in &phase.steps {
            let mut kept: Vec<Transfer> = Vec::new();
            let mut longest: Option<&Transfer> = None;
            let (f, wire_bytes) = tally_step(step, schedule.elem_bytes, &mut tallies, |t| {
                total_transfers += 1;
                if t.resources.iter().any(is_rep) {
                    kept.push(t.clone());
                } else if longest.is_none_or(|l| t.src_span.len > l.src_span.len) {
                    longest = Some(t);
                }
            });
            tier_bytes[tier] += wire_bytes;
            if kept.is_empty() {
                if let Some(t) = longest {
                    kept.push(t.clone());
                }
            }
            kept_transfers += kept.len();
            facts.push(f);
            steps.push(CommStep { transfers: kept });
        }
        phases.push(Phase {
            label: phase.label,
            steps,
            multiplexed: phase.multiplexed,
        });
    }
    BoostPlan {
        thin: CommSchedule {
            kind: schedule.kind,
            geometry: schedule.geometry,
            elems_per_node: schedule.elems_per_node,
            elem_bytes: schedule.elem_bytes,
            buffer_len: schedule.buffer_len,
            result_spans: Vec::new(),
            phases,
        },
        facts,
        tier_wire_bytes: tier_bytes.map(Bytes::new),
        kept_transfers,
        total_transfers,
    }
}

/// The boosted [`CommBreakdown`] of `schedule` from its per-step facts
/// alone: exactly `plan(schedule).breakdown(timing, skew)`, without
/// picking a representative chip or copying a transfer. This is the
/// price for a schedule that is priced once and never re-priced or
/// walked as a timeline, such as an autotuner candidate.
#[must_use]
pub fn price(schedule: &CommSchedule, timing: &TimingModel, skew: SimTime) -> CommBreakdown {
    let mut tallies: Occupancy<Tally> = Occupancy::new(&schedule.geometry);
    reconstruct(schedule, timing, skew, |step| {
        tally_step(step, schedule.elem_bytes, &mut tallies, |_| {}).0
    })
}

/// Reassembles a full-schedule [`CommBreakdown`] over `skeleton`'s phases
/// and steps: the barrier under `skew`, each phase's reconstructed step
/// times, and the buffer's memory overhead. `facts` yields each step's
/// facts in phase-major order. [`BoostPlan::breakdown`] and [`price`]
/// both assemble their breakdown here, so the two cannot drift.
fn reconstruct(
    skeleton: &CommSchedule,
    timing: &TimingModel,
    skew: SimTime,
    mut facts: impl FnMut(&CommStep) -> StepFacts,
) -> CommBreakdown {
    let mut b = CommBreakdown::zero();
    let sync = SyncModel::from_fabric(&timing.fabric);
    b.sync = sync.barrier(TimingModel::scope_of_geometry(&skeleton.geometry), skew);
    for phase in &skeleton.phases {
        let mut t = SimTime::ZERO;
        for step in &phase.steps {
            t += step_time(timing, &facts(step));
        }
        b.add_phase(phase.label, t);
    }
    b.mem = timing.mem_overhead_of(skeleton.buffer_len, skeleton.elem_bytes);
    b
}

/// Reconstructed occupancy of one class's busiest resource: exact
/// `count x serialization(unit)` for uniform payloads, the byte-sum
/// ceiling bound otherwise (see [`ClassFacts`]).
fn class_time(bw: Bandwidth, f: ClassFacts) -> SimTime {
    if f.transfers == 0 {
        return SimTime::ZERO;
    }
    if u64::from(f.transfers) * f.unit_bytes.as_u64() == f.total_bytes.as_u64() {
        bw.transfer_time(f.unit_bytes) * u64::from(f.transfers)
    } else {
        bw.transfer_time(f.total_bytes) + SimTime::from_ps(u64::from(f.slack.max(1) - 1))
    }
}

/// Reconstructed duration of one step from its facts alone: the busiest
/// class occupancy plus the longest path's hop propagation — the boosted
/// analogue of [`TimingModel::step_time`].
fn step_time(timing: &TimingModel, f: &StepFacts) -> SimTime {
    let busiest = class_time(timing.fabric.ring_segment_bw(), f.ring)
        .max(class_time(timing.fabric.chip_channel_bw, f.dq))
        .max(class_time(timing.fabric.rank_bus_bw, f.bus));
    busiest + timing.fabric.hop_latency * u64::from(f.max_hops)
}

impl BoostPlan {
    /// Transfer-count reduction of the thin slice over the full schedule
    /// (the per-pricing speedup boost mode buys).
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.kept_transfers == 0 {
            1.0
        } else {
            self.total_transfers as f64 / self.kept_transfers as f64
        }
    }

    /// Reconstructed [`CommBreakdown`] of the *full* schedule — the boost
    /// replacement for [`TimingModel::time_schedule`], O(steps) instead
    /// of O(total transfers).
    #[must_use]
    pub fn breakdown(&self, timing: &TimingModel, skew: SimTime) -> CommBreakdown {
        let mut facts = self.facts.iter();
        reconstruct(&self.thin, timing, skew, |_| {
            *facts.next().expect("one facts entry per step")
        })
    }

    /// Reconstructed [`Timeline`] of the representative slice — the boost
    /// replacement for [`Timeline::build`].
    ///
    /// Step cursors advance by the reconstructed step times, so wherever
    /// the reconstruction is exact the kept windows are *exactly* the
    /// corresponding windows of the full timeline (a subsequence) and
    /// `end` matches the full build.
    #[must_use]
    pub fn timeline(&self, timing: &TimingModel) -> Timeline {
        let sync = SyncModel::from_fabric(&timing.fabric).barrier(
            TimingModel::scope_of_geometry(&self.thin.geometry),
            SimTime::ZERO,
        );
        let mut cursor = sync;
        let mut windows = Vec::with_capacity(self.kept_transfers);
        let mut fi = 0usize;
        for (pi, phase) in self.thin.phases.iter().enumerate() {
            for (si, step) in phase.steps.iter().enumerate() {
                let step_time = step_time(timing, &self.facts[fi]);
                fi += 1;
                for t in &step.transfers {
                    if t.is_local() {
                        continue;
                    }
                    let bytes = t.bytes(self.thin.elem_bytes);
                    let dur = t
                        .resources
                        .iter()
                        .map(|r| r.bandwidth(&timing.fabric).transfer_time(bytes))
                        .max()
                        .unwrap_or(SimTime::ZERO);
                    windows.push(TransferWindow {
                        phase: pi,
                        label: phase.label,
                        step: si,
                        src: t.src,
                        dsts: t.dsts.clone(),
                        bytes: bytes.as_u64(),
                        start: cursor,
                        end: (cursor + dur).min(cursor + step_time),
                    });
                }
                cursor += step_time;
            }
        }
        Timeline {
            sync,
            windows,
            end: cursor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveKind;
    use pim_arch::geometry::PimGeometry;

    fn build(kind: CollectiveKind, dpus: u32, elems: usize) -> CommSchedule {
        CommSchedule::build(kind, &PimGeometry::paper_scaled(dpus), elems, 4).expect("builds")
    }

    #[test]
    fn thin_preserves_the_step_skeleton() {
        let s = build(CollectiveKind::AllReduce, 256, 1024);
        let p = plan(&s);
        assert_eq!(p.thin.phases.len(), s.phases.len());
        for (a, b) in p.thin.phases.iter().zip(&s.phases) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.multiplexed, b.multiplexed);
            assert_eq!(a.steps.len(), b.steps.len());
        }
        assert_eq!(p.facts.len(), s.step_count());
        assert!(p.kept_transfers > 0);
        assert!(p.kept_transfers <= p.total_transfers);
        assert_eq!(p.total_transfers, s.transfer_count());
    }

    #[test]
    fn tier_wire_bytes_sum_to_the_full_schedule() {
        for dpus in [8u32, 64, 256] {
            let s = build(CollectiveKind::AllReduce, dpus, 512);
            let p = plan(&s);
            let sum: u64 = p.tier_wire_bytes.iter().map(|b| b.as_u64()).sum();
            assert_eq!(sum, s.total_wire_bytes().as_u64(), "x{dpus}");
        }
    }

    #[test]
    fn symmetric_reconstruction_is_exact() {
        let m = TimingModel::paper();
        for kind in CollectiveKind::ALL {
            for dpus in [8u32, 64, 256] {
                let s = build(kind, dpus, 1024);
                let p = plan(&s);
                assert_eq!(
                    p.breakdown(&m, SimTime::ZERO),
                    m.time_schedule(&s, SimTime::ZERO),
                    "{kind} x{dpus}"
                );
            }
        }
    }

    #[test]
    fn skew_lands_in_the_sync_bucket() {
        let m = TimingModel::paper();
        let p = plan(&build(CollectiveKind::AllReduce, 64, 1024));
        let zero = p.breakdown(&m, SimTime::ZERO);
        let skewed = p.breakdown(&m, SimTime::from_us(3));
        assert_eq!(skewed.sync, zero.sync + SimTime::from_us(3));
        assert_eq!(skewed.inter_bank, zero.inter_bank);
    }

    #[test]
    fn reduction_exceeds_ten_x_at_256_dpus() {
        let p = plan(&build(CollectiveKind::AllReduce, 256, 1024));
        assert!(p.reduction() >= 10.0, "only {:.1}x", p.reduction());
    }

    #[test]
    fn timeline_windows_are_a_subsequence_of_the_full_build() {
        let m = TimingModel::paper();
        let s = build(CollectiveKind::AllReduce, 64, 1024);
        let p = plan(&s);
        let full = Timeline::build(&s, &m);
        let thin = p.timeline(&m);
        assert_eq!(thin.sync, full.sync);
        assert_eq!(thin.end, full.end);
        assert!(thin.windows.len() < full.windows.len());
        let mut it = full.windows.iter();
        for w in &thin.windows {
            assert!(
                it.any(|fw| fw == w),
                "thin window {:?} missing from the full timeline",
                (w.phase, w.step, w.src)
            );
        }
    }
}
