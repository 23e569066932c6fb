//! Pinned accuracy of boost mode ([`schedule::boost`]): the
//! representative-slice reconstruction must match the full-schedule
//! timing walk *exactly* on the symmetric Table V collectives, and to
//! within ceiling-rounding slack (one-sided, sub-0.1%) on uneven payload
//! splits. Any silent drift in either direction fails here.
//!
//! The corpus is every collective kind at the paper's 8/64/256-DPU
//! presets — the same matrix the SoA equivalence suite pins — so boost
//! mode's accuracy contract is enforced at exactly the scales the
//! scaling gate benchmarks.

use std::collections::BTreeMap;

use pim_arch::geometry::{DpuId, PimGeometry};
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::schedule::boost::{ClassFacts, StepFacts};
use pimnet_suite::net::schedule::cache::{self, ScheduleRequest};
use pimnet_suite::net::schedule::{
    boost, build_composed, BoostPlan, CommSchedule, CommStep, Composition, Span, Transfer,
};
use pimnet_suite::net::timeline::Timeline;
use pimnet_suite::net::timing::TimingModel;
use pimnet_suite::net::topology::{ChipLoc, Direction, Resource};
use pimnet_suite::sim::{Bytes, Probe, SimTime};

fn build(kind: CollectiveKind, dpus: u32, elems: usize) -> CommSchedule {
    CommSchedule::build(kind, &PimGeometry::paper_scaled(dpus), elems, 4).expect("builds")
}

/// Divisible payloads: every class's busiest resource carries uniform
/// transfers, so the reconstruction is bit-exact — breakdown, skewed
/// breakdown, and timeline end all `assert_eq!` against the full walk.
#[test]
fn divisible_payloads_reconstruct_exactly() {
    let timing = TimingModel::paper();
    for kind in CollectiveKind::ALL {
        for dpus in [8u32, 64, 256] {
            let s = build(kind, dpus, 1024);
            let plan = boost::plan(&s);
            for skew in [SimTime::ZERO, SimTime::from_us(7)] {
                assert_eq!(
                    plan.breakdown(&timing, skew),
                    timing.time_schedule(&s, skew),
                    "{kind} x{dpus} skew {skew}: boosted breakdown diverged"
                );
            }
            let full = Timeline::build(&s, &timing);
            let thin = plan.timeline(&timing);
            assert_eq!(thin.sync, full.sync, "{kind} x{dpus}: sync diverged");
            assert_eq!(thin.end, full.end, "{kind} x{dpus}: timeline end diverged");
        }
    }
}

/// The kept windows are an exact subsequence of the full timeline: boost
/// drops windows, it never invents or reshapes them.
#[test]
fn boosted_windows_are_a_subsequence_of_the_full_timeline() {
    let timing = TimingModel::paper();
    for kind in CollectiveKind::ALL {
        for dpus in [8u32, 64, 256] {
            let s = build(kind, dpus, 1024);
            let plan = boost::plan(&s);
            let full = Timeline::build(&s, &timing);
            let thin = plan.timeline(&timing);
            let mut it = full.windows.iter();
            for w in &thin.windows {
                assert!(
                    it.any(|fw| fw == w),
                    "{kind} x{dpus}: thin window {:?} missing from the full timeline",
                    (w.phase, w.step, w.src)
                );
            }
        }
    }
}

/// Uneven payload splits: the reconstruction falls back to the byte-sum
/// ceiling bound, which may only *over*estimate, and by at most one
/// picosecond per transfer — pinned here as a one-sided relative error
/// under 0.1% across the whole corpus.
#[test]
fn uneven_payloads_stay_within_ceiling_slack() {
    let timing = TimingModel::paper();
    for kind in CollectiveKind::ALL {
        for dpus in [8u32, 64, 256] {
            for elems in [130usize, 193, 1030] {
                let s = build(kind, dpus, elems);
                let plan = boost::plan(&s);
                let full = timing.time_schedule(&s, SimTime::ZERO).total().as_ps();
                let fast = plan.breakdown(&timing, SimTime::ZERO).total().as_ps();
                assert!(
                    fast >= full,
                    "{kind} x{dpus} e{elems}: boost underestimated ({fast} < {full} ps)"
                );
                let rel = (fast - full) as f64 / full as f64;
                assert!(
                    rel <= 1e-3,
                    "{kind} x{dpus} e{elems}: relative error {rel:+.6} exceeds 0.1%"
                );
            }
        }
    }
}

/// Hierarchical composed schedules (one per collective with a composed
/// form) are priced by the same boost path the autotuner uses to rank
/// candidates, so the accuracy contract must hold for them too: the
/// reconstruction never underestimates, and overestimates by less than
/// 0.1% on divisible and ragged payloads alike.
#[test]
fn composed_schedules_stay_within_ceiling_slack() {
    let timing = TimingModel::paper();
    for (kind, spec) in [
        (CollectiveKind::AllReduce, "ring_direct_ring"),
        (CollectiveKind::ReduceScatter, "rabenseifner_ring_direct"),
        (CollectiveKind::AllGather, "direct_ring_ring"),
        (CollectiveKind::Broadcast, "dbtree_ring_ring"),
        (CollectiveKind::AllToAll, "direct_direct_direct"),
    ] {
        let comp = Composition::parse(spec).expect("pinned spec parses");
        for dpus in [8u32, 64, 256] {
            let g = PimGeometry::paper_scaled(dpus);
            for elems in [130usize, 1024] {
                let s = build_composed(kind, &g, elems, 4, comp).expect("composed builds");
                let plan = boost::plan(&s);
                let full = timing.time_schedule(&s, SimTime::ZERO).total().as_ps();
                let fast = plan.breakdown(&timing, SimTime::ZERO).total().as_ps();
                assert!(
                    fast >= full,
                    "{kind} x{dpus} e{elems} {spec}: boost underestimated ({fast} < {full} ps)"
                );
                let rel = (fast - full) as f64 / full as f64;
                assert!(
                    rel <= 1e-3,
                    "{kind} x{dpus} e{elems} {spec}: relative error {rel:+.6} exceeds 0.1%"
                );
            }
        }
    }
}

/// The raw-speed claim behind the scaling gate: at 256 DPUs the thin
/// slice prices at least 10x fewer transfers than the full schedule, for
/// every collective kind.
#[test]
fn reduction_is_at_least_ten_x_at_256_dpus_for_every_kind() {
    for kind in CollectiveKind::ALL {
        let plan = boost::plan(&build(kind, 256, 1024));
        assert!(
            plan.reduction() >= 10.0,
            "{kind}: only {:.1}x reduction",
            plan.reduction()
        );
    }
}

/// The cached entry point returns the same plan as a direct thinning,
/// and its key space is disjoint from the plain schedule cache.
#[test]
fn cached_boost_plans_match_direct_planning() {
    let req = ScheduleRequest::new(
        CollectiveKind::AllGather,
        &PimGeometry::paper_scaled(256),
        611,
        4,
    );
    let cached = cache::get::<BoostPlan>(&req, Probe::disabled()).expect("boost plan builds");
    let direct = boost::plan(&build(CollectiveKind::AllGather, 256, 611));
    assert_eq!(*cached, direct);
    let plain = cache::get::<CommSchedule>(&req, Probe::disabled()).expect("schedule builds");
    assert_eq!(cached.total_transfers, plain.transfer_count());
    assert!(cached.kept_transfers < plain.transfer_count());
}

/// One step's duration priced through an ordered map of per-resource
/// occupancy: the reference the dense occupancy kernel must equal.
fn reference_step_time(timing: &TimingModel, elem_bytes: u32, step: &CommStep) -> SimTime {
    let mut occupancy: BTreeMap<Resource, SimTime> = BTreeMap::new();
    let mut max_hops = 0u64;
    for t in step.transfers.iter().filter(|t| !t.is_local()) {
        let bytes = t.bytes(elem_bytes);
        max_hops = max_hops.max(t.resources.len() as u64);
        for r in &t.resources {
            *occupancy.entry(*r).or_insert(SimTime::ZERO) +=
                r.bandwidth(&timing.fabric).transfer_time(bytes);
        }
    }
    let busiest = occupancy.values().copied().max().unwrap_or(SimTime::ZERO);
    busiest + timing.fabric.hop_latency * max_hops
}

/// One step's boost facts tallied in an ordered map: per class, the first
/// resource in `Resource` order with the largest byte sum.
fn reference_facts(elem_bytes: u32, step: &CommStep) -> StepFacts {
    // (byte sum, transfers, largest payload) per resource.
    let mut tallies: BTreeMap<Resource, (u64, u32, u64)> = BTreeMap::new();
    let mut f = StepFacts::default();
    for t in step.transfers.iter().filter(|t| !t.is_local()) {
        let bytes = t.bytes(elem_bytes).as_u64();
        f.max_hops = f.max_hops.max(t.resources.len() as u32);
        for r in &t.resources {
            let e = tallies.entry(*r).or_default();
            *e = (e.0 + bytes, e.1 + 1, e.2.max(bytes));
        }
    }
    let mut best = [0u64; 3];
    for (r, (sum, transfers, unit)) in tallies {
        let c = r.tier_index() - 1;
        let class = match c {
            0 => &mut f.ring,
            1 => &mut f.dq,
            _ => &mut f.bus,
        };
        class.slack = class.slack.max(transfers);
        if sum > best[c] {
            best[c] = sum;
            *class = ClassFacts {
                transfers,
                unit_bytes: Bytes::new(unit),
                total_bytes: Bytes::new(sum),
                slack: class.slack,
            };
        }
    }
    f
}

/// `s` (built on one channel of `g`) copied onto every channel of `g`:
/// builders refuse multi-channel geometries, but timing and boost price
/// any resource list.
fn on_every_channel(s: &CommSchedule, g: PimGeometry) -> CommSchedule {
    let per_channel = g.dpus_per_channel();
    let mut out = s.clone();
    out.geometry = g;
    for (phase, base) in out.phases.iter_mut().zip(&s.phases) {
        for (step, base) in phase.steps.iter_mut().zip(&base.steps) {
            for ch in 1..g.channels {
                for t in &base.transfers {
                    let mut t = t.clone();
                    let shift = |d: DpuId| DpuId(d.0 + ch * per_channel);
                    t.src = shift(t.src);
                    t.dsts = t.dsts.iter().map(|&d| shift(d)).collect();
                    for r in &mut t.resources {
                        match r {
                            Resource::RingSegment { chip, .. }
                            | Resource::ChipTx { chip }
                            | Resource::ChipRx { chip } => chip.channel = ch,
                            Resource::RankBus { channel } => *channel = ch,
                        }
                    }
                    step.transfers.push(t);
                }
            }
        }
    }
    out
}

/// The dense occupancy kernel against ordered-map references, step by
/// step: the timing model's step time and boost's class facts, whose
/// busiest-resource pick on ties follows `Resource` order. The corpus is
/// every kind at 8/64/256 DPUs (less AllGather@256), the serving
/// tenants' 128-DPU geometry, a 2-channel geometry, a schedule whose
/// resources outside its geometry must each stay their own contention
/// domain, and a step whose busiest segments tie.
#[test]
fn dense_occupancy_matches_an_ordered_map_reference() {
    let timing = TimingModel::paper();
    let mut corpus: Vec<(String, CommSchedule)> = Vec::new();
    for kind in CollectiveKind::ALL {
        for dpus in [8u32, 64, 256] {
            if kind != CollectiveKind::AllGather || dpus != 256 {
                corpus.push((format!("{kind} x{dpus}"), build(kind, dpus, 200)));
            }
        }
        let serve = PimGeometry::new(8, 8, 2, 1);
        let s = CommSchedule::build(kind, &serve, 200, 4).expect("builds");
        corpus.push((format!("{kind} on {serve}"), s));
        let one = PimGeometry::new(4, 2, 2, 1);
        let two = PimGeometry::new(4, 2, 2, 2);
        let s = CommSchedule::build(kind, &one, 200, 4).expect("builds");
        corpus.push((format!("{kind} on {two}"), on_every_channel(&s, two)));
    }
    let mut phantom = build(CollectiveKind::AllReduce, 64, 256);
    let outside = ChipLoc {
        channel: 3,
        rank: 9,
        chip: 40,
    };
    for step in phantom.phases.iter_mut().flat_map(|p| &mut p.steps) {
        for t in step.transfers.iter_mut().filter(|t| !t.is_local()) {
            let extra = match t.resources[0] {
                Resource::RingSegment { chip, dir, .. } => Resource::RingSegment {
                    chip,
                    from_bank: 99,
                    dir,
                },
                _ => Resource::ChipRx { chip: outside },
            };
            t.resources.push(extra);
        }
    }
    corpus.push(("AllReduce x64 with phantom resources".into(), phantom));
    // Two segments tie on byte sum with different facts; the first in
    // resource order (bank 1) must win although bank 5 is touched first.
    let mut tie = build(CollectiveKind::AllReduce, 8, 64);
    let seg = |from_bank| Resource::RingSegment {
        chip: ChipLoc {
            channel: 0,
            rank: 0,
            chip: 0,
        },
        from_bank,
        dir: Direction::East,
    };
    let send = |src: u32, len: usize, r: Resource| Transfer {
        src: DpuId(src),
        dsts: vec![DpuId(src + 1)],
        src_span: Span::new(0, len),
        dst_span: Span::new(0, len),
        combine: false,
        resources: vec![r],
    };
    tie.phases[0].steps[0].transfers = vec![
        send(5, 50, seg(5)),
        send(1, 25, seg(1)),
        send(2, 25, seg(1)),
    ];
    corpus.push(("AllReduce x8 with a byte-sum tie".into(), tie));

    for (what, s) in &corpus {
        let plan = boost::plan(s);
        let steps = s.phases.iter().flat_map(|p| &p.steps);
        for (i, step) in steps.enumerate() {
            assert_eq!(
                timing.step_time(s, step),
                reference_step_time(&timing, s.elem_bytes, step),
                "{what}: step {i} time"
            );
            assert_eq!(
                plan.facts[i],
                reference_facts(s.elem_bytes, step),
                "{what}: step {i} facts"
            );
        }
    }
}
