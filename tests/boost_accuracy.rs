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

use pim_arch::geometry::PimGeometry;
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::schedule::cache::{self, ScheduleRequest};
use pimnet_suite::net::schedule::{boost, build_composed, BoostPlan, CommSchedule, Composition};
use pimnet_suite::net::timeline::Timeline;
use pimnet_suite::net::timing::TimingModel;
use pimnet_suite::sim::{Probe, SimTime};

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
