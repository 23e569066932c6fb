//! Chaos soak: seeded sweeps over geometry × collective × fault combos,
//! driving the full plan → repair → validate → execute → verify pipeline.
//!
//! Invariants asserted for every scenario:
//!
//! * any plan that still runs on PIMnet carries a schedule that passes
//!   `schedule::validate` — repair never smuggles contention in;
//! * Full and Repaired plans produce results **bit-identical** to the
//!   fault-free reference, even with transient CRC faults layered on top;
//! * lost participants always come with a typed error trail, and the
//!   degradation ladder (Full → Repaired → Shrunk → HostFallback) is
//!   monotone in fault severity;
//! * identical seeds give identical plans, timelines, and stats —
//!   byte-for-byte replayable chaos.

use pimnet_suite::arch::geometry::PimGeometry;
use pimnet_suite::arch::SystemConfig;
use pimnet_suite::faults::{FaultConfig, FaultInjector, PermanentFaultRates, PermanentFaultSet};
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::exec::{ExecMachine, ReduceOp};
use pimnet_suite::net::resilience::{plan_degraded, DegradedPlan};
use pimnet_suite::net::schedule::{validate::validate, CommSchedule};
use pimnet_suite::net::timeline::Timeline;
use pimnet_suite::net::timing::TimingModel;
use pimnet_suite::net::PimnetError;
use pimnet_suite::sim::Probe;

const ELEMS: usize = 64;

const KINDS: [CollectiveKind; 4] = [
    CollectiveKind::AllReduce,
    CollectiveKind::AllGather,
    CollectiveKind::AllToAll,
    CollectiveKind::Broadcast,
];

/// A chaos scenario: permanent faults sampled from the seed, plus
/// transients and stragglers on top.
fn chaos_config(seed: u64) -> FaultConfig {
    FaultConfig {
        transient_ber: 0.02,
        straggler_prob: 0.1,
        straggler_max_ns: 5_000,
        max_retries: 8,
        perm_rates: PermanentFaultRates {
            segment_prob: 0.02,
            port_prob: 0.02,
            rank_prob: 0.05,
        },
        ..FaultConfig::none()
    }
    .with_seed(seed)
}

fn reference(kind: CollectiveKind, g: &PimGeometry) -> (CommSchedule, ExecMachine<u64>) {
    let s = CommSchedule::build(kind, g, ELEMS, 4).unwrap();
    let mut m = ExecMachine::init(&s, |id| vec![u64::from(id.0) + 1; ELEMS]);
    m.run(&s, ReduceOp::Sum);
    (s, m)
}

/// Runs one scenario end-to-end and asserts every invariant. Returns the
/// plan so callers can also compare runs against each other.
fn soak_one(kind: CollectiveKind, dpus: u32, seed: u64) -> Option<DegradedPlan> {
    let g = PimGeometry::paper_scaled(dpus);
    let sys = SystemConfig::paper_scaled(dpus);
    let inj = FaultInjector::new(chaos_config(seed));
    let faults = inj.permanent_faults(g.ranks_per_channel, g.chips_per_rank, g.banks_per_chip);
    let plan = match plan_degraded(kind, &g, ELEMS, 4, &inj, &sys) {
        Ok(p) => p,
        Err(PimnetError::InvalidGeometry { .. })
            if (0..g.ranks_per_channel).all(|r| faults.dead_ranks.contains(&r)) =>
        {
            // Every rank sampled dead: legitimately nothing left to plan.
            return None;
        }
        Err(e) => panic!("{kind} on {dpus} DPUs, seed {seed}: unexpected {e}"),
    };
    let ctx = format!(
        "{kind} on {dpus} DPUs, seed {seed}, tier {}",
        plan.tier_name()
    );

    if let Some(s) = plan.schedule() {
        validate(s).unwrap_or_else(|e| panic!("{ctx}: invalid schedule: {e}"));
    }
    match &plan {
        DegradedPlan::Full(s) | DegradedPlan::Repaired { schedule: s, .. } => {
            // Bit-identical to the fault-free reference, clean...
            let (_, reference) = reference(kind, &g);
            let mut m = ExecMachine::init(s, |id| vec![u64::from(id.0) + 1; ELEMS]);
            m.run(s, ReduceOp::Sum);
            assert_eq!(m, reference, "{ctx}: diverged from fault-free reference");
            // ...and under transient CRC faults layered on top.
            let mut faulty = ExecMachine::init(s, |id| vec![u64::from(id.0) + 1; ELEMS]);
            faulty
                .run_with_faults(s, ReduceOp::Sum, &inj)
                .unwrap_or_else(|e| panic!("{ctx}: transient run failed: {e}"));
            assert_eq!(faulty, reference, "{ctx}: transient run diverged");
            // A repaired plan is never cheaper than the full one.
            if let DegradedPlan::Repaired { report, .. } = &plan {
                assert!(
                    !report.is_identity(),
                    "{ctx}: identity repair should be Full"
                );
                let timing = TimingModel::paper();
                let clean = CommSchedule::build(kind, &g, ELEMS, 4).unwrap();
                assert!(
                    timing
                        .time_schedule(s, pimnet_suite::sim::SimTime::ZERO)
                        .total()
                        >= timing
                            .time_schedule(&clean, pimnet_suite::sim::SimTime::ZERO)
                            .total(),
                    "{ctx}: repair made the schedule faster than fault-free"
                );
            }
        }
        DegradedPlan::Shrunk {
            schedule,
            logical_to_physical,
            excluded,
            error_trail,
        } => {
            assert!(!error_trail.is_empty(), "{ctx}: shrunk without a trail");
            let n = schedule.geometry.total_dpus() as usize;
            assert_eq!(logical_to_physical.len(), n, "{ctx}");
            assert_eq!(
                logical_to_physical.len() + excluded.len(),
                g.total_dpus() as usize,
                "{ctx}: survivors + excluded must partition the machine"
            );
            assert!(
                logical_to_physical.iter().all(|d| !excluded.contains(d)),
                "{ctx}: a DPU is both surviving and excluded"
            );
            // The shrunk plan still computes the collective correctly.
            let mut m = ExecMachine::init(schedule, |id| vec![u64::from(id.0) + 1; ELEMS]);
            m.run(schedule, ReduceOp::Sum);
            let (_, shrunk_ref) = reference(kind, &schedule.geometry);
            assert_eq!(m, shrunk_ref, "{ctx}: shrunk plan diverged");
        }
        DegradedPlan::HostFallback {
            breakdown,
            error_trail,
            ..
        } => {
            assert!(!error_trail.is_empty(), "{ctx}: fallback without a trail");
            assert!(
                breakdown.total() > pimnet_suite::sim::SimTime::ZERO,
                "{ctx}: host fallback must still cost time"
            );
        }
    }
    Some(plan)
}

#[test]
fn chaos_soak_sweep_holds_every_invariant() {
    for &dpus in &[8u32, 64, 256] {
        for kind in KINDS {
            for seed in 0..6 {
                soak_one(kind, dpus, seed);
            }
        }
    }
}

#[test]
fn identical_seeds_are_byte_identical() {
    for seed in [3u64, 17, 0xC0FFEE] {
        let a = soak_one(CollectiveKind::AllReduce, 64, seed);
        let b = soak_one(CollectiveKind::AllReduce, 64, seed);
        assert_eq!(a, b, "seed {seed}: plans diverged between identical runs");
        // Timings replay too.
        if let Some(s) = a.as_ref().and_then(|p| p.schedule()) {
            let inj = FaultInjector::new(chaos_config(seed));
            let timing = TimingModel::paper();
            let ta = Timeline::build_with_faults(s, &timing, &inj, Probe::disabled()).unwrap();
            let tb = Timeline::build_with_faults(s, &timing, &inj, Probe::disabled()).unwrap();
            assert_eq!(ta, tb, "seed {seed}: timelines diverged");
        }
    }
}

#[test]
fn ladder_is_monotone_in_fault_severity() {
    let g = PimGeometry::paper_scaled(256);
    let sys = SystemConfig::paper_scaled(256);
    let tier = |permanent: &str, dead: Vec<u32>| {
        let inj = FaultInjector::new(FaultConfig {
            permanent: PermanentFaultSet::parse_tokens(permanent).unwrap(),
            dead_dpus: dead,
            ..FaultConfig::none()
        });
        plan_degraded(CollectiveKind::AllReduce, &g, ELEMS, 4, &inj, &sys)
            .unwrap()
            .tier()
    };
    let ladder = [
        tier("", vec![]),                  // healthy
        tier("r0c1b3E", vec![]),           // repairable segment
        tier("r0c1b3E, r1c2rx", vec![]),   // + repairable port
        tier("rank3", vec![]),             // dead rank: shrink
        tier("rank3", (0..191).collect()), // near-total death: host
    ];
    assert_eq!(ladder[0], 0);
    assert!(
        ladder.windows(2).all(|w| w[0] <= w[1]),
        "ladder regressed: {ladder:?}"
    );
    assert_eq!(*ladder.last().unwrap(), 3);
}

#[test]
fn explicit_and_sampled_faults_merge() {
    // An explicit dead port merges with seed-sampled faults and the merged
    // scenario still plans deterministically.
    let mut cfg = chaos_config(5);
    cfg.permanent = PermanentFaultSet::parse_tokens("r0c0tx").unwrap();
    let inj = FaultInjector::new(cfg);
    let set = inj.permanent_faults(4, 8, 8);
    assert!(set
        .ports
        .contains(&pimnet_suite::faults::PortId::parse("r0c0tx").unwrap()));
    let g = PimGeometry::paper_scaled(256);
    let sys = SystemConfig::paper_scaled(256);
    let a = plan_degraded(CollectiveKind::AllGather, &g, ELEMS, 4, &inj, &sys);
    let b = plan_degraded(CollectiveKind::AllGather, &g, ELEMS, 4, &inj, &sys);
    assert_eq!(a.is_ok(), b.is_ok());
    if let (Ok(a), Ok(b)) = (a, b) {
        assert_eq!(a, b);
    }
}
