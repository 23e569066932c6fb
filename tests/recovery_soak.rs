//! Runtime recovery soak: time-varying fault storms against
//! [`pimnet_suite::net::recovery::run_recovered`], end-to-end.
//!
//! The recovery contract, pinned across a seed matrix:
//!
//! 1. **Determinism** — the same seed and timeline reproduce the same
//!    tier, stats, trace fingerprint and buffers, run after run, and the
//!    outcome vector is identical at any worker fan-out.
//! 2. **Bit-identity** — every run that ends at tier ≤ 1 (Full or
//!    Repaired) leaves buffers exactly equal to the fault-free
//!    reference: CRC detection + backoff retry + checkpointed resume is
//!    lossless.
//! 3. **Soundness** — every run ends in a valid ladder tier, with a
//!    result machine exactly where the tier promises one and a typed
//!    [`PimnetError`] trail on host fallback. No panics, ever.

use pimnet_suite::arch::geometry::{DpuId, PimGeometry};
use pimnet_suite::arch::SystemConfig;
use pimnet_suite::faults::{
    FaultConfig, FaultInjector, FaultTimeline, PermanentFaultSet, TimelineRates,
};
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::exec::{run_collective, ExecMachine, ReduceOp};
use pimnet_suite::net::recovery::{run_recovered, RecoveryOutcome, RecoveryRequest};
use pimnet_suite::net::schedule::CommSchedule;
use pimnet_suite::net::timing::TimingModel;
use pimnet_suite::net::PimnetError;
use pimnet_suite::sim::{par, Probe};

const N: u32 = 16;
const ELEMS: usize = 16;

const KINDS: [CollectiveKind; 4] = [
    CollectiveKind::AllReduce,
    CollectiveKind::AllGather,
    CollectiveKind::AllToAll,
    CollectiveKind::Broadcast,
];

fn input(id: DpuId) -> Vec<u64> {
    (0..ELEMS)
        .map(|e| (u64::from(id.0) + 1) * 1_000 + e as u64)
        .collect()
}

/// Fault-free reference buffers every tier ≤ 1 run must reproduce.
fn reference(kind: CollectiveKind) -> (CommSchedule, ExecMachine<u64>) {
    let g = PimGeometry::paper_scaled(N);
    let s = CommSchedule::build(kind, &g, ELEMS, 8).unwrap();
    let m = run_collective(&s, ReduceOp::Sum, input).unwrap();
    (s, m)
}

/// The sampled storm of one seed: mid-run arrivals, link flaps and BER
/// bursts over a 50 µs horizon, plus mild background transients.
fn storm_config(seed: u64, g: &PimGeometry) -> FaultConfig {
    let rates = TimelineRates {
        segment_arrival_prob: 0.08,
        port_arrival_prob: 0.05,
        rank_arrival_prob: 0.02,
        flap_prob: 0.12,
        burst_prob: 0.15,
        burst_ber: 0.8,
    };
    FaultConfig {
        transient_ber: 0.002,
        straggler_prob: 0.05,
        straggler_max_ns: 500,
        max_retries: 8,
        timeline: FaultTimeline::sample(
            seed,
            g.ranks_per_channel,
            g.chips_per_rank,
            g.banks_per_chip,
            50_000_000,
            &rates,
        ),
        ..FaultConfig::none()
    }
    .with_seed(seed)
}

fn run_one(kind: CollectiveKind, seed: u64) -> Result<RecoveryOutcome<u64>, PimnetError> {
    let g = PimGeometry::paper_scaled(N);
    let sys = SystemConfig::paper_scaled(N);
    let timing = TimingModel::paper();
    let injector = FaultInjector::new(storm_config(seed, &g));
    let req = RecoveryRequest {
        kind,
        geometry: &g,
        elems_per_node: ELEMS,
        elem_bytes: 8,
        op: ReduceOp::Sum,
        injector: &injector,
        system: &sys,
        timing: &timing,
    };
    run_recovered::<u64>(&req, input, Probe::disabled())
}

/// Asserts one outcome against the soundness contract and returns the
/// tier it ended on (4 = unplannable, a typed end state of its own).
fn assert_sound(
    kind: CollectiveKind,
    seed: u64,
    out: &Result<RecoveryOutcome<u64>, PimnetError>,
) -> usize {
    let out = match out {
        // The storm left nothing plannable: typed, not a panic.
        Err(e) => {
            assert!(!e.to_string().is_empty());
            return 4;
        }
        Ok(out) => out,
    };
    match (out.plan_tier, out.machine.as_ref()) {
        (0 | 1, Some(m)) => {
            let (ref_s, ref_m) = reference(kind);
            for id in ref_s.participants() {
                assert_eq!(
                    m.result(&ref_s, id),
                    ref_m.result(&ref_s, id),
                    "{kind} seed {seed}: tier {} diverged from the fault-free \
                     reference at node {id}",
                    out.plan_tier
                );
            }
        }
        (2, Some(_)) => {}
        (3, None) => {
            assert!(
                !out.error_trail.is_empty(),
                "{kind} seed {seed}: host fallback with no typed error trail"
            );
        }
        (t, m) => panic!(
            "{kind} seed {seed}: unsound end state — tier {t} with machine {}",
            m.is_some()
        ),
    }
    usize::from(out.plan_tier)
}

#[test]
fn seed_matrix_soak_ends_every_run_in_a_valid_tier() {
    // ~1000 scenarios in release; scaled down for the debug profile.
    let per_kind: u64 = if cfg!(debug_assertions) { 50 } else { 250 };
    let mut tiers = [0u64; 5];
    for kind in KINDS {
        for s in 0..per_kind {
            let seed = 0x5EED_0000 + s;
            tiers[assert_sound(kind, seed, &run_one(kind, seed))] += 1;
        }
    }
    let total: u64 = tiers.iter().sum();
    assert_eq!(total, 4 * per_kind);
    assert!(tiers[0] > 0, "no scenario survived at full tier: {tiers:?}");
    assert!(
        tiers[1] + tiers[2] + tiers[3] + tiers[4] > 0,
        "the storm never exercised the ladder: {tiers:?}"
    );
}

#[test]
fn recovery_is_deterministic_and_worker_invariant() {
    let scenarios: Vec<(CollectiveKind, u64)> = KINDS
        .iter()
        .flat_map(|&k| (0..4u64).map(move |s| (k, 0xD00_000 + s)))
        .collect();
    // The full outcome — tier, stats, clock, trail, buffers — rendered
    // to one comparable signature per scenario.
    let sig = |(kind, seed): (CollectiveKind, u64)| -> String {
        match run_one(kind, seed) {
            Ok(out) => format!(
                "{kind} {seed} tier={} stats={:?} end={} trail={:?} m={:?}",
                out.plan_tier, out.stats, out.end_ps, out.error_trail, out.machine
            ),
            Err(e) => format!("{kind} {seed} unplannable: {e}"),
        }
    };
    let twice: Vec<String> = scenarios.iter().copied().map(sig).collect();
    let again: Vec<String> = scenarios.iter().copied().map(sig).collect();
    assert_eq!(twice, again, "same seed, different recovery");
    // Fan-out must not change a single byte of any outcome.
    let one = par::map_ordered_with(1, scenarios.clone(), sig);
    let four = par::map_ordered_with(4, scenarios, sig);
    assert_eq!(twice, one);
    assert_eq!(one, four);
}

#[test]
fn finite_burst_windows_recover_bit_identically_for_every_kind() {
    let g = PimGeometry::paper_scaled(N);
    let sys = SystemConfig::paper_scaled(N);
    let timing = TimingModel::paper();
    for kind in KINDS {
        // BER 1.0 for the first 3 µs: every attempt inside the window
        // fails CRC, so only the backoff clock gets the run through.
        let injector = FaultInjector::new(FaultConfig {
            timeline: FaultTimeline {
                bursts: vec![pimnet_suite::faults::TransientBurst {
                    from_ps: 0,
                    until_ps: 3_000_000,
                    ber: 1.0,
                }],
                ..FaultTimeline::none()
            },
            backoff_base_ps: 2_000_000,
            ..FaultConfig::none()
        });
        let req = RecoveryRequest {
            kind,
            geometry: &g,
            elems_per_node: ELEMS,
            elem_bytes: 8,
            op: ReduceOp::Sum,
            injector: &injector,
            system: &sys,
            timing: &timing,
        };
        let out = run_recovered::<u64>(&req, input, Probe::disabled()).unwrap();
        assert_eq!(out.plan_tier, 0, "{kind}: trail {:?}", out.error_trail);
        assert!(out.stats.step_retries >= 1, "{kind}: burst never bit");
        assert_eq!(assert_sound(kind, 0, &Ok(out)), 0);
    }
}

#[test]
fn mid_run_arrivals_stay_sound_for_every_kind() {
    let g = PimGeometry::paper_scaled(N);
    let sys = SystemConfig::paper_scaled(N);
    let timing = TimingModel::paper();
    // One ring segment dies 1 ps in. Schedules that still route over it
    // must replan (tier >= 1); schedules that never touch it finish at
    // full tier. Either way the end state must satisfy the contract.
    let arrivals = FaultTimeline::parse_arrivals("r0c0b0E@t=1ps").unwrap();
    for kind in KINDS {
        let injector = FaultInjector::new(FaultConfig {
            timeline: FaultTimeline {
                arrivals: arrivals.clone(),
                ..FaultTimeline::none()
            },
            ..FaultConfig::none()
        });
        let req = RecoveryRequest {
            kind,
            geometry: &g,
            elems_per_node: ELEMS,
            elem_bytes: 8,
            op: ReduceOp::Sum,
            injector: &injector,
            system: &sys,
            timing: &timing,
        };
        let out = run_recovered::<u64>(&req, input, Probe::disabled()).unwrap();
        assert!(
            out.machine.is_some(),
            "{kind}: one dead segment must stay survivable (tier {}, trail {:?})",
            out.plan_tier,
            out.error_trail
        );
        assert_sound(kind, 0, &Ok(out));
    }
}

#[test]
fn declared_dead_rank_from_launch_still_plans_and_recovers() {
    // Pre-existing permanent faults (the planner's job) compose with the
    // runtime timeline (the recovery manager's job) in one scenario.
    let g = PimGeometry::paper_scaled(N);
    let sys = SystemConfig::paper_scaled(N);
    let timing = TimingModel::paper();
    let mut cfg = FaultConfig::none();
    cfg.permanent = PermanentFaultSet::parse_tokens("r0c0b2E").unwrap();
    cfg.timeline = FaultTimeline {
        bursts: vec![pimnet_suite::faults::TransientBurst {
            from_ps: 0,
            until_ps: 1_000_000,
            ber: 1.0,
        }],
        ..FaultTimeline::none()
    };
    cfg.backoff_base_ps = 800_000;
    let injector = FaultInjector::new(cfg);
    let req = RecoveryRequest {
        kind: CollectiveKind::AllReduce,
        geometry: &g,
        elems_per_node: ELEMS,
        elem_bytes: 8,
        op: ReduceOp::Sum,
        injector: &injector,
        system: &sys,
        timing: &timing,
    };
    let out = run_recovered::<u64>(&req, input, Probe::disabled()).unwrap();
    assert!(out.machine.is_some(), "trail: {:?}", out.error_trail);
    assert_sound(CollectiveKind::AllReduce, 0, &Ok(out));
}

#[test]
fn bench_sweep_is_byte_identical_at_any_worker_count() {
    // The CI recovery-soak artifact: same seeds, 1 vs 4 workers, the
    // rendered table (and hence the CSV) must not differ by a byte.
    let a = pimnet_bench::sweeps::recovery_soak(2, 0xEC0, 1);
    let b = pimnet_bench::sweeps::recovery_soak(2, 0xEC0, 4);
    assert_eq!(a.table.render(), b.table.render());
    assert_eq!(a.table.to_csv(), b.table.to_csv());
    assert_eq!(
        (a.total, a.verified, a.unsound),
        (b.total, b.verified, b.unsound)
    );
    assert_eq!(a.unsound, 0, "bench sweep found contract violations");
}
