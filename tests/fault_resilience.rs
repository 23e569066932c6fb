//! Cross-crate fault-injection properties.
//!
//! The contract of the fault layer, pinned end-to-end:
//!
//! 1. **Bit-identical recovery** — a fault-injected run that succeeds
//!    (every corrupted transfer retried within budget) leaves exactly the
//!    buffers of a fault-free run. CRC detection plus retry is *lossless*.
//! 2. **Seeded determinism** — the same seed reproduces the same corrupted
//!    transfers, the same retry counts, the same stretched timeline, and
//!    the same NoC report, run after run.
//! 3. **Zero overhead when disabled** — an inactive injector does no
//!    fault work: no CRC checks, byte-identical outputs.
//! 4. **Typed failures** — exhausted retry budgets, dead DPUs and blown
//!    watchdogs surface as [`pimnet::PimnetError`] values, never panics.

use pimnet_suite::arch::geometry::{DpuId, PimGeometry};
use pimnet_suite::arch::SystemConfig;
use pimnet_suite::faults::{FaultConfig, FaultInjector, PermanentFaultSet};
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::exec::{ExecMachine, FaultStats, ReduceOp};
use pimnet_suite::net::recovery::{run_recovered, RecoveryRequest};
use pimnet_suite::net::resilience::{plan_degraded, plan_degraded_probed, DegradedPlan};
use pimnet_suite::net::schedule::CommSchedule;
use pimnet_suite::net::timeline::Timeline;
use pimnet_suite::net::timing::TimingModel;
use pimnet_suite::net::PimnetError;
use pimnet_suite::noc::{simulate_credit, NocConfig};
use pimnet_suite::sim::trace::codes;
use pimnet_suite::sim::{Probe, SimTime};

const KINDS: [CollectiveKind; 4] = [
    CollectiveKind::AllReduce,
    CollectiveKind::ReduceScatter,
    CollectiveKind::AllGather,
    CollectiveKind::AllToAll,
];

fn schedule(kind: CollectiveKind, n: u32, elems: usize) -> CommSchedule {
    CommSchedule::build(kind, &PimGeometry::paper_scaled(n), elems, 4).unwrap()
}

fn noisy(seed: u64) -> FaultInjector {
    // BER 0.15 with a 16-retry budget: corruption is everywhere, but the
    // chance of one transfer failing 17 straight attempts is ~6e-15.
    FaultInjector::new(
        FaultConfig {
            transient_ber: 0.15,
            straggler_prob: 0.3,
            straggler_max_ns: 40_000,
            max_retries: 16,
            ..FaultConfig::none()
        }
        .with_seed(seed),
    )
}

fn input(id: DpuId, elems: usize) -> Vec<u64> {
    (0..elems)
        .map(|e| u64::from(id.0) * 1_000 + e as u64)
        .collect()
}

#[test]
fn faulty_execution_is_bit_identical_to_fault_free_execution() {
    for kind in KINDS {
        for seed in [1u64, 77, 0xDEAD] {
            let s = schedule(kind, 16, 96);
            let mut clean = ExecMachine::init(&s, |id| input(id, 96));
            clean.run(&s, ReduceOp::Sum);
            let mut faulty = ExecMachine::init(&s, |id| input(id, 96));
            let stats = faulty
                .run_with_faults(&s, ReduceOp::Sum, &noisy(seed))
                .expect("retry budget is ample");
            assert!(
                stats.corrupted > 0,
                "{kind} seed {seed}: BER 0.15 must corrupt"
            );
            assert_eq!(clean, faulty, "{kind} seed {seed}: buffers diverged");
        }
    }
}

#[test]
fn identical_seeds_give_identical_stats_timing_and_noc_reports() {
    let s = schedule(CollectiveKind::AllReduce, 32, 128);
    let timing = TimingModel::paper();
    let noc_cfg = NocConfig::paper();
    let ready = vec![SimTime::ZERO; 32];
    let inj = noisy(0x5EED);

    let mut m1 = ExecMachine::init(&s, |id| input(id, 128));
    let mut m2 = ExecMachine::init(&s, |id| input(id, 128));
    let s1 = m1.run_with_faults(&s, ReduceOp::Sum, &inj).unwrap();
    let s2 = m2.run_with_faults(&s, ReduceOp::Sum, &inj).unwrap();
    assert_eq!(s1, s2);
    assert_eq!(m1, m2);

    let t1 = Timeline::build_with_faults(&s, &timing, &inj, Probe::disabled()).unwrap();
    let t2 = Timeline::build_with_faults(&s, &timing, &inj, Probe::disabled()).unwrap();
    assert_eq!(t1.end, t2.end);
    assert_eq!(t1.windows, t2.windows);

    let n1 = simulate_credit(&s, &ready, &noc_cfg, &inj, Probe::disabled()).unwrap();
    let n2 = simulate_credit(&s, &ready, &noc_cfg, &inj, Probe::disabled()).unwrap();
    assert_eq!(n1, n2);

    // A different seed draws a different fault pattern (with these rates,
    // collision of every decision is effectively impossible).
    let other =
        Timeline::build_with_faults(&s, &timing, &noisy(0x5EED + 1), Probe::disabled()).unwrap();
    assert_ne!(t1.end, other.end, "different seeds should differ");
}

#[test]
fn disabled_faults_are_byte_identical_to_the_fault_free_path() {
    let off = FaultInjector::none();
    assert!(!off.is_active());
    for kind in KINDS {
        let s = schedule(kind, 16, 64);

        let mut clean = ExecMachine::init(&s, |id| input(id, 64));
        clean.run(&s, ReduceOp::Sum);
        let mut gated = ExecMachine::init(&s, |id| input(id, 64));
        let stats = gated.run_with_faults(&s, ReduceOp::Sum, &off).unwrap();
        assert_eq!(clean, gated, "{kind}: disabled faults changed the result");
        assert_eq!(
            stats.crc_checks, 0,
            "{kind}: inactive injector did CRC work"
        );
    }
}

#[test]
fn fault_timing_stretches_but_never_shrinks() {
    let timing = TimingModel::paper();
    for kind in KINDS {
        let s = schedule(kind, 16, 128);
        let clean = Timeline::build(&s, &timing);
        let faulty =
            Timeline::build_with_faults(&s, &timing, &noisy(3), Probe::disabled()).unwrap();
        assert!(
            faulty.end > clean.end,
            "{kind}: BER 0.15 + stragglers must cost time"
        );
    }
}

#[test]
fn exhausted_retries_dead_dpus_and_watchdogs_are_typed_errors() {
    let s = schedule(CollectiveKind::AllReduce, 8, 32);

    let hopeless = FaultInjector::new(FaultConfig {
        transient_ber: 1.0,
        max_retries: 2,
        ..FaultConfig::none()
    });
    let mut m = ExecMachine::init(&s, |id| input(id, 32));
    assert!(matches!(
        m.run_with_faults(&s, ReduceOp::Sum, &hopeless),
        Err(PimnetError::TransferFailed { attempts: 3, .. })
    ));

    let dead = FaultInjector::new(FaultConfig {
        dead_dpus: vec![5],
        ..FaultConfig::none()
    });
    let mut m = ExecMachine::init(&s, |id| input(id, 32));
    assert!(matches!(
        m.run_with_faults(&s, ReduceOp::Sum, &dead),
        Err(PimnetError::DeadDpu { dpu: 5 })
    ));
    assert!(matches!(
        Timeline::build_with_faults(&s, &TimingModel::paper(), &dead, Probe::disabled()),
        Err(PimnetError::DeadDpu { dpu: 5 })
    ));
}

#[test]
fn degraded_plans_still_compute_the_right_answer() {
    // Kill 5 of 32 DPUs: the plan shrinks to 16 logical nodes mapped onto
    // alive physical ids, and the shrunk AllReduce still sums correctly.
    let g = PimGeometry::paper_scaled(32);
    let inj = FaultInjector::new(FaultConfig {
        dead_dpus: vec![0, 7, 9, 20, 31],
        ..FaultConfig::none()
    });
    let plan = plan_degraded(
        CollectiveKind::AllReduce,
        &g,
        48,
        4,
        &inj,
        &SystemConfig::paper_scaled(32),
    )
    .unwrap();
    let DegradedPlan::Shrunk {
        schedule,
        logical_to_physical,
        excluded,
        error_trail,
    } = plan
    else {
        panic!("expected a shrunk plan");
    };
    assert_eq!(schedule.geometry.total_dpus(), 16);
    assert_eq!(error_trail.len(), 5);
    assert!(logical_to_physical.iter().all(|p| !excluded.contains(p)));

    // Logical node i carries physical node logical_to_physical[i]'s data.
    let mut m = ExecMachine::init(&schedule, |id| {
        vec![u64::from(logical_to_physical[id.index()]); 48]
    });
    m.run(&schedule, ReduceOp::Sum);
    let expected: u64 = logical_to_physical.iter().map(|&p| u64::from(p)).sum();
    for id in schedule.participants() {
        assert!(m.buffer(id)[..48].iter().all(|&v| v == expected));
    }
}

#[test]
fn trace_events_appear_exactly_as_often_as_faults_were_injected() {
    // The trace is not a log of what the code *did* but a re-derivation of
    // what the injector *decided* — so every retry/straggler count in it
    // must match the injector's pure decision functions exactly.
    let s = schedule(CollectiveKind::AllReduce, 16, 96);
    let inj = noisy(42);

    // Executor: one `exec-retry` instant per re-send, counters mirrored
    // into the metrics report.
    let probe = Probe::enabled();
    let mut m = ExecMachine::init(&s, |id| input(id, 96));
    let stats = m
        .run_with_faults_probed(&s, ReduceOp::Sum, &inj, &probe)
        .expect("retry budget is ample");
    assert!(stats.retries > 0, "BER 0.15 must force retries");
    let trace = probe.trace.drain();
    assert_eq!(trace.count(codes::EXEC_RETRY) as u64, stats.retries);
    let r = probe.metrics.snapshot();
    assert_eq!(r.retries, stats.retries);
    assert_eq!(r.crc_checks, stats.crc_checks);
    assert_eq!(r.corrupted, stats.corrupted);

    // Timeline: one `retry` instant per serialized re-send, one
    // `straggler` instant per delayed participant — both re-derivable
    // from the injector.
    let probe = Probe::enabled();
    let _t = Timeline::build_with_faults(&s, &TimingModel::paper(), &inj, &probe)
        .expect("build succeeds");
    let expected_stragglers = s
        .participants()
        .filter(|id| inj.straggler_delay_ns(id.0, 0) > 0)
        .count();
    let mut expected_retries = 0u64;
    for (pi, phase) in s.phases.iter().enumerate() {
        for (si, step) in phase.steps.iter().enumerate() {
            for (ti, t) in step.transfers.iter().enumerate() {
                if !t.is_local() {
                    expected_retries += u64::from(
                        inj.attempts_before_success(pi as u64, si as u64, ti as u64)
                            .expect("budget ample"),
                    );
                }
            }
        }
    }
    assert!(expected_stragglers > 0, "straggler_prob 0.3 over 16 DPUs");
    assert!(expected_retries > 0, "BER 0.15 must corrupt");
    let trace = probe.trace.drain();
    assert_eq!(trace.count(codes::STRAGGLER), expected_stragglers);
    assert_eq!(trace.count(codes::RETRY) as u64, expected_retries);
    let r = probe.metrics.snapshot();
    assert_eq!(r.stragglers, expected_stragglers as u64);
}

#[test]
fn degraded_runs_tag_their_ladder_tier_in_the_metrics_report() {
    use pimnet_suite::faults::PermanentFaultSet;

    // (injector, DPUs, expected rung, expected name) — one scenario per
    // rung of the degradation ladder.
    let scenarios: [(FaultInjector, u32, u8, &str); 4] = [
        (FaultInjector::none(), 16, 0, "full"),
        (
            FaultInjector::new(FaultConfig {
                permanent: PermanentFaultSet::parse_tokens("r0c0b2E, r0c3tx").unwrap(),
                ..FaultConfig::none()
            }),
            64,
            1,
            "repaired",
        ),
        (
            FaultInjector::new(FaultConfig {
                dead_dpus: vec![0, 5, 9],
                ..FaultConfig::none()
            }),
            16,
            2,
            "shrunk",
        ),
        (
            FaultInjector::new(FaultConfig {
                dead_dpus: (1..8).collect(),
                ..FaultConfig::none()
            }),
            8,
            3,
            "host-fallback",
        ),
    ];
    for (inj, n, rung, name) in scenarios {
        let probe = Probe::enabled();
        let plan = plan_degraded_probed(
            CollectiveKind::AllReduce,
            &PimGeometry::paper_scaled(n),
            48,
            4,
            &inj,
            &SystemConfig::paper_scaled(n),
            &probe,
        )
        .unwrap();
        assert_eq!(plan.tier(), rung, "{name}: unexpected plan tier");
        let r = probe.metrics.snapshot();
        assert_eq!(
            r.degraded_tier,
            Some(rung),
            "{name}: metrics missed the rung"
        );
        assert_eq!(r.degraded_tier_name(), Some(name));
        let trace = probe.trace.drain();
        assert_eq!(
            trace.count(codes::PLAN_TIER),
            1,
            "{name}: exactly one plan-tier event per plan"
        );
        let ev = trace
            .events
            .iter()
            .find(|e| e.code == codes::PLAN_TIER)
            .unwrap();
        assert_eq!(
            ev.args[0],
            u64::from(rung),
            "{name}: event carries the rung"
        );
    }
}

#[test]
fn planner_and_recovery_manager_record_the_same_plan_tier() {
    // A dead rank shrinks AllReduce@256 to 128 DPUs. Both recorders put
    // the excluded DPUs in arg 1, so the same plan traces the same event.
    let g = PimGeometry::paper_scaled(256);
    let sys = SystemConfig::paper_scaled(256);
    let timing = TimingModel::paper();
    let inj = FaultInjector::new(FaultConfig {
        permanent: PermanentFaultSet::parse_tokens("rank1").unwrap(),
        ..FaultConfig::none()
    });
    let plan_tier_args = |probe: &Probe| -> Vec<[u64; 4]> {
        let trace = probe.trace.drain();
        trace
            .events
            .iter()
            .filter(|e| e.code == codes::PLAN_TIER)
            .map(|e| e.args)
            .collect()
    };

    let planner = Probe::enabled();
    let plan =
        plan_degraded_probed(CollectiveKind::AllReduce, &g, 32, 4, &inj, &sys, &planner).unwrap();
    let manager = Probe::enabled();
    let req = RecoveryRequest {
        kind: CollectiveKind::AllReduce,
        geometry: &g,
        elems_per_node: 32,
        elem_bytes: 4,
        op: ReduceOp::Sum,
        injector: &inj,
        system: &sys,
        timing: &timing,
    };
    let out = run_recovered(&req, |id: DpuId| vec![u64::from(id.0); 32], &manager).unwrap();

    assert_eq!(plan.tier_name(), "shrunk");
    assert_eq!(out.tier_name(), plan.tier_name());
    assert_eq!(plan_tier_args(&planner), vec![[2, 128, 0, 0]]);
    assert_eq!(plan_tier_args(&manager), vec![[2, 128, 0, 0]]);
    assert_eq!(
        manager.metrics.snapshot().degraded_tier,
        planner.metrics.snapshot().degraded_tier
    );
}

#[test]
fn combined_fault_classes_degrade_soundly_and_the_ladder_is_monotone() {
    // One storm naming all three permanent fault classes at once — a
    // ring segment, a crossbar port and a whole dead rank — in a single
    // PermanentFaultSet. The ladder must land at least as deep as the
    // deepest single-class tier (adding faults never un-degrades a
    // plan), and whatever schedule survives must still sum correctly.
    let g = PimGeometry::paper_scaled(256);
    let sys = SystemConfig::paper_scaled(256);
    let elems = 32;
    let tier_of = |tokens: &str| -> u8 {
        let inj = FaultInjector::new(FaultConfig {
            permanent: PermanentFaultSet::parse_tokens(tokens).unwrap(),
            ..FaultConfig::none()
        });
        plan_degraded(CollectiveKind::AllReduce, &g, elems, 4, &inj, &sys)
            .unwrap()
            .tier()
    };
    let seg = tier_of("r0c0b2E");
    let port = tier_of("r0c3tx");
    let rank = tier_of("rank1");
    let worst = seg.max(port).max(rank);
    assert!(rank >= 2, "a dead rank must at least shrink the plan");

    let combined = PermanentFaultSet::parse_tokens("r0c0b2E,r0c3tx,rank1").unwrap();
    assert_eq!(combined.segments.len(), 1);
    assert_eq!(combined.ports.len(), 1);
    assert_eq!(combined.dead_ranks.len(), 1);
    let inj = FaultInjector::new(FaultConfig {
        permanent: combined,
        ..FaultConfig::none()
    });
    let plan = plan_degraded(CollectiveKind::AllReduce, &g, elems, 4, &inj, &sys).unwrap();
    assert!(
        plan.tier() >= worst,
        "combined faults landed at tier {} but one class alone reached {worst}",
        plan.tier()
    );
    // Lost participants always come with a typed trail.
    if plan.tier() >= 2 {
        assert!(!plan.error_trail().is_empty());
    }
    // Whatever schedule survives must still compute the right answer:
    // an all-ones AllReduce sums to the surviving participant count.
    if let Some(s) = plan.schedule() {
        let mut m = ExecMachine::init(s, |_| vec![1u64; elems]);
        m.run(s, ReduceOp::Sum);
        let k = u64::from(s.geometry.total_dpus());
        for id in s.participants() {
            assert!(m.buffer(id)[..elems].iter().all(|&v| v == k));
        }
    }
}

#[test]
fn fault_stats_of_the_chaos_cells_are_pinned() {
    // The chaos cells (AllReduce, AllGather, All-to-All and Broadcast at
    // 8/64/256 DPUs, less AllGather and All-to-All at 256) at 64 elements,
    // BER 0.02 with an 8-retry budget. Every count is a pure function of
    // the seed and the transfer coordinates, so any change to the wire
    // model (what is CRC'd, where a flip lands, when a retry is drawn)
    // moves a number here.
    let inj = FaultInjector::new(
        FaultConfig {
            transient_ber: 0.02,
            max_retries: 8,
            ..FaultConfig::none()
        }
        .with_seed(0xC4A05),
    );
    let cells = [
        (CollectiveKind::AllReduce, 8, [224, 226, 2, 2]),
        (CollectiveKind::AllReduce, 64, [2688, 2734, 46, 46]),
        (CollectiveKind::AllReduce, 256, [11008, 11216, 208, 208]),
        (CollectiveKind::AllGather, 8, [56, 56, 0, 0]),
        (CollectiveKind::AllGather, 64, [4032, 4118, 86, 86]),
        (CollectiveKind::AllToAll, 8, [56, 57, 1, 1]),
        (CollectiveKind::AllToAll, 64, [4032, 4109, 77, 77]),
        (CollectiveKind::Broadcast, 8, [7, 7, 0, 0]),
        (CollectiveKind::Broadcast, 64, [119, 120, 1, 1]),
        (CollectiveKind::Broadcast, 256, [463, 467, 4, 4]),
    ];
    for (kind, dpus, [transfers, crc_checks, corrupted, retries]) in cells {
        let s = schedule(kind, dpus, 64);
        let mut m = ExecMachine::init(&s, |id| input(id, 64));
        let stats = m.run_with_faults(&s, ReduceOp::Sum, &inj).unwrap();
        assert_eq!(
            stats,
            FaultStats {
                transfers,
                crc_checks,
                corrupted,
                retries,
            },
            "{kind} x{dpus}"
        );
    }
}
