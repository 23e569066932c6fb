//! Conservation laws of the metrics layer, pinned over every collective
//! path.
//!
//! The contract of `pim_sim::metrics`:
//!
//! 1. **Byte conservation (executor)** — per tier, the bytes the executor
//!    stages for delivery equal the bytes it delivers.
//! 2. **Busy ≤ wall (timing + NoC)** — no single link is busy longer than
//!    the run's end-to-end completion time.
//! 3. **Barrier consistency** — the recorded barrier-wait total equals
//!    the Timeline's own sync cost, and the completion watermark equals
//!    `Timeline::end`.
//! 4. **Byte conservation (NoC)** — a completed credit-simulation run
//!    delivers every injected byte.
//! 5. **Zero when disabled** — the disabled sink stays all-zero, and
//!    observation never changes a result: every instrumented entry point
//!    returns the same value under an enabled and a disabled probe, with
//!    and without faults.
//! 6. **Worker-count invariance** — the same captures produce the same
//!    reports at 1, 2 and 8 workers.

use pimnet_suite::arch::geometry::{DpuId, PimGeometry};
use pimnet_suite::arch::{OpCounts, SystemConfig};
use pimnet_suite::faults::{FaultConfig, FaultInjector, PermanentFaultSet};
use pimnet_suite::net::backends::PimnetBackend;
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::exec::{ExecMachine, ReduceOp};
use pimnet_suite::net::recovery::{run_recovered, RecoveryRequest};
use pimnet_suite::net::schedule::CommSchedule;
use pimnet_suite::net::sync::{SyncModel, SyncScope};
use pimnet_suite::net::timeline::Timeline;
use pimnet_suite::net::timing::TimingModel;
use pimnet_suite::net::FabricConfig;
use pimnet_suite::noc::{
    simulate_credit, simulate_scheduled, simulate_scheduled_repaired, NocConfig,
};
use pimnet_suite::sim::{par, Bytes, MetricsReport, Probe, SimTime};
use pimnet_suite::workloads::{run_program, Phase, Program};

const KINDS: [CollectiveKind; 5] = [
    CollectiveKind::AllReduce,
    CollectiveKind::ReduceScatter,
    CollectiveKind::AllGather,
    CollectiveKind::Broadcast,
    CollectiveKind::AllToAll,
];

fn schedule(kind: CollectiveKind, n: u32, elems: usize) -> CommSchedule {
    CommSchedule::build(kind, &PimGeometry::paper_scaled(n), elems, 4).unwrap()
}

fn input(id: DpuId, elems: usize) -> Vec<u64> {
    (0..elems)
        .map(|e| u64::from(id.0) * 1_000 + e as u64)
        .collect()
}

/// The fault-free timeline of `s`, observed by `probe`.
fn timeline(s: &CommSchedule, probe: &Probe) -> Timeline {
    Timeline::build_with_faults(s, &TimingModel::paper(), &FaultInjector::none(), probe).unwrap()
}

/// Full observed pipeline (timeline + executor) for one kind; returns the
/// metrics snapshot the invariants below inspect.
fn observe(kind: CollectiveKind, n: u32, elems: usize) -> (Timeline, MetricsReport) {
    let s = schedule(kind, n, elems);
    let probe = Probe::enabled();
    let t = timeline(&s, &probe);
    let mut m = ExecMachine::init(&s, |id| input(id, elems));
    m.run_with_faults_probed(&s, ReduceOp::Sum, &FaultInjector::none(), &probe)
        .unwrap();
    (t, probe.metrics.snapshot())
}

#[test]
fn executor_conserves_bytes_per_tier() {
    for kind in KINDS {
        let (_, r) = observe(kind, 8, 64);
        assert_eq!(
            r.exec_bytes_injected_by_tier, r.exec_bytes_delivered_by_tier,
            "{kind}: staged and delivered bytes diverged"
        );
        assert!(r.exec_steps >= 1, "{kind}: no steps observed");
        assert_eq!(
            r.arena_snapshots, r.exec_steps,
            "{kind}: one staging snapshot per step"
        );
        assert!(
            r.arena_grows <= r.arena_snapshots,
            "{kind}: more grows than snapshots"
        );
        assert_eq!(r.arena_reuses(), r.arena_snapshots - r.arena_grows);
    }
}

#[test]
fn no_link_is_busy_longer_than_the_wall_clock() {
    for kind in KINDS {
        let (t, r) = observe(kind, 16, 128);
        assert!(
            r.max_link_busy_ps <= r.wall_ps,
            "{kind}: busiest link ({} ps) exceeds wall time ({} ps)",
            r.max_link_busy_ps,
            r.wall_ps
        );
        assert_eq!(r.wall_ps, t.end.as_ps(), "{kind}: wall watermark drifted");
    }
}

#[test]
fn barrier_and_wire_counters_match_the_timeline() {
    for kind in KINDS {
        let s = schedule(kind, 16, 96);
        let probe = Probe::enabled();
        let t = timeline(&s, &probe);
        let r = probe.metrics.snapshot();
        assert_eq!(r.barriers, 1, "{kind}: one READY/START barrier per build");
        assert_eq!(
            r.barrier_wait_ps,
            t.sync.as_ps(),
            "{kind}: barrier wait != timeline sync cost"
        );
        let window_bytes: u64 = t.windows.iter().map(|w| w.bytes).sum();
        assert_eq!(
            r.wire_bytes_by_tier.iter().sum::<u64>(),
            window_bytes,
            "{kind}: per-tier wire bytes don't sum to the window total"
        );
        assert_eq!(
            r.wire_transfers_by_tier.iter().sum::<u64>(),
            t.windows.len() as u64,
            "{kind}: one wire_transfer observation per window"
        );
        assert_eq!(
            r.transfer_bytes.count(),
            t.windows.len() as u64,
            "{kind}: histogram sample count != window count"
        );
    }
}

#[test]
fn noc_delivers_every_injected_byte() {
    let cfg = NocConfig::paper();
    for kind in KINDS {
        let s = schedule(kind, 8, 256);
        let ready = vec![SimTime::ZERO; 8];
        let probe = Probe::enabled();
        let report = simulate_credit(&s, &ready, &cfg, &FaultInjector::none(), &probe).unwrap();
        let r = probe.metrics.snapshot();
        assert_eq!(
            r.noc_injected_bytes, r.noc_delivered_bytes,
            "{kind}: the NoC lost bytes"
        );
        assert_eq!(
            r.noc_injected_bytes, report.injected_bytes,
            "{kind}: metrics disagree with the NocReport"
        );
        assert_eq!(r.noc_packets, report.packets as u64);
        assert_eq!(r.noc_stall_cycles, report.stall_cycles);
        assert!(
            r.max_link_busy_ps <= r.wall_ps,
            "{kind}: NoC link busy ({} ps) exceeds wall ({} ps)",
            r.max_link_busy_ps,
            r.wall_ps
        );
    }
}

#[test]
fn program_metrics_reconstruct_the_comm_breakdown() {
    let sys = SystemConfig::paper();
    let backend = PimnetBackend::new(sys, FabricConfig::paper());
    let program = Program::new(vec![
        Phase::compute(OpCounts::new().with_adds(100_000)),
        Phase::collective(CollectiveKind::AllReduce, Bytes::kib(8)),
        Phase::compute(OpCounts::new().with_adds(50_000)),
        Phase::collective(CollectiveKind::ReduceScatter, Bytes::kib(4)),
    ]);
    let probe = Probe::enabled();
    let report = run_program(&program, &sys, &backend, &probe).unwrap();
    let r = probe.metrics.snapshot();
    let comm_ps: u64 = r.comm_time_ps_by_tier.iter().sum::<u64>()
        + r.sync_time_ps
        + r.mem_time_ps
        + r.host_time_ps;
    assert_eq!(
        comm_ps,
        report.comm.total().as_ps(),
        "per-tier + sync/mem/host buckets must reassemble the comm total"
    );
    assert_eq!(r.wall_ps, report.total().as_ps());
}

/// A lossy, straggling fault scenario every folded entry point survives:
/// CRC retries well inside the budget, a few delayed READYs.
fn lossy() -> FaultInjector {
    FaultInjector::new(
        FaultConfig {
            transient_ber: 0.1,
            straggler_prob: 0.3,
            straggler_max_ns: 400,
            max_retries: 16,
            ..FaultConfig::none()
        }
        .with_seed(0x0B5E),
    )
}

/// Runs `f` under the disabled probe and under an enabled one: the two
/// results must agree, and the enabled probe must have recorded
/// something (so the comparison really covered an observed run).
fn assert_unobservable<R: PartialEq + std::fmt::Debug>(what: &str, f: impl Fn(&Probe) -> R) {
    let probe = Probe::enabled();
    let observed = f(&probe);
    assert_eq!(
        f(Probe::disabled()),
        observed,
        "{what}: observation changed the result"
    );
    assert!(
        !probe.trace.is_empty() || probe.metrics.snapshot() != MetricsReport::new(),
        "{what}: the enabled probe recorded nothing"
    );
}

#[test]
fn observation_never_changes_a_result() {
    const DPUS: u32 = 16;
    const ELEMS: usize = 96;
    let g = PimGeometry::paper_scaled(DPUS);
    let sys = SystemConfig::paper_scaled(DPUS);
    let timing = TimingModel::paper();
    let cfg = NocConfig::paper();
    let sync = SyncModel::from_fabric(&FabricConfig::paper());
    let faults = PermanentFaultSet::parse_tokens("r0c0b2E").unwrap();
    let ready: Vec<SimTime> = (0..u64::from(DPUS))
        .map(|i| SimTime::from_ns(i * 7))
        .collect();
    let init = |id: DpuId| input(id, ELEMS);
    for injector in [FaultInjector::none(), lossy()] {
        let scenario = if injector.is_active() {
            "lossy"
        } else {
            "clean"
        };
        for kind in KINDS {
            let s = schedule(kind, DPUS, ELEMS);
            let at = |what: &str| format!("{kind} {scenario} {what}");
            assert_unobservable(&at("timeline"), |p| {
                Timeline::build_with_faults(&s, &timing, &injector, p)
            });
            assert_unobservable(&at("exec"), |p| {
                let mut m = ExecMachine::init(&s, init);
                let stats = m.run_with_faults_probed(&s, ReduceOp::Sum, &injector, p);
                (m, stats)
            });
            assert_unobservable(&at("credit NoC"), |p| {
                simulate_credit(&s, &ready, &cfg, &injector, p)
            });
            assert_unobservable(&at("recovery"), |p| {
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
                run_recovered(&req, init, p).map(|out| {
                    (
                        out.machine,
                        out.plan_tier,
                        out.logical_to_physical,
                        out.stats,
                        out.error_trail,
                        out.end_ps,
                    )
                })
            });
        }
        assert_unobservable(&format!("{scenario} barrier"), |p| {
            sync.barrier_with_faults(SyncScope::Channel, SimTime::ZERO, g.dpus(), &injector, 0, p)
        });
    }
    // The layers below take no transient scenario: permanent faults (or
    // none) are their only fault input.
    for kind in KINDS {
        let s = schedule(kind, DPUS, ELEMS);
        for set in [PermanentFaultSet::none(), faults.clone()] {
            let at = |what: &str| format!("{kind} {set} {what}");
            assert_unobservable(&at("repaired timeline"), |p| {
                Timeline::build_repaired(&s, &timing, &set, p)
            });
            assert_unobservable(&at("repaired scheduled NoC"), |p| {
                simulate_scheduled_repaired(&s, &ready, &cfg, &set, p)
            });
        }
        assert_unobservable(&format!("{kind} scheduled NoC"), |p| {
            simulate_scheduled(&s, &ready, &cfg, p)
        });
    }
    let backend = PimnetBackend::new(SystemConfig::paper(), FabricConfig::paper());
    let program = Program::new(vec![
        Phase::compute(OpCounts::new().with_adds(100_000)),
        Phase::collective(CollectiveKind::AllReduce, Bytes::kib(8)),
        Phase::collective(CollectiveKind::AllToAll, Bytes::kib(4)),
    ]);
    assert_unobservable("program", |p| {
        run_program(&program, &SystemConfig::paper(), &backend, p)
    });
}

#[test]
fn disabled_sink_is_zero_cost_and_zero_valued() {
    let off = Probe::disabled();
    let inj = lossy();
    for kind in KINDS {
        let s = schedule(kind, 8, 64);
        let _ = Timeline::build_with_faults(&s, &TimingModel::paper(), &inj, off);
        let mut m = ExecMachine::init(&s, |id| input(id, 64));
        let _ = m.run_with_faults_probed(&s, ReduceOp::Sum, &inj, off);
        let ready = vec![SimTime::ZERO; 8];
        let _ = simulate_credit(&s, &ready, &NocConfig::paper(), &inj, off);
        let _ = simulate_scheduled(&s, &ready, &NocConfig::paper(), off);
    }
    assert!(!off.is_active());
    assert_eq!(
        off.metrics.snapshot(),
        MetricsReport::new(),
        "disabled sink accumulated metrics"
    );
    assert_eq!(
        off.trace.drain().events.len(),
        0,
        "disabled tracer recorded"
    );
}

#[test]
fn metrics_are_worker_count_invariant() {
    let run = |workers: usize| -> Vec<MetricsReport> {
        par::map_ordered_with(workers, KINDS.to_vec(), |kind| observe(kind, 8, 64).1)
    };
    let reference = run(1);
    for workers in [2usize, 8] {
        assert_eq!(
            run(workers),
            reference,
            "metrics diverged between 1 and {workers} workers"
        );
    }
}
