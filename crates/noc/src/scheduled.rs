//! PIM-controlled (statically scheduled) playback — the other side of the
//! Fig 13 comparison.
//!
//! Under PIM control there is nothing dynamic to simulate: after the
//! READY/START barrier fires (when the *last* DPU finishes compute), the
//! schedule's steps execute back-to-back with compile-time-proven freedom
//! from contention. Completion is therefore the barrier time plus the
//! deterministic step times over exactly the same link bandwidths the
//! credit simulation uses ([`NocConfig::fabric`]).

use pim_sim::trace::codes;
use pim_sim::{Probe, SimTime};

use pim_arch::SystemConfig;
use pimnet::schedule::CommSchedule;
use pimnet::sync::SyncModel;
use pimnet::timing::TimingModel;

use crate::config::NocConfig;
use crate::packet::{packets_from_schedule, total_bytes};
use crate::report::NocReport;

/// Runs the statically-scheduled playback of `schedule`'s traffic, with
/// `ready[i]` the time DPU `i` finishes compute. Communication starts only
/// after the last DPU is ready (plus READY/START propagation).
///
/// The READY/START barrier lands in `probe` as a `barrier` span, and
/// completion / injected bytes / packet count land in the metrics sink
/// (scheduled playback has no per-packet delivery times — per-transfer
/// wire accounting belongs to [`pimnet::timeline::Timeline`]).
///
/// # Panics
///
/// Panics if `ready` is shorter than the DPU count.
#[must_use]
pub fn simulate_scheduled(
    schedule: &CommSchedule,
    ready: &[SimTime],
    cfg: &NocConfig,
    probe: &Probe,
) -> NocReport {
    let nodes = schedule.geometry.total_dpus() as usize;
    assert!(
        ready.len() >= nodes,
        "ready times: got {}, need {nodes}",
        ready.len()
    );
    let fabric = cfg.fabric();
    let timing = TimingModel::new(fabric, SystemConfig::paper());
    let sync = SyncModel::from_fabric(&fabric);
    let scope = timing.scope_of(schedule);
    let barrier = sync.barrier(scope, SimTime::ZERO);
    sync.record_barrier(scope, barrier, SimTime::ZERO, probe);

    let barrier_at = ready.iter().copied().max().unwrap_or(SimTime::ZERO) + barrier;
    let network: SimTime = schedule
        .phases
        .iter()
        .map(|p| timing.phase_time(schedule, p))
        .sum();
    let completion = barrier_at + network;

    let packets = packets_from_schedule(schedule);
    let report = NocReport {
        completion,
        cycles: cfg.time_to_cycles(completion),
        packets: packets.len(),
        injected_bytes: total_bytes(&packets),
        stall_cycles: 0,
        p50_latency: SimTime::ZERO,
        p99_latency: SimTime::ZERO,
        max_link_utilization: 0.0,
    };
    if probe.is_active() {
        probe.metrics.wall(report.completion.as_ps());
        probe.metrics.noc(
            report.injected_bytes,
            report.injected_bytes,
            0,
            report.packets as u64,
        );
    }
    report
}

/// Scheduled playback over a fabric with permanent faults: the schedule is
/// first rewritten around the fault set (rings rerouted, dead crossbar
/// ports borrowed, contending steps serialized — see
/// [`pimnet::schedule::repair`]), then played back like
/// [`simulate_scheduled`], with the repair's control-plane overhead
/// ([`SyncModel::repair_overhead`]) added to the barrier. The overhead
/// lands in `probe` as a `repair-overhead` instant on top of everything
/// [`simulate_scheduled`] records.
///
/// # Errors
///
/// Whatever repair returns when the fault set defeats it
/// (`PimnetError::DeadRank`, `PimnetError::Unroutable`); nothing is
/// recorded on the error path.
///
/// # Panics
///
/// Panics if `ready` is shorter than the DPU count.
pub fn simulate_scheduled_repaired(
    schedule: &CommSchedule,
    ready: &[SimTime],
    cfg: &NocConfig,
    faults: &pim_faults::permanent::PermanentFaultSet,
    probe: &Probe,
) -> Result<NocReport, pimnet::PimnetError> {
    let repaired = pimnet::schedule::repair::repair(schedule, faults)?;
    let mut report = simulate_scheduled(&repaired.schedule, ready, cfg, probe);
    let overhead =
        SyncModel::from_fabric(&cfg.fabric()).repair_overhead(repaired.report.extra_steps);
    if overhead > SimTime::ZERO || !repaired.report.is_identity() {
        probe.trace.instant(
            SimTime::ZERO,
            codes::REPAIR_OVERHEAD,
            [repaired.report.extra_steps as u64, overhead.as_ps(), 0, 0],
        );
    }
    report.completion += overhead;
    report.cycles = cfg.time_to_cycles(report.completion);
    probe.metrics.wall(report.completion.as_ps());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::geometry::PimGeometry;
    use pim_faults::FaultInjector;
    use pimnet::collective::CollectiveKind;

    fn schedule(kind: CollectiveKind, n: u32, elems: usize) -> CommSchedule {
        CommSchedule::build(kind, &PimGeometry::paper_scaled(n), elems, 4).unwrap()
    }

    fn zeros(n: u32) -> Vec<SimTime> {
        vec![SimTime::ZERO; n as usize]
    }

    fn credit(s: &CommSchedule, ready: &[SimTime], cfg: &NocConfig) -> NocReport {
        crate::simulate_credit(s, ready, cfg, &FaultInjector::none(), Probe::disabled()).unwrap()
    }

    #[test]
    fn scheduled_has_no_stalls_by_construction() {
        let s = schedule(CollectiveKind::AllToAll, 64, 512);
        let r = simulate_scheduled(&s, &zeros(64), &NocConfig::paper(), Probe::disabled());
        assert_eq!(r.stall_cycles, 0);
        assert!(r.completion > SimTime::ZERO);
    }

    #[test]
    fn scheduled_waits_for_the_slowest_dpu() {
        let s = schedule(CollectiveKind::AllReduce, 8, 256);
        let cfg = NocConfig::paper();
        let base = simulate_scheduled(&s, &zeros(8), &cfg, Probe::disabled());
        let mut ready = zeros(8);
        ready[0] = SimTime::from_us(100);
        let skewed = simulate_scheduled(&s, &ready, &cfg, Probe::disabled());
        assert_eq!(
            skewed.completion,
            base.completion + SimTime::from_us(100),
            "barrier must track the slowest DPU exactly"
        );
    }

    #[test]
    fn fig13_allreduce_modes_are_close() {
        // Fig 13(a): for AllReduce the two flow-control strategies are
        // within a few percent of each other.
        let s = schedule(CollectiveKind::AllReduce, 64, 1024);
        let cfg = NocConfig::paper();
        let ready = zeros(64);
        let credit = credit(&s, &ready, &cfg);
        let sched = simulate_scheduled(&s, &ready, &cfg, Probe::disabled());
        let ratio = credit.completion.ratio(sched.completion);
        assert!(
            (0.7..1.4).contains(&ratio),
            "AR credit/scheduled ratio {ratio:.3} out of band \
             (credit {credit}, scheduled {sched})"
        );
    }

    #[test]
    fn fig13_alltoall_prefers_pim_control() {
        // Fig 13(b): All-to-All's convergent traffic contends at the
        // inter-chip crossbar under credit-based wormhole flow control;
        // PIM-controlled scheduling avoids it (paper: ~18.7% faster).
        let s = schedule(CollectiveKind::AllToAll, 64, 2048);
        let cfg = NocConfig::paper();
        let ready = zeros(64);
        let credit = credit(&s, &ready, &cfg);
        let sched = simulate_scheduled(&s, &ready, &cfg, Probe::disabled());
        assert!(
            sched.completion < credit.completion,
            "scheduled ({sched}) should beat credit-based ({credit}) on A2A"
        );
    }

    #[test]
    fn repaired_playback_prices_the_detour() {
        use pim_faults::permanent::PermanentFaultSet;
        let s = schedule(CollectiveKind::AllReduce, 64, 512);
        let cfg = NocConfig::paper();
        let clean = simulate_scheduled(&s, &zeros(64), &cfg, Probe::disabled());
        // Identity fault set reproduces the clean report.
        let same = simulate_scheduled_repaired(
            &s,
            &zeros(64),
            &cfg,
            &PermanentFaultSet::none(),
            Probe::disabled(),
        )
        .unwrap();
        assert_eq!(same, clean);
        // A dead segment and a dead port both cost completion time.
        let f = PermanentFaultSet::parse_tokens("r0c0b2E, r0c3tx").unwrap();
        let broken =
            simulate_scheduled_repaired(&s, &zeros(64), &cfg, &f, Probe::disabled()).unwrap();
        assert!(broken.completion > clean.completion);
        assert_eq!(broken.injected_bytes, clean.injected_bytes);
        // A dead rank is a typed refusal, not a panic.
        let s256 = schedule(CollectiveKind::AllReduce, 256, 256);
        let dead = PermanentFaultSet::parse_tokens("rank2").unwrap();
        assert!(
            simulate_scheduled_repaired(&s256, &zeros(256), &cfg, &dead, Probe::disabled())
                .is_err()
        );
    }

    #[test]
    fn both_modes_move_identical_bytes() {
        let s = schedule(CollectiveKind::AllReduce, 32, 512);
        let cfg = NocConfig::paper();
        let credit = credit(&s, &zeros(32), &cfg);
        let sched = simulate_scheduled(&s, &zeros(32), &cfg, Probe::disabled());
        assert_eq!(credit.injected_bytes, sched.injected_bytes);
        assert_eq!(credit.packets, sched.packets);
    }
}
