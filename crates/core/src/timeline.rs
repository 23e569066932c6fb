//! Schedule timelines — per-transfer start/end instants, Gantt-style.
//!
//! The analytic [`crate::timing`] model collapses a schedule to bucket
//! durations; this module keeps the structure: every step's absolute start
//! offset (what the WAIT phase counts down to on the real hardware —
//! Algorithm 1's `offset` generalized beyond AllReduce) and every
//! transfer's window within it. Useful for visualizing schedules, for
//! debugging builders, and as the host-side artifact a real deployment
//! would ship next to the instruction streams.

use pim_faults::FaultInjector;
use pim_sim::trace::codes;
use pim_sim::{Probe, SimTime};

use pim_arch::geometry::DpuId;

use crate::error::PimnetError;
use crate::schedule::{CommSchedule, PhaseLabel, ScheduleView};
use crate::sync::{SyncModel, SyncScope};
use crate::timing::TimingModel;
use crate::topology::Occupancy;

/// One transfer's window in the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferWindow {
    /// Phase index within the schedule.
    pub phase: usize,
    /// Tier of that phase.
    pub label: PhaseLabel,
    /// Step index within the phase.
    pub step: usize,
    /// Sender.
    pub src: DpuId,
    /// Receivers.
    pub dsts: Vec<DpuId>,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Absolute start (after the READY/START barrier).
    pub start: SimTime,
    /// Absolute end of this transfer's serialization through its slowest
    /// resource (transfers sharing WAIT-multiplexed resources may overlap
    /// in this window; the *step* end is exact, the per-transfer end is
    /// its stand-alone serialization).
    pub end: SimTime,
}

/// A schedule's full timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    /// The READY/START barrier cost preceding step 0.
    pub sync: SimTime,
    /// Every transfer window, in schedule order.
    pub windows: Vec<TransferWindow>,
    /// Completion time (equals the timing model's network + sync time).
    pub end: SimTime,
}

impl Timeline {
    /// Builds the fault-free timeline of `schedule` (in either layout)
    /// under `timing`: [`Timeline::build_with_faults`] with no faults and
    /// nothing to observe.
    #[must_use]
    pub fn build<S: ScheduleView>(schedule: &S, timing: &TimingModel) -> Timeline {
        Timeline::build_with_faults(schedule, timing, &FaultInjector::none(), Probe::disabled())
            .unwrap_or_else(|e| unreachable!("a fault-free timeline cannot fail: {e}"))
    }

    /// Builds the timeline of `schedule` (in either layout) under a fault
    /// scenario.
    ///
    /// Three fault effects show up in the timing:
    ///
    /// * **stragglers** stretch the READY/START barrier by the worst
    ///   straggler's delay (START waits for the last READY);
    /// * **transient CRC failures** serialize retries into the step:
    ///   a transfer corrupted `k` times occupies its resources for
    ///   `k + 1` serializations plus the exponential backoff between
    ///   re-sends, and the step ends when its worst transfer chain does;
    /// * **dead DPUs** make the plan untimeable — the caller must degrade
    ///   the schedule first (`resilience`).
    ///
    /// With an inactive injector this is the fault-free timeline.
    ///
    /// On success, `probe` receives the `barrier` span, one `transfer`
    /// span per window, per-tier wire-byte and link-busy counters, the
    /// completion watermark, one `straggler` instant per delayed
    /// participant and one `retry` instant per serialized re-send (at the
    /// stretched window's start). Nothing is recorded on the error path.
    ///
    /// # Errors
    ///
    /// * [`PimnetError::DeadDpu`] if a participant is hard-dead;
    /// * [`PimnetError::TransferFailed`] if a transfer's retry budget is
    ///   exhausted at the configured error rate;
    /// * [`PimnetError::InvalidMessage`] if the retries and their backoff
    ///   run the timeline past the picosecond clock (`SimTime::MAX`).
    pub fn build_with_faults<S: ScheduleView>(
        schedule: &S,
        timing: &TimingModel,
        injector: &FaultInjector,
        probe: &Probe,
    ) -> Result<Timeline, PimnetError> {
        Timeline::walk(schedule, timing, injector, SimTime::ZERO, probe)
    }

    /// Repairs `schedule` around a permanent-fault scenario, then builds
    /// the repaired schedule's timeline, shifted by the control-plane
    /// repair overhead ([`SyncModel::repair_overhead`]: one chip-scope
    /// one-way per serialization step the repair inserted).
    ///
    /// With an empty fault set this is exactly [`Timeline::build`].
    /// `probe` receives one `repair-overhead` instant when the repair
    /// changed anything, then everything [`Timeline::build_with_faults`]
    /// records, over the repaired schedule.
    ///
    /// # Errors
    ///
    /// Whatever [`crate::schedule::repair::repair`] returns when the
    /// fault set defeats repair ([`PimnetError::DeadRank`],
    /// [`PimnetError::Unroutable`], [`PimnetError::ScheduleInvalid`]).
    pub fn build_repaired(
        schedule: &CommSchedule,
        timing: &TimingModel,
        faults: &pim_faults::permanent::PermanentFaultSet,
        probe: &Probe,
    ) -> Result<(Timeline, crate::schedule::repair::RepairReport), PimnetError> {
        let repaired = crate::schedule::repair::repair(schedule, faults)?;
        let overhead =
            SyncModel::from_fabric(&timing.fabric).repair_overhead(repaired.report.extra_steps);
        if overhead > SimTime::ZERO || !repaired.report.is_identity() {
            probe.trace.instant(
                SimTime::ZERO,
                codes::REPAIR_OVERHEAD,
                [repaired.report.extra_steps as u64, overhead.as_ps(), 0, 0],
            );
        }
        let t = Timeline::walk(
            &repaired.schedule,
            timing,
            &FaultInjector::none(),
            overhead,
            probe,
        )?;
        Ok((t, repaired.report))
    }

    /// The window loop behind every builder: walks the schedule once,
    /// pricing each transfer under `injector`, with `lead` of
    /// control-plane time charged ahead of the first step. What `probe`
    /// needs beyond the windows (per-link busy time, delayed
    /// participants, retried transfers) is gathered in the same walk and
    /// recorded only once the build has succeeded.
    fn walk<S: ScheduleView>(
        schedule: &S,
        timing: &TimingModel,
        injector: &FaultInjector,
        lead: SimTime,
        probe: &Probe,
    ) -> Result<Timeline, PimnetError> {
        let hdr = schedule.header();
        let faulty = injector.is_active();
        let observe = probe.is_active();
        let mut straggle_ns = 0u64;
        let mut stragglers: Vec<(u32, u64)> = Vec::new();
        if faulty {
            if let Some(dead) = hdr.geometry.dpus().find(|id| injector.is_dead(id.0)) {
                return Err(PimnetError::DeadDpu { dpu: dead.0 });
            }
            for id in hdr.geometry.dpus() {
                let delay_ns = injector.straggler_delay_ns(id.0, 0);
                straggle_ns = straggle_ns.max(delay_ns);
                if delay_ns > 0 && observe {
                    stragglers.push((id.0, delay_ns));
                }
            }
        }
        let skew = SimTime::from_ns(straggle_ns);
        let scope = SyncScope::of_geometry(hdr.geometry);
        let sync_model = SyncModel::from_fabric(&timing.fabric);
        let sync = sync_model.barrier(scope, skew) + lead;

        // Fault-free serialization occupancy per link. Each step lasts at
        // least its busiest link's occupancy, so every per-link sum is ≤
        // end-to-end wall time (`tests/metrics_invariants.rs`).
        let mut busy: Occupancy<u64> = Occupancy::new(hdr.geometry);
        let mut occupancy = Occupancy::new(hdr.geometry);
        // `(phase, step, transfer, re-sends, window start)` per retried
        // transfer, in schedule order.
        let mut retries: Vec<(usize, usize, usize, u32, SimTime)> = Vec::new();
        let mut cursor = sync;
        let mut windows = Vec::with_capacity(schedule.view_transfer_count());
        for pi in 0..schedule.phase_count() {
            let label = schedule.phase_label(pi);
            for si in 0..schedule.steps_in(pi) {
                let step = schedule.step(pi, si);
                let base = timing.step_time_in(&mut occupancy, hdr.elem_bytes, step);
                // The step ends when its slowest retry chain does.
                let mut stretch = SimTime::ZERO;
                for (ti, t) in step.transfers().enumerate() {
                    if t.is_local() {
                        continue;
                    }
                    let bytes = t.bytes(hdr.elem_bytes);
                    // Stand-alone serialization through the slowest hop.
                    let mut dur = SimTime::ZERO;
                    for r in t.resources {
                        let ser = r.bandwidth(&timing.fabric).transfer_time(bytes);
                        dur = dur.max(ser);
                        if observe {
                            *busy.entry(r, 0) += ser.as_ps();
                        }
                    }
                    let corrupted = if faulty {
                        injector
                            .attempts_before_success(pi as u64, si as u64, ti as u64)
                            .ok_or(PimnetError::TransferFailed {
                                phase: pi,
                                step: si,
                                transfer: ti,
                                attempts: injector.max_attempts(),
                            })?
                    } else {
                        0
                    };
                    let (extra, end) = retry_chain(dur, corrupted, injector)
                        .and_then(|extra| {
                            let end = cursor.checked_add(dur.min(base))?.checked_add(extra)?;
                            Some((extra, end))
                        })
                        .ok_or_else(|| clock_overflow(pi, si))?;
                    stretch = stretch.max(extra);
                    if corrupted > 0 && observe {
                        retries.push((pi, si, ti, corrupted, cursor));
                    }
                    windows.push(TransferWindow {
                        phase: pi,
                        label,
                        step: si,
                        src: t.src,
                        dsts: t.dsts.to_vec(),
                        bytes: bytes.as_u64(),
                        start: cursor,
                        end,
                    });
                }
                cursor = cursor
                    .checked_add(base)
                    .and_then(|t| t.checked_add(stretch))
                    .ok_or_else(|| clock_overflow(pi, si))?;
            }
        }
        let t = Timeline {
            sync,
            windows,
            end: cursor,
        };
        if !observe {
            return Ok(t);
        }

        sync_model.record_barrier(scope, t.sync, skew, probe);
        for w in &t.windows {
            let tier = w.label.tier_index();
            probe.trace.span(
                w.start,
                w.end.saturating_sub(w.start),
                codes::TRANSFER,
                [
                    u64::from(w.src.0),
                    w.dsts.len() as u64,
                    w.bytes,
                    tier as u64,
                ],
            );
            probe.metrics.wire_transfer(tier, w.bytes);
        }
        let mut by_tier = [0u64; pim_sim::metrics::TIERS];
        let mut max_busy = 0u64;
        for (r, ps) in busy.drain_sorted() {
            by_tier[r.tier_index()] += ps;
            max_busy = max_busy.max(ps);
        }
        for (tier, ps) in by_tier.iter().enumerate() {
            if *ps > 0 {
                probe.metrics.link_busy(tier, *ps);
            }
        }
        probe.metrics.max_link_busy(max_busy);
        probe.metrics.wall(t.end.as_ps());
        for (dpu, delay_ns) in stragglers {
            probe.trace.instant(
                SimTime::ZERO,
                codes::STRAGGLER,
                [u64::from(dpu), delay_ns, 0, 0],
            );
            probe.metrics.straggler(delay_ns);
        }
        for (pi, si, ti, corrupted, start) in retries {
            for attempt in 1..=u64::from(corrupted) {
                probe.trace.instant(
                    start,
                    codes::RETRY,
                    [pi as u64, si as u64, ti as u64, attempt],
                );
            }
        }
        Ok(t)
    }

    /// Renders a CSV (one row per window) for plotting.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("phase,tier,step,src,dsts,bytes,start_ns,end_ns\n");
        for w in &self.windows {
            let dsts = w
                .dsts
                .iter()
                .map(|d| d.0.to_string())
                .collect::<Vec<_>>()
                .join("|");
            out.push_str(&format!(
                "{},{},{},{},{},{},{:.1},{:.1}\n",
                w.phase,
                w.label,
                w.step,
                w.src.0,
                dsts,
                w.bytes,
                w.start.as_ns(),
                w.end.as_ns()
            ));
        }
        out
    }
}

/// The extra time a transfer of stand-alone serialization `dur` spends
/// on `corrupted` re-sends plus the exponential backoff before each;
/// `None` once that chain runs past the picosecond clock.
fn retry_chain(dur: SimTime, corrupted: u32, injector: &FaultInjector) -> Option<SimTime> {
    (1..=corrupted).try_fold(dur.checked_mul(u64::from(corrupted))?, |acc, attempt| {
        acc.checked_add(SimTime::from_ps(injector.backoff_ps(attempt)))
    })
}

/// The typed error of a timeline whose retries run past `SimTime::MAX`.
fn clock_overflow(phase: usize, step: usize) -> PimnetError {
    PimnetError::InvalidMessage {
        reason: format!(
            "retries in phase {phase} step {step} run the timeline past the picosecond clock"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveKind;
    use pim_arch::geometry::PimGeometry;

    fn timeline(kind: CollectiveKind, n: u32, elems: usize) -> (CommSchedule, Timeline) {
        let s = CommSchedule::build(kind, &PimGeometry::paper_scaled(n), elems, 4).unwrap();
        let t = Timeline::build(&s, &TimingModel::paper());
        (s, t)
    }

    #[test]
    fn end_matches_the_timing_model() {
        let (s, t) = timeline(CollectiveKind::AllReduce, 64, 2048);
        let b = TimingModel::paper().time_schedule(&s, SimTime::ZERO);
        assert_eq!(t.end, b.total() - b.mem);
    }

    #[test]
    fn windows_are_ordered_and_contained() {
        let (_, t) = timeline(CollectiveKind::AllToAll, 16, 256);
        assert!(!t.windows.is_empty());
        for w in &t.windows {
            assert!(w.start >= t.sync);
            assert!(w.end <= t.end);
            assert!(w.start <= w.end);
        }
        // Starts are non-decreasing in schedule order.
        assert!(t.windows.windows(2).all(|p| p[0].start <= p[1].start));
    }

    #[test]
    fn steps_of_one_ring_phase_abut() {
        let (_, t) = timeline(CollectiveKind::AllReduce, 8, 1024);
        // Single chip: every step's transfers share a start; consecutive
        // steps start where the previous ended (ring steps are uniform).
        let starts: Vec<SimTime> = t.windows.iter().map(|w| w.start).collect();
        let distinct: std::collections::BTreeSet<_> = starts.iter().collect();
        assert_eq!(distinct.len(), 14); // 7 RS + 7 AG steps
    }

    #[test]
    fn inactive_faults_reproduce_the_plain_timeline_exactly() {
        use pim_faults::FaultInjector;
        let (s, plain) = timeline(CollectiveKind::AllReduce, 32, 512);
        let faulty = Timeline::build_with_faults(
            &s,
            &TimingModel::paper(),
            &FaultInjector::none(),
            Probe::disabled(),
        )
        .unwrap();
        assert_eq!(faulty, plain);
    }

    #[test]
    fn transient_errors_stretch_the_timeline_deterministically() {
        use pim_faults::{FaultConfig, FaultInjector};
        let (s, plain) = timeline(CollectiveKind::AllReduce, 32, 512);
        let inj = FaultInjector::new(
            FaultConfig {
                transient_ber: 0.2,
                max_retries: 8,
                ..FaultConfig::none()
            }
            .with_seed(21),
        );
        let m = TimingModel::paper();
        let a = Timeline::build_with_faults(&s, &m, &inj, Probe::disabled()).unwrap();
        let b = Timeline::build_with_faults(&s, &m, &inj, Probe::disabled()).unwrap();
        assert_eq!(a, b, "same seed must give the same timeline");
        assert!(a.end > plain.end, "retries must cost time");
        assert_eq!(a.windows.len(), plain.windows.len());
        for w in &a.windows {
            assert!(w.start >= a.sync && w.end <= a.end && w.start <= w.end);
        }
    }

    #[test]
    fn retry_chains_past_the_clock_are_a_typed_error() {
        use pim_faults::{FaultConfig, FaultInjector};
        // 200 re-sends at BER 0.9: some transfer retries past round 48,
        // where a 100 ns backoff base doubles beyond u64 picoseconds.
        let (s, _) = timeline(CollectiveKind::AllReduce, 64, 64);
        let inj = FaultInjector::new(
            FaultConfig {
                transient_ber: 0.9,
                max_retries: 200,
                ..FaultConfig::none()
            }
            .with_seed(1),
        );
        match Timeline::build_with_faults(&s, &TimingModel::paper(), &inj, Probe::disabled()) {
            Err(PimnetError::InvalidMessage { reason }) => {
                assert!(reason.contains("picosecond clock"), "{reason}");
            }
            other => panic!("expected InvalidMessage, got {other:?}"),
        }
    }

    #[test]
    fn stragglers_stretch_only_the_barrier() {
        use pim_faults::{FaultConfig, FaultInjector};
        let (s, plain) = timeline(CollectiveKind::AllReduce, 32, 512);
        let inj = FaultInjector::new(
            FaultConfig {
                straggler_prob: 1.0,
                straggler_max_ns: 900,
                ..FaultConfig::none()
            }
            .with_seed(8),
        );
        let t = Timeline::build_with_faults(&s, &TimingModel::paper(), &inj, Probe::disabled())
            .unwrap();
        assert!(t.sync > plain.sync);
        assert_eq!(t.end - t.sync, plain.end - plain.sync);
    }

    #[test]
    fn dead_dpu_refuses_to_time() {
        use pim_faults::{FaultConfig, FaultInjector};
        let (s, _) = timeline(CollectiveKind::AllReduce, 8, 64);
        let inj = FaultInjector::new(FaultConfig {
            dead_dpus: vec![1],
            ..FaultConfig::none()
        });
        assert_eq!(
            Timeline::build_with_faults(&s, &TimingModel::paper(), &inj, Probe::disabled()),
            Err(PimnetError::DeadDpu { dpu: 1 })
        );
    }

    #[test]
    fn repaired_timeline_prices_the_repair() {
        use pim_faults::permanent::PermanentFaultSet;
        let (s, plain) = timeline(CollectiveKind::AllReduce, 8, 1024);
        let m = TimingModel::paper();
        // Identity repair reproduces the plain timeline exactly.
        let (t, report) =
            Timeline::build_repaired(&s, &m, &PermanentFaultSet::none(), Probe::disabled())
                .unwrap();
        assert_eq!(t, plain);
        assert!(report.is_identity());
        // A dead segment costs: reroute hops, serialization, and (when
        // steps were inserted) the control-plane overhead on the barrier.
        let f = PermanentFaultSet::parse_tokens("r0c0b1E").unwrap();
        let (t, report) = Timeline::build_repaired(&s, &m, &f, Probe::disabled()).unwrap();
        assert!(t.end > plain.end);
        if report.extra_steps > 0 {
            assert!(t.sync > plain.sync);
        }
        for w in &t.windows {
            assert!(w.start >= t.sync && w.end <= t.end);
        }
        // Deterministic.
        let (u, _) = Timeline::build_repaired(&s, &m, &f, Probe::disabled()).unwrap();
        assert_eq!(t, u);
    }

    #[test]
    fn csv_has_one_row_per_window() {
        let (_, t) = timeline(CollectiveKind::ReduceScatter, 16, 128);
        let csv = t.to_csv();
        assert_eq!(csv.lines().count(), t.windows.len() + 1);
        assert!(csv.starts_with("phase,tier,step"));
    }
}
