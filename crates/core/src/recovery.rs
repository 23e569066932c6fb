//! Runtime fault arrival + deterministic recovery: drive a collective
//! step-by-step under a time-varying fault scenario and bring it home.
//!
//! The planner ([`crate::resilience`]) handles faults that are *known
//! before launch*. This module handles the rest: a [`FaultTimeline`]'s
//! permanent-fault **arrivals** land mid-run, link **flaps** fail
//! transfers only during their window, and transient **bursts** elevate
//! the effective bit-error rate for a while. The recovery manager
//! ([`run_recovered`]) executes the schedule one step at a time on a
//! deterministic integer-picosecond clock and, at every step boundary:
//!
//! * applies newly-arrived permanent faults, replanning through the
//!   degradation ladder only when the surviving suffix actually routes
//!   over a dead component;
//! * retries failed steps under an exponential **backoff budget**
//!   ([`pim_faults::FaultInjector::backoff_ps`]) — the backoff advances
//!   the clock, which is exactly what lets a retry escape a flap or
//!   burst window deterministically;
//! * tracks per-segment **health** ([`HealthTracker`]): repeated flap
//!   failures quarantine a segment, promoting it to a permanent fault
//!   that the next replan routes around;
//! * resumes from the last completed step when the new plan's executed
//!   prefix is unchanged (the staging-arena executor applies a step
//!   atomically, so the buffers *are* the checkpoint), and restarts
//!   from the initial contributions otherwise.
//!
//! Every decision is a pure function of the seed, the clock, and stable
//! coordinates — same scenario, same recovery, byte-for-byte. And because
//! corrupted attempts are always detected (CRC model) and failed steps
//! never half-apply, a recovered run that ends at tier ≤ 1 leaves buffers
//! **bit-identical** to the fault-free run; a shrunk run (tier 2) matches
//! the fault-free run of the shrunk plan. `tests/recovery_soak.rs` pins
//! both.
//!
//! [`FaultTimeline`]: pim_faults::FaultTimeline

use pim_arch::geometry::{DpuId, PimGeometry};
use pim_arch::SystemConfig;
use pim_faults::permanent::{PermanentFaultSet, PortId, PortSide, SegmentId};
use pim_faults::timeline::{Arrival, ArrivalKind};
use pim_faults::{FaultConfig, FaultInjector, HealthConfig, HealthTracker, LinkHealth};
use pim_sim::trace::codes;
use pim_sim::{Probe, SimTime};

use crate::collective::CollectiveKind;
use crate::error::PimnetError;
use crate::exec::{Element, ExecMachine, ReduceOp};
use crate::resilience::{plan_degraded_probed_at_epoch, DegradedPlan};
use crate::schedule::cache::{self, ScheduleRequest};
use crate::schedule::{CommSchedule, CommStep};
use crate::sync::SyncModel;
use crate::timing::TimingModel;
use crate::topology::{Direction, Resource};

/// Knobs of the recovery manager itself (the retry/backoff budgets come
/// from the [`FaultConfig`] so CLI fault grammars control them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Hysteresis thresholds for the per-segment health score.
    pub health: HealthConfig,
    /// Hard cap on replans per collective; exceeding it escalates to the
    /// host-fallback outcome instead of looping. Each replan strictly
    /// grows the permanent-fault picture, so the ladder cannot cycle —
    /// this bound is a defensive backstop, not a tuning knob.
    pub max_replans: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            health: HealthConfig::default(),
            max_replans: 16,
        }
    }
}

/// Everything [`run_recovered`] needs besides the per-node contributions.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryRequest<'a> {
    /// The collective to run.
    pub kind: CollectiveKind,
    /// Physical geometry the collective is launched over.
    pub geometry: &'a PimGeometry,
    /// Elements contributed per node.
    pub elems_per_node: usize,
    /// Bytes per element on the wire.
    pub elem_bytes: u32,
    /// Reduction operator (ignored by the pure-movement collectives).
    pub op: ReduceOp,
    /// The fault scenario, including its [`pim_faults::FaultTimeline`].
    pub injector: &'a FaultInjector,
    /// System parameters for the host-fallback rung.
    pub system: &'a SystemConfig,
    /// Timing model driving the recovery clock.
    pub timing: &'a TimingModel,
    /// Recovery-manager knobs.
    pub config: RecoveryConfig,
}

/// Deterministic counters describing one recovered run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryStats {
    /// Steps executed to completion (re-executions after a restart count).
    pub steps_executed: u64,
    /// Step-level retry rounds (failed attempts that waited out a backoff).
    pub step_retries: u64,
    /// Total picoseconds spent in retry backoff.
    pub backoff_ps: u64,
    /// Times the schedule was re-planned mid-run.
    pub replans: u64,
    /// Segments promoted from flaky to permanently dead.
    pub quarantines: u64,
    /// Timeline arrivals observed at step boundaries.
    pub arrivals_applied: u64,
    /// Completed-step checkpoints (equals `steps_executed` by
    /// construction; tracked separately so the invariant is assertable).
    pub checkpoints: u64,
    /// Health/degradation epoch the run finished at (0 = never replanned).
    pub final_epoch: u64,
}

/// What a recovered collective ended as.
#[derive(Debug)]
pub struct RecoveryOutcome<T> {
    /// Final executor state, `None` when the run ended at the
    /// host-fallback rung (tier 3) and no PIM-side buffers exist.
    pub machine: Option<ExecMachine<T>>,
    /// Final rung on the degradation ladder, 0 (full) … 3 (host fallback).
    pub plan_tier: u8,
    /// Logical → physical id map when the final plan was shrunk (tier 2).
    pub logical_to_physical: Option<Vec<u32>>,
    /// What recovery did, as deterministic counters.
    pub stats: RecoveryStats,
    /// Typed errors absorbed along the way (dead participants, failed
    /// steps that forced a replan, the error that forced an escalation).
    pub error_trail: Vec<PimnetError>,
    /// Recovery-clock time at completion, integer picoseconds.
    pub end_ps: u64,
}

impl<T> RecoveryOutcome<T> {
    /// Human-readable tier name, matching
    /// [`DegradedPlan::tier_name`](crate::resilience::DegradedPlan::tier_name).
    #[must_use]
    pub fn tier_name(&self) -> &'static str {
        match self.plan_tier {
            0 => "full",
            1 => "repaired",
            2 => "shrunk",
            _ => "host-fallback",
        }
    }
}

/// How one drive attempt over the current plan ended.
enum DriveEnd {
    /// Every step completed; the collective is done.
    Finished,
    /// The plan is no longer viable (arrival or quarantine); replan.
    Replan,
    /// Unattributable persistent failure; escalate to host fallback.
    Escalate(PimnetError),
}

/// The inter-bank ring segment a resource occupies, if it is one.
fn segment_of(r: &Resource) -> Option<SegmentId> {
    match r {
        Resource::RingSegment {
            chip,
            from_bank,
            dir,
        } => Some(SegmentId {
            rank: chip.rank,
            chip: chip.chip,
            from_bank: *from_bank,
            east: matches!(dir, Direction::East),
        }),
        _ => None,
    }
}

/// The crossbar port a resource occupies, if it is one.
fn port_of(r: &Resource) -> Option<PortId> {
    match r {
        Resource::ChipTx { chip } => Some(PortId {
            rank: chip.rank,
            chip: chip.chip,
            side: PortSide::Tx,
        }),
        Resource::ChipRx { chip } => Some(PortId {
            rank: chip.rank,
            chip: chip.chip,
            side: PortSide::Rx,
        }),
        Resource::RingSegment { .. } | Resource::RankBus { .. } => None,
    }
}

/// Arrivals folded into a permanent-fault set.
fn fault_set_of(arrivals: &[Arrival]) -> PermanentFaultSet {
    let mut set = PermanentFaultSet::none();
    for a in arrivals {
        match a.what {
            ArrivalKind::Segment(seg) => {
                set.segments.insert(seg);
            }
            ArrivalKind::Port(port) => {
                set.ports.insert(port);
            }
            ArrivalKind::Rank(rank) => {
                set.dead_ranks.insert(rank);
            }
        }
    }
    set
}

/// Trace class code for an arrival (`FAULT_ARRIVAL` arg 0).
fn arrival_class(a: &Arrival) -> u64 {
    match a.what {
        ArrivalKind::Segment(_) => 1,
        ArrivalKind::Port(_) => 2,
        ArrivalKind::Rank(_) => 3,
    }
}

/// The flattened `(phase, step)` coordinates of a schedule, in execution
/// order.
fn flat_steps(schedule: &CommSchedule) -> Vec<(usize, usize)> {
    schedule
        .phases
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| (0..p.steps.len()).map(move |si| (pi, si)))
        .collect()
}

fn step_at(schedule: &CommSchedule, (pi, si): (usize, usize)) -> &CommStep {
    &schedule.phases[pi].steps[si]
}

/// `true` when the first `done` flattened steps of `a` and `b` are
/// structurally identical and operate on the same buffer shape — the
/// condition under which buffers checkpointed after `a`'s step `done - 1`
/// are a valid resume point for `b`.
fn prefix_equal(a: &CommSchedule, b: &CommSchedule, done: usize) -> bool {
    if a.geometry != b.geometry
        || a.buffer_len != b.buffer_len
        || a.elems_per_node != b.elems_per_node
        || a.kind != b.kind
    {
        return false;
    }
    let fa = flat_steps(a);
    let fb = flat_steps(b);
    if fa.len() < done || fb.len() < done {
        return false;
    }
    fa.iter()
        .zip(fb.iter())
        .take(done)
        .all(|(ca, cb)| step_at(a, *ca) == step_at(b, *cb))
}

/// Does the not-yet-executed suffix of `schedule` route over any component
/// in `newly`? When it does not, an arrival is record-only: the running
/// plan stays valid and no replan is needed.
///
/// Resource matching (segments, ports) applies to full/repaired plans,
/// where schedule resources are physical. A shrunk plan's schedule is over
/// *logical* ids, so only rank arrivals — checked through the
/// logical → physical map — can invalidate it; this mirrors the
/// documented placement simplification in [`crate::resilience`].
fn suffix_routes_over(
    schedule: &CommSchedule,
    rest: &[(usize, usize)],
    newly: &PermanentFaultSet,
    map: Option<&[u32]>,
    physical: &PimGeometry,
) -> bool {
    for &coords in rest {
        let step = step_at(schedule, coords);
        for t in &step.transfers {
            if t.is_local() {
                continue;
            }
            if !newly.dead_ranks.is_empty() {
                for id in std::iter::once(t.src).chain(t.dsts.iter().copied()) {
                    let phys = map.map_or(id.0, |m| m[id.index()]);
                    let rank = physical.coord(DpuId(phys)).rank;
                    if newly.dead_ranks.contains(&rank) {
                        return true;
                    }
                }
            }
            if map.is_none() {
                for r in &t.resources {
                    if segment_of(r).is_some_and(|s| newly.segments.contains(&s))
                        || port_of(r).is_some_and(|p| newly.ports.contains(&p))
                    {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// An injector whose permanent-fault picture is the original scenario plus
/// everything that has arrived or been quarantined so far. Retry, backoff,
/// straggler, and timeline behaviour are untouched (same seed, same
/// rates), so derived decisions stay on the original deterministic record.
fn injector_with(
    base: &FaultConfig,
    extra: &PermanentFaultSet,
    health: &HealthTracker,
) -> FaultInjector {
    let mut cfg = base.clone();
    cfg.permanent.merge(extra);
    cfg.permanent.merge(&health.as_fault_set());
    FaultInjector::new(cfg)
}

/// Initializes an executor for `schedule`, routing contributions through
/// the logical → physical map when the plan is shrunk.
fn init_machine<T: Element>(
    schedule: &CommSchedule,
    map: Option<&[u32]>,
    init: &mut impl FnMut(DpuId) -> Vec<T>,
) -> ExecMachine<T> {
    match map {
        None => ExecMachine::init(schedule, init),
        Some(m) => ExecMachine::init(schedule, |lid| init(DpuId(m[lid.index()]))),
    }
}

/// Runs `req` to completion under its time-varying fault scenario,
/// retrying / replanning / escalating as the timeline unfolds. See the
/// module docs for the algorithm; [`run_recovered_probed`] is the
/// observable sibling.
///
/// With an **inactive** injector this is a plan + plain execution — the
/// fault path costs nothing when no faults are configured (`perf_gate`
/// pins the overhead under 1 %).
///
/// # Errors
///
/// Propagates planning errors for requests that are invalid independent
/// of faults (unsupported collective, bad geometry). Fault-induced
/// failures never surface as `Err`: they degrade the outcome's tier and
/// extend its `error_trail` instead.
pub fn run_recovered<T: Element>(
    req: &RecoveryRequest<'_>,
    init: impl FnMut(DpuId) -> Vec<T>,
) -> Result<RecoveryOutcome<T>, PimnetError> {
    run_recovered_probed(req, init, Probe::disabled())
}

/// [`run_recovered`] plus observation: `recov-*` / `fault-arrival` trace
/// events (timestamped on the recovery clock) and the `recovery_*`
/// metrics counters. Disabled-probe results are bit-identical to
/// [`run_recovered`].
///
/// # Errors
///
/// Exactly those of [`run_recovered`].
#[allow(clippy::too_many_lines)]
pub fn run_recovered_probed<T: Element>(
    req: &RecoveryRequest<'_>,
    mut init: impl FnMut(DpuId) -> Vec<T>,
    probe: &Probe,
) -> Result<RecoveryOutcome<T>, PimnetError> {
    // Fault-free fast path: an inactive injector means no dead DPUs, no
    // permanent faults and no timeline, so the plan is always the clean
    // Full-tier schedule — take it straight from the cache (no planner,
    // no deep clone) and run the plain executor. This is what keeps the
    // manager free until faults actually exist (the perf gate pins it).
    if !req.injector.is_active() {
        let clean =
            ScheduleRequest::new(req.kind, req.geometry, req.elems_per_node, req.elem_bytes);
        let s = cache::get::<CommSchedule>(&clean, Probe::disabled())?;
        let mut m = init_machine(&s, None, &mut init);
        m.run_probed(&s, req.op, probe);
        return Ok(RecoveryOutcome {
            machine: Some(m),
            plan_tier: 0,
            logical_to_physical: None,
            stats: RecoveryStats::default(),
            error_trail: Vec::new(),
            end_ps: 0,
        });
    }

    let base_cfg = req.injector.config();
    let step_budget = base_cfg.effective_retry_budget();
    let sync = SyncModel::from_fabric(&req.timing.fabric);
    let mut health = HealthTracker::new(req.config.health);
    let mut stats = RecoveryStats::default();
    let mut trail: Vec<PimnetError> = Vec::new();
    let mut t_ps: u64 = 0;
    let mut epoch: u64 = 0;
    // Arrivals already folded into the planning picture (≤ arrival_mark).
    let mut arrival_mark: u64 = 0;
    let mut extra = req.injector.timeline().arrived_by(0);
    // Checkpointed state surviving a replan: (schedule, map, machine,
    // completed-step count).
    #[allow(clippy::type_complexity)]
    let mut resume: Option<(CommSchedule, Option<Vec<u32>>, ExecMachine<T>, usize)> = None;

    let escalate = |e: PimnetError,
                    mut stats: RecoveryStats,
                    mut trail: Vec<PimnetError>,
                    epoch: u64,
                    t_ps: u64,
                    probe: &Probe| {
        trail.push(e);
        stats.final_epoch = epoch;
        probe.trace.instant(
            SimTime::from_ps(t_ps),
            codes::RECOV_DONE,
            [3, stats.steps_executed, stats.step_retries, stats.replans],
        );
        Ok(RecoveryOutcome {
            machine: None,
            plan_tier: 3,
            logical_to_physical: None,
            stats,
            error_trail: trail,
            end_ps: t_ps,
        })
    };

    loop {
        let inj = injector_with(base_cfg, &extra, &health);
        let plan = plan_degraded_probed_at_epoch(
            req.kind,
            req.geometry,
            req.elems_per_node,
            req.elem_bytes,
            &inj,
            req.system,
            epoch,
            probe,
        )?;
        let tier = plan.tier();
        if probe.is_active() {
            let excluded = plan.error_trail().len() as u64;
            probe.trace.instant(
                SimTime::from_ps(t_ps),
                codes::PLAN_TIER,
                [u64::from(tier), excluded, 0, 0],
            );
            probe.metrics.degraded_tier(tier);
        }
        let (schedule, map) = match plan {
            DegradedPlan::Full(s) => (s, None),
            DegradedPlan::Repaired { schedule, .. } => (schedule, None),
            DegradedPlan::Shrunk {
                schedule,
                logical_to_physical,
                error_trail,
                ..
            } => {
                trail.extend(error_trail);
                (schedule, Some(logical_to_physical))
            }
            DegradedPlan::HostFallback { error_trail, .. } => {
                trail.extend(error_trail);
                stats.final_epoch = epoch;
                probe.trace.instant(
                    SimTime::from_ps(t_ps),
                    codes::RECOV_DONE,
                    [3, stats.steps_executed, stats.step_retries, stats.replans],
                );
                return Ok(RecoveryOutcome {
                    machine: None,
                    plan_tier: 3,
                    logical_to_physical: None,
                    stats,
                    error_trail: trail,
                    end_ps: t_ps,
                });
            }
        };

        // Splice or restart: resume from the checkpoint when the new
        // plan's executed prefix is unchanged, else restart from the
        // initial contributions (clock keeps running either way).
        let (mut machine, start) = match resume.take() {
            Some((old, old_map, m, done))
                if old_map == map && prefix_equal(&old, &schedule, done) =>
            {
                probe.trace.instant(
                    SimTime::from_ps(t_ps),
                    codes::RECOV_RESUME,
                    [done as u64, epoch, 0, 0],
                );
                (m, done)
            }
            _ => (init_machine(&schedule, map.as_deref(), &mut init), 0),
        };
        if epoch > 0 {
            probe.trace.instant(
                SimTime::from_ps(t_ps),
                codes::RECOV_REPLAN,
                [u64::from(tier), epoch, u64::from(start > 0), start as u64],
            );
        }

        let steps = flat_steps(&schedule);
        let scope = req.timing.scope_of(&schedule);
        let mut i = start;
        let mut end = DriveEnd::Finished;

        'drive: while i < steps.len() {
            let (pi, si) = steps[i];

            // Step boundary: observe timeline arrivals since the last
            // check; replan only if the remaining suffix routes over a
            // newly-dead component.
            let news = inj.timeline().arrivals_between(arrival_mark, t_ps);
            arrival_mark = t_ps;
            if !news.is_empty() {
                stats.arrivals_applied += news.len() as u64;
                probe.metrics.recovery_arrivals(news.len() as u64);
                for a in &news {
                    probe.trace.instant(
                        SimTime::from_ps(t_ps),
                        codes::FAULT_ARRIVAL,
                        [arrival_class(a), a.at_ps, i as u64, 0],
                    );
                }
                let newly = fault_set_of(&news);
                extra.merge(&newly);
                if suffix_routes_over(&schedule, &steps[i..], &newly, map.as_deref(), req.geometry)
                {
                    end = DriveEnd::Replan;
                    break 'drive;
                }
            }

            // Phase boundary: READY/START barrier, retried under the
            // backoff budget (each attempt re-rolls stragglers via the
            // barrier epoch).
            if si == 0 {
                let mut round = 0u32;
                loop {
                    let barrier_epoch = (epoch << 24) ^ ((pi as u64) << 8) ^ u64::from(round);
                    let attempt = match map.as_deref() {
                        None => sync.barrier_with_faults_probed(
                            scope,
                            SimTime::ZERO,
                            schedule.participants(),
                            &inj,
                            barrier_epoch,
                            probe,
                        ),
                        Some(m) => sync.barrier_with_faults_probed(
                            scope,
                            SimTime::ZERO,
                            m.iter().map(|&p| DpuId(p)),
                            &inj,
                            barrier_epoch,
                            probe,
                        ),
                    };
                    match attempt {
                        Ok(cost) => {
                            t_ps = t_ps.saturating_add(cost.as_ps());
                            break;
                        }
                        Err(e) => {
                            round += 1;
                            if round > step_budget {
                                end = DriveEnd::Escalate(e);
                                break 'drive;
                            }
                            let dt = inj.backoff_ps(round);
                            t_ps = t_ps.saturating_add(dt);
                            stats.step_retries += 1;
                            stats.backoff_ps += dt;
                            probe.trace.instant(
                                SimTime::from_ps(t_ps),
                                codes::RECOV_RETRY,
                                [pi as u64, si as u64, u64::from(round), dt],
                            );
                            probe.metrics.recovery_retry(dt);
                        }
                    }
                }
            }

            // The step itself, under the retry/backoff budget.
            let mut round = 0u32;
            loop {
                let mut flapped: Vec<SegmentId> = Vec::new();
                let mut crossed: Vec<SegmentId> = Vec::new();
                let local_only = map.is_none();
                let result =
                    machine.run_step_with(&schedule, (pi, si), req.op, |ti, tr, payload| {
                        // Link flaps fail the transfer outright while down
                        // (physical attribution, so full/repaired plans only).
                        if local_only {
                            for r in &tr.resources {
                                if let Some(seg) = segment_of(r) {
                                    if inj.flap_down(seg, t_ps) {
                                        flapped.push(seg);
                                        return Err(PimnetError::TransferFailed {
                                            phase: pi,
                                            step: si,
                                            transfer: ti,
                                            attempts: 0,
                                        });
                                    }
                                }
                            }
                        }
                        // CRC under the (possibly burst-elevated) BER; the
                        // per-transfer attempt budget is the same knob as the
                        // step budget.
                        if !payload.is_empty() {
                            let mut attempt = 0u32;
                            while inj
                                .corrupts_at(t_ps, pi as u64, si as u64, ti as u64, attempt, round)
                            {
                                if attempt >= step_budget {
                                    return Err(PimnetError::TransferFailed {
                                        phase: pi,
                                        step: si,
                                        transfer: ti,
                                        attempts: attempt + 1,
                                    });
                                }
                                attempt += 1;
                            }
                        }
                        if local_only {
                            crossed.extend(tr.resources.iter().filter_map(segment_of));
                        }
                        Ok(())
                    });
                match result {
                    Ok(()) => {
                        for seg in crossed {
                            health.record_success(seg);
                        }
                        let dt = req
                            .timing
                            .step_time(&schedule, step_at(&schedule, (pi, si)))
                            .as_ps();
                        t_ps = t_ps.saturating_add(dt);
                        stats.steps_executed += 1;
                        stats.checkpoints += 1;
                        if probe.is_active() {
                            let transfers = step_at(&schedule, (pi, si)).transfers.len() as u64;
                            probe.trace.instant(
                                SimTime::from_ps(t_ps),
                                codes::RECOV_STEP,
                                [pi as u64, si as u64, transfers, t_ps],
                            );
                            probe.trace.instant(
                                SimTime::from_ps(t_ps),
                                codes::RECOV_CHECKPOINT,
                                [pi as u64, si as u64, i as u64, t_ps],
                            );
                            probe.metrics.recovery_step();
                        }
                        break;
                    }
                    Err(e) => {
                        let mut quarantined = false;
                        for seg in &flapped {
                            if health.record_failure(*seg) {
                                quarantined = true;
                                stats.quarantines += 1;
                                probe.trace.instant(
                                    SimTime::from_ps(t_ps),
                                    codes::RECOV_QUARANTINE,
                                    [
                                        u64::from(seg.rank),
                                        u64::from(seg.chip),
                                        u64::from((seg.from_bank << 1) | u32::from(seg.east)),
                                        health.epoch(),
                                    ],
                                );
                                probe.metrics.recovery_quarantine();
                            }
                        }
                        if quarantined {
                            // The link is now permanently dead; retrying
                            // this plan cannot succeed.
                            trail.push(e);
                            end = DriveEnd::Replan;
                            break 'drive;
                        }
                        round += 1;
                        if round > step_budget {
                            if flapped.is_empty() {
                                // Persistent corruption with no component
                                // to route around: the fabric itself is
                                // the problem. Escalate.
                                end = DriveEnd::Escalate(e);
                                break 'drive;
                            }
                            // Budget spent on a still-flapping link:
                            // force-promote it so the replan routes
                            // around it.
                            for seg in flapped {
                                while health.state(seg) != LinkHealth::Quarantined {
                                    if health.record_failure(seg) {
                                        stats.quarantines += 1;
                                        probe.trace.instant(
                                            SimTime::from_ps(t_ps),
                                            codes::RECOV_QUARANTINE,
                                            [
                                                u64::from(seg.rank),
                                                u64::from(seg.chip),
                                                u64::from(
                                                    (seg.from_bank << 1) | u32::from(seg.east),
                                                ),
                                                health.epoch(),
                                            ],
                                        );
                                        probe.metrics.recovery_quarantine();
                                    }
                                }
                            }
                            trail.push(e);
                            end = DriveEnd::Replan;
                            break 'drive;
                        }
                        let dt = inj.backoff_ps(round);
                        t_ps = t_ps.saturating_add(dt);
                        stats.step_retries += 1;
                        stats.backoff_ps += dt;
                        probe.trace.instant(
                            SimTime::from_ps(t_ps),
                            codes::RECOV_RETRY,
                            [pi as u64, si as u64, u64::from(round), dt],
                        );
                        probe.metrics.recovery_retry(dt);
                    }
                }
            }
            if matches!(end, DriveEnd::Finished) {
                i += 1;
            }
        }

        match end {
            DriveEnd::Finished => {
                stats.final_epoch = epoch;
                probe.trace.instant(
                    SimTime::from_ps(t_ps),
                    codes::RECOV_DONE,
                    [
                        u64::from(tier),
                        stats.steps_executed,
                        stats.step_retries,
                        stats.replans,
                    ],
                );
                return Ok(RecoveryOutcome {
                    machine: Some(machine),
                    plan_tier: tier,
                    logical_to_physical: map,
                    stats,
                    error_trail: trail,
                    end_ps: t_ps,
                });
            }
            DriveEnd::Replan => {
                stats.replans += 1;
                probe.metrics.recovery_replan();
                if stats.replans > u64::from(req.config.max_replans) {
                    return escalate(
                        PimnetError::ScheduleInvalid {
                            reason: format!(
                                "recovery replan budget ({}) exhausted",
                                req.config.max_replans
                            ),
                        },
                        stats,
                        trail,
                        epoch,
                        t_ps,
                        probe,
                    );
                }
                epoch += 1;
                resume = Some((schedule, map, machine, i));
            }
            DriveEnd::Escalate(e) => {
                return escalate(e, stats, trail, epoch, t_ps, probe);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_collective;
    use pim_faults::{FaultTimeline, LinkFlap, TransientBurst};

    const N: u32 = 16;
    const ELEMS: usize = 32;

    fn input(id: DpuId) -> Vec<u64> {
        (0..ELEMS)
            .map(|e| (u64::from(id.0) + 1) * 1_000 + e as u64)
            .collect()
    }

    fn request<'a>(
        geometry: &'a PimGeometry,
        system: &'a SystemConfig,
        timing: &'a TimingModel,
        injector: &'a FaultInjector,
    ) -> RecoveryRequest<'a> {
        RecoveryRequest {
            kind: CollectiveKind::AllReduce,
            geometry,
            elems_per_node: ELEMS,
            elem_bytes: 8,
            op: ReduceOp::Sum,
            injector,
            system,
            timing,
            config: RecoveryConfig::default(),
        }
    }

    /// The fault-free AllReduce reference buffers over `paper_scaled(N)`.
    fn reference() -> (CommSchedule, ExecMachine<u64>) {
        let g = PimGeometry::paper_scaled(N);
        let s = CommSchedule::build(CollectiveKind::AllReduce, &g, ELEMS, 8).unwrap();
        let m = run_collective(&s, ReduceOp::Sum, input).unwrap();
        (s, m)
    }

    fn assert_bit_identical(schedule: &CommSchedule, got: &ExecMachine<u64>) {
        let (ref_s, ref_m) = reference();
        assert_eq!(
            ref_s, *schedule,
            "recovered run ended on a different schedule"
        );
        for id in schedule.participants() {
            assert_eq!(
                got.result(schedule, id),
                ref_m.result(&ref_s, id),
                "node {id} diverged from the fault-free reference"
            );
        }
    }

    /// Ring segments the fault-free schedule's step `ordinal` occupies.
    fn segments_of_step(s: &CommSchedule, ordinal: usize) -> Vec<SegmentId> {
        let coords = flat_steps(s)[ordinal];
        step_at(s, coords)
            .transfers
            .iter()
            .filter(|t| !t.is_local())
            .flat_map(|t| t.resources.iter().filter_map(segment_of))
            .collect()
    }

    #[test]
    fn fault_free_fast_path_matches_the_plain_run() {
        let g = PimGeometry::paper_scaled(N);
        let system = SystemConfig::paper_scaled(N);
        let timing = TimingModel::paper();
        let injector = FaultInjector::none();
        let req = request(&g, &system, &timing, &injector);
        let out = run_recovered(&req, input).unwrap();
        assert_eq!(out.plan_tier, 0);
        assert_eq!(out.stats, RecoveryStats::default());
        assert_eq!(out.end_ps, 0);
        assert!(out.error_trail.is_empty());
        let (ref_s, ref_m) = reference();
        let m = out.machine.unwrap();
        for id in ref_s.participants() {
            assert_eq!(m.result(&ref_s, id), ref_m.result(&ref_s, id));
        }
    }

    #[test]
    fn backoff_escapes_a_transient_burst_bit_identically() {
        let g = PimGeometry::paper_scaled(N);
        let system = SystemConfig::paper_scaled(N);
        let timing = TimingModel::paper();
        // BER 1.0 for the first 10 µs: every attempt inside the window is
        // corrupted, so only the backoff clock can get the step through.
        let injector = FaultInjector::new(FaultConfig {
            timeline: FaultTimeline {
                bursts: vec![TransientBurst {
                    from_ps: 0,
                    until_ps: 10_000_000,
                    ber: 1.0,
                }],
                ..FaultTimeline::none()
            },
            backoff_base_ps: Some(6_000_000),
            ..FaultConfig::none()
        });
        let req = request(&g, &system, &timing, &injector);
        let out = run_recovered(&req, input).unwrap();
        assert_eq!(out.plan_tier, 0, "trail: {:?}", out.error_trail);
        assert!(out.stats.step_retries >= 1, "burst never forced a retry");
        assert!(out.stats.backoff_ps >= 6_000_000);
        assert_eq!(out.stats.replans, 0);
        assert!(out.end_ps > 10_000_000);
        let schedule = reference().0;
        assert_bit_identical(&schedule, out.machine.as_ref().unwrap());
    }

    #[test]
    fn persistent_flap_quarantines_the_link_and_replans() {
        let g = PimGeometry::paper_scaled(N);
        let system = SystemConfig::paper_scaled(N);
        let timing = TimingModel::paper();
        let seg = segments_of_step(&reference().0, 0)[0];
        // The link never comes back: health hysteresis must promote it to
        // a permanent fault and the replan must route around it.
        let injector = FaultInjector::new(FaultConfig {
            timeline: FaultTimeline {
                flaps: vec![LinkFlap {
                    segment: seg,
                    from_ps: 0,
                    until_ps: u64::MAX,
                }],
                ..FaultTimeline::none()
            },
            ..FaultConfig::none()
        });
        let req = request(&g, &system, &timing, &injector);
        let probe = Probe::enabled();
        let out = run_recovered_probed(&req, input, &probe).unwrap();
        assert!(out.stats.quarantines >= 1, "flaky link never quarantined");
        assert!(out.stats.replans >= 1, "quarantine did not force a replan");
        assert!(out.plan_tier >= 1, "replan cannot keep the full schedule");
        assert!(
            !out.error_trail.is_empty()
                && out
                    .error_trail
                    .iter()
                    .any(|e| matches!(e, PimnetError::TransferFailed { .. })),
            "trail: {:?}",
            out.error_trail
        );
        let m = out.machine.expect("a single dead segment is survivable");
        if out.plan_tier == 1 {
            // Repaired results are bit-identical to the fault-free run.
            let (ref_s, ref_m) = reference();
            for id in ref_s.participants() {
                assert_eq!(m.result(&ref_s, id), ref_m.result(&ref_s, id));
            }
        }
        let trace = probe.trace.drain();
        assert!(trace.count(codes::RECOV_QUARANTINE) >= 1);
        assert!(trace.count(codes::RECOV_RETRY) >= 1);
        assert!(trace.count(codes::RECOV_DONE) == 1);
        assert_eq!(
            probe.metrics.snapshot().recovery_quarantines,
            out.stats.quarantines
        );
    }

    #[test]
    fn mid_run_segment_arrival_replans_the_suffix() {
        let g = PimGeometry::paper_scaled(N);
        let system = SystemConfig::paper_scaled(N);
        let timing = TimingModel::paper();
        let (ref_s, _) = reference();
        let last = flat_steps(&ref_s).len() - 1;
        let seg = *segments_of_step(&ref_s, last)
            .first()
            .expect("last step has a ring transfer");
        // The segment dies 1 ps into the run: the first step boundary
        // after any time has elapsed observes it, and the surviving
        // suffix (which still uses it) must be replanned.
        let injector = FaultInjector::new(FaultConfig {
            timeline: FaultTimeline {
                arrivals: vec![Arrival {
                    at_ps: 1,
                    what: ArrivalKind::Segment(seg),
                }],
                ..FaultTimeline::none()
            },
            ..FaultConfig::none()
        });
        let req = request(&g, &system, &timing, &injector);
        let probe = Probe::enabled();
        let out = run_recovered_probed(&req, input, &probe).unwrap();
        assert_eq!(out.stats.arrivals_applied, 1);
        assert!(out.stats.replans >= 1, "arrival never invalidated the plan");
        assert!(out.stats.final_epoch >= 1);
        assert!(out.plan_tier >= 1);
        assert!(out.machine.is_some(), "one dead segment is survivable");
        let trace = probe.trace.drain();
        assert_eq!(trace.count(codes::FAULT_ARRIVAL), 1);
        assert!(trace.count(codes::RECOV_REPLAN) >= 1);
        assert_eq!(probe.metrics.snapshot().recovery_replans, out.stats.replans);
    }

    #[test]
    fn unattributable_persistent_corruption_escalates_typed() {
        let g = PimGeometry::paper_scaled(N);
        let system = SystemConfig::paper_scaled(N);
        let timing = TimingModel::paper();
        // A never-ending BER-1.0 burst: no component to quarantine, no
        // window to escape — the only sound end state is host fallback.
        let injector = FaultInjector::new(FaultConfig {
            timeline: FaultTimeline {
                bursts: vec![TransientBurst {
                    from_ps: 0,
                    until_ps: u64::MAX,
                    ber: 1.0,
                }],
                ..FaultTimeline::none()
            },
            ..FaultConfig::none()
        });
        let req = request(&g, &system, &timing, &injector);
        let out = run_recovered(&req, input).unwrap();
        assert_eq!(out.plan_tier, 3);
        assert!(out.machine.is_none());
        assert!(out
            .error_trail
            .iter()
            .any(|e| matches!(e, PimnetError::TransferFailed { .. })));
    }

    #[test]
    fn recovery_is_deterministic_run_to_run() {
        let g = PimGeometry::paper_scaled(N);
        let system = SystemConfig::paper_scaled(N);
        let timing = TimingModel::paper();
        let seg = segments_of_step(&reference().0, 0)[0];
        let cfg = FaultConfig {
            transient_ber: 0.05,
            straggler_prob: 0.1,
            straggler_max_ns: 50,
            timeline: FaultTimeline {
                flaps: vec![LinkFlap {
                    segment: seg,
                    from_ps: 0,
                    until_ps: 500_000,
                }],
                bursts: vec![TransientBurst {
                    from_ps: 100_000,
                    until_ps: 400_000,
                    ber: 0.5,
                }],
                ..FaultTimeline::none()
            },
            seed: 7,
            ..FaultConfig::none()
        };
        let run = || {
            let injector = FaultInjector::new(cfg.clone());
            let req = request(&g, &system, &timing, &injector);
            let probe = Probe::enabled();
            let out = run_recovered_probed(&req, input, &probe).unwrap();
            let buffers: Vec<Vec<u64>> = match (&out.machine, reference().0.participants()) {
                (Some(m), ids) => ids.map(|id| m.buffer(id).to_vec()).collect(),
                (None, _) => Vec::new(),
            };
            (
                out.stats,
                out.plan_tier,
                out.end_ps,
                probe.trace.drain().fingerprint(),
                buffers,
            )
        };
        assert_eq!(run(), run());
    }
}
