//! Graceful degradation around hard-dead DPUs and permanent fabric faults.
//!
//! PIMnet's schedules are compiled for a fixed geometry, so a dead bank is
//! not a runtime hiccup — it invalidates the plan. This module rebuilds
//! the plan instead of panicking, falling down a four-tier ladder:
//!
//! 1. **Full** — nothing is dead; the original schedule stands and the
//!    fault-free path pays nothing.
//! 2. **Repaired** — no DPU is lost, but the fabric has permanent faults
//!    (dead ring segments, dead crossbar ports). The full-participant
//!    schedule is rewritten around them by [`crate::schedule::repair`]:
//!    same results bit-for-bit, longer routes and extra serialization
//!    priced by the timing model, accounted in a
//!    [`repair::RepairReport`].
//! 3. **Shrunk** — participants are lost (hard-dead DPUs, or DPUs that
//!    [`repair::unusable_dpus`] proves unreachable: dead ranks,
//!    partitioned chip rings, rank with no surviving port). The
//!    collective is re-planned on the largest power-of-two subset of
//!    surviving DPUs (PIMnet's ring/exchange builders need power-of-two
//!    dimensions), with a logical→physical map so the caller can place
//!    data on the surviving banks. Alive DPUs beyond the power-of-two cut
//!    are *sacrificed* (they sit the collective out) and reported
//!    alongside the dead ones. The shrunk plan is built over the logical
//!    geometry; re-applying the physical permanent faults to it is left
//!    to the caller's placement (a documented simplification).
//! 4. **Host fallback** — when no PIMnet geometry survives (every DPU
//!    dead but one, the shrunk build itself fails, or a repair fails in a
//!    way the unusable-DPU analysis did not predict), the collective is
//!    handed to the host-staged baseline backend, which needs no
//!    inter-DPU network at all.
//!
//! Whatever happens, the caller gets a typed error trail — one
//! [`PimnetError::DeadDpu`] per excluded node, [`PimnetError::DeadRank`] /
//! [`PimnetError::Unroutable`] for fabric-level losses, plus any build
//! failure — instead of a panic, so a long-running experiment can log the
//! degradation and keep going.

use std::sync::Arc;

use pim_arch::geometry::PimGeometry;
use pim_arch::SystemConfig;
use pim_faults::permanent::PermanentFaultSet;
use pim_faults::FaultInjector;
use pim_sim::metrics::ladder_name;
use pim_sim::trace::codes;
use pim_sim::{Bytes, Probe, SimTime};

use crate::backends::{BaselineHostBackend, CollectiveBackend};
use crate::collective::{CollectiveKind, CollectiveSpec};
use crate::error::PimnetError;
use crate::schedule::cache::{self, Proof, ScheduleRequest};
use crate::schedule::repair::{self, RepairedSchedule};
use crate::schedule::CommSchedule;
use crate::timing::CommBreakdown;

/// How a collective survived its dead DPUs and permanent fabric faults.
///
/// Every schedule a plan holds is the schedule cache's own allocation:
/// planning copies no schedule, and a Repaired plan shares its schedule
/// with the cached repair, the faulted schedule product and the proof.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradedPlan {
    /// No participant is dead; the original schedule stands.
    Full(Arc<CommSchedule>),
    /// Every participant survives, but the schedule was rewritten around
    /// permanent fabric faults (rerouted rings, borrowed crossbar ports,
    /// serialized steps). Results are bit-identical to the full plan.
    Repaired {
        /// The repaired, re-validated schedule.
        schedule: Arc<CommSchedule>,
        /// What the repair changed and what it costs.
        report: repair::RepairReport,
    },
    /// Re-planned on the largest power-of-two alive subset.
    Shrunk {
        /// The degraded schedule (over logical DPU ids `0..n`).
        schedule: Arc<CommSchedule>,
        /// Logical id → physical alive DPU id.
        logical_to_physical: Vec<u32>,
        /// Physical DPUs excluded from the collective: the dead ones plus
        /// any alive nodes sacrificed to reach a power-of-two count.
        excluded: Vec<u32>,
        /// One typed error per dead participant.
        error_trail: Vec<PimnetError>,
    },
    /// No viable PIMnet geometry; the host-staged baseline carries it.
    HostFallback {
        /// Timing of the collective through the baseline backend.
        breakdown: CommBreakdown,
        /// Physical DPUs excluded from PIM-side participation.
        excluded: Vec<u32>,
        /// Dead-DPU trail plus the error that forced the fallback.
        error_trail: Vec<PimnetError>,
    },
}

impl DegradedPlan {
    /// The surviving schedule, if the plan still runs on PIMnet.
    #[must_use]
    pub fn schedule(&self) -> Option<&CommSchedule> {
        match self {
            DegradedPlan::Full(s)
            | DegradedPlan::Repaired { schedule: s, .. }
            | DegradedPlan::Shrunk { schedule: s, .. } => Some(s.as_ref()),
            DegradedPlan::HostFallback { .. } => None,
        }
    }

    /// The accumulated error trail (empty for [`DegradedPlan::Full`] and
    /// [`DegradedPlan::Repaired`] — repair keeps everyone, so nothing was
    /// lost).
    #[must_use]
    pub fn error_trail(&self) -> &[PimnetError] {
        match self {
            DegradedPlan::Full(_) | DegradedPlan::Repaired { .. } => &[],
            DegradedPlan::Shrunk { error_trail, .. }
            | DegradedPlan::HostFallback { error_trail, .. } => error_trail,
        }
    }

    /// This plan's rung on the degradation ladder, 0 (best) to 3 (worst).
    /// Monotone in fault severity — the chaos harness asserts on it.
    #[must_use]
    pub fn tier(&self) -> u8 {
        match self {
            DegradedPlan::Full(_) => 0,
            DegradedPlan::Repaired { .. } => 1,
            DegradedPlan::Shrunk { .. } => 2,
            DegradedPlan::HostFallback { .. } => 3,
        }
    }

    /// Human-readable tier name for reports.
    #[must_use]
    pub fn tier_name(&self) -> &'static str {
        ladder_name(self.tier())
    }

    /// Records this plan's rung in `probe` at simulated time `at`: a
    /// `plan-tier` trace event `[tier, excluded DPUs, 0, 0]` and
    /// [`pim_sim::MetricsReport::degraded_tier`]. The planner and the
    /// recovery manager both record through here.
    pub fn record(&self, at: SimTime, probe: &Probe) {
        if !probe.is_active() {
            return;
        }
        let tier = self.tier();
        let excluded = match self {
            DegradedPlan::Full(_) | DegradedPlan::Repaired { .. } => 0,
            DegradedPlan::Shrunk { excluded, .. } | DegradedPlan::HostFallback { excluded, .. } => {
                excluded.len() as u64
            }
        };
        probe
            .trace
            .instant(at, codes::PLAN_TIER, [u64::from(tier), excluded, 0, 0]);
        probe.metrics.degraded_tier(tier);
    }
}

/// Plans `kind` over `geometry` under the injector's dead-DPU set and
/// permanent-fault scenario, picking the highest surviving ladder tier.
///
/// `system` parameterizes the host-fallback timing; it should describe the
/// same machine as `geometry`.
///
/// # Errors
///
/// * Propagates schedule-build errors when *nothing* is dead (there is
///   nothing to degrade around — the request itself is wrong);
/// * [`PimnetError::InvalidGeometry`] when every DPU is dead, so not even
///   the host fallback has a data source.
pub fn plan_degraded(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    injector: &FaultInjector,
    system: &SystemConfig,
) -> Result<DegradedPlan, PimnetError> {
    plan_degraded_probed_at_epoch(
        kind,
        geometry,
        elems_per_node,
        elem_bytes,
        injector,
        system,
        0,
        Probe::disabled(),
    )
}

/// [`plan_degraded`] under a degradation/health `epoch`, with analysis
/// observability. Schedule-cache lookups are keyed by the epoch, so a
/// replan after mid-run quarantine or fault arrival (epoch > 0) never
/// recalls an entry the pre-fault plan cached; static planning is epoch
/// 0. The repaired tier's independent re-proof runs through the proof
/// cache's delta re-lint, and each proof lands in `probe` as a `lint-*`
/// trace event (with warmth-independent arguments). With a disabled probe
/// and epoch 0 this is exactly [`plan_degraded`].
///
/// # Errors
///
/// Same as [`plan_degraded`].
#[allow(clippy::too_many_arguments)]
pub fn plan_degraded_probed_at_epoch(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    injector: &FaultInjector,
    system: &SystemConfig,
    epoch: u64,
    probe: &Probe,
) -> Result<DegradedPlan, PimnetError> {
    let n = geometry.total_dpus();
    let permanent = if injector.has_permanent_faults() {
        injector.permanent_faults(
            geometry.ranks_per_channel,
            geometry.chips_per_rank,
            geometry.banks_per_chip,
        )
    } else {
        PermanentFaultSet::none()
    };
    // DPUs that no repair keeps reachable degrade exactly like hard-dead
    // ones: the plan must exclude them.
    let unusable = repair::unusable_dpus(geometry, &permanent);
    let config_dead: Vec<u32> = (0..n).filter(|&d| injector.is_dead(d)).collect();
    let mut dead = config_dead.clone();
    dead.extend_from_slice(&unusable);
    dead.sort_unstable();
    dead.dedup();
    let req = ScheduleRequest {
        epoch,
        ..ScheduleRequest::new(kind, geometry, elems_per_node, elem_bytes)
    };
    if dead.is_empty() {
        // Built-and-validated schedules are pure functions of these
        // parameters, so recall them from the schedule cache: chaos
        // sweeps re-plan identical (kind, geometry, payload) points once
        // per seed.
        let schedule = cache::get::<CommSchedule>(&req, Probe::disabled())?;
        if permanent.is_empty() {
            return Ok(DegradedPlan::Full(schedule));
        }
        let repair_req = ScheduleRequest {
            faults: Some(&permanent),
            ..req
        };
        match cache::get::<RepairedSchedule>(&repair_req, Probe::disabled()) {
            // Faults that this schedule never routes over need no repair:
            // the untouched plan is still the Full tier.
            Ok(r) if r.report.is_identity() => return Ok(DegradedPlan::Full(r.schedule.clone())),
            Ok(r) => {
                // The Repaired tier promises bit-identical results, so the
                // rewritten schedule is independently re-proven by the
                // static analyzer rather than trusted: if any pass finds
                // an error, the repair is discarded and the collective is
                // handed to the host with the proof failure on record.
                // The proof is a delta re-lint against the cached base
                // summary (byte-identical to a batch `run_all`), so a
                // replan re-proves only what the repair touched.
                let proof = cache::get::<Proof>(&repair_req, probe)?;
                let analysis = &proof.summary.report;
                if analysis.has_errors() {
                    let first = analysis
                        .diagnostics
                        .iter()
                        .find(|d| d.severity == crate::analysis::Severity::Error)
                        .map(ToString::to_string)
                        .unwrap_or_default();
                    return host_fallback(
                        kind,
                        elems_per_node,
                        elem_bytes,
                        system,
                        Vec::new(),
                        vec![PimnetError::ScheduleInvalid {
                            reason: format!(
                                "repaired schedule failed static analysis \
                                 ({} error(s); first: {first})",
                                analysis.error_count()
                            ),
                        }],
                    );
                }
                return Ok(DegradedPlan::Repaired {
                    schedule: r.schedule.clone(),
                    report: r.report,
                });
            }
            // The unusable-DPU analysis predicted everyone survives, yet
            // repair failed: shrinking would rebuild the same geometry
            // over the same broken fabric, so hand the collective to the
            // host with the repair failure on record.
            Err(e) => {
                return host_fallback(
                    kind,
                    elems_per_node,
                    elem_bytes,
                    system,
                    Vec::new(),
                    vec![e],
                )
            }
        }
    }
    let mut error_trail: Vec<PimnetError> = config_dead
        .iter()
        .map(|&dpu| PimnetError::DeadDpu { dpu })
        .collect();
    for &rank in &permanent.dead_ranks {
        if rank < geometry.ranks_per_channel {
            error_trail.push(PimnetError::DeadRank { rank });
        }
    }
    let fabric_lost = unusable
        .iter()
        .filter(|&&d| {
            let c = geometry.coord(pim_arch::geometry::DpuId(d));
            !permanent.dead_ranks.contains(&c.rank)
        })
        .count();
    if fabric_lost > 0 {
        error_trail.push(PimnetError::Unroutable {
            reason: format!(
                "{fabric_lost} DPU(s) sit on partitioned rings or portless \
                 ranks; excluded from the plan"
            ),
        });
    }
    let alive: Vec<u32> = (0..n).filter(|d| dead.binary_search(d).is_err()).collect();
    if alive.is_empty() {
        return Err(PimnetError::InvalidGeometry {
            geometry: *geometry,
            reason: format!("all {n} DPUs are dead"),
        });
    }
    // PIMnet's builders need power-of-two dimensions; keep the largest
    // power-of-two prefix of the alive set (capped at the scaling model's
    // 256-DPU ceiling) and sacrifice the rest.
    let shrunk_n = prev_power_of_two(alive.len() as u32).min(256);
    if shrunk_n >= 2 {
        let shrunk_geometry = PimGeometry::paper_scaled(shrunk_n);
        let shrunk_req = ScheduleRequest {
            geometry: shrunk_geometry,
            ..req
        };
        match cache::get::<CommSchedule>(&shrunk_req, Probe::disabled()) {
            Ok(schedule) => {
                let logical_to_physical: Vec<u32> = alive[..shrunk_n as usize].to_vec();
                let mut excluded = dead;
                excluded.extend_from_slice(&alive[shrunk_n as usize..]);
                excluded.sort_unstable();
                return Ok(DegradedPlan::Shrunk {
                    schedule,
                    logical_to_physical,
                    excluded,
                    error_trail,
                });
            }
            Err(e) => error_trail.push(e),
        }
    }
    host_fallback(kind, elems_per_node, elem_bytes, system, dead, error_trail)
}

/// [`plan_degraded`] with observability: on success the surviving ladder
/// rung lands in `probe` as a `plan-tier` trace event and as
/// [`pim_sim::MetricsReport::degraded_tier`]. With a disabled probe this
/// is exactly [`plan_degraded`].
///
/// # Errors
///
/// Same as [`plan_degraded`] (nothing is recorded on the error path).
pub fn plan_degraded_probed(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    injector: &FaultInjector,
    system: &SystemConfig,
    probe: &Probe,
) -> Result<DegradedPlan, PimnetError> {
    let plan = plan_degraded_probed_at_epoch(
        kind,
        geometry,
        elems_per_node,
        elem_bytes,
        injector,
        system,
        0,
        probe,
    )?;
    plan.record(SimTime::ZERO, probe);
    Ok(plan)
}

/// Bottom rung of the ladder: the CPU gathers from / scatters to the alive
/// DPUs over the DDR bus, so no inter-DPU geometry constraint applies.
fn host_fallback(
    kind: CollectiveKind,
    elems_per_node: usize,
    elem_bytes: u32,
    system: &SystemConfig,
    mut excluded: Vec<u32>,
    error_trail: Vec<PimnetError>,
) -> Result<DegradedPlan, PimnetError> {
    let spec = CollectiveSpec::new(
        kind,
        Bytes::new(elems_per_node as u64 * u64::from(elem_bytes)),
    )
    .with_elem_bytes(elem_bytes);
    let breakdown = BaselineHostBackend::new(*system).collective(&spec)?;
    excluded.sort_unstable();
    Ok(DegradedPlan::HostFallback {
        breakdown,
        excluded,
        error_trail,
    })
}

/// Largest power of two `<= x` (x > 0).
fn prev_power_of_two(x: u32) -> u32 {
    debug_assert!(x > 0);
    1 << (31 - x.leading_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_collective, ReduceOp};
    use pim_faults::FaultConfig;

    fn injector(dead: Vec<u32>) -> FaultInjector {
        FaultInjector::new(FaultConfig {
            dead_dpus: dead,
            ..FaultConfig::none()
        })
    }

    #[test]
    fn no_dead_dpus_yields_the_full_plan() {
        let g = PimGeometry::paper_scaled(16);
        let plan = plan_degraded(
            CollectiveKind::AllReduce,
            &g,
            64,
            4,
            &FaultInjector::none(),
            &SystemConfig::paper_scaled(16),
        )
        .unwrap();
        match &plan {
            DegradedPlan::Full(s) => assert_eq!(s.geometry.total_dpus(), 16),
            other => panic!("expected Full, got {other:?}"),
        }
        assert!(plan.error_trail().is_empty());
    }

    #[test]
    fn dead_dpus_shrink_to_the_alive_power_of_two() {
        let g = PimGeometry::paper_scaled(16);
        // 3 dead => 13 alive => schedule over 8.
        let plan = plan_degraded(
            CollectiveKind::AllReduce,
            &g,
            64,
            4,
            &injector(vec![0, 5, 9]),
            &SystemConfig::paper_scaled(16),
        )
        .unwrap();
        match plan {
            DegradedPlan::Shrunk {
                schedule,
                logical_to_physical,
                excluded,
                error_trail,
            } => {
                assert_eq!(schedule.geometry.total_dpus(), 8);
                assert_eq!(logical_to_physical.len(), 8);
                assert!(logical_to_physical.iter().all(|d| ![0, 5, 9].contains(d)));
                // 3 dead + 5 sacrificed alive = 8 excluded.
                assert_eq!(excluded.len(), 8);
                assert!(excluded.windows(2).all(|w| w[0] < w[1]));
                assert_eq!(error_trail.len(), 3);
                assert!(error_trail
                    .iter()
                    .all(|e| matches!(e, PimnetError::DeadDpu { .. })));
                // The degraded schedule really runs.
                let m = run_collective(&schedule, ReduceOp::Sum, |id| vec![u64::from(id.0); 64])
                    .unwrap();
                assert_eq!(m.nodes(), 8);
            }
            other => panic!("expected Shrunk, got {other:?}"),
        }
    }

    #[test]
    fn near_total_death_falls_back_to_the_host() {
        let g = PimGeometry::paper_scaled(8);
        // 7 of 8 dead: one alive DPU is no network at all.
        let plan = plan_degraded(
            CollectiveKind::AllReduce,
            &g,
            64,
            4,
            &injector((1..8).collect()),
            &SystemConfig::paper_scaled(8),
        )
        .unwrap();
        match plan {
            DegradedPlan::HostFallback {
                breakdown,
                excluded,
                error_trail,
            } => {
                assert!(breakdown.total() > pim_sim::SimTime::ZERO);
                assert!(breakdown.host > pim_sim::SimTime::ZERO);
                assert_eq!(excluded, (1..8).collect::<Vec<u32>>());
                assert_eq!(error_trail.len(), 7);
            }
            other => panic!("expected HostFallback, got {other:?}"),
        }
    }

    #[test]
    fn total_death_is_a_typed_error() {
        let g = PimGeometry::paper_scaled(4);
        let err = plan_degraded(
            CollectiveKind::AllReduce,
            &g,
            16,
            4,
            &injector((0..4).collect()),
            &SystemConfig::paper_scaled(4),
        )
        .unwrap_err();
        assert!(matches!(err, PimnetError::InvalidGeometry { .. }));
    }

    #[test]
    fn repairable_permanent_faults_yield_the_repaired_tier() {
        let g = PimGeometry::paper_scaled(64);
        let inj = FaultInjector::new(FaultConfig {
            permanent: pim_faults::PermanentFaultSet::parse_tokens("r0c0b2E, r0c3tx").unwrap(),
            ..FaultConfig::none()
        });
        let plan = plan_degraded(
            CollectiveKind::AllReduce,
            &g,
            64,
            4,
            &inj,
            &SystemConfig::paper_scaled(64),
        )
        .unwrap();
        match &plan {
            DegradedPlan::Repaired { schedule, report } => {
                assert_eq!(schedule.geometry.total_dpus(), 64);
                assert!(report.rerouted_transfers > 0 || report.remapped_transfers > 0);
                crate::schedule::validate::validate(schedule).unwrap();
                // Bit-identical to the fault-free plan.
                let clean = CommSchedule::build(CollectiveKind::AllReduce, &g, 64, 4).unwrap();
                let a = run_collective(schedule, ReduceOp::Sum, |id| vec![u64::from(id.0); 64])
                    .unwrap();
                let b =
                    run_collective(&clean, ReduceOp::Sum, |id| vec![u64::from(id.0); 64]).unwrap();
                assert_eq!(a, b);
            }
            other => panic!("expected Repaired, got tier {}", other.tier_name()),
        }
        assert_eq!(plan.tier(), 1);
        assert!(plan.error_trail().is_empty());
    }

    #[test]
    fn plans_share_the_cached_schedule_allocations() {
        let (g, sys) = (
            PimGeometry::paper_scaled(64),
            SystemConfig::paper_scaled(64),
        );
        let kind = CollectiveKind::AllReduce;
        let base_req = ScheduleRequest::new(kind, &g, 48, 4);
        let quiet = Probe::disabled();
        let base = cache::get::<CommSchedule>(&base_req, quiet).unwrap();
        let full = plan_degraded(kind, &g, 48, 4, &FaultInjector::none(), &sys).unwrap();
        match &full {
            DegradedPlan::Full(s) => assert!(Arc::ptr_eq(s, &base)),
            other => panic!("expected Full, got tier {}", other.tier_name()),
        }
        // A fault the schedule never routes over repairs to the identity:
        // still the Full tier, on the cached base's allocation.
        let bcast = ScheduleRequest::new(CollectiveKind::Broadcast, &g, 48, 4);
        let untouched = FaultInjector::new(FaultConfig {
            permanent: PermanentFaultSet::parse_tokens("r0c0b1W").unwrap(),
            ..FaultConfig::none()
        });
        match plan_degraded(bcast.kind, &g, 48, 4, &untouched, &sys).unwrap() {
            DegradedPlan::Full(s) => assert!(Arc::ptr_eq(
                &s,
                &cache::get::<CommSchedule>(&bcast, quiet).unwrap()
            )),
            other => panic!("expected Full, got tier {}", other.tier_name()),
        }

        let inj = FaultInjector::new(FaultConfig {
            permanent: PermanentFaultSet::parse_tokens("r0c0b2E, r0c3tx").unwrap(),
            ..FaultConfig::none()
        });
        let plan = plan_degraded(kind, &g, 48, 4, &inj, &sys).unwrap();
        let DegradedPlan::Repaired { schedule, .. } = &plan else {
            panic!("expected Repaired, got tier {}", plan.tier_name());
        };
        let permanent =
            inj.permanent_faults(g.ranks_per_channel, g.chips_per_rank, g.banks_per_chip);
        let req = ScheduleRequest {
            faults: Some(&permanent),
            ..base_req
        };
        let repaired = cache::get::<RepairedSchedule>(&req, quiet).unwrap();
        let faulted = cache::get::<CommSchedule>(&req, quiet).unwrap();
        let proof = cache::get::<Proof>(&req, quiet).unwrap();
        assert!(Arc::ptr_eq(schedule, &repaired.schedule));
        assert!(Arc::ptr_eq(schedule, &faulted));
        assert!(Arc::ptr_eq(schedule, proof.summary.schedule()));

        let shrunk = plan_degraded(kind, &g, 48, 4, &injector(vec![9]), &sys).unwrap();
        let shrunk_req = ScheduleRequest {
            geometry: PimGeometry::paper_scaled(32),
            ..base_req
        };
        match &shrunk {
            DegradedPlan::Shrunk { schedule, .. } => assert!(Arc::ptr_eq(
                schedule,
                &cache::get::<CommSchedule>(&shrunk_req, quiet).unwrap()
            )),
            other => panic!("expected Shrunk, got tier {}", other.tier_name()),
        }
    }

    #[test]
    fn repaired_tier_passes_static_analysis() {
        // `plan_degraded` gates the Repaired tier on a clean analysis, so
        // any plan it returns at tier 1 must re-prove clean here.
        let g = PimGeometry::paper_scaled(64);
        for tokens in ["r0c0b2E, r0c3tx", "r0c1b0W", "r0c5rx, r0c2b7E"] {
            let inj = FaultInjector::new(FaultConfig {
                permanent: pim_faults::PermanentFaultSet::parse_tokens(tokens).unwrap(),
                ..FaultConfig::none()
            });
            for kind in CollectiveKind::ALL {
                let plan =
                    plan_degraded(kind, &g, 32, 4, &inj, &SystemConfig::paper_scaled(64)).unwrap();
                if let DegradedPlan::Repaired { schedule, .. } = &plan {
                    let report = crate::analysis::run_all(schedule);
                    assert!(
                        !report.has_errors(),
                        "{kind} repaired under '{tokens}' fails analysis:\n{report}"
                    );
                }
            }
        }
    }

    #[test]
    fn dead_rank_shrinks_with_a_typed_trail() {
        let g = PimGeometry::paper_scaled(256); // 4 ranks of 64
        let inj = FaultInjector::new(FaultConfig {
            permanent: pim_faults::PermanentFaultSet::parse_tokens("rank3").unwrap(),
            ..FaultConfig::none()
        });
        let plan = plan_degraded(
            CollectiveKind::AllReduce,
            &g,
            64,
            4,
            &inj,
            &SystemConfig::paper_scaled(256),
        )
        .unwrap();
        match &plan {
            DegradedPlan::Shrunk {
                schedule,
                logical_to_physical,
                excluded,
                error_trail,
            } => {
                // 192 survivors -> 128-DPU plan; 64 rank-3 DPUs dead plus
                // 64 sacrificed to reach the power of two.
                assert_eq!(schedule.geometry.total_dpus(), 128);
                assert_eq!(logical_to_physical.len(), 128);
                assert_eq!(excluded.len(), 128);
                assert!(error_trail
                    .iter()
                    .any(|e| matches!(e, PimnetError::DeadRank { rank: 3 })));
            }
            other => panic!("expected Shrunk, got tier {}", other.tier_name()),
        }
        assert_eq!(plan.tier(), 2);
    }

    #[test]
    fn planning_is_deterministic_per_seed() {
        let g = PimGeometry::paper_scaled(64);
        let cfg = FaultConfig {
            perm_rates: pim_faults::PermanentFaultRates {
                segment_prob: 0.05,
                port_prob: 0.05,
                rank_prob: 0.0,
            },
            ..FaultConfig::none()
        }
        .with_seed(99);
        let plan = |c: &FaultConfig| {
            plan_degraded(
                CollectiveKind::AllReduce,
                &g,
                32,
                4,
                &FaultInjector::new(c.clone()),
                &SystemConfig::paper_scaled(64),
            )
            .unwrap()
        };
        assert_eq!(plan(&cfg), plan(&cfg));
        // A different seed samples a different scenario (with these rates
        // the two draws are overwhelmingly unlikely to coincide).
        let other = plan(&cfg.clone().with_seed(100));
        let inj_a = FaultInjector::new(cfg.clone());
        let inj_b = FaultInjector::new(cfg.with_seed(100));
        assert_ne!(
            inj_a.permanent_faults(1, 8, 8),
            inj_b.permanent_faults(1, 8, 8),
        );
        // Both are still valid plans.
        assert!(plan(&FaultConfig::none()).tier() == 0);
        drop(other);
    }

    #[test]
    fn tier_order_is_monotone_in_severity() {
        let g = PimGeometry::paper_scaled(64);
        let sys = SystemConfig::paper_scaled(64);
        let tier = |cfg: FaultConfig| {
            plan_degraded(
                CollectiveKind::AllReduce,
                &g,
                32,
                4,
                &FaultInjector::new(cfg),
                &sys,
            )
            .unwrap()
            .tier()
        };
        let none = tier(FaultConfig::none());
        let seg = tier(FaultConfig {
            permanent: pim_faults::PermanentFaultSet::parse_tokens("r0c1b0W").unwrap(),
            ..FaultConfig::none()
        });
        let dead = tier(FaultConfig {
            dead_dpus: vec![7],
            ..FaultConfig::none()
        });
        assert_eq!(none, 0);
        assert_eq!(seg, 1);
        assert_eq!(dead, 2);
    }

    #[test]
    fn prev_power_of_two_is_exact() {
        assert_eq!(prev_power_of_two(1), 1);
        assert_eq!(prev_power_of_two(2), 2);
        assert_eq!(prev_power_of_two(3), 2);
        assert_eq!(prev_power_of_two(13), 8);
        assert_eq!(prev_power_of_two(256), 256);
        assert_eq!(prev_power_of_two(300), 256);
    }
}
