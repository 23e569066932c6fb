//! Static schedule validation — the machine-checkable form of PIMnet's
//! "no contention, no buffering, no arbitration" claim.
//!
//! The validator proves three families of properties about a
//! [`CommSchedule`]:
//!
//! 1. **Structural soundness** — every transfer's resource path actually
//!    connects its endpoints at the right tier, spans stay inside the
//!    buffer, reductions only appear in reducing collectives.
//! 2. **Ring exclusivity** — in phases not marked `multiplexed`, no fabric
//!    resource carries two different flows in the same step. This is the
//!    hard hardware constraint: a PIMnet stop has no input buffer, so a
//!    ring segment cannot serve two flows at once.
//! 3. **Contention metrics** — for multiplexed phases (the WAIT-scheduled
//!    DQ channels and bus), the maximum number of flows sharing a resource
//!    per step, which the timing model turns into deterministic
//!    time-multiplexing.

use std::collections::HashMap;

use crate::error::PimnetError;
use crate::topology::{ChipLoc, Resource};

use super::{CommSchedule, Transfer};

/// Result of a successful validation, with contention metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidationReport {
    /// Steps examined.
    pub steps: usize,
    /// Non-local transfers examined.
    pub transfers: usize,
    /// Max flows sharing one ring segment in any step (1 for ring phases by
    /// rule 2; may exceed 1 in multiplexed phases such as All-to-All).
    pub max_ring_sharing: usize,
    /// Max flows sharing one chip DQ channel in any step.
    pub max_chip_sharing: usize,
    /// Max flows sharing the rank bus in any step.
    pub max_bus_sharing: usize,
}

/// Validates a schedule. See the [module docs](self) for the rules.
///
/// # Errors
///
/// Returns [`PimnetError::ScheduleInvalid`] with a diagnostic naming the
/// first violated rule.
pub fn validate(schedule: &CommSchedule) -> Result<ValidationReport, PimnetError> {
    let mut report = ValidationReport::default();
    let g = &schedule.geometry;

    for (pi, phase) in schedule.phases.iter().enumerate() {
        for (si, step) in phase.steps.iter().enumerate() {
            report.steps += 1;
            // A "flow" is a distinct (source, destination-set) pair: several
            // back-to-back transfers of one pair count once, since they form
            // a single scheduled slot on the wire.
            let mut usage: HashMap<Resource, std::collections::HashSet<(u32, Vec<u32>)>> =
                HashMap::new();
            for t in &step.transfers {
                // The context is formatted only on the error path.
                check_transfer(schedule, t).map_err(|rule| {
                    invalid(format!(
                        "phase {pi} step {si} ({} -> {:?}): {rule}",
                        t.src, t.dsts
                    ))
                })?;
                if t.is_local() {
                    continue;
                }
                report.transfers += 1;
                let flow = (t.src.0, t.dsts.iter().map(|d| d.0).collect::<Vec<_>>());
                for r in &t.resources {
                    usage.entry(*r).or_default().insert(flow.clone());
                }
            }
            let usage: HashMap<Resource, usize> =
                usage.into_iter().map(|(r, s)| (r, s.len())).collect();
            for (r, n) in &usage {
                match r {
                    Resource::RingSegment { .. } => {
                        report.max_ring_sharing = report.max_ring_sharing.max(*n);
                        if !phase.multiplexed && *n > 1 {
                            return Err(invalid(format!(
                                "phase {pi} step {si}: ring segment {r} carries {n} flows \
                                 in a non-multiplexed phase"
                            )));
                        }
                    }
                    Resource::ChipTx { .. } | Resource::ChipRx { .. } => {
                        report.max_chip_sharing = report.max_chip_sharing.max(*n);
                        if !phase.multiplexed && *n > 1 {
                            return Err(invalid(format!(
                                "phase {pi} step {si}: chip channel {r} carries {n} flows \
                                 in a non-multiplexed phase"
                            )));
                        }
                    }
                    Resource::RankBus { .. } => {
                        report.max_bus_sharing = report.max_bus_sharing.max(*n);
                    }
                }
            }
        }
    }
    let _ = g;
    Ok(report)
}

fn invalid(reason: String) -> PimnetError {
    PimnetError::ScheduleInvalid { reason }
}

/// The per-transfer rules; `Err` is the broken rule's message, which the
/// caller prefixes with the transfer's position.
fn check_transfer(schedule: &CommSchedule, t: &Transfer) -> Result<(), String> {
    let g = &schedule.geometry;
    if t.dsts.is_empty() {
        return Err("transfer with no destination".into());
    }
    // Every later rule looks coordinates up, which needs ids in range.
    let dpus = g.total_dpus();
    if let Some(id) = std::iter::once(&t.src)
        .chain(&t.dsts)
        .find(|id| id.0 >= dpus)
    {
        return Err(format!("{id} out of range for a {dpus}-DPU geometry"));
    }
    if t.src_span.len != t.dst_span.len {
        return Err("span length mismatch".into());
    }
    if t.src_span.end() > schedule.buffer_len || t.dst_span.end() > schedule.buffer_len {
        return Err(format!(
            "span beyond buffer ({} elems)",
            schedule.buffer_len
        ));
    }
    if t.combine && !schedule.kind.reduces() {
        return Err(format!(
            "reduction in non-reducing collective {}",
            schedule.kind
        ));
    }

    if t.is_local() {
        if t.dsts != [t.src] {
            return Err("resource-less transfer must be local".into());
        }
        return Ok(());
    }
    if t.dsts.contains(&t.src) {
        return Err("node sends to itself over the fabric".into());
    }

    // Path/endpoint consistency per tier.
    let src = g.coord(t.src);
    let all_same_chip = t.dsts.iter().all(|&d| g.same_chip(t.src, d));
    let all_same_rank = t.dsts.iter().all(|&d| g.same_rank(t.src, d));
    let crosses_rank = t.dsts.iter().any(|&d| !g.same_rank(t.src, d));
    let uses_bus = t
        .resources
        .iter()
        .any(|r| matches!(r, Resource::RankBus { .. }));
    let uses_ring = t
        .resources
        .iter()
        .any(|r| matches!(r, Resource::RingSegment { .. }));

    if all_same_chip {
        if !t
            .resources
            .iter()
            .all(|r| matches!(r, Resource::RingSegment { chip, .. } if *chip == ChipLoc::of(src)))
        {
            return Err("same-chip transfer must use only its own ring segments".into());
        }
        return Ok(());
    }
    if all_same_rank {
        if uses_bus || uses_ring {
            return Err("same-rank transfer must use only DQ channels".into());
        }
    } else if !crosses_rank || !uses_bus {
        return Err("cross-rank transfer must traverse the rank bus".into());
    }
    expect_dq_endpoints(g, t)
}

fn expect_dq_endpoints(g: &pim_arch::geometry::PimGeometry, t: &Transfer) -> Result<(), String> {
    let src_chip = ChipLoc::of(g.coord(t.src));
    let has_tx = t
        .resources
        .iter()
        .any(|r| matches!(r, Resource::ChipTx { chip } if *chip == src_chip));
    if !has_tx {
        return Err("missing source chip Tx channel in path".into());
    }
    for &d in &t.dsts {
        let dst_chip = ChipLoc::of(g.coord(d));
        let has_rx = t
            .resources
            .iter()
            .any(|r| matches!(r, Resource::ChipRx { chip } if *chip == dst_chip));
        if !has_rx {
            return Err(format!("missing destination chip Rx channel for {d}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveKind;
    use crate::schedule::CommSchedule;
    use pim_arch::geometry::PimGeometry;

    fn build(kind: CollectiveKind, g: &PimGeometry, elems: usize) -> CommSchedule {
        CommSchedule::build(kind, g, elems, 4).expect("build")
    }

    #[test]
    fn every_collective_validates_on_the_paper_geometry() {
        let g = PimGeometry::paper();
        for kind in CollectiveKind::ALL {
            let s = build(kind, &g, 1024);
            let report = validate(&s).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(report.steps > 0, "{kind}: empty schedule");
        }
    }

    #[test]
    fn allreduce_ring_phases_are_exclusive() {
        let g = PimGeometry::paper();
        let s = build(CollectiveKind::AllReduce, &g, 4096);
        let report = validate(&s).unwrap();
        // Rule 2 held (validate succeeded), and the metric agrees:
        assert_eq!(report.max_ring_sharing, 1);
    }

    #[test]
    fn alltoall_multiplexes_but_validates() {
        let g = PimGeometry::paper();
        let s = build(CollectiveKind::AllToAll, &g, 2560);
        let report = validate(&s).unwrap();
        // Pairwise intra-chip exchange shares ring segments (WAIT-slotted).
        assert!(report.max_ring_sharing >= 1);
        // 8 banks per chip funnel through one DQ channel in chip steps.
        assert_eq!(report.max_chip_sharing, 8);
        // Every bank crosses the bus in a rank step.
        assert_eq!(report.max_bus_sharing, 256);
    }

    #[test]
    fn validates_across_geometries_and_sizes() {
        for n in [1u32, 2, 8, 32, 64, 128, 256] {
            let g = PimGeometry::paper_scaled(n);
            for kind in CollectiveKind::ALL {
                for elems in [1usize, 7, 256, 1000] {
                    let s = build(kind, &g, elems);
                    validate(&s).unwrap_or_else(|e| panic!("{kind} n={n} elems={elems}: {e}"));
                }
            }
        }
    }

    #[test]
    fn fabric_self_transfers_are_rejected_but_local_copies_pass() {
        let g = PimGeometry::paper();
        // All-to-All keeps each node's own chunk as a resource-less local
        // copy; those validate and stay out of the fabric transfer count.
        let s = build(CollectiveKind::AllToAll, &g, 2560);
        let locals = s
            .phases
            .iter()
            .flat_map(|p| &p.steps)
            .flat_map(|st| &st.transfers)
            .filter(|t| t.is_local())
            .count();
        assert!(locals > 0, "expected local own-chunk copies");
        let report = validate(&s).unwrap();
        assert_eq!(report.transfers, s.transfer_count());

        // A self-send *over the fabric* is structurally invalid: a stop
        // never loops traffic back onto its own port.
        let mut bad = s.clone();
        let t = bad
            .phases
            .iter_mut()
            .flat_map(|p| &mut p.steps)
            .flat_map(|st| &mut st.transfers)
            .find(|t| !t.is_local())
            .expect("non-local transfer");
        t.dsts = vec![t.src];
        let err = validate(&bad).unwrap_err();
        assert!(err.to_string().contains("sends to itself"), "{err}");

        // Conversely, a transfer with no resources must be a self-copy.
        let mut bad = s;
        let t = bad
            .phases
            .iter_mut()
            .flat_map(|p| &mut p.steps)
            .flat_map(|st| &mut st.transfers)
            .find(|t| !t.is_local())
            .expect("non-local transfer");
        t.resources.clear();
        let err = validate(&bad).unwrap_err();
        assert!(err.to_string().contains("must be local"), "{err}");
    }

    #[test]
    fn multiplexed_phases_tolerate_sharing_exclusive_phases_do_not() {
        let g = PimGeometry::paper();
        // All-to-All's chip/rank phases deliberately time-multiplex the DQ
        // channels and bus; the validator records the sharing degree.
        let mut s = build(CollectiveKind::AllToAll, &g, 2560);
        let report = validate(&s).unwrap();
        assert!(report.max_chip_sharing > 1);
        // Strip the multiplexed marker: the identical traffic is now a
        // hard contention error (a bufferless stop cannot serve two flows).
        for p in &mut s.phases {
            p.multiplexed = false;
        }
        let err = validate(&s).unwrap_err();
        assert!(err.to_string().contains("flows"), "{err}");
    }

    #[test]
    fn injected_ring_sharing_is_rejected_until_marked_multiplexed() {
        // One chip, 8 banks: the AllReduce bank ring is exclusive. Force a
        // segment to carry a second flow and watch rule 2 fire; marking the
        // phase multiplexed downgrades the same traffic to a metric.
        let g = PimGeometry::paper_scaled(8);
        let mut s = build(CollectiveKind::AllReduce, &g, 64);
        let mut found = None;
        'outer: for (pi, p) in s.phases.iter().enumerate() {
            if p.multiplexed {
                continue;
            }
            for (si, step) in p.steps.iter().enumerate() {
                let fabric: Vec<usize> = step
                    .transfers
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.is_local())
                    .map(|(i, _)| i)
                    .collect();
                for &ai in &fabric {
                    for &bi in &fabric {
                        if step.transfers[ai].src == step.transfers[bi].src {
                            continue; // same flow would legally share
                        }
                        if let Some(&r) = step.transfers[bi].resources.first() {
                            found = Some((pi, si, ai, r));
                            break 'outer;
                        }
                    }
                }
            }
        }
        let (pi, si, ai, shared) = found.expect("an exclusive step with two flows");
        s.phases[pi].steps[si].transfers[ai].resources.push(shared);
        let err = validate(&s).unwrap_err();
        assert!(err.to_string().contains("carries 2 flows"), "{err}");
        s.phases[pi].multiplexed = true;
        let report = validate(&s).unwrap();
        assert!(report.max_ring_sharing >= 2);
    }

    #[test]
    fn corrupted_schedule_is_rejected() {
        let g = PimGeometry::paper();
        let mut s = build(CollectiveKind::AllReduce, &g, 1024);
        // Push a span beyond the buffer.
        for phase in &mut s.phases {
            for step in &mut phase.steps {
                if let Some(t) = step.transfers.first_mut() {
                    t.src_span = crate::schedule::Span::new(s.buffer_len, 8);
                    t.dst_span = t.src_span;
                    let err = validate(&s).unwrap_err();
                    assert!(matches!(err, PimnetError::ScheduleInvalid { .. }));
                    return;
                }
            }
        }
        panic!("no transfer found to corrupt");
    }

    /// The first fabric transfer of an AllReduce over 8 DPUs, rewritten by
    /// `corrupt`; validating it (directly or before execution) must be a
    /// typed error, not a coordinate-lookup panic.
    fn assert_out_of_range_is_rejected(corrupt: impl FnOnce(&mut Transfer)) {
        use crate::exec::{run_collective, ReduceOp};
        use pim_arch::geometry::DpuId;
        let g = PimGeometry::paper_scaled(8);
        let mut s = build(CollectiveKind::AllReduce, &g, 64);
        let t = s
            .phases
            .iter_mut()
            .flat_map(|p| &mut p.steps)
            .flat_map(|st| &mut st.transfers)
            .find(|t| !t.is_local())
            .expect("non-local transfer");
        corrupt(t);
        let err = validate(&s).unwrap_err();
        assert!(matches!(err, PimnetError::ScheduleInvalid { .. }), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
        let ran = run_collective(&s, ReduceOp::Sum, |id: DpuId| vec![u64::from(id.0); 64]);
        assert!(matches!(ran, Err(PimnetError::ScheduleInvalid { .. })));
    }

    #[test]
    fn out_of_range_source_is_rejected() {
        assert_out_of_range_is_rejected(|t| t.src = pim_arch::geometry::DpuId(8));
    }

    #[test]
    fn out_of_range_destination_is_rejected() {
        assert_out_of_range_is_rejected(|t| t.dsts = vec![pim_arch::geometry::DpuId(8)]);
    }

    #[test]
    fn reduction_flag_is_policed() {
        let g = PimGeometry::paper();
        let mut s = build(CollectiveKind::AllGather, &g, 64);
        'outer: for phase in &mut s.phases {
            for step in &mut phase.steps {
                if let Some(t) = step.transfers.first_mut() {
                    t.combine = true;
                    break 'outer;
                }
            }
        }
        let err = validate(&s).unwrap_err();
        assert!(err.to_string().contains("non-reducing"));
    }
}
