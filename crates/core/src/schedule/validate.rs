//! Static schedule validation: the structural rules, stopped at the first
//! violation.
//!
//! [`validate`] is the gate in front of execution, ISA compilation, the
//! schedule cache and repair output. It holds no rule of its own: it runs
//! the analysis suite's structural pass (`P001`–`P011`, see
//! [`crate::analysis::codes`]) and the sync pass's `P301` id-range rule,
//! and returns the first error in the analysis report's (location, code)
//! order. Those rules are the machine-checkable form of PIMnet's "no
//! contention, no buffering, no arbitration" claim: spans stay inside the
//! buffer, resource paths connect their endpoints at the right tier, the
//! result table fits the buffer, and no bufferless ring segment or chip
//! DQ channel carries two flows in a step outside a WAIT-multiplexed
//! phase. On success the [`ValidationReport`] records how many flows
//! shared a resource of each class, which the timing model turns into
//! deterministic time-multiplexing.

use crate::analysis::diagnostics::Diagnostic;
use crate::analysis::{structural, sync};
use crate::error::PimnetError;

use super::{CommSchedule, ScheduleView, StepRef};

/// Result of a successful validation, with contention metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidationReport {
    /// Steps examined.
    pub steps: usize,
    /// Non-local transfers examined.
    pub transfers: usize,
    /// Max flows sharing one ring segment in any step (1 outside
    /// multiplexed phases by `P009`; may exceed 1 in multiplexed phases
    /// such as All-to-All).
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
/// Returns [`PimnetError::ScheduleInvalid`] whose reason is the first
/// violated rule's rendered diagnostic (code, location, message).
pub fn validate(schedule: &CommSchedule) -> Result<ValidationReport, PimnetError> {
    let hdr = schedule.header();
    let mut report = ValidationReport::default();
    let mut diags = Vec::new();
    for (pi, phase) in schedule.phases.iter().enumerate() {
        for (si, step) in phase.steps.iter().enumerate() {
            let view = StepRef::Nested(step);
            sync::check_endpoints(&hdr, pi, si, view, &mut diags);
            let [ring, chip, bus] =
                structural::check_step(&hdr, pi, si, view, phase.multiplexed, &mut diags);
            first_error(&diags)?;
            report.steps += 1;
            report.transfers += step.transfers.iter().filter(|t| !t.is_local()).count();
            report.max_ring_sharing = report.max_ring_sharing.max(ring);
            report.max_chip_sharing = report.max_chip_sharing.max(chip);
            report.max_bus_sharing = report.max_bus_sharing.max(bus);
        }
    }
    // Schedule-level findings sort after every step's.
    structural::check_prologue(&hdr, &mut diags);
    first_error(&diags)?;
    Ok(report)
}

/// The first of `diags` in report order, as an error. Every diagnostic
/// here is an error; ties keep emission order, as the report's stable
/// sort does.
fn first_error(diags: &[Diagnostic]) -> Result<(), PimnetError> {
    match diags.iter().min_by_key(|d| (d.location.sort_key(), d.code)) {
        Some(d) => Err(PimnetError::ScheduleInvalid {
            reason: d.to_string(),
        }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveKind;
    use crate::schedule::{CommSchedule, Transfer};
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
        // P009 held (validate succeeded), and the metric agrees:
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
        assert!(err.to_string().contains("P005"), "{err}");
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
        assert!(err.to_string().contains("P301"), "{err}");
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
