//! Static analysis of [`CommSchedule`](crate::schedule::CommSchedule)s: prove a schedule correct
//! without executing a single payload.
//!
//! PIMnet's premise is that collective traffic is fully static — no
//! router buffers, no arbitration, no hardware routing — which makes
//! every correctness property of a schedule decidable ahead of time.
//! This module promotes those properties from "caught dynamically by the
//! functional executor" to a compiler-style analysis suite of four
//! passes, each owning a stable diagnostic-code range:
//!
//! | Pass | Codes | Proves |
//! |------|-------|--------|
//! | structural | `P001`–`P011` | spans in bounds, tier-correct resource paths, no illegal sharing |
//! | dataflow | `P101`–`P107` | per-element provenance: reductions fold every contributor exactly once, gathers deliver every span, nothing reads uninitialized memory |
//! | hazard | `P201`–`P202` | no intra-step write-write or read-after-overwrite races on overlapping spans |
//! | sync | `P301`–`P303` | the READY/START tree spans all endpoints, steps admit a serial order, no empty barriers |
//!
//! The entry point is [`run_all`], which folds every pass over the
//! schedule one step at a time and returns an [`AnalysisReport`]; the
//! streaming [`ScheduleVerifier`] folds the same step function, so its
//! report is byte-identical. A report with no error-severity diagnostics is a
//! proof (relative to the executor's semantics, which the differential
//! fuzzer in `tests/validator_fuzz.rs` pins) that executing the schedule
//! bit-matches the reference collective. The resilience layer uses this
//! to independently re-prove repaired schedules before offering them as
//! a degraded-mode tier, and the CLI `lint` subcommand exposes it for
//! every preset.

use std::fmt;

use crate::collective::CollectiveKind;
use crate::schedule::{ScheduleHeader, ScheduleView, StepRef};

pub mod diagnostics;
pub mod incremental;
pub mod presets;

mod dataflow;
mod hazard;
pub(crate) mod structural;
pub(crate) mod sync;

use dataflow::DataflowState;

pub use diagnostics::{Diagnostic, Location, Severity};
pub use incremental::{
    reverify_delta, reverify_repair, verify_full, verify_full_arc, AnalysisSummary, DeltaStats,
    PassState, ScheduleVerifier, StepVerdict,
};

/// Result of running every analysis pass over one schedule.
///
/// Diagnostics are sorted by location (phase, step, transfer, dpu) and
/// then code, so reports are deterministic and diffable.
#[derive(Debug, Clone)]
pub struct AnalysisReport {
    /// The collective the schedule claims to implement.
    pub kind: CollectiveKind,
    /// Total DPUs in the schedule's geometry.
    pub dpus: u32,
    /// Elements contributed per node.
    pub elems_per_node: usize,
    /// Every finding, sorted by location then code.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// True when analysis produced no findings at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when any finding is error severity — the schedule is wrong.
    #[must_use]
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// One-line human summary, e.g. `AllReduce x64: 2 errors, 1 warning`.
    #[must_use]
    pub fn summary(&self) -> String {
        let errors = self.error_count();
        let warnings = self
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count();
        if self.is_clean() {
            format!("{} x{}: clean", self.kind, self.dpus)
        } else {
            format!(
                "{} x{}: {errors} error(s), {warnings} warning(s)",
                self.kind, self.dpus
            )
        }
    }

    /// The report as one machine-readable JSON object:
    /// `{"kind":...,"dpus":...,"clean":...,"errors":...,"diagnostics":[...]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let diags: Vec<String> = self.diagnostics.iter().map(Diagnostic::to_json).collect();
        format!(
            "{{\"kind\":\"{}\",\"dpus\":{},\"elems_per_node\":{},\"clean\":{},\
             \"errors\":{},\"diagnostics\":[{}]}}",
            self.kind,
            self.dpus,
            self.elems_per_node,
            self.is_clean(),
            self.error_count(),
            diags.join(",")
        )
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(f, "{}", self.summary())
    }
}

/// Runs every analysis pass over `schedule` (in either layout — nested
/// [`crate::schedule::CommSchedule`] or flat
/// [`crate::schedule::FlatSchedule`]) and collects the findings.
///
/// One fold visits each step once and runs the four passes on it —
/// structural, sync, hazard, dataflow — with the schedule-level
/// structural checks before the first step, the empty-phase check at each
/// phase boundary and the dataflow result check after the last step.
/// Each pass tolerates the malformed constructs earlier passes flag
/// (out-of-range DPUs, out-of-bounds spans), so one broken transfer
/// yields its own pinpointed diagnostics rather than a panic or a
/// cascade. Both layouts drive one generic code path, so their reports
/// are byte-identical.
#[must_use]
pub fn run_all<S: ScheduleView>(schedule: &S) -> AnalysisReport {
    let hdr = schedule.header();
    let mut diagnostics = Vec::new();
    structural::check_prologue(&hdr, &mut diagnostics);
    let mut live = DataflowState::new(&hdr);
    for pi in 0..schedule.phase_count() {
        let (steps, multiplexed) = (schedule.steps_in(pi), schedule.phase_multiplexed(pi));
        sync::check_phase(pi, steps, &mut diagnostics);
        for si in 0..steps {
            let step = schedule.step(pi, si);
            lint_step(&hdr, pi, si, step, multiplexed, &mut live, &mut diagnostics);
        }
    }
    dataflow::final_check(&hdr, &live, &mut diagnostics);
    sorted_report(&hdr, diagnostics)
}

/// The fold's step function: the four step-local kernels over the step at
/// `(pi, si)`, folding the dataflow state `live`. [`run_all`] and the
/// streaming verifier lint every step through it.
fn lint_step(
    hdr: &ScheduleHeader<'_>,
    pi: usize,
    si: usize,
    step: StepRef<'_>,
    multiplexed: bool,
    live: &mut DataflowState,
    diags: &mut Vec<Diagnostic>,
) {
    structural::check_step(hdr, pi, si, step, multiplexed, diags);
    sync::check_step(hdr, pi, si, step, diags);
    hazard::check_step(pi, si, step, diags);
    live.feed_step(hdr, pi, si, step, diags);
}

/// The report over `diagnostics`, sorted by location then code. The sort
/// is stable, and codes are pass-disjoint, so ties can only come from one
/// kernel at one step and keep that kernel's emission order.
fn sorted_report(hdr: &ScheduleHeader<'_>, mut diagnostics: Vec<Diagnostic>) -> AnalysisReport {
    diagnostics.sort_by(|a, b| {
        a.location
            .sort_key()
            .cmp(&b.location.sort_key())
            .then_with(|| a.code.cmp(b.code))
    });
    AnalysisReport {
        kind: hdr.kind,
        dpus: hdr.geometry.total_dpus(),
        elems_per_node: hdr.elems_per_node,
        diagnostics,
    }
}

/// Stable diagnostic codes, re-exported in one place so tooling can
/// match on them without reaching into pass modules.
pub mod codes {
    pub use super::dataflow::{
        COMBINE_INTO_UNINIT, DOUBLE_COUNTED, MISALIGNED_COMBINE, RESULT_ELEMENTS,
        RESULT_PROVENANCE, RESULT_SHAPE, UNINIT_READ,
    };
    pub use super::hazard::{READ_AFTER_WRITE, WRITE_WRITE};
    pub use super::structural::{
        COMBINE_IN_NON_REDUCING, EMPTY_DSTS, EXCLUSIVE_SHARING, FABRIC_SELF_SEND,
        MALFORMED_RESULT_TABLE, MISSING_DQ_ENDPOINT, NON_LOCAL_WITHOUT_RESOURCES,
        RESOURCE_OUTSIDE_GEOMETRY, SPAN_LEN_MISMATCH, SPAN_OUT_OF_BOUNDS, WRONG_TIER_RESOURCES,
    };
    pub use super::sync::{CYCLIC_WAIT, EMPTY_BARRIER, PARTITIONED_TREE};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveKind;
    use crate::schedule::CommSchedule;
    use pim_arch::PimGeometry;

    fn analyze(kind: CollectiveKind, dpus: u32, elems: usize) -> AnalysisReport {
        let g = PimGeometry::paper_scaled(dpus);
        let schedule = CommSchedule::build(kind, &g, elems, 4).expect("builds");
        run_all(&schedule)
    }

    #[test]
    fn every_builtin_collective_analyzes_clean() {
        for kind in CollectiveKind::ALL {
            for dpus in [2u32, 8, 64] {
                let report = analyze(kind, dpus, 64);
                assert!(report.is_clean(), "{kind} x{dpus} not clean:\n{report}");
            }
        }
    }

    #[test]
    fn odd_element_counts_analyze_clean() {
        for kind in CollectiveKind::ALL {
            let report = analyze(kind, 8, 193);
            assert!(report.is_clean(), "{kind} x8 e193 not clean:\n{report}");
        }
    }

    #[test]
    fn report_json_and_summary() {
        let report = analyze(CollectiveKind::AllReduce, 8, 64);
        assert!(report.summary().contains("clean"));
        let json = report.to_json();
        assert!(json.contains("\"clean\":true"));
        assert!(json.contains("\"diagnostics\":[]"));
    }

    #[test]
    fn dropped_transfer_is_detected() {
        let g = PimGeometry::paper_scaled(8);
        let mut schedule =
            CommSchedule::build(CollectiveKind::AllGather, &g, 64, 4).expect("builds");
        // Remove one non-local transfer: some span is no longer delivered.
        'outer: for phase in &mut schedule.phases {
            for step in &mut phase.steps {
                if let Some(i) = step.transfers.iter().position(|t| !t.is_local()) {
                    step.transfers.remove(i);
                    break 'outer;
                }
            }
        }
        let report = run_all(&schedule);
        assert!(report.has_errors(), "mutation not caught:\n{report}");
    }
}
