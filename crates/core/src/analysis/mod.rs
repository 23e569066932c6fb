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
//!
//! The hazard and sync kernels share one access index per step: every
//! delivery sorted by destination node and span start, so "which
//! overwrites on node `n` overlap span `s`" is two binary searches. Sync
//! derives the must-precede relation from
//! it (P302), and hazard reads the same index and relation (P201/P202).

use std::fmt;

use crate::collective::CollectiveKind;
use crate::schedule::{ScheduleHeader, ScheduleView, Span, StepRef};

pub mod diagnostics;
pub mod incremental;
pub mod presets;

mod dataflow;
mod hazard;
#[cfg(test)]
mod reference;
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
    let mut scratch = StepScratch::default();
    for pi in 0..schedule.phase_count() {
        let (steps, multiplexed) = (schedule.steps_in(pi), schedule.phase_multiplexed(pi));
        sync::check_phase(pi, steps, &mut diagnostics);
        for si in 0..steps {
            let step = schedule.step(pi, si);
            let pos = (pi, si, multiplexed);
            lint_step(&hdr, pos, step, &mut live, &mut scratch, &mut diagnostics);
        }
    }
    dataflow::final_check(&hdr, &live, &mut diagnostics);
    sorted_report(&hdr, diagnostics)
}

/// The fold's step function: the four kernels over the step at `(pi, si)`
/// of a phase that is `multiplexed` or not, folding the dataflow state
/// `live`. [`run_all`] and the streaming verifier lint every step through
/// it.
fn lint_step(
    hdr: &ScheduleHeader<'_>,
    pos: (usize, usize, bool),
    step: StepRef<'_>,
    live: &mut DataflowState,
    scratch: &mut StepScratch,
    diags: &mut Vec<Diagnostic>,
) {
    lint_step_stateless(hdr, pos, step, scratch, diags);
    live.feed_step(hdr, pos.0, pos.1, step, &mut scratch.flow, diags);
}

/// The step function's stateless part: structural, sync and hazard over
/// the step at `(pi, si)`. They read no fold state, so the delta re-lint
/// runs them alone on a step whose dataflow it can adopt. The step's
/// access index is built here, once, into the fold's `scratch`.
fn lint_step_stateless(
    hdr: &ScheduleHeader<'_>,
    (pi, si, multiplexed): (usize, usize, bool),
    step: StepRef<'_>,
    scratch: &mut StepScratch,
    diags: &mut Vec<Diagnostic>,
) {
    structural::check_step(hdr, pi, si, step, multiplexed, diags);
    scratch.index.build(step);
    sync::check_step(
        hdr,
        pi,
        si,
        step,
        &scratch.index,
        &mut scratch.precede,
        diags,
    );
    hazard::check_step(pi, si, &scratch.index, &scratch.precede, diags);
}

/// Buffers the step fold reuses from one step to the next: the access
/// index, the must-precede relation built from it and the dataflow
/// step's payload and merge buffers. Owned by the fold (one per
/// [`run_all`], verifier or delta re-lint), never by a step, so
/// steady-state linting allocates only what lands in the dataflow state.
#[derive(Debug, Default)]
struct StepScratch {
    index: AccessIndex,
    precede: sync::MustPrecede,
    flow: dataflow::FlowScratch,
}

/// True when two spans share an element, or when an empty span sits
/// strictly inside the other. Every kernel tests overlap this one way.
fn overlaps(a: Span, b: Span) -> bool {
    a.start < b.end() && b.start < a.end()
}

/// One delivery of a step: `transfer` writes `span` of `node`, combining
/// or overwriting.
#[derive(Debug, Clone, Copy)]
struct Write {
    node: u32,
    span: Span,
    transfer: u32,
    combine: bool,
}

/// One written node's slice of [`AccessIndex::writes`], with the length
/// of its longest overwrite (`None` when every write combines).
#[derive(Debug, Clone, Copy)]
struct NodeWrites {
    node: u32,
    lo: usize,
    hi: usize,
    longest_overwrite: Option<usize>,
}

/// One transfer's footprint: the span it reads on its source node and
/// the span it writes on each destination.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    src: u32,
    src_span: Span,
    dst_span: Span,
}

/// The per-step access index: every delivery of the step, sorted by
/// destination node, then span start, then transfer.
///
/// A delivery that can overlap span `s` on node `n` starts before
/// `s.end()` and, being no longer than `n`'s longest overwrite `L`, no
/// earlier than `s.start - L`; two `partition_point`s over `n`'s slice
/// bound that range. The bound is per node, so one long writer only
/// widens the searches on its own node. Duplicate destinations collapse
/// to one entry, since a transfer never conflicts with itself.
#[derive(Debug, Default)]
struct AccessIndex {
    writes: Vec<Write>,
    nodes: Vec<NodeWrites>,
    transfers: Vec<Footprint>,
}

impl AccessIndex {
    /// Rebuilds the index over `step`, reusing the buffers.
    fn build(&mut self, step: StepRef<'_>) {
        self.writes.clear();
        self.nodes.clear();
        self.transfers.clear();
        for (ti, t) in step.transfers().enumerate() {
            self.transfers.push(Footprint {
                src: t.src.0,
                src_span: t.src_span,
                dst_span: t.dst_span,
            });
            self.writes.extend(t.dsts.iter().map(|d| Write {
                node: d.0,
                span: t.dst_span,
                transfer: ti as u32,
                combine: t.combine,
            }));
        }
        self.writes
            .sort_unstable_by_key(|w| (w.node, w.span.start, w.transfer));
        self.writes
            .dedup_by(|a, b| a.node == b.node && a.transfer == b.transfer);
        let mut lo = 0;
        while let Some(first) = self.writes.get(lo) {
            let node = first.node;
            let hi = lo + self.writes[lo..].partition_point(|w| w.node == node);
            let longest_overwrite = self.writes[lo..hi]
                .iter()
                .filter(|w| !w.combine)
                .map(|w| w.span.len)
                .max();
            self.nodes.push(NodeWrites {
                node,
                lo,
                hi,
                longest_overwrite,
            });
            lo = hi;
        }
    }

    /// Every transfer's footprint, in transfer order.
    fn transfers(&self) -> &[Footprint] {
        &self.transfers
    }

    /// Every written node, ascending.
    fn nodes(&self) -> &[NodeWrites] {
        &self.nodes
    }

    /// The written node `node`, if the step writes it.
    fn node(&self, node: u32) -> Option<&NodeWrites> {
        let i = self.nodes.binary_search_by_key(&node, |n| n.node).ok()?;
        Some(&self.nodes[i])
    }

    /// `node`'s deliveries, by span start then transfer.
    fn writes(&self, node: &NodeWrites) -> &[Write] {
        &self.writes[node.lo..node.hi]
    }

    /// `node`'s overwrites that overlap `span`, by span start then
    /// transfer.
    fn overwrites(&self, node: &NodeWrites, span: Span) -> impl Iterator<Item = &Write> {
        let writes = self.writes(node);
        let range = node.longest_overwrite.map_or(0..0, |longest| {
            let from = span.start.saturating_sub(longest);
            let lo = writes.partition_point(|w| w.span.start < from);
            lo..lo + writes[lo..].partition_point(|w| w.span.start < span.end())
        });
        writes[range]
            .iter()
            .filter(move |w| !w.combine && overlaps(span, w.span))
    }
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
