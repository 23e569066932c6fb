//! Incremental streaming verifier: the four analysis passes folded one
//! step at a time, plus an O(Δ) delta re-lint for repaired or replanned
//! schedules.
//!
//! # Streaming
//!
//! [`ScheduleVerifier`] folds the same step function as
//! [`super::run_all`] — the structural, sync, hazard and dataflow kernels
//! on one step — but on demand: [`ScheduleVerifier::feed_step`] lints the
//! next step and returns its [`StepVerdict`], and
//! [`ScheduleVerifier::finalize`] runs the dataflow result check and
//! assembles an [`AnalysisReport`] that is **byte-identical** to the
//! batch report (same codes, same messages, same order). The identity
//! holds because every diagnostic is a deterministic function of the
//! schedule header, the step's content and position, and the dataflow
//! state *value* entering the step — and because ties under the report's
//! `(location, code)` sort can only come from one pass at one step (code
//! ranges are pass-disjoint), where both drivers share the emission order
//! of the same kernel. Unlike the batch fold, the verifier checkpoints the
//! dataflow state after every step, which is what the delta re-lint
//! resumes from.
//!
//! # Delta re-lint
//!
//! [`reverify_delta`] takes the [`AnalysisSummary`] of an
//! already-verified schedule and a new schedule, and re-proves only what
//! changed: an exact-content prefix (same position, same step) and
//! suffix (same step, position may shift) are aligned by `PartialEq` on
//! [`crate::schedule::CommStep`] — never by hashing, so a collision can
//! not smuggle an unsound accept — and only the dirty middle is
//! re-interpreted, starting from the prefix-end checkpoint. The suffix's
//! cached verdicts are adopted once the live dataflow state *converges*
//! (compares value-equal) with the old state at the matching point;
//! until then the dirty region extends one step at a time. A cached
//! suffix step whose position shifted is only adopted when its cached
//! diagnostics are empty (diagnostic *presence* is position-independent;
//! rendered messages are not), otherwise it is re-linted at its new
//! position. Schedule repairs rewrite resources and split steps but
//! never change payload spans, so the dataflow state converges
//! immediately after the repaired region and the work is proportional to
//! the repair, not the schedule.

use std::sync::Arc;

use crate::schedule::repair::RepairedSchedule;
use crate::schedule::{CommSchedule, CommStep, ScheduleView, StepRef};

use super::dataflow::{self, DataflowState};
use super::diagnostics::{Diagnostic, Severity};
use super::{structural, sync, AnalysisReport, StepScratch};

/// Serializable summary state of the pass fold after some step.
///
/// Structural, sync, and hazard are step-local — they carry no state
/// between steps — so the fold state is the dataflow interpreter's
/// per-node provenance runs. Cloning is a checkpoint (copy-on-write),
/// and equality is the delta re-lint's convergence test.
#[derive(Debug, Clone, PartialEq)]
pub struct PassState {
    pub(super) dataflow: DataflowState,
}

impl PassState {
    /// The state as a JSON object summarizing per-node provenance:
    /// `{"nodes":[{"runs":N},...]}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.dataflow.to_json()
    }
}

/// Verdict for one step fed to the verifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepVerdict {
    /// Phase index of the step just linted.
    pub phase: usize,
    /// Step index within its phase.
    pub step: usize,
    /// Error-severity findings this step added.
    pub errors: usize,
    /// Warning-severity findings this step added.
    pub warnings: usize,
}

impl StepVerdict {
    /// True when the step added no findings at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.errors == 0 && self.warnings == 0
    }
}

/// Cached per-step result: the step's own diagnostics and the pass state
/// after folding it.
#[derive(Debug, Clone)]
pub(crate) struct StepRecord {
    pub(crate) phase: usize,
    pub(crate) step: usize,
    pub(crate) diags: Vec<Diagnostic>,
    pub(crate) post: PassState,
}

/// A verified schedule plus everything needed to re-verify a variant of
/// it in O(Δ): the per-step records, the final pass state, and the batch
/// report itself.
#[derive(Debug, Clone)]
pub struct AnalysisSummary {
    /// The exact schedule these records describe.
    pub(crate) schedule: Arc<CommSchedule>,
    /// The batch-identical report.
    pub report: AnalysisReport,
    pub(crate) prologue: Vec<Diagnostic>,
    pub(crate) records: Vec<StepRecord>,
    pub(crate) final_state: PassState,
    pub(crate) final_diags: Vec<Diagnostic>,
}

impl AnalysisSummary {
    /// The schedule this summary verifies.
    #[must_use]
    pub fn schedule(&self) -> &Arc<CommSchedule> {
        &self.schedule
    }

    /// Number of steps the summary holds records for.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.records.len()
    }

    /// The summary as one JSON object: the report plus per-step verdict
    /// counts and the serialized final pass state.
    #[must_use]
    pub fn to_json(&self) -> String {
        let steps: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                format!(
                    "{{\"phase\":{},\"step\":{},\"findings\":{}}}",
                    r.phase,
                    r.step,
                    r.diags.len()
                )
            })
            .collect();
        format!(
            "{{\"report\":{},\"steps\":[{}],\"final_state\":{}}}",
            self.report.to_json(),
            steps.join(","),
            self.final_state.to_json()
        )
    }
}

/// How a delta re-lint spent its work, for trace events and the perf
/// gate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Steps in the new schedule.
    pub steps_total: usize,
    /// Steps whose cached verdict was reused from the aligned prefix.
    pub reused_prefix: usize,
    /// Steps whose cached verdict was adopted from the aligned suffix
    /// after state convergence.
    pub reused_suffix: usize,
    /// Steps actually re-linted.
    pub relinted: usize,
    /// Whether the final result check was reused from the base summary.
    pub reused_final: bool,
    /// Whether the delta fell back to a full verification (schedule
    /// header changed).
    pub full: bool,
}

impl DeltaStats {
    /// Steps that skipped re-linting.
    #[must_use]
    pub fn reused(&self) -> usize {
        self.reused_prefix + self.reused_suffix
    }
}

/// Flattened step position: `(phase, step, multiplexed)`.
type FlatPos = (usize, usize, bool);

fn flatten(schedule: &CommSchedule) -> Vec<FlatPos> {
    let mut flat = Vec::new();
    for (pi, phase) in schedule.phases.iter().enumerate() {
        for si in 0..phase.steps.len() {
            flat.push((pi, si, phase.multiplexed));
        }
    }
    flat
}

fn step_at(schedule: &CommSchedule, pos: FlatPos) -> &CommStep {
    &schedule.phases[pos.0].steps[pos.1]
}

/// Lints one step through the shared step fold, folding `live` with the
/// fold's `scratch`, and returns the step's record with a checkpoint of
/// the state after it.
fn record_step(
    schedule: &CommSchedule,
    pos: FlatPos,
    live: &mut DataflowState,
    scratch: &mut StepScratch,
) -> StepRecord {
    let (hdr, step) = (schedule.header(), StepRef::Nested(step_at(schedule, pos)));
    let mut diags = Vec::new();
    super::lint_step(&hdr, pos, step, live, scratch, &mut diags);
    StepRecord {
        phase: pos.0,
        step: pos.1,
        diags,
        post: PassState {
            dataflow: live.clone(),
        },
    }
}

/// Assembles the sorted, batch-identical report from summary parts.
fn assemble_report(
    schedule: &CommSchedule,
    prologue: &[Diagnostic],
    records: &[StepRecord],
    final_diags: &[Diagnostic],
) -> AnalysisReport {
    let mut diagnostics = prologue.to_vec();
    for (pi, phase) in schedule.phases.iter().enumerate() {
        sync::check_phase(pi, phase.steps.len(), &mut diagnostics);
    }
    for r in records {
        diagnostics.extend(r.diags.iter().cloned());
    }
    diagnostics.extend(final_diags.iter().cloned());
    super::sorted_report(&schedule.header(), diagnostics)
}

/// Streaming verifier: feed steps one at a time, finalize into a
/// batch-identical report plus reusable per-step records.
pub struct ScheduleVerifier {
    schedule: Arc<CommSchedule>,
    flat: Vec<FlatPos>,
    cursor: usize,
    live: DataflowState,
    scratch: StepScratch,
    prologue: Vec<Diagnostic>,
    records: Vec<StepRecord>,
}

impl ScheduleVerifier {
    /// Starts a verification: runs the schedule-level structural prologue
    /// and initializes the dataflow state, without touching any step.
    #[must_use]
    pub fn new(schedule: Arc<CommSchedule>) -> ScheduleVerifier {
        let mut prologue = Vec::new();
        structural::check_prologue(&schedule.header(), &mut prologue);
        let flat = flatten(&schedule);
        let live = DataflowState::new(&schedule.header());
        ScheduleVerifier {
            schedule,
            flat,
            cursor: 0,
            live,
            scratch: StepScratch::default(),
            prologue,
            records: Vec::new(),
        }
    }

    /// Steps remaining to feed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.flat.len() - self.cursor
    }

    /// Lints the next step (all four passes) and folds the dataflow
    /// state. Returns `None` once every step has been fed.
    pub fn feed_step(&mut self) -> Option<StepVerdict> {
        let pos = *self.flat.get(self.cursor)?;
        self.cursor += 1;
        let record = record_step(&self.schedule, pos, &mut self.live, &mut self.scratch);
        let errors = record
            .diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let verdict = StepVerdict {
            phase: pos.0,
            step: pos.1,
            errors,
            warnings: record.diags.len() - errors,
        };
        self.records.push(record);
        Some(verdict)
    }

    /// Feeds any remaining steps, runs the dataflow result check, and
    /// assembles the final summary. The contained report is byte-identical
    /// to [`super::run_all`] on the same schedule.
    #[must_use]
    pub fn finalize(mut self) -> AnalysisSummary {
        while self.feed_step().is_some() {}
        let mut final_diags = Vec::new();
        dataflow::final_check(&self.schedule.header(), &self.live, &mut final_diags);
        let report = assemble_report(&self.schedule, &self.prologue, &self.records, &final_diags);
        AnalysisSummary {
            schedule: self.schedule,
            report,
            prologue: self.prologue,
            records: self.records,
            final_state: PassState {
                dataflow: self.live,
            },
            final_diags,
        }
    }
}

/// Verifies a schedule from scratch with the streaming verifier.
#[must_use]
pub fn verify_full(schedule: &CommSchedule) -> AnalysisSummary {
    verify_full_arc(Arc::new(schedule.clone()))
}

/// [`verify_full`] without cloning an already-shared schedule.
#[must_use]
pub fn verify_full_arc(schedule: Arc<CommSchedule>) -> AnalysisSummary {
    ScheduleVerifier::new(schedule).finalize()
}

/// True when everything *outside* the phase list is identical — the
/// precondition for step-level delta alignment.
fn same_header(a: &CommSchedule, b: &CommSchedule) -> bool {
    a.kind == b.kind
        && a.geometry == b.geometry
        && a.elems_per_node == b.elems_per_node
        && a.elem_bytes == b.elem_bytes
        && a.buffer_len == b.buffer_len
        && a.result_spans == b.result_spans
}

/// Re-verifies `new_schedule` against the already-verified `base`,
/// re-linting only changed steps and their state-dependent suffix.
///
/// The returned summary (including its report) is byte-identical to
/// [`verify_full`] on `new_schedule`; [`DeltaStats`] says how much work
/// was actually redone.
#[must_use]
pub fn reverify_delta(
    base: &AnalysisSummary,
    new_schedule: Arc<CommSchedule>,
) -> (AnalysisSummary, DeltaStats) {
    if !same_header(&base.schedule, &new_schedule) {
        let relinted = flatten(&new_schedule).len();
        let summary = verify_full_arc(new_schedule);
        let stats = DeltaStats {
            steps_total: relinted,
            relinted,
            full: true,
            ..DeltaStats::default()
        };
        return (summary, stats);
    }

    let old_flat = flatten(&base.schedule);
    let new_flat = flatten(&new_schedule);
    let (len_o, len_n) = (old_flat.len(), new_flat.len());
    debug_assert_eq!(len_o, base.records.len());

    // Aligned prefix: identical position, multiplexing, and content.
    let mut k = 0;
    while k < len_o && k < len_n {
        if old_flat[k] == new_flat[k]
            && step_at(&base.schedule, old_flat[k]) == step_at(&new_schedule, new_flat[k])
        {
            k += 1;
        } else {
            break;
        }
    }
    // Aligned suffix: identical multiplexing and content; the position
    // may have shifted (e.g. a repair split an earlier step in the same
    // phase).
    let max_m = len_o.min(len_n) - k;
    let mut m = 0;
    while m < max_m {
        let a = old_flat[len_o - 1 - m];
        let b = new_flat[len_n - 1 - m];
        if a.2 == b.2 && step_at(&base.schedule, a) == step_at(&new_schedule, b) {
            m += 1;
        } else {
            break;
        }
    }

    // The prologue is a pure function of the header, which `same_header`
    // pinned equal — reuse it.
    let prologue = base.prologue.clone();

    let mut records: Vec<StepRecord> = base.records[..k].to_vec();
    let mut live = if k == 0 {
        DataflowState::new(&new_schedule.header())
    } else {
        base.records[k - 1].post.dataflow.clone()
    };
    let mut stats = DeltaStats {
        steps_total: len_n,
        reused_prefix: k,
        ..DeltaStats::default()
    };
    let mut scratch = StepScratch::default();

    // Dirty middle: every step with no aligned counterpart.
    for &pos in &new_flat[k..len_n - m] {
        records.push(record_step(&new_schedule, pos, &mut live, &mut scratch));
        stats.relinted += 1;
    }

    // Suffix: extend the dirty region until the live state converges
    // (value-equal) with the old state entering the matching old step,
    // then adopt the cached verdicts.
    let mut j = 0;
    while j < m {
        let old_pre = if len_o - m + j == 0 {
            // The whole old schedule is suffix; its entry state is the
            // initial placement, which `same_header` pins equal.
            None
        } else {
            Some(&base.records[len_o - m + j - 1].post.dataflow)
        };
        let converged = match old_pre {
            Some(pre) => live == *pre,
            None => live == DataflowState::new(&new_schedule.header()),
        };
        if converged {
            break;
        }
        records.push(record_step(
            &new_schedule,
            new_flat[len_n - m + j],
            &mut live,
            &mut scratch,
        ));
        stats.relinted += 1;
        j += 1;
    }
    for jj in j..m {
        let orec = &base.records[len_o - m + jj];
        let (npi, nsi, _) = new_flat[len_n - m + jj];
        if (orec.phase, orec.step) == (npi, nsi) || orec.diags.is_empty() {
            // A finding fires (or not) independent of step position; only
            // its rendered location changes. Unchanged position — or no
            // findings at all — means the cached record is exact.
            live = orec.post.dataflow.clone();
            records.push(StepRecord {
                phase: npi,
                step: nsi,
                diags: orec.diags.clone(),
                post: orec.post.clone(),
            });
            stats.reused_suffix += 1;
        } else {
            // Position shifted under a step with findings: the messages
            // embed the location, so re-render by re-linting.
            records.push(record_step(
                &new_schedule,
                new_flat[len_n - m + jj],
                &mut live,
                &mut scratch,
            ));
            stats.relinted += 1;
        }
    }

    // The final result check depends only on the header (equal) and the
    // final state value, so a converged final state reuses its verdicts.
    let final_state = PassState { dataflow: live };
    let final_diags = if final_state == base.final_state {
        stats.reused_final = true;
        base.final_diags.clone()
    } else {
        let mut diags = Vec::new();
        dataflow::final_check(&new_schedule.header(), &final_state.dataflow, &mut diags);
        diags
    };

    let report = assemble_report(&new_schedule, &prologue, &records, &final_diags);
    let summary = AnalysisSummary {
        schedule: new_schedule,
        report,
        prologue,
        records,
        final_state,
        final_diags,
    };
    (summary, stats)
}

/// [`reverify_delta`] for a repaired schedule, with an identity fast
/// path: an identity repair changed nothing, so the base summary is
/// returned as-is. The fast path tries [`Arc::ptr_eq`] (the cache shares
/// the base allocation with an identity repair) before comparing
/// contents. Otherwise the summary proves the repair's own allocation:
/// handing it over is an `Arc` bump, not a copy.
#[must_use]
pub fn reverify_repair(
    base: &AnalysisSummary,
    repaired: &RepairedSchedule,
) -> (AnalysisSummary, DeltaStats) {
    if repaired.report.is_identity()
        && (Arc::ptr_eq(&base.schedule, &repaired.schedule) || base.schedule == repaired.schedule)
    {
        let stats = DeltaStats {
            steps_total: base.records.len(),
            reused_prefix: base.records.len(),
            reused_final: true,
            ..DeltaStats::default()
        };
        return (base.clone(), stats);
    }
    reverify_delta(base, repaired.schedule.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveKind;
    use pim_arch::PimGeometry;

    fn build(kind: CollectiveKind, dpus: u32, elems: usize) -> CommSchedule {
        let g = PimGeometry::paper_scaled(dpus);
        CommSchedule::build(kind, &g, elems, 4).expect("builds")
    }

    #[test]
    fn streaming_matches_batch_on_builders() {
        for kind in CollectiveKind::ALL {
            for dpus in [2u32, 8, 64] {
                let schedule = build(kind, dpus, 64);
                let batch = super::super::run_all(&schedule);
                let summary = verify_full(&schedule);
                assert_eq!(
                    batch.to_json(),
                    summary.report.to_json(),
                    "{kind} x{dpus} diverged"
                );
                assert_eq!(batch.to_string(), summary.report.to_string());
            }
        }
    }

    #[test]
    fn feed_step_reports_progress() {
        let schedule = Arc::new(build(CollectiveKind::AllReduce, 8, 64));
        let mut v = ScheduleVerifier::new(schedule);
        let total = v.remaining();
        assert!(total > 0);
        let mut fed = 0;
        while let Some(verdict) = v.feed_step() {
            assert!(verdict.is_clean(), "unexpected finding at {verdict:?}");
            fed += 1;
        }
        assert_eq!(fed, total);
        let summary = v.finalize();
        assert!(summary.report.is_clean());
    }

    #[test]
    fn delta_on_identical_schedule_reuses_everything() {
        let schedule = Arc::new(build(CollectiveKind::AllGather, 8, 64));
        let base = verify_full_arc(schedule.clone());
        let (summary, stats) = reverify_delta(&base, schedule);
        assert_eq!(summary.report.to_json(), base.report.to_json());
        assert_eq!(stats.relinted, 0);
        assert_eq!(stats.reused_prefix, stats.steps_total);
        assert!(stats.reused_final);
        assert!(!stats.full);
    }

    #[test]
    fn delta_matches_batch_on_mutation() {
        let mut schedule = build(CollectiveKind::AllGather, 8, 64);
        let base = verify_full(&schedule);
        // Drop one non-local transfer mid-schedule: downstream steps now
        // read undelivered data, so the dirty region must extend.
        'outer: for phase in &mut schedule.phases {
            for step in &mut phase.steps {
                if let Some(i) = step.transfers.iter().position(|t| !t.is_local()) {
                    step.transfers.remove(i);
                    break 'outer;
                }
            }
        }
        let batch = super::super::run_all(&schedule);
        assert!(batch.has_errors());
        let (summary, stats) = reverify_delta(&base, Arc::new(schedule));
        assert_eq!(batch.to_json(), summary.report.to_json());
        assert!(!stats.full);
    }

    #[test]
    fn header_change_falls_back_to_full() {
        let a = build(CollectiveKind::AllReduce, 8, 64);
        let b = build(CollectiveKind::AllReduce, 8, 128);
        let base = verify_full(&a);
        let batch = super::super::run_all(&b);
        let (summary, stats) = reverify_delta(&base, Arc::new(b));
        assert_eq!(batch.to_json(), summary.report.to_json());
        assert!(stats.full);
    }

    #[test]
    fn summary_json_is_well_formed() {
        let schedule = build(CollectiveKind::Broadcast, 8, 64);
        let summary = verify_full(&schedule);
        let json = summary.to_json();
        assert!(json.starts_with("{\"report\":"));
        assert!(json.contains("\"final_state\":"));
    }
}
