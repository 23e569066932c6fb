//! Incremental streaming verifier: the four analysis passes folded one
//! step at a time, plus a delta re-lint for repaired or replanned
//! schedules whose work follows the size of the change.
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
//! already-verified schedule (the *base*) and a new schedule, and walks
//! their phases in lockstep, mapping each base step to the new steps that
//! replace it:
//!
//! * one identical step;
//! * one step with the same *flow* — every transfer field except
//!   `resources`, in transfer order (a reroute or a port remap);
//! * a run of sub-steps holding the step's flows as a multiset (a step
//!   split);
//! * otherwise, one dirty step.
//!
//! Steps are compared by `PartialEq`, never by hashing, so a collision
//! cannot smuggle an unsound accept. The walk is *in sync* while the
//! state entering the current step is the base's checkpoint. In sync, an
//! identical step is adopted whole. A same-flow step reruns structural,
//! sync and hazard, which read no fold state, and adopts the base step's
//! dataflow findings and post-state: the dataflow kernel reads only flow
//! fields, so this is exact. A split group does the same once the split
//! rule proves the split leaves the dataflow unchanged (`split_rule`
//! below). Every other step re-folds from the live state,
//! and the walk is in sync again once the live state compares value-equal
//! with the base's post-state of the matching base step. A step whose
//! adopted findings would render at a shifted position is re-folded
//! instead: finding presence is position-independent, rendered locations
//! are not.
//!
//! A repair rewrites resources and splits steps but never changes a
//! payload span, yet a ring reroute can touch every step from the first
//! to the last. The walk stays in sync through all of it: the stateless
//! passes run on the steps the repair changed, and the dataflow kernel on
//! none. A header change, a different phase list, or a phase whose steps
//! do not align falls back to a full verification.
//!
//! # Checkpoints
//!
//! [`verify_full`] checkpoints the state after every step. A delta keeps
//! only the checkpoints it can vouch for: adopted and re-folded steps
//! carry one (adopted ones share the base's `Arc`s), a split group's last
//! sub-step carries its base step's, and the sub-steps before it carry
//! none, since their intermediate state is never computed. A delta whose
//! base lacks a checkpoint it needs falls back to a full verification.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::schedule::repair::RepairedSchedule;
use crate::schedule::{
    CommSchedule, CommStep, ScheduleHeader, ScheduleView, Span, StepRef, Transfer,
};

use super::dataflow::{self, DataflowState};
use super::diagnostics::{Diagnostic, Severity};
use super::{overlaps, structural, sync, AnalysisReport, StepScratch};

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

/// Cached per-step result: the step's own findings, split by the passes
/// that found them, and the pass state after folding it.
#[derive(Debug, Clone)]
pub(crate) struct StepRecord {
    pub(crate) phase: usize,
    pub(crate) step: usize,
    /// Structural, sync and hazard findings.
    pub(crate) diags: Vec<Diagnostic>,
    /// Dataflow findings.
    pub(crate) flow: Vec<Diagnostic>,
    /// The pass state after the step; `None` inside a split group, whose
    /// intermediate state a delta never computes.
    pub(crate) post: Option<PassState>,
}

impl StepRecord {
    fn is_clean(&self) -> bool {
        self.diags.is_empty() && self.flow.is_empty()
    }

    fn findings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().chain(&self.flow)
    }
}

/// A verified schedule plus everything needed to re-verify a variant of
/// it by delta: the per-step records, the final pass state, and the batch
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
                    r.findings().count()
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
    /// Steps adopted whole from the base: no pass ran on them.
    pub adopted: usize,
    /// Steps any pass ran on (every step not adopted whole).
    pub relinted: usize,
    /// Steps whose dataflow was re-folded rather than adopted.
    pub refolded: usize,
    /// Whether the final result check was reused from the base summary.
    pub reused_final: bool,
    /// Whether the delta fell back to a full verification (the header or
    /// the phase list changed, the steps did not align, or the base
    /// lacked a checkpoint the walk needed).
    pub full: bool,
}

impl DeltaStats {
    /// Steps that skipped re-linting: those adopted whole.
    #[must_use]
    pub fn reused(&self) -> usize {
        self.adopted
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

/// Lints one step through the shared step fold, folding `live` with the
/// fold's `scratch`, and returns the step's record with a checkpoint of
/// the state after it.
fn record_step(
    hdr: &ScheduleHeader<'_>,
    pos: FlatPos,
    step: &CommStep,
    live: &mut DataflowState,
    scratch: &mut StepScratch,
) -> StepRecord {
    let step = StepRef::Nested(step);
    let mut diags = Vec::new();
    super::lint_step_stateless(hdr, pos, step, scratch, &mut diags);
    let mut flow = Vec::new();
    live.feed_step(hdr, pos.0, pos.1, step, &mut scratch.flow, &mut flow);
    StepRecord {
        phase: pos.0,
        step: pos.1,
        diags,
        flow,
        post: Some(PassState {
            dataflow: live.clone(),
        }),
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
        diagnostics.extend(r.findings().cloned());
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
        let step = &self.schedule.phases[pos.0].steps[pos.1];
        let hdr = self.schedule.header();
        let record = record_step(&hdr, pos, step, &mut self.live, &mut self.scratch);
        let errors = record
            .findings()
            .filter(|d| d.severity == Severity::Error)
            .count();
        let verdict = StepVerdict {
            phase: pos.0,
            step: pos.1,
            errors,
            warnings: record.findings().count() - errors,
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

/// True when everything *outside* the phase list is identical, and the
/// phase lists agree in length, labels and multiplexing — the
/// precondition for pairing phases by index and walking their steps.
fn same_frame(a: &CommSchedule, b: &CommSchedule) -> bool {
    a.kind == b.kind
        && a.geometry == b.geometry
        && a.elems_per_node == b.elems_per_node
        && a.elem_bytes == b.elem_bytes
        && a.buffer_len == b.buffer_len
        && a.result_spans == b.result_spans
        && a.phases.len() == b.phases.len()
        && a.phases
            .iter()
            .zip(&b.phases)
            .all(|(x, y)| x.label == y.label && x.multiplexed == y.multiplexed)
}

/// Orders transfers by flow: every field except `resources`.
fn flow_cmp(a: &Transfer, b: &Transfer) -> Ordering {
    (a.src, &a.dsts, a.src_span, a.dst_span, a.combine)
        .cmp(&(b.src, &b.dsts, b.src_span, b.dst_span, b.combine))
}

/// True when two steps carry the same flow, transfer for transfer.
fn same_flow(a: &CommStep, b: &CommStep) -> bool {
    a.transfers.len() == b.transfers.len()
        && a.transfers
            .iter()
            .zip(&b.transfers)
            .all(|(x, y)| flow_cmp(x, y).is_eq())
}

/// How the walk maps one base step onto the new schedule.
#[derive(Debug, Clone, Copy)]
enum Match {
    /// One identical new step.
    Same,
    /// One new step with the same flow.
    Flow,
    /// This many new sub-steps holding the base step's flows as a
    /// multiset.
    Split(usize),
    /// One new step matching none of the above.
    Dirty,
}

impl Match {
    /// New steps the match consumes.
    fn steps(self) -> usize {
        match self {
            Match::Split(k) => k,
            _ => 1,
        }
    }
}

/// The delta re-lint's lockstep walk over a base summary and a new
/// schedule in the same frame.
struct Walk<'a> {
    base: &'a AnalysisSummary,
    hdr: ScheduleHeader<'a>,
    scratch: StepScratch,
    records: Vec<StepRecord>,
    /// The state entering the next new step, or `None` while the walk is
    /// in sync (that state is the base's checkpoint entering the current
    /// base step).
    live: Option<DataflowState>,
    stats: DeltaStats,
    /// A base step's and a candidate split group's transfers, sorted by
    /// flow for the multiset test.
    lhs: Vec<&'a Transfer>,
    rhs: Vec<&'a Transfer>,
    /// A split group's deliveries `(node, span, sub-step)`, sorted by
    /// node then span start.
    writes: Vec<(u32, Span, usize)>,
}

impl<'a> Walk<'a> {
    /// Walks `new` against `base`, or returns `None` where the walk
    /// cannot continue: a phase whose steps do not align, or a
    /// checkpoint the base lacks.
    fn run(base: &'a AnalysisSummary, new: &'a CommSchedule) -> Option<Walk<'a>> {
        let mut walk = Walk {
            base,
            hdr: new.header(),
            scratch: StepScratch::default(),
            records: Vec::with_capacity(new.step_count()),
            live: None,
            stats: DeltaStats {
                steps_total: new.step_count(),
                ..DeltaStats::default()
            },
            lhs: Vec::new(),
            rhs: Vec::new(),
            writes: Vec::new(),
        };
        let mut b = 0;
        for (pi, (old, phase)) in base.schedule.phases.iter().zip(&new.phases).enumerate() {
            let mut j = 0;
            for (i, step) in old.steps.iter().enumerate() {
                let rest = &phase.steps[j..];
                let m = walk.classify(step, rest)?;
                let group = &rest[..m.steps()];
                walk.map_step(b, step, (pi, i, j, phase.multiplexed), group, m)?;
                j += m.steps();
                b += 1;
            }
            if j != phase.steps.len() {
                return None;
            }
        }
        Some(walk)
    }

    /// How base step `step` maps onto the new steps `rest` at the walk's
    /// position, or `None` when the phase ran out of new steps.
    fn classify(&mut self, step: &'a CommStep, rest: &'a [CommStep]) -> Option<Match> {
        let first = rest.first()?;
        Some(if first == step {
            Match::Same
        } else if same_flow(first, step) {
            Match::Flow
        } else if let Some(k) = self.split_group(step, rest) {
            Match::Split(k)
        } else {
            Match::Dirty
        })
    }

    /// The length of the run of new steps at the front of `rest` whose
    /// transfers are `step`'s as a multiset, compared on flow, if there
    /// is one.
    fn split_group(&mut self, step: &'a CommStep, rest: &'a [CommStep]) -> Option<usize> {
        let want = step.transfers.len();
        let (mut have, mut k) = (0, 0);
        while have < want {
            have += rest.get(k)?.transfers.len();
            k += 1;
        }
        if have != want || k == 0 {
            return None;
        }
        self.lhs.clear();
        self.lhs.extend(&step.transfers);
        self.lhs.sort_unstable_by(|a, b| flow_cmp(a, b));
        self.rhs.clear();
        self.rhs.extend(rest[..k].iter().flat_map(|s| &s.transfers));
        self.rhs.sort_unstable_by(|a, b| flow_cmp(a, b));
        let same = self
            .lhs
            .iter()
            .zip(&self.rhs)
            .all(|(a, b)| flow_cmp(a, b).is_eq());
        same.then_some(k)
    }

    /// The state entering flat base step `b`, if the base holds it.
    fn entry(&self, b: usize) -> Option<DataflowState> {
        match b.checked_sub(1) {
            None => Some(DataflowState::new(&self.hdr)),
            Some(prev) => self.base.records[prev]
                .post
                .as_ref()
                .map(|p| p.dataflow.clone()),
        }
    }

    /// Records the new steps `group` that replace flat base step `b`
    /// (`step`, at index `i` of phase `pi`; the group starts at new index
    /// `j`), adopting what the walk can vouch for and re-folding the rest.
    fn map_step(
        &mut self,
        b: usize,
        step: &CommStep,
        (pi, i, j, multiplexed): (usize, usize, usize, bool),
        group: &[CommStep],
        m: Match,
    ) -> Option<()> {
        let rec = &self.base.records[b];
        if self.live.is_none() {
            let moved = i != j;
            match m {
                Match::Same if !moved || rec.is_clean() => {
                    self.records.push(StepRecord {
                        step: j,
                        ..rec.clone()
                    });
                    self.stats.adopted += 1;
                    return Some(());
                }
                Match::Same | Match::Flow if !moved || rec.flow.is_empty() => {
                    let diags = self.relint((pi, j, multiplexed), &group[0]);
                    self.records.push(StepRecord {
                        phase: pi,
                        step: j,
                        diags,
                        flow: rec.flow.clone(),
                        post: rec.post.clone(),
                    });
                    return Some(());
                }
                Match::Split(k) if self.split_rule(rec, step, group) => {
                    for (x, sub) in group.iter().enumerate() {
                        let diags = self.relint((pi, j + x, multiplexed), sub);
                        self.records.push(StepRecord {
                            phase: pi,
                            step: j + x,
                            diags,
                            flow: Vec::new(),
                            post: if x + 1 == k { rec.post.clone() } else { None },
                        });
                    }
                    return Some(());
                }
                _ => self.live = Some(self.entry(b)?),
            }
        }
        let live = self.live.as_mut().expect("the walk is out of sync here");
        for (x, sub) in group.iter().enumerate() {
            let pos = (pi, j + x, multiplexed);
            let record = record_step(&self.hdr, pos, sub, live, &mut self.scratch);
            self.records.push(record);
        }
        self.stats.relinted += group.len();
        self.stats.refolded += group.len();
        // Convergence: once the live state equals the base's state after
        // this step, the base's checkpoints hold again from here on.
        if let Some(post) = rec.post.as_ref().filter(|p| *live == p.dataflow) {
            let last = self.records.last_mut().expect("a group is never empty");
            last.post = Some(post.clone());
            self.live = None;
        }
        Some(())
    }

    /// Runs the stateless passes on one new step at `pos`, counting it
    /// re-linted, and returns their findings.
    fn relint(&mut self, pos: FlatPos, step: &CommStep) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        let step = StepRef::Nested(step);
        super::lint_step_stateless(&self.hdr, pos, step, &mut self.scratch, &mut diags);
        self.stats.relinted += 1;
        diags
    }

    /// The split rule: may the sub-steps `group`, which replace base step
    /// `step` (record `rec`), adopt its dataflow verdicts and post-state?
    /// The caller has checked that the walk is in sync entering `step`
    /// and that `group` holds exactly `step`'s transfers, compared on
    /// flow, as multisets. This checks the rest:
    ///
    /// * `step` had no findings at all;
    /// * every transfer moves at least one element;
    /// * no transfer of a sub-step reads (its `src` node, `src_span`) a
    ///   region that a transfer of an earlier sub-step delivers to on
    ///   that node, combining or overwriting, with overlap as
    ///   [`super::overlaps`] defines it.
    ///
    /// Then every read sees the state entering `step`, so it yields the
    /// pieces of the step's snapshot read; no overwrite overlaps another
    /// delivery (`step` had no P201); and combines commute, so the group
    /// ends in `step`'s post-state with no dataflow finding. DESIGN.md
    /// ("Incremental analysis") carries the argument, and why an empty
    /// span breaks it.
    fn split_rule(&mut self, rec: &StepRecord, step: &CommStep, group: &[CommStep]) -> bool {
        rec.is_clean()
            && step
                .transfers
                .iter()
                .all(|t| !t.src_span.is_empty() && !t.dst_span.is_empty())
            && !self.reads_an_earlier_delivery(group)
    }

    /// Does a transfer of a sub-step of `group` read a region that an
    /// earlier sub-step delivers to?
    fn reads_an_earlier_delivery(&mut self, group: &[CommStep]) -> bool {
        let writes = &mut self.writes;
        writes.clear();
        for (x, sub) in group.iter().enumerate() {
            for t in &sub.transfers {
                writes.extend(t.dsts.iter().map(|d| (d.0, t.dst_span, x)));
            }
        }
        writes.sort_unstable_by_key(|&(node, span, _)| (node, span.start));
        // A delivery overlapping span `s` starts before `s.end()` and,
        // being no longer than the longest, no earlier than
        // `s.start - longest`.
        let longest = writes.iter().map(|w| w.1.len).max().unwrap_or(0);
        group.iter().enumerate().skip(1).any(|(x, sub)| {
            sub.transfers.iter().any(|t| {
                let (node, span) = (t.src.0, t.src_span);
                let from = (node, span.start.saturating_sub(longest));
                let lo = writes.partition_point(|w| (w.0, w.1.start) < from);
                let to = (node, span.end());
                let hi = lo + writes[lo..].partition_point(|w| (w.0, w.1.start) < to);
                writes[lo..hi]
                    .iter()
                    .any(|w| w.2 < x && overlaps(w.1, span))
            })
        })
    }
}

/// Re-verifies `new_schedule` against the already-verified `base`,
/// re-linting only what the lockstep walk cannot adopt (see the module
/// docs).
///
/// The returned summary (including its report) is byte-identical to
/// [`verify_full`] on `new_schedule`; [`DeltaStats`] says how much work
/// was actually redone.
#[must_use]
pub fn reverify_delta(
    base: &AnalysisSummary,
    new_schedule: Arc<CommSchedule>,
) -> (AnalysisSummary, DeltaStats) {
    debug_assert_eq!(base.records.len(), base.schedule.step_count());
    let walked = if same_frame(&base.schedule, &new_schedule) {
        Walk::run(base, &new_schedule)
    } else {
        None
    };
    let Some(Walk {
        records,
        live,
        mut stats,
        ..
    }) = walked
    else {
        let summary = verify_full_arc(new_schedule);
        let steps = summary.records.len();
        let stats = DeltaStats {
            steps_total: steps,
            relinted: steps,
            refolded: steps,
            full: true,
            ..DeltaStats::default()
        };
        return (summary, stats);
    };

    // The final result check depends only on the header (equal) and the
    // final state value, so a final state equal to the base's reuses its
    // verdicts.
    let (final_state, final_diags) = match live.filter(|l| *l != base.final_state.dataflow) {
        None => {
            stats.reused_final = true;
            (base.final_state.clone(), base.final_diags.clone())
        }
        Some(dataflow) => {
            let mut diags = Vec::new();
            dataflow::final_check(&new_schedule.header(), &dataflow, &mut diags);
            (PassState { dataflow }, diags)
        }
    };

    // The prologue is a pure function of the header, which `same_frame`
    // pinned equal — reuse it.
    let prologue = base.prologue.clone();
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
            adopted: base.records.len(),
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
    use crate::analysis::run_all;
    use crate::collective::CollectiveKind;
    use crate::schedule::Phase;
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
        assert_eq!(stats.reused(), stats.steps_total);
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

    /// A split group whose base step reads an empty span fails the split
    /// rule. Step `S` = [A, D]: A reads the empty span `[32..32)` of node
    /// `a` and combines it into node `b`, splitting `b`'s run at 32; D
    /// overwrites `a`'s `[32..40)`. Neither overlaps the other, so `S` is
    /// clean and the writer-first split [D], [A] passes premise 4. But
    /// after D, no run of `a` contains 32 strictly, A reads nothing, and
    /// `b`'s run stays whole: adopting `S`'s post-state would render a
    /// later finding on `b` at the wrong span.
    #[test]
    fn empty_span_splits_are_refolded() {
        let s = build(CollectiveKind::AllReduce, 8, 64);
        let ring = s.phases[0].steps[0].transfers[0].clone();
        let (a, b) = (ring.src, ring.dsts[0]);
        let transfer = |src, dst, from: Span, to: Span, combine, resources: &[_]| Transfer {
            src,
            dsts: vec![dst],
            src_span: from,
            dst_span: to,
            combine,
            resources: resources.to_vec(),
        };
        let empty = Span::new(32, 0);
        let read_empty = transfer(a, b, empty, empty, true, &ring.resources);
        let overwrite = transfer(a, a, Span::new(0, 8), Span::new(32, 8), false, &[]);
        let whole = Span::new(0, 64);
        let fold_b_into_b = transfer(b, b, whole, whole, true, &[]);
        let step = |transfers: &[&Transfer]| CommStep {
            transfers: transfers.iter().map(|&t| t.clone()).collect(),
        };
        let with_steps = |steps| CommSchedule {
            phases: vec![Phase {
                steps,
                ..s.phases[0].clone()
            }],
            ..s.clone()
        };
        let old = with_steps(vec![
            step(&[&read_empty, &overwrite]),
            step(&[&fold_b_into_b]),
        ]);
        let new = with_steps(vec![
            step(&[&overwrite]),
            step(&[&read_empty]),
            step(&[&fold_b_into_b]),
        ]);
        let base = verify_full(&old);
        assert!(base.records[0].is_clean(), "{:?}", base.records[0]);
        let batch = super::super::run_all(&new);
        assert!(
            batch.diagnostics.iter().any(|d| d.code == "P104"),
            "{batch}"
        );
        let (summary, stats) = reverify_delta(&base, Arc::new(new));
        assert_eq!(batch.to_json(), summary.report.to_json());
        assert_eq!(stats.refolded, 3, "{stats:?}");
    }

    /// A repaired proof owns no per-step state of its own: each checkpoint
    /// it holds is one the base holds, and the sub-steps of a split group
    /// before the last hold none.
    #[test]
    fn repaired_proofs_share_the_base_checkpoints() {
        let s = build(CollectiveKind::AllReduce, 64, 64);
        let faults = pim_faults::permanent::PermanentFaultSet::parse_tokens("r0c0b2E,r0c5rx")
            .expect("tokens parse");
        let repaired = crate::schedule::repair::repair(&s, &faults).expect("repairs");
        let base = verify_full(&s);
        let (summary, stats) = reverify_repair(&base, &repaired);
        assert_eq!(stats.refolded, 0, "{stats:?}");
        let extra = repaired.report.extra_steps;
        assert!(extra > 0, "the repair splits no step");
        let bare = summary.records.iter().filter(|r| r.post.is_none()).count();
        assert_eq!(bare, extra, "one bare sub-step per extra step");
        for r in &summary.records {
            if let Some(post) = &r.post {
                assert!(
                    base.records.iter().any(|b| b
                        .post
                        .as_ref()
                        .is_some_and(|p| p.dataflow.shares_all(&post.dataflow))),
                    "phase {} step {} owns its checkpoint",
                    r.phase,
                    r.step
                );
            }
        }
        assert_eq!(
            summary.report.to_json(),
            run_all(repaired.schedule.as_ref()).to_json()
        );
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
