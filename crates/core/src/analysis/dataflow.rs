//! Dataflow/provenance pass (`P1xx`): abstract interpretation of a
//! schedule over *provenance* instead of payloads.
//!
//! Every node's buffer is modeled as a sorted list of disjoint **runs**.
//! A run records, for a contiguous span, which original contributions it
//! holds: a contributor set (bitset over DPUs) and the contributor-side
//! element index of its first element (`elem0`; indices advance one per
//! element, mirroring the elementwise collectives). Regions outside any
//! run are *uninitialized* — never written and not an input location, so
//! they hold the buffer's default fill in the functional executor.
//!
//! The interpreter mirrors [`crate::exec::ExecMachine`] exactly: the same
//! initial placement (offset 0, or piece `i` for AllGather/Gather), the
//! same snapshot semantics within a step (payloads are read before any
//! delivery lands), the same delivery order. A `combine` delivery unions
//! contributor sets and requires element alignment and disjointness — a
//! misaligned or double-counted reduction can never equal the reference
//! reduction for `Sum`, so both are errors. After the last step, each
//! node's declared result spans are checked against the collective's
//! expected provenance: AllReduce must hold *every* contributor at every
//! element, AllGather must hold exactly contributor `k` at piece `k`, and
//! so on per kind.
//!
//! The interpreter state is [`DataflowState`]: a copy-on-write vector of
//! per-node run lists (each behind an [`Arc`]) folded one step at a time
//! by [`DataflowState::feed_step`], which both the batch driver and the
//! incremental verifier ([`super::incremental`]) call from the shared
//! step fold. A checkpoint (plain `clone`) is
//! O(nodes) pointer copies, and comparing two states short-circuits on
//! pointer equality per node — which is what makes the delta re-lint's
//! convergence test cheap after a repair that only touched a few steps.
//!
//! Every access touches only the runs it overlaps: a binary search finds
//! that range, and a delivery replaces just that range in place. Run lists
//! never carry spare capacity — growth reserves exactly, shrinkage trims —
//! because a proof summary checkpoints one list per node per step, so any
//! slack would be paid once per step held. The step's working memory is
//! the fold's [`FlowScratch`]: every payload piece lands, in destination
//! coordinates, in one arena that each delivery names a range of, and
//! combines and splices build their runs in reused buffers, so a step
//! allocates only what lands in the state.

use std::ops::Range;
use std::sync::Arc;

use crate::collective::CollectiveKind;
use crate::schedule::{ScheduleHeader, Span, StepRef};

use super::diagnostics::{Diagnostic, Location};

/// `P101` — a transfer reads a region no prior step initialized.
pub const UNINIT_READ: &str = "P101";
/// `P102` — a reduction lands on an uninitialized destination region.
pub const COMBINE_INTO_UNINIT: &str = "P102";
/// `P103` — a reduction combines misaligned element indices.
pub const MISALIGNED_COMBINE: &str = "P103";
/// `P104` — a reduction double-counts a contributor.
pub const DOUBLE_COUNTED: &str = "P104";
/// `P105` — a node's result has the wrong shape (length, or the
/// ReduceScatter partition is broken).
pub const RESULT_SHAPE: &str = "P105";
/// `P106` — a result region is uninitialized or carries the wrong
/// contributor set.
pub const RESULT_PROVENANCE: &str = "P106";
/// `P107` — a result region holds the right contributors but the wrong
/// elements.
pub const RESULT_ELEMENTS: &str = "P107";

/// A set of contributing DPUs, as a bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    fn empty(total: u32) -> NodeSet {
        NodeSet {
            words: vec![0; (total as usize).div_ceil(64).max(1)],
        }
    }

    fn single(total: u32, i: u32) -> NodeSet {
        let mut s = NodeSet::empty(total);
        s.words[i as usize / 64] |= 1 << (i % 64);
        s
    }

    fn full(total: u32) -> NodeSet {
        let mut s = NodeSet::empty(total);
        for i in 0..total {
            s.words[i as usize / 64] |= 1 << (i % 64);
        }
        s
    }

    fn contains(&self, i: u32) -> bool {
        self.words
            .get(i as usize / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    fn intersects(&self, other: &NodeSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    fn union(&self, other: &NodeSet) -> NodeSet {
        NodeSet {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(a, b)| a | b)
                .collect(),
        }
    }

    fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    fn is_single(&self, i: u32) -> bool {
        self.count() == 1 && self.contains(i)
    }
}

/// A contiguous buffer region of known provenance. The element at buffer
/// index `b` (with `span.start <= b < span.end()`) holds the reduction of
/// element `elem0 + (b - span.start)` over every contributor in `contrib`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Run {
    span: Span,
    elem0: usize,
    contrib: Arc<NodeSet>,
}

impl Run {
    /// Contributor-side element index at buffer index `b`.
    fn elem_at(&self, b: usize) -> usize {
        self.elem0 + (b - self.span.start)
    }

    /// The run clipped to `span` (assumed overlapping).
    fn clip(&self, span: Span) -> Run {
        let start = self.span.start.max(span.start);
        let end = self.span.end().min(span.end());
        Run {
            span: Span::new(start, end - start),
            elem0: self.elem_at(start),
            contrib: self.contrib.clone(),
        }
    }
}

/// The index range of the runs that overlap `span`. Runs are sorted,
/// disjoint and non-empty, so both their starts and their ends ascend and
/// the range is two binary searches. An empty `span` overlaps only a run
/// it lies strictly inside.
fn overlapped(runs: &[Run], span: Span) -> Range<usize> {
    let lo = runs.partition_point(|r| r.span.end() <= span.start);
    lo..lo + runs[lo..].partition_point(|r| r.span.start < span.end())
}

/// Appends the data pieces of `runs` inside `span` to `out`, clipped and
/// shifted so that `span.start` lands at `at`, and returns the first
/// uninitialized gap of `span`, if any.
fn read_into(runs: &[Run], span: Span, at: usize, out: &mut Vec<Run>) -> Option<Span> {
    let mut first_gap = None;
    let mut cursor = span.start;
    for r in &runs[overlapped(runs, span)] {
        let c = r.clip(span);
        if c.span.start > cursor {
            first_gap.get_or_insert(Span::new(cursor, c.span.start - cursor));
        }
        cursor = c.span.end();
        out.push(Run {
            span: Span::new(at + (c.span.start - span.start), c.span.len),
            ..c
        });
    }
    if cursor < span.end() {
        first_gap.get_or_insert(Span::new(cursor, span.end() - cursor));
    }
    first_gap
}

/// Replaces the `span` portion of `runs` with `pieces` (disjoint,
/// contained in `span`, ascending). Boundary runs are split, preserving
/// `elem0`; an empty `span` strictly inside a run splits it in two. The
/// replacement is built in `buf`, only the overlapped range moves, and
/// the list keeps exact capacity: checkpoints share lists, so any slack
/// would be paid once per step held.
fn splice(runs: &mut Vec<Run>, span: Span, pieces: &[Run], buf: &mut Vec<Run>) {
    let hit = overlapped(runs, span);
    buf.clear();
    if let Some(r) = runs[hit.clone()]
        .first()
        .filter(|r| r.span.start < span.start)
    {
        buf.push(Run {
            span: Span::new(r.span.start, span.start - r.span.start),
            elem0: r.elem0,
            contrib: r.contrib.clone(),
        });
    }
    buf.extend(pieces.iter().filter(|p| !p.span.is_empty()).cloned());
    if let Some(r) = runs[hit.clone()]
        .last()
        .filter(|r| span.end() < r.span.end())
    {
        buf.push(Run {
            span: Span::new(span.end(), r.span.end() - span.end()),
            elem0: r.elem_at(span.end()),
            contrib: r.contrib.clone(),
        });
    }
    runs.reserve_exact(buf.len().saturating_sub(hit.len()));
    runs.splice(hit, buf.drain(..));
    runs.shrink_to_fit();
}

/// One pending delivery of a step (snapshot semantics: all payloads are
/// read before any delivery is applied, in transfer order, like the
/// executor). Its payload is a range of [`FlowScratch::pieces`].
#[derive(Debug)]
struct Delivery {
    dst: usize,
    dst_span: Span,
    pieces: Range<usize>,
    combine: bool,
    loc: Location,
}

/// Buffers the dataflow step reuses from one step to the next. Owned by
/// the fold (inside [`super::StepScratch`]), never by a step, so a step
/// allocates only the runs that land in the state.
#[derive(Debug, Default)]
pub(super) struct FlowScratch {
    /// Every payload piece of the step, already in destination
    /// coordinates; each delivery reads a range of it.
    pieces: Vec<Run>,
    deliveries: Vec<Delivery>,
    /// One combine piece merged with the runs it lands on.
    merged: Vec<Run>,
    /// A splice's replacement runs.
    spliced: Vec<Run>,
}

/// The abstract interpreter's per-node provenance state, folded one step
/// at a time.
///
/// Cloning is a checkpoint: O(nodes) `Arc` bumps, with run storage shared
/// copy-on-write between the checkpoint and the live state. Equality
/// compares per-node run lists, short-circuiting on shared pointers, so
/// two states that diverged in only a few nodes compare in time
/// proportional to the divergence.
#[derive(Debug, Clone)]
pub(super) struct DataflowState {
    state: Vec<Arc<Vec<Run>>>,
}

impl PartialEq for DataflowState {
    fn eq(&self, other: &Self) -> bool {
        self.state.len() == other.state.len()
            && self
                .state
                .iter()
                .zip(&other.state)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl DataflowState {
    /// Initial placement, mirroring `ExecMachine::init`.
    pub(super) fn new(hdr: &ScheduleHeader<'_>) -> DataflowState {
        let total = hdr.geometry.total_dpus();
        let n = hdr.elems_per_node;
        let state = (0..total)
            .map(|i| {
                let offset = match hdr.kind {
                    CollectiveKind::AllGather | CollectiveKind::Gather => i as usize * n,
                    _ => 0,
                };
                Arc::new(if n == 0 || offset + n > hdr.buffer_len {
                    Vec::new()
                } else {
                    vec![Run {
                        span: Span::new(offset, n),
                        elem0: 0,
                        contrib: Arc::new(NodeSet::single(total, i)),
                    }]
                })
            })
            .collect();
        DataflowState { state }
    }

    /// Interprets one step at `(pi, si)` — snapshot reads, then deliveries
    /// in transfer order — appending any provenance findings to `diags`.
    /// The step's payloads and merges live in the fold's `scratch`.
    pub(super) fn feed_step(
        &mut self,
        hdr: &ScheduleHeader<'_>,
        pi: usize,
        si: usize,
        step: StepRef<'_>,
        scratch: &mut FlowScratch,
        diags: &mut Vec<Diagnostic>,
    ) {
        let total = hdr.geometry.total_dpus();
        if total == 0 {
            return;
        }
        let FlowScratch {
            pieces,
            deliveries,
            merged,
            spliced,
        } = scratch;
        pieces.clear();
        deliveries.clear();
        for (ti, t) in step.transfers().enumerate() {
            let loc = Location::at(pi, si, ti);
            // Transfers the structural/sync passes already rejected
            // cannot be interpreted; skip them rather than panic.
            if t.src.0 >= total
                || t.dsts.iter().any(|d| d.0 >= total)
                || t.src_span.len != t.dst_span.len
                || t.src_span.end() > hdr.buffer_len
                || t.dst_span.end() > hdr.buffer_len
            {
                continue;
            }
            let lo = pieces.len();
            let src = &self.state[t.src.index()];
            if let Some(gap) = read_into(src, t.src_span, t.dst_span.start, pieces) {
                diags.push(Diagnostic::error(
                    UNINIT_READ,
                    loc.on(t.src.0),
                    format!(
                        "transfer reads uninitialized region {gap} of node {}'s buffer",
                        t.src
                    ),
                ));
            }
            let payload = lo..pieces.len();
            deliveries.extend(t.dsts.iter().map(|dst| Delivery {
                dst: dst.index(),
                dst_span: t.dst_span,
                pieces: payload.clone(),
                combine: t.combine,
                loc,
            }));
        }
        for d in deliveries.drain(..) {
            let runs = Arc::make_mut(&mut self.state[d.dst]);
            let payload = &pieces[d.pieces];
            if d.combine {
                apply_combine(runs, payload, d.dst as u32, d.loc, merged, spliced, diags);
            } else {
                splice(runs, d.dst_span, payload, spliced);
            }
        }
    }

    /// True when every node's run list is one allocation in both states.
    #[cfg(test)]
    pub(super) fn shares_all(&self, other: &DataflowState) -> bool {
        self.state.len() == other.state.len()
            && self
                .state
                .iter()
                .zip(&other.state)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// The state as a JSON object summarizing each node's run list.
    pub(super) fn to_json(&self) -> String {
        let nodes: Vec<String> = self
            .state
            .iter()
            .map(|runs| {
                let covered: usize = runs.iter().map(|r| r.span.len).sum();
                format!("{{\"runs\":{},\"elems\":{covered}}}", runs.len())
            })
            .collect();
        format!("{{\"nodes\":[{}]}}", nodes.join(","))
    }
}

/// Reduces a delivery's payload pieces into node `dpu`'s runs, in place,
/// for the transfer at `loc`. Each piece is merged with the runs it lands
/// on in `merged`, in position order.
fn apply_combine(
    runs: &mut Vec<Run>,
    payload: &[Run],
    dpu: u32,
    loc: Location,
    merged: &mut Vec<Run>,
    spliced: &mut Vec<Run>,
    diags: &mut Vec<Diagnostic>,
) {
    let at = loc.on(dpu);
    let (mut warned_uninit, mut warned_align, mut warned_double) = (false, false, false);
    for p in payload {
        merged.clear();
        let mut first_gap = None;
        let mut cursor = p.span.start;
        for r in &runs[overlapped(runs, p.span)] {
            let e = r.clip(p.span);
            // Reducing into the default fill behaves like an overwrite
            // for `Sum`; model a gap as freshly written payload (P102
            // records the problem).
            if e.span.start > cursor {
                let gap = Span::new(cursor, e.span.start - cursor);
                first_gap.get_or_insert(gap);
                merged.push(p.clip(gap));
            }
            cursor = e.span.end();
            let seg = e.span;
            let p_elem = p.elem_at(seg.start);
            if p_elem != e.elem0 && !warned_align {
                warned_align = true;
                diags.push(Diagnostic::error(
                    MISALIGNED_COMBINE,
                    at,
                    format!(
                        "reduction at {seg} of node {dpu} combines element {p_elem} \
                         into element {}",
                        e.elem0
                    ),
                ));
            }
            if p.contrib.intersects(&e.contrib) && !warned_double {
                warned_double = true;
                diags.push(Diagnostic::error(
                    DOUBLE_COUNTED,
                    at,
                    format!(
                        "reduction at {seg} of node {dpu} double-counts \
                         contributor(s) already folded in"
                    ),
                ));
            }
            merged.push(Run {
                span: seg,
                elem0: e.elem0,
                contrib: Arc::new(p.contrib.union(&e.contrib)),
            });
        }
        if cursor < p.span.end() {
            let gap = Span::new(cursor, p.span.end() - cursor);
            first_gap.get_or_insert(gap);
            merged.push(p.clip(gap));
        }
        if let (Some(gap), false) = (first_gap, warned_uninit) {
            warned_uninit = true;
            diags.push(Diagnostic::error(
                COMBINE_INTO_UNINIT,
                at,
                format!("reduction lands on uninitialized region {gap} of node {dpu}'s buffer"),
            ));
        }
        splice(runs, p.span, merged, spliced);
    }
}

/// Expected provenance of one concatenated-result element.
enum Expect {
    /// Reduced over every participant; element index equals the concat
    /// position (AllReduce, Reduce at the root).
    FullAtConcat,
    /// Reduced over every participant; element index equals the *buffer*
    /// index (ReduceScatter's in-place owned pieces).
    FullInPlace,
    /// Exactly one contributor per block of `block` elements: concat
    /// block `j` holds contributor `owner(j)`'s elements starting at
    /// `elem0(j)`.
    Blocks {
        block: usize,
        owner: fn(usize, usize) -> u32,
        elem0: fn(usize, usize, usize) -> usize,
    },
}

/// Checks every node's declared result spans against the collective's
/// expected provenance.
pub(super) fn final_check(
    hdr: &ScheduleHeader<'_>,
    state: &DataflowState,
    diags: &mut Vec<Diagnostic>,
) {
    let total = hdr.geometry.total_dpus();
    if total == 0 {
        return;
    }
    let n = hdr.elems_per_node;
    if hdr.result_spans.len() != total as usize {
        return; // structural P010 already fired
    }

    let chunk = if hdr.kind == CollectiveKind::AllToAll {
        if total == 0 || !n.is_multiple_of(total as usize) {
            diags.push(Diagnostic::error(
                RESULT_SHAPE,
                Location::SCHEDULE,
                format!("All-to-All buffer ({n} elems/node) is not {total} even chunks"),
            ));
            return;
        }
        n / total as usize
    } else {
        0
    };

    let mut pieces = Vec::new();
    for i in 0..total {
        let spans = &hdr.result_spans[i as usize];
        let got_len: usize = spans.iter().map(|s| s.len).sum();
        let expected_len = match hdr.kind {
            CollectiveKind::AllReduce | CollectiveKind::Broadcast | CollectiveKind::AllToAll => n,
            CollectiveKind::ReduceScatter => got_len, // partition checked globally below
            CollectiveKind::Reduce => usize::from(i == 0) * n,
            CollectiveKind::AllGather => total as usize * n,
            CollectiveKind::Gather => usize::from(i == 0) * total as usize * n,
        };
        if got_len != expected_len {
            diags.push(Diagnostic::error(
                RESULT_SHAPE,
                Location::node(i),
                format!("result holds {got_len} element(s), expected {expected_len}"),
            ));
            continue;
        }
        let expect = match hdr.kind {
            CollectiveKind::AllReduce | CollectiveKind::Reduce => Expect::FullAtConcat,
            CollectiveKind::ReduceScatter => Expect::FullInPlace,
            CollectiveKind::Broadcast => Expect::Blocks {
                block: n.max(1),
                owner: |_j, _i| 0,
                elem0: |_j, _i, _block| 0,
            },
            CollectiveKind::AllGather | CollectiveKind::Gather => Expect::Blocks {
                block: n.max(1),
                owner: |j, _i| j as u32,
                elem0: |_j, _i, _block| 0,
            },
            CollectiveKind::AllToAll => Expect::Blocks {
                block: chunk.max(1),
                owner: |j, _i| j as u32,
                elem0: |_j, i, block| i * block,
            },
        };
        check_node(hdr, state, i, &expect, &mut pieces, diags);
    }

    // ReduceScatter's spans must partition the reduced vector exactly
    // once across all nodes. Each span is clipped to `[0, n)` first, so
    // the cost is bounded by `n` however far past the buffer a span P010
    // flagged reaches.
    if hdr.kind == CollectiveKind::ReduceScatter {
        let mut owned = vec![0u8; n];
        for span in hdr.result_spans.iter().flatten() {
            for count in &mut owned[span.start.min(n)..span.end().min(n)] {
                *count = count.saturating_add(1);
            }
        }
        if let Some(idx) = owned.iter().position(|&c| c != 1) {
            diags.push(Diagnostic::error(
                RESULT_SHAPE,
                Location::SCHEDULE,
                format!(
                    "ReduceScatter result pieces do not partition the vector: \
                     element {idx} is owned {} time(s)",
                    owned[idx]
                ),
            ));
        }
    }
}

/// Verifies one node's result spans against `expect`, walking runs and
/// expectation blocks piecewise; `pieces` is a reused read buffer.
fn check_node(
    hdr: &ScheduleHeader<'_>,
    state: &DataflowState,
    node: u32,
    expect: &Expect,
    pieces: &mut Vec<Run>,
    diags: &mut Vec<Diagnostic>,
) {
    let total = hdr.geometry.total_dpus();
    let full = NodeSet::full(total);
    let runs = &state.state[node as usize];
    let mut k = 0usize; // concatenated result position
    let (mut flagged_prov, mut flagged_elem) = (false, false);
    for span in &hdr.result_spans[node as usize] {
        if span.end() > hdr.buffer_len {
            k += span.len;
            continue; // structural P010 already fired
        }
        pieces.clear();
        let first_gap = read_into(runs, *span, span.start, pieces);
        if let (Some(gap), false) = (first_gap, flagged_prov) {
            flagged_prov = true;
            diags.push(Diagnostic::error(
                RESULT_PROVENANCE,
                Location::node(node),
                format!("result region {gap} of node {node} is never written"),
            ));
        }
        for piece in pieces.iter() {
            // Split the piece at expectation-block boundaries so both
            // sides are constant/linear, then compare once per segment.
            let mut b = piece.span.start;
            while b < piece.span.end() {
                let kb = k + (b - span.start);
                let seg_end = match expect {
                    Expect::Blocks { block, .. } => {
                        let block_end_k = (kb / block + 1) * block;
                        piece.span.end().min(b + (block_end_k - kb))
                    }
                    _ => piece.span.end(),
                };
                let seg = Span::new(b, seg_end - b);
                let (want_full, want_owner, want_elem) = match expect {
                    Expect::FullAtConcat => (true, 0, kb),
                    Expect::FullInPlace => (true, 0, b),
                    Expect::Blocks {
                        block,
                        owner,
                        elem0,
                    } => {
                        let j = kb / block;
                        (
                            false,
                            owner(j, node as usize),
                            elem0(j, node as usize, *block) + (kb % block),
                        )
                    }
                };
                let prov_ok = if want_full {
                    *piece.contrib == full
                } else {
                    piece.contrib.is_single(want_owner)
                };
                if !prov_ok && !flagged_prov {
                    flagged_prov = true;
                    let want = if want_full {
                        format!("all {total} contributors")
                    } else {
                        format!("contributor {want_owner} alone")
                    };
                    diags.push(Diagnostic::error(
                        RESULT_PROVENANCE,
                        Location::node(node),
                        format!(
                            "result region {seg} of node {node} holds {} of {total} \
                             contributor(s), expected {want}",
                            piece.contrib.count()
                        ),
                    ));
                }
                if piece.elem_at(b) != want_elem && !flagged_elem {
                    flagged_elem = true;
                    diags.push(Diagnostic::error(
                        RESULT_ELEMENTS,
                        Location::node(node),
                        format!(
                            "result region {seg} of node {node} holds element {} \
                             where element {want_elem} belongs",
                            piece.elem_at(b)
                        ),
                    ));
                }
                b = seg_end;
            }
        }
        k += span.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::reference::random_schedule;
    use crate::analysis::{overlaps, verify_full};
    use crate::schedule::ScheduleView;

    /// The unbuffered read the fold used before [`read_into`]: data
    /// pieces of `runs` inside `span` (clipped) plus the uninitialized
    /// gaps between them.
    fn read(runs: &[Run], span: Span) -> (Vec<Run>, Vec<Span>) {
        let mut pieces = Vec::new();
        let mut gaps = Vec::new();
        let mut cursor = span.start;
        for r in &runs[overlapped(runs, span)] {
            let c = r.clip(span);
            if c.span.start > cursor {
                gaps.push(Span::new(cursor, c.span.start - cursor));
            }
            cursor = c.span.end();
            pieces.push(c);
        }
        if cursor < span.end() {
            gaps.push(Span::new(cursor, span.end() - cursor));
        }
        (pieces, gaps)
    }

    /// The unbuffered splice the fold used before [`splice`]: `pieces`
    /// in any order, sorted here.
    fn sorting_splice(runs: &mut Vec<Run>, span: Span, mut pieces: Vec<Run>) {
        let hit = overlapped(runs, span);
        let left = runs[hit.clone()]
            .first()
            .filter(|r| r.span.start < span.start)
            .map(|r| Run {
                span: Span::new(r.span.start, span.start - r.span.start),
                elem0: r.elem0,
                contrib: r.contrib.clone(),
            });
        let right = runs[hit.clone()]
            .last()
            .filter(|r| span.end() < r.span.end())
            .map(|r| Run {
                span: Span::new(span.end(), r.span.end() - span.end()),
                elem0: r.elem_at(span.end()),
                contrib: r.contrib.clone(),
            });
        pieces.retain(|p| !p.span.is_empty());
        pieces.sort_unstable_by_key(|p| p.span.start);
        runs.splice(hit, left.into_iter().chain(pieces).chain(right));
    }

    /// `read` by scanning every run of the list.
    fn scan_read(runs: &[Run], span: Span) -> (Vec<Run>, Vec<Span>) {
        let mut pieces = Vec::new();
        let mut gaps = Vec::new();
        let mut cursor = span.start;
        for r in runs.iter().filter(|r| overlaps(r.span, span)) {
            let c = r.clip(span);
            if c.span.start > cursor {
                gaps.push(Span::new(cursor, c.span.start - cursor));
            }
            cursor = c.span.end();
            pieces.push(c);
        }
        if cursor < span.end() {
            gaps.push(Span::new(cursor, span.end() - cursor));
        }
        (pieces, gaps)
    }

    /// `splice` by draining the whole list, keeping what survives, and
    /// re-sorting.
    fn resort_splice(runs: &mut Vec<Run>, span: Span, pieces: Vec<Run>) {
        let mut kept: Vec<Run> = Vec::with_capacity(runs.len() + pieces.len());
        for r in runs.drain(..) {
            if !overlaps(r.span, span) {
                kept.push(r);
                continue;
            }
            if r.span.start < span.start {
                kept.push(Run {
                    span: Span::new(r.span.start, span.start - r.span.start),
                    elem0: r.elem0,
                    contrib: r.contrib.clone(),
                });
            }
            if span.end() < r.span.end() {
                kept.push(Run {
                    span: Span::new(span.end(), r.span.end() - span.end()),
                    elem0: r.elem_at(span.end()),
                    contrib: r.contrib,
                });
            }
        }
        kept.extend(pieces.into_iter().filter(|p| !p.span.is_empty()));
        kept.sort_by_key(|r| r.span.start);
        *runs = kept;
    }

    /// `read` through every implementation, which must agree: the scan,
    /// the unbuffered range read and the fold's buffered [`read_into`].
    fn checked_read(runs: &[Run], span: Span) -> (Vec<Run>, Vec<Span>) {
        let got = scan_read(runs, span);
        assert_eq!(read(runs, span), got, "read of {span}");
        let mut into = Vec::new();
        let first_gap = read_into(runs, span, span.start, &mut into);
        assert_eq!(
            (&into, first_gap),
            (&got.0, got.1.first().copied()),
            "read_into of {span}"
        );
        got
    }

    /// The oracle splice, checked against the unbuffered range splice;
    /// counts an empty `span` strictly inside a run.
    fn reference_splice(runs: &mut Vec<Run>, span: Span, pieces: Vec<Run>, inside: &mut usize) {
        let strictly_inside = |r: &Run| r.span.start < span.start && span.start < r.span.end();
        if span.is_empty() && runs.iter().any(strictly_inside) {
            *inside += 1;
        }
        let mut ranged = runs.clone();
        sorting_splice(&mut ranged, span, pieces.clone());
        resort_splice(runs, span, pieces);
        assert_eq!(ranged, *runs, "splice of {span}");
    }

    /// One step of `feed_step` without diagnostics, over the oracles:
    /// snapshot reads, then deliveries in transfer order, overwrites
    /// spliced and combines merged piece by piece.
    fn reference_step(
        state: &mut [Vec<Run>],
        hdr: &ScheduleHeader<'_>,
        step: StepRef<'_>,
        inside: &mut usize,
    ) {
        let total = hdr.geometry.total_dpus();
        let mut deliveries = Vec::new();
        for t in step.transfers() {
            if t.src.0 >= total
                || t.dsts.iter().any(|d| d.0 >= total)
                || t.src_span.len != t.dst_span.len
                || t.src_span.end() > hdr.buffer_len
                || t.dst_span.end() > hdr.buffer_len
            {
                continue;
            }
            let (pieces, _) = checked_read(&state[t.src.index()], t.src_span);
            let pieces: Vec<Run> = pieces
                .into_iter()
                .map(|p| Run {
                    span: Span::new(
                        t.dst_span.start + (p.span.start - t.src_span.start),
                        p.span.len,
                    ),
                    ..p
                })
                .collect();
            for &dst in t.dsts {
                deliveries.push((dst.index(), t.dst_span, pieces.clone(), t.combine));
            }
        }
        for (dst, span, pieces, combine) in deliveries {
            let runs = &mut state[dst];
            if !combine {
                reference_splice(runs, span, pieces, inside);
                continue;
            }
            for p in &pieces {
                let (existing, gaps) = checked_read(runs, p.span);
                let mut merged: Vec<Run> = existing
                    .into_iter()
                    .map(|e| Run {
                        contrib: Arc::new(p.contrib.union(&e.contrib)),
                        ..e
                    })
                    .collect();
                merged.extend(gaps.into_iter().map(|g| p.clip(g)));
                reference_splice(runs, p.span, merged, inside);
            }
        }
    }

    #[test]
    fn range_splices_match_the_resorting_reference() {
        let mut inside = 0;
        for seed in 0..500 {
            let schedule = random_schedule(seed);
            let hdr = schedule.header();
            let summary = verify_full(&schedule);
            let mut want: Vec<Vec<Run>> = DataflowState::new(&hdr)
                .state
                .iter()
                .map(|runs| runs.to_vec())
                .collect();
            for (si, record) in summary.records.iter().enumerate() {
                reference_step(&mut want, &hdr, schedule.step(0, si), &mut inside);
                // Every list the verifier checkpointed after this step.
                let post = record
                    .post
                    .as_ref()
                    .expect("a full proof checkpoints every step");
                for (node, runs) in post.dataflow.state.iter().enumerate() {
                    assert_eq!(**runs, want[node], "seed {seed} step {si} node {node}");
                    assert_eq!(
                        runs.capacity(),
                        runs.len(),
                        "seed {seed} step {si} node {node}: checkpoint has slack"
                    );
                }
            }
        }
        assert!(
            inside >= 20,
            "only {inside} empty spans landed inside a run"
        );
    }
}
