//! Sync/deadlock pass (`P3xx`): the READY/START barrier tree and
//! WAIT-multiplexed phases.
//!
//! PIMnet sequences steps with a hardware READY/START tree: every
//! participant reports READY, the root broadcasts START, and the next
//! step begins. That protocol has two static failure modes this pass
//! detects without executing anything:
//!
//! * **Partitioned tree** (`P301`): a transfer names a DPU outside the
//!   geometry. The sync tree only spans real participants, so the named
//!   endpoint can never report READY and the barrier never fires.
//! * **Cyclic waits** (`P302`): when a step must be serialized on shared
//!   hardware (the repair layer's reader-before-writer split), transfer
//!   `a` must run before transfer `b` whenever `b` overwrites a region
//!   `a` still has to read. A cycle in that must-precede relation admits
//!   no serial order: every interleaving corrupts some payload, and a
//!   WAIT-multiplexed engine that refuses to clobber un-read data stalls
//!   forever.
//! * **Empty barrier** (`P303`, warning): a phase or step with no
//!   transfers still costs a full READY/START round trip for nothing.
//!
//! The must-precede relation is read off the step's
//! [`AccessIndex`](super::AccessIndex): each transfer's overwriters are
//! one range query on its source node, so the relation costs one binary
//! search per transfer plus the overlaps it finds. The relation stays in
//! [`MustPrecede`] for the hazard pass, whose read-after-write rule
//! (P202) is its first edge per node.

use crate::schedule::{ScheduleHeader, StepRef};

use super::diagnostics::{Diagnostic, Location};
use super::AccessIndex;

/// `P301` — a transfer references a DPU outside the geometry; the
/// READY/START sync tree is partitioned.
pub const PARTITIONED_TREE: &str = "P301";
/// `P302` — cyclic must-precede constraints within one step.
pub const CYCLIC_WAIT: &str = "P302";
/// `P303` — an empty phase or step (a barrier with no work).
pub const EMPTY_BARRIER: &str = "P303";

/// `P303` for phase `pi` when it has no steps. The phase boundary is the
/// one place both drivers see an empty phase, which no step visits.
pub(super) fn check_phase(pi: usize, steps: usize, diags: &mut Vec<Diagnostic>) {
    if steps == 0 {
        diags.push(Diagnostic::warning(
            EMPTY_BARRIER,
            Location::phase(pi),
            "phase has no steps: a barrier with no work".into(),
        ));
    }
}

/// Sync checks for one step at `(pi, si)`, whose access index is
/// `index`; step-local by construction, so every driver calls it
/// verbatim. Leaves the step's must-precede relation in `precede`.
pub(super) fn check_step(
    hdr: &ScheduleHeader<'_>,
    pi: usize,
    si: usize,
    step: StepRef<'_>,
    index: &AccessIndex,
    precede: &mut MustPrecede,
    diags: &mut Vec<Diagnostic>,
) {
    if step.is_empty() {
        diags.push(Diagnostic::warning(
            EMPTY_BARRIER,
            Location::step(pi, si),
            "step has no transfers: a barrier with no work".into(),
        ));
    }
    check_endpoints(hdr, pi, si, step, diags);
    check_serialization(pi, si, index, precede, diags);
}

/// `P301` for every transfer endpoint outside the geometry. Besides the
/// sync pass, [`crate::schedule::validate`] runs this rule: every other
/// structural rule looks coordinates up, which needs ids in range.
pub(crate) fn check_endpoints(
    hdr: &ScheduleHeader<'_>,
    pi: usize,
    si: usize,
    step: StepRef<'_>,
    diags: &mut Vec<Diagnostic>,
) {
    let total = hdr.geometry.total_dpus();
    for (ti, t) in step.transfers().enumerate() {
        let loc = Location::at(pi, si, ti);
        for id in std::iter::once(t.src).chain(t.dsts.iter().copied()) {
            if id.0 >= total {
                diags.push(Diagnostic::error(
                    PARTITIONED_TREE,
                    loc.on(id.0),
                    format!(
                        "transfer references {id} outside the geometry's {total} \
                         DPUs: the READY/START sync tree is partitioned and the \
                         step barrier can never fire"
                    ),
                ));
            }
        }
    }
}

/// The must-precede relation of one step, in compressed rows: transfer
/// `a` must run before every transfer in `row(a)`, ascending, because
/// each of them overwrites a region `a` still has to read on `a`'s source
/// node. P302 looks for a cycle in it, and P202 reports its first edge
/// per node. Owned by the step fold, so the rows' buffers are reused
/// across steps.
#[derive(Debug, Default)]
pub(super) struct MustPrecede {
    /// Row `a` is `succ[offsets[a]..offsets[a + 1]]`.
    offsets: Vec<usize>,
    succ: Vec<u32>,
}

impl MustPrecede {
    /// Rebuilds the relation from `index`: each reader's overwriters come
    /// from one range query on its source node.
    fn build(&mut self, index: &AccessIndex) {
        self.offsets.clear();
        self.succ.clear();
        self.offsets.push(0);
        for (a, t) in index.transfers().iter().enumerate() {
            let row = self.succ.len();
            if let Some(node) = index.node(t.src) {
                self.succ.extend(
                    index
                        .overwrites(node, t.src_span)
                        .map(|w| w.transfer)
                        .filter(|&b| b as usize != a),
                );
                self.succ[row..].sort_unstable();
            }
            self.offsets.push(self.succ.len());
        }
    }

    /// The transfers `a` must precede, ascending.
    pub(super) fn row(&self, a: usize) -> &[u32] {
        &self.succ[self.offsets[a]..self.offsets[a + 1]]
    }

    /// True when no transfer must precede another.
    pub(super) fn is_empty(&self) -> bool {
        self.succ.is_empty()
    }

    /// The first edge `(v, w)` that closes a cycle, by an iterative DFS
    /// three-coloring from each transfer in order, following each row in
    /// order.
    fn find_cycle(&self) -> Option<(usize, usize)> {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let count = self.offsets.len() - 1;
        let mut color = vec![Color::White; count];
        for root in 0..count {
            if color[root] != Color::White {
                continue;
            }
            let mut stack = vec![(root, 0usize)];
            color[root] = Color::Grey;
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                if let Some(&w) = self.row(v).get(*next) {
                    *next += 1;
                    let w = w as usize;
                    match color[w] {
                        Color::White => {
                            color[w] = Color::Grey;
                            stack.push((w, 0));
                        }
                        Color::Grey => return Some((v, w)),
                        Color::Black => {}
                    }
                } else {
                    color[v] = Color::Black;
                    stack.pop();
                }
            }
        }
        None
    }
}

/// Builds the must-precede relation of one step (transfer `a` before `b`
/// iff `b` overwrites a region `a` reads on the same node) into
/// `precede` and reports a cycle if one exists.
fn check_serialization(
    pi: usize,
    si: usize,
    index: &AccessIndex,
    precede: &mut MustPrecede,
    diags: &mut Vec<Diagnostic>,
) {
    precede.build(index);
    if precede.is_empty() {
        return;
    }
    if let Some((v, w)) = precede.find_cycle() {
        diags.push(Diagnostic::error(
            CYCLIC_WAIT,
            Location::at(pi, si, v),
            format!(
                "cyclic wait: transfer {v} must precede transfer {w} \
                 (it reads what {w} overwrites) but {w} transitively \
                 precedes {v}; the step admits no serial order"
            ),
        ));
    }
}
