//! Hazard/race pass (`P2xx`): intra-step conflicts on overlapping spans.
//!
//! Transfers inside one [`crate::schedule::CommStep`] are concurrent. The
//! executor gives the step snapshot semantics (payloads are read before
//! any delivery lands), but real DPUs have no such global barrier per
//! word, so a schedule is only race-free when concurrent accesses to one
//! node's buffer never conflict:
//!
//! * **Write-write** (`P201`): two deliveries into overlapping regions of
//!   one node, where at least one *overwrites*. The landing order is
//!   unspecified, so the result is too. Two *combining* deliveries are
//!   fine — reductions commute.
//! * **Read-after-write** (`P202`): one transfer reads a region that a
//!   concurrent transfer overwrites on the same node. Whether the reader
//!   saw the old or new payload depends on timing. A concurrent
//!   *combining* writer is exempt: this is exactly the pattern AllReduce
//!   uses to merge per-rank broadcast steps, and the repair layer's
//!   reader-before-writer serialization preserves it.
//!
//! This generalizes `schedule::repair`'s reader-before-writer rule from a
//! scheduling heuristic into a checked property.
//!
//! Both rules read the step's [`AccessIndex`] (deliveries sorted by node,
//! then span start). P202's (reader, overwriter) pairs are exactly the
//! sync pass's must-precede edges, so P202 reports each node's first
//! reader with a non-empty row and that row's first overwriter. P201 asks
//! the same index which overwrites overlap each delivery, and keeps per
//! node the first pair in transfer order.

use super::diagnostics::{Diagnostic, Location};
use super::sync::MustPrecede;
use super::{AccessIndex, NodeWrites};

/// `P201` — overlapping concurrent writes where at least one overwrites.
pub const WRITE_WRITE: &str = "P201";
/// `P202` — a read overlapping a concurrent overwrite on the same node.
pub const READ_AFTER_WRITE: &str = "P202";

/// Hazard checks for one step at `(pi, si)`, over its access index and
/// must-precede relation; step-local by construction, so every driver
/// calls it verbatim. Findings come per node ascending, P201 before P202.
pub(super) fn check_step(
    pi: usize,
    si: usize,
    index: &AccessIndex,
    precede: &MustPrecede,
    diags: &mut Vec<Diagnostic>,
) {
    // Each node's first reader with a must-precede edge, by node. Only a
    // step with edges allocates.
    let mut first_readers: Vec<(u32, usize)> = Vec::new();
    if !precede.is_empty() {
        first_readers.extend(
            index
                .transfers()
                .iter()
                .enumerate()
                .filter(|&(a, _)| !precede.row(a).is_empty())
                .map(|(a, t)| (t.src, a)),
        );
        first_readers.sort_unstable();
        first_readers.dedup_by_key(|&mut (node, _)| node);
    }
    let mut first_readers = first_readers.into_iter().peekable();
    for node in index.nodes() {
        if let Some((a, b)) = first_write_pair(index, node) {
            let (ta, tb) = (index.transfers()[a], index.transfers()[b]);
            let n = node.node;
            diags.push(Diagnostic::error(
                WRITE_WRITE,
                Location::at(pi, si, b).on(n),
                format!(
                    "concurrent writes to overlapping regions {} and {} \
                     of node {n} (also written by {})",
                    ta.dst_span,
                    tb.dst_span,
                    Location::at(pi, si, a)
                ),
            ));
        }
        if let Some((n, a)) = first_readers.next_if(|&(n, _)| n == node.node) {
            let b = precede.row(a)[0] as usize;
            let (ta, tb) = (index.transfers()[a], index.transfers()[b]);
            diags.push(Diagnostic::error(
                READ_AFTER_WRITE,
                Location::at(pi, si, a).on(n),
                format!(
                    "transfer reads {} of node {n} while {} \
                     concurrently overwrites {}",
                    ta.src_span,
                    Location::at(pi, si, b),
                    tb.dst_span
                ),
            ));
        }
    }
}

/// The first `(a, b)` in transfer order, `a < b`, such that `a` and `b`
/// write overlapping spans of `node` and at least one overwrites. Every
/// such pair holds an overwrite, so it is found by asking which
/// overwrites overlap each of the node's deliveries.
fn first_write_pair(index: &AccessIndex, node: &NodeWrites) -> Option<(usize, usize)> {
    let mut first: Option<(u32, u32)> = None;
    for x in index.writes(node) {
        for w in index.overwrites(node, x.span) {
            if w.transfer != x.transfer {
                let pair = (x.transfer.min(w.transfer), x.transfer.max(w.transfer));
                first = Some(first.map_or(pair, |f| f.min(pair)));
            }
        }
    }
    first.map(|(a, b)| (a as usize, b as usize))
}
