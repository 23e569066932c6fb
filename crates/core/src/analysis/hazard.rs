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

use std::collections::BTreeMap;

use crate::schedule::{Span, StepRef};

use super::diagnostics::{Diagnostic, Location};

/// `P201` — overlapping concurrent writes where at least one overwrites.
pub const WRITE_WRITE: &str = "P201";
/// `P202` — a read overlapping a concurrent overwrite on the same node.
pub const READ_AFTER_WRITE: &str = "P202";

/// One buffer access within a step, for conflict checking.
struct Access {
    span: Span,
    combine: bool,
    loc: Location,
}

fn overlaps(a: Span, b: Span) -> bool {
    a.start < b.end() && b.start < a.end()
}

/// Hazard checks for one step at `(pi, si)`; step-local by construction,
/// so every driver calls it verbatim. BTreeMap keeps the per-node
/// emission order independent of hash state.
pub(super) fn check_step(pi: usize, si: usize, step: StepRef<'_>, diags: &mut Vec<Diagnostic>) {
    let mut writes: BTreeMap<u32, Vec<Access>> = BTreeMap::new();
    let mut reads: BTreeMap<u32, Vec<Access>> = BTreeMap::new();
    for (ti, t) in step.transfers().enumerate() {
        let loc = Location::at(pi, si, ti);
        reads.entry(t.src.0).or_default().push(Access {
            span: t.src_span,
            combine: false,
            loc,
        });
        for &d in t.dsts {
            writes.entry(d.0).or_default().push(Access {
                span: t.dst_span,
                combine: t.combine,
                loc,
            });
        }
    }
    for (&node, ws) in &writes {
        // Write-write: any overlapping pair with an overwrite.
        'ww: for (i, a) in ws.iter().enumerate() {
            for b in &ws[i + 1..] {
                if overlaps(a.span, b.span) && !(a.combine && b.combine) && a.loc != b.loc {
                    diags.push(Diagnostic::error(
                        WRITE_WRITE,
                        b.loc.on(node),
                        format!(
                            "concurrent writes to overlapping regions {} and {} \
                             of node {node} (also written by {})",
                            a.span, b.span, a.loc
                        ),
                    ));
                    break 'ww;
                }
            }
        }
        // Read-after-write: a concurrent overwrite under a reader.
        if let Some(rs) = reads.get(&node) {
            'raw: for r in rs {
                for w in ws {
                    if !w.combine && overlaps(r.span, w.span) && r.loc != w.loc {
                        diags.push(Diagnostic::error(
                            READ_AFTER_WRITE,
                            r.loc.on(node),
                            format!(
                                "transfer reads {} of node {node} while {} \
                                 concurrently overwrites {}",
                                r.span, w.loc, w.span
                            ),
                        ));
                        break 'raw;
                    }
                }
            }
        }
    }
}
