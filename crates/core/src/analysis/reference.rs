//! The pairwise sync and hazard kernels the per-step access index
//! replaced, kept as test oracles, plus the seeded step generator that
//! drives every differential test of the index-based kernels.
//!
//! The oracles test every ordered pair of transfers (P302) and group a
//! step's accesses in per-node maps (P201/P202). The index kernels must
//! match them exactly: the same must-precede rows and the same
//! diagnostics in the same order. The dataflow pass's scanning `read`
//! and drain-and-resort `splice` are oracles in `dataflow`'s own tests,
//! over the same generated schedules.

use std::collections::BTreeMap;

use pim_arch::geometry::{DpuId, PimGeometry};
use pim_sim::SimRng;

use crate::collective::CollectiveKind;
use crate::schedule::{
    CommSchedule, CommStep, FlatSchedule, Phase, PhaseLabel, ScheduleView, Span, StepRef, Transfer,
};

use super::dataflow::DataflowState;
use super::diagnostics::{Diagnostic, Location};
use super::hazard::{READ_AFTER_WRITE, WRITE_WRITE};
use super::sync::CYCLIC_WAIT;
use super::{lint_step, overlaps, StepScratch};

/// DPUs of the generated schedules' geometry.
const DPUS: u32 = 8;
/// Node ids the generator draws from: the geometry plus two ids outside
/// it.
const NODES: u64 = DPUS as u64 + 2;
/// Steps per generated schedule.
const STEPS: usize = 8;

fn node(rng: &mut SimRng) -> DpuId {
    DpuId(rng.below(NODES) as u32)
}

fn transfer(src: DpuId, dst: DpuId, src_span: Span, dst_span: Span, combine: bool) -> Transfer {
    Transfer {
        src,
        dsts: vec![dst],
        src_span,
        dst_span,
        combine,
        resources: Vec::new(),
    }
}

/// A random transfer: one to three destinations (sometimes one twice),
/// equal spans that are empty about one time in six and may run past the
/// buffer.
fn random_transfer(rng: &mut SimRng, buffer_len: usize) -> Transfer {
    let len = if rng.gen_bool(0.15) {
        0
    } else {
        rng.gen_range(1..=8usize)
    };
    let mut t = transfer(
        node(rng),
        node(rng),
        Span::new(rng.gen_range(0..buffer_len), len),
        Span::new(rng.gen_range(0..buffer_len), len),
        rng.gen_bool(0.35),
    );
    if rng.gen_bool(0.3) {
        t.dsts.push(node(rng));
    }
    if rng.gen_bool(0.15) {
        t.dsts.push(t.dsts[0]);
    }
    t
}

/// A random step: random transfers plus, most of the time, one planted
/// pattern, each transfer placed at a random position.
fn random_step(rng: &mut SimRng, buffer_len: usize) -> CommStep {
    let mut planted = Vec::new();
    let (x, y) = (node(rng), node(rng));
    let span = |rng: &mut SimRng, len: usize| Span::new(rng.gen_range(0..=buffer_len - len), len);
    match rng.below(5) {
        // A cyclic must-precede pair: each overwrites what the other reads.
        0 => {
            let (s, t) = (span(rng, 4), span(rng, 4));
            planted.push(transfer(x, y, s, t, false));
            planted.push(transfer(y, x, t, s, false));
        }
        // One long overwrite over many short readers of the same node.
        1 => {
            let whole = Span::new(0, buffer_len);
            planted.push(transfer(node(rng), x, whole, whole, false));
            for _ in 0..6 {
                let s = span(rng, 1);
                planted.push(transfer(x, node(rng), s, s, false));
            }
        }
        // Overlapping combines into one node.
        2 => {
            let s = span(rng, 4);
            for shift in [0, 1, 0] {
                let t = Span::new(s.start.saturating_sub(shift), s.len);
                planted.push(transfer(node(rng), x, t, t, true));
            }
        }
        // Overlapping overwrites of one node.
        3 => {
            let s = span(rng, 4);
            let t = Span::new(s.start.saturating_sub(1), s.len);
            planted.push(transfer(node(rng), x, s, s, false));
            planted.push(transfer(node(rng), x, t, t, rng.gen_bool(0.5)));
        }
        _ => {}
    }
    let mut transfers: Vec<Transfer> = (0..rng.gen_range(0..10usize))
        .map(|_| random_transfer(rng, buffer_len))
        .collect();
    for t in planted {
        let at = rng.gen_range(0..=transfers.len());
        transfers.insert(at, t);
    }
    CommStep { transfers }
}

/// A seeded random schedule over an 8-DPU geometry: AllReduce or
/// AllGather headers (so buffers start fully or partly initialized), one
/// phase of [`STEPS`] random steps. Steps mix overlapping overwrites and
/// combines, cyclic must-precede pairs, duplicate destinations, nodes
/// outside the geometry, empty spans (often strictly inside a run) and
/// one long writer over many short readers.
pub(super) fn random_schedule(seed: u64) -> CommSchedule {
    let mut rng = SimRng::seed_from_u64(seed);
    let kind = if seed.is_multiple_of(2) {
        CollectiveKind::AllReduce
    } else {
        CollectiveKind::AllGather
    };
    let mut schedule =
        CommSchedule::build(kind, &PimGeometry::paper_scaled(DPUS), 16, 4).expect("builds");
    let buffer_len = schedule.buffer_len;
    schedule.phases = vec![Phase {
        label: PhaseLabel::InterBank,
        steps: (0..STEPS)
            .map(|_| random_step(&mut rng, buffer_len))
            .collect(),
        multiplexed: false,
    }];
    schedule
}

/// Must-precede rows by testing every ordered pair of transfers.
fn pairwise_precede(step: StepRef<'_>) -> Vec<Vec<usize>> {
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); step.len()];
    for (a, ta) in step.transfers().enumerate() {
        for (b, tb) in step.transfers().enumerate() {
            if a == b || tb.combine {
                continue;
            }
            // `tb` overwrites `ta`'s read region on ta's source node.
            if tb.dsts.iter().any(|d| d.0 == ta.src.0) && overlaps(ta.src_span, tb.dst_span) {
                edges[a].push(b);
            }
        }
    }
    edges
}

/// P302 over `edges`: the first back edge of an iterative DFS three-coloring.
fn cyclic_wait(pi: usize, si: usize, edges: &[Vec<usize>], diags: &mut Vec<Diagnostic>) {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; edges.len()];
    for root in 0..edges.len() {
        if color[root] != Color::White {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        color[root] = Color::Grey;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if let Some(&w) = edges[v].get(*next) {
                *next += 1;
                match color[w] {
                    Color::White => {
                        color[w] = Color::Grey;
                        stack.push((w, 0));
                    }
                    Color::Grey => {
                        diags.push(Diagnostic::error(
                            CYCLIC_WAIT,
                            Location::at(pi, si, v),
                            format!(
                                "cyclic wait: transfer {v} must precede transfer {w} \
                                 (it reads what {w} overwrites) but {w} transitively \
                                 precedes {v}; the step admits no serial order"
                            ),
                        ));
                        return;
                    }
                    Color::Black => {}
                }
            } else {
                color[v] = Color::Black;
                stack.pop();
            }
        }
    }
}

/// One buffer access within a step, for the map-based hazard pass.
struct Access {
    span: Span,
    combine: bool,
    loc: Location,
}

/// P201/P202 by grouping the step's accesses in per-node maps and testing
/// every pair on a node.
fn map_hazards(pi: usize, si: usize, step: StepRef<'_>, diags: &mut Vec<Diagnostic>) {
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

#[test]
fn index_kernels_match_the_pairwise_reference() {
    let mut seen = BTreeMap::<&str, usize>::new();
    for seed in 0..500 {
        let schedule = random_schedule(seed);
        let flat = FlatSchedule::from_schedule(&schedule);
        let hdr = schedule.header();
        // Both layouts fold through `lint_step`, like `run_all`.
        let mut nested_fold = (DataflowState::new(&hdr), StepScratch::default());
        let mut flat_fold = (DataflowState::new(&hdr), StepScratch::default());
        for si in 0..STEPS {
            let nested = schedule.step(0, si);
            let rows = pairwise_precede(nested);
            let mut want = Vec::new();
            cyclic_wait(0, si, &rows, &mut want);
            map_hazards(0, si, nested, &mut want);
            for d in &want {
                *seen.entry(d.code).or_default() += 1;
            }
            for (view, (live, scratch)) in [
                (nested, &mut nested_fold),
                (flat.step(0, si), &mut flat_fold),
            ] {
                let mut got = Vec::new();
                lint_step(&hdr, (0, si, false), view, live, scratch, &mut got);
                got.retain(|d| [CYCLIC_WAIT, WRITE_WRITE, READ_AFTER_WRITE].contains(&d.code));
                let got_rows: Vec<Vec<usize>> = (0..view.len())
                    .map(|a| scratch.precede.row(a).iter().map(|&b| b as usize).collect())
                    .collect();
                assert_eq!(got_rows, rows, "seed {seed} step {si}: must-precede rows");
                assert_eq!(got, want, "seed {seed} step {si}: hazard/sync findings");
            }
        }
    }
    // The corpus must exercise every rule the index serves.
    for code in [CYCLIC_WAIT, WRITE_WRITE, READ_AFTER_WRITE] {
        assert!(
            seen.get(code).copied().unwrap_or(0) >= 20,
            "{code}: {seen:?}"
        );
    }
}
