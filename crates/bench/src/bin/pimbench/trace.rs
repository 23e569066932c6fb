//! Host-time spans recorded around the benchmark's calls into each layer,
//! kept in memory, and the per-layer accounting derived from them.
//!
//! A span's parent is the innermost span open when it started, except for
//! replayed steps: after an op, the traced run re-runs the steps an outer
//! call (the tuner, the serving engine, the degradation planner) made
//! internally, and records them as children of that outer span even though
//! they run after it closed. Self time is duration minus the union of the
//! children's intervals, so an outer span's self time is what its replayed
//! children do not account for.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the span in recording order.
    pub id: usize,
    /// The causing span, if any.
    pub parent: Option<usize>,
    /// Layer name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while enabled; a disabled tracer only runs the closure.
pub struct Tracer {
    epoch: Instant,
    enabled: Cell<bool>,
    op: Cell<u64>,
    stack: RefCell<Vec<usize>>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled: Cell::new(enabled),
            op: Cell::new(0),
            stack: RefCell::new(Vec::new()),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Tags the spans recorded from now on with op id `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                op: self.op.get(),
                id,
                parent: self.stack.borrow().last().copied(),
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        out
    }

    /// Runs `f` with the latest span named `outer` of the current op as the
    /// parent of every span `f` records. Without such a span (tracing off,
    /// or the outer call never ran) `f` does not run.
    pub fn replay(&self, outer: &'static str, f: impl FnOnce()) {
        if !self.enabled.get() {
            return;
        }
        let op = self.op.get();
        let parent = self
            .spans
            .borrow()
            .iter()
            .rev()
            .take_while(|s| s.op == op)
            .find(|s| s.name == outer)
            .map(|s| s.id);
        let Some(parent) = parent else {
            return;
        };
        self.stack.borrow_mut().push(parent);
        f();
        self.stack.borrow_mut().pop();
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }
}

/// Total length of the union of `[start, end)` intervals.
fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time of every span (indexed like `spans`): its duration minus the
/// union of its children's intervals, floored at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.duration_ns().saturating_sub(union_len(c)))
        .collect()
}

/// What one layer did over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStat {
    pub calls: u64,
    /// Summed self time.
    pub self_ns: u64,
    /// Every call's full duration, for the per-call median.
    pub durations_ns: Vec<u64>,
}

/// Folds spans into per-layer totals.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerStat> {
    let mut out: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let l = out.entry(s.name).or_default();
        l.calls += 1;
        l.self_ns += self_ns;
        l.durations_ns.push(s.duration_ns());
    }
    out
}

/// The spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"op\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, parent, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        // Root [0,100) with overlapping children [10,40) and [30,50) and a
        // disjoint child [60,70): coverage is 40 + 10, so self is 50.
        // Child [10,40) has a grandchild [15,25): self 20.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            span(3, Some(0), 60, 70),
            span(4, Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10, 10]);
    }

    #[test]
    fn replayed_children_count_against_their_outer_span() {
        // A replay runs after the outer span closed: its children lie
        // outside the outer interval but still cover its work.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 200, 260),
            span(2, Some(0), 260, 290),
        ];
        assert_eq!(self_times(&spans)[0], 10);
        // Children longer than the outer call floor its self time at zero.
        let spans = vec![span(0, None, 0, 10), span(1, Some(0), 20, 50)];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_and_replays_under_the_outer_span() {
        let t = Tracer::new(true);
        t.set_op(7);
        t.span("outer", || t.span("inner", || ()));
        t.replay("outer", || t.span("replayed", || ()));
        let spans = t.spans().clone();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));

        let off = Tracer::new(false);
        assert_eq!(off.span("outer", || 5), 5);
        off.replay("outer", || panic!("replays never run untraced"));
        assert!(off.spans().is_empty());
    }
}
