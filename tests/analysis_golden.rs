//! Golden tests for the static analyzer's diagnostics: hand-broken
//! schedules must produce *stable* codes (and, for the pinned cases,
//! stable messages). These pins make diagnostic codes a public contract
//! — tooling may match on `P1xx`/`P3xx` strings across releases, so a
//! change that breaks one of these tests is a breaking change.

use pim_arch::geometry::{DpuId, PimGeometry};
use pim_sim::SimTime;
use pimnet_suite::faults::permanent::PermanentFaultSet;
use pimnet_suite::net::analysis::{self, codes, Location, Severity};
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::schedule::{boost, repair, validate, CommSchedule, Span, Transfer};
use pimnet_suite::net::timeline::Timeline;
use pimnet_suite::net::timing::TimingModel;
use pimnet_suite::net::topology::{ChipLoc, Resource};

fn allgather(dpus: u32, elems: usize) -> CommSchedule {
    CommSchedule::build(
        CollectiveKind::AllGather,
        &PimGeometry::paper_scaled(dpus),
        elems,
        4,
    )
    .unwrap()
}

/// Shorthand: analysis errors matching `code`.
fn errors_with<'a>(
    report: &'a analysis::AnalysisReport,
    code: &str,
) -> Vec<&'a analysis::Diagnostic> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.code == code && d.severity == Severity::Error)
        .collect()
}

#[test]
fn uninitialized_read_pins_p101() {
    // 2-DPU AllGather: node 0 contributes [0..4), node 1 [4..8). Widening
    // the first transfer's spans to the whole buffer makes node 0 read
    // [4..8) before anything ever wrote it.
    let mut s = allgather(2, 4);
    let t = &mut s.phases[0].steps[0].transfers[0];
    assert_eq!(t.src, DpuId(0), "builder layout changed; re-pin this test");
    t.src_span = Span::new(0, 8);
    t.dst_span = Span::new(0, 8);
    let report = analysis::run_all(&s);
    let hits = errors_with(&report, codes::UNINIT_READ);
    assert!(!hits.is_empty(), "no P101 in:\n{report}");
    // The full rendering is pinned: code, location, and message text.
    assert_eq!(
        hits[0].to_string(),
        "error[P101] phase 0 step 0 transfer 0 dpu 0: transfer reads \
         uninitialized region [4..8) of node DPU0's buffer"
    );
}

#[test]
fn overlapping_writes_pin_p201() {
    // Duplicate the first delivery with its landing region shifted one
    // element: two concurrent overwrites now collide on the destination.
    let mut s = allgather(2, 4);
    let step = &mut s.phases[0].steps[0];
    let mut dup = step.transfers[0].clone();
    dup.dst_span = Span::new(dup.dst_span.start + 1, dup.dst_span.len);
    step.transfers.push(dup);
    let report = analysis::run_all(&s);
    let hits = errors_with(&report, codes::WRITE_WRITE);
    assert!(!hits.is_empty(), "no P201 in:\n{report}");
    assert_eq!(
        hits[0].to_string(),
        "error[P201] phase 0 step 0 transfer 2 dpu 1: concurrent writes to \
         overlapping regions [0..4) and [1..5) of node 1 (also written by \
         phase 0 step 0 transfer 0)"
    );
}

#[test]
fn dropped_span_is_a_dataflow_error() {
    // Removing one AllGather hop means some node never receives some
    // piece: the dataflow pass must see the hole in the final state
    // without executing anything.
    let mut s = allgather(8, 64);
    'outer: for phase in &mut s.phases {
        for step in &mut phase.steps {
            if let Some(i) = step.transfers.iter().position(|t| !t.is_local()) {
                step.transfers.remove(i);
                break 'outer;
            }
        }
    }
    let report = analysis::run_all(&s);
    assert!(report.has_errors(), "dropped span not flagged:\n{report}");
    // The hole surfaces as missing provenance (a result region that is
    // never written or lacks its contributor), possibly alongside an
    // uninitialized read when a later hop forwards the missing piece.
    assert!(
        !errors_with(&report, codes::RESULT_PROVENANCE).is_empty()
            || !errors_with(&report, codes::UNINIT_READ).is_empty(),
        "expected P101/P106 in:\n{report}"
    );
    // Every error names a concrete location.
    assert!(report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .all(|d| d.location.is_pinpointed()));
}

#[test]
fn partitioned_sync_tree_pins_p301() {
    // A destination outside the geometry can never report READY: the
    // barrier tree is partitioned and the step never completes.
    let mut s = allgather(8, 64);
    s.phases[0].steps[0].transfers[0].dsts[0] = DpuId(13);
    let report = analysis::run_all(&s);
    let hits = errors_with(&report, codes::PARTITIONED_TREE);
    assert!(!hits.is_empty(), "no P301 in:\n{report}");
    assert_eq!(
        hits[0].to_string(),
        "error[P301] phase 0 step 0 transfer 0 dpu 13: transfer references \
         DPU13 outside the geometry's 8 DPUs: the READY/START sync tree is \
         partitioned and the step barrier can never fire"
    );
}

#[test]
fn cyclic_wait_is_p302() {
    // Rewire the 2-node exchange so each transfer overwrites exactly the
    // region its peer still has to read: no serial order exists.
    let mut s = allgather(2, 4);
    let step = &mut s.phases[0].steps[0];
    assert!(step.transfers.len() >= 2, "builder layout changed");
    let span = step.transfers[0].src_span;
    step.transfers[1].src_span = span;
    step.transfers[1].dst_span = span;
    let report = analysis::run_all(&s);
    let hits = errors_with(&report, codes::CYCLIC_WAIT);
    assert!(!hits.is_empty(), "no P302 in:\n{report}");
    assert!(hits[0].message.contains("no serial order"));
    assert!(hits[0].location.is_pinpointed());
}

#[test]
fn structural_codes_are_stable() {
    // One representative per structural rule family, pinned by code.
    let mut s = allgather(2, 4);
    s.phases[0].steps[0].transfers[0].dsts.clear();
    assert!(!errors_with(&analysis::run_all(&s), codes::EMPTY_DSTS).is_empty());

    let mut s = allgather(2, 4);
    let t = &mut s.phases[0].steps[0].transfers[0];
    t.dst_span = Span::new(t.dst_span.start, t.dst_span.len + 1);
    assert!(!errors_with(&analysis::run_all(&s), codes::SPAN_LEN_MISMATCH).is_empty());

    let mut s = allgather(2, 4);
    let len = s.buffer_len;
    let t = &mut s.phases[0].steps[0].transfers[0];
    t.src_span = Span::new(len, 4);
    t.dst_span = Span::new(len, 4);
    assert!(!errors_with(&analysis::run_all(&s), codes::SPAN_OUT_OF_BOUNDS).is_empty());

    let mut s = allgather(2, 4);
    s.phases[0].steps[0].transfers[0].combine = true;
    assert!(!errors_with(&analysis::run_all(&s), codes::COMBINE_IN_NON_REDUCING).is_empty());

    let mut s = allgather(2, 4);
    let src = s.phases[0].steps[0].transfers[0].src;
    s.phases[0].steps[0].transfers[0].dsts = vec![src];
    assert!(!errors_with(&analysis::run_all(&s), codes::FABRIC_SELF_SEND).is_empty());

    let mut s = allgather(2, 4);
    s.result_spans.pop();
    assert!(!errors_with(&analysis::run_all(&s), codes::MALFORMED_RESULT_TABLE).is_empty());
}

#[test]
fn json_report_round_trips_the_pinned_fields() {
    let mut s = allgather(8, 64);
    s.phases[0].steps[0].transfers[0].dsts[0] = DpuId(13);
    let json = analysis::run_all(&s).to_json();
    assert!(json.contains("\"clean\":false"));
    assert!(json.contains("\"code\":\"P301\""));
    assert!(json.contains("\"severity\":\"error\""));
    assert!(json.contains("\"phase\":0"));
    assert!(json.contains("\"dpu\":13"));
}

/// Adds `extra` to the first non-local transfer of `s` that `pick`
/// accepts, returning its `(phase, step, transfer)`.
fn push_resource(
    s: &mut CommSchedule,
    pick: impl Fn(&Transfer) -> bool,
    extra: impl Fn(&Transfer) -> Resource,
) -> (usize, usize, usize) {
    for (pi, phase) in s.phases.iter_mut().enumerate() {
        for (si, step) in phase.steps.iter_mut().enumerate() {
            for (ti, t) in step.transfers.iter_mut().enumerate() {
                if !t.is_local() && pick(t) {
                    let r = extra(t);
                    t.resources.push(r);
                    return (pi, si, ti);
                }
            }
        }
    }
    panic!("no transfer matched");
}

#[test]
fn out_of_geometry_resources_are_p011_and_never_panic() {
    let g = PimGeometry::paper_scaled(64);
    let base = CommSchedule::build(CollectiveKind::AllReduce, &g, 256, 4).unwrap();
    let m = TimingModel::paper();
    let base_total = m.time_schedule(&base, SimTime::ZERO).total();

    // A ring transfer gains a segment leaving bank 99 of its own chip.
    let mut ring = base.clone();
    let at = push_resource(
        &mut ring,
        |t| matches!(t.resources[0], Resource::RingSegment { .. }),
        |t| match t.resources[0] {
            Resource::RingSegment { chip, dir, .. } => Resource::RingSegment {
                chip,
                from_bank: 99,
                dir,
            },
            _ => unreachable!(),
        },
    );
    // A DQ transfer gains the Rx channel of a chip the geometry lacks.
    let mut dq = base.clone();
    push_resource(
        &mut dq,
        |t| {
            t.resources
                .iter()
                .any(|r| matches!(r, Resource::ChipTx { .. }))
        },
        |_| Resource::ChipRx {
            chip: ChipLoc {
                channel: 3,
                rank: 9,
                chip: 40,
            },
        },
    );

    let faults = PermanentFaultSet::parse_tokens("r0c0b1E, r0c1tx").unwrap();
    for (what, s) in [("ring", &ring), ("dq", &dq)] {
        let err = validate::validate(s).expect_err(what);
        assert!(err.to_string().contains("P011"), "{what}: {err}");
        let report = analysis::run_all(s);
        assert!(
            !errors_with(&report, codes::RESOURCE_OUTSIDE_GEOMETRY).is_empty(),
            "{what}: no P011 in:\n{report}"
        );
        // Every pricing and repair layer still answers.
        let b = m.time_schedule(s, SimTime::ZERO);
        assert_eq!(Timeline::build(s, &m).end, b.total() - b.mem, "{what}");
        let _ = boost::plan(s);
        let _ = repair::repair(s, &faults);
    }
    let report = analysis::run_all(&ring);
    let hits = errors_with(&report, codes::RESOURCE_OUTSIDE_GEOMETRY);
    assert_eq!(hits[0].location, Location::at(at.0, at.1, at.2));
    // The phantom segment is its own contention domain: charged, never
    // dropped and never folded into a real segment.
    assert!(m.time_schedule(&ring, SimTime::ZERO).total() > base_total);
}

#[test]
fn bogus_reduce_scatter_span_costs_nothing_past_the_buffer() {
    // A result span 2^40 elements long is P010. The ReduceScatter
    // partition check clips every span to the reduced vector before
    // counting owners, so lint stays instant instead of walking 2^40
    // indices; the span still owns element 0 a second time.
    let g = PimGeometry::paper_scaled(8);
    let mut s = CommSchedule::build(CollectiveKind::ReduceScatter, &g, 64, 4).unwrap();
    s.result_spans[0] = vec![Span::new(0, 1 << 40)];
    let report = analysis::run_all(&s);
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rendered,
        [
            "error[P010] dpu 0: result span [0..1099511627776) beyond buffer (64 elems)",
            "error[P105] schedule: ReduceScatter result pieces do not partition the \
             vector: element 0 is owned 2 time(s)",
        ],
        "{report}"
    );
}
