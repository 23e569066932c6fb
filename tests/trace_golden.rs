//! Pinned golden traces for every collective path.
//!
//! The observability contract (`pim_sim::trace`): a probed run is a pure
//! function of the simulated inputs, so the structured-event trace of one
//! small preset per collective kind can be pinned **byte-for-byte**:
//!
//! 1. the trace CSV equals the committed golden file under
//!    `tests/golden_traces/` (regenerate with `PIMNET_UPDATE_GOLDEN=1`);
//! 2. the trace is byte-identical whether the per-kind captures fan out
//!    over 1, 2 or 8 workers;
//! 3. the trace is byte-identical between a cold-cache and a warm-cache
//!    run — only the `cache` event group (hit/miss bookkeeping, which
//!    legitimately differs between the two) is excluded from comparison.

use std::fs;
use std::path::PathBuf;

use pimnet_suite::arch::geometry::{DpuId, PimGeometry};
use pimnet_suite::faults::permanent::PermanentFaultSet;
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::exec::{ExecMachine, ReduceOp};
use pimnet_suite::net::schedule::autotune::TunedChoice;
use pimnet_suite::net::schedule::cache::{self, Algo, Proof, ScheduleRequest};
use pimnet_suite::net::schedule::repair::RepairedSchedule;
use pimnet_suite::net::schedule::{BoostPlan, CommSchedule, Composition};
use pimnet_suite::net::serve::{serve_probed, ServeConfig};
use pimnet_suite::net::timeline::Timeline;
use pimnet_suite::net::timing::TimingModel;
use pimnet_suite::sim::trace::{code_group, code_name, codes, group};
use pimnet_suite::sim::{par, MetricsReport, Probe, Trace};

/// The small preset each golden trace captures: one collective over 8
/// DPUs, 64 elements per node, 4-byte elements.
const DPUS: u32 = 8;
const ELEMS: usize = 64;

/// Every collective path with its golden-file stem.
const KINDS: [(CollectiveKind, &str); 5] = [
    (CollectiveKind::AllReduce, "allreduce"),
    (CollectiveKind::ReduceScatter, "reducescatter"),
    (CollectiveKind::AllGather, "allgather"),
    (CollectiveKind::Broadcast, "broadcast"),
    (CollectiveKind::AllToAll, "alltoall"),
];

/// Drives the full observed pipeline for one kind — cached schedule
/// build, probed timing construction, probed functional execution — and
/// returns the trace plus the metrics snapshot. Mirrors what the CLI's
/// `pimnet trace` subcommand records per collective.
fn capture(kind: CollectiveKind, elems: usize) -> (Trace, MetricsReport) {
    let probe = Probe::enabled();
    let g = PimGeometry::paper_scaled(DPUS);
    let req = ScheduleRequest::new(kind, &g, elems, 4);
    let s = cache::get::<CommSchedule>(&req, &probe).expect("schedule build");
    let _timeline = Timeline::build_probed(&s, &TimingModel::paper(), &probe);
    let mut m = ExecMachine::init(&s, |id: DpuId| vec![u64::from(id.0) + 1; elems]);
    m.run_probed(&s, ReduceOp::Sum, &probe);
    (probe.trace.drain(), probe.metrics.snapshot())
}

/// The comparable CSV of one kind's capture: cache hit/miss events are
/// filtered out (they differ between cold and warm runs by design; the
/// trace module documents this as the one non-pinned group).
fn golden_csv(kind: CollectiveKind) -> String {
    let (trace, _) = capture(kind, ELEMS);
    assert_eq!(
        trace.dropped, 0,
        "{kind}: golden preset overflowed the ring"
    );
    trace.without_group(group::CACHE).to_csv()
}

fn golden_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden_traces")
        .join(format!("{stem}.csv"))
}

#[test]
fn traces_match_the_committed_goldens() {
    let update = std::env::var_os("PIMNET_UPDATE_GOLDEN").is_some();
    for (kind, stem) in KINDS {
        let csv = golden_csv(kind);
        let path = golden_path(stem);
        if update {
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, &csv).unwrap();
            continue;
        }
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\nrun `PIMNET_UPDATE_GOLDEN=1 cargo test --test trace_golden` \
                 to (re)generate the golden traces",
                path.display()
            )
        });
        assert_eq!(
            csv,
            golden,
            "{kind}: trace diverged from {} — if the change is intended, \
             regenerate with PIMNET_UPDATE_GOLDEN=1",
            path.display()
        );
    }
}

#[test]
fn traces_are_byte_identical_across_worker_counts() {
    let run = |workers: usize| -> Vec<String> {
        par::map_ordered_with(workers, KINDS.to_vec(), |(kind, _)| golden_csv(kind))
    };
    let reference = run(1);
    for workers in [2usize, 8] {
        assert_eq!(
            run(workers),
            reference,
            "traces diverged between 1 and {workers} workers"
        );
    }
}

#[test]
fn traces_are_byte_identical_between_cold_and_warm_cache_runs() {
    // A payload size no other test in this binary uses, so the first
    // capture is the one that populates the process-global schedule cache
    // and the second is guaranteed to hit it.
    const WARM_ELEMS: usize = 80;
    for (kind, _) in KINDS {
        let (cold_trace, cold_metrics) = capture(kind, WARM_ELEMS);
        let (warm_trace, warm_metrics) = capture(kind, WARM_ELEMS);
        assert_eq!(
            cold_trace.without_group(group::CACHE).to_csv(),
            warm_trace.without_group(group::CACHE).to_csv(),
            "{kind}: cache warmth leaked into the trace"
        );
        assert!(
            warm_trace.count(codes::CACHE_HIT) >= 1,
            "{kind}: warm run recorded no cache hit"
        );
        assert_eq!(
            warm_metrics.cache_misses, 0,
            "{kind}: warm run rebuilt a cached schedule"
        );
        assert!(
            cold_metrics.cache_hits + cold_metrics.cache_misses >= 1,
            "{kind}: cold run recorded no cache traffic"
        );
    }
}

/// Drives one fixed sequence of schedule-cache lookups through an enabled
/// probe: a paper build, its boost plan, a repair at health epochs 0 and
/// 1 and its delta proof, a composed proof, a tune, and a short serving
/// window with one autotuned tenant. Every payload size here is unused by
/// the other tests in this binary, so each lookup's hit or miss is decided
/// by this sequence alone.
fn cache_stream(probe: &Probe) {
    let g = PimGeometry::paper_scaled(DPUS);
    let kind = CollectiveKind::AllReduce;
    let faults = PermanentFaultSet::parse_tokens("r0c0b2E").expect("fault token");
    let comp = Composition::parse("direct_ring_ring").expect("composition spec");
    let paper = ScheduleRequest::new(kind, &g, 88, 4);
    cache::get::<CommSchedule>(&paper, probe).expect("paper build");
    cache::get::<BoostPlan>(&paper, probe).expect("boost plan");
    for epoch in [0, 1] {
        let req = ScheduleRequest {
            faults: Some(&faults),
            epoch,
            ..paper
        };
        cache::get::<RepairedSchedule>(&req, probe).expect("repair");
    }
    let req = ScheduleRequest {
        faults: Some(&faults),
        epoch: 1,
        ..paper
    };
    cache::get::<Proof>(&req, probe).expect("repair proof");
    let req = ScheduleRequest {
        elems_per_node: 96,
        algo: Algo::Composed(comp, 1),
        ..paper
    };
    cache::get::<Proof>(&req, probe).expect("composed proof");
    let req = ScheduleRequest {
        elems_per_node: 104,
        algo: Algo::Tuned,
        ..paper
    };
    cache::get::<TunedChoice>(&req, probe).expect("tune");

    let mut cfg = ServeConfig::uniform(1, 7);
    cfg.horizon_ps = 300_000_000;
    cfg.chunk_elems = 48;
    let t = &mut cfg.tenants[0];
    t.geometry = g;
    t.elems_per_node = 112;
    t.autotune = true;
    serve_probed(&cfg, probe).expect("serve window");
}

/// The cache- and lint-group events of [`cache_stream`], one
/// `name,a0,a1,a2,a3` line each, in emission order.
const CACHE_STREAM: &str = "\
cache-miss,2,8,88,4
cache-miss,2,8,88,4
cache-hit,2,8,88,4
cache-miss,2,8,88,4
cache-hit,2,8,88,4
cache-miss,2,8,88,4
cache-miss,2,8,88,4
lint-delta,2,8,0,28
lint-full,2,8,2,0
cache-miss,2,8,104,4
cache-miss,2,8,104,4
lint-full,2,8,14,0
cache-hit,2,8,104,4
lint-full,2,8,2,0
cache-hit,2,8,104,4
lint-full,2,8,6,0
cache-hit,2,8,104,4
lint-full,2,8,6,0
cache-hit,2,8,104,4
lint-full,2,8,28,0
cache-hit,2,8,104,4
lint-full,2,8,4,0
cache-hit,2,8,104,4
lint-full,2,8,12,0
cache-hit,2,8,104,4
lint-full,2,8,12,0
cache-hit,2,8,104,4
lint-full,2,8,14,0
cache-miss,2,8,48,4
cache-hit,2,8,48,4
lint-full,2,8,14,0
cache-hit,2,8,48,4
lint-full,2,8,2,0
cache-hit,2,8,48,4
lint-full,2,8,6,0
cache-hit,2,8,48,4
lint-full,2,8,6,0
cache-hit,2,8,48,4
lint-full,2,8,28,0
cache-hit,2,8,48,4
lint-full,2,8,4,0
cache-hit,2,8,48,4
lint-full,2,8,12,0
cache-hit,2,8,48,4
lint-full,2,8,12,0
cache-hit,2,8,48,4
lint-full,2,8,14,0
cache-miss,2,8,16,4
cache-hit,2,8,16,4
lint-full,2,8,14,0
cache-hit,2,8,16,4
lint-full,2,8,2,0
cache-hit,2,8,16,4
lint-full,2,8,6,0
cache-hit,2,8,16,4
lint-full,2,8,6,0
cache-hit,2,8,16,4
lint-full,2,8,28,0
cache-hit,2,8,16,4
lint-full,2,8,4,0
cache-hit,2,8,16,4
lint-full,2,8,12,0
cache-hit,2,8,16,4
lint-full,2,8,12,0
cache-hit,2,8,16,4
lint-full,2,8,14,0
cache-hit,2,8,48,4
lint-full,2,8,14,0
cache-hit,2,8,16,4
";

#[test]
fn cache_event_stream_is_pinned() {
    let probe = Probe::enabled();
    cache_stream(&probe);
    let trace = probe.trace.drain();
    assert_eq!(trace.dropped, 0, "cache stream overflowed the ring");
    let lines: String = trace
        .events
        .iter()
        .filter(|e| matches!(code_group(e.code), group::CACHE | group::LINT))
        .map(|e| {
            let [a0, a1, a2, a3] = e.args;
            format!("{},{a0},{a1},{a2},{a3}\n", code_name(e.code))
        })
        .collect();
    assert_eq!(lines, CACHE_STREAM, "cache/lint event stream drifted");
    let m = probe.metrics.snapshot();
    assert_eq!(
        (m.cache_hits, m.cache_misses),
        (30, 9),
        "hit/miss counts drifted"
    );
}

#[test]
fn golden_traces_cover_every_probed_subsystem() {
    for (kind, _) in KINDS {
        let (trace, metrics) = capture(kind, ELEMS);
        assert!(trace.count(codes::BARRIER) >= 1, "{kind}: no barrier event");
        assert!(
            trace.count(codes::TRANSFER) >= 1,
            "{kind}: no timeline transfer span"
        );
        assert!(
            trace.count(codes::EXEC_STEP) >= 1,
            "{kind}: no executor step event"
        );
        assert!(metrics.exec_steps >= 1, "{kind}: no executor metrics");
        // Fingerprints are stable per kind (same capture, same digest) so
        // the CLI can print them for quick same-seed comparisons.
        let (again, _) = capture(kind, ELEMS);
        assert_eq!(
            trace.without_group(group::CACHE).fingerprint(),
            again.without_group(group::CACHE).fingerprint(),
            "{kind}: fingerprint unstable across identical captures"
        );
    }
}
