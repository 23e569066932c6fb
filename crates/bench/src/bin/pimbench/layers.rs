//! The benchmark's only door into the simulator: one function per layer,
//! each wrapped in a host-time span named after the layer, plus the
//! untimed helpers the checks and replays need. When a simulator API is
//! renamed, this is the file to update.

use std::sync::Arc;

use pim_arch::geometry::{DpuId, PimGeometry};
use pim_arch::SystemConfig;
use pim_faults::{FaultConfig, PermanentFaultRates, PermanentFaultSet};
use pimnet::analysis::{self, AnalysisSummary};
use pimnet::exec::ReduceOp;
use pimnet::schedule::autotune;
use pimnet::schedule::repair::{self, RepairedSchedule};
use pimnet::schedule::{algos, boost, cache, validate, ScheduleView};
use pimnet::timeline::Timeline;
use pimnet::timing::TimingModel;

use crate::reference::Shape;
use crate::trace::Tracer;

pub use pim_faults::FaultInjector;
pub use pim_sim::SimTime;
pub use pimnet::analysis::DeltaStats;
pub use pimnet::exec::ExecMachine;
pub use pimnet::resilience::DegradedPlan;
pub use pimnet::schedule::autotune::TunedChoice;
pub use pimnet::schedule::{CommSchedule, FlatSchedule};
pub use pimnet::serve::{RequestOutcome, ServeConfig, ServeReport};
pub use pimnet::{CollectiveKind, PimnetError};

pub const SCHEDULE_BUILD: &str = "schedule.build";
pub const SCHEDULE_FLATTEN: &str = "schedule.flatten";
pub const SCHEDULE_VALIDATE: &str = "schedule.validate";
pub const SCHEDULE_ALGOS: &str = "schedule.algos";
pub const SCHEDULE_BOOST: &str = "schedule.boost";
pub const SCHEDULE_REPAIR: &str = "schedule.repair";
pub const CACHE_LOOKUP: &str = "schedule.cache.lookup";
pub const ANALYSIS_BATCH: &str = "analysis.batch";
pub const ANALYSIS_VERIFY: &str = "analysis.verify";
pub const ANALYSIS_DELTA: &str = "analysis.delta";
pub const TIMELINE: &str = "timeline";
pub const TIMING: &str = "timing";
pub const EXEC_CLEAN: &str = "exec.clean";
pub const EXEC_FAULTY: &str = "exec.faulty";
pub const AUTOTUNE_TUNE: &str = "autotune.tune";
pub const SERVE_WINDOW: &str = "serve.window";
pub const RESILIENCE_PLAN: &str = "resilience.plan";

/// Layers called directly by an op.
pub const INNER_LAYERS: [&str; 14] = [
    SCHEDULE_BUILD,
    SCHEDULE_FLATTEN,
    SCHEDULE_VALIDATE,
    SCHEDULE_ALGOS,
    SCHEDULE_BOOST,
    SCHEDULE_REPAIR,
    CACHE_LOOKUP,
    ANALYSIS_BATCH,
    ANALYSIS_VERIFY,
    ANALYSIS_DELTA,
    TIMELINE,
    TIMING,
    EXEC_CLEAN,
    EXEC_FAULTY,
];

/// Layers whose inner steps are only reachable by replay: their self
/// time is the part the replayed children do not account for.
pub const OUTER_LAYERS: [&str; 3] = [AUTOTUNE_TUNE, SERVE_WINDOW, RESILIENCE_PLAN];

/// Element width of every benchmark collective.
const ELEM_BYTES: u32 = 4;

/// Node- and element-dependent payload: a wrong contributor or a wrong
/// element mapping changes bits.
pub fn payload(node: u32, elem: usize) -> u64 {
    u64::from(node) * 100_003 + elem as u64 * 7 + 1
}

fn geometry(dpus: u32) -> PimGeometry {
    PimGeometry::paper_scaled(dpus)
}

// ---------------------------------------------------------------------
// Timed layer calls
// ---------------------------------------------------------------------

pub fn build(
    t: &Tracer,
    kind: CollectiveKind,
    dpus: u32,
    elems: usize,
) -> Result<CommSchedule, PimnetError> {
    let g = geometry(dpus);
    t.span(SCHEDULE_BUILD, || {
        CommSchedule::build(kind, &g, elems, ELEM_BYTES)
    })
}

pub fn flatten(t: &Tracer, s: &CommSchedule) -> FlatSchedule {
    t.span(SCHEDULE_FLATTEN, || FlatSchedule::from_schedule(s))
}

pub fn validate(t: &Tracer, s: &CommSchedule) -> Result<(), PimnetError> {
    t.span(SCHEDULE_VALIDATE, || validate::validate(s).map(|_| ()))
}

/// Batch analysis of the flat layout; `true` when it finds nothing.
pub fn analyze_batch(t: &Tracer, flat: &FlatSchedule) -> bool {
    t.span(ANALYSIS_BATCH, || analysis::run_all(flat).is_clean())
}

pub fn verify_full(t: &Tracer, s: Arc<CommSchedule>) -> AnalysisSummary {
    t.span(ANALYSIS_VERIFY, || analysis::verify_full_arc(s))
}

pub fn reverify_repair(
    t: &Tracer,
    base: &AnalysisSummary,
    repaired: &RepairedSchedule,
) -> DeltaStats {
    t.span(ANALYSIS_DELTA, || {
        analysis::reverify_repair(base, repaired).1
    })
}

/// Boost-mode price: plan the thin slice, then reconstruct the total.
pub fn boost_total(t: &Tracer, s: &CommSchedule) -> SimTime {
    let timing = TimingModel::paper();
    t.span(SCHEDULE_BOOST, || {
        boost::plan(s).breakdown(&timing, SimTime::ZERO).total()
    })
}

pub fn timeline_end(t: &Tracer, flat: &FlatSchedule) -> SimTime {
    let timing = TimingModel::paper();
    t.span(TIMELINE, || Timeline::build(flat, &timing).end)
}

pub fn timing_total(t: &Tracer, flat: &FlatSchedule) -> SimTime {
    let timing = TimingModel::paper();
    t.span(TIMING, || timing.time_schedule(flat, SimTime::ZERO).total())
}

pub fn exec_clean<S: ScheduleView>(t: &Tracer, s: &S) -> ExecMachine<u64> {
    let n = s.header().elems_per_node;
    t.span(EXEC_CLEAN, || {
        let mut m = ExecMachine::init(s, |id| (0..n).map(|e| payload(id.0, e)).collect());
        m.run(s, ReduceOp::Sum);
        m
    })
}

pub fn exec_faulty(
    t: &Tracer,
    s: &CommSchedule,
    inj: &FaultInjector,
) -> Result<ExecMachine<u64>, PimnetError> {
    let n = s.elems_per_node;
    t.span(EXEC_FAULTY, || {
        let mut m = ExecMachine::init(s, |id| (0..n).map(|e| payload(id.0, e)).collect());
        m.run_with_faults(s, ReduceOp::Sum, inj).map(|_| m)
    })
}

pub fn build_composed(
    t: &Tracer,
    kind: CollectiveKind,
    g: &PimGeometry,
    elems: usize,
    comp: algos::Composition,
    chunks: usize,
) -> Result<CommSchedule, PimnetError> {
    t.span(SCHEDULE_ALGOS, || {
        algos::build_composed_chunked(kind, g, elems, ELEM_BYTES, comp, chunks)
    })
}

pub fn repair(
    t: &Tracer,
    base: &CommSchedule,
    faults: &PermanentFaultSet,
) -> Result<RepairedSchedule, PimnetError> {
    t.span(SCHEDULE_REPAIR, || repair::repair(base, faults))
}

pub fn cache_build(
    t: &Tracer,
    kind: CollectiveKind,
    g: &PimGeometry,
    elems: usize,
) -> Result<Arc<CommSchedule>, PimnetError> {
    t.span(CACHE_LOOKUP, || {
        cache::build_cached(kind, g, elems, ELEM_BYTES)
    })
}

pub fn cache_analyze(
    t: &Tracer,
    kind: CollectiveKind,
    g: &PimGeometry,
    elems: usize,
) -> Result<Arc<AnalysisSummary>, PimnetError> {
    t.span(CACHE_LOOKUP, || {
        cache::analyze_cached(kind, g, elems, ELEM_BYTES, pim_sim::Probe::disabled())
    })
}

pub fn tune(
    t: &Tracer,
    kind: CollectiveKind,
    dpus: u32,
    elems: usize,
) -> Result<Arc<TunedChoice>, PimnetError> {
    let g = geometry(dpus);
    t.span(AUTOTUNE_TUNE, || {
        autotune::tune(kind, &g, elems, ELEM_BYTES)
    })
}

pub fn serve(t: &Tracer, cfg: &ServeConfig) -> Result<ServeReport, PimnetError> {
    t.span(SERVE_WINDOW, || pimnet::serve::serve(cfg))
}

pub fn plan_degraded(
    t: &Tracer,
    kind: CollectiveKind,
    dpus: u32,
    elems: usize,
    inj: &FaultInjector,
) -> Result<DegradedPlan, PimnetError> {
    let g = geometry(dpus);
    let sys = SystemConfig::paper_scaled(dpus);
    t.span(RESILIENCE_PLAN, || {
        pimnet::resilience::plan_degraded(kind, &g, elems, ELEM_BYTES, inj, &sys)
    })
}

// ---------------------------------------------------------------------
// Replays: the steps an outer call makes internally, re-run through the
// same public calls after the op so each gets its own span.
// ---------------------------------------------------------------------

/// Candidate counts of one replayed tuner sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneSweep {
    pub candidates: usize,
    pub rejected: usize,
}

/// Replays a cold `autotune::tune`: the paper incumbent is built,
/// validated and priced; every candidate composition is built, validated,
/// proved by the full analysis suite and, if clean, priced.
pub fn replay_tune(t: &Tracer, kind: CollectiveKind, dpus: u32, elems: usize) -> TuneSweep {
    let g = geometry(dpus);
    if let Ok(paper) = build(t, kind, dpus, elems) {
        if validate(t, &paper).is_ok() {
            boost_total(t, &paper);
        }
    }
    let candidates = autotune::candidates(kind, &g, elems);
    let mut sweep = TuneSweep {
        candidates: candidates.len(),
        rejected: 0,
    };
    for (comp, chunks) in candidates {
        let proved = build_composed(t, kind, &g, elems, comp, chunks)
            .ok()
            .filter(|s| validate(t, s).is_ok())
            .map(|s| verify_full(t, Arc::new(s)))
            .filter(|summary| summary.report.is_clean());
        match proved {
            Some(summary) => {
                boost_total(t, summary.schedule());
            }
            None => sweep.rejected += 1,
        }
    }
    sweep
}

/// Replays the dispatch pricing of every served request of a fault-free
/// window: per priced chunk size, a cache lookup of the proof and of the
/// schedule, then the timing model.
pub fn replay_serve(t: &Tracer, cfg: &ServeConfig, report: &ServeReport) {
    let timings: Vec<TimingModel> = cfg
        .tenants
        .iter()
        .map(|tn| TimingModel::new(cfg.fabric, SystemConfig::paper().with_geometry(tn.geometry)))
        .collect();
    for r in &report.log {
        let RequestOutcome::Served { tier, .. } = r.outcome else {
            continue;
        };
        let tn = &cfg.tenants[r.request.tenant as usize];
        let chunk = if tier >= 1 {
            (cfg.chunk_elems / 2).max(1)
        } else {
            cfg.chunk_elems.max(1)
        };
        let elems = r.request.elems;
        let full = (elems >= chunk).then_some(chunk);
        let tail = (elems % chunk > 0).then_some(elems % chunk);
        for size in full.into_iter().chain(tail) {
            let _ = cache_analyze(t, tn.kind, &tn.geometry, size);
            if let Ok(s) = cache_build(t, tn.kind, &tn.geometry, size) {
                t.span(TIMING, || {
                    timings[r.request.tenant as usize]
                        .time_schedule(s.as_ref(), SimTime::ZERO)
                        .total()
                });
            }
        }
    }
}

/// Replays what `plan_degraded` did for `plan`: the base lookup, and for
/// a fabric with permanent faults but no lost DPU the repair and, when it
/// changed anything, the delta re-proof against the cached base proof.
/// Returns the delta statistics of that re-proof.
pub fn replay_plan(
    t: &Tracer,
    kind: CollectiveKind,
    dpus: u32,
    elems: usize,
    inj: &FaultInjector,
    plan: &DegradedPlan,
) -> Option<DeltaStats> {
    if let DegradedPlan::Shrunk { schedule, .. } = plan {
        let _ = cache_build(t, kind, &schedule.geometry, elems);
        return None;
    }
    let g = geometry(dpus);
    let faults = permanent_faults(inj, &g);
    if !repair::unusable_dpus(&g, &faults).is_empty() {
        return None;
    }
    let base = cache_build(t, kind, &g, elems).ok()?;
    if faults.is_empty() {
        return None;
    }
    let repaired = repair(t, &base, &faults).ok()?;
    if repaired.report.is_identity() {
        return None;
    }
    let base_summary = cache_analyze(t, kind, &g, elems).ok()?;
    Some(reverify_repair(t, &base_summary, &repaired))
}

// ---------------------------------------------------------------------
// Untimed helpers: set-up, checks and counters
// ---------------------------------------------------------------------

/// Drops every cached schedule and proof.
pub fn cache_clear() {
    cache::clear();
}

/// Schedule-cache `(hits, misses)` so far.
pub fn cache_counts() -> (u64, u64) {
    let s = cache::stats();
    (s.hits, s.misses)
}

/// Builds and proves the plain schedule of one cell into the cache.
pub fn warm_cell(kind: CollectiveKind, dpus: u32, elems: usize) -> Result<(), PimnetError> {
    let g = geometry(dpus);
    cache::build_cached(kind, &g, elems, ELEM_BYTES)?;
    cache::analyze_cached(kind, &g, elems, ELEM_BYTES, pim_sim::Probe::disabled())?;
    Ok(())
}

/// Transfers in a schedule, for per-transfer costs.
pub fn transfers(s: &CommSchedule) -> usize {
    s.transfer_count()
}

/// The collective a schedule implements, for the reference check.
pub fn shape(s: &CommSchedule) -> Shape {
    Shape {
        kind: s.kind,
        dpus: s.geometry.total_dpus(),
        elems: s.elems_per_node,
        result_ranges: s
            .result_spans
            .iter()
            .map(|spans| spans.iter().map(|sp| sp.range()).collect())
            .collect(),
    }
}

/// Node `node`'s result after executing `s`.
pub fn result(s: &CommSchedule, m: &ExecMachine<u64>, node: u32) -> Vec<u64> {
    m.result(s, DpuId(node))
}

/// Full batch analysis of a schedule; `true` when clean.
pub fn is_analysis_clean(s: &CommSchedule) -> bool {
    analysis::run_all(s).is_clean()
}

pub fn is_valid(s: &CommSchedule) -> bool {
    validate::validate(s).is_ok()
}

/// The chaos-soak fault storm: BER 0.02, straggler probability 0.1,
/// permanent segment/port faults at 0.02 and dead ranks at 0.03.
pub fn chaos_injector(seed: u64) -> FaultInjector {
    FaultInjector::new(
        FaultConfig {
            transient_ber: 0.02,
            straggler_prob: 0.1,
            straggler_max_ns: 5_000,
            max_retries: 8,
            perm_rates: PermanentFaultRates {
                segment_prob: 0.02,
                port_prob: 0.02,
                rank_prob: 0.03,
            },
            ..FaultConfig::none()
        }
        .with_seed(seed),
    )
}

fn permanent_faults(inj: &FaultInjector, g: &PimGeometry) -> PermanentFaultSet {
    if inj.has_permanent_faults() {
        inj.permanent_faults(g.ranks_per_channel, g.chips_per_rank, g.banks_per_chip)
    } else {
        PermanentFaultSet::none()
    }
}

/// One DLRM-shaped tenant: the embedding exchange of one RM model
/// (`dim x tables` elements per node), its priority and mean gap.
pub struct Tenant {
    pub name: &'static str,
    pub elems: usize,
    pub priority: u8,
    pub mean_gap_ps: u64,
}

/// A fault-free, priority-scheduled serving window over `tenants`.
pub fn serve_config(tenants: &[Tenant], horizon_ps: u64, seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::uniform(tenants.len(), seed);
    for (tc, tn) in cfg.tenants.iter_mut().zip(tenants) {
        tc.name = tn.name.to_string();
        tc.elems_per_node = tn.elems;
        tc.priority = tn.priority;
        tc.mean_gap_ps = tn.mean_gap_ps;
    }
    cfg.policy = pimnet::serve::QueuePolicy::Priority;
    cfg.horizon_ps = horizon_ps;
    cfg
}

/// Number of requests the window's arrival trace holds.
pub fn arrivals(cfg: &ServeConfig) -> usize {
    pimnet::serve::sample_arrivals(cfg).len()
}
