//! The four workloads: seeded op streams, set-up, one op, its check, and
//! the traced replay of the steps an op's outer call made internally.
//!
//! Every workload is a closed loop on one thread: an op is issued only
//! after the previous one completed. Ops come in rounds; a round visits
//! every cell of the workload's (collective, DPUs) matrix once in a seeded
//! order, and each cell cycles through a seeded permutation of its payload
//! multipliers, so a run of whole rounds weighs every cell equally and the
//! seed moves only the order and the payloads.

use std::sync::Arc;

use crate::layers::{
    self, CollectiveKind, CommSchedule, DegradedPlan, ExecMachine, FaultInjector, PimnetError,
    RequestOutcome, ServeConfig, ServeReport, SimTime, Tenant, TunedChoice,
};
use crate::reference;
use crate::trace::Tracer;

/// SplitMix64: the benchmark's own generator, so a change to the
/// simulator cannot change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pipeline,
    AutotuneCold,
    ServeWarm,
    ChaosRepair,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Pipeline,
        Workload::AutotuneCold,
        Workload::ServeWarm,
        Workload::ChaosRepair,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline => "pipeline",
            Workload::AutotuneCold => "autotune-cold",
            Workload::ServeWarm => "serve-warm",
            Workload::ChaosRepair => "chaos-repair",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The tail percentile printed: the highest with ten samples beyond
    /// it at the op count a 20-second run reaches on a 2-core x86-64 host
    /// (about 620, 126, 760 and 2000 ops), fixed so that a faster change
    /// is not read at a higher percentile. A run with fewer ops falls back
    /// to the highest percentile its count supports.
    pub fn tail_percentile(self) -> u32 {
        match self {
            Workload::Pipeline | Workload::ServeWarm => 98,
            Workload::AutotuneCold => 92,
            Workload::ChaosRepair => 99,
        }
    }
}

/// One op of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Build → flatten → validate → batch analysis → boost → timeline and
    /// timing → clean exec, with no cache.
    Pipeline {
        kind: CollectiveKind,
        dpus: u32,
        elems: usize,
    },
    /// One cold `autotune::tune`.
    Tune {
        kind: CollectiveKind,
        dpus: u32,
        elems: usize,
    },
    /// One fault-free serving window under a fresh arrival seed.
    Serve { seed: u64 },
    /// Degraded planning plus faulty exec under a fresh fault storm.
    Chaos {
        kind: CollectiveKind,
        dpus: u32,
        seed: u64,
    },
}

const DPUS: [u32; 3] = [8, 64, 256];

/// Collectives the tuner and the chaos storm exercise.
const TUNE_KINDS: [CollectiveKind; 5] = [
    CollectiveKind::AllReduce,
    CollectiveKind::ReduceScatter,
    CollectiveKind::AllGather,
    CollectiveKind::Broadcast,
    CollectiveKind::AllToAll,
];
const CHAOS_KINDS: [CollectiveKind; 4] = [
    CollectiveKind::AllReduce,
    CollectiveKind::AllGather,
    CollectiveKind::AllToAll,
    CollectiveKind::Broadcast,
];

/// Payload of one pipeline op: `PIPELINE_ELEMS` × U[1, 16] elements.
const PIPELINE_ELEMS: (usize, usize) = (256, 16);
/// Payload of one tuner op: `TUNE_ELEMS` × U[1, 32] elements.
const TUNE_ELEMS: (usize, usize) = (64, 32);
/// Payload of every chaos op (the chaos soak's).
const CHAOS_ELEMS: usize = 64;

/// Simulated horizon of one serving window: 1 ms of arrivals.
const SERVE_HORIZON_PS: u64 = 1_000_000_000;

/// DLRM tenants: the embedding exchange of the RM1/RM2/RM3 stand-ins
/// (`dim x tables` elements per node). Heavier models request less often
/// and carry higher priority.
const TENANTS: [Tenant; 3] = [
    Tenant {
        name: "emb_rm1-0",
        elems: 32 * 8,
        priority: 1,
        mean_gap_ps: 50_000_000,
    },
    Tenant {
        name: "emb_rm2-1",
        elems: 64 * 16,
        priority: 2,
        mean_gap_ps: 100_000_000,
    },
    Tenant {
        name: "emb_rm3-2",
        elems: 128 * 16,
        priority: 3,
        mean_gap_ps: 150_000_000,
    },
];

/// Chaos ops between cache resets. The schedule cache keeps every
/// repaired schedule and its proof, so an unbounded run grows by
/// megabytes per op; resetting at a fixed op count keeps peak memory a
/// property of the workload rather than of how many ops fit in a run.
const CHAOS_CACHE_OPS: u64 = 20;

type Cell = (CollectiveKind, u32);

/// AllGather at 256 DPUs is left out of every workload: its `N·n` buffers
/// make its proof and exec far costlier than any other cell, for no extra
/// coverage.
const ALLGATHER_256: Cell = (CollectiveKind::AllGather, 256);

/// The (collective, DPUs) matrix of `kinds` at 8/64/256 DPUs, less `skip`.
fn cells(kinds: &[CollectiveKind], skip: &[Cell]) -> Vec<Cell> {
    kinds
        .iter()
        .flat_map(|&k| DPUS.iter().map(move |&d| (k, d)))
        .filter(|cell| !skip.contains(cell))
        .collect()
}

fn pipeline_cells() -> Vec<Cell> {
    cells(&CollectiveKind::ALL, &[ALLGATHER_256])
}

fn tune_cells() -> Vec<Cell> {
    cells(&TUNE_KINDS, &[ALLGATHER_256])
}

/// All-to-all at 256 DPUs is also left out of the storm: one repaired
/// schedule and its proof hold up to 300 MB, so its few repairs per cache
/// lifetime would decide peak memory by how many a seed happens to draw.
fn chaos_cells() -> Vec<Cell> {
    cells(
        &CHAOS_KINDS,
        &[ALLGATHER_256, (CollectiveKind::AllToAll, 256)],
    )
}

/// The seeded, endless op stream of one workload, a round at a time.
pub struct OpStream {
    workload: Workload,
    rng: Rng,
    cells: Vec<Cell>,
    /// Per cell, the payload multipliers left in its current permutation.
    multipliers: Vec<Vec<usize>>,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let cells = match workload {
            Workload::Pipeline => pipeline_cells(),
            Workload::AutotuneCold => tune_cells(),
            Workload::ServeWarm => Vec::new(),
            Workload::ChaosRepair => chaos_cells(),
        };
        OpStream {
            workload,
            rng: Rng::new(seed),
            multipliers: vec![Vec::new(); cells.len()],
            cells,
        }
    }

    fn elems(&mut self, cell: usize, (unit, max): (usize, usize)) -> usize {
        if self.multipliers[cell].is_empty() {
            let mut m: Vec<usize> = (1..=max).collect();
            self.rng.shuffle(&mut m);
            self.multipliers[cell] = m;
        }
        unit * self.multipliers[cell].pop().expect("refilled above")
    }

    pub fn next_round(&mut self) -> Vec<Op> {
        if self.workload == Workload::ServeWarm {
            return vec![Op::Serve {
                seed: self.rng.next_u64(),
            }];
        }
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        self.rng.shuffle(&mut order);
        order
            .into_iter()
            .map(|c| {
                let (kind, dpus) = self.cells[c];
                match self.workload {
                    Workload::Pipeline => Op::Pipeline {
                        kind,
                        dpus,
                        elems: self.elems(c, PIPELINE_ELEMS),
                    },
                    Workload::AutotuneCold => Op::Tune {
                        kind,
                        dpus,
                        elems: self.elems(c, TUNE_ELEMS),
                    },
                    _ => Op::Chaos {
                        kind,
                        dpus,
                        seed: self.rng.next_u64(),
                    },
                }
            })
            .collect()
    }
}

/// Set-up the workload needs before its first timed op: a cold cache
/// plus one untimed pass over what its ops will touch.
pub fn setup(w: Workload) -> Result<(), String> {
    layers::cache_clear();
    let off = Tracer::new(false);
    match w {
        // No cache: run each cell once at its smallest payload.
        Workload::Pipeline => {
            for (kind, dpus) in pipeline_cells() {
                run(
                    &Op::Pipeline {
                        kind,
                        dpus,
                        elems: PIPELINE_ELEMS.0,
                    },
                    &off,
                )?;
            }
        }
        // Ops clear the cache themselves; tune every kind once at 64 DPUs.
        Workload::AutotuneCold => {
            for kind in TUNE_KINDS {
                layers::tune(&off, kind, 64, TUNE_ELEMS.0).map_err(|e| e.to_string())?;
            }
        }
        // One untimed window fills the cache with every tenant's schedules.
        Workload::ServeWarm => {
            run(&Op::Serve { seed: 0 }, &off)?;
        }
        Workload::ChaosRepair => warm_chaos_bases()?,
    }
    Ok(())
}

/// Builds and proves the base schedule of every chaos cell.
fn warm_chaos_bases() -> Result<(), String> {
    for (kind, dpus) in chaos_cells() {
        layers::warm_cell(kind, dpus, CHAOS_ELEMS).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Whether op number `index` starts a new cache lifetime of a workload
/// whose cache otherwise lives across ops.
pub fn resets_cache(op: &Op, index: u64) -> bool {
    matches!(op, Op::Chaos { .. }) && index > 0 && index.is_multiple_of(CHAOS_CACHE_OPS)
}

/// Untimed work before op number `index`.
pub fn before_op(op: &Op, index: u64) -> Result<(), String> {
    if matches!(op, Op::Tune { .. }) {
        // Every tune starts cold.
        layers::cache_clear();
    } else if resets_cache(op, index) {
        layers::cache_clear();
        warm_chaos_bases()?;
    }
    Ok(())
}

/// What an op produced, kept until its check has run so that dropping it
/// stays outside the timed region.
pub enum Outcome {
    Pipeline {
        schedule: CommSchedule,
        clean: bool,
        boost: SimTime,
        full: SimTime,
        machine: ExecMachine<u64>,
    },
    Tune(Arc<TunedChoice>),
    Serve {
        cfg: ServeConfig,
        report: ServeReport,
    },
    Chaos {
        injector: FaultInjector,
        /// `None` when every rank was sampled dead: a typed outcome.
        plan: Option<DegradedPlan>,
        exec: Option<ExecMachine<u64>>,
    },
}

fn text(e: PimnetError) -> String {
    e.to_string()
}

/// Runs one op through the layers.
pub fn run(op: &Op, t: &Tracer) -> Result<Outcome, String> {
    Ok(match *op {
        Op::Pipeline { kind, dpus, elems } => {
            let schedule = layers::build(t, kind, dpus, elems).map_err(text)?;
            let flat = layers::flatten(t, &schedule);
            layers::validate(t, &schedule).map_err(text)?;
            let clean = layers::analyze_batch(t, &flat);
            let boost = layers::boost_total(t, &schedule);
            std::hint::black_box(layers::timeline_end(t, &flat));
            let full = layers::timing_total(t, &flat);
            let machine = layers::exec_clean(t, &flat);
            Outcome::Pipeline {
                schedule,
                clean,
                boost,
                full,
                machine,
            }
        }
        Op::Tune { kind, dpus, elems } => {
            Outcome::Tune(layers::tune(t, kind, dpus, elems).map_err(text)?)
        }
        Op::Serve { seed } => {
            let cfg = layers::serve_config(&TENANTS, SERVE_HORIZON_PS, seed);
            let report = layers::serve(t, &cfg).map_err(text)?;
            Outcome::Serve { cfg, report }
        }
        Op::Chaos { kind, dpus, seed } => {
            let injector = layers::chaos_injector(seed);
            let plan = match layers::plan_degraded(t, kind, dpus, CHAOS_ELEMS, &injector) {
                Ok(p) => Some(p),
                Err(PimnetError::InvalidGeometry { .. }) => None,
                Err(e) => return Err(text(e)),
            };
            let exec = match plan.as_ref().and_then(DegradedPlan::schedule) {
                Some(s) => Some(layers::exec_faulty(t, s, &injector).map_err(text)?),
                None => None,
            };
            Outcome::Chaos {
                injector,
                plan,
                exec,
            }
        }
    })
}

/// Counters and simulated results gathered over a run's ops; the
/// per-op logs are in op order.
#[derive(Debug, Default)]
pub struct Counters {
    /// Per chaos op, the degradation tier planned: 0 full, 1 repaired,
    /// 2 shrunk, 3 host fallback, 4 none (every rank dead).
    pub tiers: Vec<u8>,
    pub candidates: u64,
    pub rejected: u64,
    /// Per tuner op, paper time over tuned time.
    pub speedups: Vec<f64>,
    pub sim_requests: u64,
    /// Per serving window, its served latencies in simulated picoseconds.
    pub latencies_ps: Vec<Vec<u64>>,
    pub chunks: u64,
    pub boost_exact: u64,
    pub boost_priced: u64,
    pub boost_max_rel_err: f64,
    /// Transfers processed by traced pipeline ops (batch analysis, clean
    /// exec) and traced chaos ops (faulty exec).
    pub traced_pipeline_transfers: u64,
    pub traced_faulty_transfers: u64,
    /// Delta re-proofs replayed, and their steps re-linted / total.
    pub delta_relinted: u64,
    pub delta_steps: u64,
}

/// Checks an op's outputs (untimed) and folds its counters.
pub fn check(op: &Op, out: &Outcome, c: &mut Counters) -> Result<(), String> {
    match (op, out) {
        (
            Op::Pipeline { .. },
            Outcome::Pipeline {
                schedule,
                clean,
                boost,
                full,
                machine,
                ..
            },
        ) => {
            let (boost, full) = (boost.as_ps(), full.as_ps());
            let rel_err = (boost as f64 - full as f64) / full.max(1) as f64;
            c.boost_priced += 1;
            c.boost_exact += u64::from(boost == full);
            c.boost_max_rel_err = c.boost_max_rel_err.max(rel_err);
            if !clean {
                return Err("batch analysis reported diagnostics".into());
            }
            if boost < full || rel_err > 1e-3 {
                return Err(format!(
                    "boost total {boost} ps is not within [0, 0.1 %] above the full {full} ps"
                ));
            }
            reference::check(&layers::shape(schedule), |i| {
                layers::result(schedule, machine, i)
            })
        }
        (Op::Tune { dpus, .. }, Outcome::Tune(choice)) => {
            c.candidates += choice.candidates as u64;
            c.rejected += choice.rejected as u64;
            c.speedups.push(choice.speedup());
            if choice.tuned_time > choice.paper_time {
                return Err(format!(
                    "tuned {} is slower than paper {}",
                    choice.tuned_time, choice.paper_time
                ));
            }
            // The dataflow proof of the largest gathers is costlier than
            // the op itself; below 256 DPUs every winner is re-proved.
            if *dpus < 256 && !layers::is_analysis_clean(&choice.schedule) {
                return Err(format!("winner {} is not analysis-clean", choice.spec()));
            }
            Ok(())
        }
        (Op::Serve { .. }, Outcome::Serve { cfg, report }) => {
            c.sim_requests += report.log.len() as u64;
            c.latencies_ps.push(report.latencies_ps());
            c.chunks += report
                .log
                .iter()
                .map(|r| match r.outcome {
                    RequestOutcome::Served { chunks, .. } => u64::from(chunks),
                    _ => 0,
                })
                .sum::<u64>();
            let arrivals = layers::arrivals(cfg);
            if report.log.len() != arrivals
                || report
                    .log
                    .iter()
                    .enumerate()
                    .any(|(i, r)| r.request.id != i as u64)
            {
                return Err(format!(
                    "{} outcomes for {arrivals} arrivals",
                    report.log.len()
                ));
            }
            if report.ladder.windows(2).any(|w| w[1].level <= w[0].level) {
                return Err("overload ladder is not monotone".into());
            }
            Ok(())
        }
        (Op::Chaos { .. }, Outcome::Chaos { plan, exec, .. }) => {
            c.tiers.push(plan.as_ref().map_or(4, DegradedPlan::tier));
            let (Some(s), Some(faulty)) = (plan.as_ref().and_then(DegradedPlan::schedule), exec)
            else {
                return Ok(());
            };
            if !layers::is_valid(s) {
                return Err(format!("planned {} schedule fails validation", s.kind));
            }
            if layers::exec_clean(&Tracer::new(false), s) != *faulty {
                return Err(format!("faulty {} run diverged from the clean run", s.kind));
            }
            Ok(())
        }
        _ => unreachable!("an op's outcome has the op's own shape"),
    }
}

/// In a traced op, re-runs the steps the op's outer call made internally
/// as children of that call's span; counts per-transfer work.
pub fn replay(op: &Op, out: &Outcome, t: &Tracer, c: &mut Counters) -> Result<(), String> {
    if !t.is_enabled() {
        return Ok(());
    }
    match (op, out) {
        (Op::Pipeline { .. }, Outcome::Pipeline { schedule, .. }) => {
            c.traced_pipeline_transfers += layers::transfers(schedule) as u64;
        }
        (Op::Tune { kind, dpus, elems }, Outcome::Tune(choice)) => {
            let mut sweep = None;
            t.replay(layers::AUTOTUNE_TUNE, || {
                sweep = Some(layers::replay_tune(t, *kind, *dpus, *elems));
            });
            let sweep = sweep.expect("the tuner span exists");
            if (sweep.candidates, sweep.rejected) != (choice.candidates, choice.rejected) {
                return Err(format!(
                    "tuner replay swept {}/{} candidates/rejected, the tuner {}/{}",
                    sweep.candidates, sweep.rejected, choice.candidates, choice.rejected
                ));
            }
        }
        (Op::Serve { .. }, Outcome::Serve { cfg, report }) => {
            t.replay(layers::SERVE_WINDOW, || {
                layers::replay_serve(t, cfg, report)
            });
        }
        (
            Op::Chaos { kind, dpus, .. },
            Outcome::Chaos {
                injector,
                plan: Some(plan),
                exec,
            },
        ) => {
            if let (Some(s), Some(_)) = (plan.schedule(), exec) {
                c.traced_faulty_transfers += layers::transfers(s) as u64;
            }
            t.replay(layers::RESILIENCE_PLAN, || {
                if let Some(d) = layers::replay_plan(t, *kind, *dpus, CHAOS_ELEMS, injector, plan) {
                    c.delta_relinted += d.relinted as u64;
                    c.delta_steps += d.steps_total as u64;
                }
            });
        }
        (Op::Chaos { .. }, Outcome::Chaos { plan: None, .. }) => {}
        _ => unreachable!("an op's outcome has the op's own shape"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rounds(w: Workload, seed: u64, n: usize) -> Vec<Op> {
        let mut s = OpStream::new(w, seed);
        (0..n).flat_map(|_| s.next_round()).collect()
    }

    #[test]
    fn op_lists_repeat_per_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            assert_eq!(rounds(w, 1, 3), rounds(w, 1, 3), "{}", w.name());
            assert_ne!(rounds(w, 1, 3), rounds(w, 2, 3), "{}", w.name());
        }
    }

    #[test]
    fn rounds_visit_every_cell_once_and_cycle_every_payload() {
        assert_eq!(pipeline_cells().len(), 20);
        assert_eq!(tune_cells().len(), 14);
        assert_eq!(chaos_cells().len(), 10);
        let ops = rounds(Workload::Pipeline, 7, PIPELINE_ELEMS.1);
        for (kind, dpus) in pipeline_cells() {
            let mut elems: Vec<usize> = ops
                .iter()
                .filter_map(|op| match *op {
                    Op::Pipeline {
                        kind: k,
                        dpus: d,
                        elems,
                    } if (k, d) == (kind, dpus) => Some(elems),
                    _ => None,
                })
                .collect();
            elems.sort_unstable();
            let want: Vec<usize> = (1..=PIPELINE_ELEMS.1)
                .map(|m| m * PIPELINE_ELEMS.0)
                .collect();
            assert_eq!(elems, want, "{kind} x{dpus}");
        }
    }
}
