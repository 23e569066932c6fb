//! Shared sweep computations behind the figure and soak binaries.
//!
//! Each function here produces exactly the [`Table`] its binary prints,
//! as a pure function of its arguments — the binaries are thin argument
//! parsers around this module, and the `perf_gate` harness re-runs the
//! same sweeps at different worker counts to assert the output is
//! byte-identical however it is scheduled.
//!
//! Independent cells (one fault scenario, one figure row) fan out over
//! [`pim_sim::par`], whose ordered result collection is what keeps the
//! tables deterministic under parallel execution.

use pim_arch::geometry::{DpuId, PimGeometry};
use pim_arch::SystemConfig;
use pim_faults::{FaultConfig, FaultInjector, FaultTimeline, PermanentFaultRates, TimelineRates};
use pim_sim::{par, Bandwidth, Bytes, Probe, SimTime};
use pim_workloads::{run_program, run_program_probed, Workload};
use pimnet::backends::{
    BaselineHostBackend, CollectiveBackend, DimmLinkBackend, NdpBridgeBackend, PimnetBackend,
    SoftwareIdealBackend,
};
use pimnet::collective::{CollectiveKind, CollectiveSpec};
use pimnet::exec::{ExecMachine, ReduceOp};
use pimnet::recovery::{run_recovered, RecoveryConfig, RecoveryRequest, RecoveryStats};
use pimnet::resilience::{plan_degraded, DegradedPlan};
use pimnet::schedule::cache::{self, ScheduleRequest};
use pimnet::schedule::{validate, BoostPlan, CommSchedule};
use pimnet::timing::TimingModel;
use pimnet::FabricConfig;

use crate::{pct, us, x, Table};

/// Elements per node every chaos scenario communicates.
pub const CHAOS_ELEMS: usize = 64;
/// Collectives the chaos soak sweeps.
pub const CHAOS_KINDS: [CollectiveKind; 4] = [
    CollectiveKind::AllReduce,
    CollectiveKind::AllGather,
    CollectiveKind::AllToAll,
    CollectiveKind::Broadcast,
];
/// Geometries the chaos soak sweeps.
pub const CHAOS_GEOMETRIES: [u32; 3] = [8, 64, 256];

/// The seeded fault storm every chaos scenario samples from.
#[must_use]
pub fn chaos_config(seed: u64) -> FaultConfig {
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
    .with_seed(seed)
}

/// What one chaos scenario (one seed of one cell) did.
struct ScenarioOutcome {
    /// Ladder tier the planner landed on, `None` when nothing was
    /// plannable (every rank sampled dead).
    tier: Option<usize>,
    rerouted: usize,
    remapped: usize,
    extra_steps: usize,
    /// Repaired-over-clean completion-time stretch (0 unless Repaired).
    stretch: f64,
    /// The plan executed bit-identically under transient faults.
    verified: bool,
}

/// Accumulated outcomes of one geometry × collective cell.
#[derive(Default)]
struct CellStats {
    tiers: [u32; 4],
    unplannable: u32,
    rerouted: usize,
    remapped: usize,
    extra_steps: usize,
    worst_stretch: f64,
    verified: u32,
}

impl CellStats {
    fn fold(&mut self, s: &ScenarioOutcome) {
        match s.tier {
            Some(t) => self.tiers[t] += 1,
            None => self.unplannable += 1,
        }
        self.rerouted += s.rerouted;
        self.remapped += s.remapped;
        self.extra_steps += s.extra_steps;
        self.worst_stretch = self.worst_stretch.max(s.stretch);
        self.verified += u32::from(s.verified);
    }
}

/// Drives one seeded scenario through the full plan → repair → validate
/// → execute → verify pipeline. Pure function of its arguments.
fn soak_scenario(kind: CollectiveKind, dpus: u32, seed: u64) -> ScenarioOutcome {
    let g = PimGeometry::paper_scaled(dpus);
    let sys = SystemConfig::paper_scaled(dpus);
    let timing = TimingModel::paper();
    let mut out = ScenarioOutcome {
        tier: None,
        rerouted: 0,
        remapped: 0,
        extra_steps: 0,
        stretch: 0.0,
        verified: false,
    };
    let inj = FaultInjector::new(chaos_config(seed));
    let plan = match plan_degraded(kind, &g, CHAOS_ELEMS, 4, &inj, &sys) {
        Ok(p) => p,
        // Every rank sampled dead: nothing left to plan, which the
        // planner reports as a typed error rather than a panic.
        Err(_) => return out,
    };
    out.tier = Some(plan.tier() as usize);
    let Some(s) = plan.schedule() else {
        return out; // host fallback: no PIM-side schedule to verify
    };
    validate::validate(s).expect("planned schedule failed validation");
    if let DegradedPlan::Repaired { report, .. } = &plan {
        out.rerouted = report.rerouted_transfers;
        out.remapped = report.remapped_transfers;
        out.extra_steps = report.extra_steps;
        let req = ScheduleRequest::new(kind, &g, CHAOS_ELEMS, 4);
        let clean = cache::get::<CommSchedule>(&req, Probe::disabled()).unwrap();
        out.stretch = timing.time_schedule(s, SimTime::ZERO).total().as_secs_f64()
            / timing
                .time_schedule(&clean, SimTime::ZERO)
                .total()
                .as_secs_f64();
    }
    // Execute under transient faults and check bit-identity against the
    // same schedule's clean run (for Full/Repaired that clean run is by
    // construction identical to the fault-free reference plan).
    let init = |id: pim_arch::geometry::DpuId| vec![u64::from(id.0) + 1; CHAOS_ELEMS];
    let mut clean_m = ExecMachine::init(s, init);
    clean_m.run(s, ReduceOp::Sum);
    let mut faulty_m = ExecMachine::init(s, init);
    faulty_m
        .run_with_faults(s, ReduceOp::Sum, &inj)
        .expect("retry budget exhausted");
    assert_eq!(clean_m, faulty_m, "faulty run diverged");
    out.verified = true;
    out
}

/// The chaos-soak table plus its scenario totals.
pub struct ChaosSummary {
    /// The table the `chaos_soak` binary prints and emits as CSV.
    pub table: Table,
    /// Scenarios swept (cells × seeds per cell).
    pub total: u32,
    /// Scenarios whose PIM-side plan executed bit-identically.
    pub verified: u32,
}

/// Runs the full chaos-soak sweep (`per_cell` seeds from `base` for
/// every geometry × collective cell) on `workers` threads.
///
/// Scenarios are independent, so they fan out at seed granularity; the
/// ordered fold below reproduces the sequential table byte-for-byte at
/// any worker count.
#[must_use]
pub fn chaos_soak(per_cell: u64, base: u64, workers: usize) -> ChaosSummary {
    let mut scenarios = Vec::new();
    for &dpus in &CHAOS_GEOMETRIES {
        for kind in CHAOS_KINDS {
            for seed in base..base + per_cell {
                scenarios.push((kind, dpus, seed));
            }
        }
    }
    let outcomes = par::map_ordered_with(workers, scenarios, |(kind, dpus, seed)| {
        soak_scenario(kind, dpus, seed)
    });

    let mut t = Table::new(
        "chaos soak: ladder tiers and repair cost per scenario cell",
        &[
            "dpus",
            "collective",
            "full",
            "repaired",
            "shrunk",
            "host",
            "no-plan",
            "rerouted",
            "remapped",
            "+steps",
            "worst-stretch",
            "verified",
        ],
    );
    let mut total = 0u32;
    let mut verified = 0u32;
    let mut chunks = outcomes.chunks(per_cell.max(1) as usize);
    for &dpus in &CHAOS_GEOMETRIES {
        for kind in CHAOS_KINDS {
            let mut s = CellStats::default();
            if per_cell > 0 {
                for outcome in chunks.next().expect("scenario chunk per cell") {
                    s.fold(outcome);
                }
            }
            total += per_cell as u32;
            verified += s.verified;
            t.row([
                dpus.to_string(),
                kind.to_string(),
                s.tiers[0].to_string(),
                s.tiers[1].to_string(),
                s.tiers[2].to_string(),
                s.tiers[3].to_string(),
                s.unplannable.to_string(),
                s.rerouted.to_string(),
                s.remapped.to_string(),
                s.extra_steps.to_string(),
                format!("{:.2}x", s.worst_stretch.max(1.0)),
                s.verified.to_string(),
            ]);
        }
    }
    ChaosSummary {
        table: t,
        total,
        verified,
    }
}

/// Elements per node every recovery scenario communicates (small: each
/// scenario single-steps the executor on the recovery clock).
pub const RECOVERY_ELEMS: usize = 32;
/// Geometries the recovery soak sweeps (smaller than the chaos matrix —
/// recovery runs the functional executor step-by-step, not just the
/// planner).
pub const RECOVERY_GEOMETRIES: [u32; 2] = [8, 16];
/// Simulated horizon every scenario's storm is sampled over.
pub const RECOVERY_HORIZON_PS: u64 = 50_000_000;

/// Per-component storm probabilities each recovery scenario samples its
/// time-varying [`FaultTimeline`] from: mid-run permanent arrivals, link
/// flaps and BER bursts, on top of [`recovery_config`]'s background
/// transients. Rank deaths are kept rarer so the matrix exercises the
/// upper ladder tiers, not just host fallback.
#[must_use]
pub fn recovery_rates() -> TimelineRates {
    TimelineRates {
        segment_arrival_prob: 0.06,
        port_arrival_prob: 0.04,
        rank_arrival_prob: 0.02,
        flap_prob: 0.10,
        burst_prob: 0.12,
        burst_ber: 0.8,
    }
}

/// The background (non-timeline) fault configuration of a recovery
/// scenario: mild always-on corruption and stragglers, a real retry
/// budget for the backoff ladder to spend.
#[must_use]
pub fn recovery_config(seed: u64) -> FaultConfig {
    FaultConfig {
        transient_ber: 0.002,
        straggler_prob: 0.05,
        straggler_max_ns: 500,
        max_retries: 8,
        ..FaultConfig::none()
    }
    .with_seed(seed)
}

/// What one recovery scenario (one seed of one cell) did.
struct RecoveryOutcome {
    /// Ladder tier the run ended on; `None` when the storm left nothing
    /// plannable at all (a typed error, counted separately).
    tier: Option<u8>,
    stats: RecoveryStats,
    /// The tier <= 1 result was checked bit-identical to the fault-free
    /// run of the same cell.
    verified: bool,
    /// The end state honored the soundness contract (tier <= 1 implies
    /// bit-identity, machines exactly where the tier promises one, host
    /// fallback carries a typed trail).
    sound: bool,
}

/// Accumulated recovery outcomes of one geometry × collective cell.
#[derive(Default)]
struct RecoveryCellStats {
    tiers: [u32; 4],
    unplannable: u32,
    retries: u64,
    replans: u64,
    quarantines: u64,
    arrivals: u64,
    verified: u32,
    unsound: u32,
}

impl RecoveryCellStats {
    fn fold(&mut self, s: &RecoveryOutcome) {
        match s.tier {
            Some(t) => self.tiers[usize::from(t.min(3))] += 1,
            None => self.unplannable += 1,
        }
        self.retries += s.stats.step_retries;
        self.replans += s.stats.replans;
        self.quarantines += s.stats.quarantines;
        self.arrivals += s.stats.arrivals_applied;
        self.verified += u32::from(s.verified);
        self.unsound += u32::from(!s.sound);
    }
}

/// Drives one seeded time-varying scenario through the runtime recovery
/// manager and verdicts its end state. Pure function of its arguments.
fn recovery_scenario(kind: CollectiveKind, dpus: u32, seed: u64) -> RecoveryOutcome {
    let g = PimGeometry::paper_scaled(dpus);
    let sys = SystemConfig::paper_scaled(dpus);
    let timing = TimingModel::paper();
    let mut cfg = recovery_config(seed);
    cfg.timeline = FaultTimeline::sample(
        seed,
        g.ranks_per_channel,
        g.chips_per_rank,
        g.banks_per_chip,
        RECOVERY_HORIZON_PS,
        &recovery_rates(),
    );
    let injector = FaultInjector::new(cfg);
    let req = RecoveryRequest {
        kind,
        geometry: &g,
        elems_per_node: RECOVERY_ELEMS,
        elem_bytes: 8,
        op: ReduceOp::Sum,
        injector: &injector,
        system: &sys,
        timing: &timing,
        config: RecoveryConfig::default(),
    };
    let init = |id: DpuId| vec![u64::from(id.0) + 1; RECOVERY_ELEMS];
    let out = match run_recovered::<u64>(&req, init) {
        Ok(out) => out,
        // The storm left nothing plannable (e.g. every rank sampled
        // dead): a typed end state of its own, not a ladder tier.
        Err(_) => {
            return RecoveryOutcome {
                tier: None,
                stats: RecoveryStats::default(),
                verified: false,
                sound: true,
            }
        }
    };
    let (verified, sound) = match (out.plan_tier, out.machine.as_ref()) {
        (0 | 1, Some(m)) => {
            // Full/Repaired keep the fault-free buffer layout, so the
            // recovered result must be bit-identical to the clean run.
            let req = ScheduleRequest::new(kind, &g, RECOVERY_ELEMS, 8);
            let s =
                cache::get::<CommSchedule>(&req, Probe::disabled()).expect("reference schedule");
            let mut clean = ExecMachine::init(&s, init);
            clean.run(&s, ReduceOp::Sum);
            let ok = s
                .participants()
                .all(|id| m.result(&s, id) == clean.result(&s, id));
            (ok, ok)
        }
        (2, Some(_)) => (false, true),
        (3, None) => (false, !out.error_trail.is_empty()),
        // Anything else breaks the machine-iff-tier-promises-one rule.
        _ => (false, false),
    };
    RecoveryOutcome {
        tier: Some(out.plan_tier),
        stats: out.stats,
        verified,
        sound,
    }
}

/// The recovery-soak table plus its scenario totals.
pub struct RecoverySummary {
    /// The table the `recovery_soak` binary prints and emits as CSV.
    pub table: Table,
    /// Scenarios swept (cells × seeds per cell).
    pub total: u32,
    /// Scenarios whose tier <= 1 result was checked bit-identical.
    pub verified: u32,
    /// Scenarios that violated the soundness contract (must stay 0).
    pub unsound: u32,
}

/// Runs the full recovery soak (`per_cell` seeds from `base` for every
/// geometry × collective cell) on `workers` threads: every scenario
/// executes step-by-step under a sampled time-varying storm, with
/// checkpointed resume, health quarantine and ladder replans.
///
/// Scenarios are independent, so they fan out at seed granularity; the
/// ordered fold below reproduces the sequential table byte-for-byte at
/// any worker count.
#[must_use]
pub fn recovery_soak(per_cell: u64, base: u64, workers: usize) -> RecoverySummary {
    let mut scenarios = Vec::new();
    for &dpus in &RECOVERY_GEOMETRIES {
        for kind in CHAOS_KINDS {
            for seed in base..base + per_cell {
                scenarios.push((kind, dpus, seed));
            }
        }
    }
    let outcomes = par::map_ordered_with(workers, scenarios, |(kind, dpus, seed)| {
        recovery_scenario(kind, dpus, seed)
    });

    let mut t = Table::new(
        "recovery soak: runtime arrivals, quarantines and replans per scenario cell",
        &[
            "dpus",
            "collective",
            "full",
            "repaired",
            "shrunk",
            "host",
            "no-plan",
            "retries",
            "replans",
            "quarantines",
            "arrivals",
            "verified",
            "unsound",
        ],
    );
    let mut total = 0u32;
    let mut verified = 0u32;
    let mut unsound = 0u32;
    let mut chunks = outcomes.chunks(per_cell.max(1) as usize);
    for &dpus in &RECOVERY_GEOMETRIES {
        for kind in CHAOS_KINDS {
            let mut s = RecoveryCellStats::default();
            if per_cell > 0 {
                for outcome in chunks.next().expect("scenario chunk per cell") {
                    s.fold(outcome);
                }
            }
            total += per_cell as u32;
            verified += s.verified;
            unsound += s.unsound;
            t.row([
                dpus.to_string(),
                kind.to_string(),
                s.tiers[0].to_string(),
                s.tiers[1].to_string(),
                s.tiers[2].to_string(),
                s.tiers[3].to_string(),
                s.unplannable.to_string(),
                s.retries.to_string(),
                s.replans.to_string(),
                s.quarantines.to_string(),
                s.arrivals.to_string(),
                s.verified.to_string(),
                s.unsound.to_string(),
            ]);
        }
    }
    RecoverySummary {
        table: t,
        total,
        verified,
        unsound,
    }
}

/// Fig 12 weak-scaling row sizes.
pub const FIG12_SIZES: [u32; 6] = [8, 16, 32, 64, 128, 256];

/// One Fig 12 table: `kind`'s speedup over the host baseline at every
/// system size, rows computed on `workers` threads.
#[must_use]
pub fn fig12_table(kind: CollectiveKind, workers: usize) -> Table {
    let spec = CollectiveSpec::new(kind, Bytes::kib(32));
    let rows = par::map_ordered_with(workers, FIG12_SIZES.to_vec(), move |n| {
        let sys = SystemConfig::paper_scaled(n);
        let fabric = FabricConfig::paper();
        let base = BaselineHostBackend::new(sys)
            .collective(&spec)
            .unwrap()
            .total();
        let cell = |b: &dyn CollectiveBackend| match b.collective(&spec) {
            Ok(r) => format!("{:.2}", base.ratio(r.total())),
            Err(_) => "n/a".to_string(),
        };
        [
            n.to_string(),
            cell(&SoftwareIdealBackend::new(sys)),
            cell(&NdpBridgeBackend::new(sys)),
            cell(&DimmLinkBackend::new(sys, fabric)),
            cell(&PimnetBackend::new(sys, fabric)),
        ]
    });
    let mut t = Table::new(
        &format!("Fig 12: {kind} speedup over baseline (weak scaling, 32 KB/DPU)"),
        &["DPUs", "S", "N", "D", "P"],
    );
    for row in rows {
        t.row(row);
    }
    t
}

/// Collectives the `fig12_best` paper-vs-tuned table sweeps.
pub const FIG12_BEST_KINDS: [CollectiveKind; 5] = [
    CollectiveKind::AllReduce,
    CollectiveKind::ReduceScatter,
    CollectiveKind::AllGather,
    CollectiveKind::Broadcast,
    CollectiveKind::AllToAll,
];
/// System sizes the `fig12_best` table sweeps.
pub const FIG12_BEST_DPUS: [u32; 3] = [8, 64, 256];
/// Payloads (elements per node) the `fig12_best` table sweeps.
pub const FIG12_BEST_ELEMS: [usize; 2] = [64, 1024];

/// The pinned `(kind, dpus, elems)` cell list of [`fig12_best`], in row
/// order. AllGather is capped at 64 DPUs: its `N·n`-element buffers make
/// the dataflow proof pass — which the autotuner runs on *every*
/// candidate — orders of magnitude more expensive at 256 DPUs than any
/// other cell, for no extra coverage of the composition space.
#[must_use]
pub fn fig12_best_cells() -> Vec<(CollectiveKind, u32, usize)> {
    let mut cells = Vec::new();
    for kind in FIG12_BEST_KINDS {
        for dpus in FIG12_BEST_DPUS {
            if kind == CollectiveKind::AllGather && dpus > 64 {
                continue;
            }
            for elems in FIG12_BEST_ELEMS {
                cells.push((kind, dpus, elems));
            }
        }
    }
    cells
}

/// The paper-vs-tuned "best of" Fig 12 variant: every cell autotunes one
/// `(collective, geometry, payload)` request and reports the paper's
/// Table V time next to the tuned winner's. Cells fan out over `workers`
/// threads; the tuner itself is deterministic and the schedule cache
/// dedups concurrent sweeps, so the table is byte-identical at any
/// worker count and any cache warmth.
#[must_use]
pub fn fig12_best(workers: usize) -> Table {
    let rows = par::map_ordered_with(workers, fig12_best_cells(), |(kind, dpus, elems)| {
        let geometry = PimGeometry::paper_scaled(dpus);
        let choice = pimnet::schedule::autotune::tune(kind, &geometry, elems, 4)
            .expect("every pinned cell tunes");
        [
            kind.to_string(),
            dpus.to_string(),
            elems.to_string(),
            us(choice.paper_time),
            us(choice.tuned_time),
            x(choice.speedup()),
            choice.spec(),
            choice.candidates.to_string(),
            choice.rejected.to_string(),
        ]
    });
    let mut t = Table::new(
        "Fig 12 best-of: paper Table V schedules vs autotuned hierarchical compositions",
        &[
            "kind",
            "dpus",
            "elems",
            "paper_us",
            "tuned_us",
            "speedup",
            "winner",
            "candidates",
            "rejected",
        ],
    );
    for row in rows {
        t.row(row);
    }
    t
}

/// One Fig 11 row set over an explicit workload list: the PIMnet
/// communication-time breakdown plus the speedup over the reference
/// backend (DIMM-Link, or NDPBridge for All-to-All workloads).
///
/// The breakdown columns are sourced from the [`pim_sim::MetricsReport`]
/// that [`run_program_probed`] fills — per-tier communication time plus
/// the sync/mem buckets — rather than from hand-rolled accumulation over
/// [`pimnet::timing::CommBreakdown`] fields; the metrics sink counts in
/// exact integer picoseconds, so the output is byte-identical to the
/// pre-metrics formula (`tests` below pin this).
#[must_use]
pub fn fig11_table_for(suite: &[Box<dyn Workload>]) -> Table {
    let sys = SystemConfig::paper();
    let fabric = FabricConfig::paper();
    let pim = PimnetBackend::new(sys, fabric);
    let dimm = DimmLinkBackend::new(sys, fabric);
    let ndp = NdpBridgeBackend::new(sys);

    let mut t = Table::new(
        "Fig 11: PIMnet communication-time breakdown and speedup vs D (or N for A2A)",
        &[
            "workload",
            "inter-bank",
            "inter-chip",
            "inter-rank",
            "sync",
            "mem",
            "vs",
            "comm-speedup",
        ],
    );
    for w in suite {
        let program = w.program(&sys);
        let probe = Probe::metrics_only();
        run_program_probed(&program, &sys, &pim, &probe).expect("pimnet run");
        let r = probe.metrics.snapshot();
        let comm_total = SimTime::from_ps(
            r.comm_time_ps_by_tier.iter().sum::<u64>()
                + r.sync_time_ps
                + r.mem_time_ps
                + r.host_time_ps,
        );
        let frac = |ps: u64| pct(SimTime::from_ps(ps).ratio(comm_total));

        // Reference system: DIMM-Link, except for A2A workloads where the
        // paper normalizes to NDPBridge.
        let uses_a2a = program
            .collective_kinds()
            .contains(&CollectiveKind::AllToAll);
        let (ref_name, reference): (&str, &dyn CollectiveBackend) =
            if uses_a2a { ("N", &ndp) } else { ("D", &dimm) };
        let reference = run_program(&program, &sys, reference).expect("reference run");

        t.row([
            w.name().to_string(),
            frac(r.comm_time_ps_by_tier[1]),
            frac(r.comm_time_ps_by_tier[2]),
            frac(r.comm_time_ps_by_tier[3]),
            frac(r.sync_time_ps),
            frac(r.mem_time_ps),
            ref_name.to_string(),
            x(reference.comm.total().ratio(comm_total)),
        ]);
    }
    t
}

/// The full-suite Fig 11 table (what the `fig11_comm_breakdown` binary
/// prints).
#[must_use]
pub fn fig11_table() -> Table {
    fig11_table_for(&pim_workloads::paper_suite())
}

/// The Fig 13 credit-vs-scheduled table, rows computed on `workers`
/// threads.
///
/// Completion columns are sourced from the `wall_ps` watermark of each
/// simulation's [`pim_sim::MetricsReport`] — both NoC simulators record
/// their completion time there in exact picoseconds, so the table is
/// byte-identical to reading `NocReport::completion` directly (`tests`
/// below pin this).
#[must_use]
pub fn fig13_table(workers: usize) -> Table {
    use pim_noc::{simulate_credit_probed, simulate_scheduled_probed, NocConfig};
    use pim_sim::rng::SimRng;

    fn ready_times(n: u32, mean_us: f64, jitter: f64, seed: u64) -> Vec<SimTime> {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let f = 1.0 + rng.gen_range(-jitter..=jitter);
                SimTime::from_secs_f64(mean_us * 1e-6 * f)
            })
            .collect()
    }

    let configs = vec![
        (CollectiveKind::AllReduce, 64u32, 2048usize),
        (CollectiveKind::AllReduce, 64, 8192),
        (CollectiveKind::AllToAll, 64, 2048),
        (CollectiveKind::AllToAll, 64, 8192),
    ];
    let rows = par::map_ordered_with(workers, configs, |(kind, n, elems)| {
        let cfg = NocConfig::paper();
        let g = PimGeometry::paper_scaled(n);
        let req = ScheduleRequest::new(kind, &g, elems, 4);
        let s = cache::get::<CommSchedule>(&req, Probe::disabled()).expect("schedule");
        let ready = ready_times(n, 50.0, 0.10, 0x000F_1613);
        let credit_probe = Probe::metrics_only();
        let _ = simulate_credit_probed(&s, &ready, &cfg, &credit_probe);
        let sched_probe = Probe::metrics_only();
        let _ = simulate_scheduled_probed(&s, &ready, &cfg, &sched_probe);
        let credit = SimTime::from_ps(credit_probe.metrics.snapshot().wall_ps);
        let sched = SimTime::from_ps(sched_probe.metrics.snapshot().wall_ps);
        let gain = 1.0 - sched.as_secs_f64() / credit.as_secs_f64();
        [
            kind.to_string(),
            n.to_string(),
            (elems * 4 / 1024).to_string(),
            us(credit),
            us(sched),
            format!("{:+.1}%", gain * 100.0),
        ]
    });
    let mut t = Table::new(
        "Fig 13: credit-based vs PIM-controlled completion time (us)",
        &[
            "collective",
            "DPUs",
            "KB/DPU",
            "credit",
            "scheduled",
            "PIM-control gain",
        ],
    );
    for row in rows {
        t.row(row);
    }
    t
}

/// The two Fig 14 bandwidth-sweep tables, rows computed on `workers`
/// threads.
#[must_use]
pub fn fig14_tables(workers: usize) -> (Table, Table) {
    let sys = SystemConfig::paper();
    let spec = CollectiveSpec::new(CollectiveKind::AllReduce, Bytes::kib(32));
    let dimm = DimmLinkBackend::new(sys, FabricConfig::paper())
        .collective(&spec)
        .expect("dimm-link")
        .total();

    let rows_a = par::map_ordered_with(workers, vec![1u32, 2, 3, 5, 7, 10], move |tenths| {
        let bw = Bandwidth::mbps(f64::from(tenths) * 100.0);
        let fabric = FabricConfig::paper().with_bank_channel_bw(bw);
        let p = PimnetBackend::new(sys, fabric)
            .collective(&spec)
            .unwrap()
            .total();
        [
            format!("{:.1}", f64::from(tenths) / 10.0),
            us(p),
            us(dimm),
            x(dimm.ratio(p)),
        ]
    });
    let mut a = Table::new(
        "Fig 14(a): AllReduce vs inter-bank channel bandwidth",
        &[
            "bank GB/s",
            "PIMnet (us)",
            "DIMM-Link (us)",
            "PIMnet advantage",
        ],
    );
    for row in rows_a {
        a.row(row);
    }

    let rows_b = par::map_ordered_with(workers, vec![1u32, 2, 4, 8], move |quarters| {
        let scale = f64::from(quarters) / 4.0;
        let fabric = FabricConfig::paper()
            .with_chip_channel_bw(Bandwidth::mbps(1050.0 * scale))
            .with_rank_bus_bw(Bandwidth::mbps(16_800.0 * scale));
        let p = PimnetBackend::new(sys, fabric)
            .collective(&spec)
            .unwrap()
            .total();
        [
            format!("{scale:.2}x"),
            format!("{:.2}", 1.05 * scale),
            format!("{:.1}", 16.8 * scale),
            us(p),
            x(dimm.ratio(p)),
        ]
    });
    let mut b = Table::new(
        "Fig 14(b): AllReduce vs inter-chip/inter-rank bandwidth (inter-bank fixed at 0.7)",
        &[
            "global scale",
            "chip GB/s",
            "rank GB/s",
            "PIMnet (us)",
            "PIMnet advantage",
        ],
    );
    for row in rows_b {
        b.row(row);
    }
    (a, b)
}

// ---------------------------------------------------------------------------
// Fig 17: multi-tenancy through the serving engine
// ---------------------------------------------------------------------------

/// One tenant's 32 KiB-per-DPU AllReduce through `pimnet::serve`,
/// returning the service duration of its first completed request.
///
/// The serving engine prices the analytic path exactly like
/// `PimnetBackend::collective` (cached schedule + timing at zero skew)
/// and the forced-fallback path exactly like `BaselineHostBackend`, so
/// fig 17's numbers re-sourced through the engine are bit-identical to
/// the direct backend calls the figure originally made.
fn fig17_tenant_latency(
    fabric: FabricConfig,
    host: Option<pim_arch::HostLink>,
    force_host: bool,
) -> SimTime {
    let mut cfg = pimnet::serve::ServeConfig::uniform(1, 0x17);
    cfg.fabric = fabric;
    cfg.host = host;
    if force_host {
        // A zero fallback threshold pins the overload ladder at the
        // host tier from the first dispatch: this *is* the host-based
        // system of the figure.
        cfg.overload = pimnet::serve::OverloadThresholds {
            shrink_at: 0,
            shed_at: 0,
            fallback_at: 0,
        };
    }
    cfg.chunk_elems = 8192; // one chunk: the whole collective
    let t = &mut cfg.tenants[0];
    t.elems_per_node = 8192; // 32 KiB per DPU at 4 B/element
    t.channels = 1;
    t.token_every_ps = 0; // unmetered
    t.deadline_ps = 1_000_000_000_000; // the figure times service, not SLOs
    t.mean_gap_ps = 400_000_000;
    let report = pimnet::serve::serve(&cfg).expect("fig17 serve config is valid");
    let first = report
        .log
        .iter()
        .find_map(|r| match r.outcome {
            pimnet::serve::RequestOutcome::Served {
                start_ps, end_ps, ..
            }
            | pimnet::serve::RequestOutcome::HostFallback { start_ps, end_ps } => {
                Some(end_ps - start_ps)
            }
            _ => None,
        })
        .expect("at least one request completes");
    SimTime::from_ps(first)
}

/// Fig 17: per-tenant AllReduce latency, alone vs co-tenant, host-based
/// vs PIMnet — every cell served by the multi-tenant engine.
#[must_use]
pub fn fig17_table() -> Table {
    // Each tenant: 2 ranks x 8 chips x 8 banks = 128 DPUs (the default
    // serve tenant shard). Alone, the tenant has the paper's machine to
    // itself; co-tenancy time-shares the host path (half bandwidth) and
    // the inter-rank bus, while PIMnet's ring and crossbar tiers stay
    // physically private to each tenant's ranks.
    let sys = pim_arch::SystemConfig::paper();
    let halved_host = pim_arch::HostLink {
        pim_to_cpu: sys.host.pim_to_cpu.split(2),
        cpu_to_pim: sys.host.cpu_to_pim.split(2),
        cpu_broadcast: sys.host.cpu_broadcast.split(2),
        host_reduce_bw: sys.host.host_reduce_bw.split(2),
        marshal_bw: sys.host.marshal_bw.split(2),
        ..sys.host
    };
    let base_alone = fig17_tenant_latency(FabricConfig::paper(), None, true);
    let base_shared = fig17_tenant_latency(FabricConfig::paper(), Some(halved_host), true);
    let pim_alone = fig17_tenant_latency(FabricConfig::paper(), None, false);
    let shared_fabric = FabricConfig::paper().with_rank_bus_bw(Bandwidth::gbps(16.8).split(2));
    let pim_shared = fig17_tenant_latency(shared_fabric, None, false);

    let mut t = Table::new(
        "Fig 17: per-tenant AllReduce (128-DPU tenant, 32 KB/DPU)",
        &["system", "alone (us)", "co-tenant (us)", "slowdown"],
    );
    t.row([
        "host-based".to_string(),
        us(base_alone),
        us(base_shared),
        format!("{:.2}x", base_shared.ratio(base_alone)),
    ]);
    t.row([
        "PIMnet".to_string(),
        us(pim_alone),
        us(pim_shared),
        format!("{:.2}x", pim_shared.ratio(pim_alone)),
    ]);
    t
}

// ---------------------------------------------------------------------------
// Multi-tenant serving soak
// ---------------------------------------------------------------------------

/// Simulated horizon of one serving cell: arrivals are sampled on
/// 1 ms; queued work drains past it.
pub const SERVE_HORIZON_PS: u64 = 1_000_000_000;

/// DLRM-flavored tenants for the serving sweeps: each tenant issues the
/// embedding-exchange collective of one of the paper's RM stand-ins
/// (fig 10), cycled across the tenant list. Elements per node are one
/// step's pooled-partial exchange (`dim x tables`); heavier models
/// request less often and carry higher priority — they are the
/// latency-critical recommenders the co-tenancy experiment protects.
#[must_use]
pub fn serve_tenants_dlrm(n: usize) -> Vec<pimnet::serve::TenantConfig> {
    use pim_workloads::emb::Emb;
    let flavors = [Emb::rm1(), Emb::rm2(), Emb::rm3()];
    (0..n)
        .map(|i| {
            let f = &flavors[i % flavors.len()];
            let mut t =
                pimnet::serve::TenantConfig::new(&format!("{}-{i}", f.name().to_lowercase()));
            t.elems_per_node = (f.dim * f.tables) as usize;
            t.priority = 1 + (i % flavors.len()) as u8;
            t.mean_gap_ps = 50_000_000 * (1 + (i % flavors.len()) as u64);
            t
        })
        .collect()
}

/// The serving config of one soak cell — DLRM tenants under the
/// priority policy; `storm` additionally samples a seeded fault
/// timeline over the horizon, routing faulted dispatches through the
/// runtime recovery manager.
#[must_use]
pub fn serve_soak_config(tenants: usize, seed: u64, storm: bool) -> pimnet::serve::ServeConfig {
    let mut cfg = pimnet::serve::ServeConfig::uniform(tenants, seed);
    cfg.tenants = serve_tenants_dlrm(tenants);
    cfg.policy = pimnet::serve::QueuePolicy::Priority;
    cfg.horizon_ps = SERVE_HORIZON_PS;
    if storm {
        let g = &cfg.tenants[0].geometry;
        let timeline = FaultTimeline::sample(
            seed,
            g.ranks_per_channel,
            g.chips_per_rank,
            g.banks_per_chip,
            SERVE_HORIZON_PS,
            &recovery_rates(),
        );
        cfg.faults = FaultConfig {
            timeline,
            max_retries: 8,
            ..FaultConfig::none()
        }
        .with_seed(seed);
    }
    cfg
}

/// What one serving cell (one seed, clean or storm) did.
struct ServeCell {
    seed: u64,
    storm: bool,
    requests: usize,
    served: usize,
    host_fallback: usize,
    shed: usize,
    quarantined: usize,
    peak: u8,
    end_ps: u64,
    /// Latencies of the served requests, for cross-cell percentiles.
    latencies_ps: Vec<u64>,
    /// The rendered request log — the byte-identity artifact.
    log: String,
    /// First soundness violation; any `Some` fails the soak.
    unsound: Option<String>,
}

/// Runs one serving cell and re-verifies the soundness contract from
/// the outside (exactly-one-outcome arity, monotone ladder, monotone
/// quarantine epochs).
fn serve_cell(tenants: usize, seed: u64, storm: bool) -> ServeCell {
    let cfg = serve_soak_config(tenants, seed, storm);
    let report = match pimnet::serve::serve(&cfg) {
        Ok(r) => r,
        Err(e) => {
            return ServeCell {
                seed,
                storm,
                requests: 0,
                served: 0,
                host_fallback: 0,
                shed: 0,
                quarantined: 0,
                peak: 0,
                end_ps: 0,
                latencies_ps: Vec::new(),
                log: String::new(),
                unsound: Some(format!("serve returned a config error: {e}")),
            }
        }
    };
    let mut unsound = None;
    let arrivals = pimnet::serve::sample_arrivals(&cfg);
    if report.log.len() != arrivals.len() {
        unsound = Some(format!(
            "{} log entries for {} arrivals",
            report.log.len(),
            arrivals.len()
        ));
    }
    let mut level = 0u8;
    for s in &report.ladder {
        if s.level < level && unsound.is_none() {
            unsound = Some(format!("ladder dropped to {} at {} ps", s.level, s.at_ps));
        }
        level = level.max(s.level);
    }
    let mut epochs = vec![0u64; cfg.tenants.len()];
    for q in &report.quarantines {
        let e = &mut epochs[q.tenant as usize];
        if q.epoch < *e && unsound.is_none() {
            unsound = Some(format!(
                "tenant {} epoch regressed to {}",
                q.tenant, q.epoch
            ));
        }
        *e = q.epoch;
    }
    ServeCell {
        seed,
        storm,
        requests: report.log.len(),
        served: report.count("served"),
        host_fallback: report.count("host-fallback"),
        shed: report.count("shed"),
        quarantined: report.count("quarantined"),
        peak: report.peak_level(),
        end_ps: report.end_ps,
        latencies_ps: report.latencies_ps(),
        log: report.render_log(&cfg),
        unsound,
    }
}

/// Aggregates of a serving soak — the table, the concatenated request
/// logs (byte-identical at any worker count), and the pinned serving
/// metrics the perf gate tracks.
pub struct ServeSummary {
    /// One row per cell.
    pub table: Table,
    /// Every cell's request log, concatenated in cell order.
    pub log: String,
    /// Requests across every cell.
    pub total: u64,
    /// Outcome totals across every cell.
    pub served: u64,
    /// Host-fallback outcomes across every cell.
    pub host_fallback: u64,
    /// Shed outcomes across every cell.
    pub shed: u64,
    /// Quarantine-shed outcomes across every cell.
    pub quarantined: u64,
    /// Median served latency across the clean cells, microseconds.
    pub p50_us: f64,
    /// Tail served latency across the clean cells, microseconds.
    pub p99_us: f64,
    /// Served collectives per simulated second across the clean cells.
    pub collectives_per_sec: f64,
    /// Soundness violations (any nonzero fails the caller).
    pub unsound: u64,
}

/// Nearest-rank percentile of a sorted slice, in microseconds.
fn percentile_us(sorted_ps: &[u64], p: f64) -> f64 {
    if sorted_ps.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0 * sorted_ps.len() as f64).ceil() as usize).clamp(1, sorted_ps.len());
    sorted_ps[rank - 1] as f64 / 1e6
}

/// The serving soak: `per_mode` clean seeds plus `per_mode` storm seeds
/// over `tenants` DLRM tenants, fanned out over `workers` threads with
/// ordered collection — the table and the concatenated logs are
/// byte-identical at any worker count.
#[must_use]
pub fn serve_soak(tenants: usize, per_mode: u64, base: u64, workers: usize) -> ServeSummary {
    let cells: Vec<(u64, bool)> = (0..per_mode)
        .map(|i| (base + i, false))
        .chain((0..per_mode).map(|i| (base + i, true)))
        .collect();
    let rows = par::map_ordered_with(workers, cells, |(seed, storm)| {
        serve_cell(tenants, seed, storm)
    });

    let mut table = Table::new(
        &format!("serving soak: {tenants} DLRM tenants, {per_mode} seed(s) per mode"),
        &[
            "seed",
            "mode",
            "requests",
            "served",
            "host-fb",
            "shed",
            "quarantined",
            "p50 (us)",
            "p99 (us)",
            "coll/s",
            "peak",
            "end (us)",
            "verdict",
        ],
    );
    let mut summary = ServeSummary {
        table: Table::new("", &[]),
        log: String::new(),
        total: 0,
        served: 0,
        host_fallback: 0,
        shed: 0,
        quarantined: 0,
        p50_us: 0.0,
        p99_us: 0.0,
        collectives_per_sec: 0.0,
        unsound: 0,
    };
    let mut clean_lat: Vec<u64> = Vec::new();
    let mut clean_served = 0u64;
    let mut clean_end_ps = 0u64;
    for c in &rows {
        let mut lat = c.latencies_ps.clone();
        lat.sort_unstable();
        table.row([
            c.seed.to_string(),
            if c.storm { "storm" } else { "clean" }.to_string(),
            c.requests.to_string(),
            c.served.to_string(),
            c.host_fallback.to_string(),
            c.shed.to_string(),
            c.quarantined.to_string(),
            format!("{:.3}", percentile_us(&lat, 50.0)),
            format!("{:.3}", percentile_us(&lat, 99.0)),
            format!(
                "{:.1}",
                if c.end_ps == 0 {
                    0.0
                } else {
                    c.served as f64 / (c.end_ps as f64 / 1e12)
                }
            ),
            c.peak.to_string(),
            format!("{:.1}", c.end_ps as f64 / 1e6),
            c.unsound.clone().unwrap_or_else(|| "ok".to_string()),
        ]);
        summary.log.push_str(&c.log);
        summary.total += c.requests as u64;
        summary.served += c.served as u64;
        summary.host_fallback += c.host_fallback as u64;
        summary.shed += c.shed as u64;
        summary.quarantined += c.quarantined as u64;
        summary.unsound += u64::from(c.unsound.is_some());
        if !c.storm {
            clean_lat.extend_from_slice(&c.latencies_ps);
            clean_served += c.served as u64;
            clean_end_ps += c.end_ps;
        }
    }
    clean_lat.sort_unstable();
    summary.p50_us = percentile_us(&clean_lat, 50.0);
    summary.p99_us = percentile_us(&clean_lat, 99.0);
    if clean_end_ps > 0 {
        summary.collectives_per_sec = clean_served as f64 / (clean_end_ps as f64 / 1e12);
    }
    summary.table = table;
    summary
}

/// Geometries the boost-mode scaling sweep prices.
pub const SCALING_GEOMETRIES: [u32; 3] = [8, 64, 256];
/// Elements per node of every scaling cell — divisible everywhere, so
/// the boosted reconstruction must be bit-exact in every cell.
pub const SCALING_ELEMS: usize = 1024;

/// One cell of the boost-mode scaling sweep: repeated warm-cache pricing
/// (timeline + timing breakdown) of one collective at one geometry, full
/// schedule vs boost plan.
#[derive(Debug, Clone)]
pub struct ScalingCell {
    /// Collective priced.
    pub kind: CollectiveKind,
    /// Total DPUs.
    pub dpus: u32,
    /// Min wall time of one full pricing pass (ms).
    pub full_ms: f64,
    /// Min wall time of one boosted pricing pass (ms).
    pub boost_ms: f64,
    /// `full_ms / boost_ms`.
    pub speedup: f64,
    /// Transfer-count reduction of the thin slice.
    pub reduction: f64,
    /// The boosted breakdown equalled the full walk bit-for-bit.
    pub exact: bool,
}

/// Prices every Table V collective at [`SCALING_GEOMETRIES`] through the
/// full path (`Timeline::build` + `time_schedule`) and the boosted path
/// ([`pimnet::schedule::boost`] timeline + breakdown), `reps` times each,
/// keeping the per-cell minimum wall time.
///
/// Schedules and plans are prewarmed through the cache on `workers`
/// threads (the fan-out idiom of the other sweeps); the timed passes run
/// sequentially so the two paths see identical, uncontended conditions —
/// the speedup is a same-machine ratio, not an absolute.
#[must_use]
pub fn scaling_cells(reps: u32, workers: usize) -> Vec<ScalingCell> {
    use std::time::Instant;

    let items: Vec<(CollectiveKind, u32)> = CollectiveKind::ALL
        .iter()
        .flat_map(|&kind| SCALING_GEOMETRIES.iter().map(move |&d| (kind, d)))
        .collect();
    // Warm the schedule + plan caches in parallel; measurement below then
    // never builds.
    par::map_ordered_with(workers, items.clone(), |(kind, dpus)| {
        let req = ScheduleRequest::new(kind, &PimGeometry::paper_scaled(dpus), SCALING_ELEMS, 4);
        cache::get::<BoostPlan>(&req, Probe::disabled()).expect("boost plan builds");
    });

    let timing = TimingModel::paper();
    items
        .into_iter()
        .map(|(kind, dpus)| {
            let req =
                ScheduleRequest::new(kind, &PimGeometry::paper_scaled(dpus), SCALING_ELEMS, 4);
            let s = cache::get::<CommSchedule>(&req, Probe::disabled()).expect("schedule builds");
            let plan = cache::get::<BoostPlan>(&req, Probe::disabled()).expect("plan builds");

            let full_bd = timing.time_schedule(s.as_ref(), SimTime::ZERO);
            let boost_bd = plan.breakdown(&timing, SimTime::ZERO);
            let exact = full_bd == boost_bd;

            let mut full_s = f64::INFINITY;
            let mut boost_s = f64::INFINITY;
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                let tl = pimnet::timeline::Timeline::build(s.as_ref(), &timing);
                let bd = timing.time_schedule(s.as_ref(), SimTime::ZERO);
                std::hint::black_box((tl.end, bd));
                full_s = full_s.min(t0.elapsed().as_secs_f64());

                let t1 = Instant::now();
                let tl = plan.timeline(&timing);
                let bd = plan.breakdown(&timing, SimTime::ZERO);
                std::hint::black_box((tl.end, bd));
                boost_s = boost_s.min(t1.elapsed().as_secs_f64());
            }
            ScalingCell {
                kind,
                dpus,
                full_ms: full_s * 1e3,
                boost_ms: boost_s * 1e3,
                speedup: full_s / boost_s.max(1e-12),
                reduction: plan.reduction(),
                exact,
            }
        })
        .collect()
}

/// Renders [`scaling_cells`] as the scaling-gate table.
#[must_use]
pub fn scaling_table(cells: &[ScalingCell]) -> Table {
    let mut t = Table::new(
        "Boost-mode scaling: full vs boosted pricing (warm cache, min wall time)",
        &[
            "collective",
            "DPUs",
            "full_ms",
            "boost_ms",
            "speedup",
            "reduction",
            "exact",
        ],
    );
    for c in cells {
        t.row([
            c.kind.to_string(),
            c.dpus.to_string(),
            format!("{:.4}", c.full_ms),
            format!("{:.4}", c.boost_ms),
            x(c.speedup),
            x(c.reduction),
            if c.exact { "yes" } else { "NO" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_soak_is_worker_count_invariant() {
        let seq = chaos_soak(2, 0xC40, 1);
        let par2 = chaos_soak(2, 0xC40, 2);
        assert_eq!(seq.table.to_csv(), par2.table.to_csv());
        assert_eq!(seq.total, par2.total);
        assert_eq!(seq.verified, par2.verified);
    }

    #[test]
    fn fig11_metrics_columns_match_the_hand_rolled_formula() {
        // The pre-metrics fig11 computed every column straight off the
        // ExecutionReport's CommBreakdown; the refactored table sources
        // them from the MetricsReport. Pin byte-equivalence of the two on
        // a cheap sub-suite (the full suite's graph workloads are
        // needlessly slow for a formula-equivalence check).
        let suite: Vec<Box<dyn Workload>> = vec![
            Box::new(pim_workloads::mlp::Mlp::new(1024)),
            Box::new(pim_workloads::gemv::Gemv::new(1024, 64)),
            Box::new(pim_workloads::join::HashJoin::paper()),
        ];
        let refactored = fig11_table_for(&suite).to_csv();

        let sys = SystemConfig::paper();
        let fabric = FabricConfig::paper();
        let pim = PimnetBackend::new(sys, fabric);
        let dimm = DimmLinkBackend::new(sys, fabric);
        let ndp = NdpBridgeBackend::new(sys);
        let mut t = Table::new(
            "Fig 11: PIMnet communication-time breakdown and speedup vs D (or N for A2A)",
            &[
                "workload",
                "inter-bank",
                "inter-chip",
                "inter-rank",
                "sync",
                "mem",
                "vs",
                "comm-speedup",
            ],
        );
        for w in &suite {
            let program = w.program(&sys);
            let p = run_program(&program, &sys, &pim).unwrap();
            let total = p.comm.total();
            let frac = |part: SimTime| pct(part.ratio(total));
            let uses_a2a = program
                .collective_kinds()
                .contains(&CollectiveKind::AllToAll);
            let (ref_name, reference): (&str, &dyn CollectiveBackend) =
                if uses_a2a { ("N", &ndp) } else { ("D", &dimm) };
            let r = run_program(&program, &sys, reference).unwrap();
            t.row([
                w.name().to_string(),
                frac(p.comm.inter_bank),
                frac(p.comm.inter_chip),
                frac(p.comm.inter_rank),
                frac(p.comm.sync),
                frac(p.comm.mem),
                ref_name.to_string(),
                x(r.comm.total().ratio(p.comm.total())),
            ]);
        }
        assert_eq!(refactored, t.to_csv(), "fig11 refactor changed the CSV");
    }

    #[test]
    fn fig13_metrics_columns_match_the_plain_simulators() {
        // Same pin for fig13: wall_ps-sourced completion columns must
        // reproduce the NocReport-sourced table byte-for-byte.
        use pim_noc::{simulate_credit, simulate_scheduled, NocConfig};
        use pim_sim::rng::SimRng;

        let refactored = fig13_table(1).to_csv();

        fn ready_times(n: u32, mean_us: f64, jitter: f64, seed: u64) -> Vec<SimTime> {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..n)
                .map(|_| {
                    let f = 1.0 + rng.gen_range(-jitter..=jitter);
                    SimTime::from_secs_f64(mean_us * 1e-6 * f)
                })
                .collect()
        }
        let configs = vec![
            (CollectiveKind::AllReduce, 64u32, 2048usize),
            (CollectiveKind::AllReduce, 64, 8192),
            (CollectiveKind::AllToAll, 64, 2048),
            (CollectiveKind::AllToAll, 64, 8192),
        ];
        let mut t = Table::new(
            "Fig 13: credit-based vs PIM-controlled completion time (us)",
            &[
                "collective",
                "DPUs",
                "KB/DPU",
                "credit",
                "scheduled",
                "PIM-control gain",
            ],
        );
        for (kind, n, elems) in configs {
            let cfg = NocConfig::paper();
            let g = PimGeometry::paper_scaled(n);
            let req = ScheduleRequest::new(kind, &g, elems, 4);
            let s = cache::get::<CommSchedule>(&req, Probe::disabled()).unwrap();
            let ready = ready_times(n, 50.0, 0.10, 0x000F_1613);
            let credit = simulate_credit(&s, &ready, &cfg);
            let sched = simulate_scheduled(&s, &ready, &cfg);
            let gain = 1.0 - sched.completion.as_secs_f64() / credit.completion.as_secs_f64();
            t.row([
                kind.to_string(),
                n.to_string(),
                (elems * 4 / 1024).to_string(),
                us(credit.completion),
                us(sched.completion),
                format!("{:+.1}%", gain * 100.0),
            ]);
        }
        assert_eq!(refactored, t.to_csv(), "fig13 refactor changed the CSV");
    }

    #[test]
    fn fig17_csv_is_pinned_to_the_committed_artifact() {
        // Fig 17 is now sourced through the serving engine; this pin
        // proves the re-sourcing is byte-identical to the committed
        // artifact of the original direct-backend figure.
        let committed = include_str!("../../../results/fig17_multitenancy.csv");
        assert_eq!(
            fig17_table().to_csv(),
            committed,
            "fig17 through pimnet::serve diverged from the committed CSV"
        );
    }

    #[test]
    fn serve_soak_is_worker_count_invariant_and_sound() {
        let a = serve_soak(3, 1, 0xD1, 1);
        let b = serve_soak(3, 1, 0xD1, 2);
        assert_eq!(a.table.to_csv(), b.table.to_csv());
        assert_eq!(a.log, b.log, "request logs must not depend on workers");
        assert_eq!(a.unsound, 0, "soundness contract violated");
        assert!(a.total > 0 && a.served > 0);
        assert!(a.p50_us > 0.0 && a.p99_us >= a.p50_us);
        assert!(a.collectives_per_sec > 0.0);
    }

    #[test]
    fn fig_tables_are_worker_count_invariant() {
        assert_eq!(
            fig12_table(CollectiveKind::AllReduce, 1).to_csv(),
            fig12_table(CollectiveKind::AllReduce, 3).to_csv()
        );
        assert_eq!(fig13_table(1).to_csv(), fig13_table(4).to_csv());
        let (a1, b1) = fig14_tables(1);
        let (a2, b2) = fig14_tables(2);
        assert_eq!(a1.to_csv(), a2.to_csv());
        assert_eq!(b1.to_csv(), b2.to_csv());
    }
}
