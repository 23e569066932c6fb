//! CI perf-regression gate for the parallel sweeps and the schedule cache.
//!
//! Runs a pinned workload matrix — the chaos soak, the lint preset
//! matrix, the fig 12/13/14 sweeps, and the multi-tenant serving soak
//! (whose request logs join the byte-identity check and whose clean
//! p50/p99 latency and collectives/sec land in the JSON as
//! `serve_*` keys) — three times:
//!
//! 1. **sequential, cold cache** (1 worker) — the reference output;
//! 2. **parallel, cold cache** (`workers` threads) — must be
//!    *byte-identical* to the reference, and is the wall time the gate
//!    tracks;
//! 3. **parallel, warm cache** — same again without clearing the
//!    schedule cache, to measure and count cache hits.
//!
//! Any byte difference between the runs is a hard failure: determinism
//! under parallel execution is the contract `pim_sim::par` sells.
//! The gate also measures the fault-free overhead of the runtime
//! recovery manager (plain executor vs `run_recovered` with an inactive
//! injector, interleaved min-of-k), failing when it exceeds 1 %. The
//! incremental re-lint speedup is gated by `layer_ledger`.
//! Results land in `results/BENCH_perf.json`, with the host's core
//! count as `available_parallelism`; when a committed baseline
//! (`results/perf_baseline.json`) exists, the gate fails on a wall-time
//! regression beyond 25 %. Every bound is a constant below. The serving
//! metrics are simulated time, deterministic to the picosecond, so
//! `tests/serve_soak.rs` pins them exactly instead of gating them here.
//!
//! On hosts with fewer than two available cores the sequential/parallel
//! wall-time ratio is scheduler noise, not a speedup — the JSON then
//! carries a `note` instead of the `speedup`/`warm_speedup` keys and the
//! byte-identity checks still run in full.
//!
//! Usage: `perf_gate [workers] [--update-baseline]` (default workers:
//! `PIMNET_THREADS` or the machine's available parallelism).

use std::fmt::Write as _;
use std::time::Instant;

use pim_sim::par;
use pimnet::analysis::presets;
use pimnet::collective::CollectiveKind;
use pimnet::schedule::cache::{self, ScheduleRequest};
use pimnet::schedule::CommSchedule;
use pimnet_bench::{json_number, results_dir, sweeps};

/// Seeds per chaos-soak cell — small enough to keep the gate fast, large
/// enough that the parallel fan-out dominates the fixed costs.
const CHAOS_PER_CELL: u64 = 4;
const CHAOS_BASE_SEED: u64 = 0xC40;

/// Largest wall-time regression against the baseline, as a fraction.
const WALL_TOLERANCE: f64 = 0.25;
/// Largest fault-free overhead of the recovery manager over the plain
/// executor, as a fraction.
const RECOVERY_OVERHEAD_LIMIT: f64 = 0.01;

/// Interleaved min-of-k comparison of `plain` vs `variant`, sampled in
/// rounds until the measured overhead drops to `budget` or the rounds
/// run out.
///
/// The overhead gate is one-sided: it only needs evidence that the
/// variant *can* run as fast as the plain path, so once the running
/// minima meet the budget there is nothing left to prove and sampling
/// stops. Noise can only delay that verdict — a preempted iteration
/// inflates itself, never the floor — while a real regression stays
/// over budget no matter how long the sampler runs. Rounds are spaced
/// by a short sleep so a single noisy scheduling burst cannot cover
/// every sample; negative deltas clamp to zero (the minimum of either
/// variant can land on a quiet slice of the machine).
fn measured_overhead(budget: f64, mut plain: impl FnMut(), mut variant: impl FnMut()) -> f64 {
    const ROUND: u32 = 20;
    const MAX_ROUNDS: u32 = 15;
    let mut best_plain = f64::INFINITY;
    let mut best_variant = f64::INFINITY;
    let mut overhead = f64::INFINITY;
    for round in 0..MAX_ROUNDS {
        if round > 0 {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        for _ in 0..ROUND {
            let t0 = Instant::now();
            plain();
            best_plain = best_plain.min(t0.elapsed().as_secs_f64());
            let t1 = Instant::now();
            variant();
            best_variant = best_variant.min(t1.elapsed().as_secs_f64());
        }
        overhead = ((best_variant - best_plain) / best_plain).max(0.0);
        if overhead <= budget {
            break;
        }
    }
    overhead
}

/// Measures the fault-free cost of routing execution through the runtime
/// recovery manager: the plain cached-plan + executor pipeline vs
/// `run_recovered` holding an inactive injector.
///
/// The manager's fast path is one `is_active()` branch plus a planning
/// call the schedule cache absorbs, so recovery must stay free until
/// faults actually arrive — this check pins that guarantee as the
/// manager accretes machinery, timed with [`measured_overhead`].
fn recovery_overhead(budget: f64) -> f64 {
    use pim_arch::geometry::{DpuId, PimGeometry};
    use pim_faults::FaultInjector;
    use pimnet::exec::{ExecMachine, ReduceOp};
    use pimnet::recovery::{run_recovered, RecoveryRequest};
    use pimnet::timing::TimingModel;

    const ELEMS: usize = 1024;
    let g = PimGeometry::paper_scaled(64);
    let sys = pim_arch::SystemConfig::paper_scaled(64);
    let timing = TimingModel::paper();
    let injector = FaultInjector::none();
    let req = ScheduleRequest::new(CollectiveKind::AllReduce, &g, ELEMS, 8);
    let s = cache::get::<CommSchedule>(&req, pim_sim::Probe::disabled())
        .expect("schedule")
        .as_ref()
        .clone();
    let init = |id: DpuId| vec![u64::from(id.0) + 1; ELEMS];

    let plain = || {
        let mut m = ExecMachine::init(&s, init);
        m.run(&s, ReduceOp::Sum);
        std::hint::black_box(m);
    };
    let recovered = || {
        let req = RecoveryRequest {
            kind: CollectiveKind::AllReduce,
            geometry: &g,
            elems_per_node: ELEMS,
            elem_bytes: 8,
            op: ReduceOp::Sum,
            injector: &injector,
            system: &sys,
            timing: &timing,
        };
        let out = run_recovered::<u64>(&req, init, pim_sim::Probe::disabled())
            .expect("fault-free recovery");
        std::hint::black_box(out);
    };

    // Warmup also warms the schedule cache, so both variants plan for
    // free inside the timed region.
    plain();
    recovered();
    measured_overhead(budget, plain, recovered)
}

/// Tenants and seeds-per-mode of the pinned serving workload.
const SERVE_TENANTS: usize = 3;
const SERVE_PER_MODE: u64 = 1;
const SERVE_BASE_SEED: u64 = 0xD1;

/// Runs the pinned workload matrix on `workers` threads and returns its
/// entire output as one string (concatenated CSVs, the lint matrix
/// verdict lines, and the serving soak's table plus request logs) —
/// byte-identical across worker counts by construction — together with
/// the serving summary whose latency metrics the gate reports.
fn workload(workers: usize) -> (String, sweeps::ServeSummary) {
    let mut out = String::new();
    let chaos = sweeps::chaos_soak(CHAOS_PER_CELL, CHAOS_BASE_SEED, workers);
    out.push_str(&chaos.table.to_csv());
    let verdicts = par::map_ordered_with(workers, presets::cases(), |case| {
        let verdict = match case.run() {
            Ok(r) if r.is_clean() => "clean".to_string(),
            Ok(r) => format!("errors:{}", r.error_count()),
            Err(_) => "skip".to_string(),
        };
        format!("{},{verdict}\n", case.label())
    });
    out.extend(verdicts);
    out.push_str(&sweeps::fig12_table(CollectiveKind::AllReduce, workers).to_csv());
    out.push_str(&sweeps::fig12_table(CollectiveKind::AllToAll, workers).to_csv());
    out.push_str(&sweeps::fig13_table(workers).to_csv());
    let (a, b) = sweeps::fig14_tables(workers);
    out.push_str(&a.to_csv());
    out.push_str(&b.to_csv());
    let serve = sweeps::serve_soak(SERVE_TENANTS, SERVE_PER_MODE, SERVE_BASE_SEED, workers);
    out.push_str(&serve.table.to_csv());
    out.push_str(&serve.log);
    (out, serve)
}

fn timed(workers: usize) -> (String, sweeps::ServeSummary, f64) {
    let start = Instant::now();
    let (csv, serve) = workload(workers);
    (csv, serve, start.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let mut workers: Option<usize> = None;
    let mut update_baseline = false;
    for arg in std::env::args().skip(1) {
        if arg == "--update-baseline" {
            update_baseline = true;
        } else if let Ok(n) = arg.parse::<usize>() {
            workers = Some(n.max(1));
        } else {
            eprintln!("perf_gate: unknown argument '{arg}'");
            eprintln!("usage: perf_gate [workers] [--update-baseline]");
            std::process::exit(2);
        }
    }
    let workers = workers.unwrap_or_else(par::thread_count);

    println!("perf gate: pinned workload matrix, 1 vs {workers} worker(s), cold vs warm cache");

    cache::clear();
    cache::reset_stats();
    let (seq_csv, _, seq_ms) = timed(1);
    println!("  sequential cold : {seq_ms:>9.1} ms");

    cache::clear();
    cache::reset_stats();
    let (par_csv, serve, par_ms) = timed(workers);
    let cold = cache::stats();
    println!(
        "  parallel cold   : {par_ms:>9.1} ms  ({} schedules built)",
        cold.schedules_built
    );

    cache::reset_stats();
    let (warm_csv, _, warm_ms) = timed(workers);
    let warm = cache::stats();
    println!(
        "  parallel warm   : {warm_ms:>9.1} ms  ({} cache hits, {} misses)",
        warm.hits, warm.misses
    );

    if par_csv != seq_csv {
        eprintln!("FAIL: parallel output differs from sequential output");
        std::process::exit(1);
    }
    if warm_csv != seq_csv {
        eprintln!("FAIL: warm-cache output differs from cold-cache output");
        std::process::exit(1);
    }
    if warm.hits == 0 {
        eprintln!("FAIL: warm run recorded no schedule-cache hits");
        std::process::exit(1);
    }
    // On 1–2 core hosts the "parallel" run cannot beat the sequential
    // one — the workers time-slice the same core(s) and the measured
    // ratio is scheduler noise (historically reported as a spurious
    // `speedup: 0.667`). Report the ratio only where it means something.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let parallel_meaningful = cores >= 2 && workers >= 2;
    let speedup = seq_ms / par_ms.max(1e-9);
    let warm_speedup = seq_ms / warm_ms.max(1e-9);
    if parallel_meaningful {
        println!(
            "  byte-identical output at every worker count; speedup {speedup:.2}x \
             (warm {warm_speedup:.2}x)"
        );
    } else {
        println!(
            "  byte-identical output at every worker count; parallel speedup \
             not meaningful on {cores} core(s) with {workers} worker(s)"
        );
    }

    let recov_overhead = recovery_overhead(RECOVERY_OVERHEAD_LIMIT);
    println!(
        "  fault-free recovery overhead: {:.2}% (limit {:.0}%)",
        recov_overhead * 100.0,
        RECOVERY_OVERHEAD_LIMIT * 100.0
    );
    if recov_overhead > RECOVERY_OVERHEAD_LIMIT {
        eprintln!(
            "FAIL: the recovery manager's fault-free fast path costs {:.2}% \
             over the plain executor (limit {:.0}%; load on the host only \
             inflates the minima, so re-run once before believing it)",
            recov_overhead * 100.0,
            RECOVERY_OVERHEAD_LIMIT * 100.0
        );
        std::process::exit(1);
    }

    if serve.unsound > 0 {
        eprintln!(
            "FAIL: the pinned serving workload violated its soundness \
             contract in {} cell(s)",
            serve.unsound
        );
        std::process::exit(1);
    }
    println!(
        "  serving ({} requests): p50 {:.3} us  p99 {:.3} us  \
         {:.1} collectives/s",
        serve.total, serve.p50_us, serve.p99_us, serve.collectives_per_sec
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"wall_ms\": {par_ms:.1},");
    let _ = writeln!(json, "  \"wall_ms_sequential\": {seq_ms:.1},");
    let _ = writeln!(json, "  \"wall_ms_warm\": {warm_ms:.1},");
    let _ = writeln!(json, "  \"schedules_built\": {},", cold.schedules_built);
    let _ = writeln!(json, "  \"cache_hits\": {},", warm.hits);
    if parallel_meaningful {
        let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
        let _ = writeln!(json, "  \"warm_speedup\": {warm_speedup:.3},");
    } else {
        let _ = writeln!(
            json,
            "  \"note\": \"parallel speedup omitted: {cores} core(s), {workers} worker(s)\","
        );
    }
    let _ = writeln!(json, "  \"recovery_overhead_frac\": {recov_overhead:.4},");
    let _ = writeln!(json, "  \"serve_requests\": {},", serve.total);
    let _ = writeln!(json, "  \"serve_p50_us\": {:.3},", serve.p50_us);
    let _ = writeln!(json, "  \"serve_p99_us\": {:.3},", serve.p99_us);
    let _ = writeln!(
        json,
        "  \"serve_collectives_per_sec\": {:.1},",
        serve.collectives_per_sec
    );
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(json, "  \"workers\": {workers}");
    json.push('}');
    json.push('\n');

    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perf_gate: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let out_path = dir.join("BENCH_perf.json");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("perf_gate: cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    println!("[json] {}", out_path.display());

    let baseline_path = dir.join("perf_baseline.json");
    if update_baseline {
        if let Err(e) = std::fs::write(&baseline_path, &json) {
            eprintln!("perf_gate: cannot write {}: {e}", baseline_path.display());
            std::process::exit(1);
        }
        println!("[json] {} (baseline updated)", baseline_path.display());
        return;
    }
    let Ok(baseline) = std::fs::read_to_string(&baseline_path) else {
        println!(
            "no baseline at {} — run with --update-baseline to record one",
            baseline_path.display()
        );
        return;
    };
    let Some(base_ms) = json_number(&baseline, "wall_ms") else {
        eprintln!(
            "perf_gate: baseline has no wall_ms: {}",
            baseline_path.display()
        );
        std::process::exit(1);
    };
    let limit = base_ms * (1.0 + WALL_TOLERANCE);
    if par_ms > limit {
        eprintln!(
            "FAIL: wall time {par_ms:.1} ms exceeds baseline {base_ms:.1} ms \
             by more than {:.0}% (limit {limit:.1} ms)",
            WALL_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "within budget: {par_ms:.1} ms vs baseline {base_ms:.1} ms \
         (+{:.0}% tolerance)",
        WALL_TOLERANCE * 100.0
    );
}
