//! Per-layer host-time ledger of the request path.
//!
//! PIMnet prices every collective from a static schedule, so all of this
//! reproduction's host time sits in one chain of layers: build → flatten
//! → validate → analysis → boost plan → pricing → exec. One sequential
//! sweep times each layer over the Table V collectives × 8/64/256 DPUs ×
//! 256/1024/4096 elements per node, and writes one row per cell of
//! min-of-`reps` microseconds to `results/layer_ledger.csv`:
//!
//! * build, flatten (`FlatSchedule::from_schedule`) and validate;
//! * batch `analysis::run_all` and the one-step `analysis::reverify_delta`
//!   of a repair-shaped edit, against the base's `verify_full` proof;
//! * that `verify_full` proof itself, the cost a tune pays per candidate
//!   it proves: min of [`VERIFY_REPS`] calls, since one call would charge
//!   first-touch cost to whichever cell ran first;
//! * `boost::plan`, full pricing (`Timeline::build` + `time_schedule`)
//!   and boosted pricing (`plan.timeline` + `plan.breakdown`);
//! * exec, on the 256-element cells only: AllGather at 256 DPUs and 1024
//!   elements would need ≈512 MB of u64 buffers.
//!
//! The edit rewrites one transfer's resource path in the middle step and
//! leaves the payload spans alone, so the dataflow state reconverges
//! right after the dirtied step and the delta costs one step. The two
//! sides of each gated ratio (batch and delta, full and boosted pricing)
//! alternate in runs of two calls and keep the minimum of their `2·reps`
//! calls, so both sides sample the same stretch of host time.
//!
//! The ledger exits 1 when a check fails. Every bound is a constant:
//!
//! * every cell builds, validates and analyzes clean;
//! * every delta report equals its batch report, as text and as JSON;
//! * at AllReduce, 256 DPUs, 256 elements the delta re-lint is at least
//!   [`DELTA_SPEEDUP_FLOOR`] times faster than the batch analyzer;
//! * at 1024 elements (divisible at every geometry) every boosted
//!   breakdown equals `time_schedule` bit for bit;
//! * over the 256-DPU, 1024-element cells the smallest boost speedup is
//!   at least [`BOOST_SPEEDUP_FLOOR`], and has not fallen more than
//!   [`SPEEDUP_TOLERANCE`] below `min_speedup_x256` in the committed
//!   `results/layers_baseline.json`.
//!
//! The gates compare same-run ratios, so the baseline transfers across
//! hosts. The gated figures, the wall time and the host's core count land
//! in `results/BENCH_layers.json`; `--update-baseline` also writes them to
//! the baseline.
//!
//! Usage: `layer_ledger [reps] [--update-baseline]` (default 10 reps).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pim_arch::geometry::PimGeometry;
use pim_sim::SimTime;
use pimnet::analysis;
use pimnet::collective::CollectiveKind;
use pimnet::exec::{ExecMachine, ReduceOp};
use pimnet::schedule::validate::validate;
use pimnet::schedule::{boost, CommSchedule, FlatSchedule};
use pimnet::timeline::Timeline;
use pimnet::timing::TimingModel;
use pimnet_bench::{json_number, results_dir, Table};

const GEOMETRIES: [u32; 3] = [8, 64, 256];
const ELEMS: [usize; 3] = [256, 1024, 4096];
/// Payload of the cells that also execute.
const EXEC_ELEMS: usize = 256;
/// Payload of the cells boost must price exactly, and whose 256-DPU
/// speedups the baseline pins.
const BOOST_ELEMS: usize = 1024;
const DEFAULT_REPS: u32 = 10;
/// Calls of the base's `verify_full` per cell. Fewer than `reps`: one
/// call per cell sums to about 1.5 s over the sweep.
const VERIFY_REPS: u32 = 3;

/// The cell whose batch/delta re-lint ratio is gated: (kind, DPUs, elems).
const DELTA_CELL: (CollectiveKind, u32, usize) = (CollectiveKind::AllReduce, 256, 256);
/// Smallest batch-over-delta re-lint ratio at [`DELTA_CELL`].
const DELTA_SPEEDUP_FLOOR: f64 = 5.0;
/// Smallest full-over-boost pricing ratio at 256 DPUs, per collective.
const BOOST_SPEEDUP_FLOOR: f64 = 10.0;
/// Largest fall of the minimum 256-DPU boost speedup below the
/// baseline's, as a fraction.
const SPEEDUP_TOLERANCE: f64 = 0.25;

fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1)
}

/// Runs `f` `reps` times; returns the fastest run in microseconds and the
/// last run's result.
fn min_us<T>(reps: u32, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let v = std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e6);
        last = Some(v);
    }
    (best, last.expect("reps >= 1"))
}

/// [`min_us`] for the two sides of a gated ratio. The sides alternate in
/// runs of two calls, so both sample the same stretch of host time and
/// the second call of each run is as warm as a consecutive rep.
fn min_us_pair<A, B>(
    reps: u32,
    mut f: impl FnMut() -> A,
    mut g: impl FnMut() -> B,
) -> ((f64, A), (f64, B)) {
    let (mut a, mut b) = (min_us(2, &mut f), min_us(2, &mut g));
    for _ in 1..reps {
        let (us, v) = min_us(2, &mut f);
        a = (a.0.min(us), v);
        let (us, v) = min_us(2, &mut g);
        b = (b.0.min(us), v);
    }
    (a, b)
}

/// Rewrites one transfer's resource path in the middle step — the shape
/// of edit a repair makes. Duplicating an existing resource changes the
/// step without tripping any structural rule.
fn mutate_middle_step(s: &CommSchedule) -> Option<CommSchedule> {
    let sites: Vec<(usize, usize, usize)> = s
        .phases
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| {
            p.steps.iter().enumerate().flat_map(move |(si, st)| {
                st.transfers
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.resources.is_empty())
                    .map(move |(ti, _)| (pi, si, ti))
            })
        })
        .collect();
    let &(pi, si, ti) = sites.get(sites.len() / 2)?;
    let mut m = s.clone();
    let t = &mut m.phases[pi].steps[si].transfers[ti];
    let r = *t.resources.last().expect("site has resources");
    t.resources.push(r);
    Some(m)
}

fn main() {
    let mut reps = DEFAULT_REPS;
    let mut update_baseline = false;
    for arg in std::env::args().skip(1) {
        if arg == "--update-baseline" {
            update_baseline = true;
        } else if let Some(r) = arg.parse::<u32>().ok().filter(|&r| r > 0) {
            reps = r;
        } else {
            eprintln!("layer_ledger: unknown argument '{arg}' (reps must be positive)");
            eprintln!("usage: layer_ledger [reps] [--update-baseline]");
            std::process::exit(2);
        }
    }

    let timing = TimingModel::paper();
    let mut t = Table::new(
        "per-layer host time, min of reps (us)",
        &[
            "dpus",
            "collective",
            "elems",
            "transfers",
            "build",
            "flatten",
            "validate",
            "batch",
            "verify",
            "delta",
            "relinted",
            "batch/delta",
            "plan",
            "full-price",
            "boost-price",
            "full/boost",
            "reduction",
            "exact",
            "exec",
        ],
    );
    let mut delta_speedup = 0.0;
    let mut inexact = Vec::new();
    // (kind, full/boost, transfer reduction) of the 256-DPU boost cells.
    let mut boost_x256 = Vec::new();
    let wall = Instant::now();
    for &dpus in &GEOMETRIES {
        let g = PimGeometry::paper_scaled(dpus);
        for kind in CollectiveKind::ALL {
            for &elems in &ELEMS {
                let cell = format!("{kind} x{dpus} e{elems}");
                let (build_us, built) = min_us(reps, || CommSchedule::build(kind, &g, elems, 4));
                let s = built.unwrap_or_else(|e| fail(&format!("{cell} failed to build: {e}")));
                let (flatten_us, _) = min_us(reps, || FlatSchedule::from_schedule(&s));
                let (validate_us, valid) = min_us(reps, || validate(&s));
                if let Err(e) = valid {
                    fail(&format!("{cell} failed to validate: {e}"));
                }

                let mutated = Arc::new(
                    mutate_middle_step(&s).expect("preset schedules have routed transfers"),
                );
                let (verify_us, base) = min_us(VERIFY_REPS, || analysis::verify_full(&s));
                let ((batch_us, batch), (delta_us, (delta, stats))) = min_us_pair(
                    reps,
                    || analysis::run_all(mutated.as_ref()),
                    || analysis::reverify_delta(&base, mutated.clone()),
                );
                if base.report.has_errors() || batch.has_errors() {
                    fail(&format!(
                        "{cell} is dirty:\n{}\n--- after the edit ---\n{batch}",
                        base.report
                    ));
                }
                if batch.to_string() != delta.report.to_string()
                    || batch.to_json() != delta.report.to_json()
                {
                    fail(&format!(
                        "{cell} delta report diverged from batch\n\
                         --- batch ---\n{batch}\n--- delta ---\n{}",
                        delta.report
                    ));
                }
                let relint_x = batch_us / delta_us.max(1e-9);
                if (kind, dpus, elems) == DELTA_CELL {
                    delta_speedup = relint_x;
                }

                let (plan_us, plan) = min_us(reps, || boost::plan(&s));
                let ((full_us, (_, full_bd)), (boost_us, (_, boost_bd))) = min_us_pair(
                    reps,
                    || {
                        let tl = Timeline::build(&s, &timing);
                        (tl.end, timing.time_schedule(&s, SimTime::ZERO))
                    },
                    || {
                        let tl = plan.timeline(&timing);
                        (tl.end, plan.breakdown(&timing, SimTime::ZERO))
                    },
                );
                let exact = full_bd == boost_bd;
                let boost_x = full_us / boost_us.max(1e-9);
                if elems == BOOST_ELEMS {
                    if !exact {
                        inexact.push(cell.clone());
                    }
                    if dpus == 256 {
                        boost_x256.push((kind, boost_x, plan.reduction()));
                    }
                }

                let exec_us = if elems == EXEC_ELEMS {
                    let (us, ()) = min_us(reps, || {
                        let mut m = ExecMachine::init(&s, |id| vec![u64::from(id.0) + 1; elems]);
                        m.run(&s, ReduceOp::Sum);
                        std::hint::black_box(m);
                    });
                    format!("{us:.1}")
                } else {
                    "-".to_string()
                };

                t.row([
                    dpus.to_string(),
                    kind.to_string(),
                    elems.to_string(),
                    s.transfer_count().to_string(),
                    format!("{build_us:.1}"),
                    format!("{flatten_us:.1}"),
                    format!("{validate_us:.1}"),
                    format!("{batch_us:.1}"),
                    format!("{verify_us:.1}"),
                    format!("{delta_us:.1}"),
                    stats.relinted.to_string(),
                    format!("{relint_x:.2}"),
                    format!("{plan_us:.1}"),
                    format!("{full_us:.1}"),
                    format!("{boost_us:.1}"),
                    format!("{boost_x:.2}"),
                    format!("{:.2}", plan.reduction()),
                    if exact { "yes" } else { "NO" }.to_string(),
                    exec_us,
                ]);
            }
        }
    }
    let wall_s = wall.elapsed().as_secs_f64();
    t.emit("layer_ledger");

    let (min_kind, min_speedup, _) = boost_x256
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("256-DPU cells exist");
    let min_reduction = boost_x256.iter().map(|c| c.2).fold(f64::INFINITY, f64::min);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "ledger: {wall_s:.1} s, {reps} reps, {cores} core(s); delta re-lint \
         {delta_speedup:.1}x batch at {} x{} e{} (floor {DELTA_SPEEDUP_FLOOR:.0}x); \
         x256 min boost speedup {min_speedup:.1}x ({min_kind}), min transfer \
         reduction {min_reduction:.1}x (floor {BOOST_SPEEDUP_FLOOR:.0}x)",
        DELTA_CELL.0, DELTA_CELL.1, DELTA_CELL.2
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"min_speedup_x256\": {min_speedup:.3},");
    let _ = writeln!(json, "  \"min_reduction_x256\": {min_reduction:.3},");
    let _ = writeln!(json, "  \"delta_speedup\": {delta_speedup:.2},");
    let _ = writeln!(json, "  \"wall_s\": {wall_s:.1},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    let _ = writeln!(json, "  \"available_parallelism\": {cores}");
    json.push_str("}\n");
    let dir = results_dir();
    let out_path = dir.join("BENCH_layers.json");
    if let Err(e) = std::fs::write(&out_path, &json) {
        fail(&format!("cannot write {}: {e}", out_path.display()));
    }
    println!("[json] {}", out_path.display());

    if !inexact.is_empty() {
        fail(&format!(
            "boosted breakdown diverged from time_schedule on divisible payloads: {}",
            inexact.join(", ")
        ));
    }
    if delta_speedup < DELTA_SPEEDUP_FLOOR {
        fail(&format!(
            "one-step delta re-lint is only {delta_speedup:.1}x faster than the \
             batch analyzer (floor {DELTA_SPEEDUP_FLOOR:.0}x)"
        ));
    }
    if min_speedup < BOOST_SPEEDUP_FLOOR {
        fail(&format!(
            "{min_kind} x256 boosted pricing is only {min_speedup:.1}x faster than \
             the full path (floor {BOOST_SPEEDUP_FLOOR:.0}x)"
        ));
    }

    let baseline_path = dir.join("layers_baseline.json");
    if update_baseline {
        if let Err(e) = std::fs::write(&baseline_path, &json) {
            fail(&format!("cannot write {}: {e}", baseline_path.display()));
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
    let Some(base_speedup) = json_number(&baseline, "min_speedup_x256") else {
        fail(&format!(
            "baseline has no min_speedup_x256: {}",
            baseline_path.display()
        ));
    };
    let floor = base_speedup * (1.0 - SPEEDUP_TOLERANCE);
    if min_speedup < floor {
        fail(&format!(
            "min 256-DPU boost speedup {min_speedup:.1}x fell below baseline \
             {base_speedup:.1}x by more than {:.0}% (floor {floor:.1}x; re-pin \
             with --update-baseline after an intentional change)",
            SPEEDUP_TOLERANCE * 100.0
        ));
    }
    println!(
        "within budget: min 256-DPU boost speedup {min_speedup:.1}x vs baseline \
         {base_speedup:.1}x (-{:.0}% tolerance)",
        SPEEDUP_TOLERANCE * 100.0
    );
}
