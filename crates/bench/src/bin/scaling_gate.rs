//! CI scaling gate for boost mode.
//!
//! Prices every Table V collective at the paper's 8/64/256-DPU presets
//! through the full pricing path (`Timeline::build` + `time_schedule`)
//! and the boosted path (thin-slice timeline + analytic breakdown),
//! warm-cache, min-of-`reps` wall time per cell. The gate then enforces
//! boost mode's two contracts:
//!
//! 1. **Accuracy**: every cell uses a divisible payload, so the boosted
//!    breakdown must equal the full walk *bit-for-bit* — any inexact
//!    cell is a hard failure.
//! 2. **Raw speed**: at 256 DPUs the boosted path must price at least
//!    10x faster than the full path for every collective.
//!
//! Results land in `results/BENCH_scaling.json`. When a committed
//! baseline (`results/scaling_baseline.json`) exists, the gate also
//! fails if the minimum 256-DPU speedup fell below the baseline's by
//! more than 25 %. Both bounds are constants below. The gated quantity
//! is a same-machine *ratio*, so the baseline transfers across hosts —
//! unlike wall-times, which the JSON reports but does not gate.
//!
//! Usage: `scaling_gate [workers] [--update-baseline]`.

use std::fmt::Write as _;

use pim_sim::par;
use pimnet_bench::{results_dir, sweeps};

/// Timed repetitions per cell: enough for a stable minimum, cheap enough
/// that the whole gate stays in single-digit seconds.
const REPS: u32 = 30;

/// Smallest boosted-over-full pricing speedup at 256 DPUs, per collective.
const BOOST_SPEEDUP_FLOOR: f64 = 10.0;
/// Largest fall of the minimum 256-DPU speedup below the baseline's, as
/// a fraction.
const SPEEDUP_TOLERANCE: f64 = 0.25;

/// Extracts `"key": <number>` from a flat JSON object (same shape and
/// reader as `perf_gate`).
fn json_number(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\""))?;
    let rest = &json[at..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
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
            eprintln!("scaling_gate: unknown argument '{arg}'");
            eprintln!("usage: scaling_gate [workers] [--update-baseline]");
            std::process::exit(2);
        }
    }
    let workers = workers.unwrap_or_else(par::thread_count);

    println!(
        "scaling gate: boost vs full pricing, {} collectives x {:?} DPUs, \
         min of {REPS} reps",
        pimnet::collective::CollectiveKind::ALL.len(),
        sweeps::SCALING_GEOMETRIES,
    );
    let cells = sweeps::scaling_cells(REPS, workers);
    println!("{}", sweeps::scaling_table(&cells).render());

    let inexact: Vec<String> = cells
        .iter()
        .filter(|c| !c.exact)
        .map(|c| format!("{} x{}", c.kind, c.dpus))
        .collect();
    if !inexact.is_empty() {
        eprintln!(
            "FAIL: boosted reconstruction diverged from the full walk on \
             divisible payloads: {}",
            inexact.join(", ")
        );
        std::process::exit(1);
    }

    let at_256: Vec<&sweeps::ScalingCell> = cells.iter().filter(|c| c.dpus == 256).collect();
    let min_speedup = at_256
        .iter()
        .map(|c| c.speedup)
        .fold(f64::INFINITY, f64::min);
    let min_reduction = at_256
        .iter()
        .map(|c| c.reduction)
        .fold(f64::INFINITY, f64::min);
    println!(
        "  x256: min speedup {min_speedup:.1}x, min transfer reduction \
         {min_reduction:.1}x (floor {BOOST_SPEEDUP_FLOOR:.0}x)"
    );
    if min_speedup < BOOST_SPEEDUP_FLOOR {
        let worst = at_256
            .iter()
            .min_by(|a, b| a.speedup.total_cmp(&b.speedup))
            .expect("256-DPU cells exist");
        eprintln!(
            "FAIL: {} x256 boosted pricing is only {:.1}x faster than the \
             full path (floor {BOOST_SPEEDUP_FLOOR:.0}x)",
            worst.kind, worst.speedup
        );
        std::process::exit(1);
    }

    let full_ms_256: f64 = at_256.iter().map(|c| c.full_ms).sum();
    let boost_ms_256: f64 = at_256.iter().map(|c| c.boost_ms).sum();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"min_speedup_x256\": {min_speedup:.3},");
    let _ = writeln!(json, "  \"min_reduction_x256\": {min_reduction:.3},");
    let _ = writeln!(json, "  \"full_ms_x256_total\": {full_ms_256:.4},");
    let _ = writeln!(json, "  \"boost_ms_x256_total\": {boost_ms_256:.4},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"kind\": \"{}\", \"dpus\": {}, \"full_ms\": {:.4}, \
             \"boost_ms\": {:.4}, \"speedup\": {:.3}, \"reduction\": {:.3}, \
             \"exact\": {}}}",
            c.kind, c.dpus, c.full_ms, c.boost_ms, c.speedup, c.reduction, c.exact
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("scaling_gate: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let out_path = dir.join("BENCH_scaling.json");
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("scaling_gate: cannot write {}: {e}", out_path.display());
        std::process::exit(1);
    }
    println!("[json] {}", out_path.display());

    let baseline_path = dir.join("scaling_baseline.json");
    if update_baseline {
        if let Err(e) = std::fs::write(&baseline_path, &json) {
            eprintln!(
                "scaling_gate: cannot write {}: {e}",
                baseline_path.display()
            );
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
    let Some(base_speedup) = json_number(&baseline, "min_speedup_x256") else {
        eprintln!(
            "scaling_gate: baseline has no min_speedup_x256: {}",
            baseline_path.display()
        );
        std::process::exit(1);
    };
    let speedup_floor = base_speedup * (1.0 - SPEEDUP_TOLERANCE);
    if min_speedup < speedup_floor {
        eprintln!(
            "FAIL: min 256-DPU boost speedup {min_speedup:.1}x fell below \
             baseline {base_speedup:.1}x by more than {:.0}% (floor \
             {speedup_floor:.1}x; re-pin with --update-baseline after an \
             intentional change)",
            SPEEDUP_TOLERANCE * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "within budget: min 256-DPU speedup {min_speedup:.1}x vs baseline \
         {base_speedup:.1}x (-{:.0}% tolerance)",
        SPEEDUP_TOLERANCE * 100.0
    );
}
