//! `pimbench` — the repository's benchmark: four seeded single-thread
//! workloads through the simulator's layers, with end-to-end metrics from
//! an untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! pimbench --workload <pipeline|autotune-cold|serve-warm|chaos-repair|all>
//!          [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! ```
//!
//! Each run sets the workload up five times (reporting the median), times
//! a fixed calibration loop, then issues whole rounds of ops for at least
//! `--seconds` seconds, checking every op's output outside its timed
//! region. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `--spans PATH` writes the traced run's spans as JSON lines. `all` runs
//! the binary once per workload, one after another. See `README.md`.

mod layers;
mod reference;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

use trace::Tracer;
use workloads::{Counters, OpStream, Workload};

const USAGE: &str =
    "usage: pimbench --workload <pipeline|autotune-cold|serve-warm|chaos-repair|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]";

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 5;

/// Iterations of the calibration loop (50–60 ms on a 2-core x86-64 host).
const CALIB_ITERS: u64 = 20_000_000;

/// Span name of one whole op.
const OP: &str = "op";

/// Ops the simulated results are taken over.
const SIM_OPS: usize = 40;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not '{value}'"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            "--spans" => args.spans = Some(value),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if args.workload != "all" && Workload::parse(&args.workload).is_none() {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if args.workload == "all" && args.spans.is_some() {
        return Err("--spans names one file; give it one workload".into());
    }
    Ok(args)
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[f64], p: u32) -> f64 {
    let rank = (u64::from(p) * sorted.len() as u64).div_ceil(100) as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest whole nearest-rank percentile that leaves at least ten
/// samples beyond it (p98 for 500 samples, p93 for 150), never below the
/// median.
fn tail_percentile(n: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&p| n as u64 - (u64::from(p) * n as u64).div_ceil(100) >= 10)
        .unwrap_or(50)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(&v, 50)
}

/// A field of `/proc/self/status`, in its own unit (kB for memory).
fn proc_status(field: &str) -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

fn proc_kb(field: &str) -> Option<f64> {
    proc_status(field)?.split_whitespace().next()?.parse().ok()
}

/// CPUs this process may run on (what `nproc` prints).
fn nproc() -> usize {
    let Some(list) = proc_status("Cpus_allowed_list") else {
        return 0;
    };
    list.split(',')
        .filter_map(|r| match r.split_once('-') {
            Some((a, b)) => Some(b.parse::<usize>().ok()? + 1 - a.parse::<usize>().ok()?),
            None => r.parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// Times a fixed integer loop: a same-run yardstick of host speed, for
/// diagnosis only.
fn calibrate_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..std::hint::black_box(CALIB_ITERS) {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// What the measured loop observed.
struct Run {
    /// Untraced op times, ms.
    plain_ms: Vec<f64>,
    /// Traced op times, ms.
    traced_ms: Vec<f64>,
    attempted: usize,
    failed: usize,
    counters: Counters,
    cache_hits: u64,
    cache_misses: u64,
    /// Resident-memory growth per cache miss over the first cache
    /// lifetime (chaos resets its cache at a fixed op count).
    rss_mb_per_miss: f64,
}

/// Issues whole rounds of ops until `seconds` have passed. With `trace`,
/// odd rounds run traced (plus their replays) and even rounds untraced,
/// so both halves see the same mix.
fn measure(w: Workload, args: &Args, tracer: &Tracer) -> Run {
    let mut stream = OpStream::new(w, args.seed);
    let (hits0, misses0) = layers::cache_counts();
    let rss0 = proc_kb("VmRSS").unwrap_or(0.0);
    let mut rss_mb_per_miss = None;
    let mut run = Run {
        plain_ms: Vec::new(),
        traced_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        counters: Counters::default(),
        cache_hits: 0,
        cache_misses: 0,
        rss_mb_per_miss: 0.0,
    };
    let per_miss = |misses: u64| {
        let grown_kb = proc_kb("VmRSS").unwrap_or(0.0) - rss0;
        grown_kb / 1024.0 / (misses - misses0).max(1) as f64
    };
    let start = Instant::now();
    let mut index = 0u64;
    for round in 0.. {
        if start.elapsed().as_secs() >= args.seconds {
            break;
        }
        let traced = args.trace && round % 2 == 1;
        for op in stream.next_round() {
            if workloads::resets_cache(&op, index) && rss_mb_per_miss.is_none() {
                rss_mb_per_miss = Some(per_miss(layers::cache_counts().1));
            }
            let outcome = workloads::before_op(&op, index).and_then(|()| {
                tracer.set_enabled(traced);
                tracer.set_op(index);
                let t0 = Instant::now();
                let out = tracer.span(OP, || workloads::run(&op, tracer));
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                if traced {
                    run.traced_ms.push(ms);
                } else {
                    run.plain_ms.push(ms);
                }
                let out = out?;
                workloads::replay(&op, &out, tracer, &mut run.counters)?;
                tracer.set_enabled(false);
                workloads::check(&op, &out, &mut run.counters)
            });
            tracer.set_enabled(false);
            run.attempted += 1;
            if let Err(e) = outcome {
                run.failed += 1;
                eprintln!("pimbench: {} op {index} ({op:?}) failed: {e}", w.name());
            }
            index += 1;
        }
    }
    let (hits, misses) = layers::cache_counts();
    run.cache_hits = hits - hits0;
    run.cache_misses = misses - misses0;
    run.rss_mb_per_miss = rss_mb_per_miss.unwrap_or_else(|| per_miss(misses));
    run
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// End-to-end metrics from the untraced op times, sorted.
fn end_to_end(ops: &[f64], setup_s: f64) -> Vec<Metric> {
    let sum_s: f64 = ops.iter().sum::<f64>() / 1e3;
    vec![
        metric("ops_per_s", ops.len() as f64 / sum_s, "1/s"),
        metric("op_p50_ms", percentile(ops, 50), "ms"),
        metric("setup_s", setup_s, "s"),
        metric(
            "peak_rss_mb",
            proc_kb("VmHWM").unwrap_or(0.0) / 1024.0,
            "MB",
        ),
    ]
}

/// Per-layer metrics of the traced half, plus the human-readable table.
fn per_layer(run: &Run, tracer: &Tracer, calib_ms: f64) -> (Vec<Metric>, String) {
    let spans = tracer.spans();
    let layers = trace::by_layer(&spans);
    let op_ns: u64 = spans
        .iter()
        .filter(|s| s.name == OP)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let share = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / op_ns.max(1) as f64)
    };
    let calls = |name: &str| layers.get(name).map_or(0, |l| l.calls) as f64;
    let ns_per = |name: &str, transfers: u64| {
        layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / transfers.max(1) as f64)
    };

    let mut table =
        String::from("layer                        calls     self_ms   share  p50_us\n");
    for (name, l) in &layers {
        let mut d = l.durations_ns.clone();
        d.sort_unstable();
        let _ = writeln!(
            table,
            "{name:<26} {:>7} {:>11.3} {:>7.4} {:>7.1}",
            l.calls,
            l.self_ns as f64 / 1e6,
            share(name),
            d[(d.len() - 1) / 2] as f64 / 1e3
        );
    }
    let c = &run.counters;
    let _ = writeln!(
        table,
        "ns/transfer: analysis.batch {:.1}, exec.clean {:.1}, exec.faulty {:.1}",
        ns_per(layers::ANALYSIS_BATCH, c.traced_pipeline_transfers),
        ns_per(layers::EXEC_CLEAN, c.traced_pipeline_transfers),
        ns_per(layers::EXEC_FAULTY, c.traced_faulty_transfers),
    );

    let mut m = Vec::new();
    for name in layers::INNER_LAYERS {
        m.push(metric(format!("{name}.calls"), calls(name), "count"));
        m.push(metric(format!("{name}.share"), share(name), "frac"));
    }
    for name in layers::OUTER_LAYERS {
        m.push(metric(format!("{name}.calls"), calls(name), "count"));
        m.push(metric(
            format!("{name}.unattributed_share"),
            share(name),
            "frac",
        ));
    }
    m.push(metric("op.unattributed_share", share(OP), "frac"));
    let lookups = (run.cache_hits + run.cache_misses).max(1) as f64;
    let frac = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    m.extend([
        metric(
            "analysis.delta.relint_frac",
            frac(c.delta_relinted, c.delta_steps),
            "frac",
        ),
        metric(
            "schedule.boost.exact_frac",
            frac(c.boost_exact, c.boost_priced),
            "frac",
        ),
        metric("schedule.boost.max_rel_err", c.boost_max_rel_err, "frac"),
        metric(
            "schedule.cache.lookup.hit_ratio",
            run.cache_hits as f64 / lookups,
            "frac",
        ),
        metric(
            "schedule.cache.lookup.rss_mb_per_miss",
            run.rss_mb_per_miss,
            "MB",
        ),
    ]);
    for (i, tier) in ["full", "repaired", "shrunk", "host", "none"]
        .iter()
        .enumerate()
    {
        let n = c.tiers.iter().filter(|&&t| usize::from(t) == i).count();
        m.push(metric(
            format!("resilience.plan.tier.{tier}"),
            n as f64,
            "count",
        ));
    }
    m.extend([
        metric("autotune.tune.candidates", c.candidates as f64, "count"),
        metric("autotune.tune.rejected", c.rejected as f64, "count"),
        metric("serve.window.sim_requests", c.sim_requests as f64, "count"),
        metric("serve.window.chunks", c.chunks as f64, "count"),
    ]);
    let plain = sorted(&run.plain_ms);
    let traced = sorted(&run.traced_ms);
    let overhead = if plain.is_empty() || traced.is_empty() {
        0.0
    } else {
        percentile(&traced, 50) / percentile(&plain, 50) - 1.0
    };
    m.push(metric("trace_overhead_frac", overhead, "frac"));
    m.push(metric("host.calib_ms", calib_ms, "ms"));
    (m, table)
}

/// Simulated results over the first [`SIM_OPS`] ops, so that they repeat
/// exactly for a seed however many ops a run completes.
fn simulated(c: &Counters) -> String {
    let mut out = String::new();
    let speedups = &c.speedups[..c.speedups.len().min(SIM_OPS)];
    if !speedups.is_empty() {
        let log_mean = speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64;
        let _ = write!(out, " sim_tuned_speedup={:.6}", log_mean.exp());
    }
    let windows = &c.latencies_ps[..c.latencies_ps.len().min(SIM_OPS)];
    let lat: Vec<f64> = sorted(
        &windows
            .iter()
            .flatten()
            .map(|&p| p as f64)
            .collect::<Vec<_>>(),
    );
    if !lat.is_empty() {
        let _ = write!(out, " sim_p99_us={:.6}", percentile(&lat, 99) / 1e6);
    }
    let tiers = &c.tiers[..c.tiers.len().min(SIM_OPS)];
    if !tiers.is_empty() {
        let pim = tiers.iter().filter(|&&t| t <= 1).count();
        let _ = write!(
            out,
            " sim_pim_tier_frac={:.6}",
            pim as f64 / tiers.len() as f64
        );
    }
    out
}

fn run_one(w: Workload, args: &Args, started: Instant) -> Result<bool, String> {
    println!(
        "pimbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        workloads::setup(w)?;
        setups.push(t0.elapsed().as_secs_f64());
    }
    let setup_s = median(setups);
    let calib_ms = calibrate_ms();
    println!(
        "host: nproc={} available_parallelism={} calib_ms={calib_ms:.3}",
        nproc(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "setup: median of {SETUP_REPS} {setup_s:.4} s; first op at {:.3} s after start",
        started.elapsed().as_secs_f64()
    );

    let tracer = Tracer::new(false);
    let run = measure(w, args, &tracer);
    let attempted = run.attempted;
    if run.plain_ms.is_empty() {
        return Err("no op was timed".into());
    }
    // The tail is printed, not gated: on a shared host it reads the host's
    // stalls as much as the simulator (see README.md).
    let plain = sorted(&run.plain_ms);
    let tail_p = w.tail_percentile().min(tail_percentile(plain.len()));
    let sim = simulated(&run.counters);
    let sim = if sim.is_empty() {
        sim
    } else {
        format!("; simulated, first {SIM_OPS} ops:{sim}")
    };
    println!(
        "ops: {attempted} attempted, {} failed; untraced p{tail_p} {:.3} ms{sim}",
        run.failed,
        percentile(&plain, tail_p)
    );
    let metrics = if args.trace {
        let (m, table) = per_layer(&run, &tracer, calib_ms);
        print!("{table}");
        if let Some(path) = &args.spans {
            std::fs::write(path, trace::to_jsonl(&tracer.spans()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
        }
        m
    } else {
        end_to_end(&plain, setup_s)
    };
    let correct = run.failed == 0;
    println!("{}", result_line(correct, attempted, run.failed, &metrics));
    Ok(correct)
}

/// Runs the binary once per workload, one after another, so each gets
/// its own process and its own peak memory.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pimbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match Workload::parse(&args.workload) {
        Some(w) => run_one(w, &args, started),
        None => run_all(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pimbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(500), 98);
        assert_eq!(tail_percentile(600), 98);
        assert_eq!(tail_percentile(150), 93);
        assert_eq!(tail_percentile(1000), 99);
        // Too few samples for any tail: the median.
        assert_eq!(tail_percentile(15), 50);
        for n in 20..2000 {
            let p = tail_percentile(n);
            let rank = (u64::from(p) * n as u64).div_ceil(100) as usize;
            assert!(n - rank >= 10, "n={n} p{p}");
            if p < 99 {
                let next = (u64::from(p + 1) * n as u64).div_ceil(100) as usize;
                assert!(n - next < 10, "n={n}: p{} also qualifies", p + 1);
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 5.0);
        assert_eq!(percentile(&v, 90), 9.0);
        assert_eq!(percentile(&v, 91), 10.0);
        assert_eq!(percentile(&[3.0], 99), 3.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 3, 0, &[metric("a_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
