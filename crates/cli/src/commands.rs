//! Subcommand implementations.

use pim_arch::SystemConfig;
use pim_sim::{Bytes, Probe, SimTime};
use pimnet::api::PimnetSystem;
use pimnet::backends::BackendKind;
use pimnet::collective::{CollectiveKind, CollectiveSpec};
use pimnet::schedule::autotune::TunedChoice;
use pimnet::schedule::cache::{self, Algo, ScheduleRequest};
use pimnet::schedule::CommSchedule;
use pimnet::FabricConfig;

use crate::args::Flags;

/// Top-level usage text.
pub const USAGE: &str = "\
pimnet-cli — PIMnet (HPCA 2025) simulator CLI

USAGE:
  pimnet-cli collective --kind <coll> --kb <n> [--dpus <n>] [--backend B|S|N|D|P|all]
  pimnet-cli workload   --name <BFS|CC|MLP|GEMV|EMB_Synth|EMB_RM1..3|NTT|SpMV|Join>
                    [--backend B|S|N|D|P|all]
  pimnet-cli suite
  pimnet-cli schedule   --kind <coll> [--dpus <n>] [--elems <n>] [--boost]
                    [--algo <bank_chip_rank>] [--autotune]
  pimnet-cli noc        --kind <coll> [--dpus <n>] [--elems <n>] [--jitter-us <f>]
                    [--fault-seed <n>] [--fault-config <path>]
  pimnet-cli faults     --kind <coll> [--dpus <n>] [--elems <n>]
                    [--fault-seed <n>] [--fault-config <path>]
                    [--ber <f>] [--straggler-prob <f>] [--dead <i,j,..>]
                    [--perm-faults <tok,..>]
  pimnet-cli repair     --kind <coll> [--dpus <n>] [--elems <n>]
                    [--perm-faults <tok,..>] [--fault-seed <n>]
                    [--fault-config <path>]
  pimnet-cli lint       [--kind <coll>] [--dpus <n>] [--elems <n>] [--json]
                    [--all-presets] [--incremental] [--perm-faults <tok,..>]
                    [--fault-seed <n>] [--fault-config <path>]
  pimnet-cli trace      [--kind <coll>[,<coll>..]|all] [--dpus <n>] [--elems <n>]
                    [--out <trace.json>] [--csv <trace.csv>]
                    [--fault-seed <n>] [--fault-config <path>] [--ber <f>]
                    [--straggler-prob <f>] [--perm-faults <tok,..>]
  pimnet-cli soak       [--kind <coll>] [--dpus <n>] [--elems <n>] [--seeds <n>]
                    [--timeline-rate <f>] [--horizon-ps <n>] [--csv <soak.csv>]
                    [--fault-seed <n>] [--fault-config <path>] [--ber <f>]
                    [--straggler-prob <f>] [--dead <i,j,..>] [--perm-faults <tok,..>]
                    [--arrivals <tok@t=Nps,..>] [--flaps <seg@t=Nps+Dps,..>]
                    [--bursts <ber=p@t=Nps+Dps,..>] [--watchdog-ps <n>]
                    [--retry-budget <n>] [--backoff-base-ps <n>]
  pimnet-cli serve      [--tenants <n>] [--seed <n>] [--horizon-us <n>]
                    [--policy fifo|lifo|priority] [--queue-cap <n>]
                    [--elems <n>] [--chunk-elems <n>] [--mean-gap-us <n>]
                    [--deadline-us <n>] [--priority-spread]
                    [--timeline-rate <f>] [--log <serve_log.csv>] [--metrics]
                    [fault flags as for soak]
  pimnet-cli replay     --log <serve_log.csv> [serving knobs as for serve]

  <coll> = allreduce | reducescatter | allgather | a2a | broadcast | reduce | gather

  trace runs each collective through the schedule cache, the timing engine,
  and the functional executor with the structured-event tracer attached,
  then exports one Chrome trace_event JSON (load it at chrome://tracing or
  https://ui.perfetto.dev) with one process per collective and one track
  per subsystem. Without --out the JSON goes to stdout (summaries go to
  stderr). Traces are deterministic: same seed + geometry => byte-identical
  output at any PIMNET_THREADS.

  schedule/noc/faults/repair also accept --metrics: run the same
  computation with the metrics sink attached and print the aggregated
  report (per-tier bytes, link-busy time, barrier waits, retries, ...).
  schedule --boost additionally thins the schedule to the representative
  slice used by boost mode and prints the kept/total transfer counts and
  the analytically reconstructed end-to-end time (exact on the builder's
  symmetric collectives).

  schedule --algo compiles a hierarchical composed schedule instead of the
  paper's Table V one: the spec names one per-tier algorithm per dimension,
  bank_chip_rank, each of ring|direct|dbtree|rabenseifner (e.g.
  --algo ring_direct_dbtree). schedule --autotune sweeps the composition
  candidates for the requested (kind, geometry, payload), re-proves each
  with the analysis passes, prices survivors via the boost path, and uses
  the winner (the paper schedule keeps ties).

  lint runs the static analyzer (structural, sync, hazard, dataflow passes)
  over a schedule without executing it, and exits non-zero on any
  error-severity diagnostic. With --perm-faults the schedule is first
  repaired and the *repaired* schedule is re-proven. --incremental routes
  the same proof through the streaming verifier: the base schedule is
  folded step-by-step, and a repaired schedule is re-proven by delta
  (only the steps the repair dirtied re-lint); the report is byte-identical
  to the batch analyzer. --json emits one machine-readable JSON report per
  line; --all-presets lints every collective on the paper's 8/64/256-DPU
  presets plus sampled permanent-fault storms, fanned out over
  PIMNET_THREADS workers.

  Fault configs are key=value files (see pim-faults); --fault-seed overrides
  the file's seed, and --ber/--straggler-prob/--dead override its rates.
  --perm-faults names permanent fabric faults inline: ring segments as
  r<rank>c<chip>b<bank><E|W>, crossbar ports as r<rank>c<chip><tx|rx>, and
  whole ranks as rank<N> (e.g. --perm-faults r0c1b3E,r0c2tx,rank1).

  Time-varying scenarios use the same component tokens stamped with a
  simulated arrival time: --arrivals r0c1b3E@t=500000ps lands a permanent
  fault mid-run, --flaps r0c1b3E@t=0ps+2000000ps downs a ring segment for
  a window, and --bursts ber=0.9@t=0ps+1000000ps elevates the transient
  BER for a window. --watchdog-ps / --retry-budget / --backoff-base-ps
  override the recovery budgets (barrier watchdog, per-step retry count,
  exponential backoff base).

  soak drives the runtime recovery manager (checkpointed resume, health
  quarantine, ladder replans) over a seed matrix: seeds --fault-seed ..
  +--seeds, each executed step-by-step under its fault timeline and then
  verified — tier <= 1 results must be bit-identical to the fault-free
  reference, and every run must end in a valid ladder tier with a typed
  error trail (no panics, no silent wrong answers). --timeline-rate
  additionally samples a per-seed storm of arrivals/flaps/bursts over
  --horizon-ps. --csv writes one row per seed (the CI chaos artifact).
  Seeds fan out over PIMNET_THREADS workers; the output (and the CSV) is
  byte-identical at any worker count.

  serve runs the deterministic multi-tenant serving engine: seeded
  per-tenant arrival streams, bounded queues with token-bucket admission,
  deadline-aware scheduling (--policy), chunked collectives interleaved
  across per-tenant channels, a monotone overload ladder (full service ->
  shrunk chunking -> shed low-priority -> per-tenant host fallback), and
  health-tracked tenant quarantine with probation hysteresis. Every
  request ends in exactly one typed outcome (served / host-fallback /
  shed / quarantined); the command re-verifies that plus ladder and
  quarantine monotonicity and exits non-zero on any violation.
  --priority-spread staggers tenant priorities 1..3 so the priority
  policy and the low-priority shed rung have something to act on.
  --timeline-rate samples a fault storm over the horizon (as in soak);
  faulted dispatches run through the runtime recovery manager.
  --log writes the request log as CSV — the byte-identity artifact.

  replay re-runs serve under the same knobs and byte-compares the fresh
  request log against --log, exiting non-zero on the first divergence:
  a pinned log file is a replayable contract for the whole engine.";

/// Dispatches a parsed command line.
pub fn dispatch(argv: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Err("no command given".into());
    };
    let flags = Flags::parse(rest)?;
    match cmd.as_str() {
        "collective" => collective(&flags),
        "workload" => workload(&flags),
        "suite" => suite(),
        "schedule" => schedule(&flags),
        "noc" => noc(&flags),
        "faults" => faults(&flags),
        "repair" => repair(&flags),
        "lint" => lint(&flags),
        "trace" => trace(&flags),
        "soak" => soak(&flags),
        "serve" => serve(&flags),
        "replay" => replay(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    }
}

fn parse_kind(s: &str) -> Result<CollectiveKind, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "allreduce" | "ar" => CollectiveKind::AllReduce,
        "reducescatter" | "rs" => CollectiveKind::ReduceScatter,
        "allgather" | "ag" => CollectiveKind::AllGather,
        "a2a" | "alltoall" | "all-to-all" => CollectiveKind::AllToAll,
        "broadcast" | "bc" => CollectiveKind::Broadcast,
        "reduce" | "rd" => CollectiveKind::Reduce,
        "gather" | "ga" => CollectiveKind::Gather,
        other => return Err(format!("unknown collective '{other}'")),
    })
}

/// Parses `--kind` for the `trace` command: one collective, a comma list,
/// or `all` (the five golden-traced kinds).
fn parse_kinds(s: &str) -> Result<Vec<CollectiveKind>, String> {
    if s.eq_ignore_ascii_case("all") {
        return Ok(vec![
            CollectiveKind::AllReduce,
            CollectiveKind::ReduceScatter,
            CollectiveKind::AllGather,
            CollectiveKind::Broadcast,
            CollectiveKind::AllToAll,
        ]);
    }
    s.split(',').map(|k| parse_kind(k.trim())).collect()
}

fn parse_backends(s: &str) -> Result<Vec<BackendKind>, String> {
    if s.eq_ignore_ascii_case("all") {
        return Ok(BackendKind::ALL.to_vec());
    }
    s.chars()
        .map(|c| match c.to_ascii_uppercase() {
            'B' => Ok(BackendKind::Baseline),
            'S' => Ok(BackendKind::SoftwareIdeal),
            'N' => Ok(BackendKind::NdpBridge),
            'D' => Ok(BackendKind::DimmLink),
            'P' => Ok(BackendKind::Pimnet),
            other => Err(format!("unknown backend key '{other}' (use B/S/N/D/P)")),
        })
        .collect()
}

fn system_for(dpus: u32) -> Result<PimnetSystem, String> {
    if !(dpus.is_power_of_two() && (1..=256).contains(&dpus)) {
        return Err(format!(
            "--dpus must be a power of two in 1..=256, got {dpus}"
        ));
    }
    Ok(PimnetSystem::new(
        SystemConfig::paper_scaled(dpus),
        FabricConfig::paper(),
    ))
}

/// Builds the fault scenario shared by the `noc` and `faults` commands:
/// `--fault-config` loads a key=value file, `--fault-seed` overrides its
/// seed, and the remaining flags override individual rates. With none of
/// them given the injector is inactive (zero overhead everywhere).
fn fault_injector(flags: &Flags) -> Result<pim_faults::FaultInjector, String> {
    let mut cfg = match flags.require("fault-config") {
        Ok(path) => pim_faults::FaultConfig::from_file(std::path::Path::new(path))?,
        Err(_) => pim_faults::FaultConfig::none(),
    };
    if let Ok(seed) = flags.require("fault-seed") {
        cfg.seed = seed
            .parse()
            .map_err(|_| format!("flag --fault-seed: '{seed}' is not a valid u64"))?;
    }
    if let Ok(ber) = flags.require("ber") {
        cfg.transient_ber = ber
            .parse()
            .ok()
            .filter(|p| (0.0..=1.0).contains(p))
            .ok_or_else(|| format!("flag --ber: '{ber}' is not a probability"))?;
    }
    if let Ok(p) = flags.require("straggler-prob") {
        cfg.straggler_prob = p
            .parse()
            .ok()
            .filter(|p| (0.0..=1.0).contains(p))
            .ok_or_else(|| format!("flag --straggler-prob: '{p}' is not a probability"))?;
        if cfg.straggler_max_ns == 0 {
            cfg.straggler_max_ns = 50_000;
        }
    }
    if let Ok(list) = flags.require("dead") {
        cfg.dead_dpus = list
            .split(',')
            .map(|d| {
                d.trim()
                    .parse()
                    .map_err(|_| format!("flag --dead: '{d}' is not a DPU id"))
            })
            .collect::<Result<Vec<u32>, String>>()?;
        cfg.dead_dpus.sort_unstable();
        cfg.dead_dpus.dedup();
    }
    if let Ok(tokens) = flags.require("perm-faults") {
        let set = pim_faults::PermanentFaultSet::parse_tokens(tokens)
            .map_err(|e| format!("flag --perm-faults: {e}"))?;
        cfg.permanent.merge(&set);
    }
    if let Ok(text) = flags.require("arrivals") {
        cfg.timeline.arrivals = pim_faults::FaultTimeline::parse_arrivals(text)
            .map_err(|e| format!("flag --arrivals: {e}"))?;
    }
    if let Ok(text) = flags.require("flaps") {
        cfg.timeline.flaps = pim_faults::FaultTimeline::parse_flaps(text)
            .map_err(|e| format!("flag --flaps: {e}"))?;
    }
    if let Ok(text) = flags.require("bursts") {
        cfg.timeline.bursts = pim_faults::FaultTimeline::parse_bursts(text)
            .map_err(|e| format!("flag --bursts: {e}"))?;
    }
    cfg.timeline.normalize();
    if let Ok(v) = flags.require("watchdog-ps") {
        cfg.watchdog_ps = Some(
            v.parse()
                .map_err(|_| format!("flag --watchdog-ps: '{v}' is not a picosecond count"))?,
        );
    }
    if let Ok(v) = flags.require("retry-budget") {
        cfg.retry_budget = Some(
            v.parse()
                .map_err(|_| format!("flag --retry-budget: '{v}' is not a retry count"))?,
        );
    }
    if let Ok(v) = flags.require("backoff-base-ps") {
        cfg.backoff_base_ps = Some(
            v.parse()
                .map_err(|_| format!("flag --backoff-base-ps: '{v}' is not a picosecond count"))?,
        );
    }
    Ok(pim_faults::FaultInjector::new(cfg))
}

fn warn_unknown(flags: &Flags, known: &[&str]) {
    for k in flags.keys() {
        if !known.contains(&k) {
            eprintln!("warning: ignoring unknown flag --{k}");
        }
    }
}

fn collective(flags: &Flags) -> Result<(), String> {
    warn_unknown(flags, &["kind", "kb", "dpus", "backend"]);
    let kind = parse_kind(flags.require("kind")?)?;
    let kb: u64 = flags.num_or("kb", 32)?;
    let dpus: u32 = flags.num_or("dpus", 256)?;
    let backends = parse_backends(flags.get_or("backend", "all"))?;
    let sys = system_for(dpus)?;
    let spec = CollectiveSpec::new(kind, Bytes::kib(kb));

    println!("{kind}, {kb} KiB/DPU, {dpus} DPUs:");
    let mut baseline = None;
    for bk in backends {
        let backend = sys.backend(bk);
        match backend.collective(&spec) {
            Ok(r) => {
                if bk == BackendKind::Baseline {
                    baseline = Some(r.total());
                }
                let vs = baseline
                    .map(|b| format!("  ({:.2}x vs baseline)", b.ratio(r.total())))
                    .unwrap_or_default();
                println!("  {:<18} {}{vs}", bk.to_string(), r);
            }
            Err(e) => println!("  {:<18} unsupported: {e}", bk.to_string()),
        }
    }
    Ok(())
}

fn find_workload(name: &str) -> Option<Box<dyn pim_workloads::Workload>> {
    pim_workloads::paper_suite()
        .into_iter()
        .find(|w| w.name().eq_ignore_ascii_case(name))
}

fn workload(flags: &Flags) -> Result<(), String> {
    warn_unknown(flags, &["name", "backend"]);
    let name = flags.require("name")?;
    let w = find_workload(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let backends = parse_backends(flags.get_or("backend", "all"))?;
    let sys = SystemConfig::paper();
    let pimnet = PimnetSystem::paper();
    let program = w.program(&sys);
    println!(
        "{} ({} phases, {} of collective payload per DPU):",
        w.name(),
        program.phases.len(),
        program.total_collective_bytes()
    );
    for bk in backends {
        let backend = pimnet.backend(bk);
        if !program
            .collective_kinds()
            .iter()
            .all(|&k| backend.supports(k))
        {
            println!("  {:<18} unsupported collective", bk.to_string());
            continue;
        }
        let r = pim_workloads::program::run_program(&program, &sys, backend.as_ref())
            .map_err(|e| e.to_string())?;
        println!("  {:<18} {}", bk.to_string(), r);
    }
    Ok(())
}

fn suite() -> Result<(), String> {
    let sys = SystemConfig::paper();
    let pimnet = PimnetSystem::paper();
    let base = pimnet.backend(BackendKind::Baseline);
    let pim = pimnet.backend(BackendKind::Pimnet);
    println!("workload suite, PIMnet vs baseline (256 DPUs):");
    for w in pim_workloads::paper_suite() {
        let program = w.program(&sys);
        let b = pim_workloads::program::run_program(&program, &sys, base.as_ref())
            .map_err(|e| e.to_string())?;
        let p = pim_workloads::program::run_program(&program, &sys, pim.as_ref())
            .map_err(|e| e.to_string())?;
        println!(
            "  {:<10} baseline {:>12}  pimnet {:>12}  speedup {:>7.2}x",
            w.name(),
            b.total().to_string(),
            p.total().to_string(),
            b.total().ratio(p.total())
        );
    }
    Ok(())
}

/// Parses the bare `--metrics` switch shared by several commands into the
/// matching probe: a metrics-only sink when given, a no-op sink otherwise
/// (so the un-flagged path keeps its zero-overhead guarantee).
fn metrics_probe(flags: &Flags) -> pim_sim::Probe {
    if flags
        .get_or("metrics", "false")
        .eq_ignore_ascii_case("true")
    {
        pim_sim::Probe::metrics_only()
    } else {
        pim_sim::Probe {
            trace: pim_sim::Tracer::disabled(),
            metrics: pim_sim::Metrics::disabled(),
        }
    }
}

fn schedule(flags: &Flags) -> Result<(), String> {
    warn_unknown(
        flags,
        &[
            "kind", "dpus", "elems", "timeline", "metrics", "boost", "algo", "autotune",
        ],
    );
    let kind = parse_kind(flags.require("kind")?)?;
    let dpus: u32 = flags.num_or("dpus", 256)?;
    let elems: usize = flags.num_or("elems", 8192)?;
    let sys = system_for(dpus)?;
    let geometry = sys.system().geometry;
    let autotune = flags
        .get_or("autotune", "false")
        .eq_ignore_ascii_case("true");
    let algo_spec = flags.require("algo").ok();
    if autotune && algo_spec.is_some() {
        return Err("--algo and --autotune are mutually exclusive".to_string());
    }
    let algo = if autotune {
        Algo::Tuned
    } else if let Some(spec) = algo_spec {
        Algo::Composed(pimnet::schedule::Composition::parse(spec)?, 1)
    } else {
        Algo::Paper
    };
    let req = ScheduleRequest {
        algo,
        ..ScheduleRequest::new(kind, &geometry, elems, 4)
    };
    let s = cache::get::<CommSchedule>(&req, Probe::disabled()).map_err(|e| e.to_string())?;
    match algo {
        Algo::Tuned => {
            let choice =
                cache::get::<TunedChoice>(&req, Probe::disabled()).map_err(|e| e.to_string())?;
            println!(
                "autotune: {} candidates swept, {} rejected; winner {} \
                 (paper {}, tuned {}, speedup {:.2}x)",
                choice.candidates,
                choice.rejected,
                choice.spec(),
                choice.paper_time,
                choice.tuned_time,
                choice.speedup()
            );
        }
        Algo::Composed(comp, _) => println!("algo: composed schedule {comp} (bank_chip_rank)"),
        Algo::Paper => {}
    }
    let report = pimnet::schedule::validate::validate(&s).map_err(|e| e.to_string())?;
    println!(
        "{kind} on {dpus} DPUs, {elems} elements/DPU: {} phases, {} steps, \
         {} transfers, {} on the wire",
        s.phases.len(),
        s.step_count(),
        s.transfer_count(),
        s.total_wire_bytes()
    );
    for (i, phase) in s.phases.iter().enumerate() {
        println!(
            "  phase {i}: {:<11} {} steps{}",
            phase.label.to_string(),
            phase.steps.len(),
            if phase.multiplexed {
                "  (WAIT-multiplexed)"
            } else {
                ""
            }
        );
    }
    println!(
        "validation: max sharing ring={} chip={} bus={}",
        report.max_ring_sharing, report.max_chip_sharing, report.max_bus_sharing
    );
    let compiled = pimnet::isa::compile(&s).map_err(|e| e.to_string())?;
    println!(
        "offload: {} PIM instructions across {dpus} DPUs ({} per DPU)",
        compiled.instruction_count(),
        compiled.instruction_count() / dpus as usize
    );
    let energy = pimnet::energy::EnergyModel::default_45nm();
    println!(
        "energy: {:.2} uJ over PIMnet (per-tier {:?})",
        energy.schedule_energy_uj(&s),
        energy.breakdown_uj(&s)
    );
    if flags.get_or("boost", "false").eq_ignore_ascii_case("true") {
        let timing = pimnet::timing::TimingModel::paper();
        let plan = pimnet::schedule::boost::plan(&s);
        let boosted = plan.breakdown(&timing, pim_sim::SimTime::ZERO);
        println!(
            "boost: {} of {} transfers kept ({:.1}x reduction), \
             reconstructed total {}",
            plan.kept_transfers,
            plan.total_transfers,
            plan.reduction(),
            boosted.total()
        );
    }
    if let Ok(path) = flags.require("timeline") {
        let timeline = pimnet::timeline::Timeline::build(&s, &pimnet::timing::TimingModel::paper());
        std::fs::write(path, timeline.to_csv()).map_err(|e| e.to_string())?;
        println!(
            "timeline: {} transfer windows ending at {} -> {path}",
            timeline.windows.len(),
            timeline.end
        );
    }
    let probe = metrics_probe(flags);
    if probe.is_active() {
        let _ = pimnet::timeline::Timeline::build_probed(
            &s,
            &pimnet::timing::TimingModel::paper(),
            &probe,
        );
        println!("{}", probe.metrics.snapshot().render());
    }
    Ok(())
}

fn noc(flags: &Flags) -> Result<(), String> {
    warn_unknown(
        flags,
        &[
            "kind",
            "dpus",
            "elems",
            "jitter-us",
            "fault-seed",
            "fault-config",
            "metrics",
        ],
    );
    let kind = parse_kind(flags.get_or("kind", "a2a"))?;
    let dpus: u32 = flags.num_or("dpus", 64)?;
    let elems: usize = flags.num_or("elems", 2048)?;
    let jitter_us: f64 = flags.num_or("jitter-us", 40.0)?;
    let injector = fault_injector(flags)?;
    let sys = system_for(dpus)?;
    let s =
        CommSchedule::build(kind, &sys.system().geometry, elems, 4).map_err(|e| e.to_string())?;
    let cfg = pim_noc::NocConfig::paper();
    let ready: Vec<SimTime> = (0..u64::from(dpus))
        .map(|i| {
            let f = 0.9 + 0.2 * ((i.wrapping_mul(2_654_435_761) % 1_000) as f64 / 1_000.0);
            SimTime::from_secs_f64(jitter_us * 1e-6 * f)
        })
        .collect();
    let probe = metrics_probe(flags);
    let credit = pim_noc::simulate_credit_faulty_probed(&s, &ready, &cfg, &injector, &probe)
        .map_err(|e| e.to_string())?;
    let sched = pim_noc::simulate_scheduled(&s, &ready, &cfg);
    println!("{kind} on {dpus} DPUs, {elems} elements/DPU, ±10% jitter around {jitter_us} us:");
    println!("  credit-based : {credit}");
    println!(
        "                 p50 latency {}, p99 {}, busiest link {:.1}% utilized",
        credit.p50_latency,
        credit.p99_latency,
        credit.max_link_utilization * 100.0
    );
    println!("  PIM-control  : {sched}");
    let gain = 1.0 - sched.completion.as_secs_f64() / credit.completion.as_secs_f64();
    println!("  PIM control changes completion by {:+.1}%", gain * 100.0);
    if probe.is_active() {
        println!("{}", probe.metrics.snapshot().render());
    }
    Ok(())
}

fn faults(flags: &Flags) -> Result<(), String> {
    warn_unknown(
        flags,
        &[
            "kind",
            "dpus",
            "elems",
            "fault-seed",
            "fault-config",
            "ber",
            "straggler-prob",
            "dead",
            "perm-faults",
            "watchdog-ps",
            "retry-budget",
            "backoff-base-ps",
            "metrics",
        ],
    );
    let kind = parse_kind(flags.get_or("kind", "allreduce"))?;
    let dpus: u32 = flags.num_or("dpus", 64)?;
    let elems: usize = flags.num_or("elems", 1024)?;
    let injector = fault_injector(flags)?;
    let probe = metrics_probe(flags);
    let sys = system_for(dpus)?;
    let cfg = injector.config();
    println!(
        "{kind} on {dpus} DPUs, {elems} elements/DPU; faults: seed {}, BER {}, \
         straggler p={} (<= {} ns), {} dead DPU(s)",
        cfg.seed,
        cfg.transient_ber,
        cfg.straggler_prob,
        cfg.straggler_max_ns,
        cfg.dead_dpus.len()
    );

    // 1. Degrade the plan around hard-dead DPUs.
    let plan = pimnet::resilience::plan_degraded_probed(
        kind,
        &sys.system().geometry,
        elems,
        4,
        &injector,
        sys.system(),
        &probe,
    )
    .map_err(|e| e.to_string())?;
    for e in plan.error_trail() {
        println!("  degradation: {e}");
    }
    let schedule = match &plan {
        pimnet::resilience::DegradedPlan::Full(s) => {
            println!(
                "  plan: full ({} DPUs participate)",
                s.geometry.total_dpus()
            );
            s
        }
        pimnet::resilience::DegradedPlan::Repaired { schedule, report } => {
            println!(
                "  plan: repaired around permanent faults ({} rerouted, {} remapped, \
                 +{} hops, +{} steps)",
                report.rerouted_transfers,
                report.remapped_transfers,
                report.extra_hops,
                report.extra_steps
            );
            schedule
        }
        pimnet::resilience::DegradedPlan::Shrunk {
            schedule, excluded, ..
        } => {
            println!(
                "  plan: shrunk to {} alive DPUs ({} excluded: {excluded:?})",
                schedule.geometry.total_dpus(),
                excluded.len()
            );
            schedule
        }
        pimnet::resilience::DegradedPlan::HostFallback {
            breakdown,
            excluded,
            ..
        } => {
            println!(
                "  plan: host fallback ({} DPUs excluded), baseline collective takes {}",
                excluded.len(),
                breakdown.total()
            );
            if probe.is_active() {
                println!("{}", probe.metrics.snapshot().render());
            }
            return Ok(());
        }
    };

    // 2. Time the degraded schedule under transients and stragglers. The
    //    shrunk schedule speaks *logical* ids (all alive by construction),
    //    so the physical dead set no longer applies to it.
    let injector = pim_faults::FaultInjector::new(pim_faults::FaultConfig {
        dead_dpus: Vec::new(),
        ..injector.config().clone()
    });
    let timing = pimnet::timing::TimingModel::paper();
    let clean = pimnet::timeline::Timeline::build(schedule, &timing);
    let faulty =
        pimnet::timeline::Timeline::build_with_faults_probed(schedule, &timing, &injector, &probe)
            .map_err(|e| e.to_string())?;
    let stretch = faulty.end.as_secs_f64() / clean.end.as_secs_f64();
    println!(
        "  timing: fault-free {} -> under faults {}  ({:.2}x)",
        clean.end, faulty.end, stretch
    );

    // 3. Execute it functionally: CRC-detected corruption, retries, and a
    //    bit-identical check against the clean run.
    let init = |id: pim_arch::geometry::DpuId| vec![u64::from(id.0); elems];
    let mut clean_m = pimnet::exec::ExecMachine::init(schedule, init);
    clean_m.run(schedule, pimnet::exec::ReduceOp::Sum);
    let mut faulty_m = pimnet::exec::ExecMachine::init(schedule, init);
    let stats = faulty_m
        .run_with_faults_probed(schedule, pimnet::exec::ReduceOp::Sum, &injector, &probe)
        .map_err(|e| e.to_string())?;
    println!(
        "  exec: {} transfers, {} CRC checks, {} corrupted, {} retries; \
         result bit-identical to fault-free run: {}",
        stats.transfers,
        stats.crc_checks,
        stats.corrupted,
        stats.retries,
        clean_m == faulty_m
    );
    if clean_m != faulty_m {
        return Err("faulty run diverged from the clean run".into());
    }
    if probe.is_active() {
        println!("{}", probe.metrics.snapshot().render());
    }
    Ok(())
}

fn repair(flags: &Flags) -> Result<(), String> {
    warn_unknown(
        flags,
        &[
            "kind",
            "dpus",
            "elems",
            "perm-faults",
            "fault-seed",
            "fault-config",
            "metrics",
        ],
    );
    let kind = parse_kind(flags.get_or("kind", "allreduce"))?;
    let dpus: u32 = flags.num_or("dpus", 64)?;
    let elems: usize = flags.num_or("elems", 1024)?;
    let injector = fault_injector(flags)?;
    let probe = metrics_probe(flags);
    let sys = system_for(dpus)?;
    let g = sys.system().geometry;
    let faults = injector.permanent_faults(g.ranks_per_channel, g.chips_per_rank, g.banks_per_chip);
    println!("{kind} on {dpus} DPUs, {elems} elements/DPU");
    println!("permanent faults: {faults}");
    let unusable = pimnet::schedule::repair::unusable_dpus(&g, &faults);
    if !unusable.is_empty() {
        println!(
            "  {} DPU(s) unreachable even by repair: {unusable:?}",
            unusable.len()
        );
    }
    let s = CommSchedule::build(kind, &g, elems, 4).map_err(|e| e.to_string())?;
    let timing = pimnet::timing::TimingModel::paper();
    match pimnet::timeline::Timeline::build_repaired_probed(&s, &timing, &faults, &probe) {
        Ok((timeline, report)) => {
            println!(
                "  repair: {} rerouted (+{} hops), {} remapped to buddy ports, \
                 +{} serialization steps",
                report.rerouted_transfers,
                report.extra_hops,
                report.remapped_transfers,
                report.extra_steps
            );
            let clean = pimnet::timeline::Timeline::build(&s, &timing);
            println!(
                "  timing: fault-free {} -> repaired {}  ({:.2}x)",
                clean.end,
                timeline.end,
                timeline.end.as_secs_f64() / clean.end.as_secs_f64()
            );
            // Verify: the repaired schedule must produce bit-identical
            // results to the fault-free plan.
            let repaired = pimnet::schedule::repair::repair(&s, &faults)
                .map_err(|e| format!("repair succeeded in the timeline but not on re-run: {e}"))?;
            let init = |id: pim_arch::geometry::DpuId| vec![u64::from(id.0) + 1; elems];
            let mut clean_m = pimnet::exec::ExecMachine::init(&s, init);
            clean_m.run(&s, pimnet::exec::ReduceOp::Sum);
            let mut rep_m = pimnet::exec::ExecMachine::init(&repaired.schedule, init);
            rep_m.run(&repaired.schedule, pimnet::exec::ReduceOp::Sum);
            println!(
                "  exec: repaired result bit-identical to fault-free run: {}",
                clean_m == rep_m
            );
            if clean_m != rep_m {
                return Err("repaired run diverged from the clean run".into());
            }
        }
        Err(e) => {
            println!("  repair failed: {e}");
            // Show where the ladder lands instead.
            let plan =
                pimnet::resilience::plan_degraded(kind, &g, elems, 4, &injector, sys.system())
                    .map_err(|e| e.to_string())?;
            println!("  degradation ladder lands on: {}", plan.tier_name());
            for e in plan.error_trail() {
                println!("    trail: {e}");
            }
        }
    }
    if probe.is_active() {
        println!("{}", probe.metrics.snapshot().render());
    }
    Ok(())
}

/// Analyzes one schedule without executing it. Under permanent faults the
/// schedule is repaired first and the *repaired* schedule is proven, so
/// the rewrite is never trusted. Returns the report plus an optional
/// context note for the human output.
fn lint_one(
    kind: CollectiveKind,
    g: &pim_arch::geometry::PimGeometry,
    elems: usize,
    injector: &pim_faults::FaultInjector,
    incremental: bool,
) -> Result<(pimnet::analysis::AnalysisReport, Option<String>), String> {
    let s = CommSchedule::build(kind, g, elems, 4).map_err(|e| e.to_string())?;
    let batch = |s: &CommSchedule| -> pimnet::analysis::AnalysisReport {
        if incremental {
            // The streaming verifier's report is byte-identical to
            // `run_all` — the differential suite pins this.
            pimnet::analysis::verify_full(s).report
        } else {
            pimnet::analysis::run_all(s)
        }
    };
    if !injector.has_permanent_faults() {
        return Ok((batch(&s), None));
    }
    let faults = injector.permanent_faults(g.ranks_per_channel, g.chips_per_rank, g.banks_per_chip);
    if faults.is_empty() {
        return Ok((batch(&s), None));
    }
    let unusable = pimnet::schedule::repair::unusable_dpus(g, &faults);
    if !unusable.is_empty() {
        return Err(format!(
            "{} DPU(s) unreachable under these faults ({unusable:?}); repair cannot \
             keep every participant, so there is no full-size schedule to lint",
            unusable.len()
        ));
    }
    let r =
        pimnet::schedule::repair::repair(&s, &faults).map_err(|e| format!("repair failed: {e}"))?;
    let repair_note = format!(
        "linting repaired schedule ({} rerouted, {} remapped, +{} steps)",
        r.report.rerouted_transfers, r.report.remapped_transfers, r.report.extra_steps
    );
    if incremental {
        // Prove the base once, then re-prove the repair by delta: only
        // the dirtied steps and their state-dependent suffix re-lint.
        let base = pimnet::analysis::verify_full(&s);
        let (summary, delta) = pimnet::analysis::reverify_repair(&base, &r);
        let note = format!(
            "{repair_note}\nincremental: {} of {} step(s) reused, {} re-linted{}",
            delta.reused(),
            delta.steps_total,
            delta.relinted,
            if delta.reused_final {
                ", result check reused"
            } else {
                ""
            }
        );
        return Ok((summary.report.clone(), Some(note)));
    }
    Ok((pimnet::analysis::run_all(&r.schedule), Some(repair_note)))
}

fn lint(flags: &Flags) -> Result<(), String> {
    warn_unknown(
        flags,
        &[
            "kind",
            "dpus",
            "elems",
            "json",
            "all-presets",
            "incremental",
            "perm-faults",
            "fault-seed",
            "fault-config",
        ],
    );
    let json = flags.get_or("json", "false").eq_ignore_ascii_case("true");
    let incremental = flags
        .get_or("incremental", "false")
        .eq_ignore_ascii_case("true");
    if flags
        .get_or("all-presets", "false")
        .eq_ignore_ascii_case("true")
    {
        return lint_all_presets(json);
    }
    let kind = parse_kind(flags.get_or("kind", "allreduce"))?;
    let dpus: u32 = flags.num_or("dpus", 64)?;
    let elems: usize = flags.num_or("elems", 1024)?;
    let injector = fault_injector(flags)?;
    let sys = system_for(dpus)?;
    let (report, note) = lint_one(kind, &sys.system().geometry, elems, &injector, incremental)?;
    if json {
        println!("{}", report.to_json());
    } else {
        if let Some(n) = note {
            println!("{n}");
        }
        println!("{report}");
    }
    if report.has_errors() {
        Err(format!("lint failed: {} error(s)", report.error_count()))
    } else {
        Ok(())
    }
}

/// Lints every collective on the paper's preset geometries (Tables
/// II/IV/VI: 8/64/256 DPUs at two payload sizes), then re-proves repaired
/// schedules under sampled permanent-fault storms. Storm scenarios whose
/// faults make DPUs unreachable are skipped with a note — there repair
/// cannot keep every participant and the ladder shrinks instead.
///
/// The matrix itself lives in [`pimnet::analysis::presets`] (shared with
/// the `perf_gate` harness) and fans out over `pim_sim::par`
/// (`PIMNET_THREADS` workers); ordered result collection keeps the
/// output byte-identical to the sequential run.
fn lint_all_presets(json: bool) -> Result<(), String> {
    use pimnet::analysis::presets;
    let results = pim_sim::par::map_ordered(presets::cases(), |case| (case, case.run()));
    let mut failures = 0usize;
    let mut checked = 0usize;
    for (case, result) in results {
        match result {
            Ok(report) => {
                checked += 1;
                if report.has_errors() {
                    failures += 1;
                }
                if json {
                    println!("{}", report.to_json());
                } else if report.is_clean() {
                    println!("ok   {}", case.label());
                } else {
                    println!("FAIL {}\n{report}", case.label());
                }
            }
            // Unreachable DPUs: no full-size schedule exists for this
            // storm. A clean preset failing to build is a real error.
            Err(e) if case.storm_seed.is_some() => {
                if !json {
                    println!("skip {}: {e}", case.label());
                }
            }
            Err(e) => return Err(e),
        }
    }
    if failures > 0 {
        Err(format!("lint failed on {failures} of {checked} preset(s)"))
    } else {
        if !json {
            println!("all {checked} linted preset(s) clean");
        }
        Ok(())
    }
}

/// Runs one collective end-to-end (schedule cache, timing engine,
/// functional executor — plus fault handling when the injector is active)
/// with an enabled probe, and returns the drained trace and metrics.
fn trace_one(
    kind: CollectiveKind,
    geometry: &pim_arch::geometry::PimGeometry,
    elems: usize,
    injector: &pim_faults::FaultInjector,
) -> Result<(pim_sim::Trace, pim_sim::MetricsReport), String> {
    let probe = pim_sim::Probe::enabled();
    let timing = pimnet::timing::TimingModel::paper();
    let req = ScheduleRequest::new(kind, geometry, elems, 4);
    let s = cache::get::<CommSchedule>(&req, &probe).map_err(|e| e.to_string())?;
    let init = |id: pim_arch::geometry::DpuId| vec![u64::from(id.0) + 1; elems];
    let mut machine = pimnet::exec::ExecMachine::init(&s, init);
    if injector.is_active() {
        pimnet::timeline::Timeline::build_with_faults_probed(&s, &timing, injector, &probe)
            .map_err(|e| e.to_string())?;
        machine
            .run_with_faults_probed(&s, pimnet::exec::ReduceOp::Sum, injector, &probe)
            .map_err(|e| e.to_string())?;
    } else {
        let _ = pimnet::timeline::Timeline::build_probed(&s, &timing, &probe);
        machine.run_probed(&s, pimnet::exec::ReduceOp::Sum, &probe);
    }
    Ok((probe.trace.drain(), probe.metrics.snapshot()))
}

fn trace(flags: &Flags) -> Result<(), String> {
    warn_unknown(
        flags,
        &[
            "kind",
            "dpus",
            "elems",
            "out",
            "csv",
            "fault-seed",
            "fault-config",
            "ber",
            "straggler-prob",
            "dead",
            "perm-faults",
        ],
    );
    let kinds = parse_kinds(flags.get_or("kind", "all"))?;
    let dpus: u32 = flags.num_or("dpus", 8)?;
    let elems: usize = flags.num_or("elems", 64)?;
    let injector = fault_injector(flags)?;
    let sys = system_for(dpus)?;
    let g = sys.system().geometry;
    // Fan the kinds out over the deterministic pool; ordered collection
    // keeps the export byte-identical at any PIMNET_THREADS (CI diffs it).
    let results =
        pim_sim::par::map_ordered(kinds, |kind| (kind, trace_one(kind, &g, elems, &injector)));
    let mut parts: Vec<(String, pim_sim::Trace)> = Vec::new();
    let mut merged = pim_sim::MetricsReport::new();
    for (kind, result) in results {
        let (trace, report) = result?;
        merged.merge(&report);
        parts.push((format!("{kind}").to_ascii_lowercase(), trace));
    }
    let refs: Vec<(&str, &pim_sim::Trace)> = parts.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let json = pim_sim::trace::chrome_json(&refs);
    // Without --out, stdout carries the JSON and the summary moves to
    // stderr so the output stays pipeable.
    let to_file = flags.require("out").is_ok();
    let say = |line: String| {
        if to_file {
            println!("{line}");
        } else {
            eprintln!("{line}");
        }
    };
    for (name, t) in &parts {
        say(format!(
            "  {name:<14} {:>5} events ({} dropped), fingerprint {:#018x}",
            t.events.len(),
            t.dropped,
            t.fingerprint()
        ));
    }
    say(format!("metrics:\n{}", merged.render()));
    if let Ok(path) = flags.require("csv") {
        let mut csv = String::new();
        for (name, t) in &parts {
            csv.push_str(&format!("# part {name}\n"));
            csv.push_str(&t.to_csv());
        }
        std::fs::write(path, csv).map_err(|e| e.to_string())?;
        say(format!("csv -> {path}"));
    }
    if let Ok(path) = flags.require("out") {
        std::fs::write(path, &json).map_err(|e| e.to_string())?;
        println!("chrome trace ({} part(s)) -> {path}", parts.len());
    } else {
        print!("{json}");
    }
    Ok(())
}

/// Per-DPU input every soak run (and its fault-free reference) starts
/// from — distinct per node and per element so divergence cannot cancel.
fn soak_input(id: pim_arch::geometry::DpuId, elems: usize) -> Vec<u64> {
    (0..elems)
        .map(|e| (u64::from(id.0) + 1) * 1_000 + e as u64)
        .collect()
}

/// Everything one soak seed needs, shared immutably across the worker
/// pool so a seed's outcome is a pure function of `(ctx, seed)`.
struct SoakCtx<'a> {
    kind: CollectiveKind,
    geometry: &'a pim_arch::geometry::PimGeometry,
    system: &'a SystemConfig,
    timing: &'a pimnet::timing::TimingModel,
    elems: usize,
    base: &'a pim_faults::FaultConfig,
    /// Per-component storm probability (0 disables sampling).
    rate: f64,
    horizon_ps: u64,
    /// Fault-free schedule + result that tier <= 1 runs must reproduce.
    reference: &'a (CommSchedule, pimnet::exec::ExecMachine<u64>),
}

/// What one soak seed did — the summary, the CSV artifact and the
/// soundness verdict all read these same numbers.
struct SoakRow {
    seed: u64,
    /// Ladder tier the recovery ended on; `None` when the scenario was
    /// unplannable outright (a typed error, counted separately).
    tier: Option<u8>,
    stats: pimnet::recovery::RecoveryStats,
    end_ps: u64,
    /// Result checked bit-identical to the fault-free reference (only
    /// ever claimed at tier <= 1; deeper tiers change the participant set).
    verified: bool,
    /// First soundness violation observed; any `Some` fails the command.
    unsound: Option<String>,
    /// Typed error trail, rendered.
    errors: Vec<String>,
}

/// Runs one seed of the recovery soak and verdicts its end state.
fn soak_seed(ctx: &SoakCtx<'_>, seed: u64) -> SoakRow {
    let mut cfg = ctx.base.clone();
    cfg.seed = seed;
    if ctx.rate > 0.0 {
        let rates = pim_faults::TimelineRates {
            segment_arrival_prob: ctx.rate,
            port_arrival_prob: ctx.rate,
            // Rank deaths take out whole swaths; keep them rarer so the
            // matrix exercises the upper tiers too, not just fallback.
            rank_arrival_prob: ctx.rate / 4.0,
            flap_prob: ctx.rate,
            burst_prob: ctx.rate,
            burst_ber: 0.8,
        };
        let g = ctx.geometry;
        let storm = pim_faults::FaultTimeline::sample(
            seed,
            g.ranks_per_channel,
            g.chips_per_rank,
            g.banks_per_chip,
            ctx.horizon_ps,
            &rates,
        );
        cfg.timeline.arrivals.extend(storm.arrivals);
        cfg.timeline.flaps.extend(storm.flaps);
        cfg.timeline.bursts.extend(storm.bursts);
        cfg.timeline.normalize();
    }
    let injector = pim_faults::FaultInjector::new(cfg);
    let req = pimnet::recovery::RecoveryRequest {
        kind: ctx.kind,
        geometry: ctx.geometry,
        elems_per_node: ctx.elems,
        elem_bytes: 8,
        op: pimnet::exec::ReduceOp::Sum,
        injector: &injector,
        system: ctx.system,
        timing: ctx.timing,
        config: pimnet::recovery::RecoveryConfig::default(),
    };
    let elems = ctx.elems;
    let out = match pimnet::recovery::run_recovered::<u64>(&req, |id| soak_input(id, elems)) {
        Ok(out) => out,
        // Unplannable outright (e.g. every rank already dead): a typed
        // end state of its own, not a ladder tier.
        Err(e) => {
            return SoakRow {
                seed,
                tier: None,
                stats: pimnet::recovery::RecoveryStats::default(),
                end_ps: 0,
                verified: false,
                unsound: None,
                errors: vec![e.to_string()],
            }
        }
    };
    let (ref_s, ref_m) = ctx.reference;
    let mut verified = false;
    let mut unsound = None;
    match (out.plan_tier, out.machine.as_ref()) {
        (0 | 1, Some(m)) => {
            if ref_s
                .participants()
                .all(|id| m.result(ref_s, id) == ref_m.result(ref_s, id))
            {
                verified = true;
            } else {
                unsound = Some("tier <= 1 result diverged from the fault-free reference".into());
            }
        }
        (0 | 1, None) => unsound = Some("tier <= 1 ended without a result".into()),
        (2, Some(_)) => {}
        (2, None) => unsound = Some("shrunk plan ended without a result".into()),
        (_, Some(_)) => unsound = Some("host fallback still returned a PIM-side result".into()),
        (_, None) => {
            if out.error_trail.is_empty() {
                unsound = Some("host fallback carried no typed error trail".into());
            }
        }
    }
    SoakRow {
        seed,
        tier: Some(out.plan_tier),
        stats: out.stats,
        end_ps: out.end_ps,
        verified,
        unsound,
        errors: out.error_trail.iter().map(ToString::to_string).collect(),
    }
}

fn soak(flags: &Flags) -> Result<(), String> {
    warn_unknown(
        flags,
        &[
            "kind",
            "dpus",
            "elems",
            "seeds",
            "timeline-rate",
            "horizon-ps",
            "csv",
            "fault-seed",
            "fault-config",
            "ber",
            "straggler-prob",
            "dead",
            "perm-faults",
            "arrivals",
            "flaps",
            "bursts",
            "watchdog-ps",
            "retry-budget",
            "backoff-base-ps",
        ],
    );
    let kind = parse_kind(flags.get_or("kind", "allreduce"))?;
    let dpus: u32 = flags.num_or("dpus", 16)?;
    let elems: usize = flags.num_or("elems", 64)?;
    let seeds: u64 = flags.num_or("seeds", 32)?;
    if seeds == 0 {
        return Err("flag --seeds: need at least one seed".into());
    }
    let rate: f64 = flags.num_or("timeline-rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "flag --timeline-rate: '{rate}' is not a probability"
        ));
    }
    let horizon_ps: u64 = flags.num_or("horizon-ps", 50_000_000)?;
    let base = fault_injector(flags)?.config().clone();
    let sys = system_for(dpus)?;
    let g = sys.system().geometry;
    let timing = pimnet::timing::TimingModel::paper();
    let ref_s = CommSchedule::build(kind, &g, elems, 8).map_err(|e| e.to_string())?;
    let ref_m = pimnet::exec::run_collective(&ref_s, pimnet::exec::ReduceOp::Sum, |id| {
        soak_input(id, elems)
    })
    .map_err(|e| e.to_string())?;
    let reference = (ref_s, ref_m);
    let ctx = SoakCtx {
        kind,
        geometry: &g,
        system: sys.system(),
        timing: &timing,
        elems,
        base: &base,
        rate,
        horizon_ps,
        reference: &reference,
    };
    let seed_list: Vec<u64> = (0..seeds).map(|i| base.seed.wrapping_add(i)).collect();
    // Fan the seeds out; ordered collection keeps the summary and the
    // CSV byte-identical at any PIMNET_THREADS (CI diffs 1 vs 4 workers).
    let rows = pim_sim::par::map_ordered(seed_list, |seed| soak_seed(&ctx, seed));

    let mut tiers = [0u64; 4];
    let mut unplannable = 0u64;
    let mut eligible = 0u64;
    let mut verified = 0u64;
    let mut totals = pimnet::recovery::RecoveryStats::default();
    let mut worst_end = 0u64;
    let mut violations: Vec<String> = Vec::new();
    for r in &rows {
        match r.tier {
            Some(t) => tiers[usize::from(t.min(3))] += 1,
            None => unplannable += 1,
        }
        if matches!(r.tier, Some(0 | 1)) {
            eligible += 1;
        }
        verified += u64::from(r.verified);
        totals.steps_executed += r.stats.steps_executed;
        totals.step_retries += r.stats.step_retries;
        totals.backoff_ps += r.stats.backoff_ps;
        totals.replans += r.stats.replans;
        totals.quarantines += r.stats.quarantines;
        totals.arrivals_applied += r.stats.arrivals_applied;
        totals.checkpoints += r.stats.checkpoints;
        worst_end = worst_end.max(r.end_ps);
        if let Some(why) = &r.unsound {
            violations.push(format!("seed {}: {why}", r.seed));
        }
    }
    println!(
        "recovery soak: {kind} on {dpus} DPUs, {elems} elements/DPU, {seeds} seed(s) from {}",
        base.seed
    );
    println!(
        "  tiers: full {}  repaired {}  shrunk {}  host-fallback {}  unplannable {}",
        tiers[0], tiers[1], tiers[2], tiers[3], unplannable
    );
    println!("  verified bit-identical at tier <= 1: {verified}/{eligible}");
    println!(
        "  totals: {} steps, {} retries ({} ps backing off), {} replans, \
         {} quarantines, {} arrivals applied, {} checkpoints",
        totals.steps_executed,
        totals.step_retries,
        totals.backoff_ps,
        totals.replans,
        totals.quarantines,
        totals.arrivals_applied,
        totals.checkpoints
    );
    println!("  worst recovered clock: {:.1} us", worst_end as f64 / 1e6);
    if let Ok(path) = flags.require("csv") {
        let mut csv = String::from(
            "seed,tier,steps,retries,backoff_ps,replans,quarantines,arrivals,\
             checkpoints,end_ps,verified,errors\n",
        );
        for r in &rows {
            let tier = r.tier.map_or_else(|| "-".to_string(), |t| t.to_string());
            csv.push_str(&format!(
                "{},{tier},{},{},{},{},{},{},{},{},{},{}\n",
                r.seed,
                r.stats.steps_executed,
                r.stats.step_retries,
                r.stats.backoff_ps,
                r.stats.replans,
                r.stats.quarantines,
                r.stats.arrivals_applied,
                r.stats.checkpoints,
                r.end_ps,
                r.verified,
                r.errors.join("; ").replace(',', ";")
            ));
        }
        std::fs::write(path, csv).map_err(|e| e.to_string())?;
        println!("csv -> {path}");
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "soak found {} unsound run(s): {}",
            violations.len(),
            violations.join("; ")
        ))
    }
}

/// Flags shared by `serve` and `replay` (fault flags ride along so a
/// storm scenario replays from the same command line).
const SERVE_FLAGS: &[&str] = &[
    "tenants",
    "seed",
    "horizon-us",
    "policy",
    "queue-cap",
    "elems",
    "chunk-elems",
    "mean-gap-us",
    "deadline-us",
    "priority-spread",
    "timeline-rate",
    "log",
    "metrics",
    "fault-seed",
    "fault-config",
    "ber",
    "straggler-prob",
    "dead",
    "perm-faults",
    "arrivals",
    "flaps",
    "bursts",
    "watchdog-ps",
    "retry-budget",
    "backoff-base-ps",
];

/// Builds a `ServeConfig` from the shared serve/replay flag set, so the
/// two commands cannot drift apart: a replay is the same construction.
fn serve_config(flags: &Flags) -> Result<pimnet::serve::ServeConfig, String> {
    let tenants: usize = flags.num_or("tenants", 4)?;
    let seed: u64 = flags.num_or("seed", 1)?;
    let mut cfg = pimnet::serve::ServeConfig::uniform(tenants, seed);
    cfg.horizon_ps = flags
        .num_or("horizon-us", 2_000u64)?
        .saturating_mul(1_000_000);
    cfg.policy = pimnet::serve::QueuePolicy::parse(flags.get_or("policy", "fifo"))?;
    cfg.chunk_elems = flags.num_or("chunk-elems", cfg.chunk_elems)?;
    let queue_cap: usize = flags.num_or("queue-cap", 8)?;
    let elems: usize = flags.num_or("elems", 256)?;
    let mean_gap_ps = flags
        .num_or("mean-gap-us", 100u64)?
        .saturating_mul(1_000_000);
    let deadline_ps = flags
        .num_or("deadline-us", 2_000u64)?
        .saturating_mul(1_000_000);
    let spread = flags
        .get_or("priority-spread", "false")
        .eq_ignore_ascii_case("true");
    for (i, t) in cfg.tenants.iter_mut().enumerate() {
        t.queue_capacity = queue_cap;
        t.elems_per_node = elems;
        t.mean_gap_ps = mean_gap_ps;
        t.deadline_ps = deadline_ps;
        if spread {
            t.priority = 1 + (i % 3) as u8;
        }
    }
    cfg.faults = fault_injector(flags)?.config().clone();
    let rate: f64 = flags.num_or("timeline-rate", 0.0)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!(
            "flag --timeline-rate: '{rate}' is not a probability"
        ));
    }
    // An empty tenant list is serve's own typed config error; don't
    // index into it for the storm geometry here.
    if rate > 0.0 && !cfg.tenants.is_empty() {
        let rates = pim_faults::TimelineRates {
            segment_arrival_prob: rate,
            port_arrival_prob: rate,
            rank_arrival_prob: rate / 4.0,
            flap_prob: rate,
            burst_prob: rate,
            burst_ber: 0.8,
        };
        let g = &cfg.tenants[0].geometry;
        let storm = pim_faults::FaultTimeline::sample(
            seed,
            g.ranks_per_channel,
            g.chips_per_rank,
            g.banks_per_chip,
            cfg.horizon_ps,
            &rates,
        );
        cfg.faults.timeline.arrivals.extend(storm.arrivals);
        cfg.faults.timeline.flaps.extend(storm.flaps);
        cfg.faults.timeline.bursts.extend(storm.bursts);
        cfg.faults.timeline.normalize();
    }
    Ok(cfg)
}

/// Re-verifies the serving soundness contract on a finished report.
/// The engine guarantees these by construction; the CLI re-proves them
/// from the outside so a regression fails the command, not just a test.
fn serve_violations(
    cfg: &pimnet::serve::ServeConfig,
    report: &pimnet::serve::ServeReport,
) -> Vec<String> {
    let mut violations = Vec::new();
    let arrivals = pimnet::serve::sample_arrivals(cfg);
    if report.log.len() != arrivals.len() {
        violations.push(format!(
            "request log has {} entries for {} sampled arrivals",
            report.log.len(),
            arrivals.len()
        ));
    }
    for (i, r) in report.log.iter().enumerate() {
        if r.request.id != i as u64 {
            violations.push(format!("log entry {i} carries request id {}", r.request.id));
            break;
        }
    }
    let mut level = 0u8;
    for s in &report.ladder {
        if s.level < level {
            violations.push(format!(
                "overload ladder dropped from {level} to {} at {} ps",
                s.level, s.at_ps
            ));
        }
        level = level.max(s.level);
    }
    let mut epochs = vec![0u64; cfg.tenants.len()];
    for q in &report.quarantines {
        let e = &mut epochs[q.tenant as usize];
        if q.epoch < *e {
            violations.push(format!(
                "tenant {} quarantine epoch regressed from {} to {}",
                q.tenant, *e, q.epoch
            ));
        }
        *e = q.epoch;
    }
    violations
}

fn serve(flags: &Flags) -> Result<(), String> {
    warn_unknown(flags, SERVE_FLAGS);
    let cfg = serve_config(flags)?;
    let probe = metrics_probe(flags);
    let report = pimnet::serve::serve_probed(&cfg, &probe).map_err(|e| e.to_string())?;
    println!(
        "serving: {} tenant(s), policy {}, seed {}, horizon {:.0} us",
        cfg.tenants.len(),
        cfg.policy.name(),
        cfg.seed,
        cfg.horizon_ps as f64 / 1e6
    );
    println!(
        "  requests {}: served {}  host-fallback {}  shed {}  quarantined {}",
        report.log.len(),
        report.count("served"),
        report.count("host-fallback"),
        report.count("shed"),
        report.count("quarantined")
    );
    println!(
        "  latency: p50 {:.1} us  p99 {:.1} us  throughput {:.1} collectives/s",
        report.percentile_ps(50.0) as f64 / 1e6,
        report.percentile_ps(99.0) as f64 / 1e6,
        report.collectives_per_sec()
    );
    println!(
        "  overload ladder peak: level {} ({} step(s)); quarantine events: {}",
        report.peak_level(),
        report.ladder.len(),
        report.quarantines.len()
    );
    println!("  end clock: {:.1} us", report.end_ps as f64 / 1e6);
    if probe.is_active() {
        println!("{}", probe.metrics.snapshot().render());
    }
    if let Ok(path) = flags.require("log") {
        std::fs::write(path, report.render_log(&cfg)).map_err(|e| e.to_string())?;
        println!("request log -> {path}");
    }
    let violations = serve_violations(&cfg, &report);
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "serve found {} soundness violation(s): {}",
            violations.len(),
            violations.join("; ")
        ))
    }
}

fn replay(flags: &Flags) -> Result<(), String> {
    warn_unknown(flags, SERVE_FLAGS);
    let path = flags.require("log")?;
    let pinned = std::fs::read_to_string(path)
        .map_err(|e| format!("flag --log: cannot read '{path}': {e}"))?;
    let cfg = serve_config(flags)?;
    let report = pimnet::serve::serve(&cfg).map_err(|e| e.to_string())?;
    let fresh = report.render_log(&cfg);
    if fresh == pinned {
        println!(
            "replay verified: {} request(s), {} bytes match {path}",
            report.log.len(),
            fresh.len()
        );
        return Ok(());
    }
    let diverged = fresh
        .lines()
        .zip(pinned.lines())
        .position(|(a, b)| a != b)
        .map_or_else(
            || fresh.lines().count().min(pinned.lines().count()) + 1,
            |i| i + 1,
        );
    Err(format!(
        "replay diverged from {path} at line {diverged}: the pinned log is \
         {} byte(s), the fresh run produced {}",
        pinned.len(),
        fresh.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<(), String> {
        dispatch(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn kind_parsing() {
        assert_eq!(parse_kind("AllReduce").unwrap(), CollectiveKind::AllReduce);
        assert_eq!(parse_kind("a2a").unwrap(), CollectiveKind::AllToAll);
        assert!(parse_kind("nope").is_err());
    }

    #[test]
    fn backend_parsing() {
        assert_eq!(parse_backends("all").unwrap().len(), 5);
        assert_eq!(
            parse_backends("BP").unwrap(),
            vec![BackendKind::Baseline, BackendKind::Pimnet]
        );
        assert!(parse_backends("X").is_err());
    }

    #[test]
    fn collective_command_runs() {
        run(&[
            "collective",
            "--kind",
            "allreduce",
            "--kb",
            "4",
            "--dpus",
            "64",
            "--backend",
            "BP",
        ])
        .unwrap();
    }

    #[test]
    fn schedule_command_runs() {
        run(&["schedule", "--kind", "rs", "--dpus", "32", "--elems", "256"]).unwrap();
    }

    #[test]
    fn noc_command_runs() {
        run(&["noc", "--kind", "ar", "--dpus", "16", "--elems", "256"]).unwrap();
    }

    #[test]
    fn noc_command_accepts_fault_flags() {
        run(&[
            "noc",
            "--kind",
            "ar",
            "--dpus",
            "8",
            "--elems",
            "128",
            "--fault-seed",
            "7",
        ])
        .unwrap();
    }

    #[test]
    fn faults_command_runs_clean_and_faulty() {
        run(&["faults", "--kind", "ar", "--dpus", "16", "--elems", "128"]).unwrap();
        run(&[
            "faults",
            "--kind",
            "ar",
            "--dpus",
            "16",
            "--elems",
            "128",
            "--fault-seed",
            "42",
            "--ber",
            "0.05",
            "--straggler-prob",
            "0.25",
        ])
        .unwrap();
    }

    #[test]
    fn faults_command_degrades_around_dead_dpus() {
        run(&[
            "faults", "--kind", "ar", "--dpus", "16", "--elems", "64", "--dead", "1,4,9",
        ])
        .unwrap();
    }

    #[test]
    fn faults_command_rejects_bad_probabilities() {
        assert!(run(&["faults", "--kind", "ar", "--ber", "1.5"]).is_err());
        assert!(run(&["faults", "--kind", "ar", "--dead", "x"]).is_err());
    }

    #[test]
    fn repair_command_reroutes_and_remaps() {
        run(&[
            "repair",
            "--kind",
            "ar",
            "--dpus",
            "64",
            "--elems",
            "256",
            "--perm-faults",
            "r0c0b2E,r0c3tx",
        ])
        .unwrap();
        // Identity case (no faults) also runs.
        run(&["repair", "--kind", "a2a", "--dpus", "16", "--elems", "64"]).unwrap();
    }

    #[test]
    fn repair_command_reports_the_ladder_on_dead_ranks() {
        // A dead rank defeats repair; the command must surface the ladder
        // tier instead of erroring out.
        run(&[
            "repair",
            "--kind",
            "ar",
            "--dpus",
            "256",
            "--elems",
            "64",
            "--perm-faults",
            "rank1",
        ])
        .unwrap();
    }

    #[test]
    fn faults_command_accepts_permanent_faults() {
        run(&[
            "faults",
            "--kind",
            "ar",
            "--dpus",
            "64",
            "--elems",
            "128",
            "--perm-faults",
            "r0c0b1W",
        ])
        .unwrap();
    }

    #[test]
    fn repair_command_rejects_bad_tokens() {
        assert!(run(&["repair", "--perm-faults", "bogus"]).is_err());
    }

    #[test]
    fn lint_command_passes_clean_presets() {
        run(&["lint", "--kind", "ar", "--dpus", "16", "--elems", "128"]).unwrap();
        run(&[
            "lint", "--kind", "ag", "--dpus", "8", "--elems", "64", "--json", "true",
        ])
        .unwrap();
    }

    #[test]
    fn lint_command_incremental_matches_batch() {
        // The streaming verifier must accept exactly what the batch
        // analyzer accepts, on both clean and repaired schedules.
        run(&[
            "lint",
            "--kind",
            "ar",
            "--dpus",
            "16",
            "--elems",
            "128",
            "--incremental",
            "true",
        ])
        .unwrap();
        run(&[
            "lint",
            "--kind",
            "rs",
            "--dpus",
            "64",
            "--elems",
            "64",
            "--incremental",
            "true",
            "--perm-faults",
            "r0c0b2E",
        ])
        .unwrap();
    }

    #[test]
    fn lint_command_proves_repaired_schedules() {
        run(&[
            "lint",
            "--kind",
            "ar",
            "--dpus",
            "64",
            "--elems",
            "128",
            "--perm-faults",
            "r0c0b2E,r0c3tx",
        ])
        .unwrap();
    }

    #[test]
    fn lint_command_rejects_unreachable_fault_sets() {
        // A dead rank leaves DPUs no repair can reach: there is no
        // full-size schedule to lint, and the command must say so.
        assert!(run(&[
            "lint",
            "--kind",
            "ar",
            "--dpus",
            "256",
            "--elems",
            "64",
            "--perm-faults",
            "rank1",
        ])
        .is_err());
    }

    #[test]
    fn trace_command_writes_chrome_json_and_csv() {
        let dir = std::env::temp_dir().join("pimnet-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("t.json");
        let csv = dir.join("t.csv");
        run(&[
            "trace",
            "--kind",
            "allreduce,a2a",
            "--dpus",
            "8",
            "--elems",
            "64",
            "--out",
            json.to_str().unwrap(),
            "--csv",
            csv.to_str().unwrap(),
        ])
        .unwrap();
        let j = std::fs::read_to_string(&json).unwrap();
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"allreduce\"") && j.contains("\"all-to-all\""));
        let c = std::fs::read_to_string(&csv).unwrap();
        assert!(c.contains("# part allreduce"));
        assert!(c.contains("barrier"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_command_rejects_bad_kinds() {
        assert!(run(&["trace", "--kind", "allreduce,nope"]).is_err());
    }

    #[test]
    fn metrics_flag_is_accepted_by_instrumented_commands() {
        run(&[
            "faults",
            "--kind",
            "ar",
            "--dpus",
            "16",
            "--elems",
            "64",
            "--metrics",
        ])
        .unwrap();
        run(&[
            "repair",
            "--kind",
            "ar",
            "--dpus",
            "16",
            "--elems",
            "64",
            "--metrics",
        ])
        .unwrap();
        run(&[
            "schedule",
            "--kind",
            "ar",
            "--dpus",
            "16",
            "--elems",
            "64",
            "--metrics",
        ])
        .unwrap();
        run(&[
            "noc",
            "--kind",
            "ar",
            "--dpus",
            "8",
            "--elems",
            "128",
            "--metrics",
        ])
        .unwrap();
    }

    #[test]
    fn soak_command_runs_a_clean_matrix() {
        run(&[
            "soak", "--kind", "ar", "--dpus", "8", "--elems", "16", "--seeds", "2",
        ])
        .unwrap();
    }

    #[test]
    fn soak_command_recovers_a_declared_timeline_and_writes_csv() {
        let dir = std::env::temp_dir().join("pimnet-cli-soak-test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("soak.csv");
        run(&[
            "soak",
            "--kind",
            "ar",
            "--dpus",
            "8",
            "--elems",
            "16",
            "--seeds",
            "2",
            "--bursts",
            "ber=1.0@t=0ps+1000000ps",
            "--backoff-base-ps",
            "600000",
            "--csv",
            csv.to_str().unwrap(),
        ])
        .unwrap();
        let c = std::fs::read_to_string(&csv).unwrap();
        assert!(c.starts_with("seed,tier,"));
        assert_eq!(c.lines().count(), 3, "one header + one row per seed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn soak_command_samples_seeded_storms() {
        run(&[
            "soak",
            "--dpus",
            "8",
            "--elems",
            "16",
            "--seeds",
            "3",
            "--timeline-rate",
            "0.3",
            "--horizon-ps",
            "50000000",
        ])
        .unwrap();
    }

    #[test]
    fn soak_command_rejects_bad_inputs() {
        assert!(run(&["soak", "--timeline-rate", "1.5"]).is_err());
        assert!(run(&["soak", "--seeds", "0"]).is_err());
        assert!(run(&["soak", "--bursts", "nonsense"]).is_err());
        assert!(run(&["soak", "--arrivals", "r0c0b0E"]).is_err());
        assert!(run(&["soak", "--flaps", "r0c0b0E@t=1ps"]).is_err());
    }

    #[test]
    fn serve_command_runs_and_writes_the_log() {
        let dir = std::env::temp_dir().join("pimnet-cli-serve-test");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("serve_log.csv");
        run(&[
            "serve",
            "--tenants",
            "2",
            "--elems",
            "64",
            "--horizon-us",
            "500",
            "--log",
            log.to_str().unwrap(),
        ])
        .unwrap();
        let c = std::fs::read_to_string(&log).unwrap();
        assert!(c.starts_with("id,tenant,seq,"));
        assert!(c.lines().count() > 1, "some requests must have arrived");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_command_verifies_and_catches_divergence() {
        let dir = std::env::temp_dir().join("pimnet-cli-replay-test");
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("serve_log.csv");
        let knobs = [
            "--tenants",
            "2",
            "--elems",
            "64",
            "--horizon-us",
            "500",
            "--log",
            log.to_str().unwrap(),
        ];
        let mut serve_args = vec!["serve"];
        serve_args.extend_from_slice(&knobs);
        run(&serve_args).unwrap();

        let mut replay_args = vec!["replay"];
        replay_args.extend_from_slice(&knobs);
        run(&replay_args).unwrap();

        // A different seed must not byte-match the pinned log.
        let mut skewed = replay_args.clone();
        skewed.extend_from_slice(&["--seed", "99"]);
        assert!(run(&skewed).is_err());

        // Neither may a tampered log file.
        let pinned = std::fs::read_to_string(&log).unwrap();
        std::fs::write(&log, pinned.replace("served", "swerved")).unwrap();
        assert!(run(&replay_args).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_command_composes_with_fault_storms() {
        run(&[
            "serve",
            "--tenants",
            "2",
            "--elems",
            "64",
            "--horizon-us",
            "400",
            "--timeline-rate",
            "0.4",
        ])
        .unwrap();
    }

    #[test]
    fn serve_command_rejects_bad_inputs() {
        assert!(run(&["serve", "--policy", "random"]).is_err());
        assert!(run(&["serve", "--tenants", "0"]).is_err());
        assert!(run(&["serve", "--timeline-rate", "2.0"]).is_err());
        assert!(run(&["replay"]).is_err()); // --log is required
        assert!(run(&["replay", "--log", "/nonexistent/serve_log.csv"]).is_err());
    }

    #[test]
    fn bad_input_is_reported() {
        assert!(run(&["collective"]).is_err()); // missing --kind
        assert!(run(&["collective", "--kind", "ar", "--dpus", "100"]).is_err());
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&["workload", "--name", "nope"]).is_err());
    }

    #[test]
    fn help_prints() {
        run(&["help"]).unwrap();
    }
}
