//! Timing under faults (Fig 13 companion): how much completion time do
//! transient CRC retries, compute stragglers, and dead-DPU degradation
//! cost, on both timing models?
//!
//! * the analytic PIMnet timeline ([`pimnet::timeline::Timeline`]), where
//!   retries serialize inside their step and stragglers stretch the
//!   READY/START barrier for *everyone* (static scheduling pays the
//!   barrier tax);
//! * the cycle-level credit-based network ([`pim_noc`]), where a
//!   straggler delays only its own packets' injection and retries consume
//!   wire time behind real back-pressure.
//!
//! The sweep is fully deterministic: same seed, same numbers, every run.
//! A final scenario kills DPUs outright and shows the typed degradation
//! trail (shrunk power-of-two plan or host fallback).

use pim_arch::geometry::PimGeometry;
use pim_arch::SystemConfig;
use pim_faults::{FaultConfig, FaultInjector};
use pim_noc::{simulate_credit, NocConfig};
use pim_sim::{Probe, SimTime};
use pimnet::collective::CollectiveKind;
use pimnet::resilience::{plan_degraded, DegradedPlan};
use pimnet::schedule::CommSchedule;
use pimnet::timeline::Timeline;
use pimnet::timing::TimingModel;
use pimnet_bench::{pct, us, Table};

const DPUS: u32 = 64;
const ELEMS: usize = 2048;
const SEED: u64 = 0xFA_0175;

fn scenario(ber: f64, straggler_prob: f64) -> FaultInjector {
    FaultInjector::new(
        FaultConfig {
            transient_ber: ber,
            straggler_prob,
            straggler_max_ns: 50_000,
            max_retries: 24,
            ..FaultConfig::none()
        }
        .with_seed(SEED),
    )
}

fn main() {
    let timing = TimingModel::paper();
    let noc_cfg = NocConfig::paper();

    let mut t = Table::new(
        "Timing under faults: completion vs fault-free (64 DPUs, 8 KB/DPU)",
        &[
            "collective",
            "BER",
            "straggler p",
            "timeline",
            "timeline overhead",
            "credit NoC",
            "NoC overhead",
        ],
    );

    for kind in [CollectiveKind::AllReduce, CollectiveKind::AllToAll] {
        let g = PimGeometry::paper_scaled(DPUS);
        let s = CommSchedule::build(kind, &g, ELEMS, 4).expect("schedule");
        let ready = vec![SimTime::ZERO; DPUS as usize];
        let clean_tl = Timeline::build(&s, &timing);
        let clean_noc = simulate_credit(
            &s,
            &ready,
            &noc_cfg,
            &FaultInjector::none(),
            Probe::disabled(),
        )
        .expect("fault-free credit simulation");

        for (ber, straggler) in [
            (0.0, 0.0),
            (0.01, 0.0),
            (0.10, 0.0),
            (0.0, 0.25),
            (0.10, 0.25),
        ] {
            let inj = scenario(ber, straggler);
            let tl = Timeline::build_with_faults(&s, &timing, &inj, Probe::disabled())
                .expect("retry budget");
            let noc = simulate_credit(&s, &ready, &noc_cfg, &inj, Probe::disabled())
                .expect("retry budget");
            t.row([
                kind.to_string(),
                format!("{ber}"),
                format!("{straggler}"),
                us(tl.end),
                pct(tl.end.as_secs_f64() / clean_tl.end.as_secs_f64() - 1.0),
                us(noc.completion),
                pct(noc.completion.as_secs_f64() / clean_noc.completion.as_secs_f64() - 1.0),
            ]);
        }
    }
    t.emit("fault_sweep");

    // Dead-DPU degradation: the typed error trail in action.
    let mut d = Table::new(
        "Dead-DPU degradation (AllReduce, 64 DPUs)",
        &["dead DPUs", "plan", "participants", "errors in trail"],
    );
    for dead in [0usize, 3, 40, 63] {
        let inj = FaultInjector::new(FaultConfig {
            dead_dpus: (0..dead as u32)
                .map(|i| i * 64 / dead.max(1) as u32)
                .collect(),
            ..FaultConfig::none()
        });
        let plan = plan_degraded(
            CollectiveKind::AllReduce,
            &PimGeometry::paper_scaled(DPUS),
            ELEMS,
            4,
            &inj,
            &SystemConfig::paper_scaled(DPUS),
        )
        .expect("at least one DPU alive");
        let (tier, participants) = match &plan {
            DegradedPlan::Full(s) => ("full", s.geometry.total_dpus()),
            DegradedPlan::Repaired { schedule, .. } => ("repaired", schedule.geometry.total_dpus()),
            DegradedPlan::Shrunk { schedule, .. } => ("shrunk", schedule.geometry.total_dpus()),
            DegradedPlan::HostFallback { .. } => ("host fallback", 0),
        };
        d.row([
            dead.to_string(),
            tier.to_string(),
            participants.to_string(),
            plan.error_trail().len().to_string(),
        ]);
    }
    d.emit("fault_degradation");
    println!(
        "Static scheduling pays stragglers at the global barrier; the dynamic \
         network localizes them. CRC retries cost both roughly linearly in BER."
    );
}
