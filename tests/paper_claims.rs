//! The paper's headline quantitative claims, asserted end to end.
//! Each test names the paper section/figure it checks; `EXPERIMENTS.md`
//! records the exact measured values.

use pim_arch::{ComputePreset, PimGeometry, SystemConfig};
use pim_sim::{Bandwidth, Bytes, Probe, SimTime};
use pimnet_suite::faults::FaultInjector;
use pimnet_suite::net::backends::{
    BaselineHostBackend, CollectiveBackend, DimmLinkBackend, PimnetBackend, SoftwareIdealBackend,
};
use pimnet_suite::net::collective::{CollectiveKind, CollectiveSpec};
use pimnet_suite::net::hwcost::HwCostModel;
use pimnet_suite::net::FabricConfig;
use pimnet_suite::noc::{simulate_credit, simulate_scheduled, NocConfig};
use pimnet_suite::workloads::program::run_program;
use pimnet_suite::workloads::{cc::Cc, mlp::Mlp, Workload};

fn ar32() -> CollectiveSpec {
    CollectiveSpec::new(CollectiveKind::AllReduce, Bytes::kib(32))
}

/// Abstract: "up to 85× speedup on collective communications".
#[test]
fn abstract_claim_85x_on_collectives() {
    let sys = SystemConfig::paper();
    let b = BaselineHostBackend::new(sys)
        .collective(&ar32())
        .unwrap()
        .total();
    let p = PimnetBackend::paper().collective(&ar32()).unwrap().total();
    let speedup = b.ratio(p);
    assert!(
        (60.0..130.0).contains(&speedup),
        "collective speedup {speedup:.1}x not in the 85x neighbourhood"
    );
}

/// §III-A / Fig 2: PIMnet's effective collective bandwidth is several times
/// the idealized software stack's.
#[test]
fn fig2_pimnet_collective_bandwidth_dominates() {
    use pimnet_suite::net::roofline::effective_collective_bandwidth;
    let sys = SystemConfig::paper();
    let p = effective_collective_bandwidth(&PimnetBackend::paper(), &ar32()).unwrap();
    let s = effective_collective_bandwidth(&SoftwareIdealBackend::new(sys), &ar32()).unwrap();
    assert!(p / s > 5.0, "only {:.1}x", p / s);
}

/// §III-B / Fig 3: software scalability flattens beyond one rank, PIMnet's
/// keeps growing (bandwidth parallelism).
#[test]
fn fig3_scalability_shapes() {
    let spec = ar32();
    let mut software = Vec::new();
    let mut pimnet = Vec::new();
    for n in [8u32, 64, 256] {
        let sys = SystemConfig::paper_scaled(n);
        software.push(
            f64::from(n)
                / SoftwareIdealBackend::new(sys)
                    .collective(&spec)
                    .unwrap()
                    .total()
                    .as_secs_f64(),
        );
        pimnet.push(
            f64::from(n)
                / PimnetBackend::new(sys, FabricConfig::paper())
                    .collective(&spec)
                    .unwrap()
                    .total()
                    .as_secs_f64(),
        );
    }
    // Software throughput per DPU saturates: 8->256 gains < 3x.
    assert!(software[2] / software[0] < 3.0);
    // PIMnet keeps scaling: > 5x over the same range.
    assert!(pimnet[2] / pimnet[0] > 5.0);
}

/// §VI-B Fig 10: CC gains ~5.6x; communication dominates the baseline.
#[test]
fn fig10_cc_shape() {
    let sys = SystemConfig::paper();
    let prog = Cc::log_gowalla().program(&sys);
    let b = run_program(
        &prog,
        &sys,
        &BaselineHostBackend::new(sys),
        Probe::disabled(),
    )
    .unwrap();
    let p = run_program(&prog, &sys, &PimnetBackend::paper(), Probe::disabled()).unwrap();
    assert!(b.comm_fraction() > 0.7, "{}", b.comm_fraction());
    assert!(p.comm_fraction() < 0.5, "{}", p.comm_fraction());
    let speedup = b.total().ratio(p.total());
    assert!((3.0..15.0).contains(&speedup), "CC {speedup:.1}x");
}

/// §VI-B Fig 13: AllReduce within a few percent under either flow control;
/// All-to-All clearly prefers PIM control.
#[test]
fn fig13_flow_control_direction() {
    let cfg = NocConfig::paper();
    let g = PimGeometry::paper_scaled(64);
    // Per-DPU compute-finish jitter, as the paper fed from real UPMEM
    // measurements (deterministic stand-in: +-10% around 40 us).
    let ready: Vec<SimTime> = (0..64u64)
        .map(|i| {
            let f = 0.9 + 0.2 * ((i.wrapping_mul(2654435761) % 1000) as f64 / 1000.0);
            SimTime::from_secs_f64(40e-6 * f)
        })
        .collect();

    let ar =
        pimnet_suite::net::schedule::CommSchedule::build(CollectiveKind::AllReduce, &g, 4096, 4)
            .unwrap();
    let ar_ratio = simulate_credit(&ar, &ready, &cfg, &FaultInjector::none(), Probe::disabled())
        .unwrap()
        .completion
        .ratio(simulate_scheduled(&ar, &ready, &cfg, Probe::disabled()).completion);
    assert!((0.85..1.15).contains(&ar_ratio), "AR ratio {ar_ratio:.3}");

    let a2a =
        pimnet_suite::net::schedule::CommSchedule::build(CollectiveKind::AllToAll, &g, 8192, 4)
            .unwrap();
    let credit = simulate_credit(
        &a2a,
        &ready,
        &cfg,
        &FaultInjector::none(),
        Probe::disabled(),
    )
    .unwrap()
    .completion;
    let sched = simulate_scheduled(&a2a, &ready, &cfg, Probe::disabled()).completion;
    let gain = 1.0 - sched.as_secs_f64() / credit.as_secs_f64();
    assert!(
        (0.03..0.40).contains(&gain),
        "A2A PIM-control gain {:.1}% (paper: 18.7%)",
        gain * 100.0
    );
}

/// §VI-B Fig 14(a): PIMnet outperforms DIMM-Link across the whole
/// inter-bank bandwidth sweep, including the degraded 0.1 GB/s point.
#[test]
fn fig14_bandwidth_parallelism_keeps_pimnet_ahead() {
    let sys = SystemConfig::paper();
    let d = DimmLinkBackend::new(sys, FabricConfig::paper())
        .collective(&ar32())
        .unwrap()
        .total();
    for mbps in [100.0f64, 400.0, 700.0, 1000.0] {
        let fabric = FabricConfig::paper().with_bank_channel_bw(Bandwidth::mbps(mbps));
        let p = PimnetBackend::new(sys, fabric)
            .collective(&ar32())
            .unwrap()
            .total();
        assert!(
            p < d,
            "PIMnet @ {mbps} MB/s ({p}) should still beat DIMM-Link ({d})"
        );
    }
}

/// §VI-B Fig 15: faster PIM compute multiplies PIMnet's benefit on MLP.
#[test]
fn fig15_compute_scaling_amplifies_pimnet() {
    let speedup = |preset: ComputePreset| {
        let sys = SystemConfig::paper().with_compute(preset);
        let prog = Mlp::new(1024).program(&sys);
        let b = run_program(
            &prog,
            &sys,
            &BaselineHostBackend::new(sys),
            Probe::disabled(),
        )
        .unwrap();
        let p = run_program(
            &prog,
            &sys,
            &PimnetBackend::new(sys, FabricConfig::paper()),
            Probe::disabled(),
        )
        .unwrap();
        b.total().ratio(p.total())
    };
    let upmem = speedup(ComputePreset::UpmemDpu);
    let aim = speedup(ComputePreset::Gddr6Aim);
    assert!(
        upmem < 5.0,
        "UPMEM MLP speedup {upmem:.1}x should be modest"
    );
    assert!(
        aim > upmem * 10.0,
        "AiM should multiply the benefit: {aim:.1}x"
    );
}

/// §VI-B hardware overhead: 0.09% area, 1.6% power, >60x vs a ring router,
/// ~15 ns sync.
#[test]
fn hardware_overhead_claims() {
    let m = HwCostModel::nangate45();
    assert!((0.0005..0.0015).contains(&m.stop_area_overhead()));
    assert!((0.01..0.025).contains(&m.stop_power_overhead()));
    assert!(m.stop_vs_router_ratio() > 60.0);
    assert_eq!(FabricConfig::paper().sync_propagation, SimTime::from_ns(15));
}

/// Fig 17: PIMnet gives tenants bandwidth isolation.
#[test]
fn fig17_bandwidth_isolation() {
    let tenant = SystemConfig::paper().with_geometry(PimGeometry::new(8, 8, 2, 1));
    let spec = ar32();
    let pim_alone = PimnetBackend::new(tenant, FabricConfig::paper())
        .collective(&spec)
        .unwrap()
        .total();
    let pim_shared = PimnetBackend::new(
        tenant,
        FabricConfig::paper().with_rank_bus_bw(Bandwidth::gbps(8.4)),
    )
    .collective(&spec)
    .unwrap()
    .total();
    let slowdown = pim_shared.ratio(pim_alone);
    assert!(
        slowdown < 1.2,
        "PIMnet tenant slowdown {slowdown:.2}x should be near 1x"
    );
}
