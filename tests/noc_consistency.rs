//! Consistency between the cycle-level network simulator and the analytic
//! timing model: identical traffic over identical link bandwidths must
//! land in the same ballpark, with the cycle simulator never beating the
//! contention-free analytic bound by more than pipelining effects allow.

use pim_arch::geometry::PimGeometry;
use pim_sim::{Probe, SimTime};
use pimnet_suite::faults::FaultInjector;
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::schedule::CommSchedule;
use pimnet_suite::noc::{simulate_credit, simulate_scheduled, NocConfig};

fn build(kind: CollectiveKind, n: u32, elems: usize) -> CommSchedule {
    CommSchedule::build(kind, &PimGeometry::paper_scaled(n), elems, 4).unwrap()
}

#[test]
fn credit_sim_tracks_the_analytic_model_for_allreduce() {
    // Neighbour-only ring traffic has no contention, so dynamic flow
    // control should land within ~35% of the contention-free schedule
    // (cut-through pipelining can even make it slightly faster).
    let cfg = NocConfig::paper();
    for (n, elems) in [(8u32, 1024usize), (32, 1024), (64, 2048)] {
        let s = build(CollectiveKind::AllReduce, n, elems);
        let ready = vec![SimTime::ZERO; n as usize];
        let credit = simulate_credit(&s, &ready, &cfg, &FaultInjector::none(), Probe::disabled())
            .unwrap()
            .completion;
        let sched = simulate_scheduled(&s, &ready, &cfg, Probe::disabled()).completion;
        let ratio = credit.ratio(sched);
        assert!(
            (0.6..1.35).contains(&ratio),
            "n={n} elems={elems}: credit {credit} vs scheduled {sched} (ratio {ratio:.2})"
        );
    }
}

#[test]
fn cycle_counts_scale_linearly_with_payload() {
    let cfg = NocConfig::paper();
    let ready = vec![SimTime::ZERO; 16];
    let small = simulate_credit(
        &build(CollectiveKind::AllToAll, 16, 512),
        &ready,
        &cfg,
        &FaultInjector::none(),
        Probe::disabled(),
    )
    .unwrap();
    let large = simulate_credit(
        &build(CollectiveKind::AllToAll, 16, 2048),
        &ready,
        &cfg,
        &FaultInjector::none(),
        Probe::disabled(),
    )
    .unwrap();
    let ratio = large.cycles as f64 / small.cycles as f64;
    assert!((3.0..6.0).contains(&ratio), "ratio {ratio:.2}");
}

#[test]
fn scheduled_mode_reports_the_barrier() {
    let cfg = NocConfig::paper();
    let s = build(CollectiveKind::AllReduce, 8, 256);
    let mut ready = vec![SimTime::ZERO; 8];
    ready[7] = SimTime::from_ms(1);
    let r = simulate_scheduled(&s, &ready, &cfg, Probe::disabled());
    assert!(r.completion > SimTime::from_ms(1));
    assert_eq!(r.stall_cycles, 0);
}

#[test]
fn deadlock_free_across_collectives_and_sizes() {
    // The virtual-channel escape must keep every configuration live.
    let cfg = NocConfig::paper();
    for kind in [
        CollectiveKind::AllReduce,
        CollectiveKind::ReduceScatter,
        CollectiveKind::AllGather,
        CollectiveKind::AllToAll,
        CollectiveKind::Broadcast,
    ] {
        for n in [8u32, 32] {
            let s = build(kind, n, 768);
            let ready = vec![SimTime::ZERO; n as usize];
            let r = simulate_credit(&s, &ready, &cfg, &FaultInjector::none(), Probe::disabled())
                .unwrap();
            assert!(r.cycles > 0, "{kind} n={n}");
        }
    }
}
