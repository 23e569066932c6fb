//! Integration tests over the full workload suite × backend matrix.

use pim_arch::SystemConfig;
use pimnet_suite::net::backends::{all_backends, BackendKind};
use pimnet_suite::net::FabricConfig;
use pimnet_suite::sim::Probe;
use pimnet_suite::workloads::program::run_program;
use pimnet_suite::workloads::{paper_suite, run_suite};

#[test]
fn every_workload_runs_on_every_supporting_backend() {
    let sys = SystemConfig::paper();
    for backend in all_backends(sys, FabricConfig::paper()) {
        let results = run_suite(&sys, backend.as_ref()).expect("suite");
        assert_eq!(results.len(), 11, "{}", backend.name());
        for (name, report) in results {
            match report {
                Some(r) => {
                    assert!(
                        r.total() > pim_sim::SimTime::ZERO,
                        "{name} on {}",
                        backend.name()
                    );
                    assert!(r.phases > 0);
                }
                None => {
                    // Only NDPBridge skips (reducing) workloads.
                    assert_eq!(backend.kind(), BackendKind::NdpBridge, "{name}");
                }
            }
        }
    }
}

#[test]
fn pimnet_never_loses_to_the_baseline() {
    let sys = SystemConfig::paper();
    let backends = all_backends(sys, FabricConfig::paper());
    let base = backends
        .iter()
        .find(|b| b.kind() == BackendKind::Baseline)
        .unwrap();
    let pim = backends
        .iter()
        .find(|b| b.kind() == BackendKind::Pimnet)
        .unwrap();
    for w in paper_suite() {
        let program = w.program(&sys);
        let tb = run_program(&program, &sys, base.as_ref(), Probe::disabled())
            .unwrap()
            .total();
        let tp = run_program(&program, &sys, pim.as_ref(), Probe::disabled())
            .unwrap()
            .total();
        assert!(tp < tb, "{}: PIMnet {tp} vs baseline {tb}", w.name());
    }
}

#[test]
fn compute_time_is_identical_across_backends() {
    // The paper's fair-comparison rule: only communication differs.
    let sys = SystemConfig::paper();
    let backends = all_backends(sys, FabricConfig::paper());
    for w in paper_suite() {
        let program = w.program(&sys);
        let mut computes = Vec::new();
        for b in &backends {
            if program.collective_kinds().iter().all(|&k| b.supports(k)) {
                computes.push(
                    run_program(&program, &sys, b.as_ref(), Probe::disabled())
                        .unwrap()
                        .compute,
                );
            }
        }
        assert!(computes.windows(2).all(|w| w[0] == w[1]), "{}", w.name());
    }
}

#[test]
fn communication_fractions_are_sane() {
    let sys = SystemConfig::paper();
    let backends = all_backends(sys, FabricConfig::paper());
    let pim = backends
        .iter()
        .find(|b| b.kind() == BackendKind::Pimnet)
        .unwrap();
    for w in paper_suite() {
        let r = run_program(&w.program(&sys), &sys, pim.as_ref(), Probe::disabled()).unwrap();
        let f = r.comm_fraction();
        assert!((0.0..=1.0).contains(&f), "{}: {f}", w.name());
        // PIMnet never leaves a workload >90% communication-bound.
        assert!(
            f < 0.9,
            "{} still comm-bound under PIMnet: {f:.2}",
            w.name()
        );
    }
}
