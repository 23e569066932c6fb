//! Micro-benchmarks: the functional workload substrates (real NTT math,
//! real graph traversal) and end-to-end program timing.

use pim_arch::SystemConfig;
use pim_workloads::graph::Graph;
use pim_workloads::program::run_program;
use pim_workloads::{mlp::Mlp, ntt, spmv::Spmv, Workload};
use pimnet::backends::PimnetBackend;
use pimnet_bench::bench;

fn ntt_math() {
    for log_n in [10usize, 12] {
        let n = 1usize << log_n;
        let data: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37)).collect();
        bench(&format!("ntt/forward/{n}"), 50, || {
            let mut x = data.clone();
            ntt::ntt(&mut x);
            x
        });
    }
    let side = 64;
    let data: Vec<u64> = (0..(side * side) as u64).collect();
    bench("ntt/2d-4096", 20, || ntt::ntt_2d(&data, side, side));
}

fn graph_traversal() {
    let graph = Graph::power_law(20_000, 5, 11);
    bench("graph/bfs-20k", 20, || graph.bfs(graph.hub()));
    bench("graph/cc-20k", 20, || graph.connected_components());
}

fn program_timing() {
    let sys = SystemConfig::paper();
    let pim = PimnetBackend::paper();
    for w in [
        Box::new(Mlp::new(1024)) as Box<dyn Workload>,
        Box::new(Spmv::paper()),
    ] {
        let program = w.program(&sys);
        bench(&format!("program/pimnet/{}", w.name()), 20, || {
            run_program(&program, &sys, &pim, pim_sim::Probe::disabled()).unwrap()
        });
    }
}

fn main() {
    ntt_math();
    graph_traversal();
    program_timing();
}
