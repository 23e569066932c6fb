//! A 2D Number-Theoretic-Transform pipeline — the paper's homomorphic-
//! encryption workload — with the math actually executed and the
//! communication timed on every backend.
//!
//! The 2D decomposition (Bailey) turns one 65 536-point NTT into column
//! NTTs + twiddles + an **All-to-All transpose** + row NTTs; the transpose
//! is where PIMnet earns its keep.
//!
//! ```sh
//! cargo run --release --example ntt_pipeline
//! ```

use pimnet_suite::arch::SystemConfig;
use pimnet_suite::net::api::PimnetSystem;
use pimnet_suite::net::backends::BackendKind;
use pimnet_suite::sim::Probe;
use pimnet_suite::workloads::ntt::{self, NttWorkload};
use pimnet_suite::workloads::program::run_program;
use pimnet_suite::workloads::Workload;

fn main() {
    // --- The real math, verified against the flat 1D transform. ---
    let n = 1 << 12; // keep the demo quick; the workload models 2^16
    let side = 1 << 6;
    let input: Vec<u64> = (0..n as u64).map(|i| ntt::mul(i + 3, i + 7)).collect();
    let mut flat = input.clone();
    ntt::ntt(&mut flat);
    let two_d = ntt::ntt_2d(&input, side, side);
    assert_eq!(two_d, flat, "2D NTT must equal the 1D transform");
    println!("2D NTT ({side}x{side}) verified against the 1D transform over the Goldilocks prime");

    // --- The PIM workload timing across backends. ---
    let sys = SystemConfig::paper();
    let workload = NttWorkload::paper();
    let program = workload.program(&sys);
    println!(
        "\nNTT (N = 2^16) on 256 DPUs; All-to-All transpose of {} per DPU:",
        program.total_collective_bytes()
    );
    let pimnet = PimnetSystem::paper();
    for kind in BackendKind::ALL {
        let backend = pimnet.backend(kind);
        if !program
            .collective_kinds()
            .iter()
            .all(|&k| backend.supports(k))
        {
            continue;
        }
        let r = run_program(&program, &sys, backend.as_ref(), Probe::disabled()).expect("run");
        println!(
            "  {:<18} total {:>12}   (comm {:>5.1}%)",
            kind.to_string(),
            r.total().to_string(),
            r.comm_fraction() * 100.0
        );
    }
}
