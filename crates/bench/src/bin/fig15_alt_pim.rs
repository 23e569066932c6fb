//! Fig 15: PIMnet's benefit when the PIM compute is much faster than an
//! UPMEM DPU (HBM-PIM, GDDR6-AiM, next-gen DPUs).
//!
//! The two most compute-intensive workloads (MLP, NTT) are re-timed with
//! each device's compute model; communication is unchanged. The paper:
//! MLP's PIMnet speedup grows from ~1.3× on UPMEM to ~40× with
//! GDDR6-AiM-class compute.

use pim_arch::{ComputePreset, SystemConfig};
use pim_workloads::program::run_program;
use pim_workloads::{mlp::Mlp, ntt::NttWorkload, Workload};
use pimnet::backends::{BaselineHostBackend, PimnetBackend};
use pimnet::FabricConfig;
use pimnet_bench::{x, Table};

fn main() {
    let presets = [
        ComputePreset::UpmemDpu,
        ComputePreset::HbmPim,
        ComputePreset::Gddr6Aim,
        ComputePreset::NextGenDpu,
    ];
    let workloads: Vec<Box<dyn Workload>> =
        vec![Box::new(Mlp::new(1024)), Box::new(NttWorkload::paper())];

    let mut t = Table::new(
        "Fig 15: PIMnet speedup over baseline with alternative PIM compute",
        &[
            "workload",
            "UPMEM DPU",
            "HBM-PIM",
            "GDDR6-AiM",
            "next-gen DPU",
        ],
    );
    for w in &workloads {
        let mut cells = vec![w.name().to_string()];
        for preset in presets {
            let sys = SystemConfig::paper().with_compute(preset);
            let program = w.program(&sys);
            let base = run_program(
                &program,
                &sys,
                &BaselineHostBackend::new(sys),
                pim_sim::Probe::disabled(),
            )
            .unwrap();
            let pim = run_program(
                &program,
                &sys,
                &PimnetBackend::new(sys, FabricConfig::paper()),
                pim_sim::Probe::disabled(),
            )
            .unwrap();
            cells.push(x(base.total().ratio(pim.total())));
        }
        t.row(cells);
    }
    t.emit("fig15_alt_pim");
    println!("Paper: MLP ~1.3x on UPMEM -> ~40x with GDDR6-AiM-class compute.");
}
