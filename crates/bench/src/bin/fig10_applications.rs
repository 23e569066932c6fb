//! Fig 10: real-application performance across the five systems
//! (B: baseline, S: ideal software, N: NDPBridge, D: DIMM-Link, P: PIMnet),
//! with the execution-time breakdown into compute and communication.

use pim_arch::SystemConfig;
use pim_workloads::{paper_suite, program::run_program};
use pimnet::backends::{all_backends, BackendKind};
use pimnet::FabricConfig;
use pimnet_bench::{pct, us, x, Table};

fn main() {
    let sys = SystemConfig::paper();
    let backends = all_backends(sys, FabricConfig::paper());

    let mut t = Table::new(
        "Fig 10: application execution time (us) and speedup vs baseline",
        &[
            "workload",
            "B",
            "S",
            "N",
            "D",
            "P",
            "P-speedup",
            "B-comm%",
            "P-comm%",
        ],
    );

    for w in paper_suite() {
        let program = w.program(&sys);
        let mut cells = vec![w.name().to_string()];
        let mut base_total = None;
        let mut pim = None;
        let mut base_comm = None;
        for b in &backends {
            let supported = program.collective_kinds().iter().all(|&k| b.supports(k));
            if !supported {
                cells.push("n/a".into());
                continue;
            }
            let r =
                run_program(&program, &sys, b.as_ref(), pim_sim::Probe::disabled()).expect("run");
            cells.push(us(r.total()));
            match b.kind() {
                BackendKind::Baseline => {
                    base_total = Some(r.total());
                    base_comm = Some(r.comm_fraction());
                }
                BackendKind::Pimnet => pim = Some(r),
                _ => {}
            }
        }
        let (bt, p) = (base_total.unwrap(), pim.unwrap());
        cells.push(x(bt.ratio(p.total())));
        cells.push(pct(base_comm.unwrap()));
        cells.push(pct(p.comm_fraction()));
        t.row(cells);
    }
    t.emit("fig10_applications");

    println!(
        "Paper reference points: CC 5.6x, SpMV 2.43x, Join 1.36x, MLP ~1.3x, \
         AllReduce up to 83% of baseline graph time."
    );
}
