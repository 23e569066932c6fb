//! Micro-benchmarks: cycle-level NoC simulation throughput (the Fig 13
//! substrate).

use pim_arch::geometry::PimGeometry;
use pim_faults::FaultInjector;
use pim_noc::{simulate_credit, simulate_scheduled, NocConfig};
use pim_sim::{Probe, SimTime};
use pimnet::collective::CollectiveKind;
use pimnet::schedule::CommSchedule;
use pimnet_bench::bench;

fn main() {
    let cfg = NocConfig::paper();
    for (kind, n, elems) in [
        (CollectiveKind::AllReduce, 16u32, 512usize),
        (CollectiveKind::AllToAll, 16, 512),
    ] {
        let geo = PimGeometry::paper_scaled(n);
        let s = CommSchedule::build(kind, &geo, elems, 4).unwrap();
        let ready = vec![SimTime::ZERO; n as usize];
        bench(&format!("noc/credit/{}", kind.abbrev()), 10, || {
            simulate_credit(&s, &ready, &cfg, &FaultInjector::none(), Probe::disabled()).unwrap()
        });
        bench(&format!("noc/scheduled/{}", kind.abbrev()), 10, || {
            simulate_scheduled(&s, &ready, &cfg, Probe::disabled())
        });
    }
}
