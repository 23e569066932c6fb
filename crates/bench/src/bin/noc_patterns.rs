//! Characterization of the *dynamic* (credit-based) network under the
//! classic synthetic traffic patterns — context for Fig 13: this is the
//! network PIMnet's static scheduling replaces.

use pim_arch::PimGeometry;
use pim_noc::traffic::{synthetic_packets, Pattern};
use pim_noc::{simulate_credit_packets, NocConfig};
use pim_sim::{Probe, SimTime};
use pimnet_bench::{us, Table};

fn main() {
    let g = PimGeometry::paper();
    let cfg = NocConfig::paper();
    let ready = vec![SimTime::ZERO; g.total_dpus() as usize];

    let mut t = Table::new(
        "Credit-based network under synthetic traffic (256 DPUs, 8 x 512 B packets/node)",
        &[
            "pattern",
            "completion (us)",
            "p50 latency (us)",
            "p99 latency (us)",
            "busiest link",
            "wait (pkt-cycles)",
        ],
    );
    for pattern in Pattern::ALL {
        let packets = synthetic_packets(&g, pattern, 8, 512, 2026);
        let r = simulate_credit_packets(&packets, &ready, &cfg, Probe::disabled())
            .expect("synthetic traffic is deliverable");
        t.row([
            format!("{pattern:?}"),
            us(r.completion),
            us(r.p50_latency),
            us(r.p99_latency),
            format!("{:.1}%", r.max_link_utilization * 100.0),
            r.stall_cycles.to_string(),
        ]);
    }
    t.emit("noc_patterns");
    println!(
        "Neighbour traffic rides the rings; anything global funnels through \
         the 1.05 GB/s DQ channels and the shared bus — the fabric constraint \
         PIMnet's hierarchical collectives are shaped around."
    );
}
