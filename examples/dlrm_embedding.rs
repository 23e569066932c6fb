//! DLRM embedding-table lookup across PIM systems and memory channels —
//! the paper's recommendation-model scenario (EMB_Synth + RM1–RM3, and the
//! Fig 16 channel-scaling effect).
//!
//! ```sh
//! cargo run --release --example dlrm_embedding
//! ```

use pimnet_suite::arch::SystemConfig;
use pimnet_suite::net::api::PimnetSystem;
use pimnet_suite::net::backends::{multi_channel_collective, BackendKind};
use pimnet_suite::net::collective::CollectiveSpec;
use pimnet_suite::sim::Probe;
use pimnet_suite::workloads::emb::Emb;
use pimnet_suite::workloads::program::run_program;
use pimnet_suite::workloads::Workload;

fn main() {
    let sys = SystemConfig::paper();
    let pimnet = PimnetSystem::paper();

    println!("embedding lookup on 256 DPUs (speedup of PIMnet over the baseline):");
    for profile in [Emb::synth(), Emb::rm1(), Emb::rm2(), Emb::rm3()] {
        let program = profile.program(&sys);
        let base = run_program(
            &program,
            &sys,
            pimnet.backend(BackendKind::Baseline).as_ref(),
            Probe::disabled(),
        )
        .expect("baseline");
        let pim = run_program(
            &program,
            &sys,
            pimnet.backend(BackendKind::Pimnet).as_ref(),
            Probe::disabled(),
        )
        .expect("pimnet");
        println!(
            "  {:<10} baseline {:>12}  pimnet {:>12}  -> {:>6.1}x",
            profile.name(),
            base.total().to_string(),
            pim.total().to_string(),
            base.total().ratio(pim.total())
        );
    }

    // Channel scaling (Fig 16): PIMnet reduces channel-locally, so the host
    // only ever sees one partial per channel.
    println!("\none ReduceScatter of EMB_Synth's pooled outputs, scaled across channels:");
    let spec = CollectiveSpec::new(
        pimnet_suite::net::collective::CollectiveKind::ReduceScatter,
        pim_sim::Bytes::kib(16),
    );
    for channels in [1u32, 2, 4, 8] {
        let p = multi_channel_collective(
            pimnet.backend(BackendKind::Pimnet).as_ref(),
            &sys.host,
            channels,
            &spec,
        )
        .expect("pimnet");
        let b = multi_channel_collective(
            pimnet.backend(BackendKind::Baseline).as_ref(),
            &sys.host,
            channels,
            &spec,
        )
        .expect("baseline");
        println!(
            "  {channels} channel(s): pimnet {:>12}  baseline {:>12}  -> {:>6.1}x",
            p.total().to_string(),
            b.total().to_string(),
            b.total().ratio(p.total())
        );
    }
}
