//! Ablation study of PIMnet's AllReduce design choices (DESIGN.md), each
//! variant a composition of the per-tier algorithm library:
//!
//! * **bidirectional bank ring** — uses all four Table IV channels; the
//!   ablated unidirectional ring halves inter-bank bandwidth;
//! * **broadcast-based inter-rank reduction** — one bus pass both reduces
//!   and redistributes; the ablated scatter+AllGather pays the bus twice.

use pim_arch::geometry::PimGeometry;
use pim_sim::SimTime;
use pimnet::collective::CollectiveKind;
use pimnet::schedule::{build_composed, Composition};
use pimnet::timing::TimingModel;
use pimnet_bench::{us, Table};

fn main() {
    let g = PimGeometry::paper();
    let m = TimingModel::paper();
    let variants = [
        (
            "paper (bidir + broadcast)",
            Composition::paper_allreduce(true, true),
        ),
        (
            "unidirectional ring",
            Composition::paper_allreduce(false, true),
        ),
        (
            "scatter+AG inter-rank",
            Composition::paper_allreduce(true, false),
        ),
        ("both ablated", Composition::paper_allreduce(false, false)),
        // A different *algorithm* entirely: textbook recursive
        // halving-doubling (2 log N steps) on every tier — fast on fat
        // networks, wrong for this fabric.
        (
            "halving-doubling (16 steps)",
            Composition::parse("rabenseifner_rabenseifner_rabenseifner").expect("spec"),
        ),
    ];

    let mut t = Table::new(
        "AllReduce design ablations (32 KB/DPU, 256 DPUs)",
        &[
            "variant",
            "inter-bank",
            "inter-chip",
            "inter-rank",
            "total",
            "vs paper",
        ],
    );
    let time = |comp| {
        let s = build_composed(CollectiveKind::AllReduce, &g, 8192, 4, comp).expect("builds");
        pimnet::schedule::validate::validate(&s).expect("valid");
        m.time_schedule(&s, SimTime::ZERO)
    };
    let baseline = time(variants[0].1).total();
    for (name, comp) in variants {
        let b = time(comp);
        t.row([
            name.to_string(),
            us(b.inter_bank),
            us(b.inter_chip),
            us(b.inter_rank),
            us(b.total()),
            format!("{:.2}x", b.total().ratio(baseline)),
        ]);
    }
    t.emit("ablation_allreduce");
}
