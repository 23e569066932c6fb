//! Autotuner sweep: the paper's Table V schedules vs per-geometry tuned
//! hierarchical compositions, over the pinned `fig12_best` cell matrix.
//!
//! Every cell runs `pimnet::schedule::autotune::tune` for one
//! `(collective, geometry, payload)` request: the tuner enumerates its
//! deterministic candidate compositions, prices them and the paper
//! incumbent through the boost-plan timing path, proves the candidates
//! cheaper than the paper with the full analysis suite, cheapest first
//! (any diagnostic disqualifies), and keeps the first clean one — the
//! paper schedule keeps ties, so `tuned_us <= paper_us` on every row by
//! construction.
//!
//! The table is a pure function of the pinned matrix: cells fan out over
//! `pim_sim::par` with ordered collection and the schedule cache dedups
//! concurrent tuners, so re-running at any worker count (`PIMNET_THREADS`)
//! or cache warmth reproduces `results/fig12_best.csv` byte-for-byte. CI
//! runs this twice (1 vs 4 workers) and diffs the CSVs.
//!
//! Usage: `autotune_sweep` (no arguments; the matrix is pinned).

use pim_sim::par;
use pimnet_bench::sweeps;

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("autotune_sweep: takes no arguments (the cell matrix is pinned)");
        std::process::exit(2);
    }
    println!(
        "autotune sweep: {} pinned (kind, dpus, elems) cells\n",
        sweeps::fig12_best_cells().len()
    );
    let table = sweeps::fig12_best(par::thread_count());
    table.emit("fig12_best");
    let tuned_rows = table.rows().iter().filter(|r| r[6] != "paper").count();
    println!(
        "\n{} of {} cells tuned away from the paper schedule.",
        tuned_rows,
        table.rows().len()
    );
}
