//! Golden pin of the autotuner sweep: `results/fig12_best.csv` is a
//! pure function of the pinned cell matrix, so regenerating it — at any
//! worker count, from a cold or a warm schedule cache — must reproduce
//! the committed bytes exactly. A diff here means the tuner stopped
//! being deterministic (or the matrix changed without re-committing the
//! CSV: rerun `cargo run --release -p pimnet-bench --bin autotune_sweep`).

use pim_arch::geometry::PimGeometry;
use pim_sim::{Probe, SimTime};
use pimnet_bench::sweeps;
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::schedule::cache::{Algo, Proof, ScheduleRequest};
use pimnet_suite::net::schedule::{autotune, boost, cache, CommSchedule, Composition};
use pimnet_suite::net::timing::TimingModel;

/// The committed sweep output, pinned at compile time.
const GOLDEN: &str = include_str!("../results/fig12_best.csv");

#[test]
fn fig12_best_reproduces_the_committed_csv_at_any_worker_count() {
    for workers in [1usize, 2, 8] {
        let csv = sweeps::fig12_best(workers).to_csv();
        assert_eq!(
            csv, GOLDEN,
            "fig12_best diverged from results/fig12_best.csv at {workers} worker(s)"
        );
    }
}

#[test]
fn fig12_best_is_cache_warmth_independent() {
    cache::clear();
    let cold = sweeps::fig12_best(4).to_csv();
    let warm = sweeps::fig12_best(4).to_csv();
    assert_eq!(cold, GOLDEN, "cold-cache sweep diverged");
    assert_eq!(warm, GOLDEN, "warm-cache sweep diverged");
}

#[test]
fn golden_rows_never_price_worse_than_paper_and_one_cell_tunes() {
    let mut tuned_cells = 0usize;
    let mut rows = 0usize;
    for line in GOLDEN.lines().skip(1) {
        let cells: Vec<&str> = line.split(',').collect();
        assert_eq!(cells.len(), 9, "malformed golden row: {line}");
        let paper_us: f64 = cells[3].parse().unwrap();
        let tuned_us: f64 = cells[4].parse().unwrap();
        assert!(
            tuned_us <= paper_us,
            "winner prices worse than the paper incumbent: {line}"
        );
        assert_eq!(cells[8], "0", "a candidate failed analysis: {line}");
        if cells[6] != "paper" {
            tuned_cells += 1;
            assert!(
                tuned_us < paper_us,
                "a non-incumbent winner must strictly improve: {line}"
            );
        }
        rows += 1;
    }
    assert_eq!(rows, sweeps::fig12_best_cells().len());
    assert!(
        tuned_cells > 0,
        "the matrix must contain at least one cell where tuning beats the paper"
    );
}

#[test]
fn tuner_is_deterministic_per_request() {
    let g = PimGeometry::paper_scaled(64);
    let kind = CollectiveKind::AllReduce;
    let a = autotune::tune(kind, &g, 64, 4).unwrap();
    cache::clear();
    let b = autotune::tune(kind, &g, 64, 4).unwrap();
    assert_eq!(a.winner, b.winner);
    assert_eq!(a.tuned_time, b.tuned_time);
    assert_eq!(a.paper_time, b.paper_time);
    assert_eq!(a.candidates, b.candidates);
    assert_eq!(a.proven, b.proven);
    assert_eq!(a.rejected, b.rejected);
}

#[test]
fn fig12_best_proves_only_the_cells_that_tune_away() {
    // A cell the paper keeps proves nothing; every cell that tunes away
    // finds its winner clean at the first proof.
    let proven: usize = sweeps::fig12_best_cells()
        .into_iter()
        .map(|(kind, dpus, elems)| {
            let g = PimGeometry::paper_scaled(dpus);
            autotune::tune(kind, &g, elems, 4).unwrap().proven
        })
        .sum();
    let tuned_rows = GOLDEN
        .lines()
        .skip(1)
        .filter(|line| line.split(',').nth(6) != Some("paper"))
        .count();
    assert_eq!(tuned_rows, 10);
    assert_eq!(proven, tuned_rows, "proofs run over the fig12_best cells");
}

/// The tuner's pick the eager way: prove every candidate, price the
/// clean ones through the boost plan, and keep the strictly cheapest
/// (earliest in sweep order on a tie) over the paper schedule. Returns
/// `(winner, tuned time, paper time, candidates)`.
fn eager_tune(
    kind: CollectiveKind,
    g: &PimGeometry,
    elems: usize,
) -> (Option<(Composition, usize)>, SimTime, SimTime, usize) {
    let timing = TimingModel::paper();
    let price = |req: &ScheduleRequest<'_>| {
        let s = cache::get::<CommSchedule>(req, Probe::disabled()).unwrap();
        boost::plan(&s).breakdown(&timing, SimTime::ZERO).total()
    };
    let paper = ScheduleRequest::new(kind, g, elems, 4);
    let paper_time = price(&paper);
    let cands = autotune::candidates(kind, g, elems);
    let (mut winner, mut tuned_time) = (None, paper_time);
    for &(comp, chunks) in &cands {
        let req = ScheduleRequest {
            algo: Algo::Composed(comp, chunks),
            ..paper
        };
        match cache::get::<Proof>(&req, Probe::disabled()) {
            Ok(p) if p.summary.report.is_clean() => {}
            _ => continue,
        }
        let t = price(&req);
        if t < tuned_time {
            (winner, tuned_time) = (Some((comp, chunks)), t);
        }
    }
    (winner, tuned_time, paper_time, cands.len())
}

#[test]
fn lazy_tuner_matches_an_eager_reference_on_ragged_payloads() {
    for kind in sweeps::FIG12_BEST_KINDS {
        for dpus in [8, 64] {
            let g = PimGeometry::paper_scaled(dpus);
            for elems in [104, 640] {
                let choice = autotune::tune(kind, &g, elems, 4).unwrap();
                assert_eq!(
                    (
                        choice.winner,
                        choice.tuned_time,
                        choice.paper_time,
                        choice.candidates
                    ),
                    eager_tune(kind, &g, elems),
                    "{kind} x{dpus} e{elems}: lazy pick differs from the eager one"
                );
            }
        }
    }
}
