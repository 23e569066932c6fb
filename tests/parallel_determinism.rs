//! Bit-identical parallel execution, end to end.
//!
//! `pim_sim::par` sells one contract: mapping a pure function over work
//! items on N workers returns exactly what the sequential map returns,
//! for every N. These tests pin that contract on the real sweeps — the
//! chaos soak, the lint preset matrix, the fig 12 scaling curves, and the
//! validator-fuzz sampling — at 1, 2 and 8 workers, and pin the schedule
//! cache's promise that a hit is structurally equal to a fresh build.

use pimnet_bench::sweeps;
use pimnet_suite::arch::geometry::PimGeometry;
use pimnet_suite::faults::PermanentFaultSet;
use pimnet_suite::net::analysis::presets;
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::schedule::cache::{self, ScheduleRequest};
use pimnet_suite::net::schedule::repair::{self, RepairedSchedule};
use pimnet_suite::net::schedule::{validate, CommSchedule};
use pimnet_suite::sim::{par, Probe};

const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn chaos_soak_is_identical_at_every_worker_count() {
    let reference = sweeps::chaos_soak(3, 0xC40, 1);
    for workers in WORKER_COUNTS {
        let run = sweeps::chaos_soak(3, 0xC40, workers);
        assert_eq!(
            run.table.to_csv(),
            reference.table.to_csv(),
            "chaos soak diverged at {workers} workers"
        );
        assert_eq!(run.total, reference.total);
        assert_eq!(run.verified, reference.verified);
    }
}

#[test]
fn lint_preset_matrix_is_identical_at_every_worker_count() {
    let verdict = |workers: usize| -> Vec<String> {
        par::map_ordered_with(workers, presets::cases(), |case| match case.run() {
            Ok(report) => format!("{}: {}", case.label(), report.summary()),
            Err(reason) => format!("{}: skip ({reason})", case.label()),
        })
    };
    let reference = verdict(1);
    assert_eq!(reference.len(), presets::cases().len());
    for workers in WORKER_COUNTS {
        assert_eq!(
            verdict(workers),
            reference,
            "lint matrix diverged at {workers} workers"
        );
    }
}

#[test]
fn fig12_sweep_is_identical_at_every_worker_count() {
    for kind in [CollectiveKind::AllReduce, CollectiveKind::AllToAll] {
        let reference = sweeps::fig12_table(kind, 1).to_csv();
        for workers in WORKER_COUNTS {
            assert_eq!(
                sweeps::fig12_table(kind, workers).to_csv(),
                reference,
                "fig12 {kind} diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn fuzz_style_sampling_is_identical_at_every_worker_count() {
    // The validator-fuzz shape: a seeded, branchy computation per item.
    let sample = |seed: u64| -> String {
        let mut rng = pimnet_suite::sim::SimRng::seed_from_u64(0xF022 ^ seed);
        let dpus = [8u32, 16][rng.below(2) as usize];
        let kind = CollectiveKind::ALL[rng.below(7) as usize];
        let s = CommSchedule::build(kind, &PimGeometry::paper_scaled(dpus), 64, 4).unwrap();
        format!("{kind} x{dpus}: {} transfers", s.transfer_count())
    };
    let seeds: Vec<u64> = (0..64).collect();
    let reference = par::map_ordered_with(1, seeds.clone(), sample);
    for workers in WORKER_COUNTS {
        assert_eq!(
            par::map_ordered_with(workers, seeds.clone(), sample),
            reference,
            "sampling diverged at {workers} workers"
        );
    }
}

#[test]
fn cache_hits_are_structurally_equal_to_fresh_builds() {
    let g = PimGeometry::paper_scaled(64);
    for kind in CollectiveKind::ALL {
        let req = ScheduleRequest::new(kind, &g, 256, 4);
        let cold = cache::get::<CommSchedule>(&req, Probe::disabled()).unwrap();
        let hit = cache::get::<CommSchedule>(&req, Probe::disabled()).unwrap();
        let fresh = CommSchedule::build(kind, &g, 256, 4).unwrap();
        validate::validate(&fresh).unwrap();
        assert_eq!(
            *cold, fresh,
            "{kind}: cached build differs from fresh build"
        );
        assert_eq!(*hit, fresh, "{kind}: cache hit differs from fresh build");
    }
    let faults = PermanentFaultSet::parse_tokens("r0c0b1E,r0c1tx").unwrap();
    let req = ScheduleRequest {
        faults: Some(&faults),
        ..ScheduleRequest::new(CollectiveKind::AllReduce, &g, 256, 4)
    };
    let cached = cache::get::<RepairedSchedule>(&req, Probe::disabled()).unwrap();
    let base = CommSchedule::build(CollectiveKind::AllReduce, &g, 256, 4).unwrap();
    let fresh = repair::repair(&base, &faults).unwrap();
    assert_eq!(*cached, fresh, "cached repair differs from fresh repair");
}

#[test]
fn concurrent_cold_misses_build_each_schedule_once() {
    // Keys no other test here looks up, counted through this test's own
    // probe: sibling tests share the process-global cache and counters.
    let g = PimGeometry::paper_scaled(32);
    let probe = Probe::enabled();
    // 32 concurrent lookups of the same 4 keys from 8 workers.
    let items: Vec<CollectiveKind> = (0..32)
        .map(|i| {
            [
                CollectiveKind::AllReduce,
                CollectiveKind::AllGather,
                CollectiveKind::AllToAll,
                CollectiveKind::Broadcast,
            ][i % 4]
        })
        .collect();
    let schedules = par::map_ordered_with(8, items, |kind| {
        let req = ScheduleRequest::new(kind, &g, 128, 4);
        cache::get::<CommSchedule>(&req, &probe).unwrap()
    });
    let m = probe.metrics.snapshot();
    assert_eq!(
        m.cache_misses, 4,
        "in-flight dedup must build each key once"
    );
    assert_eq!(m.cache_hits + m.cache_misses, 32);
    // Every lookup of a key observed the same schedule.
    for (i, s) in schedules.iter().enumerate() {
        assert_eq!(**s, *schedules[i % 4], "lookup {i} diverged");
    }
}
