//! Multi-tenant serving soak: the `pimnet::serve` contract, end-to-end.
//!
//! Pinned across seeds, policies, worker counts and fault storms:
//!
//! 1. **Determinism** — the same config reproduces the same request
//!    log byte-for-byte, and a seed matrix fanned out over 1, 2 and 8
//!    workers renders identical concatenated logs.
//! 2. **Exactly one typed outcome** — every sampled arrival ends as
//!    served, host-fallback, shed (with a typed `PimnetError`) or
//!    quarantined; nothing is lost, nothing is double-served.
//! 3. **Graceful degradation** — the overload ladder only climbs, shed
//!    requests never consume service time, and the priority class the
//!    ladder sheds is the one configured.
//! 4. **Quarantine hysteresis** — epochs never regress, and no request
//!    is served on a tenant inside its quarantine wall.
//! 5. **Fault composition** — a seeded fault timeline routed through
//!    the recovery manager keeps every guarantee above.
//! 6. **Pinned metrics** — the serving soak's p50/p99 latency and
//!    collectives/s, which perf_gate reports, are pinned to the
//!    picosecond.

use pimnet_suite::arch::PimGeometry;
use pimnet_suite::faults::{FaultConfig, FaultTimeline, TimelineRates};
use pimnet_suite::net::serve::{
    sample_arrivals, serve, OverloadThresholds, QueuePolicy, RequestOutcome, ServeConfig,
    QUARANTINE_PS,
};
use pimnet_suite::net::PimnetError;
use pimnet_suite::sim::par;

/// A storm config: two default-shard tenants under a seeded fault
/// timeline aggressive enough to exercise recovery, quarantine and
/// host fallback.
fn storm_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::uniform(2, seed);
    let g = cfg.tenants[0].geometry;
    let rates = TimelineRates {
        segment_arrival_prob: 0.5,
        port_arrival_prob: 0.5,
        rank_arrival_prob: 0.9,
        flap_prob: 0.5,
        burst_prob: 0.5,
        burst_ber: 0.8,
    };
    let timeline = FaultTimeline::sample(
        seed,
        g.ranks_per_channel,
        g.chips_per_rank,
        g.banks_per_chip,
        cfg.horizon_ps,
        &rates,
    );
    cfg.faults = FaultConfig {
        timeline,
        max_retries: 8,
        ..FaultConfig::none()
    }
    .with_seed(seed);
    cfg
}

/// A flood config that outruns its own service rate: small shard, tiny
/// gaps, tight ladder thresholds, a sheddable low-priority tenant.
fn flood_config(seed: u64) -> ServeConfig {
    let mut cfg = ServeConfig::uniform(2, seed);
    cfg.policy = QueuePolicy::Priority;
    cfg.overload = OverloadThresholds {
        shrink_at: 2,
        shed_at: 4,
        fallback_at: 8,
    };
    // Priority 1 (tenant 0) is the class the ladder sheds at level >= 2.
    cfg.shed_priority_below = 2;
    for (i, t) in cfg.tenants.iter_mut().enumerate() {
        t.geometry = PimGeometry::new(4, 2, 2, 1);
        t.elems_per_node = 64;
        t.mean_gap_ps = 120_000;
        t.priority = 1 + i as u8;
        t.queue_capacity = 4;
    }
    cfg.horizon_ps = 20_000_000;
    cfg
}

/// Renders the request logs of a seed matrix, fanned out over `workers`.
fn matrix_logs(workers: usize, seeds: &[u64]) -> String {
    par::map_ordered_with(workers, seeds.to_vec(), |seed| {
        let cfg = ServeConfig::uniform(3, seed);
        let report = serve(&cfg).expect("uniform serve config is valid");
        report.render_log(&cfg)
    })
    .concat()
}

#[test]
fn request_logs_are_byte_identical_at_1_2_and_8_workers() {
    let seeds: Vec<u64> = (0..4).map(|i| 0xA0 + i).collect();
    let one = matrix_logs(1, &seeds);
    let two = matrix_logs(2, &seeds);
    let eight = matrix_logs(8, &seeds);
    assert!(!one.is_empty());
    assert_eq!(one, two, "1-worker and 2-worker logs diverged");
    assert_eq!(one, eight, "1-worker and 8-worker logs diverged");
}

#[test]
fn the_same_config_reproduces_the_same_report() {
    for cfg in [
        ServeConfig::uniform(3, 11),
        storm_config(5),
        flood_config(9),
    ] {
        let a = serve(&cfg).expect("serve");
        let b = serve(&cfg).expect("serve");
        assert_eq!(a.render_log(&cfg), b.render_log(&cfg));
        assert_eq!(a.ladder, b.ladder);
        assert_eq!(a.quarantines, b.quarantines);
        assert_eq!(a.end_ps, b.end_ps);
    }
    // Different seeds must actually sample different traces.
    let a = ServeConfig::uniform(3, 11);
    let b = ServeConfig::uniform(3, 12);
    assert_ne!(
        serve(&a).expect("serve").render_log(&a),
        serve(&b).expect("serve").render_log(&b)
    );
}

#[test]
fn every_arrival_gets_exactly_one_typed_outcome() {
    for cfg in [
        ServeConfig::uniform(3, 21),
        storm_config(21),
        flood_config(21),
    ] {
        let report = serve(&cfg).expect("serve");
        let arrivals = sample_arrivals(&cfg);
        assert_eq!(report.log.len(), arrivals.len(), "an arrival was dropped");
        for (i, r) in report.log.iter().enumerate() {
            assert_eq!(r.request.id, i as u64, "log ids must stay dense");
        }
        let counted = report.count("served")
            + report.count("host-fallback")
            + report.count("shed")
            + report.count("quarantined");
        assert_eq!(counted, report.log.len(), "outcome kinds must partition");
    }
}

#[test]
fn shed_requests_never_consume_service_and_carry_typed_errors() {
    let cfg = flood_config(33);
    let report = serve(&cfg).expect("serve");
    assert!(report.count("shed") > 0, "the flood must shed something");
    for r in &report.log {
        match &r.outcome {
            RequestOutcome::Shed { reason, error, .. } => {
                assert!(
                    r.latency_ps().is_none(),
                    "a shed request must not be served"
                );
                match error {
                    PimnetError::AdmissionRejected { tenant, .. }
                    | PimnetError::DeadlineExceeded { tenant, .. } => {
                        assert_eq!(*tenant, r.request.tenant);
                        assert!(reason.is_some(), "admission sheds carry a reason");
                    }
                    // A failed recovery surfaces the underlying error.
                    _ => assert!(reason.is_none()),
                }
            }
            RequestOutcome::Quarantined { .. } => {
                assert!(r.latency_ps().is_none());
            }
            _ => {}
        }
    }
}

#[test]
fn the_overload_ladder_only_climbs_and_sheds_the_configured_class() {
    let cfg = flood_config(44);
    let report = serve(&cfg).expect("serve");
    let mut level = 0;
    for step in &report.ladder {
        assert!(step.level > level, "the ladder must only ratchet upward");
        level = step.level;
    }
    assert!(level >= 2, "the flood must reach the shedding rung");
    // At level >= 2 the engine sheds `priority < shed_priority_below`;
    // with the flood's threshold of 2 that is exactly tenant 0's
    // priority-1 class, and only that class.
    let mut priority_sheds = 0;
    for r in &report.log {
        if let RequestOutcome::Shed { reason, .. } = &r.outcome {
            if reason.map(|x| x.name()) == Some("low-priority") {
                priority_sheds += 1;
                assert!(
                    r.request.priority < cfg.shed_priority_below,
                    "only the configured class may be priority-shed"
                );
            }
        }
    }
    assert!(priority_sheds > 0, "the sheddable class must be shed");
}

#[test]
fn quarantine_epochs_are_monotone_and_walls_are_respected() {
    let cfg = storm_config(3);
    let report = serve(&cfg).expect("serve");
    assert!(
        !report.quarantines.is_empty(),
        "this storm is known to quarantine (seeded)"
    );
    let mut epochs = vec![0u64; cfg.tenants.len()];
    let mut walls: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cfg.tenants.len()];
    for q in &report.quarantines {
        let ti = q.tenant as usize;
        assert!(q.epoch >= epochs[ti], "epochs must never regress");
        epochs[ti] = q.epoch;
        if q.entered {
            walls[ti].push((q.at_ps, q.at_ps + QUARANTINE_PS));
        }
    }
    // No request is *served* on a tenant inside its quarantine wall.
    for r in &report.log {
        if let RequestOutcome::Served { start_ps, .. } = &r.outcome {
            let ti = r.request.tenant as usize;
            for &(from, until) in &walls[ti] {
                assert!(
                    *start_ps < from || *start_ps >= until,
                    "request {} served at {start_ps} inside tenant {ti}'s \
                     quarantine wall [{from}, {until})",
                    r.request.id
                );
            }
        }
    }
}

#[test]
fn fault_storms_compose_with_every_policy() {
    for policy in [QueuePolicy::Fifo, QueuePolicy::Lifo, QueuePolicy::Priority] {
        let mut cfg = storm_config(17);
        cfg.policy = policy;
        let report = serve(&cfg).expect("serve");
        assert_eq!(report.log.len(), sample_arrivals(&cfg).len());
        // Storms must be survivable: something completes even when the
        // fabric is being shot at.
        assert!(
            report.count("served") + report.count("host-fallback") > 0,
            "policy {} served nothing under the storm",
            policy.name()
        );
    }
}

/// perf_gate's serving numbers, pinned exactly. They are simulated time,
/// so any drift is a change to the serving model, not machine noise.
/// Rendered as perf_gate prints them (p50 1.630 us, p99 13.037 us,
/// 34670.9 collectives/s) they equal the `serve_*` keys of
/// `results/perf_baseline.json` and the `209,clean` row of
/// `results/serve_soak.csv`.
#[test]
fn perf_gate_serving_metrics_are_pinned_exactly() {
    let s = pimnet_bench::sweeps::serve_soak(3, 1, 0xD1, 2);
    assert_eq!(s.unsound, 0);
    assert_eq!(s.total, 68);
    // The clean cell served 34 requests by 980 648 957 ps, with median
    // and tail latencies of 1 629 634 ps and 13 037 072 ps.
    assert_eq!(s.p50_us, 1_629_634.0 / 1e6);
    assert_eq!(s.p99_us, 13_037_072.0 / 1e6);
    assert_eq!(s.collectives_per_sec, 34.0 / (980_648_957.0 / 1e12));
    assert_eq!(
        format!(
            "{:.3} {:.3} {:.1}",
            s.p50_us, s.p99_us, s.collectives_per_sec
        ),
        "1.630 13.037 34670.9"
    );
}
