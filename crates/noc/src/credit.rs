//! Credit-based, wormhole-routed cycle simulation.
//!
//! The dynamic network the paper compares against (Booksim-style): each
//! link has a downstream input buffer guarded by credits; a link is
//! allocated to one packet at a time (wormhole) and holds it until the
//! packet's tail passes — so a packet stalled on a full downstream buffer
//! blocks everything queued behind it (head-of-line blocking). Every DPU
//! injects as soon as its own compute finishes and its data dependencies
//! are met; nothing waits for a global barrier.
//!
//! The model streams bytes rather than discrete flits: per cycle, an
//! allocated link moves `min(link width, bytes available upstream, credit
//! space downstream)` bytes of its current packet. With 2/3/48-byte link
//! widths this is exactly flit-level behaviour with 1-byte flits, at much
//! lower simulation cost.

use std::collections::{BTreeMap, HashMap, VecDeque};

use pim_sim::trace::codes;
use pim_sim::{Probe, SimTime};

use pimnet::schedule::CommSchedule;
use pimnet::topology::Resource;
use pimnet::PimnetError;

use crate::config::NocConfig;
use crate::packet::packets_from_schedule;
use crate::report::NocReport;

struct LinkState {
    /// Packet currently holding the link (wormhole allocation).
    current: Option<usize>,
    /// Packets waiting for the link, FIFO.
    queue: VecDeque<usize>,
    /// Consecutive cycles the current packet moved no byte (VC-escape
    /// preemption counter).
    stalled: u32,
}

/// Runs the credit-based simulation of `schedule`'s traffic, with
/// `ready[i]` the time DPU `i` finishes compute and may start injecting,
/// under a fault scenario.
///
/// Faults enter the cycle model in two ways:
///
/// * **stragglers** push back the affected DPUs' injection-ready times
///   (a dynamic network has no barrier, so only the straggler's own
///   packets — and whatever depends on them — are delayed, which is
///   precisely the flow-control advantage Fig 13 quantifies);
/// * **transient CRC failures** replay the corrupted packet over the same
///   links via [`crate::packet::inject_retransmissions`], consuming real
///   wire time and back-pressuring everything queued behind it.
///
/// With an inactive injector this is the fault-free simulation. The
/// simulation stays fully deterministic for a seed. Stragglers and CRC
/// retransmissions land in `probe` as `straggler` / `noc-retransmit`
/// instants (and metrics counters) on top of everything
/// [`simulate_credit_packets`] records.
///
/// # Errors
///
/// * [`PimnetError::DeadDpu`] if a participant is hard-dead;
/// * [`PimnetError::TransferFailed`] if a packet exhausts its retry
///   budget;
/// * whatever [`simulate_credit_packets`] returns, e.g.
///   [`PimnetError::SimulationStalled`] if the scenario wedges the flow
///   control past the `cfg.max_cycles` deadlock guard (typed, not a
///   panic: chaos harnesses count it).
///
/// # Panics
///
/// Panics if `ready` is shorter than the DPU count.
pub fn simulate_credit(
    schedule: &CommSchedule,
    ready: &[SimTime],
    cfg: &NocConfig,
    injector: &pim_faults::FaultInjector,
    probe: &Probe,
) -> Result<NocReport, PimnetError> {
    let nodes = schedule.geometry.total_dpus() as usize;
    assert!(
        ready.len() >= nodes,
        "ready times: got {}, need {nodes}",
        ready.len()
    );
    let base = packets_from_schedule(schedule);
    if !injector.is_active() {
        return simulate_credit_packets(&base, ready, cfg, probe);
    }
    if let Some(dead) = schedule.participants().find(|id| injector.is_dead(id.0)) {
        return Err(PimnetError::DeadDpu { dpu: dead.0 });
    }
    let mut stretched: Vec<SimTime> = Vec::with_capacity(ready.len());
    for (i, &t) in ready.iter().enumerate() {
        let delay_ns = injector.straggler_delay_ns(i as u32, 0);
        if delay_ns > 0 && i < nodes {
            probe
                .trace
                .instant(SimTime::ZERO, codes::STRAGGLER, [i as u64, delay_ns, 0, 0]);
            probe.metrics.straggler(delay_ns);
        }
        stretched.push(t + SimTime::from_ns(delay_ns));
    }
    let packets = crate::packet::inject_retransmissions(&base, injector)?;
    probe
        .metrics
        .retransmissions((packets.len() - base.len()) as u64);
    if probe.trace.is_enabled() {
        // Retry attempts re-derived per *base* packet (the expansion
        // already proved each has a clean final attempt), so event order
        // is the stable base-packet order rather than the expanded
        // interleaving.
        for p in &base {
            let corrupted = injector
                .attempts_before_success(p.stage.0 as u64, p.stage.1 as u64, p.id as u64)
                .unwrap_or(0);
            for attempt in 1..=u64::from(corrupted) {
                probe.trace.instant(
                    SimTime::ZERO,
                    codes::NOC_RETRANSMIT,
                    [u64::from(p.src.0), u64::from(p.dst.0), p.bytes, attempt],
                );
            }
        }
    }
    simulate_credit_packets(&packets, &stretched, cfg, probe)
}

/// The mutable per-link flow-control state keyed by the resource the link
/// occupies, looked up fallibly: a packet routed over a link that was
/// never registered is a malformed packet list, reported as
/// [`PimnetError::Unroutable`] instead of a panic.
fn link_mut<'a>(
    links: &'a mut BTreeMap<Resource, LinkState>,
    r: &Resource,
) -> Result<&'a mut LinkState, PimnetError> {
    links.get_mut(r).ok_or_else(|| PimnetError::Unroutable {
        reason: format!("packet routed over unregistered link {r:?}"),
    })
}

/// Runs the credit-based simulation on an explicit packet list (used both
/// by [`simulate_credit`] and by the synthetic traffic patterns of
/// [`crate::traffic`]). With an active probe, each delivery becomes a
/// `noc-deliver` instant at its simulated delivery time (in packet-id
/// order, so traces are independent of the cycle interleaving), and
/// per-tier link-busy time, stall cycles, and byte conservation land in
/// the metrics sink.
///
/// # Errors
///
/// * [`PimnetError::Unroutable`] if a packet references a link or hop
///   that is not part of its own registered path (malformed input);
/// * [`PimnetError::SimulationStalled`] if traffic stops making progress
///   before every packet is delivered (`cfg.max_cycles` guard).
///
/// # Panics
///
/// Panics if a packet's source index exceeds `ready.len()`.
pub fn simulate_credit_packets(
    packets: &[crate::packet::Packet],
    ready: &[SimTime],
    cfg: &NocConfig,
    probe: &Probe,
) -> Result<NocReport, PimnetError> {
    let nodes = ready.len();
    if packets.is_empty() {
        return Ok(NocReport {
            completion: ready.iter().copied().max().unwrap_or(SimTime::ZERO),
            cycles: 0,
            packets: 0,
            injected_bytes: 0,
            stall_cycles: 0,
            p50_latency: SimTime::ZERO,
            p99_latency: SimTime::ZERO,
            max_link_utilization: 0.0,
        });
    }

    // Reverse dependency lists and remaining-dep counters.
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); packets.len()];
    let mut deps_left: Vec<usize> = packets.iter().map(|p| p.deps.len()).collect();
    for p in packets {
        for &d in &p.deps {
            dependents[d].push(p.id);
        }
    }

    // Per-packet per-hop progress (bytes that crossed each hop).
    let mut prog: Vec<Vec<u64>> = packets.iter().map(|p| vec![0u64; p.path.len()]).collect();
    let mut delivered: Vec<bool> = vec![false; packets.len()];
    let mut enqueued_hop: Vec<usize> = vec![0; packets.len()]; // next hop to enqueue
    let ready_cycle: Vec<u64> = (0..nodes).map(|i| cfg.time_to_cycles(ready[i])).collect();

    // A BTreeMap so every iteration below walks links in sorted resource
    // order — determinism without a separate ordering vector.
    let mut links: BTreeMap<Resource, LinkState> = BTreeMap::new();
    for p in packets {
        for r in &p.path {
            links.entry(*r).or_insert(LinkState {
                current: None,
                queue: VecDeque::new(),
                stalled: 0,
            });
        }
    }

    // A packet is *armed* once its dependencies are delivered; it then
    // releases at its source's ready cycle (min-heap keyed by that cycle,
    // with the packet id as deterministic tie-breaker).
    use std::cmp::Reverse;
    let mut armed: std::collections::BinaryHeap<Reverse<(u64, usize)>> =
        std::collections::BinaryHeap::new();
    for p in packets {
        if p.deps.is_empty() {
            armed.push(Reverse((ready_cycle[p.src.index()], p.id)));
        }
    }

    let mut remaining = packets.len();
    let mut injected_bytes = 0u64;
    let mut stall_cycles = 0u64;
    let mut cycle = 0u64;
    let mut last_delivery_cycle = 0u64;
    let mut stalled_links: Vec<Resource> = Vec::new();
    let mut release_cycle_of: Vec<u64> = vec![0; packets.len()];
    let mut delivery_cycle: Vec<u64> = vec![0; packets.len()];
    let mut latencies: Vec<u64> = Vec::with_capacity(packets.len());
    let mut busy: HashMap<Resource, u64> = HashMap::new();

    while remaining > 0 {
        if cycle >= cfg.max_cycles {
            return Err(PimnetError::SimulationStalled {
                cycles: cycle,
                remaining,
            });
        }

        // 1. Release armed packets whose ready cycle has arrived; the heap
        // order (cycle, id) keeps queue insertion deterministic.
        while let Some(&Reverse((at, pid))) = armed.peek() {
            if at > cycle {
                break;
            }
            armed.pop();
            release_cycle_of[pid] = cycle;
            let first = packets[pid].path[0];
            link_mut(&mut links, &first)?.queue.push_back(pid);
            enqueued_hop[pid] = 1;
        }

        // 2. Allocate free links; packets still queued behind a busy link
        // are the visible cost of dynamic flow control (contention wait).
        // A wormhole that has been dead for `preempt_after` cycles yields
        // (virtual-channel escape; prevents multi-hop ring deadlock).
        for l in links.values_mut() {
            if let Some(cur) = l.current {
                if l.stalled >= cfg.preempt_after && !l.queue.is_empty() {
                    l.queue.push_back(cur);
                    l.current = l.queue.pop_front();
                    l.stalled = 0;
                }
            } else {
                l.current = l.queue.pop_front();
                l.stalled = 0;
            }
            stall_cycles += l.queue.len() as u64;
        }

        // 3. Move bytes using a snapshot of progress.
        let mut moved: Vec<(usize, usize, u64)> = Vec::new(); // (packet, hop, delta)
        for (r, l) in &links {
            let Some(pid) = l.current else { continue };
            let p = &packets[pid];
            let hop =
                p.path
                    .iter()
                    .position(|x| x == r)
                    .ok_or_else(|| PimnetError::Unroutable {
                        reason: format!("packet {pid} holds link {r:?} off its own path"),
                    })?;
            let upstream = if hop == 0 {
                p.bytes
            } else {
                prog[pid][hop - 1]
            };
            let avail = upstream - prog[pid][hop];
            let space = if hop + 1 < p.path.len() {
                cfg.buffer_bytes - (prog[pid][hop] - prog[pid][hop + 1])
            } else {
                u64::MAX
            };
            let delta = cfg.capacity(r).min(avail).min(space);
            if delta == 0 {
                stall_cycles += 1;
                stalled_links.push(*r);
            } else {
                moved.push((pid, hop, delta));
            }
        }
        for r in stalled_links.drain(..) {
            link_mut(&mut links, &r)?.stalled += 1;
        }
        for (pid, hop, _) in &moved {
            let r = packets[*pid].path[*hop];
            link_mut(&mut links, &r)?.stalled = 0;
            *busy.entry(r).or_insert(0) += 1;
        }

        // 4. Apply movements; manage allocation, enqueueing, delivery.
        for (pid, hop, delta) in moved {
            prog[pid][hop] += delta;
            if hop == 0 {
                injected_bytes += delta;
            }
            let p = &packets[pid];
            // First bytes reached the buffer before hop+1: join its queue.
            if hop + 1 < p.path.len() && enqueued_hop[pid] == hop + 1 {
                link_mut(&mut links, &p.path[hop + 1])?.queue.push_back(pid);
                enqueued_hop[pid] = hop + 2;
            }
            // Tail passed this hop: free the link.
            if prog[pid][hop] == p.bytes {
                let l = link_mut(&mut links, &p.path[hop])?;
                if l.current == Some(pid) {
                    l.current = None;
                }
            }
            // Delivered?
            if hop + 1 == p.path.len() && prog[pid][hop] == p.bytes && !delivered[pid] {
                delivered[pid] = true;
                remaining -= 1;
                last_delivery_cycle = cycle + 1;
                delivery_cycle[pid] = cycle + 1;
                latencies.push(cycle + 1 - release_cycle_of[pid]);
                for &d in &dependents[pid] {
                    deps_left[d] -= 1;
                    if deps_left[d] == 0 {
                        let rc = ready_cycle[packets[d].src.index()].max(cycle + 1);
                        armed.push(Reverse((rc, d)));
                    }
                }
            }
        }

        cycle += 1;
    }

    latencies.sort_unstable();
    let pct = |p: f64| -> SimTime {
        if latencies.is_empty() {
            return SimTime::ZERO;
        }
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        cfg.cycles_to_time(latencies[idx])
    };
    let max_link_utilization = busy
        .values()
        .map(|&b| b as f64 / last_delivery_cycle.max(1) as f64)
        .fold(0.0f64, f64::max);
    if probe.is_active() {
        for p in packets {
            probe.trace.instant(
                cfg.cycles_to_time(delivery_cycle[p.id]),
                codes::NOC_DELIVER,
                [
                    u64::from(p.src.0),
                    u64::from(p.dst.0),
                    p.bytes,
                    ((p.stage.0 as u64) << 16) | p.stage.1 as u64,
                ],
            );
        }
        let mut busy_ps_by_tier = [0u64; pim_sim::metrics::TIERS];
        let mut max_busy_ps = 0u64;
        for r in links.keys() {
            let Some(&b) = busy.get(r) else { continue };
            let ps = cfg.cycles_to_time(b).as_ps();
            busy_ps_by_tier[r.tier_index()] += ps;
            max_busy_ps = max_busy_ps.max(ps);
        }
        for (tier, &ps) in busy_ps_by_tier.iter().enumerate() {
            if ps > 0 {
                probe.metrics.link_busy(tier, ps);
            }
        }
        probe.metrics.max_link_busy(max_busy_ps);
        probe
            .metrics
            .wall(cfg.cycles_to_time(last_delivery_cycle).as_ps());
        // Every packet is fully delivered by loop exit, so delivered bytes
        // are the packet total; injected bytes were counted at hop 0. The
        // two must agree (`tests/metrics_invariants.rs`).
        let delivered_bytes: u64 = packets.iter().map(|p| p.bytes).sum();
        probe.metrics.noc(
            injected_bytes,
            delivered_bytes,
            stall_cycles,
            packets.len() as u64,
        );
    }
    Ok(NocReport {
        completion: cfg.cycles_to_time(last_delivery_cycle),
        cycles: last_delivery_cycle,
        packets: packets.len(),
        injected_bytes,
        stall_cycles,
        p50_latency: pct(0.5),
        p99_latency: pct(0.99),
        max_link_utilization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::geometry::PimGeometry;
    use pim_faults::{FaultConfig, FaultInjector};
    use pimnet::collective::CollectiveKind;

    fn schedule(kind: CollectiveKind, n: u32, elems: usize) -> CommSchedule {
        CommSchedule::build(kind, &PimGeometry::paper_scaled(n), elems, 4).unwrap()
    }

    fn zeros(n: u32) -> Vec<SimTime> {
        vec![SimTime::ZERO; n as usize]
    }

    /// The fault-free, unobserved simulation.
    fn fault_free(s: &CommSchedule, ready: &[SimTime], cfg: &NocConfig) -> NocReport {
        simulate_credit(s, ready, cfg, &FaultInjector::none(), Probe::disabled()).unwrap()
    }

    #[test]
    fn single_chip_allreduce_completes_with_full_ring_utilization() {
        let s = schedule(CollectiveKind::AllReduce, 8, 512);
        let r = fault_free(&s, &zeros(8), &NocConfig::paper());
        // 8 banks x 2 directions x 7 steps, for ReduceScatter + AllGather.
        assert_eq!(r.packets, 8 * 2 * 7 * 2);
        assert!(r.cycles > 0);
        // Lower bound: each direction moves 7 x (256/8) elems x 4 B = 896 B
        // per bank at 2 B/cycle -> at least 448 cycles.
        assert!(r.cycles >= 448, "finished impossibly fast: {}", r.cycles);
    }

    #[test]
    fn completion_scales_with_message_size() {
        let cfg = NocConfig::paper();
        let small = fault_free(
            &schedule(CollectiveKind::AllReduce, 8, 256),
            &zeros(8),
            &cfg,
        );
        let large = fault_free(
            &schedule(CollectiveKind::AllReduce, 8, 2048),
            &zeros(8),
            &cfg,
        );
        let ratio = large.cycles as f64 / small.cycles as f64;
        assert!(
            (4.0..12.0).contains(&ratio),
            "expected ~8x more cycles, got {ratio:.2}"
        );
    }

    #[test]
    fn ready_skew_delays_completion() {
        let s = schedule(CollectiveKind::AllReduce, 8, 512);
        let cfg = NocConfig::paper();
        let base = fault_free(&s, &zeros(8), &cfg);
        let mut ready = zeros(8);
        ready[3] = SimTime::from_us(50);
        let skewed = fault_free(&s, &ready, &cfg);
        assert!(skewed.completion > base.completion);
        assert!(skewed.completion >= SimTime::from_us(50));
    }

    #[test]
    fn cross_rank_traffic_flows() {
        let s = schedule(CollectiveKind::AllReduce, 32, 256);
        let r = fault_free(&s, &zeros(32), &NocConfig::paper());
        assert!(r.cycles > 0);
        assert!(r.injected_bytes > 0);
    }

    #[test]
    fn alltoall_stalls_more_than_allreduce() {
        // The crossbar contention story of Fig 13: A2A's convergent wormhole
        // traffic produces head-of-line stalls; AR's neighbor traffic does
        // not (much).
        let cfg = NocConfig::paper();
        let ar = fault_free(
            &schedule(CollectiveKind::AllReduce, 64, 1024),
            &zeros(64),
            &cfg,
        );
        let a2a = fault_free(
            &schedule(CollectiveKind::AllToAll, 64, 1024),
            &zeros(64),
            &cfg,
        );
        assert!(
            a2a.stall_cycles > ar.stall_cycles,
            "A2A stalls ({}) should exceed AR stalls ({})",
            a2a.stall_cycles,
            ar.stall_cycles
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let s = schedule(CollectiveKind::AllToAll, 16, 256);
        let cfg = NocConfig::paper();
        let a = fault_free(&s, &zeros(16), &cfg);
        let b = fault_free(&s, &zeros(16), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn retransmissions_cost_cycles_and_bytes_deterministically() {
        let s = schedule(CollectiveKind::AllReduce, 8, 512);
        let cfg = NocConfig::paper();
        let clean = fault_free(&s, &zeros(8), &cfg);
        let inj = FaultInjector::new(
            FaultConfig {
                transient_ber: 0.2,
                max_retries: 16,
                ..FaultConfig::none()
            }
            .with_seed(9),
        );
        let a = simulate_credit(&s, &zeros(8), &cfg, &inj, Probe::disabled()).unwrap();
        let b = simulate_credit(&s, &zeros(8), &cfg, &inj, Probe::disabled()).unwrap();
        assert_eq!(a, b, "same seed must simulate identically");
        assert!(
            a.injected_bytes > clean.injected_bytes,
            "retries add wire bytes"
        );
        assert!(
            a.completion >= clean.completion,
            "retries cannot speed things up"
        );
    }

    #[test]
    fn an_undeliverable_scenario_stalls_typed_instead_of_panicking() {
        let s = schedule(CollectiveKind::AllReduce, 8, 512);
        // A deadlock guard far too tight for the traffic: the fault path
        // must report SimulationStalled, not assert.
        let cfg = NocConfig {
            max_cycles: 4,
            ..NocConfig::paper()
        };
        let inj = FaultInjector::new(
            FaultConfig {
                straggler_prob: 1.0,
                straggler_max_ns: 10,
                ..FaultConfig::none()
            }
            .with_seed(3),
        );
        let err = simulate_credit(&s, &zeros(8), &cfg, &inj, Probe::disabled()).unwrap_err();
        assert!(
            matches!(
                err,
                pimnet::PimnetError::SimulationStalled { cycles: 4, remaining } if remaining > 0
            ),
            "expected SimulationStalled, got {err:?}"
        );
    }

    #[test]
    fn a_straggler_delays_only_its_dependents() {
        let s = schedule(CollectiveKind::AllReduce, 8, 512);
        let cfg = NocConfig::paper();
        let clean = fault_free(&s, &zeros(8), &cfg);
        let inj = FaultInjector::new(
            FaultConfig {
                straggler_prob: 0.5,
                straggler_max_ns: 80_000,
                ..FaultConfig::none()
            }
            .with_seed(11),
        );
        let slow = simulate_credit(&s, &zeros(8), &cfg, &inj, Probe::disabled()).unwrap();
        // Same traffic, later finish: stragglers delay injection, not bytes.
        assert_eq!(slow.injected_bytes, clean.injected_bytes);
        assert!(slow.completion > clean.completion);
    }

    #[test]
    fn dead_participants_are_refused_up_front() {
        let s = schedule(CollectiveKind::AllReduce, 8, 512);
        let inj = FaultInjector::new(FaultConfig {
            dead_dpus: vec![3],
            ..FaultConfig::none()
        });
        assert!(matches!(
            simulate_credit(&s, &zeros(8), &NocConfig::paper(), &inj, Probe::disabled()),
            Err(pimnet::PimnetError::DeadDpu { dpu: 3 })
        ));
    }
}
