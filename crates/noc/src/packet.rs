//! Traffic generation: a [`pimnet::schedule::CommSchedule`] becomes a list
//! of dependent packets.
//!
//! Each non-local transfer becomes one packet per destination (a dynamic
//! network has no multicast, so a bus broadcast is replayed as unicasts —
//! one of the costs credit-based flow control pays against PIMnet's
//! switch-configured multicast). A packet carries the *collective
//! algorithm's* data dependencies: a node cannot forward a ring chunk it
//! has not finished receiving, so the packet for step `s` depends on the
//! node's packets of step `s-1` (and on all its packets of earlier phases).

use pim_arch::geometry::DpuId;
use pimnet::schedule::CommSchedule;
use pimnet::topology::Resource;

/// One unicast message in the cycle-level network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Dense packet id (index into the packet list).
    pub id: usize,
    /// Sending node.
    pub src: DpuId,
    /// Receiving node.
    pub dst: DpuId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Links traversed, in order.
    pub path: Vec<Resource>,
    /// Position in the collective: (phase index, step index).
    pub stage: (usize, usize),
    /// Packet ids that must be *delivered* before this packet may inject
    /// (the sender's own sends/receives of the previous step/phase).
    pub deps: Vec<usize>,
}

/// Expands a schedule into dependent unicast packets.
///
/// Local (resource-less) transfers move no network bytes and are skipped;
/// dependencies skip over them too.
#[must_use]
pub fn packets_from_schedule(schedule: &CommSchedule) -> Vec<Packet> {
    let mut packets: Vec<Packet> = Vec::new();
    // Per node: packet ids of the most recent stage the node participated in.
    let nodes = schedule.geometry.total_dpus() as usize;
    let mut last_stage: Vec<Vec<usize>> = vec![Vec::new(); nodes];

    for (pi, phase) in schedule.phases.iter().enumerate() {
        for (si, step) in phase.steps.iter().enumerate() {
            let mut this_stage: Vec<Vec<usize>> = vec![Vec::new(); nodes];
            for t in &step.transfers {
                if t.is_local() {
                    continue;
                }
                let bytes = t.bytes(schedule.elem_bytes).as_u64();
                for &dst in &t.dsts {
                    let id = packets.len();
                    // The sender's and receiver's packets from the previous
                    // stage gate this one (chunk hand-off dependency).
                    let mut deps = last_stage[t.src.index()].clone();
                    deps.extend_from_slice(&last_stage[dst.index()]);
                    deps.sort_unstable();
                    deps.dedup();
                    packets.push(Packet {
                        id,
                        src: t.src,
                        dst,
                        bytes,
                        path: unicast_path(&t.resources, dst, schedule),
                        stage: (pi, si),
                        deps,
                    });
                    this_stage[t.src.index()].push(id);
                    this_stage[dst.index()].push(id);
                }
            }
            for (node, ids) in this_stage.into_iter().enumerate() {
                if !ids.is_empty() {
                    last_stage[node] = ids;
                }
            }
        }
    }
    packets
}

/// For a (possibly multicast) resource path, the linear chain of hops one
/// unicast copy to `dst` traverses: everything except the other
/// destinations' receive channels.
fn unicast_path(resources: &[Resource], dst: DpuId, schedule: &CommSchedule) -> Vec<Resource> {
    let dst_chip = pimnet::topology::ChipLoc::of(schedule.geometry.coord(dst));
    resources
        .iter()
        .filter(|r| match r {
            Resource::ChipRx { chip } => *chip == dst_chip,
            _ => true,
        })
        .copied()
        .collect()
}

/// Expands a packet list with CRC-retry retransmissions under a fault
/// scenario.
///
/// A packet whose attempt `k` the injector corrupts is re-sent: the retry
/// is a fresh packet over the same path that can only inject once the
/// corrupted attempt finished occupying the wire (a dependency on the
/// previous attempt), so retries consume real link time in the credit
/// simulation. Everything that depended on the original packet is
/// repointed to the *final* attempt — downstream steps wait for clean
/// data, exactly like the functional executor's CRC gate.
///
/// The injector's decision coordinates are `(phase, step, packet id)`, so
/// the expansion is independent of iteration order and identical across
/// runs for a seed. With an inactive injector the input list is returned
/// unchanged (zero overhead).
///
/// # Errors
///
/// [`pimnet::PimnetError::TransferFailed`] when a packet stays corrupted
/// through its whole retry budget.
pub fn inject_retransmissions(
    packets: &[Packet],
    injector: &pim_faults::FaultInjector,
) -> Result<Vec<Packet>, pimnet::PimnetError> {
    if !injector.is_active() {
        return Ok(packets.to_vec());
    }
    let mut out: Vec<Packet> = Vec::with_capacity(packets.len());
    // Original id -> id of its final (clean) attempt.
    let mut final_attempt: Vec<usize> = Vec::with_capacity(packets.len());
    for p in packets {
        let corrupted = injector
            .attempts_before_success(p.stage.0 as u64, p.stage.1 as u64, p.id as u64)
            .ok_or(pimnet::PimnetError::TransferFailed {
                phase: p.stage.0,
                step: p.stage.1,
                transfer: p.id,
                attempts: injector.max_attempts(),
            })?;
        // Dependencies were expressed against original ids; repoint them
        // at the dependees' final attempts (all earlier in `out`).
        let deps: Vec<usize> = p.deps.iter().map(|&d| final_attempt[d]).collect();
        let mut last = out.len();
        out.push(Packet {
            id: last,
            deps,
            ..p.clone()
        });
        for _ in 0..corrupted {
            let id = out.len();
            out.push(Packet {
                id,
                deps: vec![last],
                ..p.clone()
            });
            last = id;
        }
        final_attempt.push(last);
    }
    Ok(out)
}

/// Total bytes injected by a packet list.
#[must_use]
pub fn total_bytes(packets: &[Packet]) -> u64 {
    packets.iter().map(|p| p.bytes).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pim_arch::geometry::PimGeometry;
    use pimnet::collective::CollectiveKind;

    fn schedule(kind: CollectiveKind, n: u32, elems: usize) -> CommSchedule {
        CommSchedule::build(kind, &PimGeometry::paper_scaled(n), elems, 4).unwrap()
    }

    #[test]
    fn broadcasts_expand_to_unicasts() {
        // 256 DPUs AllReduce: the inter-rank phase broadcasts to 3 ranks,
        // so the packet count there is 3x the transfer count.
        let s = schedule(CollectiveKind::AllReduce, 256, 4096);
        let packets = packets_from_schedule(&s);
        let rank_packets = packets
            .iter()
            .filter(|p| p.path.iter().any(|r| matches!(r, Resource::RankBus { .. })))
            .count();
        // 256 banks x 2 halves x 3 destinations.
        assert_eq!(rank_packets, 256 * 2 * 3);
        // Each bus packet's path is a clean 3-hop chain (tx, bus, rx).
        for p in packets
            .iter()
            .filter(|p| p.path.iter().any(|r| matches!(r, Resource::RankBus { .. })))
        {
            assert_eq!(p.path.len(), 3);
        }
    }

    #[test]
    fn ring_steps_chain_dependencies() {
        let s = schedule(CollectiveKind::AllReduce, 8, 64);
        let packets = packets_from_schedule(&s);
        // Step 0 packets have no deps; later steps depend on earlier ones.
        let first: Vec<_> = packets.iter().filter(|p| p.stage == (0, 0)).collect();
        assert!(first.iter().all(|p| p.deps.is_empty()));
        let second: Vec<_> = packets.iter().filter(|p| p.stage == (0, 1)).collect();
        assert!(!second.is_empty());
        assert!(second.iter().all(|p| !p.deps.is_empty()));
    }

    #[test]
    fn alltoall_packets_have_no_cross_step_data_deps_within_a_node_pairing() {
        // All-to-All chunks are independent, but our conservative model
        // still chains a node's steps (it cannot inject two chunks at once
        // through one ring port anyway). Just verify packet integrity.
        let s = schedule(CollectiveKind::AllToAll, 16, 64);
        let packets = packets_from_schedule(&s);
        assert!(!packets.is_empty());
        for p in &packets {
            assert!(p.bytes > 0);
            assert!(!p.path.is_empty());
            assert_ne!(p.src, p.dst);
            for &d in &p.deps {
                assert!(d < p.id, "dependency on a later packet");
            }
        }
    }

    #[test]
    fn retransmission_expansion_is_deterministic_and_chains_attempts() {
        use pim_faults::{FaultConfig, FaultInjector};
        let s = schedule(CollectiveKind::AllReduce, 8, 64);
        let packets = packets_from_schedule(&s);
        let inj = FaultInjector::new(
            FaultConfig {
                transient_ber: 0.3,
                max_retries: 16,
                ..FaultConfig::none()
            }
            .with_seed(5),
        );
        let a = inject_retransmissions(&packets, &inj).unwrap();
        let b = inject_retransmissions(&packets, &inj).unwrap();
        assert_eq!(a, b, "same seed must expand identically");
        assert!(a.len() > packets.len(), "BER 0.3 should add retries");
        // Ids are dense and deps point backwards.
        for (i, p) in a.iter().enumerate() {
            assert_eq!(p.id, i);
            assert!(p.deps.iter().all(|&d| d < i));
        }
        // A retry differs from its predecessor only in id and deps.
        let retries = a.len() - packets.len();
        assert!(retries > 0);
        // Total wire traffic grows by exactly the retry packets' bytes.
        assert!(total_bytes(&a) > total_bytes(&packets));
    }

    #[test]
    fn inactive_injector_returns_the_original_list() {
        use pim_faults::FaultInjector;
        let s = schedule(CollectiveKind::AllReduce, 8, 64);
        let packets = packets_from_schedule(&s);
        let out = inject_retransmissions(&packets, &FaultInjector::none()).unwrap();
        assert_eq!(out, packets);
    }

    #[test]
    fn hopeless_error_rate_is_a_typed_failure() {
        use pim_faults::{FaultConfig, FaultInjector};
        let s = schedule(CollectiveKind::AllReduce, 8, 64);
        let packets = packets_from_schedule(&s);
        let inj = FaultInjector::new(FaultConfig {
            transient_ber: 1.0,
            max_retries: 2,
            ..FaultConfig::none()
        });
        assert!(matches!(
            inject_retransmissions(&packets, &inj),
            Err(pimnet::PimnetError::TransferFailed { .. })
        ));
    }

    #[test]
    fn certain_corruption_fails_at_once_under_the_largest_budget() {
        use pim_faults::{FaultConfig, FaultInjector};
        let s = schedule(CollectiveKind::AllToAll, 8, 8);
        let packets = packets_from_schedule(&s);
        let inj = FaultInjector::new(FaultConfig {
            transient_ber: 1.0,
            max_retries: u32::MAX,
            ..FaultConfig::none()
        });
        match inject_retransmissions(&packets, &inj) {
            Err(pimnet::PimnetError::TransferFailed { attempts, .. }) => {
                assert_eq!(attempts, u32::MAX);
            }
            other => panic!("expected TransferFailed, got {other:?}"),
        }
    }

    #[test]
    fn total_bytes_matches_schedule_wire_bytes_for_unicast_only() {
        // For a single-rank geometry there are no broadcasts, so packet
        // bytes equal schedule wire bytes exactly.
        let s = schedule(CollectiveKind::AllReduce, 64, 512);
        let packets = packets_from_schedule(&s);
        assert_eq!(total_bytes(&packets), s.total_wire_bytes().as_u64());
    }
}
