//! Synthetic traffic patterns over the PIMnet topology — the classic NoC
//! evaluation workloads (uniform random, bit-complement, hotspot,
//! neighbour), expressed as packet lists for the credit-based simulator.
//!
//! These are not part of the paper's evaluation (PIMnet never routes
//! dynamic traffic), but they characterize the *dynamic* network the paper
//! compares against, and they stress the simulator far harder than
//! collective traffic does.

use pim_sim::rng::SimRng;

use pim_arch::geometry::{DpuId, PimGeometry};
use pimnet::topology::{chip_path, rank_path, ring_path, shorter_direction};

use crate::packet::Packet;

/// A synthetic destination pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    /// Every packet's destination drawn uniformly at random.
    UniformRandom,
    /// Destination = bitwise complement of the source (worst-case distance).
    BitComplement,
    /// A fraction of traffic converges on node 0, the rest uniform.
    Hotspot,
    /// Destination = next bank on the same chip's ring.
    Neighbor,
}

impl Pattern {
    /// All patterns, for sweeps.
    pub const ALL: [Pattern; 4] = [
        Pattern::UniformRandom,
        Pattern::BitComplement,
        Pattern::Hotspot,
        Pattern::Neighbor,
    ];

    fn destination(self, src: u32, total: u32, geometry: &PimGeometry, rng: &mut SimRng) -> u32 {
        match self {
            Pattern::UniformRandom => {
                let mut d = rng.gen_range(0..total - 1);
                if d >= src {
                    d += 1;
                }
                d
            }
            Pattern::BitComplement => (!src) & (total - 1),
            Pattern::Hotspot => {
                if src != 0 && rng.gen_bool(0.3) {
                    0
                } else {
                    let mut d = rng.gen_range(0..total - 1);
                    if d >= src {
                        d += 1;
                    }
                    d
                }
            }
            Pattern::Neighbor => {
                let c = geometry.coord(DpuId(src));
                geometry
                    .id(pim_arch::geometry::DpuCoord {
                        bank: (c.bank + 1) % geometry.banks_per_chip,
                        ..c
                    })
                    .0
            }
        }
    }
}

/// Generates `packets_per_node` independent packets per DPU under a
/// pattern (dependency-free: every packet may inject immediately).
///
/// # Panics
///
/// Panics for geometries with non-power-of-two node counts (needed by
/// [`Pattern::BitComplement`]) or fewer than two DPUs.
#[must_use]
pub fn synthetic_packets(
    geometry: &PimGeometry,
    pattern: Pattern,
    packets_per_node: usize,
    bytes: u64,
    seed: u64,
) -> Vec<Packet> {
    let total = geometry.total_dpus();
    assert!(
        total.is_power_of_two() && total >= 2,
        "synthetic traffic needs a power-of-two node count >= 2"
    );
    let mut rng = SimRng::seed_from_u64(seed);
    let mut packets = Vec::with_capacity(total as usize * packets_per_node);
    for round in 0..packets_per_node {
        for src in 0..total {
            let mut dst = pattern.destination(src, total, geometry, &mut rng);
            if dst == src {
                dst = (src + 1) % total; // bit-complement self-pair guard
            }
            let (s, d) = (DpuId(src), DpuId(dst));
            let path = if geometry.same_chip(s, d) {
                let (a, b) = (geometry.coord(s).bank, geometry.coord(d).bank);
                ring_path(
                    geometry,
                    s,
                    d,
                    shorter_direction(geometry.banks_per_chip, a, b),
                )
            } else if geometry.same_rank(s, d) {
                chip_path(geometry, s, d)
            } else {
                rank_path(geometry, s, &[d])
            };
            packets.push(Packet {
                id: packets.len(),
                src: s,
                dst: d,
                bytes,
                path,
                stage: (0, round),
                deps: Vec::new(),
            });
        }
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::credit::simulate_credit_packets;
    use pim_sim::{Probe, SimTime};

    fn run(pattern: Pattern, n: u32) -> crate::report::NocReport {
        let g = PimGeometry::paper_scaled(n);
        let packets = synthetic_packets(&g, pattern, 4, 256, 99);
        let ready = vec![SimTime::ZERO; n as usize];
        simulate_credit_packets(&packets, &ready, &NocConfig::paper(), Probe::disabled()).unwrap()
    }

    #[test]
    fn every_pattern_completes() {
        for pattern in Pattern::ALL {
            let r = run(pattern, 64);
            assert_eq!(r.packets, 64 * 4, "{pattern:?}");
            assert!(r.cycles > 0);
        }
    }

    #[test]
    fn neighbor_traffic_is_the_cheapest() {
        // One-hop ring traffic should finish far faster than worst-case
        // bit-complement (which crosses chips and ranks).
        let neighbor = run(Pattern::Neighbor, 256);
        let complement = run(Pattern::BitComplement, 256);
        assert!(
            neighbor.completion * 3 < complement.completion,
            "neighbor {} vs bit-complement {}",
            neighbor.completion,
            complement.completion
        );
    }

    #[test]
    fn hotspot_saturates_one_destination() {
        let uniform = run(Pattern::UniformRandom, 64);
        let hotspot = run(Pattern::Hotspot, 64);
        assert!(
            hotspot.completion > uniform.completion,
            "hotspot {} should congest worse than uniform {}",
            hotspot.completion,
            uniform.completion
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let g = PimGeometry::paper_scaled(32);
        let a = synthetic_packets(&g, Pattern::UniformRandom, 2, 64, 5);
        let b = synthetic_packets(&g, Pattern::UniformRandom, 2, 64, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn destinations_are_never_the_source() {
        let g = PimGeometry::paper_scaled(128);
        for pattern in Pattern::ALL {
            for p in synthetic_packets(&g, pattern, 3, 64, 17) {
                assert_ne!(p.src, p.dst, "{pattern:?}");
            }
        }
    }
}
