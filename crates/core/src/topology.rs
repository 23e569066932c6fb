//! Physical resources of the PIMnet fabric and routing helpers.
//!
//! Every contention domain in the network is named by a [`Resource`]:
//! a ring segment in one direction, a chip's DQ send/receive channel, or the
//! shared inter-rank bus. Transfers in a [`crate::schedule::CommSchedule`]
//! carry the list of resources they occupy, which is what lets the validator
//! prove contention-freedom and the timing model compute exact occupancy —
//! *without* any dynamic routing, exactly as in the bufferless,
//! arbitration-free hardware.

use std::fmt;

use pim_sim::Bandwidth;

use pim_arch::geometry::{DpuCoord, DpuId, PimGeometry};

use crate::fabric::FabricConfig;

/// Direction of travel on an inter-bank ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Direction {
    /// Towards increasing bank index (wrapping).
    East,
    /// Towards decreasing bank index (wrapping).
    West,
}

impl Direction {
    /// The opposite direction.
    #[must_use]
    pub fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }

    /// The neighbouring bank index in this direction on a `b`-bank ring.
    #[must_use]
    pub fn next(self, bank: u32, banks: u32) -> u32 {
        match self {
            Direction::East => (bank + 1) % banks,
            Direction::West => (bank + banks - 1) % banks,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::East => f.write_str("E"),
            Direction::West => f.write_str("W"),
        }
    }
}

/// Location of a DRAM chip within the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChipLoc {
    /// Memory channel index.
    pub channel: u32,
    /// Rank within the channel.
    pub rank: u32,
    /// Chip within the rank.
    pub chip: u32,
}

impl ChipLoc {
    /// The chip hosting a given DPU.
    #[must_use]
    pub fn of(coord: DpuCoord) -> Self {
        ChipLoc {
            channel: coord.channel,
            rank: coord.rank,
            chip: coord.chip,
        }
    }
}

impl fmt::Display for ChipLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}/r{}/c{}", self.channel, self.rank, self.chip)
    }
}

/// One contention domain of the PIMnet fabric.
///
/// A schedule transfer lists every resource it occupies for its duration
/// (PIMnet stops are bufferless, so a multi-hop ring transfer holds all its
/// segments cut-through).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// The ring segment leaving bank `from_bank` of chip `chip` in
    /// direction `dir` (a 16-bit slice of the bank-group I/O bus).
    RingSegment {
        /// The chip whose internal ring this segment belongs to.
        chip: ChipLoc,
        /// The bank the segment leaves from.
        from_bank: u32,
        /// Direction of this (unidirectional) segment.
        dir: Direction,
    },
    /// A chip's DQ send channel towards the buffer-chip crossbar.
    ChipTx {
        /// The sending chip.
        chip: ChipLoc,
    },
    /// A chip's DQ receive channel from the buffer-chip crossbar.
    ChipRx {
        /// The receiving chip.
        chip: ChipLoc,
    },
    /// The half-duplex multi-drop DDR bus shared by all ranks of a channel.
    RankBus {
        /// The memory channel whose bus this is.
        channel: u32,
    },
}

impl Resource {
    /// Bandwidth of this resource under a fabric configuration.
    #[must_use]
    pub fn bandwidth(&self, fabric: &FabricConfig) -> Bandwidth {
        match self {
            Resource::RingSegment { .. } => fabric.ring_segment_bw(),
            Resource::ChipTx { .. } | Resource::ChipRx { .. } => fabric.chip_channel_bw,
            Resource::RankBus { .. } => fabric.rank_bus_bw,
        }
    }

    /// True for resources that may carry only one flow per step outside a
    /// WAIT-multiplexed phase: the bufferless ring segments and the chip
    /// DQ channels. Only a multiplexed phase time-slots these
    /// deterministically (paper §IV-C); the rank bus is broadcast and
    /// WAIT-slotted everywhere. The structural pass (`P009`) and schedule
    /// repair both use this one predicate.
    #[must_use]
    pub fn requires_exclusive_step(&self) -> bool {
        matches!(
            self,
            Resource::RingSegment { .. } | Resource::ChipTx { .. } | Resource::ChipRx { .. }
        )
    }

    /// Stable fabric-tier index of this resource for per-tier metrics
    /// arrays (matching `PhaseLabel::tier_index`): ring segments are
    /// inter-bank, DQ channels inter-chip, the rank bus inter-rank.
    #[must_use]
    pub const fn tier_index(&self) -> usize {
        match self {
            Resource::RingSegment { .. } => 1,
            Resource::ChipTx { .. } | Resource::ChipRx { .. } => 2,
            Resource::RankBus { .. } => 3,
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::RingSegment {
                chip,
                from_bank,
                dir,
            } => write!(f, "ring[{chip}/b{from_bank}/{dir}]"),
            Resource::ChipTx { chip } => write!(f, "tx[{chip}]"),
            Resource::ChipRx { chip } => write!(f, "rx[{chip}]"),
            Resource::RankBus { channel } => write!(f, "bus[ch{channel}]"),
        }
    }
}

/// Ring path between two banks of the same chip, in the given direction.
/// Returns the list of [`Resource::RingSegment`]s traversed (empty when
/// `src == dst`).
///
/// # Panics
///
/// Panics if the two DPUs are not on the same chip.
#[must_use]
pub fn ring_path(geometry: &PimGeometry, src: DpuId, dst: DpuId, dir: Direction) -> Vec<Resource> {
    let (a, b) = (geometry.coord(src), geometry.coord(dst));
    assert!(
        geometry.same_chip(src, dst),
        "ring_path: {src} and {dst} are not on the same chip"
    );
    let banks = geometry.banks_per_chip;
    let chip = ChipLoc::of(a);
    let mut path = Vec::new();
    let mut cur = a.bank;
    while cur != b.bank {
        path.push(Resource::RingSegment {
            chip,
            from_bank: cur,
            dir,
        });
        cur = dir.next(cur, banks);
        assert!(
            path.len() <= banks as usize,
            "ring_path: failed to reach destination (corrupt geometry?)"
        );
    }
    path
}

/// Number of hops from `src` to `dst` around a `banks`-ring in `dir`.
#[must_use]
pub fn ring_distance(banks: u32, src_bank: u32, dst_bank: u32, dir: Direction) -> u32 {
    match dir {
        Direction::East => (dst_bank + banks - src_bank) % banks,
        Direction::West => (src_bank + banks - dst_bank) % banks,
    }
}

/// The direction with the shorter ring path (ties broken East).
#[must_use]
pub fn shorter_direction(banks: u32, src_bank: u32, dst_bank: u32) -> Direction {
    let east = ring_distance(banks, src_bank, dst_bank, Direction::East);
    let west = ring_distance(banks, src_bank, dst_bank, Direction::West);
    if east <= west {
        Direction::East
    } else {
        Direction::West
    }
}

/// Path between two banks on *different chips of the same rank*: the source
/// chip's DQ send channel, through the (non-blocking) crossbar, into the
/// destination chip's DQ receive channel.
///
/// # Panics
///
/// Panics if the DPUs share a chip or do not share a rank.
#[must_use]
pub fn chip_path(geometry: &PimGeometry, src: DpuId, dst: DpuId) -> Vec<Resource> {
    let (a, b) = (geometry.coord(src), geometry.coord(dst));
    assert!(
        geometry.same_rank(src, dst) && !geometry.same_chip(src, dst),
        "chip_path: {src} -> {dst} is not an inter-chip (same-rank) pair"
    );
    vec![
        Resource::ChipTx {
            chip: ChipLoc::of(a),
        },
        Resource::ChipRx {
            chip: ChipLoc::of(b),
        },
    ]
}

/// Path for a transfer that crosses ranks (possibly to several destination
/// banks at once — the bus is a broadcast medium): source chip's DQ send
/// channel, the shared rank bus, and every destination chip's DQ receive
/// channel.
///
/// # Panics
///
/// Panics if any destination shares a rank with the source or sits on a
/// different memory channel.
#[must_use]
pub fn rank_path(geometry: &PimGeometry, src: DpuId, dsts: &[DpuId]) -> Vec<Resource> {
    let a = geometry.coord(src);
    let mut path = vec![
        Resource::ChipTx {
            chip: ChipLoc::of(a),
        },
        Resource::RankBus { channel: a.channel },
    ];
    for &dst in dsts {
        let b = geometry.coord(dst);
        assert!(
            b.channel == a.channel && b.rank != a.rank,
            "rank_path: {src} -> {dst} is not an inter-rank (same-channel) pair"
        );
        path.push(Resource::ChipRx {
            chip: ChipLoc::of(b),
        });
    }
    path
}

/// Renders the PIMnet fabric of a geometry as a Graphviz DOT graph
/// (banks, rings, DQ channels, crossbars, the bus) — handy for docs and
/// for eyeballing unusual geometries.
#[must_use]
pub fn to_dot(geometry: &PimGeometry, fabric: &FabricConfig) -> String {
    let mut out = String::from("digraph pimnet {\n  rankdir=LR;\n  node [shape=box];\n");
    for ch in 0..geometry.channels {
        out.push_str(&format!(
            "  bus_{ch} [label=\"DDR bus ch{ch}\\n{}\" shape=oval];\n",
            fabric.rank_bus_bw
        ));
        for r in 0..geometry.ranks_per_channel {
            out.push_str(&format!(
                "  xbar_{ch}_{r} [label=\"buffer-chip crossbar r{r}\" shape=diamond];\n\
                 \x20 bus_{ch} -> xbar_{ch}_{r} [dir=both];\n"
            ));
            for c in 0..geometry.chips_per_rank {
                let chip = format!("chip_{ch}_{r}_{c}");
                out.push_str(&format!(
                    "  {chip} [label=\"chip {c}\\n{} banks\"];\n\
                     \x20 {chip} -> xbar_{ch}_{r} [label=\"{}\" dir=both];\n",
                    geometry.banks_per_chip, fabric.chip_channel_bw
                ));
                // The intra-chip ring, one edge per eastbound segment.
                for b in 0..geometry.banks_per_chip {
                    let next = (b + 1) % geometry.banks_per_chip;
                    out.push_str(&format!(
                        "  b_{ch}_{r}_{c}_{b} [label=\"DPU b{b}\" shape=circle];\n\
                         \x20 b_{ch}_{r}_{c}_{b} -> b_{ch}_{r}_{c}_{next} [dir=both];\n"
                    ));
                }
                out.push_str(&format!("  b_{ch}_{r}_{c}_0 -> {chip} [style=dotted];\n"));
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> PimGeometry {
        PimGeometry::paper()
    }

    #[test]
    fn dot_export_names_every_component() {
        let dot = to_dot(&PimGeometry::paper_scaled(64), &FabricConfig::paper());
        assert!(dot.starts_with("digraph pimnet {"));
        assert!(dot.ends_with("}\n"));
        // 8 chips x 8 banks of circles, one crossbar, no bus link needed
        // but the bus node exists per channel.
        assert_eq!(dot.matches("shape=circle").count(), 64);
        assert_eq!(dot.matches("shape=diamond").count(), 1);
        assert_eq!(dot.matches("shape=oval").count(), 1);
    }

    #[test]
    fn direction_next_wraps() {
        assert_eq!(Direction::East.next(7, 8), 0);
        assert_eq!(Direction::West.next(0, 8), 7);
        assert_eq!(Direction::East.opposite(), Direction::West);
    }

    #[test]
    fn ring_path_adjacent_is_one_segment() {
        let p = ring_path(&g(), DpuId(0), DpuId(1), Direction::East);
        assert_eq!(p.len(), 1);
        match p[0] {
            Resource::RingSegment { from_bank, dir, .. } => {
                assert_eq!(from_bank, 0);
                assert_eq!(dir, Direction::East);
            }
            other => panic!("unexpected resource {other}"),
        }
    }

    #[test]
    fn ring_path_wraps_west() {
        // bank 1 -> bank 6 going West: 1 -> 0 -> 7 -> 6 (3 segments).
        let p = ring_path(&g(), DpuId(1), DpuId(6), Direction::West);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn ring_path_to_self_is_empty() {
        assert!(ring_path(&g(), DpuId(3), DpuId(3), Direction::East).is_empty());
    }

    #[test]
    fn ring_distance_and_shorter_direction() {
        assert_eq!(ring_distance(8, 0, 3, Direction::East), 3);
        assert_eq!(ring_distance(8, 0, 3, Direction::West), 5);
        assert_eq!(shorter_direction(8, 0, 3), Direction::East);
        assert_eq!(shorter_direction(8, 0, 5), Direction::West);
        // Exactly opposite: tie broken East.
        assert_eq!(shorter_direction(8, 0, 4), Direction::East);
    }

    #[test]
    fn chip_path_names_both_channels() {
        // DPU 0 (chip 0) -> DPU 8 (chip 1), same rank.
        let p = chip_path(&g(), DpuId(0), DpuId(8));
        assert_eq!(p.len(), 2);
        assert!(matches!(p[0], Resource::ChipTx { chip } if chip.chip == 0));
        assert!(matches!(p[1], Resource::ChipRx { chip } if chip.chip == 1));
    }

    #[test]
    #[should_panic(expected = "not an inter-chip")]
    fn chip_path_rejects_same_chip() {
        let _ = chip_path(&g(), DpuId(0), DpuId(1));
    }

    #[test]
    fn rank_path_broadcast_lists_every_receiver() {
        // DPU 0 (rank 0) broadcasting to the same (chip 0, bank 0) position
        // of ranks 1..3: DPUs 64, 128, 192.
        let p = rank_path(&g(), DpuId(0), &[DpuId(64), DpuId(128), DpuId(192)]);
        assert_eq!(p.len(), 5); // tx + bus + 3 rx
        assert!(matches!(p[1], Resource::RankBus { channel: 0 }));
    }

    #[test]
    fn resource_bandwidths_follow_fabric() {
        let f = FabricConfig::paper();
        let seg = Resource::RingSegment {
            chip: ChipLoc {
                channel: 0,
                rank: 0,
                chip: 0,
            },
            from_bank: 0,
            dir: Direction::East,
        };
        assert_eq!(seg.bandwidth(&f).as_gbps(), 0.7);
        assert!(seg.requires_exclusive_step());
        let chip = ChipLoc {
            channel: 0,
            rank: 0,
            chip: 0,
        };
        assert!(Resource::ChipTx { chip }.requires_exclusive_step());
        assert!(Resource::ChipRx { chip }.requires_exclusive_step());
        let bus = Resource::RankBus { channel: 0 };
        assert_eq!(bus.bandwidth(&f).as_gbps(), 16.8);
        assert!(!bus.requires_exclusive_step());
    }

    #[test]
    fn resource_display() {
        let r = Resource::ChipTx {
            chip: ChipLoc {
                channel: 0,
                rank: 2,
                chip: 5,
            },
        };
        assert_eq!(r.to_string(), "tx[ch0/r2/c5]");
    }
}
