//! Physical resources of the PIMnet fabric and routing helpers.
//!
//! Every contention domain in the network is named by a [`Resource`]:
//! a ring segment in one direction, a chip's DQ send/receive channel, or the
//! shared inter-rank bus. Transfers in a [`crate::schedule::CommSchedule`]
//! carry the list of resources they occupy, which is what lets the validator
//! prove contention-freedom and the timing model compute exact occupancy —
//! *without* any dynamic routing, exactly as in the bufferless,
//! arbitration-free hardware.
//!
//! Each geometry's resources have dense slots ([`Resource::slot`]):
//! `chips x (2·banks + 2) + channels` of them, laid out in `Resource`'s
//! derived `Ord` order — ring segments by channel, rank, chip, bank and
//! direction, then every chip's Tx, every chip's Rx, then the rank buses.
//! [`Occupancy`] is the one per-resource table over those slots; timing,
//! timelines, boost facts and repair tally through it, and the
//! structural pass keys its `P009` usage list by [`SlotIndex`]. Because
//! slot order is resource order, walking slots in order reproduces every
//! resource-ordered choice (boost's busiest-resource tie-break, `P009`'s
//! emission order) exactly. A resource outside the geometry (structural
//! error `P011`) has no dense slot; the index gives it an overflow slot
//! past the dense range, so it stays its own contention domain.

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

    /// Number of dense slots of `g`'s fabric: every chip's `2 x banks`
    /// ring segments, Tx and Rx channels, plus one rank bus per channel.
    #[must_use]
    pub fn slots(g: &PimGeometry) -> u32 {
        g.total_chips() * (2 * g.banks_per_chip + 2) + g.channels
    }

    /// This resource's dense slot in `0..Resource::slots(g)`, or `None`
    /// when it names a channel, rank, chip or bank outside `g`.
    ///
    /// Slots follow the derived `Ord`: ring segments by channel, rank,
    /// chip, bank and direction, then every chip's Tx, every chip's Rx,
    /// and the rank buses. Sorting by slot therefore sorts by resource.
    #[must_use]
    pub fn slot(&self, g: &PimGeometry) -> Option<u32> {
        let chips = g.total_chips();
        let ring = chips * 2 * g.banks_per_chip;
        match *self {
            Resource::RingSegment {
                chip,
                from_bank,
                dir,
            } => {
                let c = chip_index(g, chip)?;
                (from_bank < g.banks_per_chip)
                    .then(|| (c * g.banks_per_chip + from_bank) * 2 + dir as u32)
            }
            Resource::ChipTx { chip } => Some(ring + chip_index(g, chip)?),
            Resource::ChipRx { chip } => Some(ring + chips + chip_index(g, chip)?),
            Resource::RankBus { channel } => {
                (channel < g.channels).then_some(ring + 2 * chips + channel)
            }
        }
    }
}

/// Dense index of a chip of `g` (channel-major), or `None` outside `g`.
fn chip_index(g: &PimGeometry, c: ChipLoc) -> Option<u32> {
    (c.channel < g.channels && c.rank < g.ranks_per_channel && c.chip < g.chips_per_rank)
        .then(|| (c.channel * g.ranks_per_channel + c.rank) * g.chips_per_rank + c.chip)
}

/// The chip at dense index `c` of `g`; inverse of `chip_index`.
fn chip_at(g: &PimGeometry, c: u32) -> ChipLoc {
    ChipLoc {
        channel: c / (g.chips_per_rank * g.ranks_per_channel),
        rank: c / g.chips_per_rank % g.ranks_per_channel,
        chip: c % g.chips_per_rank,
    }
}

/// Slots of one geometry's resources: the dense [`Resource::slot`] for
/// every resource inside it, and an overflow slot past the dense range
/// for each distinct resource outside it, numbered in first-seen order.
#[derive(Debug, Clone)]
pub struct SlotIndex {
    geometry: PimGeometry,
    dense: u32,
    overflow: Vec<Resource>,
}

impl SlotIndex {
    /// An index over `g`'s slots, with no overflow yet.
    #[must_use]
    pub fn new(g: &PimGeometry) -> Self {
        SlotIndex {
            geometry: *g,
            dense: Resource::slots(g),
            overflow: Vec::new(),
        }
    }

    /// Slots handed out so far: the dense range plus any overflow.
    fn len(&self) -> usize {
        self.dense as usize + self.overflow.len()
    }

    /// The slot of `r`, adding an overflow slot for a resource outside
    /// the geometry the first time it is seen.
    pub fn slot(&mut self, r: &Resource) -> u32 {
        match r.slot(&self.geometry) {
            Some(s) => s,
            None => self.find_overflow(r).unwrap_or_else(|| {
                self.overflow.push(*r);
                self.dense + self.overflow.len() as u32 - 1
            }),
        }
    }

    /// The slot of `r` if it has one, without adding overflow.
    #[must_use]
    pub fn find(&self, r: &Resource) -> Option<u32> {
        r.slot(&self.geometry).or_else(|| self.find_overflow(r))
    }

    fn find_overflow(&self, r: &Resource) -> Option<u32> {
        let i = self.overflow.iter().position(|o| o == r)?;
        Some(self.dense + i as u32)
    }

    /// The resource at `slot`; inverse of [`SlotIndex::slot`].
    ///
    /// # Panics
    ///
    /// Panics if `slot` was never handed out.
    #[must_use]
    pub fn resource(&self, slot: u32) -> Resource {
        if slot >= self.dense {
            return self.overflow[(slot - self.dense) as usize];
        }
        let g = &self.geometry;
        let chips = g.total_chips();
        let ring = chips * 2 * g.banks_per_chip;
        if slot < ring {
            let (c, seg) = (slot / (2 * g.banks_per_chip), slot % (2 * g.banks_per_chip));
            Resource::RingSegment {
                chip: chip_at(g, c),
                from_bank: seg / 2,
                dir: if seg % 2 == 0 {
                    Direction::East
                } else {
                    Direction::West
                },
            }
        } else if slot < ring + chips {
            Resource::ChipTx {
                chip: chip_at(g, slot - ring),
            }
        } else if slot < ring + 2 * chips {
            Resource::ChipRx {
                chip: chip_at(g, slot - ring - chips),
            }
        } else {
            Resource::RankBus {
                channel: slot - ring - 2 * chips,
            }
        }
    }
}

/// A value per touched resource of one geometry: a dense array over its
/// [`SlotIndex`] with a touched list.
///
/// [`Occupancy::entry`] is O(1), and [`Occupancy::clear`] resets only
/// the slots touched since the last clear, so one table serves every
/// step of a schedule walk. Draining visits the touched resources in
/// slot order, which is resource order inside the geometry; overflow
/// resources come last, in first-seen order.
#[derive(Debug, Clone)]
pub struct Occupancy<T> {
    index: SlotIndex,
    values: Vec<Option<T>>,
    touched: Vec<u32>,
}

impl<T: Copy> Occupancy<T> {
    /// An empty table over `g`'s resources.
    #[must_use]
    pub fn new(g: &PimGeometry) -> Self {
        let index = SlotIndex::new(g);
        Occupancy {
            values: vec![None; index.len()],
            index,
            touched: Vec::new(),
        }
    }

    /// The value of `r`, if touched since the last clear.
    #[must_use]
    pub fn get(&self, r: &Resource) -> Option<T> {
        let s = self.index.find(r)? as usize;
        self.values.get(s).copied().flatten()
    }

    /// The value of `r`, set to `init` on its first touch since the
    /// last clear.
    pub fn entry(&mut self, r: &Resource, init: T) -> &mut T {
        let s = self.index.slot(r);
        if s as usize >= self.values.len() {
            self.values.resize(s as usize + 1, None);
        }
        let v = &mut self.values[s as usize];
        if v.is_none() {
            self.touched.push(s);
        }
        v.get_or_insert(init)
    }

    /// Sets the value of `r`.
    pub fn insert(&mut self, r: &Resource, value: T) {
        *self.entry(r, value) = value;
    }

    /// Forgets every touched value.
    pub fn clear(&mut self) {
        for s in self.touched.drain(..) {
            self.values[s as usize] = None;
        }
    }

    /// Every touched resource with its value, in slot order, leaving the
    /// table clear.
    pub fn drain_sorted(&mut self) -> impl Iterator<Item = (Resource, T)> + '_ {
        self.touched.sort_unstable();
        let Occupancy {
            index,
            values,
            touched,
        } = self;
        touched.drain(..).map(move |s| {
            let v = values[s as usize].take();
            (index.resource(s), v.expect("touched slots hold a value"))
        })
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

    /// The index's test geometries: the 8/64/256-DPU presets, the serving
    /// tenants' 128-DPU geometry and a 2-channel geometry.
    fn index_geometries() -> [PimGeometry; 5] {
        [
            PimGeometry::paper_scaled(8),
            PimGeometry::paper_scaled(64),
            PimGeometry::paper_scaled(256),
            PimGeometry::new(8, 8, 2, 1),
            PimGeometry::new(4, 2, 3, 2),
        ]
    }

    /// Every resource of `g`, chip by chip (not in `Resource` order).
    fn every_resource(g: &PimGeometry) -> Vec<Resource> {
        let mut all = Vec::new();
        for channel in 0..g.channels {
            for rank in 0..g.ranks_per_channel {
                for chip in 0..g.chips_per_rank {
                    let chip = ChipLoc {
                        channel,
                        rank,
                        chip,
                    };
                    all.push(Resource::ChipRx { chip });
                    for from_bank in 0..g.banks_per_chip {
                        for dir in [Direction::West, Direction::East] {
                            all.push(Resource::RingSegment {
                                chip,
                                from_bank,
                                dir,
                            });
                        }
                    }
                    all.push(Resource::ChipTx { chip });
                }
            }
            all.push(Resource::RankBus { channel });
        }
        all
    }

    #[test]
    fn slot_is_a_bijection_onto_the_dense_range() {
        assert_eq!(Resource::slots(&PimGeometry::new(8, 8, 2, 1)), 289);
        assert_eq!(Resource::slots(&PimGeometry::paper_scaled(256)), 577);
        for g in index_geometries() {
            let all = every_resource(&g);
            let index = SlotIndex::new(&g);
            let mut slots: Vec<u32> = all.iter().map(|r| r.slot(&g).unwrap()).collect();
            slots.sort_unstable();
            assert_eq!(slots, (0..Resource::slots(&g)).collect::<Vec<_>>(), "{g}");
            assert_eq!(index.len(), all.len(), "{g}");
            for r in &all {
                assert_eq!(index.resource(r.slot(&g).unwrap()), *r, "{g}");
            }
        }
    }

    #[test]
    fn slot_order_is_resource_order() {
        for g in index_geometries() {
            let mut by_resource = every_resource(&g);
            let mut by_slot = by_resource.clone();
            by_resource.sort_unstable();
            by_slot.sort_unstable_by_key(|r| r.slot(&g));
            assert_eq!(by_slot, by_resource, "{g}");
        }
    }

    #[test]
    fn out_of_range_coordinates_have_no_slot() {
        for g in index_geometries() {
            let inside = ChipLoc {
                channel: g.channels - 1,
                rank: g.ranks_per_channel - 1,
                chip: g.chips_per_rank - 1,
            };
            let outside = [
                ChipLoc {
                    channel: g.channels,
                    ..inside
                },
                ChipLoc {
                    rank: g.ranks_per_channel,
                    ..inside
                },
                ChipLoc {
                    chip: g.chips_per_rank,
                    ..inside
                },
            ];
            for chip in outside {
                for r in [
                    Resource::RingSegment {
                        chip,
                        from_bank: 0,
                        dir: Direction::East,
                    },
                    Resource::ChipTx { chip },
                    Resource::ChipRx { chip },
                ] {
                    assert_eq!(r.slot(&g), None, "{g}: {r}");
                }
            }
            let bank = Resource::RingSegment {
                chip: inside,
                from_bank: g.banks_per_chip,
                dir: Direction::West,
            };
            assert_eq!(bank.slot(&g), None, "{g}: {bank}");
            let bus = Resource::RankBus {
                channel: g.channels,
            };
            assert_eq!(bus.slot(&g), None, "{g}: {bus}");
        }
    }

    #[test]
    fn occupancy_keeps_outside_resources_apart_and_drains_in_order() {
        let g = PimGeometry::paper_scaled(64);
        let chip = ChipLoc {
            channel: 0,
            rank: 0,
            chip: 1,
        };
        let seg = |from_bank| Resource::RingSegment {
            chip,
            from_bank,
            dir: Direction::East,
        };
        // Bank 8 is one past the ring: it must alias neither chip 2's
        // bank 0 nor any other outside segment.
        let touched = [
            Resource::RankBus { channel: 0 },
            seg(99),
            seg(8),
            Resource::ChipTx { chip },
            seg(3),
            seg(8),
        ];
        let mut occ: Occupancy<u32> = Occupancy::new(&g);
        for r in &touched {
            *occ.entry(r, 0) += 1;
        }
        assert_eq!(occ.get(&seg(8)), Some(2));
        assert_eq!(occ.get(&seg(99)), Some(1));
        assert_eq!(occ.get(&seg(4)), None);
        let drained: Vec<_> = occ.drain_sorted().collect();
        assert_eq!(
            drained,
            [
                (seg(3), 1),
                (Resource::ChipTx { chip }, 1),
                (Resource::RankBus { channel: 0 }, 1),
                (seg(99), 1),
                (seg(8), 2),
            ]
        );
        assert_eq!(occ.get(&seg(3)), None);
        assert_eq!(occ.drain_sorted().count(), 0);
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
