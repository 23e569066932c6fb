//! Per-tier collective algorithm library and hierarchical composition —
//! the one builder family behind every ReduceScatter, AllGather,
//! AllReduce, Broadcast and All-to-All schedule, the paper's included.
//!
//! Real communication stacks compose an algorithm *per topology
//! dimension* and pick the winner per (geometry, payload) — ASTRA-sim's
//! `ring_doubleBinaryTree` spellings are the exemplar. This module has
//! four per-tier builders —
//!
//! * [`TierAlgo::Ring`] — the paper's logical ring (k-1 steps, exclusive
//!   adjacent hops),
//! * [`TierAlgo::Direct`] — fully-connected exchange (1 step, every pair
//!   at once, WAIT-multiplexed),
//! * [`TierAlgo::DoubleBinaryTree`] — two complementary binomial trees,
//!   each carrying one half of the payload (reduce up, broadcast down),
//! * [`TierAlgo::Rabenseifner`] — reduce-scatter by recursive halving +
//!   allgather by recursive doubling (power-of-two groups),
//!
//! and a [`Composition`] that assigns one algorithm per dimension
//! (bank / chip / rank) and splices the per-tier phases into one valid
//! hierarchical [`CommSchedule`]. Composed schedules are ordinary
//! schedules: the SoA layout, executor, timeline, boost planner and all
//! four analysis passes consume them unchanged.
//!
//! The paper's Table V is a point in this space ([`Composition::paper`]):
//! ring inter-bank and inter-chip with the bus inter-rank for
//! ReduceScatter, AllGather and AllReduce, `direct_ring_direct` for
//! Broadcast and the pairwise `direct_direct_direct` exchange for
//! All-to-All. Two Table V tier behaviours have no spelling in the spec
//! grammar, so only [`Composition::paper`] and
//! [`Composition::paper_allreduce`] switch them on:
//!
//! * **two bank lanes** — the bank tier splits its payload into two
//!   halves on counter-rotating East/West rings (all four Table IV bank
//!   channels), and the halves stay separate through every later tier;
//! * **bus slots** — every source rank sends in its own inter-rank step
//!   (ReduceScatter: unicast quarters to their owners; AllGather: one
//!   broadcast per source); AllReduce's broadcast-reduce reads only
//!   pre-phase partials, so its slots fuse into one snapshot step,
//!   source-major.
//!
//! Not every algorithm applies to every collective: double binary tree
//! does not scatter (its result would not partition the vector), so it
//! is an AllReduce/Broadcast device; Rabenseifner needs power-of-two
//! group sizes; All-to-All is inherently a direct exchange.
//! [`Composition::applies_to`] encodes the matrix and
//! [`build_composed`] returns a typed error for anything else.

use std::fmt;

use pim_arch::geometry::{DpuCoord, DpuId, PimGeometry};

use crate::collective::CollectiveKind;
use crate::error::PimnetError;
use crate::topology::{chip_path, rank_path, ring_path, shorter_direction, Direction, Resource};

use super::{CommSchedule, CommStep, Phase, PhaseLabel, Span, Transfer};

/// One per-tier collective algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TierAlgo {
    /// Logical ring: `k-1` steps of adjacent exchange (Table V's choice).
    Ring,
    /// Fully-connected exchange: one step, every pair simultaneously,
    /// deterministically time-multiplexed on shared resources.
    Direct,
    /// Two complementary binomial trees, each carrying one half of the
    /// payload: reduce up both trees, then broadcast back down.
    DoubleBinaryTree,
    /// Reduce-scatter by recursive halving, allgather by recursive
    /// doubling; requires a power-of-two group.
    Rabenseifner,
}

impl TierAlgo {
    /// Every algorithm, in the tuner's deterministic sweep order.
    pub const ALL: [TierAlgo; 4] = [
        TierAlgo::Ring,
        TierAlgo::Direct,
        TierAlgo::DoubleBinaryTree,
        TierAlgo::Rabenseifner,
    ];

    /// The spec token (`ring`, `direct`, `dbtree`, `rabenseifner`).
    #[must_use]
    pub const fn token(self) -> &'static str {
        match self {
            TierAlgo::Ring => "ring",
            TierAlgo::Direct => "direct",
            TierAlgo::DoubleBinaryTree => "dbtree",
            TierAlgo::Rabenseifner => "rabenseifner",
        }
    }

    /// Parses one spec token.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized token.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "ring" => Ok(TierAlgo::Ring),
            "direct" => Ok(TierAlgo::Direct),
            "dbtree" => Ok(TierAlgo::DoubleBinaryTree),
            "rabenseifner" => Ok(TierAlgo::Rabenseifner),
            other => Err(format!(
                "unknown tier algorithm '{other}' (expected ring|direct|dbtree|rabenseifner)"
            )),
        }
    }
}

impl fmt::Display for TierAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// Table V's inter-rank bus slots: every source rank sends in its own
/// step. Off for every parsed or tuned composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(super) enum BusSlots {
    /// The rank algorithm as spelled.
    Off,
    /// AllReduce broadcasts every partial and each twin reduces in place;
    /// the slots fuse into one snapshot step, source-major.
    Broadcast,
    /// AllReduce unicasts each quarter to its owner, one slot per source,
    /// then broadcasts the reduced quarters in one fused step (the
    /// scatter+AllGather ablation, which pays the bus twice).
    Scatter,
}

/// One algorithm per hierarchy dimension, spelled `bank_chip_rank`
/// (e.g. `ring_direct_dbtree`), plus the two Table V tier behaviours the
/// spelling leaves out (see [`Composition::paper`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Composition {
    /// Inter-bank (intra-chip ring) tier algorithm.
    pub bank: TierAlgo,
    /// Inter-chip (crossbar) tier algorithm.
    pub chip: TierAlgo,
    /// Inter-rank (bus) tier algorithm.
    pub rank: TierAlgo,
    /// Table V's two bank lanes: the payload halved onto counter-rotating
    /// East/West rings, the halves kept apart through every later tier.
    pub(super) bidirectional_ring: bool,
    /// Table V's inter-rank bus slots.
    pub(super) bus: BusSlots,
}

impl Composition {
    /// The all-ring composition, as spelled by `ring_ring_ring`.
    pub const RING: Composition = Composition {
        bank: TierAlgo::Ring,
        chip: TierAlgo::Ring,
        rank: TierAlgo::Ring,
        bidirectional_ring: false,
        bus: BusSlots::Off,
    };

    /// The paper's Table V schedule for `kind`, or `None` for Reduce and
    /// Gather (not in Table V; they have no composed form):
    ///
    /// | kind | bank | chip | rank |
    /// |------|------|------|------|
    /// | ReduceScatter, AllGather, AllReduce | ring, two lanes | ring | direct, bus slots |
    /// | Broadcast | direct | ring | direct |
    /// | All-to-All | direct | direct | direct |
    ///
    /// [`spec`](Self::spec) spells only the tier algorithms, so the
    /// paper's AllReduce renders as `ring_ring_direct` while parsing that
    /// spec gives the composition without lanes or slots.
    #[must_use]
    pub const fn paper(kind: CollectiveKind) -> Option<Composition> {
        use TierAlgo::{Direct, Ring};
        match kind {
            CollectiveKind::ReduceScatter
            | CollectiveKind::AllGather
            | CollectiveKind::AllReduce => Some(Composition::paper_allreduce(true, true)),
            CollectiveKind::Broadcast => Some(Composition {
                bank: Direct,
                chip: Ring,
                rank: Direct,
                ..Composition::RING
            }),
            CollectiveKind::AllToAll => Some(Composition {
                bank: Direct,
                chip: Direct,
                rank: Direct,
                ..Composition::RING
            }),
            CollectiveKind::Reduce | CollectiveKind::Gather => None,
        }
    }

    /// The paper's AllReduce composition with its two design choices
    /// switched one by one (the `ablation_allreduce` study):
    /// `bidirectional_ring: false` keeps one East ring lane, half the
    /// bank-tier bandwidth; `rank_broadcast: false` reduces across ranks by
    /// unicasting quarters to their owners and broadcasting the reduced
    /// quarters back, which costs more bus time than one broadcast pass.
    #[must_use]
    pub const fn paper_allreduce(bidirectional_ring: bool, rank_broadcast: bool) -> Composition {
        Composition {
            bank: TierAlgo::Ring,
            chip: TierAlgo::Ring,
            rank: TierAlgo::Direct,
            bidirectional_ring,
            bus: if rank_broadcast {
                BusSlots::Broadcast
            } else {
                BusSlots::Scatter
            },
        }
    }

    /// Parses a `bank_chip_rank` spec, e.g. `ring_direct_rabenseifner`.
    ///
    /// # Errors
    ///
    /// Describes the malformed spec or the unknown token.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let parts: Vec<&str> = spec.split('_').collect();
        if parts.len() != 3 {
            return Err(format!(
                "composition spec '{spec}' must have exactly three '_'-separated \
                 tokens (bank_chip_rank), e.g. ring_direct_dbtree"
            ));
        }
        Ok(Composition {
            bank: TierAlgo::parse(parts[0])?,
            chip: TierAlgo::parse(parts[1])?,
            rank: TierAlgo::parse(parts[2])?,
            ..Composition::RING
        })
    }

    /// The canonical spec string (`bank_chip_rank` tokens).
    #[must_use]
    pub fn spec(&self) -> String {
        format!("{}_{}_{}", self.bank, self.chip, self.rank)
    }

    /// The per-tier algorithms in tier order (bank, chip, rank).
    #[must_use]
    pub const fn tiers(&self) -> [TierAlgo; 3] {
        [self.bank, self.chip, self.rank]
    }

    /// True when every tier algorithm applies to `kind` (ignoring
    /// geometry constraints such as Rabenseifner's power-of-two rule,
    /// which [`build_composed`] checks against the concrete geometry).
    ///
    /// | kind | bank | chip | rank |
    /// |------|------|------|------|
    /// | AllReduce | all four | all four | all four |
    /// | ReduceScatter | ring, direct, rabenseifner | same | same |
    /// | AllGather | ring, direct, rabenseifner | same | ring, direct, rabenseifner |
    /// | Broadcast | ring, direct, dbtree | ring, direct, rabenseifner | ring, direct |
    /// | AllToAll | direct | direct | direct |
    /// | Reduce / Gather | — (no composed form) |
    #[must_use]
    pub fn applies_to(&self, kind: CollectiveKind) -> bool {
        use TierAlgo::{DoubleBinaryTree, Rabenseifner};
        let scatters = |a: TierAlgo| a != DoubleBinaryTree;
        match kind {
            CollectiveKind::AllReduce => true,
            CollectiveKind::ReduceScatter => self.tiers().into_iter().all(scatters),
            CollectiveKind::AllGather => self.tiers().into_iter().all(scatters),
            CollectiveKind::Broadcast => {
                self.bank != Rabenseifner
                    && scatters(self.chip)
                    && matches!(self.rank, TierAlgo::Ring | TierAlgo::Direct)
            }
            CollectiveKind::AllToAll => self.tiers().into_iter().all(|a| a == TierAlgo::Direct),
            CollectiveKind::Reduce | CollectiveKind::Gather => false,
        }
    }

    /// Each lane's fixed bank-ring direction: Table V's East and West
    /// lanes, or one lane on the shorter direction per pair.
    fn lane_dirs(&self) -> &'static [Option<Direction>] {
        if self.bidirectional_ring {
            &[Some(Direction::East), Some(Direction::West)]
        } else {
            &[None]
        }
    }

    /// Each lane's share of `root`: its halves on Table V's two lanes.
    fn lanes(&self, root: Span) -> Vec<Span> {
        if self.bidirectional_ring {
            root.split(2)
        } else {
            vec![root]
        }
    }

    /// Each lane's share of a piece set: Table V cuts the set, in DPU-id
    /// (buffer) order, after `max(len/2, 1)` pieces.
    fn lane_pieces(&self, set: &[Span]) -> Vec<Vec<Span>> {
        if !self.bidirectional_ring {
            return vec![set.to_vec()];
        }
        let mut east = set.to_vec();
        east.sort_by_key(|s| s.start);
        let west = east.split_off((east.len() / 2).max(1));
        vec![east, west]
    }

    /// One group's steps on `wire`, split into one step per source
    /// position when Table V's bus slots apply (a group's slot order is
    /// its member order; the order within one source is kept).
    fn on_bus(&self, wire: Wire, steps: Vec<Vec<Transfer>>, nodes: &[DpuId]) -> Vec<Vec<Transfer>> {
        if wire != Wire::RankBus || self.bus == BusSlots::Off {
            return steps;
        }
        let per_slot = steps.iter().map(Vec::len).sum::<usize>() / nodes.len();
        let mut slots = vec![Vec::with_capacity(per_slot); nodes.len()];
        for t in steps.into_iter().flatten() {
            let i = nodes
                .iter()
                .position(|&n| n == t.src)
                .expect("a group sends from its own members");
            slots[i].push(t);
        }
        slots
    }
}

impl fmt::Display for Composition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}_{}_{}", self.bank, self.chip, self.rank)
    }
}

/// Which fabric a tier's transfers ride, fixing path construction and
/// whether multi-destination (broadcast) transfers exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    /// Intra-chip ring segments: a Table V lane's fixed direction, or the
    /// shorter direction per pair.
    BankRing(Option<Direction>),
    /// Buffer-chip crossbar DQ channels.
    ChipXbar,
    /// The multi-drop inter-rank bus (broadcast-capable).
    RankBus,
}

/// Tier context: the geometry plus the wire the tier's groups span.
#[derive(Clone, Copy)]
struct TierCtx<'g> {
    g: &'g PimGeometry,
    wire: Wire,
}

impl TierCtx<'_> {
    /// Unicast path between two group members.
    fn path(self, src: DpuId, dst: DpuId) -> Vec<Resource> {
        match self.wire {
            Wire::BankRing(dir) => {
                let dir = dir.unwrap_or_else(|| {
                    let (a, b) = (self.g.coord(src).bank, self.g.coord(dst).bank);
                    shorter_direction(self.g.banks_per_chip, a, b)
                });
                ring_path(self.g, src, dst, dir)
            }
            Wire::ChipXbar => chip_path(self.g, src, dst),
            Wire::RankBus => rank_path(self.g, src, &[dst]),
        }
    }

    /// One unicast of `span` from `src` to `dst` ([`CommStep::new`] drops
    /// it if the span is empty).
    fn send(self, src: DpuId, dst: DpuId, span: Span, combine: bool) -> Transfer {
        Transfer {
            src,
            dsts: vec![dst],
            src_span: span,
            dst_span: span,
            combine,
            resources: self.path(src, dst),
        }
    }

    /// `span` from `src` to every one of `dsts`: a single broadcast on the
    /// bus, one unicast per destination elsewhere.
    fn sends(self, src: DpuId, dsts: &[DpuId], span: Span, combine: bool) -> Vec<Transfer> {
        if self.wire != Wire::RankBus {
            return dsts
                .iter()
                .map(|&dst| self.send(src, dst, span, combine))
                .collect();
        }
        if dsts.is_empty() {
            return Vec::new();
        }
        vec![Transfer {
            src,
            dsts: dsts.to_vec(),
            src_span: span,
            dst_span: span,
            combine,
            resources: rank_path(self.g, src, dsts),
        }]
    }
}

/// Steps of a group-local reduce-scatter of `parent` among `nodes`, plus
/// the span each position owns (fully reduced over the group) afterwards.
/// For [`TierAlgo::DoubleBinaryTree`] the "scatter" is a full allreduce:
/// every position owns all of `parent` and the mirror allgather is empty.
fn tier_reduce_scatter(
    algo: TierAlgo,
    ctx: TierCtx<'_>,
    nodes: &[DpuId],
    parent: Span,
) -> Result<(Vec<Vec<Transfer>>, Vec<Span>), PimnetError> {
    let k = nodes.len();
    if k <= 1 {
        return Ok((Vec::new(), vec![parent; k]));
    }
    match algo {
        TierAlgo::Ring => {
            // Step s: position i passes chunk (i - s) mod k on to i + 1,
            // which reduces it; after k - 1 steps position i owns chunk
            // (i + 1) mod k.
            let chunks = parent.split(k);
            let steps = (0..k - 1)
                .map(|s| {
                    (0..k)
                        .map(|i| {
                            let chunk = chunks[(i + k - s) % k];
                            ctx.send(nodes[i], nodes[(i + 1) % k], chunk, true)
                        })
                        .collect()
                })
                .collect();
            Ok((steps, (0..k).map(|i| chunks[(i + 1) % k]).collect()))
        }
        TierAlgo::Direct => {
            let chunks = parent.split(k);
            let mut transfers = Vec::with_capacity(k * (k - 1));
            for (i, &src) in nodes.iter().enumerate() {
                for (j, &dst) in nodes.iter().enumerate() {
                    if i != j {
                        transfers.push(ctx.send(src, dst, chunks[j], true));
                    }
                }
            }
            Ok((vec![transfers], chunks))
        }
        TierAlgo::Rabenseifner => {
            require_pow2(ctx.g, k, "Rabenseifner reduce-scatter")?;
            Ok(halving_reduce_scatter(ctx, nodes, parent))
        }
        TierAlgo::DoubleBinaryTree => Ok((dbtree_allreduce(ctx, nodes, parent), vec![parent; k])),
    }
}

/// Mirror allgather: restores `parent` everywhere from the ownership
/// state [`tier_reduce_scatter`] left (a pure function of `parent` and
/// the group positions, so nothing needs to be threaded between them).
fn tier_all_gather(
    algo: TierAlgo,
    ctx: TierCtx<'_>,
    nodes: &[DpuId],
    parent: Span,
) -> Vec<Vec<Transfer>> {
    let k = nodes.len();
    if k <= 1 {
        return Vec::new();
    }
    match algo {
        TierAlgo::Ring => {
            // Position i starts with chunk (i + 1) mod k and forwards, at
            // step s, the chunk it received at step s - 1.
            let chunks = parent.split(k);
            (0..k - 1)
                .map(|s| {
                    (0..k)
                        .map(|i| {
                            let chunk = chunks[(i + 1 + k - s) % k];
                            ctx.send(nodes[i], nodes[(i + 1) % k], chunk, false)
                        })
                        .collect()
                })
                .collect()
        }
        TierAlgo::Direct => {
            let chunks = parent.split(k);
            let transfers = nodes
                .iter()
                .enumerate()
                .flat_map(|(i, &src)| ctx.sends(src, &others(nodes, i), chunks[i], false))
                .collect();
            vec![transfers]
        }
        TierAlgo::Rabenseifner => doubling_all_gather(ctx, nodes, parent),
        TierAlgo::DoubleBinaryTree => Vec::new(),
    }
}

/// Every member of `nodes` but position `i`, in group order.
fn others(nodes: &[DpuId], i: usize) -> Vec<DpuId> {
    nodes
        .iter()
        .enumerate()
        .filter_map(|(j, &n)| (j != i).then_some(n))
        .collect()
}

/// Recursive-halving reduce-scatter among a power-of-two group: round
/// `r` pairs position `i` with `i ^ 2^r`; each pair splits its working
/// span in two, the lower position keeps (and receives contributions
/// for) the low half. The owned spans are exactly
/// [`Span::split_pow2`]'s partition at the bit-reversed position.
fn halving_reduce_scatter(
    ctx: TierCtx<'_>,
    nodes: &[DpuId],
    parent: Span,
) -> (Vec<Vec<Transfer>>, Vec<Span>) {
    let k = nodes.len();
    let mut span = vec![parent; k];
    let mut steps = Vec::new();
    let mut d = 1usize;
    while d < k {
        let mut transfers = Vec::with_capacity(k);
        for (i, s) in span.iter().enumerate() {
            let p = i ^ d;
            let halves = s.split(2);
            let send = if i & d == 0 { halves[1] } else { halves[0] };
            transfers.push(ctx.send(nodes[i], nodes[p], send, true));
        }
        for (i, s) in span.iter_mut().enumerate() {
            let halves = s.split(2);
            *s = if i & d == 0 { halves[0] } else { halves[1] };
        }
        steps.push(transfers);
        d <<= 1;
    }
    debug_assert_eq!(
        span,
        halving_partition(parent, k),
        "operational halving must match Span::split_pow2's partition"
    );
    (steps, span)
}

/// The per-position owned spans recursive halving converges to: leaf
/// `bitrev(i)` of [`Span::split_pow2`]'s partition (round `r` descends
/// by bit `r`, while the split tree's outermost level is the *first*
/// round, so position bits read the leaf path inside-out).
fn halving_partition(parent: Span, k: usize) -> Vec<Span> {
    debug_assert!(k.is_power_of_two());
    let leaves = parent.split_pow2(k);
    let levels = k.trailing_zeros();
    (0..k)
        .map(|i| {
            let mut leaf = 0usize;
            for r in 0..levels {
                leaf = (leaf << 1) | ((i >> r) & 1);
            }
            leaves[leaf]
        })
        .collect()
}

/// Recursive-doubling allgather: the mirror of
/// [`halving_reduce_scatter`], re-deriving the per-round spans from
/// `parent` and merging sibling spans back up in reverse round order.
fn doubling_all_gather(ctx: TierCtx<'_>, nodes: &[DpuId], parent: Span) -> Vec<Vec<Transfer>> {
    let k = nodes.len();
    // Re-thread the halving to recover the post-scatter spans.
    let mut span = halving_partition(parent, k);
    let mut steps = Vec::new();
    let mut d = k >> 1;
    while d >= 1 {
        let mut transfers = Vec::with_capacity(k);
        for (i, &s) in span.iter().enumerate() {
            let p = i ^ d;
            transfers.push(ctx.send(nodes[i], nodes[p], s, false));
        }
        let before = span.clone();
        for (i, s) in span.iter_mut().enumerate() {
            let p = i ^ d;
            let (lo, hi) = if before[i].start <= before[p].start {
                (before[i], before[p])
            } else {
                (before[p], before[i])
            };
            debug_assert_eq!(lo.end(), hi.start, "siblings must be adjacent");
            *s = Span::new(lo.start, lo.len + hi.len);
        }
        steps.push(transfers);
        d >>= 1;
    }
    steps
}

/// Double-binary-tree allreduce of `parent` among `nodes`: two
/// complementary binomial trees (tree 0 rooted at the first position,
/// tree 1 at the last) each reduce one half of `parent` up to their
/// root, then broadcast it back down. Works for any group size; every
/// position ends holding all of `parent`, fully reduced.
fn dbtree_allreduce(ctx: TierCtx<'_>, nodes: &[DpuId], parent: Span) -> Vec<Vec<Transfer>> {
    let k = nodes.len();
    if k <= 1 {
        return Vec::new();
    }
    let halves = parent.split(2);
    let levels = usize::BITS - (k - 1).leading_zeros();
    // Tree t maps group position p to tree position q; tree 1 reverses
    // the group so the two roots (and every internal node) differ.
    let tree_pos = |t: usize, p: usize| if t == 0 { p } else { k - 1 - p };
    let mut steps = Vec::new();
    // Reduce up: at round r, tree positions whose lowest set bit is r
    // send their half to the parent (that bit cleared), which combines.
    for r in 0..levels {
        let d = 1usize << r;
        let mut transfers = Vec::new();
        for (t, &half) in halves.iter().enumerate() {
            for p in 0..k {
                let q = tree_pos(t, p);
                if q & ((d << 1) - 1) == d {
                    let parent_p = tree_pos(t, q - d);
                    transfers.push(ctx.send(nodes[p], nodes[parent_p], half, true));
                }
            }
        }
        steps.push(transfers);
    }
    // Broadcast down: the mirror, in reverse round order, parents
    // overwriting their children with the fully-reduced half.
    for r in (0..levels).rev() {
        let d = 1usize << r;
        let mut transfers = Vec::new();
        for (t, &half) in halves.iter().enumerate() {
            for p in 0..k {
                let q = tree_pos(t, p);
                if q & ((d << 1) - 1) == d {
                    let parent_p = tree_pos(t, q - d);
                    transfers.push(ctx.send(nodes[parent_p], nodes[p], half, false));
                }
            }
        }
        steps.push(transfers);
    }
    steps
}

/// One-to-all fan-out of `span` from `nodes[0]` (which alone holds it)
/// to the whole group. Ring pipelines hop by hop; direct unicasts (or
/// bus-broadcasts) in one step; double binary tree broadcasts each half
/// down one of two complementary binomial trees rooted at position 0.
fn fan_out(algo: TierAlgo, ctx: TierCtx<'_>, nodes: &[DpuId], span: Span) -> Vec<Vec<Transfer>> {
    let k = nodes.len();
    if k <= 1 || span.is_empty() {
        return Vec::new();
    }
    match algo {
        TierAlgo::Ring => {
            // Store-and-forward pipeline along the group order.
            (0..k - 1)
                .map(|s| vec![ctx.send(nodes[s], nodes[s + 1], span, false)])
                .collect()
        }
        TierAlgo::Direct => {
            vec![ctx.sends(nodes[0], &nodes[1..], span, false)]
        }
        TierAlgo::DoubleBinaryTree => {
            let halves = span.split(2);
            let levels = usize::BITS - (k - 1).leading_zeros();
            // Both trees root at position 0: tree 0 on q = p, tree 1 on
            // q = (k - p) mod k (a reflection fixing the root).
            let tree_pos = |t: usize, q: usize| if t == 0 { q } else { (k - q) % k };
            let mut steps = Vec::new();
            for r in (0..levels).rev() {
                let d = 1usize << r;
                let mut transfers = Vec::new();
                for (t, &half) in halves.iter().enumerate() {
                    for q in 0..k {
                        if q & ((d << 1) - 1) == d {
                            let (src, dst) = (tree_pos(t, q - d), tree_pos(t, q));
                            transfers.push(ctx.send(nodes[src], nodes[dst], half, false));
                        }
                    }
                }
                steps.push(transfers);
            }
            steps
        }
        // Not reachable through the applicability matrix; fall back to
        // the direct fan-out rather than panicking.
        TierAlgo::Rabenseifner => vec![ctx.sends(nodes[0], &nodes[1..], span, false)],
    }
}

/// Group-local allgather over per-position piece *sets* (AllGather-style
/// buffers hold many owner-indexed pieces). Returns the steps and the set
/// every position holds afterwards: the canonical (group-order)
/// concatenation.
fn tier_all_gather_sets(
    algo: TierAlgo,
    ctx: TierCtx<'_>,
    nodes: &[DpuId],
    sets: &[&[Span]],
) -> Result<(Vec<Vec<Transfer>>, Vec<Span>), PimnetError> {
    let k = nodes.len();
    let union = sets.concat();
    if k <= 1 {
        return Ok((Vec::new(), union));
    }
    match algo {
        TierAlgo::Ring => {
            // Circulate original sets: at step s position i forwards the
            // set of position (i - s) mod k, like the paper's piece-set
            // rings, so every step forwards each set once.
            let steps = (0..k - 1)
                .map(|s| {
                    let mut step = Vec::with_capacity(union.len());
                    step.extend((0..k).flat_map(|i| {
                        send_set(ctx, nodes[i], nodes[(i + 1) % k], sets[(i + k - s) % k])
                    }));
                    step
                })
                .collect();
            Ok((steps, union))
        }
        TierAlgo::Direct => {
            let transfers = (0..k)
                .flat_map(|i| {
                    let dsts = others(nodes, i);
                    sets[i]
                        .iter()
                        .flat_map(move |&span| ctx.sends(nodes[i], &dsts, span, false))
                })
                .collect();
            Ok((vec![transfers], union))
        }
        TierAlgo::Rabenseifner => {
            require_pow2(ctx.g, k, "recursive-doubling allgather")?;
            let mut acc: Vec<Vec<Span>> = sets.iter().map(|set| set.to_vec()).collect();
            let mut steps = Vec::new();
            let mut d = 1usize;
            while d < k {
                steps.push(
                    (0..k)
                        .flat_map(|i| send_set(ctx, nodes[i], nodes[i ^ d], &acc[i]))
                        .collect(),
                );
                let before = acc.clone();
                for (i, set) in acc.iter_mut().enumerate() {
                    let p = i ^ d;
                    // Canonical order: lower position's pieces first.
                    if i & d == 0 {
                        set.extend(before[p].iter().copied());
                    } else {
                        let mut merged = before[p].clone();
                        merged.extend(before[i].iter().copied());
                        *set = merged;
                    }
                }
                d <<= 1;
            }
            debug_assert!(acc.iter().all(|set| *set == union));
            Ok((steps, union))
        }
        TierAlgo::DoubleBinaryTree => Err(PimnetError::ScheduleInvalid {
            reason: "double binary tree does not apply to allgather tiers".into(),
        }),
    }
}

/// Every span of `set`, in set order, from `src` to `dst`.
fn send_set<'a>(
    ctx: TierCtx<'a>,
    src: DpuId,
    dst: DpuId,
    set: &'a [Span],
) -> impl Iterator<Item = Transfer> + 'a {
    set.iter().map(move |&span| ctx.send(src, dst, span, false))
}

fn require_pow2(g: &PimGeometry, k: usize, what: &str) -> Result<(), PimnetError> {
    if k.is_power_of_two() {
        Ok(())
    } else {
        Err(PimnetError::InvalidGeometry {
            geometry: *g,
            reason: format!("{what} needs a power-of-two group, got {k} nodes"),
        })
    }
}

fn at(g: &PimGeometry, rank: u32, chip: u32, bank: u32) -> DpuId {
    g.id(DpuCoord {
        channel: 0,
        rank,
        chip,
        bank,
    })
}

/// Every group of one tier, in build order: each chip's banks in ring
/// order (rank-major), each bank position's chips (the logical crossbar
/// ring, rank-major), each (chip, bank) position's rank twins. None when
/// the groups have one member: a lone member has nothing to exchange.
fn groups(g: &PimGeometry, wire: Wire) -> Vec<Vec<DpuId>> {
    let (banks, chips, ranks) = (g.banks_per_chip, g.chips_per_rank, g.ranks_per_channel);
    let (outer, inner, members) = match wire {
        Wire::BankRing(_) => (ranks, chips, banks),
        Wire::ChipXbar => (ranks, banks, chips),
        Wire::RankBus => (chips, banks, ranks),
    };
    if members <= 1 {
        return Vec::new();
    }
    let member = |o: u32, i: u32, m: u32| match wire {
        Wire::BankRing(_) => at(g, o, i, m),
        Wire::ChipXbar => at(g, o, m, i),
        Wire::RankBus => at(g, m, o, i),
    };
    (0..outer)
        .flat_map(|o| (0..inner).map(move |i| (o, i)))
        .map(|(o, i)| (0..members).map(|m| member(o, i, m)).collect())
        .collect()
}

/// Runs one tier over every group in build order and, inside each group,
/// every lane (one fixed bank direction per Table V lane, or `[None]`),
/// merging the groups' steps index-wise. `op(lane, nodes, ctx)` returns
/// one group's steps; on the bank tier a West lane's banks come in its
/// travel (reverse) order and `ctx` pins the lane's direction.
fn run_tier(
    g: &PimGeometry,
    wire: Wire,
    lanes: &[Option<Direction>],
    mut op: impl FnMut(usize, &[DpuId], TierCtx<'_>) -> Result<Vec<Vec<Transfer>>, PimnetError>,
) -> Result<Vec<Vec<Transfer>>, PimnetError> {
    let mut acc = Vec::new();
    for group in groups(g, wire) {
        for (lane, &dir) in lanes.iter().enumerate() {
            let wire = match wire {
                Wire::BankRing(_) => Wire::BankRing(dir),
                other => other,
            };
            let ctx = TierCtx { g, wire };
            let steps = if wire == Wire::BankRing(Some(Direction::West)) {
                let travel: Vec<DpuId> = group.iter().rev().copied().collect();
                op(lane, &travel, ctx)?
            } else {
                op(lane, &group, ctx)?
            };
            merge_steps(&mut acc, steps);
        }
    }
    Ok(acc)
}

/// Extends `acc` step-wise with `steps` (parallel groups share steps).
fn merge_steps(acc: &mut Vec<Vec<Transfer>>, steps: Vec<Vec<Transfer>>) {
    for (s, transfers) in steps.into_iter().enumerate() {
        match acc.get_mut(s) {
            Some(step) => step.extend(transfers),
            None => acc.push(transfers),
        }
    }
}

fn into_phase(label: PhaseLabel, steps: Vec<Vec<Transfer>>, multiplexed: bool) -> Phase {
    Phase::new(
        label,
        steps.into_iter().map(CommStep::new).collect(),
        multiplexed,
    )
}

/// Bank-tier phases are exclusive only for the ring (single flow per
/// adjacent segment); every other algorithm rides multi-hop
/// shorter-direction paths that overlap and are WAIT-multiplexed.
fn bank_multiplexed(algo: TierAlgo) -> bool {
    algo != TierAlgo::Ring
}

/// Compiles `kind` on `geometry` under a per-tier algorithm
/// [`Composition`], as [`build_composed_chunked`] with one chunk.
///
/// # Errors
///
/// See [`build_composed_chunked`].
pub fn build_composed(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems: usize,
    elem_bytes: u32,
    comp: Composition,
) -> Result<CommSchedule, PimnetError> {
    build_composed_chunked(kind, geometry, elems, elem_bytes, comp, 1)
}

/// Compiles `kind` on `geometry` under a per-tier algorithm
/// [`Composition`], optionally pipelined over `chunks` payload splits
/// (AllReduce only: the full hierarchy runs once per chunk, phases
/// spliced in chunk order). [`CommSchedule::build`] calls it with
/// [`Composition::paper`] for every Table V collective.
///
/// The output is a standard [`CommSchedule`]: it passes
/// [`validate`](super::validate::validate), executes bit-identical to
/// the functional reference, and feeds the timeline/boost/analysis
/// machinery unchanged.
///
/// # Errors
///
/// * [`PimnetError::InvalidGeometry`] — multi-channel geometry, a
///   Rabenseifner tier whose group size is not a power of two, or an
///   All-to-All on non-power-of-two dimensions.
/// * [`PimnetError::InvalidMessage`] — zero-sized elements, `chunks > 1`
///   for a collective other than AllReduce, or a payload whose buffer or
///   byte size overflows.
/// * [`PimnetError::ScheduleInvalid`] — the composition does not apply
///   to `kind` (see [`Composition::applies_to`]).
pub fn build_composed_chunked(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems: usize,
    elem_bytes: u32,
    comp: Composition,
    chunks: usize,
) -> Result<CommSchedule, PimnetError> {
    if geometry.channels != 1 {
        return Err(PimnetError::InvalidGeometry {
            geometry: *geometry,
            reason: "composed schedules span a single memory channel".into(),
        });
    }
    if elem_bytes == 0 {
        return Err(PimnetError::InvalidMessage {
            reason: "zero element size".into(),
        });
    }
    if chunks == 0 {
        return Err(PimnetError::InvalidMessage {
            reason: "chunk split must be at least 1".into(),
        });
    }
    if chunks > 1 && kind != CollectiveKind::AllReduce {
        return Err(PimnetError::InvalidMessage {
            reason: format!("chunk-split pipelining applies to AllReduce only, not {kind}"),
        });
    }
    if !comp.applies_to(kind) {
        return Err(PimnetError::ScheduleInvalid {
            reason: format!("composition '{comp}' does not apply to {kind}"),
        });
    }
    let buffer_len = super::checked_buffer_len(kind, geometry, elems, elem_bytes)?;
    let full = || vec![vec![Span::new(0, buffer_len)]; geometry.total_dpus() as usize];
    let (phases, result_spans) = match kind {
        CollectiveKind::AllReduce => (allreduce_phases(geometry, elems, comp, chunks)?, full()),
        CollectiveKind::ReduceScatter => reduce_scatter_phases(geometry, elems, comp)?,
        CollectiveKind::AllGather => (all_gather_phases(geometry, elems, comp)?, full()),
        CollectiveKind::Broadcast => (broadcast_phases(geometry, elems, comp)?, full()),
        // applies_to admits only the all-direct composition: the paper's
        // pairwise exchange.
        CollectiveKind::AllToAll => return build_all_to_all(geometry, elems, elem_bytes),
        CollectiveKind::Reduce | CollectiveKind::Gather => unreachable!("applies_to rejected"),
    };
    Ok(CommSchedule {
        kind,
        geometry: *geometry,
        elems_per_node: elems,
        elem_bytes,
        buffer_len,
        result_spans,
        phases: phases.into_iter().filter(|p| !p.steps.is_empty()).collect(),
    })
}

/// Per lane, the span each node currently owns, starting at the lane's
/// share of `root` everywhere.
fn owned_lanes(g: &PimGeometry, comp: Composition, root: Span) -> Vec<Vec<Span>> {
    let total = g.total_dpus() as usize;
    comp.lanes(root)
        .into_iter()
        .map(|r| vec![r; total])
        .collect()
}

/// One reduce-scatter tier over every group and lane: each group's
/// parent is its first member's owned span, and every member's owned
/// span narrows to its piece.
fn scatter_tier(
    g: &PimGeometry,
    comp: Composition,
    algo: TierAlgo,
    wire: Wire,
    owned: &mut [Vec<Span>],
) -> Result<Vec<Vec<Transfer>>, PimnetError> {
    run_tier(g, wire, comp.lane_dirs(), |lane, nodes, ctx| {
        let parent = owned[lane][nodes[0].index()];
        let (steps, pieces) = tier_reduce_scatter(algo, ctx, nodes, parent)?;
        for (n, piece) in nodes.iter().zip(pieces) {
            owned[lane][n.index()] = piece;
        }
        Ok(comp.on_bus(wire, steps, nodes))
    })
}

/// The reduce-scatter half of the hierarchy (bank then chip tiers),
/// shared by AllReduce and ReduceScatter: the two phases, with `owned`
/// narrowed and the bank-tier ownership snapshot (the chip tier's parent
/// spans, which the mirror allgather needs).
fn up_phases(
    g: &PimGeometry,
    comp: Composition,
    owned: &mut [Vec<Span>],
) -> Result<(Vec<Phase>, Vec<Vec<Span>>), PimnetError> {
    let bank = scatter_tier(g, comp, comp.bank, Wire::BankRing(None), owned)?;
    let bank_owned = owned.to_vec();
    let chip = scatter_tier(g, comp, comp.chip, Wire::ChipXbar, owned)?;
    Ok((
        vec![
            into_phase(PhaseLabel::InterBank, bank, bank_multiplexed(comp.bank)),
            into_phase(PhaseLabel::InterChip, chip, true),
        ],
        bank_owned,
    ))
}

/// The inter-rank middle of a composed AllReduce: reduce (and
/// re-distribute) every node's chip-tier span across its rank twins,
/// leaving `owned` as it was. Direct is the paper's one-pass
/// broadcast-reduce; ring and Rabenseifner (and Table V's scatter
/// ablation) reduce-scatter then allgather on the bus; double binary
/// tree reduces up and broadcasts down. Under Table V's bus slots every
/// source sends in its own step, and the passes that read only pre-phase
/// data (the broadcast-reduce, the allgather of reduced quarters) fuse
/// their slots into one step, source-major.
fn rank_mid_phase(
    g: &PimGeometry,
    comp: Composition,
    owned: &[Vec<Span>],
) -> Result<Phase, PimnetError> {
    let lanes = comp.lane_dirs();
    let wire = Wire::RankBus;
    let fuse = |steps: Vec<Vec<Transfer>>| match comp.bus {
        BusSlots::Off => steps,
        _ => vec![steps.concat()],
    };
    let steps = match comp.rank {
        TierAlgo::Direct if comp.bus != BusSlots::Scatter => {
            fuse(run_tier(g, wire, lanes, |lane, nodes, ctx| {
                // Every rank broadcasts its partial, every twin reduces in
                // place; all read the pre-phase partials (one snapshot).
                let transfers = (0..nodes.len())
                    .flat_map(|i| {
                        let src = nodes[i];
                        ctx.sends(src, &others(nodes, i), owned[lane][src.index()], true)
                    })
                    .collect();
                Ok(comp.on_bus(wire, vec![transfers], nodes))
            })?)
        }
        TierAlgo::DoubleBinaryTree => run_tier(g, wire, lanes, |lane, nodes, ctx| {
            Ok(dbtree_allreduce(ctx, nodes, owned[lane][nodes[0].index()]))
        })?,
        algo => {
            let mut steps = run_tier(g, wire, lanes, |lane, nodes, ctx| {
                let (rs, _) = tier_reduce_scatter(algo, ctx, nodes, owned[lane][nodes[0].index()])?;
                Ok(comp.on_bus(wire, rs, nodes))
            })?;
            steps.extend(fuse(run_tier(g, wire, lanes, |lane, nodes, ctx| {
                let ag = tier_all_gather(algo, ctx, nodes, owned[lane][nodes[0].index()]);
                Ok(comp.on_bus(wire, ag, nodes))
            })?));
            steps
        }
    };
    Ok(into_phase(PhaseLabel::InterRank, steps, true))
}

fn allreduce_phases(
    g: &PimGeometry,
    elems: usize,
    comp: Composition,
    chunks: usize,
) -> Result<Vec<Phase>, PimnetError> {
    let mut phases = Vec::new();
    for chunk in Span::new(0, elems).split(chunks) {
        let mut owned = owned_lanes(g, comp, chunk);
        let (up, bank_owned) = up_phases(g, comp, &mut owned)?;
        phases.extend(up);
        phases.push(rank_mid_phase(g, comp, &owned)?);
        // Mirror allgather: the chip tier restores each bank-tier span,
        // then the bank tier each lane's share of the chunk.
        let chip = run_tier(g, Wire::ChipXbar, comp.lane_dirs(), |lane, nodes, ctx| {
            let parent = bank_owned[lane][nodes[0].index()];
            Ok(tier_all_gather(comp.chip, ctx, nodes, parent))
        })?;
        phases.push(into_phase(PhaseLabel::InterChip, chip, true));
        let roots = comp.lanes(chunk);
        let bank = run_tier(
            g,
            Wire::BankRing(None),
            comp.lane_dirs(),
            |lane, nodes, ctx| Ok(tier_all_gather(comp.bank, ctx, nodes, roots[lane])),
        )?;
        phases.push(into_phase(
            PhaseLabel::InterBank,
            bank,
            bank_multiplexed(comp.bank),
        ));
    }
    Ok(phases)
}

/// The ReduceScatter phases and each node's fully reduced pieces (one
/// per lane that holds any data).
fn reduce_scatter_phases(
    g: &PimGeometry,
    elems: usize,
    comp: Composition,
) -> Result<(Vec<Phase>, Vec<Vec<Span>>), PimnetError> {
    let mut owned = owned_lanes(g, comp, Span::new(0, elems));
    let (mut phases, _) = up_phases(g, comp, &mut owned)?;
    let rank = scatter_tier(g, comp, comp.rank, Wire::RankBus, &mut owned)?;
    phases.push(into_phase(PhaseLabel::InterRank, rank, true));
    let result_spans = (0..g.total_dpus() as usize)
        .map(|i| {
            owned
                .iter()
                .map(|lane| lane[i])
                .filter(|s| !s.is_empty())
                .collect()
        })
        .collect();
    Ok((phases, result_spans))
}

/// AllGather: rank tier first (pieces are still one per node), then
/// chip, then bank — the paper's order, with the tier algorithm free.
/// Node `i`'s piece sits at `i·n` of the `N·n` buffer.
fn all_gather_phases(
    g: &PimGeometry,
    elems: usize,
    comp: Composition,
) -> Result<Vec<Phase>, PimnetError> {
    let mut sets: Vec<Vec<Span>> = g
        .dpus()
        .map(|id| vec![Span::new(id.index() * elems, elems)])
        .collect();
    let mut phases = Vec::new();
    for (label, algo, wire) in [
        (PhaseLabel::InterRank, comp.rank, Wire::RankBus),
        (PhaseLabel::InterChip, comp.chip, Wire::ChipXbar),
    ] {
        let steps = run_tier(g, wire, &[None], |_, nodes, ctx| {
            let group: Vec<&[Span]> = nodes.iter().map(|n| &sets[n.index()][..]).collect();
            let (steps, gathered) = tier_all_gather_sets(algo, ctx, nodes, &group)?;
            for n in nodes {
                sets[n.index()].clone_from(&gathered);
            }
            Ok(comp.on_bus(wire, steps, nodes))
        })?;
        phases.push(into_phase(label, steps, true));
    }
    // The bank tier splits every set across the lanes.
    let lane_sets: Vec<Vec<Vec<Span>>> = sets.iter().map(|set| comp.lane_pieces(set)).collect();
    let bank = run_tier(
        g,
        Wire::BankRing(None),
        comp.lane_dirs(),
        |lane, nodes, ctx| {
            let group: Vec<&[Span]> = nodes
                .iter()
                .map(|n| &lane_sets[n.index()][lane][..])
                .collect();
            Ok(tier_all_gather_sets(comp.bank, ctx, nodes, &group)?.0)
        },
    )?;
    phases.push(into_phase(
        PhaseLabel::InterBank,
        bank,
        bank_multiplexed(comp.bank),
    ));
    Ok(phases)
}

/// Broadcast from DPU 0: the root scatters one chunk per chip leader of
/// its rank (fixed, as in Table V), the leaders deliver their chunks to
/// their rank twins, a chip-tier allgather completes every leader's copy
/// and the leaders fan the full message around their bank ring.
fn broadcast_phases(
    g: &PimGeometry,
    elems: usize,
    comp: Composition,
) -> Result<Vec<Phase>, PimnetError> {
    let root = DpuId(0);
    let home = g.coord(root);
    let (chips, ranks) = (g.chips_per_rank, g.ranks_per_channel);
    let chunks = Span::new(0, elems).split(chips as usize);
    let xbar = TierCtx {
        g,
        wire: Wire::ChipXbar,
    };
    let bus = TierCtx {
        g,
        wire: Wire::RankBus,
    };

    let scatter = (0..chips)
        .filter(|&c| c != home.chip)
        .map(|c| xbar.send(root, at(g, home.rank, c, 0), chunks[c as usize], false))
        .collect();
    // Each leader's rank group starts at the holder, so ring pipelining
    // starts at the leader that owns the chunk.
    let mut deliver = Vec::new();
    for c in 0..chips {
        let nodes: Vec<DpuId> = (0..ranks)
            .map(|dr| at(g, (home.rank + dr) % ranks, c, 0))
            .collect();
        merge_steps(
            &mut deliver,
            fan_out(comp.rank, bus, &nodes, chunks[c as usize]),
        );
    }
    let mut gather = Vec::new();
    let chunk_sets: Vec<&[Span]> = chunks.iter().map(std::slice::from_ref).collect();
    for rank in 0..ranks {
        let leaders: Vec<DpuId> = (0..chips).map(|c| at(g, rank, c, 0)).collect();
        merge_steps(
            &mut gather,
            tier_all_gather_sets(comp.chip, xbar, &leaders, &chunk_sets)?.0,
        );
    }
    let full = Span::new(0, elems);
    let fan = run_tier(g, Wire::BankRing(None), &[None], |_, nodes, ctx| {
        Ok(fan_out(comp.bank, ctx, nodes, full))
    })?;
    Ok(vec![
        into_phase(PhaseLabel::InterChip, vec![scatter], true),
        into_phase(PhaseLabel::InterRank, deliver, true),
        into_phase(PhaseLabel::InterChip, gather, true),
        into_phase(PhaseLabel::InterBank, fan, bank_multiplexed(comp.bank)),
    ])
}

/// The paper's pairwise All-to-All (§V-D, Fig 8; Table V's
/// `Ring(inter-bank) → Permutation(inter-chip) → Unicast(inter-rank)`):
/// at step `d` node `i` swaps chunks with node `i ⊕ d`, so data never
/// needs an intermediate staging location. XOR pairing partitions the
/// steps cleanly by tier — `d < B` stays on the bank ring, `B ≤ d < B·C`
/// crosses the inter-chip crossbar in a contention-free permutation
/// (every chip talks to exactly one other chip), and `d ≥ B·C` crosses
/// the rank bus as scheduled unicasts.
///
/// The per-node buffer is `2n` elements: the *in* region (`n` elements,
/// chunk `j` destined to node `j`) followed by the *out* region (`n`
/// elements, chunk `j` received from node `j`).
fn build_all_to_all(
    g: &PimGeometry,
    elems: usize,
    elem_bytes: u32,
) -> Result<CommSchedule, PimnetError> {
    let (banks, chips, ranks) = (g.banks_per_chip, g.chips_per_rank, g.ranks_per_channel);
    if !(banks.is_power_of_two() && chips.is_power_of_two() && ranks.is_power_of_two()) {
        return Err(PimnetError::InvalidGeometry {
            geometry: *g,
            reason: "All-to-All pairwise exchange needs power-of-two banks/chips/ranks".into(),
        });
    }
    let total = g.total_dpus() as usize;
    // Pairwise swaps need uniform chunks; round the per-peer chunk up and
    // pad the buffer (the trailing padding elements are defaulted/ignored).
    let chunk = elems.div_ceil(total).max(1);
    let padded = chunk * total;
    let in_chunk = |j: usize| Span::new(j * chunk, chunk);
    let out_chunk = |j: usize| in_chunk(j).offset(padded);

    // Local phase: every node keeps its own chunk.
    let local = (0..total)
        .map(|i| Transfer {
            src: DpuId(i as u32),
            dsts: vec![DpuId(i as u32)],
            src_span: in_chunk(i),
            dst_span: out_chunk(i),
            combine: false,
            resources: vec![],
        })
        .collect();
    let step_for = |d: usize| -> Vec<Transfer> {
        (0..total)
            .map(|i| {
                let (src, dst) = (DpuId(i as u32), DpuId((i ^ d) as u32));
                let wire = if g.same_chip(src, dst) {
                    Wire::BankRing(None)
                } else if g.same_rank(src, dst) {
                    Wire::ChipXbar
                } else {
                    Wire::RankBus
                };
                Transfer {
                    src,
                    dsts: vec![dst],
                    src_span: in_chunk(i ^ d),
                    dst_span: out_chunk(i),
                    combine: false,
                    resources: TierCtx { g, wire }.path(src, dst),
                }
            })
            .collect()
    };
    let (bank_span, chip_span) = (banks as usize, (banks * chips) as usize);
    let phases = [
        Phase::new(PhaseLabel::Local, vec![CommStep::new(local)], false),
        into_phase(
            PhaseLabel::InterBank,
            (1..bank_span).map(step_for).collect(),
            true,
        ),
        into_phase(
            PhaseLabel::InterChip,
            (bank_span..chip_span).map(step_for).collect(),
            true,
        ),
        into_phase(
            PhaseLabel::InterRank,
            (chip_span..total).map(step_for).collect(),
            true,
        ),
    ];
    Ok(CommSchedule {
        kind: CollectiveKind::AllToAll,
        geometry: *g,
        elems_per_node: padded,
        elem_bytes,
        buffer_len: 2 * padded,
        result_spans: vec![vec![Span::new(padded, padded)]; total],
        phases: phases.into_iter().filter(|p| !p.steps.is_empty()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{run_collective, ReduceOp};
    use crate::schedule::validate::validate;

    #[test]
    fn spec_round_trips() {
        for spec in ["ring_ring_ring", "direct_dbtree_rabenseifner"] {
            let c = Composition::parse(spec).unwrap();
            assert_eq!(c.spec(), spec);
            assert_eq!(c.to_string(), spec);
        }
        assert!(Composition::parse("ring_ring").is_err());
        assert!(Composition::parse("ring_ring_warp").is_err());
    }

    #[test]
    fn applicability_matrix() {
        let dbt = Composition::parse("dbtree_ring_ring").unwrap();
        assert!(dbt.applies_to(CollectiveKind::AllReduce));
        assert!(!dbt.applies_to(CollectiveKind::ReduceScatter));
        assert!(!dbt.applies_to(CollectiveKind::AllGather));
        let direct = Composition::parse("direct_direct_direct").unwrap();
        assert!(direct.applies_to(CollectiveKind::AllToAll));
        assert!(!Composition::RING.applies_to(CollectiveKind::AllToAll));
        assert!(!Composition::RING.applies_to(CollectiveKind::Reduce));
    }

    #[test]
    fn composed_allreduce_is_functionally_correct() {
        let g = PimGeometry::paper_scaled(64);
        let elems = 96usize;
        for spec in [
            "ring_ring_ring",
            "direct_direct_direct",
            "dbtree_dbtree_dbtree",
            "rabenseifner_rabenseifner_rabenseifner",
            "ring_direct_dbtree",
        ] {
            let comp = Composition::parse(spec).unwrap();
            let s = build_composed(CollectiveKind::AllReduce, &g, elems, 4, comp).unwrap();
            validate(&s).unwrap_or_else(|e| panic!("{spec}: {e}"));
            let m = run_collective(&s, ReduceOp::Sum, |id| vec![u64::from(id.0) + 1; elems])
                .unwrap_or_else(|e| panic!("{spec}: {e}"));
            let expected: u64 = (1..=64).sum();
            for id in s.participants() {
                assert!(
                    m.result(&s, id).iter().all(|&x| x == expected),
                    "{spec} node {id}"
                );
            }
        }
    }

    #[test]
    fn composed_reduce_scatter_partitions_the_vector() {
        let g = PimGeometry::paper_scaled(64);
        let elems = 67usize;
        for spec in ["direct_direct_direct", "rabenseifner_ring_direct"] {
            let comp = Composition::parse(spec).unwrap();
            let s = build_composed(CollectiveKind::ReduceScatter, &g, elems, 4, comp).unwrap();
            validate(&s).unwrap();
            let mut spans: Vec<Span> = s.result_spans.iter().flatten().copied().collect();
            spans.sort_by_key(|sp| sp.start);
            let mut cursor = 0;
            for sp in &spans {
                assert_eq!(sp.start, cursor, "{spec}: gap or overlap at {cursor}");
                cursor = sp.end();
            }
            assert_eq!(cursor, elems, "{spec}");
        }
    }

    #[test]
    fn chunked_allreduce_matches_unchunked_results() {
        let g = PimGeometry::paper_scaled(16);
        let elems = 50usize;
        let comp = Composition::RING;
        let s2 = build_composed_chunked(CollectiveKind::AllReduce, &g, elems, 4, comp, 2).unwrap();
        validate(&s2).unwrap();
        let m = run_collective(&s2, ReduceOp::Sum, |id| vec![u64::from(id.0) + 1; elems]).unwrap();
        let expected: u64 = (1..=16).sum();
        for id in s2.participants() {
            assert!(m.result(&s2, id).iter().all(|&x| x == expected));
        }
        assert!(
            build_composed_chunked(CollectiveKind::AllGather, &g, elems, 4, comp, 2).is_err(),
            "chunking is AllReduce-only"
        );
    }

    #[test]
    fn rabenseifner_rejects_non_power_of_two_groups() {
        let g = PimGeometry::new(3, 2, 1, 1);
        let comp = Composition::parse("rabenseifner_ring_ring").unwrap();
        assert!(build_composed(CollectiveKind::AllReduce, &g, 64, 4, comp).is_err());
    }

    // ---- Table V through the public entry points ----

    use crate::timing::TimingModel;
    use crate::topology::Resource;
    use pim_sim::SimTime;
    use std::collections::{BTreeMap, BTreeSet};

    fn paper(kind: CollectiveKind, g: &PimGeometry, elems: usize) -> CommSchedule {
        CommSchedule::build(kind, g, elems, 4).unwrap()
    }

    fn labels(s: &CommSchedule) -> Vec<PhaseLabel> {
        s.phases.iter().map(|p| p.label).collect()
    }

    fn allreduce_with(comp: Composition, g: &PimGeometry, elems: usize) -> CommSchedule {
        build_composed(CollectiveKind::AllReduce, g, elems, 4, comp).unwrap()
    }

    const HALVING: &str = "rabenseifner_rabenseifner_rabenseifner";

    #[test]
    fn paper_compositions_are_table_v_and_never_parsed() {
        use CollectiveKind as K;
        let ar = Composition::paper(K::AllReduce).unwrap();
        for kind in [K::ReduceScatter, K::AllGather] {
            assert_eq!(Composition::paper(kind), Some(ar));
        }
        assert_eq!(ar, Composition::paper_allreduce(true, true));
        assert_eq!(ar.spec(), "ring_ring_direct");
        assert_ne!(Composition::parse("ring_ring_direct").unwrap(), ar);
        assert_eq!(
            Composition::paper(K::Broadcast),
            Some(Composition::parse("direct_ring_direct").unwrap())
        );
        assert_eq!(
            Composition::paper(K::AllToAll),
            Some(Composition::parse("direct_direct_direct").unwrap())
        );
        assert_eq!(Composition::paper(K::Reduce), None);
        assert_eq!(Composition::paper(K::Gather), None);
        for kind in CollectiveKind::ALL {
            if let Some(comp) = Composition::paper(kind) {
                assert!(comp.applies_to(kind), "{kind}");
            }
        }
    }

    #[test]
    fn table_v_phase_order_per_kind() {
        use PhaseLabel::{InterBank as B, InterChip as C, InterRank as R, Local as L};
        let g = PimGeometry::paper();
        let ar = paper(CollectiveKind::AllReduce, &g, 8192);
        assert_eq!(labels(&ar), [B, C, R, C, B]);
        // Ring step counts: B-1 bank steps, C-1 chip steps; the rank
        // broadcast is one concurrent (bus-serialized) step.
        let steps: Vec<usize> = ar.phases.iter().map(|p| p.steps.len()).collect();
        assert_eq!(steps, [7, 7, 1, 7, 7]);
        let rs = paper(CollectiveKind::ReduceScatter, &g, 8192);
        assert_eq!(labels(&rs), [B, C, R]);
        assert_eq!(rs.phases[2].steps.len(), 4, "one bus slot per source rank");
        let ag = paper(CollectiveKind::AllGather, &g, 16);
        assert_eq!(labels(&ag), [R, C, B]);
        assert_eq!(ag.phases[0].steps.len(), 4, "one bus slot per source rank");
        let bc = paper(CollectiveKind::Broadcast, &g, 256);
        assert_eq!(labels(&bc), [C, R, C, B]);
        let a2a = paper(CollectiveKind::AllToAll, &g, 2560);
        assert_eq!(labels(&a2a), [L, B, C, R]);
        // XOR distance d < 8 stays on the bank ring, 8 <= d < 64 crosses
        // the crossbar, d >= 64 the bus.
        let steps: Vec<usize> = a2a.phases.iter().map(|p| p.steps.len()).collect();
        assert_eq!(steps, [1, 7, 56, 192]);
    }

    #[test]
    fn bank_phases_are_exclusive_and_chip_phases_multiplexed() {
        let g = PimGeometry::paper();
        let s = paper(CollectiveKind::AllReduce, &g, 4096);
        let mux: Vec<bool> = s.phases.iter().map(|p| p.multiplexed).collect();
        // The DQ channels and the bus are WAIT-scheduled; the two bank
        // lanes keep one flow per ring segment.
        assert_eq!(mux, [false, true, true, true, false]);
        validate(&s).unwrap();
    }

    #[test]
    fn degenerate_geometries_drop_their_tiers() {
        let single_rank = PimGeometry::new(8, 8, 1, 1);
        for kind in [CollectiveKind::AllReduce, CollectiveKind::AllGather] {
            let s = paper(kind, &single_rank, 4096);
            assert!(!labels(&s).contains(&PhaseLabel::InterRank), "{kind}");
        }
        let single_chip = PimGeometry::new(8, 1, 1, 1);
        let s = paper(CollectiveKind::AllReduce, &single_chip, 4096);
        // Bank RS + bank AG; the empty tiers are dropped.
        assert_eq!(labels(&s), [PhaseLabel::InterBank, PhaseLabel::InterBank]);
        let single_bank = PimGeometry::new(1, 4, 2, 1);
        let s = paper(CollectiveKind::Broadcast, &single_bank, 16);
        assert!(!labels(&s).contains(&PhaseLabel::InterBank));
    }

    #[test]
    fn reduce_scatter_pieces_tile_a_ragged_payload() {
        let g = PimGeometry::paper();
        let elems = 256 * 7; // deliberately not divisible by 512
        let s = paper(CollectiveKind::ReduceScatter, &g, elems);
        let mut spans: Vec<Span> = s.result_spans.iter().flatten().copied().collect();
        spans.sort_by_key(|sp| sp.start);
        let mut cursor = 0;
        for sp in &spans {
            assert_eq!(sp.start, cursor, "gap or overlap at {cursor}");
            cursor = sp.end();
        }
        assert_eq!(cursor, elems);
        // Each bank holds one fully reduced piece per lane.
        assert!(s.result_spans.iter().all(|r| r.len() == 2));
    }

    #[test]
    fn paper_buffers_and_results() {
        let ag = paper(CollectiveKind::AllGather, &PimGeometry::paper_scaled(16), 8);
        assert_eq!(ag.buffer_len, 16 * 8);
        assert_eq!(ag.result_spans[0], vec![Span::new(0, 128)]);
        let bc = paper(
            CollectiveKind::Broadcast,
            &PimGeometry::paper_scaled(32),
            128,
        );
        assert!(bc
            .result_spans
            .iter()
            .all(|r| r == &vec![Span::new(0, 128)]));
        let a2a = paper(CollectiveKind::AllToAll, &PimGeometry::paper_scaled(8), 64);
        assert_eq!(a2a.buffer_len, 128);
        assert_eq!(a2a.result_spans[3], vec![Span::new(64, 64)]);
    }

    #[test]
    fn wire_bytes_scale_with_the_payload() {
        let g = PimGeometry::paper();
        let small = paper(CollectiveKind::AllReduce, &g, 1024).total_wire_bytes();
        let large = paper(CollectiveKind::AllReduce, &g, 4096).total_wire_bytes();
        let ratio = large.as_u64() as f64 / small.as_u64() as f64;
        assert!((ratio - 4.0).abs() < 0.1, "ratio = {ratio}");
        let g = PimGeometry::paper_scaled(32);
        let a = paper(CollectiveKind::AllGather, &g, 64).total_wire_bytes();
        let b = paper(CollectiveKind::AllGather, &g, 128).total_wire_bytes();
        assert_eq!(b.as_u64(), a.as_u64() * 2);
    }

    #[test]
    fn tiny_payloads_still_build() {
        // Fewer elements than banks: no transfer may carry an empty span.
        let s = paper(CollectiveKind::AllReduce, &PimGeometry::paper(), 3);
        assert!(s.step_count() > 0);
        assert!(s
            .phases
            .iter()
            .flat_map(|p| &p.steps)
            .flat_map(|st| &st.transfers)
            .all(|t| !t.src_span.is_empty()));
    }

    #[test]
    fn ablation_unidirectional_ring_halves_bank_bandwidth() {
        let g = PimGeometry::paper();
        let m = TimingModel::paper();
        let bi = allreduce_with(Composition::paper_allreduce(true, true), &g, 8192);
        let uni = allreduce_with(Composition::paper_allreduce(false, true), &g, 8192);
        let t_bi = m.time_schedule(&bi, SimTime::ZERO).inter_bank;
        let t_uni = m.time_schedule(&uni, SimTime::ZERO).inter_bank;
        let ratio = t_uni.ratio(t_bi);
        assert!(
            (1.6..2.4).contains(&ratio),
            "unidirectional bank tier should be ~2x slower, got {ratio:.2}"
        );
    }

    #[test]
    fn ablation_broadcast_beats_scatter_on_the_bus() {
        let g = PimGeometry::paper();
        let m = TimingModel::paper();
        let bcast = allreduce_with(Composition::paper_allreduce(true, true), &g, 8192);
        let scat = allreduce_with(Composition::paper_allreduce(true, false), &g, 8192);
        let t_b = m.time_schedule(&bcast, SimTime::ZERO).inter_rank;
        let t_s = m.time_schedule(&scat, SimTime::ZERO).inter_rank;
        assert!(
            t_s > t_b,
            "scatter+AG ({t_s}) should cost more bus time than broadcast ({t_b})"
        );
    }

    #[test]
    fn ablated_variants_stay_functionally_correct() {
        let g = PimGeometry::paper_scaled(256);
        let elems = 96usize;
        let expected: u64 = (1..=256).sum();
        for (bidir, bcast) in [(false, true), (true, false), (false, false)] {
            let s = allreduce_with(Composition::paper_allreduce(bidir, bcast), &g, elems);
            validate(&s).unwrap();
            let m = run_collective(&s, ReduceOp::Sum, |id| vec![u64::from(id.0) + 1; elems])
                .unwrap_or_else(|e| panic!("bidir={bidir} bcast={bcast}: {e}"));
            for id in s.participants() {
                assert!(
                    m.result(&s, id).iter().all(|&x| x == expected),
                    "bidir={bidir} bcast={bcast} node {id}"
                );
            }
        }
    }

    #[test]
    fn halving_doubling_is_logarithmic_and_loses_to_the_paper() {
        // Fewer steps do not help when the early steps saturate the shared
        // ring segments and the late steps flood the bus with unreduced
        // halves.
        let g = PimGeometry::paper();
        let halving = Composition::parse(HALVING).unwrap();
        let hd = allreduce_with(halving, &g, 8192);
        assert_eq!(hd.step_count(), 16); // 2 * log2(256)
        let m = TimingModel::paper();
        let t_paper = m
            .time_schedule(&paper(CollectiveKind::AllReduce, &g, 8192), SimTime::ZERO)
            .total();
        let t_hd = m.time_schedule(&hd, SimTime::ZERO).total();
        assert!(
            t_paper < t_hd,
            "the paper ({t_paper}) should beat halving-doubling ({t_hd})"
        );
        let one = allreduce_with(halving, &PimGeometry::paper_scaled(1), 64);
        assert_eq!(one.step_count(), 0);
    }

    #[test]
    fn pairwise_all_to_all_steps_are_symmetric_perfect_matchings() {
        let g = PimGeometry::paper_scaled(16);
        let s = paper(CollectiveKind::AllToAll, &g, 160);
        for phase in &s.phases[1..] {
            for step in &phase.steps {
                let mut senders = BTreeSet::new();
                for t in &step.transfers {
                    assert_eq!(t.dsts.len(), 1);
                    assert!(senders.insert(t.src), "duplicate sender");
                    // The partner transfer in the same step goes back.
                    assert!(
                        step.transfers
                            .iter()
                            .any(|u| u.src == t.dsts[0] && u.dsts[0] == t.src),
                        "pairwise exchange is not symmetric"
                    );
                }
                assert_eq!(senders.len(), 16);
            }
        }
    }

    #[test]
    fn all_to_all_chip_steps_are_chip_permutations() {
        let g = PimGeometry::paper_scaled(64); // 8 banks x 8 chips x 1 rank
        let s = paper(CollectiveKind::AllToAll, &g, 64 * 8);
        assert_eq!(s.phases[2].label, PhaseLabel::InterChip);
        for step in &s.phases[2].steps {
            // Each chip's Tx channel pairs with exactly one Rx chip.
            let mut tx_to_rx: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
            for t in &step.transfers {
                let (mut tx, mut rx) = (None, None);
                for r in &t.resources {
                    match r {
                        Resource::ChipTx { chip } => tx = Some(chip.chip),
                        Resource::ChipRx { chip } => rx = Some(chip.chip),
                        other => panic!("unexpected resource {other} in inter-chip step"),
                    }
                }
                tx_to_rx.entry(tx.unwrap()).or_default().insert(rx.unwrap());
            }
            assert!(tx_to_rx.values().all(|rxs| rxs.len() == 1));
        }
    }

    #[test]
    fn all_to_all_rejects_non_power_of_two_dims() {
        let g = PimGeometry::new(3, 8, 4, 1);
        assert!(matches!(
            CommSchedule::build(CollectiveKind::AllToAll, &g, 96, 4),
            Err(PimnetError::InvalidGeometry { .. })
        ));
    }

    // ---- The ring tier's generators ----

    fn ring(k: u32) -> (PimGeometry, Vec<DpuId>) {
        (PimGeometry::new(k, 1, 1, 1), (0..k).map(DpuId).collect())
    }

    fn bank_ctx(g: &PimGeometry) -> TierCtx<'_> {
        TierCtx {
            g,
            wire: Wire::BankRing(None),
        }
    }

    #[test]
    fn ring_reduce_scatter_steps_and_owners() {
        let (g, n) = ring(4);
        let parent = Span::new(0, 16);
        let chunks = parent.split(4);
        let (steps, owned) = tier_reduce_scatter(TierAlgo::Ring, bank_ctx(&g), &n, parent).unwrap();
        assert_eq!(steps.len(), 3);
        assert_eq!(owned, [chunks[1], chunks[2], chunks[3], chunks[0]]);
        for step in &steps {
            // One send per node, each node receiving once, all reducing.
            assert!(step.iter().all(|t| t.combine));
            let srcs: BTreeSet<_> = step.iter().map(|t| t.src).collect();
            let dsts: BTreeSet<_> = step.iter().map(|t| t.dsts[0]).collect();
            assert_eq!((step.len(), srcs.len(), dsts.len()), (4, 4, 4));
        }
    }

    #[test]
    fn ring_reduce_scatter_chunks_reach_their_owner_fully_reduced() {
        // Symbolically fold contributions per (node, chunk): the owner
        // ends with all k of them.
        let k = 5;
        let (g, n) = ring(k as u32);
        let parent = Span::new(0, 25);
        let chunks = parent.split(k);
        let (steps, owned) = tier_reduce_scatter(TierAlgo::Ring, bank_ctx(&g), &n, parent).unwrap();
        let mut contrib: Vec<Vec<BTreeSet<usize>>> = (0..k)
            .map(|i| (0..k).map(|_| BTreeSet::from([i])).collect())
            .collect();
        for step in &steps {
            let snapshot = contrib.clone();
            for t in step {
                let chunk = chunks.iter().position(|c| *c == t.src_span).unwrap();
                let incoming = snapshot[t.src.index()][chunk].clone();
                contrib[t.dsts[0].index()][chunk].extend(incoming);
            }
        }
        for (i, own) in owned.iter().enumerate() {
            let chunk = chunks.iter().position(|c| c == own).unwrap();
            assert_eq!(
                contrib[i][chunk].len(),
                k,
                "node {i} chunk {chunk} incomplete"
            );
        }
    }

    #[test]
    fn ring_all_gather_distributes_every_chunk_everywhere() {
        let k = 6;
        let (g, n) = ring(k as u32);
        let parent = Span::new(0, 36);
        let chunks = parent.split(k);
        let steps = tier_all_gather(TierAlgo::Ring, bank_ctx(&g), &n, parent);
        assert_eq!(steps.len(), k - 1);
        // Position i starts with the chunk the reduce-scatter left it.
        let mut holds: Vec<BTreeSet<usize>> =
            (0..k).map(|i| BTreeSet::from([(i + 1) % k])).collect();
        for step in &steps {
            let snapshot = holds.clone();
            for t in step {
                assert!(!t.combine);
                let chunk = chunks.iter().position(|c| *c == t.src_span).unwrap();
                assert!(
                    snapshot[t.src.index()].contains(&chunk),
                    "node sent a chunk it does not hold"
                );
                holds[t.dsts[0].index()].insert(chunk);
            }
        }
        assert!(holds.iter().all(|h| h.len() == k));
    }

    #[test]
    fn single_node_ring_is_trivial() {
        let (g, n) = ring(1);
        let parent = Span::new(0, 8);
        let (steps, owned) = tier_reduce_scatter(TierAlgo::Ring, bank_ctx(&g), &n, parent).unwrap();
        assert!(steps.is_empty());
        assert_eq!(owned, [parent]);
        assert!(tier_all_gather(TierAlgo::Ring, bank_ctx(&g), &n, parent).is_empty());
    }
}
