//! Per-tier collective algorithm library and hierarchical composition.
//!
//! The paper fixes one hand-crafted schedule per collective (Table V).
//! Real communication stacks instead compose an algorithm *per topology
//! dimension* and pick the winner per (geometry, payload) — ASTRA-sim's
//! `ring_doubleBinaryTree` spellings are the exemplar. This module adds
//! that layer: four per-tier builders —
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
use crate::topology::{chip_path, rank_path, ring_path, shorter_direction, Resource};

use super::ring::{ring_all_gather, ring_reduce_scatter};
use super::{alltoall, CommSchedule, CommStep, Phase, PhaseLabel, Span, Transfer};

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

/// One algorithm per hierarchy dimension, spelled `bank_chip_rank`
/// (e.g. `ring_direct_dbtree`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Composition {
    /// Inter-bank (intra-chip ring) tier algorithm.
    pub bank: TierAlgo,
    /// Inter-chip (crossbar) tier algorithm.
    pub chip: TierAlgo,
    /// Inter-rank (bus) tier algorithm.
    pub rank: TierAlgo,
}

impl Composition {
    /// The all-ring composition (closest to the paper's Table V).
    pub const RING: Composition = Composition {
        bank: TierAlgo::Ring,
        chip: TierAlgo::Ring,
        rank: TierAlgo::Ring,
    };

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
    /// Intra-chip ring segments, shorter direction per pair.
    BankRing,
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
    fn path(&self, src: DpuId, dst: DpuId) -> Vec<Resource> {
        match self.wire {
            Wire::BankRing => {
                let (a, b) = (self.g.coord(src).bank, self.g.coord(dst).bank);
                ring_path(
                    self.g,
                    src,
                    dst,
                    shorter_direction(self.g.banks_per_chip, a, b),
                )
            }
            Wire::ChipXbar => chip_path(self.g, src, dst),
            Wire::RankBus => rank_path(self.g, src, &[dst]),
        }
    }

    /// One transfer of `span` from `src` to `dsts`: a single broadcast on
    /// the bus, one unicast per destination elsewhere.
    fn sends(&self, src: DpuId, dsts: &[DpuId], span: Span, combine: bool) -> Vec<Transfer> {
        if dsts.is_empty() || span.is_empty() {
            return Vec::new();
        }
        if self.wire == Wire::RankBus {
            return vec![Transfer {
                src,
                dsts: dsts.to_vec(),
                src_span: span,
                dst_span: span,
                combine,
                resources: rank_path(self.g, src, dsts),
            }];
        }
        dsts.iter()
            .map(|&dst| Transfer {
                src,
                dsts: vec![dst],
                src_span: span,
                dst_span: span,
                combine,
                resources: self.path(src, dst),
            })
            .collect()
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
            let chunks = parent.split(k);
            let (steps, owners) =
                ring_reduce_scatter(nodes, &chunks, |src, dst| ctx.path(src, dst));
            let owned = owners.iter().map(|&o| chunks[o]).collect();
            Ok((steps, owned))
        }
        TierAlgo::Direct => {
            let chunks = parent.split(k);
            let mut transfers = Vec::new();
            for (i, &src) in nodes.iter().enumerate() {
                for (j, &dst) in nodes.iter().enumerate() {
                    if i != j {
                        transfers.extend(ctx.sends(src, &[dst], chunks[j], true));
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
            let chunks = parent.split(k);
            let owners: Vec<usize> = (0..k).map(|i| (i + 1) % k).collect();
            ring_all_gather(nodes, &chunks, &owners, |src, dst| ctx.path(src, dst))
        }
        TierAlgo::Direct => {
            let chunks = parent.split(k);
            let mut transfers = Vec::new();
            for (i, &src) in nodes.iter().enumerate() {
                let dsts: Vec<DpuId> = nodes
                    .iter()
                    .copied()
                    .enumerate()
                    .filter_map(|(j, n)| (j != i).then_some(n))
                    .collect();
                transfers.extend(ctx.sends(src, &dsts, chunks[i], false));
            }
            vec![transfers]
        }
        TierAlgo::Rabenseifner => doubling_all_gather(ctx, nodes, parent),
        TierAlgo::DoubleBinaryTree => Vec::new(),
    }
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
            transfers.extend(ctx.sends(nodes[i], &[nodes[p]], send, true));
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
            transfers.extend(ctx.sends(nodes[i], &[nodes[p]], s, false));
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
                    transfers.extend(ctx.sends(nodes[p], &[nodes[parent_p]], half, true));
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
                    transfers.extend(ctx.sends(nodes[parent_p], &[nodes[p]], half, false));
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
                .map(|s| ctx.sends(nodes[s], &[nodes[s + 1]], span, false))
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
                            transfers.extend(ctx.sends(nodes[src], &[nodes[dst]], half, false));
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

/// Per-step transfer lists plus every group position's owned-piece set
/// afterwards — the working state circulated by the set-based tiers.
type StepsAndSets = (Vec<Vec<Transfer>>, Vec<Vec<Span>>);

/// Group-local allgather over per-position piece *sets* (AllGather-style
/// buffers hold many owner-indexed pieces). Returns the steps and every
/// position's set afterwards, in canonical (group-order) concatenation.
fn tier_all_gather_sets(
    algo: TierAlgo,
    ctx: TierCtx<'_>,
    nodes: &[DpuId],
    sets: &[Vec<Span>],
) -> Result<StepsAndSets, PimnetError> {
    let k = nodes.len();
    let union: Vec<Span> = sets.iter().flatten().copied().collect();
    if k <= 1 {
        return Ok((Vec::new(), vec![union; k]));
    }
    match algo {
        TierAlgo::Ring => {
            // Circulate original sets: position i forwards the set it
            // received last step (starting with its own), like the
            // paper's piece-set rings.
            let mut cur: Vec<usize> = (0..k).collect();
            let mut steps = Vec::new();
            for _ in 0..k - 1 {
                let mut transfers = Vec::new();
                let mut next = cur.clone();
                for (i, &src) in nodes.iter().enumerate() {
                    let dst_i = (i + 1) % k;
                    for &span in &sets[cur[i]] {
                        transfers.extend(ctx.sends(src, &[nodes[dst_i]], span, false));
                    }
                    next[dst_i] = cur[i];
                }
                cur = next;
                steps.push(transfers);
            }
            Ok((steps, vec![union; k]))
        }
        TierAlgo::Direct => {
            let mut transfers = Vec::new();
            for (i, &src) in nodes.iter().enumerate() {
                let dsts: Vec<DpuId> = nodes
                    .iter()
                    .copied()
                    .enumerate()
                    .filter_map(|(j, n)| (j != i).then_some(n))
                    .collect();
                for &span in &sets[i] {
                    transfers.extend(ctx.sends(src, &dsts, span, false));
                }
            }
            Ok((vec![transfers], vec![union; k]))
        }
        TierAlgo::Rabenseifner => {
            require_pow2(ctx.g, k, "recursive-doubling allgather")?;
            let mut acc: Vec<Vec<Span>> = sets.to_vec();
            let mut steps = Vec::new();
            let mut d = 1usize;
            while d < k {
                let mut transfers = Vec::new();
                for (i, &src) in nodes.iter().enumerate() {
                    let p = i ^ d;
                    for &span in &acc[i] {
                        transfers.extend(ctx.sends(src, &[nodes[p]], span, false));
                    }
                }
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
                steps.push(transfers);
                d <<= 1;
            }
            Ok((steps, acc))
        }
        TierAlgo::DoubleBinaryTree => Err(PimnetError::ScheduleInvalid {
            reason: "double binary tree does not apply to allgather tiers".into(),
        }),
    }
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

/// Banks of one chip, in ring order.
fn bank_group(g: &PimGeometry, rank: u32, chip: u32) -> Vec<DpuId> {
    (0..g.banks_per_chip)
        .map(|b| at(g, rank, chip, b))
        .collect()
}

/// Bank `bank` of every chip of one rank (the logical crossbar ring).
fn chip_group(g: &PimGeometry, rank: u32, bank: u32) -> Vec<DpuId> {
    (0..g.chips_per_rank)
        .map(|c| at(g, rank, c, bank))
        .collect()
}

/// The rank twins of one (chip, bank) position.
fn rank_group(g: &PimGeometry, chip: u32, bank: u32) -> Vec<DpuId> {
    (0..g.ranks_per_channel)
        .map(|r| at(g, r, chip, bank))
        .collect()
}

/// Extends `acc` step-wise with `steps` (parallel groups share steps).
fn merge_steps(acc: &mut Vec<Vec<Transfer>>, steps: Vec<Vec<Transfer>>) {
    for (s, transfers) in steps.into_iter().enumerate() {
        if acc.len() <= s {
            acc.resize_with(s + 1, Vec::new);
        }
        acc[s].extend(transfers);
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
/// spliced in chunk order).
///
/// The output is a standard [`CommSchedule`]: it passes
/// [`validate`](super::validate::validate), executes bit-identical to
/// the functional reference, and feeds the timeline/boost/analysis
/// machinery unchanged.
///
/// # Errors
///
/// * [`PimnetError::InvalidGeometry`] — multi-channel geometry, or a
///   Rabenseifner tier whose group size is not a power of two.
/// * [`PimnetError::InvalidMessage`] — zero-sized elements, or
///   `chunks > 1` for a collective other than AllReduce.
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
    match kind {
        CollectiveKind::AllReduce => build_allreduce(geometry, elems, elem_bytes, comp, chunks),
        CollectiveKind::ReduceScatter => build_reduce_scatter(geometry, elems, elem_bytes, comp),
        CollectiveKind::AllGather => build_all_gather(geometry, elems, elem_bytes, comp),
        CollectiveKind::Broadcast => build_broadcast(geometry, elems, elem_bytes, comp),
        // applies_to admits only the all-direct composition, which is
        // exactly the paper's pairwise exchange.
        CollectiveKind::AllToAll => alltoall::build(geometry, elems, elem_bytes),
        CollectiveKind::Reduce | CollectiveKind::Gather => unreachable!("applies_to rejected"),
    }
}

/// The reduce-scatter half of the hierarchy (bank then chip tiers),
/// shared by AllReduce and ReduceScatter. Mutates `owned` (the current
/// span per node) and returns the two phases plus the snapshot of
/// bank-tier ownership (the chip tier's parent spans, needed by the
/// mirror allgather).
fn up_phases(
    g: &PimGeometry,
    comp: Composition,
    owned: &mut [Span],
) -> Result<(Vec<Phase>, Vec<Span>), PimnetError> {
    let bank_ctx = TierCtx {
        g,
        wire: Wire::BankRing,
    };
    let chip_ctx = TierCtx {
        g,
        wire: Wire::ChipXbar,
    };
    let mut phases = Vec::new();

    let mut bank_steps = Vec::new();
    for rank in 0..g.ranks_per_channel {
        for chip in 0..g.chips_per_rank {
            let nodes = bank_group(g, rank, chip);
            let parent = owned[nodes[0].index()];
            let (steps, new_owned) = tier_reduce_scatter(comp.bank, bank_ctx, &nodes, parent)?;
            merge_steps(&mut bank_steps, steps);
            for (pos, n) in nodes.iter().enumerate() {
                owned[n.index()] = new_owned[pos];
            }
        }
    }
    phases.push(into_phase(
        PhaseLabel::InterBank,
        bank_steps,
        bank_multiplexed(comp.bank),
    ));

    let bank_owned = owned.to_vec();
    let mut chip_steps = Vec::new();
    for rank in 0..g.ranks_per_channel {
        for bank in 0..g.banks_per_chip {
            let nodes = chip_group(g, rank, bank);
            let parent = owned[nodes[0].index()];
            let (steps, new_owned) = tier_reduce_scatter(comp.chip, chip_ctx, &nodes, parent)?;
            merge_steps(&mut chip_steps, steps);
            for (pos, n) in nodes.iter().enumerate() {
                owned[n.index()] = new_owned[pos];
            }
        }
    }
    phases.push(into_phase(PhaseLabel::InterChip, chip_steps, true));
    Ok((phases, bank_owned))
}

/// The mirror allgather phases (chip then bank tiers) restoring every
/// node's span from `bank_owned` back up to `root` (the tier parent).
fn down_phases(g: &PimGeometry, comp: Composition, bank_owned: &[Span], root: Span) -> Vec<Phase> {
    let bank_ctx = TierCtx {
        g,
        wire: Wire::BankRing,
    };
    let chip_ctx = TierCtx {
        g,
        wire: Wire::ChipXbar,
    };
    let mut phases = Vec::new();

    let mut chip_steps = Vec::new();
    for rank in 0..g.ranks_per_channel {
        for bank in 0..g.banks_per_chip {
            let nodes = chip_group(g, rank, bank);
            let parent = bank_owned[nodes[0].index()];
            merge_steps(
                &mut chip_steps,
                tier_all_gather(comp.chip, chip_ctx, &nodes, parent),
            );
        }
    }
    phases.push(into_phase(PhaseLabel::InterChip, chip_steps, true));

    let mut bank_steps = Vec::new();
    for rank in 0..g.ranks_per_channel {
        for chip in 0..g.chips_per_rank {
            let nodes = bank_group(g, rank, chip);
            merge_steps(
                &mut bank_steps,
                tier_all_gather(comp.bank, bank_ctx, &nodes, root),
            );
        }
    }
    phases.push(into_phase(
        PhaseLabel::InterBank,
        bank_steps,
        bank_multiplexed(comp.bank),
    ));
    phases
}

/// The inter-rank middle of a composed AllReduce: reduce (and
/// re-distribute) every node's chip-tier span across its rank twins.
/// Direct uses the paper's one-pass broadcast-reduce; ring and
/// Rabenseifner run an explicit reduce-scatter + allgather on the bus;
/// double binary tree reduces up and broadcasts down. All leave `owned`
/// unchanged (each node ends holding its full chip-tier span, reduced
/// across ranks).
fn rank_mid_phase(
    g: &PimGeometry,
    rank_algo: TierAlgo,
    owned: &[Span],
) -> Result<Option<Phase>, PimnetError> {
    let ranks = g.ranks_per_channel;
    if ranks <= 1 {
        return Ok(None);
    }
    let ctx = TierCtx {
        g,
        wire: Wire::RankBus,
    };
    let mut steps: Vec<Vec<Transfer>> = Vec::new();
    match rank_algo {
        TierAlgo::Direct => {
            // The paper's scheme: every rank broadcasts its partial, every
            // twin reduces in place. All broadcasts read the *pre-phase*
            // partials, so they share one step's snapshot semantics (the
            // bus still serializes them; occupancy accounts for it).
            let mut transfers = Vec::new();
            for chip in 0..g.chips_per_rank {
                for bank in 0..g.banks_per_chip {
                    let nodes = rank_group(g, chip, bank);
                    for (i, &src) in nodes.iter().enumerate() {
                        let dsts: Vec<DpuId> = nodes
                            .iter()
                            .copied()
                            .enumerate()
                            .filter_map(|(j, n)| (j != i).then_some(n))
                            .collect();
                        transfers.extend(ctx.sends(src, &dsts, owned[src.index()], true));
                    }
                }
            }
            steps.push(transfers);
        }
        TierAlgo::Ring | TierAlgo::Rabenseifner => {
            for chip in 0..g.chips_per_rank {
                for bank in 0..g.banks_per_chip {
                    let nodes = rank_group(g, chip, bank);
                    let parent = owned[nodes[0].index()];
                    let (rs, _) = tier_reduce_scatter(rank_algo, ctx, &nodes, parent)?;
                    merge_steps(&mut steps, rs);
                }
            }
            let rs_len = steps.len();
            for chip in 0..g.chips_per_rank {
                for bank in 0..g.banks_per_chip {
                    let nodes = rank_group(g, chip, bank);
                    let parent = owned[nodes[0].index()];
                    let ag = tier_all_gather(rank_algo, ctx, &nodes, parent);
                    for (s, transfers) in ag.into_iter().enumerate() {
                        let idx = rs_len + s;
                        if steps.len() <= idx {
                            steps.resize_with(idx + 1, Vec::new);
                        }
                        steps[idx].extend(transfers);
                    }
                }
            }
        }
        TierAlgo::DoubleBinaryTree => {
            for chip in 0..g.chips_per_rank {
                for bank in 0..g.banks_per_chip {
                    let nodes = rank_group(g, chip, bank);
                    let parent = owned[nodes[0].index()];
                    merge_steps(&mut steps, dbtree_allreduce(ctx, &nodes, parent));
                }
            }
        }
    }
    Ok(Some(into_phase(PhaseLabel::InterRank, steps, true)))
}

fn build_allreduce(
    g: &PimGeometry,
    elems: usize,
    elem_bytes: u32,
    comp: Composition,
    chunks: usize,
) -> Result<CommSchedule, PimnetError> {
    let total = g.total_dpus() as usize;
    let mut phases = Vec::new();
    for chunk in Span::new(0, elems).split(chunks) {
        let mut owned = vec![chunk; total];
        let (up, bank_owned) = up_phases(g, comp, &mut owned)?;
        phases.extend(up);
        if let Some(mid) = rank_mid_phase(g, comp.rank, &owned)? {
            phases.push(mid);
        }
        phases.extend(down_phases(g, comp, &bank_owned, chunk));
    }
    phases.retain(|p| !p.steps.is_empty());
    let full = Span::new(0, elems);
    Ok(CommSchedule {
        kind: CollectiveKind::AllReduce,
        geometry: *g,
        elems_per_node: elems,
        elem_bytes,
        buffer_len: elems,
        result_spans: vec![vec![full]; total],
        phases,
    })
}

fn build_reduce_scatter(
    g: &PimGeometry,
    elems: usize,
    elem_bytes: u32,
    comp: Composition,
) -> Result<CommSchedule, PimnetError> {
    let total = g.total_dpus() as usize;
    let mut owned = vec![Span::new(0, elems); total];
    let (mut phases, _bank_owned) = up_phases(g, comp, &mut owned)?;

    let ranks = g.ranks_per_channel;
    if ranks > 1 {
        let ctx = TierCtx {
            g,
            wire: Wire::RankBus,
        };
        let mut steps: Vec<Vec<Transfer>> = Vec::new();
        for chip in 0..g.chips_per_rank {
            for bank in 0..g.banks_per_chip {
                let nodes = rank_group(g, chip, bank);
                let parent = owned[nodes[0].index()];
                let (rs, new_owned) = tier_reduce_scatter(comp.rank, ctx, &nodes, parent)?;
                merge_steps(&mut steps, rs);
                for (pos, n) in nodes.iter().enumerate() {
                    owned[n.index()] = new_owned[pos];
                }
            }
        }
        phases.push(into_phase(PhaseLabel::InterRank, steps, true));
    }

    phases.retain(|p| !p.steps.is_empty());
    let mut result_spans: Vec<Vec<Span>> = vec![Vec::new(); total];
    for (i, span) in owned.iter().enumerate() {
        if !span.is_empty() {
            result_spans[i].push(*span);
        }
    }
    Ok(CommSchedule {
        kind: CollectiveKind::ReduceScatter,
        geometry: *g,
        elems_per_node: elems,
        elem_bytes,
        buffer_len: elems,
        result_spans,
        phases,
    })
}

fn build_all_gather(
    g: &PimGeometry,
    elems: usize,
    elem_bytes: u32,
    comp: Composition,
) -> Result<CommSchedule, PimnetError> {
    let total = g.total_dpus() as usize;
    let buffer_len = total * elems;
    let piece = |id: DpuId| Span::new(id.index() * elems, elems);
    let mut sets: Vec<Vec<Span>> = g.dpus().map(|id| vec![piece(id)]).collect();
    let mut phases = Vec::new();

    // Rank tier first (pieces are still one per node), then chip, then
    // bank — the paper's AllGather order, with the tier algorithm free.
    if g.ranks_per_channel > 1 {
        let ctx = TierCtx {
            g,
            wire: Wire::RankBus,
        };
        let mut steps = Vec::new();
        for chip in 0..g.chips_per_rank {
            for bank in 0..g.banks_per_chip {
                let nodes = rank_group(g, chip, bank);
                let group_sets: Vec<Vec<Span>> =
                    nodes.iter().map(|n| sets[n.index()].clone()).collect();
                let (s, new_sets) = tier_all_gather_sets(comp.rank, ctx, &nodes, &group_sets)?;
                merge_steps(&mut steps, s);
                for (pos, n) in nodes.iter().enumerate() {
                    sets[n.index()] = new_sets[pos].clone();
                }
            }
        }
        phases.push(into_phase(PhaseLabel::InterRank, steps, true));
    }

    if g.chips_per_rank > 1 {
        let ctx = TierCtx {
            g,
            wire: Wire::ChipXbar,
        };
        let mut steps = Vec::new();
        for rank in 0..g.ranks_per_channel {
            for bank in 0..g.banks_per_chip {
                let nodes = chip_group(g, rank, bank);
                let group_sets: Vec<Vec<Span>> =
                    nodes.iter().map(|n| sets[n.index()].clone()).collect();
                let (s, new_sets) = tier_all_gather_sets(comp.chip, ctx, &nodes, &group_sets)?;
                merge_steps(&mut steps, s);
                for (pos, n) in nodes.iter().enumerate() {
                    sets[n.index()] = new_sets[pos].clone();
                }
            }
        }
        phases.push(into_phase(PhaseLabel::InterChip, steps, true));
    }

    if g.banks_per_chip > 1 {
        let ctx = TierCtx {
            g,
            wire: Wire::BankRing,
        };
        let mut steps = Vec::new();
        for rank in 0..g.ranks_per_channel {
            for chip in 0..g.chips_per_rank {
                let nodes = bank_group(g, rank, chip);
                let group_sets: Vec<Vec<Span>> =
                    nodes.iter().map(|n| sets[n.index()].clone()).collect();
                let (s, new_sets) = tier_all_gather_sets(comp.bank, ctx, &nodes, &group_sets)?;
                merge_steps(&mut steps, s);
                for (pos, n) in nodes.iter().enumerate() {
                    sets[n.index()] = new_sets[pos].clone();
                }
            }
        }
        phases.push(into_phase(
            PhaseLabel::InterBank,
            steps,
            bank_multiplexed(comp.bank),
        ));
    }

    phases.retain(|p| !p.steps.is_empty());
    let full = Span::new(0, buffer_len);
    Ok(CommSchedule {
        kind: CollectiveKind::AllGather,
        geometry: *g,
        elems_per_node: elems,
        elem_bytes,
        buffer_len,
        result_spans: vec![vec![full]; total],
        phases,
    })
}

fn build_broadcast(
    g: &PimGeometry,
    elems: usize,
    elem_bytes: u32,
    comp: Composition,
) -> Result<CommSchedule, PimnetError> {
    let root = DpuId(0);
    let root_coord = g.coord(root);
    let total = g.total_dpus() as usize;
    let chips = g.chips_per_rank;
    let chunks = Span::new(0, elems).split(chips as usize);
    let mut phases = Vec::new();
    let chip_ctx = TierCtx {
        g,
        wire: Wire::ChipXbar,
    };
    let bus_ctx = TierCtx {
        g,
        wire: Wire::RankBus,
    };
    let bank_ctx = TierCtx {
        g,
        wire: Wire::BankRing,
    };

    // ---- Phase 1 (fixed): root scatters one chunk per chip leader of
    // its rank, exactly as in the paper's Table V broadcast.
    if chips > 1 {
        let mut transfers = Vec::new();
        for c in 0..chips {
            if c != root_coord.chip {
                let dst = at(g, root_coord.rank, c, 0);
                transfers.extend(chip_ctx.sends(root, &[dst], chunks[c as usize], false));
            }
        }
        phases.push(into_phase(PhaseLabel::InterChip, vec![transfers], true));
    }

    // ---- Phase 2: each chip leader delivers its chunk to its rank
    // twins (holder-first group order so ring pipelining starts at the
    // leader that owns the chunk).
    if g.ranks_per_channel > 1 {
        let mut steps = Vec::new();
        for c in 0..chips {
            let nodes: Vec<DpuId> = (0..g.ranks_per_channel)
                .map(|dr| at(g, (root_coord.rank + dr) % g.ranks_per_channel, c, 0))
                .collect();
            merge_steps(
                &mut steps,
                fan_out(comp.rank, bus_ctx, &nodes, chunks[c as usize]),
            );
        }
        phases.push(into_phase(PhaseLabel::InterRank, steps, true));
    }

    // ---- Phase 3: chip-tier allgather completes every leader's copy.
    if chips > 1 {
        let mut steps = Vec::new();
        for rank in 0..g.ranks_per_channel {
            let nodes = chip_group(g, rank, 0);
            let group_sets: Vec<Vec<Span>> = (0..chips as usize).map(|c| vec![chunks[c]]).collect();
            let (s, _) = tier_all_gather_sets(comp.chip, chip_ctx, &nodes, &group_sets)?;
            merge_steps(&mut steps, s);
        }
        phases.push(into_phase(PhaseLabel::InterChip, steps, true));
    }

    // ---- Phase 4: leaders fan the full message around their bank ring.
    if g.banks_per_chip > 1 {
        let mut steps = Vec::new();
        for rank in 0..g.ranks_per_channel {
            for chip in 0..chips {
                let nodes = bank_group(g, rank, chip);
                merge_steps(
                    &mut steps,
                    fan_out(comp.bank, bank_ctx, &nodes, Span::new(0, elems)),
                );
            }
        }
        phases.push(into_phase(
            PhaseLabel::InterBank,
            steps,
            bank_multiplexed(comp.bank),
        ));
    }

    phases.retain(|p| !p.steps.is_empty());
    Ok(CommSchedule {
        kind: CollectiveKind::Broadcast,
        geometry: *g,
        elems_per_node: elems,
        elem_bytes,
        buffer_len: elems,
        result_spans: vec![vec![Span::new(0, elems)]; total],
        phases,
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
}
