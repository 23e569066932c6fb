//! Static communication schedules — PIMnet's replacement for routing,
//! buffering and arbitration.
//!
//! A [`CommSchedule`] is the compiled form of one collective operation:
//! an ordered list of [`Phase`]s (one per network tier the collective
//! touches), each a list of [`CommStep`]s, each a set of [`Transfer`]s that
//! run concurrently. Because the traffic pattern of a collective is known
//! before the PIM kernel launches (paper §IV), the schedule is computed
//! offline — on the host, at "compile" time — and the hardware merely plays
//! it back: this is what lets the PIMnet stop omit input buffers,
//! arbitration, and routing logic entirely.
//!
//! Every collective of the paper's Table V is one composition of the
//! per-tier algorithm library in [`algos`] ([`Composition::paper`]):
//!
//! | collective     | inter-bank | inter-chip   | inter-rank |
//! |----------------|-----------|---------------|------------|
//! | ReduceScatter  | ring      | ring          | broadcast  |
//! | AllGather      | ring      | ring          | broadcast  |
//! | AllReduce      | ring      | ring          | broadcast  |
//! | All-to-All     | ring      | permutation   | unicast    |
//! | Broadcast      | ring      | ring          | broadcast  |
//!
//! Reduce and Gather, which Table V leaves out, converge on a root DPU.
//!
//! Schedules are *functional* objects as well as timing objects: every
//! transfer names the element ranges it moves, so [`crate::exec`] can run a
//! schedule on real data and tests can assert collective semantics
//! end-to-end.

mod address;
pub mod algos;
pub mod autotune;
pub mod boost;
pub mod cache;
mod converge;
pub mod repair;
pub mod soa;
pub mod validate;

pub use address::{AllReduceAddressPlan, BankAddressInfo, PhaseAddr, TierTimes};
pub use algos::{build_composed, build_composed_chunked, Composition, TierAlgo};
pub use boost::{BoostPlan, StepFacts};
pub use soa::{FlatSchedule, ScheduleHeader, ScheduleView, StepRef, TransferRef};

use std::fmt;

use pim_sim::Bytes;

use pim_arch::geometry::{DpuId, PimGeometry};

use crate::collective::CollectiveKind;
use crate::error::PimnetError;
use crate::topology::Resource;

/// A contiguous range of elements within a node's communication buffer.
///
/// (A `Copy` stand-in for `Range<usize>`, which is not `Copy`.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Span {
    /// First element index.
    pub start: usize,
    /// Number of elements.
    pub len: usize,
}

impl Span {
    /// Creates a span.
    #[must_use]
    pub const fn new(start: usize, len: usize) -> Self {
        Span { start, len }
    }

    /// One-past-the-end element index.
    #[must_use]
    pub const fn end(self) -> usize {
        self.start + self.len
    }

    /// True iff the span covers no elements.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The span as a `std::ops::Range` for indexing.
    #[must_use]
    pub fn range(self) -> std::ops::Range<usize> {
        self.start..self.end()
    }

    /// The span shifted right by `offset` elements.
    #[must_use]
    pub fn offset(self, offset: usize) -> Span {
        Span::new(self.start + offset, self.len)
    }

    /// Splits the span into `k` contiguous, near-equal pieces (earlier
    /// pieces get the remainder; pieces may be empty when `k > len`).
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn split(self, k: usize) -> Vec<Span> {
        assert!(k > 0, "Span::split: zero pieces");
        let base = self.len / k;
        let extra = self.len % k;
        let mut out = Vec::with_capacity(k);
        let mut start = self.start;
        for i in 0..k {
            let len = base + usize::from(i < extra);
            out.push(Span::new(start, len));
            start += len;
        }
        out
    }

    /// Splits the span into `k` pieces by *recursive halving* (`k` must
    /// be a power of two): the span is cut with [`Span::split`]`(2)`,
    /// then each half recursively, left before right.
    ///
    /// For lengths that are not a multiple of `k` this is **not** the
    /// same partition as [`Span::split`]: flat splitting gives all the
    /// remainder to the earliest pieces, while recursive halving pushes
    /// remainders down level by level (e.g. `len = 11, k = 8` flat-splits
    /// as `2,2,2,1,1,1,1,1` but halves as `2,1,2,1,2,1,1,1`). Halving /
    /// doubling exchanges (Rabenseifner) carve the payload recursively,
    /// so their builders must use this partition — mixing it with a
    /// flat chunk table silently corrupts ownership.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not a power of two.
    #[must_use]
    pub fn split_pow2(self, k: usize) -> Vec<Span> {
        assert!(
            k.is_power_of_two(),
            "Span::split_pow2: {k} pieces is not a power of two"
        );
        if k == 1 {
            return vec![self];
        }
        let halves = self.split(2);
        let mut out = halves[0].split_pow2(k / 2);
        out.extend(halves[1].split_pow2(k / 2));
        out
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{})", self.start, self.end())
    }
}

/// One scheduled data movement: `src` sends `src_span` of its buffer to
/// every node in `dsts` (more than one destination = a bus broadcast),
/// landing at `dst_span`, optionally combined (reduced) with the
/// destination's existing data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transfer {
    /// Sending DPU.
    pub src: DpuId,
    /// Receiving DPU(s); more than one only on the broadcast-capable
    /// inter-rank bus.
    pub dsts: Vec<DpuId>,
    /// Element range read at the source.
    pub src_span: Span,
    /// Element range written at every destination.
    pub dst_span: Span,
    /// `true`: destination reduces the payload into `dst_span`;
    /// `false`: destination overwrites `dst_span`.
    pub combine: bool,
    /// Every fabric resource this transfer occupies for its duration
    /// (bufferless stops mean multi-hop transfers hold their whole path).
    pub resources: Vec<Resource>,
}

impl Transfer {
    /// Wire bytes moved by this transfer (per destination; the bus delivers
    /// broadcasts in a single serialization).
    #[must_use]
    pub fn bytes(&self, elem_bytes: u32) -> Bytes {
        Bytes::new(self.src_span.len as u64 * u64::from(elem_bytes))
    }

    /// True for purely local movements (no fabric resources), e.g. the
    /// "own chunk" copy of an All-to-All.
    #[must_use]
    pub fn is_local(&self) -> bool {
        self.resources.is_empty()
    }
}

/// A set of transfers that run concurrently; the step completes when the
/// slowest finishes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CommStep {
    /// The concurrent transfers.
    pub transfers: Vec<Transfer>,
}

impl CommStep {
    /// Creates a step, dropping empty (zero-length) transfers.
    #[must_use]
    pub fn new(transfers: Vec<Transfer>) -> Self {
        CommStep {
            transfers: transfers
                .into_iter()
                .filter(|t| !t.src_span.is_empty())
                .collect(),
        }
    }

    /// True iff the step moves no data.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }
}

/// Which tier (and so which bucket of the paper's Fig 11 breakdown) a phase
/// belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseLabel {
    /// Local (in-WRAM) data movement; free in the network model.
    Local,
    /// Inter-bank ring traffic.
    InterBank,
    /// Inter-chip crossbar traffic.
    InterChip,
    /// Inter-rank bus traffic.
    InterRank,
}

impl PhaseLabel {
    /// Stable tier index for per-tier metrics arrays
    /// (`pim_sim::metrics::TIERS` slots, matching `metrics::tier_name`).
    #[must_use]
    pub const fn tier_index(self) -> usize {
        match self {
            PhaseLabel::Local => 0,
            PhaseLabel::InterBank => 1,
            PhaseLabel::InterChip => 2,
            PhaseLabel::InterRank => 3,
        }
    }
}

impl fmt::Display for PhaseLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PhaseLabel::Local => "local",
            PhaseLabel::InterBank => "inter-bank",
            PhaseLabel::InterChip => "inter-chip",
            PhaseLabel::InterRank => "inter-rank",
        };
        f.write_str(s)
    }
}

/// A run of steps on one tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Tier attribution for timing breakdowns.
    pub label: PhaseLabel,
    /// The steps, executed in order.
    pub steps: Vec<CommStep>,
    /// `true` when the schedule deliberately time-multiplexes shared
    /// resources within a step (the paper's WAIT-phase slot scheduling on
    /// the DQ channels and the bus); `false` when every resource in a step
    /// carries a single flow (the validator enforces this for ring phases).
    pub multiplexed: bool,
}

impl Phase {
    /// Creates a phase, dropping empty steps.
    #[must_use]
    pub fn new(label: PhaseLabel, steps: Vec<CommStep>, multiplexed: bool) -> Self {
        Phase {
            label,
            steps: steps.into_iter().filter(|s| !s.is_empty()).collect(),
            multiplexed,
        }
    }
}

/// A compiled collective: the complete, statically-scheduled communication
/// plan for one collective operation on one geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommSchedule {
    /// The collective this schedule implements.
    pub kind: CollectiveKind,
    /// The geometry it was compiled for.
    pub geometry: PimGeometry,
    /// Elements contributed per node.
    pub elems_per_node: usize,
    /// Element width in bytes.
    pub elem_bytes: u32,
    /// Per-node communication buffer length in elements (layout depends on
    /// the collective: `n` for AllReduce/ReduceScatter/Broadcast, `2n` for
    /// All-to-All (in + out regions), `N·n` for AllGather/Gather).
    pub buffer_len: usize,
    /// Where each node's *result* lives in its buffer after execution.
    pub result_spans: Vec<Vec<Span>>,
    /// The phases, executed in order.
    pub phases: Vec<Phase>,
}

impl CommSchedule {
    /// Compiles a collective for a geometry.
    ///
    /// This is the library's analogue of the paper's host-side "compilation"
    /// step (§V-D): given the pattern, the node count and the topology, it
    /// produces every address and every scheduled movement. The five Table V
    /// collectives are [`Composition::paper`] built by
    /// [`build_composed_chunked`]; Reduce and Gather converge on DPU 0.
    ///
    /// # Errors
    ///
    /// * [`PimnetError::InvalidGeometry`] — the geometry spans multiple
    ///   memory channels (PIMnet connects one channel; callers split
    ///   multi-channel collectives per channel and reduce through the host),
    ///   or All-to-All is requested on non-power-of-two dimensions.
    /// * [`PimnetError::InvalidMessage`] — zero-sized elements, or a
    ///   payload whose buffer or byte size overflows.
    pub fn build(
        kind: CollectiveKind,
        geometry: &PimGeometry,
        elems_per_node: usize,
        elem_bytes: u32,
    ) -> Result<CommSchedule, PimnetError> {
        if geometry.channels != 1 {
            return Err(PimnetError::InvalidGeometry {
                geometry: *geometry,
                reason: "PIMnet schedules span a single memory channel; \
                         build one schedule per channel"
                    .into(),
            });
        }
        if let Some(comp) = Composition::paper(kind) {
            return build_composed_chunked(kind, geometry, elems_per_node, elem_bytes, comp, 1);
        }
        // Reduce and Gather: the same element-size and overflow checks
        // `build_composed_chunked` makes for the Table V kinds.
        if elem_bytes == 0 {
            return Err(PimnetError::InvalidMessage {
                reason: "zero element size".into(),
            });
        }
        checked_buffer_len(kind, geometry, elems_per_node, elem_bytes)?;
        Ok(match kind {
            CollectiveKind::Reduce => converge::build_reduce(geometry, elems_per_node, elem_bytes),
            _ => converge::build_gather(geometry, elems_per_node, elem_bytes),
        })
    }

    /// Total bytes serialized onto fabric resources (bus broadcasts counted
    /// once, as the hardware sends them).
    #[must_use]
    pub fn total_wire_bytes(&self) -> Bytes {
        self.phases
            .iter()
            .flat_map(|p| &p.steps)
            .flat_map(|s| &s.transfers)
            .filter(|t| !t.is_local())
            .map(|t| t.bytes(self.elem_bytes))
            .sum()
    }

    /// Number of non-local transfers across all steps.
    #[must_use]
    pub fn transfer_count(&self) -> usize {
        self.phases
            .iter()
            .flat_map(|p| &p.steps)
            .map(|s| s.transfers.iter().filter(|t| !t.is_local()).count())
            .sum()
    }

    /// Number of steps across all phases.
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.phases.iter().map(|p| p.steps.len()).sum()
    }

    /// All participating DPUs (every DPU of the single channel).
    pub fn participants(&self) -> impl Iterator<Item = DpuId> {
        self.geometry.dpus()
    }
}

/// Splits `n` elements into `k` near-equal contiguous spans starting at 0.
#[must_use]
pub fn split_elems(n: usize, k: usize) -> Vec<Span> {
    Span::new(0, n).split(k)
}

/// Per-node buffer length of `kind` with `elems` per node (see
/// [`CommSchedule::buffer_len`]), or [`PimnetError::InvalidMessage`] when
/// it or its byte size overflows.
pub(crate) fn checked_buffer_len(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems: usize,
    elem_bytes: u32,
) -> Result<usize, PimnetError> {
    let total = geometry.total_dpus() as usize;
    let len = match kind {
        CollectiveKind::AllGather | CollectiveKind::Gather => total.checked_mul(elems),
        CollectiveKind::AllToAll => elems
            .div_ceil(total)
            .max(1)
            .checked_mul(total)
            .and_then(|padded| padded.checked_mul(2)),
        _ => Some(elems),
    };
    len.filter(|&n| {
        u64::try_from(n)
            .ok()
            .and_then(|n| n.checked_mul(u64::from(elem_bytes)))
            .is_some()
    })
    .ok_or_else(|| PimnetError::InvalidMessage {
        reason: format!(
            "{elems} elements of {elem_bytes} bytes per node overflow the {kind} buffer"
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_split_covers_exactly() {
        let s = Span::new(10, 23);
        let parts = s.split(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0], Span::new(10, 6));
        assert_eq!(parts[1], Span::new(16, 6));
        assert_eq!(parts[2], Span::new(22, 6));
        assert_eq!(parts[3], Span::new(28, 5));
        assert_eq!(parts.iter().map(|p| p.len).sum::<usize>(), 23);
        assert_eq!(parts.last().unwrap().end(), s.end());
    }

    #[test]
    fn span_split_smaller_than_k_yields_empties() {
        let parts = Span::new(0, 2).split(4);
        assert_eq!(parts.iter().filter(|p| p.is_empty()).count(), 2);
        assert_eq!(parts.iter().map(|p| p.len).sum::<usize>(), 2);
    }

    #[test]
    fn split_elems_handles_fewer_elems_than_parts() {
        // The n < k edge (fewer elements than participants) that repaired
        // and shrunk schedules hit with tiny payloads: every part exists,
        // the non-empty ones are contiguous from 0, and nothing panics.
        for (n, k) in [(0usize, 5usize), (1, 8), (3, 8), (7, 8), (8, 8)] {
            let parts = split_elems(n, k);
            assert_eq!(parts.len(), k, "n={n} k={k}");
            assert_eq!(parts.iter().map(|p| p.len).sum::<usize>(), n);
            let mut cursor = 0;
            for p in &parts {
                assert_eq!(p.start, cursor, "n={n} k={k}: gap before {p}");
                cursor = p.end();
            }
            if n < k {
                // Earlier parts absorb the remainder one element each; the
                // tail is empty rather than out of bounds.
                assert!(parts.iter().take(n).all(|p| p.len == 1));
                assert!(parts.iter().skip(n).all(|p| p.is_empty()));
            }
        }
    }

    #[test]
    fn split_pow2_covers_exactly_and_diverges_from_flat_split() {
        // The latent Rabenseifner trap: for non-power-of-two lengths the
        // flat and recursive partitions are different covers. Both must
        // tile the span; only the shapes differ.
        let s = Span::new(0, 11);
        let flat: Vec<usize> = s.split(8).iter().map(|p| p.len).collect();
        let rec: Vec<usize> = s.split_pow2(8).iter().map(|p| p.len).collect();
        assert_eq!(flat, vec![2, 2, 2, 1, 1, 1, 1, 1]);
        assert_eq!(rec, vec![2, 1, 2, 1, 2, 1, 1, 1]);
        for n in [0usize, 1, 3, 7, 11, 64, 193, 1030] {
            for k in [1usize, 2, 4, 8, 16] {
                let parts = Span::new(5, n).split_pow2(k);
                assert_eq!(parts.len(), k, "n={n} k={k}");
                let mut cursor = 5;
                for p in &parts {
                    assert_eq!(p.start, cursor, "n={n} k={k}");
                    cursor = p.end();
                }
                assert_eq!(cursor, 5 + n, "n={n} k={k}");
            }
        }
        // Power-of-two-multiple lengths agree with the flat split.
        assert_eq!(Span::new(0, 64).split_pow2(8), Span::new(0, 64).split(8));
    }

    #[test]
    #[should_panic(expected = "not a power of two")]
    fn split_pow2_rejects_non_power_of_two_k() {
        let _ = Span::new(0, 8).split_pow2(3);
    }

    #[test]
    fn span_helpers() {
        let s = Span::new(4, 4);
        assert_eq!(s.end(), 8);
        assert_eq!(s.range(), 4..8);
        assert_eq!(s.offset(10), Span::new(14, 4));
        assert_eq!(s.to_string(), "[4..8)");
        assert!(!s.is_empty());
        assert!(Span::new(9, 0).is_empty());
    }

    #[test]
    fn comm_step_drops_empty_transfers() {
        let t = Transfer {
            src: DpuId(0),
            dsts: vec![DpuId(1)],
            src_span: Span::new(0, 0),
            dst_span: Span::new(0, 0),
            combine: false,
            resources: vec![],
        };
        let step = CommStep::new(vec![t]);
        assert!(step.is_empty());
    }

    #[test]
    fn build_rejects_multichannel_geometry() {
        let g = PimGeometry::new(8, 8, 4, 2);
        let err = CommSchedule::build(CollectiveKind::AllReduce, &g, 64, 4).unwrap_err();
        assert!(matches!(err, PimnetError::InvalidGeometry { .. }));
    }

    #[test]
    fn build_rejects_zero_elem_bytes() {
        let g = PimGeometry::paper();
        let err = CommSchedule::build(CollectiveKind::AllReduce, &g, 64, 0).unwrap_err();
        assert!(matches!(err, PimnetError::InvalidMessage { .. }));
    }

    #[test]
    fn overflowing_payloads_are_invalid_messages() {
        // Every kind, in debug and release alike: a buffer or byte size
        // past the integer range is a typed error, never a panic or a
        // wrapped `buffer_len`.
        let g = PimGeometry::paper_scaled(8);
        let overflows = |built: Result<CommSchedule, PimnetError>| {
            matches!(built, Err(PimnetError::InvalidMessage { .. }))
        };
        for kind in CollectiveKind::ALL {
            assert!(
                overflows(CommSchedule::build(kind, &g, usize::MAX, 4)),
                "{kind}"
            );
            if let Some(comp) = Composition::paper(kind) {
                let built = build_composed(kind, &g, usize::MAX, 4, comp);
                assert!(overflows(built), "{kind} composed");
            }
        }
        // Unchecked, release builds wrap these to a zero-length buffer.
        for (kind, elems) in [
            (CollectiveKind::AllGather, usize::MAX / 8 + 1),
            (CollectiveKind::Gather, usize::MAX / 8 + 1),
            (CollectiveKind::AllToAll, usize::MAX),
        ] {
            assert!(overflows(CommSchedule::build(kind, &g, elems, 4)), "{kind}");
        }
        // The largest payload whose bytes fit still builds (a schedule
        // holds spans, not data).
        let s = CommSchedule::build(CollectiveKind::AllReduce, &g, usize::MAX / 4, 4).unwrap();
        assert_eq!(s.buffer_len, usize::MAX / 4);
    }

    #[test]
    fn transfer_bytes_scale_with_elem_width() {
        let t = Transfer {
            src: DpuId(0),
            dsts: vec![DpuId(1)],
            src_span: Span::new(0, 10),
            dst_span: Span::new(0, 10),
            combine: true,
            resources: vec![],
        };
        assert_eq!(t.bytes(4), Bytes::new(40));
        assert_eq!(t.bytes(8), Bytes::new(80));
        assert!(t.is_local());
    }
}
