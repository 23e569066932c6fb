//! Functional execution of communication schedules on real data.
//!
//! A [`CommSchedule`] is not just a timing artifact: every transfer names
//! the element spans it moves, so the schedule can be *run*. [`ExecMachine`]
//! gives every node a buffer, plays the schedule step by step (with
//! snapshot semantics within a step, since all of a step's transfers are
//! concurrent), and applies reductions where the schedule says so.
//!
//! This is what makes the collective implementations testable end-to-end:
//! property tests assert that executing the AllReduce schedule really
//! leaves the elementwise reduction on every node, that All-to-All really
//! transposes, and so on — for arbitrary geometries and payloads.

use std::fmt;

use pim_arch::geometry::DpuId;
use pim_faults::FaultInjector;
use pim_sim::trace::codes;
use pim_sim::{Probe, SimTime};

use crate::error::PimnetError;
use crate::schedule::{CommSchedule, ScheduleView, StepRef, Transfer};

/// Reduction operators supported by the PIM banks' collective kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReduceOp {
    /// Elementwise sum (wrapping for integers, so tests stay exact).
    #[default]
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl fmt::Display for ReduceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        };
        f.write_str(s)
    }
}

/// Element types collectives can run on.
///
/// Implemented for the integer and floating-point widths the UPMEM DPU
/// handles. Integer `Sum` wraps, so collective results are exact and
/// order-independent — which the property tests rely on.
pub trait Element: Copy + Default + PartialEq + fmt::Debug + 'static {
    /// Applies `op` to two elements.
    #[must_use]
    fn reduce(op: ReduceOp, a: Self, b: Self) -> Self;

    /// The element's wire representation, as raw bits — what the fault
    /// layer's per-transfer CRC is computed over. Must be injective for
    /// the type's value domain (floats use their IEEE bit pattern).
    #[must_use]
    fn wire_bits(self) -> u64;
}

macro_rules! impl_element_int {
    ($($t:ty),*) => {$(
        impl Element for $t {
            fn reduce(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                }
            }

            fn wire_bits(self) -> u64 {
                self as u64
            }
        }
    )*};
}

macro_rules! impl_element_float {
    ($($t:ty),*) => {$(
        impl Element for $t {
            fn reduce(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                }
            }

            fn wire_bits(self) -> u64 {
                self.to_bits() as u64
            }
        }
    )*};
}

impl_element_int!(u8, u16, u32, u64, i8, i16, i32, i64);
impl_element_float!(f32, f64);

/// Counters describing what the fault layer did during one
/// [`ExecMachine::run_with_faults`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Non-local transfers executed.
    pub transfers: u64,
    /// CRC verifications performed (one per attempt).
    pub crc_checks: u64,
    /// Attempts the receiver's CRC rejected.
    pub corrupted: u64,
    /// Re-sends performed (equals `corrupted` on a successful run).
    pub retries: u64,
}

/// Per-node buffers executing a schedule.
///
/// # Example
///
/// ```
/// use pim_arch::geometry::PimGeometry;
/// use pimnet::collective::CollectiveKind;
/// use pimnet::exec::{ExecMachine, ReduceOp};
/// use pimnet::schedule::CommSchedule;
///
/// let g = PimGeometry::paper_scaled(8);
/// let s = CommSchedule::build(CollectiveKind::AllReduce, &g, 16, 4)?;
/// // Node i contributes the constant vector [i; 16].
/// let mut m = ExecMachine::init(&s, |id| vec![id.0 as u64; 16]);
/// m.run(&s, ReduceOp::Sum);
/// // Sum of 0..8 = 28, everywhere.
/// assert!(m.buffer(pim_arch::geometry::DpuId(3))[..16].iter().all(|&x| x == 28));
/// # Ok::<(), pimnet::PimnetError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExecMachine<T> {
    buffers: Vec<Vec<T>>,
}

impl<T: Element> ExecMachine<T> {
    /// Creates the machine with `init(id)` providing each node's
    /// contribution (`elems_per_node` elements; shorter vectors are
    /// zero-padded, longer ones truncated). The contribution is placed at
    /// the schedule's expected input location: offset 0 for the in-place
    /// collectives and All-to-All, piece `i` for AllGather/Gather.
    #[must_use]
    pub fn init<S: ScheduleView>(schedule: &S, mut init: impl FnMut(DpuId) -> Vec<T>) -> Self {
        use crate::collective::CollectiveKind as K;
        let hdr = schedule.header();
        let n = hdr.elems_per_node;
        let buffers = hdr
            .geometry
            .dpus()
            .map(|id| {
                let mut buf = vec![T::default(); hdr.buffer_len];
                let mut contrib = init(id);
                contrib.resize(n, T::default());
                let offset = match hdr.kind {
                    K::AllGather | K::Gather => id.index() * n,
                    _ => 0,
                };
                buf[offset..offset + n].copy_from_slice(&contrib);
                buf
            })
            .collect();
        ExecMachine { buffers }
    }

    /// Runs the schedule to completion with reduction operator `op`.
    ///
    /// Transfers within a step read a snapshot of the pre-step state, since
    /// they are concurrent in the hardware. This is
    /// [`run_with_faults_probed`](Self::run_with_faults_probed) with no
    /// faults and nothing to observe.
    pub fn run<S: ScheduleView>(&mut self, schedule: &S, op: ReduceOp) {
        if let Err(e) =
            self.run_with_faults_probed(schedule, op, &FaultInjector::none(), Probe::disabled())
        {
            unreachable!("a fault-free run cannot fail: {e}");
        }
    }

    /// [`run_with_faults_probed`](Self::run_with_faults_probed) with
    /// nothing to observe.
    ///
    /// # Errors
    ///
    /// Exactly those of [`run_with_faults_probed`](Self::run_with_faults_probed).
    pub fn run_with_faults(
        &mut self,
        schedule: &CommSchedule,
        op: ReduceOp,
        injector: &FaultInjector,
    ) -> Result<FaultStats, PimnetError> {
        self.run_with_faults_probed(schedule, op, injector, Probe::disabled())
    }

    /// Runs the schedule (in either layout) under a fault scenario: every
    /// non-local transfer's wire image is CRC-checked at the receiver
    /// (streamed, never built: see `transmit`), and the transfer is re-sent
    /// (up to the configured retry budget) whenever the injector corrupts
    /// an attempt.
    ///
    /// Because corrupted attempts are always *detected* (the CRC catches
    /// the injected flip) and the clean re-send carries the original
    /// payload, a successful faulty run leaves the buffers **bit-identical**
    /// to the fault-free run — the property `tests/fault_resilience.rs`
    /// pins down. With an inactive injector no CRC work happens at all.
    ///
    /// The snapshot is staged through a single arena buffer that is reused
    /// across every step of the run (the hot-path equivalent of the
    /// hardware's fixed wire: no per-transfer allocation), so executing a
    /// schedule costs two allocations total instead of two per transfer.
    ///
    /// `probe` receives per-step `exec-step` instants, per-transfer
    /// `exec-transfer` instants, staging-arena reuse counters, the
    /// per-tier injected/delivered byte conservation pair, one
    /// `exec-retry` instant per re-send and, under an active injector, the
    /// run's CRC/corruption/retry counters. The executor has no simulated
    /// clock, so event timestamps are the step's **logical ordinal**
    /// across the whole schedule — a deterministic total order. Nothing is
    /// recorded on the error path beyond the events already emitted.
    ///
    /// # Errors
    ///
    /// * [`PimnetError::DeadDpu`] if a participant is hard-dead (the
    ///   schedule should have been degraded first — see `resilience`);
    /// * [`PimnetError::TransferFailed`] if a transfer stays corrupted
    ///   through its whole retry budget.
    pub fn run_with_faults_probed<S: ScheduleView>(
        &mut self,
        schedule: &S,
        op: ReduceOp,
        injector: &FaultInjector,
        probe: &Probe,
    ) -> Result<FaultStats, PimnetError> {
        let faulty = injector.is_active();
        if faulty {
            let geometry = schedule.header().geometry;
            if let Some(dead) = geometry.dpus().find(|id| injector.is_dead(id.0)) {
                return Err(PimnetError::DeadDpu { dpu: dead.0 });
            }
        }
        let mut stats = FaultStats::default();
        let mut staging = Staging::default();
        let mut logical = 0u64;
        for pi in 0..schedule.phase_count() {
            for si in 0..schedule.steps_in(pi) {
                let step = schedule.step(pi, si);
                let cap_before = staging.arena.capacity();
                staging.snapshot_step(&self.buffers, step);
                if faulty {
                    for (ti, t) in step.transfers().enumerate() {
                        if !t.is_local() {
                            stats.transfers += 1;
                            self.transmit(
                                staging.transfer_payload(ti),
                                (pi, si, ti),
                                injector,
                                &mut stats,
                                probe,
                                logical,
                            )?;
                        }
                    }
                }
                staging.apply(&mut self.buffers, op);
                staging.record_step(schedule, (pi, si), cap_before, logical, probe);
                logical += 1;
            }
        }
        if faulty {
            probe
                .metrics
                .fault_counts(stats.crc_checks, stats.corrupted, stats.retries);
        }
        Ok(stats)
    }

    /// Executes exactly one schedule step `(pi, si)`, consulting
    /// `transmit` for every non-local transfer before anything is
    /// delivered.
    ///
    /// `transmit(ti, transfer, staged_payload)` models the wire: it sees
    /// the transfer's position in the step, its routing metadata (for
    /// failure attribution against named fabric resources) and the staged
    /// pre-step payload, and returns `Err` to declare the transfer failed.
    /// Because every transmit verdict is collected **before**
    /// the staged deliveries apply, a failing step leaves the buffers
    /// bit-identical
    /// to the last completed step — the machine itself is the checkpoint,
    /// and the recovery manager re-drives the same step after backoff
    /// without restoring anything.
    ///
    /// Local transfers never cross the wire and are not offered to
    /// `transmit`, matching [`run_with_faults`](Self::run_with_faults).
    ///
    /// # Errors
    ///
    /// * [`PimnetError::ScheduleInvalid`] if `(pi, si)` is out of range;
    /// * whatever `transmit` returns, propagated before any delivery.
    pub fn run_step_with<F>(
        &mut self,
        schedule: &CommSchedule,
        (pi, si): (usize, usize),
        op: ReduceOp,
        mut transmit: F,
    ) -> Result<(), PimnetError>
    where
        F: FnMut(usize, &Transfer, &[T]) -> Result<(), PimnetError>,
    {
        let step = schedule
            .phases
            .get(pi)
            .and_then(|p| p.steps.get(si))
            .ok_or_else(|| PimnetError::ScheduleInvalid {
                reason: format!("step ({pi}, {si}) out of range"),
            })?;
        let mut staging = Staging::default();
        staging.snapshot_step(&self.buffers, StepRef::Nested(step));
        for (ti, t) in step.transfers.iter().enumerate() {
            if !t.is_local() {
                transmit(ti, t, staging.transfer_payload(ti))?;
            }
        }
        staging.apply(&mut self.buffers, op);
        Ok(())
    }

    /// Models one transfer crossing the wire: CRC, corrupt per the
    /// injector, CRC-check, retry. Returns once an attempt arrives clean.
    ///
    /// The wire image is the payload's [`wire_bits`](Element::wire_bits)
    /// words, 8 little-endian bytes each; it is CRC'd as that stream of
    /// words ([`wire_crc`]) and never materialized. A corrupted attempt
    /// flips one bit of the image, at the position the injector draws over
    /// its `8 × payload.len()` bytes, and CRCs the same stream with that
    /// word's bit flipped. Re-sends are recorded into `probe` as
    /// `exec-retry` instants at the step's `logical` ordinal (a no-op on
    /// the disabled probe). A non-empty transfer the injector
    /// [always corrupts](FaultInjector::always_corrupts) fails at once:
    /// every attempt would flip a bit, and CRC-32 catches every single-bit
    /// flip.
    fn transmit(
        &self,
        payload: &[T],
        (pi, si, ti): (usize, usize, usize),
        injector: &FaultInjector,
        stats: &mut FaultStats,
        probe: &Probe,
        logical: u64,
    ) -> Result<(), PimnetError> {
        let wire_len = WIRE_WORD_BYTES * payload.len();
        let failed = || PimnetError::TransferFailed {
            phase: pi,
            step: si,
            transfer: ti,
            attempts: injector.max_attempts(),
        };
        if wire_len > 0 && injector.always_corrupts() {
            return Err(failed());
        }
        let sent_crc = wire_crc(payload, None);
        let mut attempt = 0u32;
        loop {
            stats.crc_checks += 1;
            let corrupted = wire_len > 0
                && injector.transient_corrupts(pi as u64, si as u64, ti as u64, attempt);
            let received_crc = if corrupted {
                let flip =
                    injector.flip_position(pi as u64, si as u64, ti as u64, attempt, wire_len);
                wire_crc(payload, Some(flip))
            } else {
                sent_crc
            };
            if received_crc == sent_crc {
                return Ok(());
            }
            stats.corrupted += 1;
            if attempt >= injector.config().max_retries {
                return Err(failed());
            }
            attempt += 1;
            stats.retries += 1;
            probe.trace.instant(
                SimTime::from_ps(logical),
                codes::EXEC_RETRY,
                [pi as u64, si as u64, ti as u64, u64::from(attempt)],
            );
        }
    }

    /// A node's full communication buffer.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn buffer(&self, id: DpuId) -> &[T] {
        &self.buffers[id.index()]
    }

    /// A node's *result*, concatenated from the schedule's result spans.
    #[must_use]
    pub fn result(&self, schedule: &CommSchedule, id: DpuId) -> Vec<T> {
        schedule.result_spans[id.index()]
            .iter()
            .flat_map(|span| self.buffers[id.index()][span.range()].iter().copied())
            .collect()
    }

    /// Number of nodes.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.buffers.len()
    }
}

/// Bytes of one element on the wire: its [`Element::wire_bits`] word.
const WIRE_WORD_BYTES: usize = std::mem::size_of::<u64>();

/// CRC-32 of `payload`'s wire image, streamed word by word. `flip` is a
/// `(byte, bit)` position in the image, counted as the 8 little-endian
/// bytes of each word in turn, whose bit arrives inverted.
fn wire_crc<T: Element>(payload: &[T], flip: Option<(usize, u32)>) -> u32 {
    let (word, mask) = flip.map_or((usize::MAX, 0), |(byte, bit)| {
        (
            byte / WIRE_WORD_BYTES,
            1u64 << (8 * (byte % WIRE_WORD_BYTES) as u32 + bit),
        )
    });
    let mut crc = pim_faults::Crc32::new();
    crc.update_words(payload.iter().enumerate().map(|(i, e)| {
        let bits = e.wire_bits();
        if i == word {
            bits ^ mask
        } else {
            bits
        }
    }));
    crc.finish()
}

/// Reusable staging arena for one step's concurrent transfers.
///
/// Within a step every transfer reads the *pre-step* buffer state, so the
/// payloads have to be snapshotted before any delivery is applied. Staging
/// them contiguously in one arena — instead of one `Vec` per transfer and
/// one clone per destination — keeps schedule execution allocation-free
/// after the first step, which is the difference between microseconds and
/// milliseconds on the chaos-soak and fuzz hot paths.
struct Staging<T> {
    /// Concatenated payload snapshots for the current step.
    arena: Vec<T>,
    /// `(arena_offset, len)` per transfer, indexed by transfer position.
    segments: Vec<(usize, usize)>,
    /// `(dst, dst_start, arena_offset, len, combine)` per delivery.
    deliveries: Vec<(DpuId, usize, usize, usize, bool)>,
}

impl<T> Default for Staging<T> {
    fn default() -> Self {
        Staging {
            arena: Vec::new(),
            segments: Vec::new(),
            deliveries: Vec::new(),
        }
    }
}

impl<T: Element> Staging<T> {
    /// Snapshots every transfer payload of `step` out of `buffers`,
    /// recording where each destination's delivery should land.
    fn snapshot_step(&mut self, buffers: &[Vec<T>], step: StepRef<'_>) {
        self.arena.clear();
        self.segments.clear();
        self.deliveries.clear();
        for t in step.transfers() {
            let at = self.arena.len();
            self.arena
                .extend_from_slice(&buffers[t.src.index()][t.src_span.range()]);
            let len = self.arena.len() - at;
            self.segments.push((at, len));
            for &dst in t.dsts {
                self.deliveries
                    .push((dst, t.dst_span.start, at, len, t.combine));
            }
        }
    }

    /// The staged payload of the step's `ti`-th transfer.
    fn transfer_payload(&self, ti: usize) -> &[T] {
        let (at, len) = self.segments[ti];
        &self.arena[at..at + len]
    }

    /// Records one executed step into `probe`: per-transfer
    /// `exec-transfer` instants, the `exec-step` instant, arena-reuse
    /// accounting, and the injected/delivered conservation pair —
    /// *injected* computed from the schedule's spans (what must cross the
    /// wire to every destination), *delivered* observed from the staged
    /// deliveries this pass actually queued. The two totals agreeing per
    /// tier is the executor conservation law `tests/metrics_invariants.rs`
    /// checks.
    fn record_step<S: ScheduleView>(
        &self,
        schedule: &S,
        (pi, si): (usize, usize),
        cap_before: usize,
        logical: u64,
        probe: &Probe,
    ) {
        if !probe.is_active() {
            return;
        }
        let step = schedule.step(pi, si);
        let tier = schedule.phase_label(pi).tier_index();
        let eb = u64::from(schedule.header().elem_bytes);
        let ts = SimTime::from_ps(logical);
        let mut injected = 0u64;
        for t in step.transfers() {
            let bytes = t.src_span.len as u64 * eb;
            injected += bytes * t.dsts.len() as u64;
            probe.trace.instant(
                ts,
                codes::EXEC_TRANSFER,
                [u64::from(t.src.0), t.dsts.len() as u64, bytes, tier as u64],
            );
        }
        let delivered = self
            .deliveries
            .iter()
            .map(|&(_, _, _, len, _)| len as u64)
            .sum::<u64>()
            * eb;
        let grew = self.arena.capacity() > cap_before;
        if grew {
            probe.trace.instant(
                ts,
                codes::ARENA_GROW,
                [logical, self.arena.capacity() as u64, 0, 0],
            );
        }
        probe.metrics.exec_step(tier, injected, delivered, grew);
        probe.trace.instant(
            ts,
            codes::EXEC_STEP,
            [pi as u64, si as u64, step.len() as u64, delivered],
        );
    }

    /// Applies every staged delivery to `buffers`, in transfer order.
    fn apply(&self, buffers: &mut [Vec<T>], op: ReduceOp) {
        for &(dst, start, at, len, combine) in &self.deliveries {
            let payload = &self.arena[at..at + len];
            let buf = &mut buffers[dst.index()];
            if combine {
                for (i, &v) in payload.iter().enumerate() {
                    buf[start + i] = T::reduce(op, buf[start + i], v);
                }
            } else {
                buf[start..start + len].copy_from_slice(payload);
            }
        }
    }
}

/// Convenience: builds, validates, executes and checks a collective in one
/// call, returning the machine for inspection.
///
/// # Errors
///
/// Propagates schedule build or validation errors.
pub fn run_collective<T: Element>(
    schedule: &CommSchedule,
    op: ReduceOp,
    init: impl FnMut(DpuId) -> Vec<T>,
) -> Result<ExecMachine<T>, PimnetError> {
    crate::schedule::validate::validate(schedule)?;
    let mut m = ExecMachine::init(schedule, init);
    m.run(schedule, op);
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveKind;
    use pim_arch::geometry::PimGeometry;

    fn build(kind: CollectiveKind, n: u32, elems: usize) -> CommSchedule {
        CommSchedule::build(kind, &PimGeometry::paper_scaled(n), elems, 4).unwrap()
    }

    /// Distinct, deterministic input per (node, element).
    fn input(id: DpuId, elems: usize) -> Vec<u64> {
        (0..elems)
            .map(|e| (id.0 as u64 + 1) * 1_000 + e as u64)
            .collect()
    }

    #[test]
    fn allreduce_leaves_the_sum_everywhere() {
        for n in [8u32, 64, 256] {
            let elems = 96;
            let s = build(CollectiveKind::AllReduce, n, elems);
            let m = run_collective(&s, ReduceOp::Sum, |id| input(id, elems)).unwrap();
            let expected: Vec<u64> = (0..elems)
                .map(|e| (0..n as u64).map(|i| (i + 1) * 1_000 + e as u64).sum())
                .collect();
            for id in s.participants() {
                assert_eq!(m.result(&s, id), expected, "node {id} (n={n})");
            }
        }
    }

    #[test]
    fn allreduce_max_and_min() {
        let elems = 32;
        let s = build(CollectiveKind::AllReduce, 16, elems);
        let m = run_collective(&s, ReduceOp::Max, |id| input(id, elems)).unwrap();
        let expect_max: Vec<u64> = (0..elems).map(|e| 16 * 1_000 + e as u64).collect();
        assert_eq!(m.result(&s, DpuId(5)), expect_max);
        let m = run_collective(&s, ReduceOp::Min, |id| input(id, elems)).unwrap();
        let expect_min: Vec<u64> = (0..elems).map(|e| 1_000 + e as u64).collect();
        assert_eq!(m.result(&s, DpuId(5)), expect_min);
    }

    #[test]
    fn reduce_scatter_pieces_reassemble_the_sum() {
        for n in [8u32, 32, 256] {
            let elems = 520; // not divisible by n
            let s = build(CollectiveKind::ReduceScatter, n, elems);
            let m = run_collective(&s, ReduceOp::Sum, |id| input(id, elems)).unwrap();
            let expected: Vec<u64> = (0..elems)
                .map(|e| (0..n as u64).map(|i| (i + 1) * 1_000 + e as u64).sum())
                .collect();
            // Concatenating every node's result spans (sorted by start)
            // must reproduce the full reduced vector exactly once.
            let mut got = vec![None::<u64>; elems];
            for id in s.participants() {
                for span in &s.result_spans[id.index()] {
                    for (off, idx) in span.range().enumerate() {
                        assert!(got[idx].is_none(), "element {idx} owned twice");
                        got[idx] = Some(m.buffer(id)[span.start + off]);
                    }
                }
            }
            for (idx, v) in got.iter().enumerate() {
                assert_eq!(v.unwrap(), expected[idx], "element {idx} (n={n})");
            }
        }
    }

    #[test]
    fn allgather_concatenates_everything_everywhere() {
        for n in [8u32, 64] {
            let elems = 24;
            let s = build(CollectiveKind::AllGather, n, elems);
            let m = run_collective(&s, ReduceOp::Sum, |id| input(id, elems)).unwrap();
            let expected: Vec<u64> = (0..n).flat_map(|i| input(DpuId(i), elems)).collect();
            for id in s.participants() {
                assert_eq!(m.result(&s, id), expected, "node {id} (n={n})");
            }
        }
    }

    #[test]
    fn alltoall_transposes() {
        for n in [8u32, 64, 256] {
            let elems = n as usize * 3; // 3 elements per chunk
            let s = build(CollectiveKind::AllToAll, n, elems);
            let m = run_collective(&s, ReduceOp::Sum, |id| input(id, elems)).unwrap();
            let chunks = crate::schedule::split_elems(elems, n as usize);
            for dst in s.participants() {
                let out = m.result(&s, dst);
                for src in s.participants() {
                    let chunk = &chunks[dst.index()];
                    let sent = &input(src, elems)[chunk.range()];
                    let received = &out[chunks[src.index()].range()];
                    assert_eq!(received, sent, "{src} -> {dst} chunk (n={n})");
                }
            }
        }
    }

    #[test]
    fn broadcast_replicates_the_root() {
        let elems = 77;
        let s = build(CollectiveKind::Broadcast, 256, elems);
        let root_data = input(DpuId(0), elems);
        let m = run_collective(&s, ReduceOp::Sum, |id| {
            if id == DpuId(0) {
                root_data.clone()
            } else {
                vec![0; elems]
            }
        })
        .unwrap();
        for id in s.participants() {
            assert_eq!(m.result(&s, id), root_data, "node {id}");
        }
    }

    #[test]
    fn reduce_accumulates_at_the_root() {
        let elems = 40;
        let n = 64u32;
        let s = build(CollectiveKind::Reduce, n, elems);
        let m = run_collective(&s, ReduceOp::Sum, |id| input(id, elems)).unwrap();
        let expected: Vec<u64> = (0..elems)
            .map(|e| (0..n as u64).map(|i| (i + 1) * 1_000 + e as u64).sum())
            .collect();
        assert_eq!(m.result(&s, DpuId(0)), expected);
        assert!(m.result(&s, DpuId(1)).is_empty());
    }

    #[test]
    fn gather_concatenates_at_the_root() {
        let elems = 5;
        let n = 32u32;
        let s = build(CollectiveKind::Gather, n, elems);
        let m = run_collective(&s, ReduceOp::Sum, |id| input(id, elems)).unwrap();
        let expected: Vec<u64> = (0..n).flat_map(|i| input(DpuId(i), elems)).collect();
        assert_eq!(m.result(&s, DpuId(0)), expected);
    }

    #[test]
    fn float_allreduce_is_close_to_the_sum() {
        let elems = 16;
        let s = build(CollectiveKind::AllReduce, 64, elems);
        let m = run_collective(&s, ReduceOp::Sum, |id| {
            vec![(id.0 as f64 + 1.0) * 0.25; elems]
        })
        .unwrap();
        let expected = (1..=64).map(|i| i as f64 * 0.25).sum::<f64>();
        for &x in m.result(&s, DpuId(17)).iter() {
            assert!((x - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn single_node_collectives_are_identity() {
        let s = build(CollectiveKind::AllReduce, 1, 8);
        let m = run_collective(&s, ReduceOp::Sum, |id| input(id, 8)).unwrap();
        assert_eq!(m.result(&s, DpuId(0)), input(DpuId(0), 8));
    }

    #[test]
    fn faulty_run_is_bit_identical_to_clean_run() {
        use pim_faults::{FaultConfig, FaultInjector};
        let elems = 64;
        let s = build(CollectiveKind::AllReduce, 32, elems);
        let mut clean = ExecMachine::init(&s, |id| input(id, elems));
        clean.run(&s, ReduceOp::Sum);
        let inj = FaultInjector::new(
            FaultConfig {
                transient_ber: 0.2,
                // Generous budget: at BER 0.2 a 16-deep retry chain fails
                // with probability ~1e-12 per transfer, so the run always
                // completes and we can compare buffers.
                max_retries: 16,
                ..FaultConfig::none()
            }
            .with_seed(99),
        );
        let mut faulty = ExecMachine::init(&s, |id| input(id, elems));
        let stats = faulty.run_with_faults(&s, ReduceOp::Sum, &inj).unwrap();
        assert!(stats.corrupted > 0, "BER 0.2 should corrupt something");
        assert_eq!(stats.retries, stats.corrupted);
        assert_eq!(faulty, clean);
    }

    #[test]
    fn inactive_injector_performs_no_crc_work() {
        use pim_faults::FaultInjector;
        let s = build(CollectiveKind::AllReduce, 8, 16);
        let mut m = ExecMachine::init(&s, |id| input(id, 16));
        let stats = m
            .run_with_faults(&s, ReduceOp::Sum, &FaultInjector::none())
            .unwrap();
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn exhausted_retry_budget_is_a_typed_error() {
        use pim_faults::{FaultConfig, FaultInjector};
        let s = build(CollectiveKind::AllReduce, 8, 16);
        let inj = FaultInjector::new(FaultConfig {
            transient_ber: 1.0, // every attempt corrupted
            max_retries: 2,
            ..FaultConfig::none()
        });
        let mut m = ExecMachine::init(&s, |id| input(id, 16));
        match m.run_with_faults(&s, ReduceOp::Sum, &inj) {
            Err(PimnetError::TransferFailed { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected TransferFailed, got {other:?}"),
        }
    }

    #[test]
    fn certain_corruption_fails_at_once_under_the_largest_budget() {
        use pim_faults::{FaultConfig, FaultInjector};
        let s = build(CollectiveKind::AllReduce, 8, 16);
        let inj = FaultInjector::new(FaultConfig {
            transient_ber: 1.0,
            max_retries: u32::MAX,
            ..FaultConfig::none()
        });
        let mut m = ExecMachine::init(&s, |id| input(id, 16));
        match m.run_with_faults(&s, ReduceOp::Sum, &inj) {
            Err(PimnetError::TransferFailed { attempts, .. }) => assert_eq!(attempts, u32::MAX),
            other => panic!("expected TransferFailed, got {other:?}"),
        }
    }

    #[test]
    fn step_driven_run_matches_run_and_fails_before_apply() {
        let elems = 48;
        let s = build(CollectiveKind::AllReduce, 16, elems);
        let mut whole = ExecMachine::init(&s, |id| input(id, elems));
        whole.run(&s, ReduceOp::Sum);
        // Driving the same schedule one step at a time with an
        // always-clean wire is bit-identical to run().
        let mut stepped = ExecMachine::init(&s, |id| input(id, elems));
        for (pi, phase) in s.phases.iter().enumerate() {
            for si in 0..phase.steps.len() {
                stepped
                    .run_step_with(&s, (pi, si), ReduceOp::Sum, |_, _, _| Ok(()))
                    .unwrap();
            }
        }
        assert_eq!(stepped, whole);
        // A failing transmit leaves the buffers at the last completed
        // step: re-driving the failed step afterwards still converges.
        let mut recovering = ExecMachine::init(&s, |id| input(id, elems));
        for (pi, phase) in s.phases.iter().enumerate() {
            for si in 0..phase.steps.len() {
                let before = recovering.clone();
                let err = recovering.run_step_with(&s, (pi, si), ReduceOp::Sum, |_, _, _| {
                    Err(PimnetError::TransferFailed {
                        phase: pi,
                        step: si,
                        transfer: 0,
                        attempts: 1,
                    })
                });
                if err.is_err() {
                    assert_eq!(recovering, before, "failed step must not deliver");
                }
                recovering
                    .run_step_with(&s, (pi, si), ReduceOp::Sum, |_, _, _| Ok(()))
                    .unwrap();
            }
        }
        assert_eq!(recovering, whole);
        // Out-of-range coordinates are a typed error.
        assert!(matches!(
            stepped.run_step_with(&s, (999, 0), ReduceOp::Sum, |_, _, _| Ok(())),
            Err(PimnetError::ScheduleInvalid { .. })
        ));
        // Local transfers are never offered to the wire closure.
        let mut m = ExecMachine::init(&s, |id| input(id, elems));
        for (pi, phase) in s.phases.iter().enumerate() {
            for (si, step) in phase.steps.iter().enumerate() {
                let wire_count = std::cell::Cell::new(0usize);
                m.run_step_with(&s, (pi, si), ReduceOp::Sum, |_, t, payload| {
                    assert!(!t.is_local());
                    assert_eq!(payload.len(), t.src_span.len);
                    wire_count.set(wire_count.get() + 1);
                    Ok(())
                })
                .unwrap();
                let expected = step.transfers.iter().filter(|t| !t.is_local()).count();
                assert_eq!(wire_count.get(), expected);
            }
        }
    }

    /// The wire model as a buffer: every element's `wire_bits` as 8
    /// little-endian bytes, one bit flipped, CRC'd in one shot.
    fn materialized_wire_crc<T: Element>(payload: &[T], flip: Option<(usize, u32)>) -> u32 {
        let mut wire: Vec<u8> = payload
            .iter()
            .flat_map(|e| e.wire_bits().to_le_bytes())
            .collect();
        if let Some((byte, bit)) = flip {
            wire[byte] ^= 1 << bit;
        }
        pim_faults::crc32(&wire)
    }

    #[test]
    fn streamed_wire_crc_equals_the_materialized_wire() {
        let payload: Vec<u64> = input(DpuId(3), 5);
        let floats = [1.5f32, -0.0, f32::NAN];
        let signed = [-1i8, 7, i8::MIN];
        assert_eq!(
            wire_crc(&payload, None),
            materialized_wire_crc(&payload, None)
        );
        assert_eq!(
            wire_crc(&floats, None),
            materialized_wire_crc(&floats, None)
        );
        assert_eq!(
            wire_crc(&signed, None),
            materialized_wire_crc(&signed, None)
        );
        assert_eq!(
            wire_crc::<u64>(&[], None),
            materialized_wire_crc::<u64>(&[], None)
        );
        for byte in 0..WIRE_WORD_BYTES * payload.len() {
            for bit in 0..8 {
                let flip = Some((byte, bit));
                assert_eq!(
                    wire_crc(&payload, flip),
                    materialized_wire_crc(&payload, flip),
                    "flip at byte {byte} bit {bit}"
                );
                assert_ne!(wire_crc(&payload, flip), wire_crc(&payload, None));
            }
        }
        for byte in 0..WIRE_WORD_BYTES * floats.len() {
            let flip = Some((byte, (byte % 8) as u32));
            assert_eq!(
                wire_crc(&floats, flip),
                materialized_wire_crc(&floats, flip)
            );
        }
    }

    #[test]
    fn dead_participant_is_refused_up_front() {
        use pim_faults::{FaultConfig, FaultInjector};
        let s = build(CollectiveKind::AllReduce, 8, 16);
        let inj = FaultInjector::new(FaultConfig {
            dead_dpus: vec![5],
            ..FaultConfig::none()
        });
        let mut m = ExecMachine::init(&s, |id| input(id, 16));
        assert_eq!(
            m.run_with_faults(&s, ReduceOp::Sum, &inj),
            Err(PimnetError::DeadDpu { dpu: 5 })
        );
    }
}
