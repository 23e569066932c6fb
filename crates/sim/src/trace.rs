//! Deterministic structured-event tracing.
//!
//! Every layer of the simulator — the timing engine, the READY/START sync
//! tree, the functional executor, the schedule cache, the NoC cycle loop,
//! the degradation planner, the recovery manager and the serving engine —
//! can emit [`TraceEvent`]s into a [`Tracer`]. The
//! design constraints, in order:
//!
//! 1. **Determinism.** Events carry [`SimTime`] (or logical-ordinal)
//!    timestamps and integer arguments only — never wall-clock time,
//!    worker identity, or addresses. A traced run is a pure function of
//!    its inputs, so the same seed and geometry produce a *byte-identical*
//!    trace at any worker count (`tests/trace_golden.rs` pins this).
//! 2. **Zero cost when disabled.** A disabled tracer is a single `bool`
//!    load per event site; the event struct is built only after that check
//!    passes, and [`Tracer::disabled`] is `const` so a `static` no-op sink
//!    exists for un-instrumented callers.
//! 3. **Zero dependencies.** Ring buffer, CSV and Chrome `trace_event`
//!    JSON export are all plain `std`.
//!
//! Event identity is a stable `u16` code ([`codes`]); the high byte is the
//! subsystem group ([`group`]), which doubles as the Chrome trace `tid` so
//! each subsystem renders as its own track.

use std::sync::Mutex;

use crate::SimTime;

/// Stable event codes. The high byte is the subsystem ([`group`]); codes
/// are append-only — never renumber a shipped code, golden traces pin them.
pub mod codes {
    /// READY/START barrier (span: `ts` = 0, `dur` = barrier cost).
    /// Args: `[scope (0=chip,1=rank,2=channel), skew_ps, 0, 0]`.
    pub const BARRIER: u16 = 0x0101;
    /// A straggler delayed its READY. Args: `[dpu, delay_ns, 0, 0]`.
    pub const STRAGGLER: u16 = 0x0102;
    /// Control-plane overhead of a schedule repair.
    /// Args: `[extra_steps, overhead_ps, 0, 0]`.
    pub const REPAIR_OVERHEAD: u16 = 0x0103;

    /// One transfer window in a timeline (span).
    /// Args: `[src, dst_count, bytes, tier]`.
    pub const TRANSFER: u16 = 0x0201;
    /// A transient CRC failure serialized a re-send into the step.
    /// Args: `[phase, step, transfer, attempt]`.
    pub const RETRY: u16 = 0x0202;

    /// One executed schedule step (instant at the step's logical ordinal).
    /// Args: `[phase, step, transfers, delivered_bytes]`.
    pub const EXEC_STEP: u16 = 0x0301;
    /// One executed transfer. Args: `[src, dst_count, bytes, tier]`.
    pub const EXEC_TRANSFER: u16 = 0x0302;
    /// The executor re-sent a corrupted transfer.
    /// Args: `[phase, step, transfer, attempt]`.
    pub const EXEC_RETRY: u16 = 0x0303;
    /// The staging arena had to grow (a cold step shape).
    /// Args: `[step_ordinal, new_capacity, 0, 0]`.
    pub const ARENA_GROW: u16 = 0x0304;

    /// Schedule-cache hit. Args: `[kind, dpus, elems, elem_bytes]`.
    pub const CACHE_HIT: u16 = 0x0401;
    /// Schedule-cache miss (this caller builds).
    /// Args: `[kind, dpus, elems, elem_bytes]`.
    pub const CACHE_MISS: u16 = 0x0402;
    /// Waited on another worker's in-flight build of the same key.
    /// Args: `[kind, dpus, elems, elem_bytes]`.
    pub const CACHE_DEDUP_WAIT: u16 = 0x0403;

    /// A NoC packet was fully delivered (instant at the delivery time).
    /// Args: `[src, dst, bytes, stage (phase << 16 | step)]`.
    pub const NOC_DELIVER: u16 = 0x0501;
    /// A corrupted NoC packet was re-sent over the same links.
    /// Args: `[src, dst, bytes, attempt]`.
    pub const NOC_RETRANSMIT: u16 = 0x0502;

    // Group 0x06 (the `par` pool's task/batch events) is retired; its
    // codes stay unassigned.

    /// The degradation ladder picked a tier.
    /// Args: `[tier (0=full,1=repaired,2=shrunk,3=host), excluded_dpus, 0, 0]`.
    pub const PLAN_TIER: u16 = 0x0701;

    /// The recovery manager completed one schedule step.
    /// Args: `[phase, step, transfers, t_ps]`.
    pub const RECOV_STEP: u16 = 0x0801;
    /// A failed step is being retried after backoff.
    /// Args: `[phase, step, round, backoff_ps]`.
    pub const RECOV_RETRY: u16 = 0x0802;
    /// Buffers checkpointed at a completed step boundary.
    /// Args: `[phase, step, step_ordinal, t_ps]`.
    pub const RECOV_CHECKPOINT: u16 = 0x0803;
    /// An arrival invalidated the schedule and the manager replanned.
    /// Args: `[tier, epoch, resumed (1=spliced, 0=restarted), step_ordinal]`.
    pub const RECOV_REPLAN: u16 = 0x0804;
    /// The health tracker quarantined a flaky segment.
    /// Args: `[rank, chip, from_bank<<1|east, epoch]`.
    pub const RECOV_QUARANTINE: u16 = 0x0805;
    /// A timed permanent fault arrived mid-run.
    /// Args: `[class (1=segment,2=port,3=rank), at_ps, step_ordinal, 0]`.
    pub const FAULT_ARRIVAL: u16 = 0x0806;
    /// After a replan, execution resumed from the checkpoint (suffix
    /// splice, no restart). Args: `[step_ordinal, epoch, 0, 0]`.
    pub const RECOV_RESUME: u16 = 0x0807;
    /// The recovery run finished.
    /// Args: `[tier, steps, retries, replans]`.
    pub const RECOV_DONE: u16 = 0x0808;

    /// A request entered the serving engine's admission stage.
    /// Args: `[tenant, request, arrive_ps, elems]`.
    pub const SERVE_ARRIVE: u16 = 0x0901;
    /// Admission control accepted a request into its tenant queue.
    /// Args: `[tenant, request, queue_depth, tokens_left]`.
    pub const SERVE_ADMIT: u16 = 0x0902;
    /// A request was shed with a typed rejection.
    /// Args: `[tenant, request, reason (1=queue-full,2=no-tokens,
    /// 3=deadline,4=low-priority,5=quarantined), t_ps]`.
    pub const SERVE_SHED: u16 = 0x0903;
    /// A dequeued request started service on its tenant's channels.
    /// Args: `[tenant, request, chunks, t_ps]`.
    pub const SERVE_START: u16 = 0x0904;
    /// A request finished service.
    /// Args: `[tenant, request, tier, latency_ps]`.
    pub const SERVE_DONE: u16 = 0x0905;
    /// A tenant crossed a quarantine boundary.
    /// Args: `[tenant, entered (1=quarantined, 0=restored), failures,
    /// t_ps]`.
    pub const SERVE_QUARANTINE: u16 = 0x0906;
    /// The engine-wide overload ladder ratcheted up a level.
    /// Args: `[level, backlog, t_ps, 0]`.
    pub const SERVE_LADDER: u16 = 0x0907;

    /// A schedule was verified from scratch (batch or streaming).
    /// Args: `[kind, dpus, steps, error_count]`. Emitted once per
    /// analyze call regardless of cache warmth, so traces stay
    /// run-to-run identical.
    pub const LINT_FULL: u16 = 0x0A01;
    /// A schedule variant was re-verified with the delta re-lint.
    /// Args: `[kind, dpus, steps_reused, steps_relinted]`. Emitted once
    /// per analyze call regardless of cache warmth.
    pub const LINT_DELTA: u16 = 0x0A02;
}

/// Subsystem groups (the high byte of an event code).
pub mod group {
    /// READY/START sync tree (`pimnet::sync`).
    pub const SYNC: u8 = 0x01;
    /// Timing engine (`pimnet::timeline`).
    pub const TIMELINE: u8 = 0x02;
    /// Functional executor (`pimnet::exec`).
    pub const EXEC: u8 = 0x03;
    /// Schedule cache (`pimnet::schedule::cache`).
    pub const CACHE: u8 = 0x04;
    /// NoC cycle simulation (`pim_noc`).
    pub const NOC: u8 = 0x05;
    /// Degradation ladder (`pimnet::resilience`).
    pub const PLAN: u8 = 0x07;
    /// Runtime recovery manager (`pimnet::recovery`).
    pub const RECOVERY: u8 = 0x08;
    /// Multi-tenant serving engine (`pimnet::serve`).
    pub const SERVE: u8 = 0x09;
    /// Static schedule analysis (`pimnet::analysis`).
    pub const LINT: u8 = 0x0A;
}

/// The subsystem group of a code (its high byte).
#[must_use]
pub const fn code_group(code: u16) -> u8 {
    (code >> 8) as u8
}

/// Stable human-readable name of a code (used as the Chrome event name
/// and the CSV `name` column).
#[must_use]
pub const fn code_name(code: u16) -> &'static str {
    match code {
        codes::BARRIER => "barrier",
        codes::STRAGGLER => "straggler",
        codes::REPAIR_OVERHEAD => "repair-overhead",
        codes::TRANSFER => "transfer",
        codes::RETRY => "retry",
        codes::EXEC_STEP => "exec-step",
        codes::EXEC_TRANSFER => "exec-transfer",
        codes::EXEC_RETRY => "exec-retry",
        codes::ARENA_GROW => "arena-grow",
        codes::CACHE_HIT => "cache-hit",
        codes::CACHE_MISS => "cache-miss",
        codes::CACHE_DEDUP_WAIT => "cache-dedup-wait",
        codes::NOC_DELIVER => "noc-deliver",
        codes::NOC_RETRANSMIT => "noc-retransmit",
        codes::PLAN_TIER => "plan-tier",
        codes::RECOV_STEP => "recov-step",
        codes::RECOV_RETRY => "recov-retry",
        codes::RECOV_CHECKPOINT => "recov-checkpoint",
        codes::RECOV_REPLAN => "recov-replan",
        codes::RECOV_QUARANTINE => "recov-quarantine",
        codes::FAULT_ARRIVAL => "fault-arrival",
        codes::RECOV_RESUME => "recov-resume",
        codes::RECOV_DONE => "recov-done",
        codes::SERVE_ARRIVE => "serve-arrive",
        codes::SERVE_ADMIT => "serve-admit",
        codes::SERVE_SHED => "serve-shed",
        codes::SERVE_START => "serve-start",
        codes::SERVE_DONE => "serve-done",
        codes::SERVE_QUARANTINE => "serve-quarantine",
        codes::SERVE_LADDER => "serve-ladder",
        codes::LINT_FULL => "lint-full",
        codes::LINT_DELTA => "lint-delta",
        _ => "unknown",
    }
}

/// One structured event: a point (or span, when `dur_ps > 0`) in simulated
/// time. Timestamps are integer picoseconds of [`SimTime`] — except in
/// subsystems with no simulated clock (the functional executor), which use
/// *logical ordinals* as picoseconds so ordering stays deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEvent {
    /// Start time in picoseconds (or a logical ordinal).
    pub ts_ps: u64,
    /// Duration in picoseconds; 0 marks an instant event.
    pub dur_ps: u64,
    /// Stable event code (see [`codes`]).
    pub code: u16,
    /// Event-specific integer arguments (meaning documented per code).
    pub args: [u64; 4],
}

/// Fixed-capacity ring holding the newest events.
#[derive(Debug)]
struct Ring {
    events: Vec<TraceEvent>,
    /// Next overwrite position once the ring is full.
    head: usize,
    /// Events evicted because the ring was full.
    dropped: u64,
}

impl Ring {
    const fn new() -> Ring {
        Ring {
            events: Vec::new(),
            head: 0,
            dropped: 0,
        }
    }
}

/// An event sink: either enabled (ring-buffered, thread-safe) or the
/// no-op disabled sink whose every record call is a single `bool` check.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl Tracer {
    /// Default ring capacity of [`Tracer::enabled`].
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// The no-op sink: records nothing, costs one branch per event site.
    /// `const`, so callers can keep a `static` disabled tracer.
    #[must_use]
    pub const fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            capacity: 0,
            ring: Mutex::new(Ring::new()),
        }
    }

    /// An enabled sink with the default ring capacity.
    #[must_use]
    pub fn enabled() -> Tracer {
        Tracer::with_capacity(Tracer::DEFAULT_CAPACITY)
    }

    /// An enabled sink keeping the newest `capacity` events (older events
    /// are dropped and counted).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            enabled: true,
            capacity: capacity.max(1),
            ring: Mutex::new(Ring::new()),
        }
    }

    /// Whether this sink records anything.
    #[inline]
    #[must_use]
    pub const fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Ring> {
        match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Records one event. On the disabled sink this is a single branch.
    #[inline]
    pub fn record(&self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        let mut ring = self.lock();
        if ring.events.len() < self.capacity {
            ring.events.push(ev);
        } else {
            let at = ring.head;
            ring.events[at] = ev;
            ring.head = (at + 1) % self.capacity;
            ring.dropped += 1;
        }
    }

    /// Records an instant event at `ts`.
    #[inline]
    pub fn instant(&self, ts: SimTime, code: u16, args: [u64; 4]) {
        if !self.enabled {
            return;
        }
        self.record(TraceEvent {
            ts_ps: ts.as_ps(),
            dur_ps: 0,
            code,
            args,
        });
    }

    /// Records a span `[ts, ts + dur)`.
    #[inline]
    pub fn span(&self, ts: SimTime, dur: SimTime, code: u16, args: [u64; 4]) {
        if !self.enabled {
            return;
        }
        self.record(TraceEvent {
            ts_ps: ts.as_ps(),
            dur_ps: dur.as_ps(),
            code,
            args,
        });
    }

    /// Number of buffered events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// Whether no event is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes every buffered event (oldest first), leaving the sink empty.
    #[must_use]
    pub fn drain(&self) -> Trace {
        let mut ring = self.lock();
        let head = ring.head;
        let dropped = ring.dropped;
        let mut events = std::mem::take(&mut ring.events);
        ring.head = 0;
        ring.dropped = 0;
        // After a wraparound the oldest surviving event sits at `head`.
        events.rotate_left(head);
        Trace { events, dropped }
    }
}

/// A drained event sequence, exportable as CSV or Chrome `trace_event`
/// JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// The events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring-buffer eviction before the drain.
    pub dropped: u64,
}

impl Trace {
    /// How many events carry `code`.
    #[must_use]
    pub fn count(&self, code: u16) -> usize {
        self.events.iter().filter(|e| e.code == code).count()
    }

    /// This trace without the events of one subsystem group (e.g. the
    /// cache group, whose hit/miss pattern legitimately differs between a
    /// cold and a warm run of an otherwise identical workload).
    #[must_use]
    pub fn without_group(&self, g: u8) -> Trace {
        Trace {
            events: self
                .events
                .iter()
                .copied()
                .filter(|e| code_group(e.code) != g)
                .collect(),
            dropped: self.dropped,
        }
    }

    /// Deterministic CSV rendering: one line per event, stable columns.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("ts_ps,dur_ps,code,name,a0,a1,a2,a3\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{:#06x},{},{},{},{},{}\n",
                e.ts_ps,
                e.dur_ps,
                e.code,
                code_name(e.code),
                e.args[0],
                e.args[1],
                e.args[2],
                e.args[3]
            ));
        }
        out
    }

    /// Chrome `trace_event` JSON (the format `chrome://tracing` and
    /// Perfetto load): spans as `ph:"X"` complete events, instants as
    /// `ph:"i"`. Timestamps are microseconds, formatted from integer
    /// picoseconds so the output is bit-stable across platforms.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        chrome_json(&[("trace", self)])
    }

    /// FNV-1a fingerprint of [`Trace::to_csv`] — a compact pin for golden
    /// tests.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_csv().bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        h
    }
}

/// Formats integer picoseconds as a JSON microsecond literal with six
/// fixed decimals (exact — no floating point involved).
fn ps_as_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

/// Chrome `trace_event` JSON over several named traces: each part becomes
/// its own process (`pid` = part index, named via a `process_name`
/// metadata event), and each subsystem group its own thread track.
#[must_use]
pub fn chrome_json(parts: &[(&str, &Trace)]) -> String {
    let mut entries: Vec<String> = Vec::new();
    for (pid, (name, trace)) in parts.iter().enumerate() {
        entries.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
        for e in &trace.events {
            let tid = code_group(e.code);
            let common = format!(
                "\"name\":\"{}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\
                 \"args\":{{\"a0\":{},\"a1\":{},\"a2\":{},\"a3\":{}}}",
                code_name(e.code),
                ps_as_us(e.ts_ps),
                e.args[0],
                e.args[1],
                e.args[2],
                e.args[3]
            );
            entries.push(if e.dur_ps > 0 {
                format!("{{\"ph\":\"X\",\"dur\":{},{common}}}", ps_as_us(e.dur_ps))
            } else {
                format!("{{\"ph\":\"i\",\"s\":\"g\",{common}}}")
            });
        }
    }
    format!("{{\"traceEvents\":[{}]}}\n", entries.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64, code: u16) -> TraceEvent {
        TraceEvent {
            ts_ps: ts,
            dur_ps: 0,
            code,
            args: [ts, 0, 0, 0],
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        static T: Tracer = Tracer::disabled();
        T.record(ev(1, codes::BARRIER));
        T.instant(SimTime::from_ns(1), codes::RETRY, [0; 4]);
        assert!(!T.is_enabled());
        assert!(T.is_empty());
        assert_eq!(T.drain(), Trace::default());
    }

    #[test]
    fn events_drain_in_recording_order() {
        let t = Tracer::enabled();
        for i in 0..10 {
            t.record(ev(i, codes::TRANSFER));
        }
        let trace = t.drain();
        assert_eq!(trace.events.len(), 10);
        assert!(trace.events.windows(2).all(|w| w[0].ts_ps < w[1].ts_ps));
        assert_eq!(trace.dropped, 0);
        assert!(t.is_empty(), "drain must reset the sink");
    }

    #[test]
    fn full_ring_drops_oldest_first() {
        let t = Tracer::with_capacity(4);
        for i in 0..10 {
            t.record(ev(i, codes::TRANSFER));
        }
        let trace = t.drain();
        assert_eq!(trace.dropped, 6);
        let ts: Vec<u64> = trace.events.iter().map(|e| e.ts_ps).collect();
        assert_eq!(ts, vec![6, 7, 8, 9], "newest events survive, in order");
    }

    #[test]
    fn csv_and_fingerprint_are_deterministic() {
        let mk = || {
            let t = Tracer::enabled();
            t.span(
                SimTime::from_ns(1),
                SimTime::from_ns(2),
                codes::BARRIER,
                [2, 0, 0, 0],
            );
            t.instant(SimTime::from_ns(3), codes::RETRY, [1, 2, 3, 4]);
            t.drain()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.to_csv().contains("barrier"));
        assert!(a.to_csv().contains("retry"));
    }

    #[test]
    fn group_filter_drops_exactly_that_group() {
        let t = Tracer::enabled();
        t.record(ev(0, codes::CACHE_HIT));
        t.record(ev(1, codes::TRANSFER));
        t.record(ev(2, codes::CACHE_MISS));
        let trace = t.drain().without_group(group::CACHE);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].code, codes::TRANSFER);
    }

    #[test]
    fn chrome_json_shape_is_valid() {
        let t = Tracer::enabled();
        t.span(
            SimTime::from_ps(1_500_000),
            SimTime::from_ps(250_000),
            codes::TRANSFER,
            [0, 1, 64, 1],
        );
        t.instant(SimTime::ZERO, codes::CACHE_MISS, [0; 4]);
        let json = t.drain().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500000"));
        assert!(json.contains("\"dur\":0.250000"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("process_name"));
        // Balanced braces/brackets (cheap structural validity check).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn code_names_cover_every_code() {
        for code in [
            codes::BARRIER,
            codes::STRAGGLER,
            codes::REPAIR_OVERHEAD,
            codes::TRANSFER,
            codes::RETRY,
            codes::EXEC_STEP,
            codes::EXEC_TRANSFER,
            codes::EXEC_RETRY,
            codes::ARENA_GROW,
            codes::CACHE_HIT,
            codes::CACHE_MISS,
            codes::CACHE_DEDUP_WAIT,
            codes::NOC_DELIVER,
            codes::NOC_RETRANSMIT,
            codes::PLAN_TIER,
            codes::RECOV_STEP,
            codes::RECOV_RETRY,
            codes::RECOV_CHECKPOINT,
            codes::RECOV_REPLAN,
            codes::RECOV_QUARANTINE,
            codes::FAULT_ARRIVAL,
            codes::RECOV_RESUME,
            codes::RECOV_DONE,
            codes::SERVE_ARRIVE,
            codes::SERVE_ADMIT,
            codes::SERVE_SHED,
            codes::SERVE_START,
            codes::SERVE_DONE,
            codes::SERVE_QUARANTINE,
            codes::SERVE_LADDER,
            codes::LINT_FULL,
            codes::LINT_DELTA,
        ] {
            assert_ne!(code_name(code), "unknown", "{code:#06x} unnamed");
        }
        assert_eq!(code_name(0xFFFF), "unknown");
        assert_eq!(code_group(codes::CACHE_HIT), group::CACHE);
        assert_eq!(code_group(codes::RECOV_STEP), group::RECOVERY);
        assert_eq!(code_group(codes::SERVE_ADMIT), group::SERVE);
        assert_eq!(code_group(codes::LINT_FULL), group::LINT);
    }
}
