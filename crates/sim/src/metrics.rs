//! Typed counters and histograms aggregated into a [`MetricsReport`].
//!
//! The counterpart of [`crate::trace`]: where the tracer answers *when*
//! something happened, metrics answer *how much* — bytes per fabric tier,
//! link-busy picoseconds, barrier-wait time, retransmissions, staging-
//! arena reuse. The same two guarantees hold: every value is a
//! deterministic function of the simulated inputs (updates are plain
//! integer adds/maxes, so concurrent recording from a `par` fan-out still
//! converges to one value), and the disabled sink costs one branch per
//! call site ([`Metrics::disabled`] is `const`).
//!
//! Tier indices follow the schedule's phase labels: 0 = local (intra-DPU),
//! 1 = inter-bank, 2 = inter-chip, 3 = inter-rank.

use std::sync::Mutex;

/// Number of fabric tiers tracked by per-tier counters.
pub const TIERS: usize = 4;

/// Stable name of a tier index (`0..TIERS`), matching
/// `PhaseLabel`'s `Display` strings.
#[must_use]
pub const fn tier_name(tier: usize) -> &'static str {
    match tier {
        0 => "local",
        1 => "inter-bank",
        2 => "inter-chip",
        3 => "inter-rank",
        _ => "unknown",
    }
}

/// Stable name of a degradation-ladder tier (`DegradedPlan::tier`).
#[must_use]
pub const fn ladder_name(tier: u8) -> &'static str {
    match tier {
        0 => "full",
        1 => "repaired",
        2 => "shrunk",
        3 => "host-fallback",
        _ => "unknown",
    }
}

/// Power-of-two histogram: bucket `i < 16` counts values in
/// `[2^i, 2^(i+1))` (bucket 0 also holds 0), bucket 16 is the overflow
/// bucket for values ≥ 2^16.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Histogram {
    /// The bucket counts.
    pub buckets: [u64; 17],
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Histogram {
        Histogram { buckets: [0; 17] }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            (63 - value.leading_zeros()) as usize
        };
        self.buckets[bucket.min(16)] += 1;
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Lower bound of bucket `i`.
    #[must_use]
    pub const fn bucket_floor(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1 << i
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The aggregated counters of one observed run (or of several runs merged
/// with [`MetricsReport::merge`]). Plain data: every field is public and
/// the struct is `Copy`, so reports can be snapshotted, diffed and pinned
/// in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsReport {
    /// Wire bytes per tier, counted once per timeline transfer window.
    pub wire_bytes_by_tier: [u64; TIERS],
    /// Timeline transfer windows per tier.
    pub wire_transfers_by_tier: [u64; TIERS],
    /// Sum of per-link serialization busy time, grouped by tier (ps).
    pub link_busy_ps_by_tier: [u64; TIERS],
    /// Busy time of the single busiest link (ps). Invariant: ≤ `wall_ps`.
    pub max_link_busy_ps: u64,
    /// End-to-end completion time of the observed run (ps, max-folded).
    pub wall_ps: u64,

    /// READY/START barriers observed.
    pub barriers: u64,
    /// Total time spent in barriers (ps).
    pub barrier_wait_ps: u64,
    /// Stragglers that delayed a barrier or injection.
    pub stragglers: u64,
    /// Largest observed straggler delay (ns).
    pub max_straggler_delay_ns: u64,

    /// Schedule steps executed by the functional executor.
    pub exec_steps: u64,
    /// Bytes the executor staged for delivery, per tier (counted at
    /// snapshot time from the schedule's spans).
    pub exec_bytes_injected_by_tier: [u64; TIERS],
    /// Bytes the executor actually delivered, per tier (counted at apply
    /// time from the staging arena). Conservation: equals the injected
    /// counter per tier on every successful run.
    pub exec_bytes_delivered_by_tier: [u64; TIERS],
    /// Staging-arena snapshots taken (one per executed step).
    pub arena_snapshots: u64,
    /// Snapshots that had to grow the arena; the remainder reused the
    /// existing allocation ([`MetricsReport::arena_reuses`]).
    pub arena_grows: u64,

    /// CRC checks performed under fault injection.
    pub crc_checks: u64,
    /// Transfers the injector corrupted at least once.
    pub corrupted: u64,
    /// Executor re-sends after a failed CRC.
    pub retries: u64,
    /// NoC packets re-sent after corruption.
    pub retransmissions: u64,

    /// Schedule-cache hits (including de-duplicated waits).
    pub cache_hits: u64,
    /// Schedule-cache misses (this caller built the schedule).
    pub cache_misses: u64,
    /// Times a caller waited on another worker's in-flight build.
    pub cache_dedup_waits: u64,

    /// Modeled communication time per tier from workload programs (ps).
    pub comm_time_ps_by_tier: [u64; TIERS],
    /// Modeled synchronization time from workload programs (ps).
    pub sync_time_ps: u64,
    /// Modeled local memory time from workload programs (ps).
    pub mem_time_ps: u64,
    /// Modeled host round-trip time from workload programs (ps).
    pub host_time_ps: u64,

    /// Bytes injected into the NoC (observed at the first hop).
    pub noc_injected_bytes: u64,
    /// Bytes delivered by the NoC (observed at the final hop).
    /// Conservation: equals `noc_injected_bytes` after a completed run.
    pub noc_delivered_bytes: u64,
    /// Cycles packets spent stalled waiting for credits.
    pub noc_stall_cycles: u64,
    /// Packets delivered by the NoC.
    pub noc_packets: u64,

    /// Degradation-ladder tier of the planned run, when a plan was
    /// observed (0 = full, 1 = repaired, 2 = shrunk, 3 = host-fallback).
    pub degraded_tier: Option<u8>,
    /// Distribution of per-transfer wire bytes.
    pub transfer_bytes: Histogram,

    /// Schedule steps the recovery manager completed.
    pub recovery_steps: u64,
    /// Step-level recovery retries (backoff rounds).
    pub recovery_retries: u64,
    /// Total backoff the recovery manager waited (ps).
    pub recovery_backoff_ps: u64,
    /// Replans triggered by mid-run fault arrivals or quarantines.
    pub recovery_replans: u64,
    /// Segments promoted to permanent faults by the health tracker.
    pub recovery_quarantines: u64,
    /// Timed permanent-fault arrivals the manager absorbed.
    pub recovery_arrivals: u64,
    /// Step-boundary checkpoints (completed steps whose buffers became
    /// the resume point).
    pub recovery_checkpoints: u64,
    /// Requests that reached the serving engine's admission stage.
    pub serve_requests: u64,
    /// Requests admitted into a tenant queue.
    pub serve_admitted: u64,
    /// Requests shed with a typed rejection (any reason).
    pub serve_shed: u64,
    /// Of the shed requests, those shed for a slipped deadline.
    pub serve_deadline_shed: u64,
    /// Of the shed requests, those shed because their tenant was
    /// quarantined.
    pub serve_quarantine_shed: u64,
    /// Requests served end-to-end (any ladder tier).
    pub serve_completed: u64,
    /// Of the served requests, those that ended on the host-fallback rung.
    pub serve_host_fallback: u64,
    /// Chunks dispatched across tenant channels.
    pub serve_chunks: u64,
    /// Highest overload-ladder level the engine reached (watermark).
    pub serve_ladder_peak: u64,
}

impl MetricsReport {
    /// The all-zero report (what a disabled sink always snapshots to).
    #[must_use]
    pub const fn new() -> MetricsReport {
        MetricsReport {
            wire_bytes_by_tier: [0; TIERS],
            wire_transfers_by_tier: [0; TIERS],
            link_busy_ps_by_tier: [0; TIERS],
            max_link_busy_ps: 0,
            wall_ps: 0,
            barriers: 0,
            barrier_wait_ps: 0,
            stragglers: 0,
            max_straggler_delay_ns: 0,
            exec_steps: 0,
            exec_bytes_injected_by_tier: [0; TIERS],
            exec_bytes_delivered_by_tier: [0; TIERS],
            arena_snapshots: 0,
            arena_grows: 0,
            crc_checks: 0,
            corrupted: 0,
            retries: 0,
            retransmissions: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_dedup_waits: 0,
            comm_time_ps_by_tier: [0; TIERS],
            sync_time_ps: 0,
            mem_time_ps: 0,
            host_time_ps: 0,
            noc_injected_bytes: 0,
            noc_delivered_bytes: 0,
            noc_stall_cycles: 0,
            noc_packets: 0,
            degraded_tier: None,
            transfer_bytes: Histogram::new(),
            recovery_steps: 0,
            recovery_retries: 0,
            recovery_backoff_ps: 0,
            recovery_replans: 0,
            recovery_quarantines: 0,
            recovery_arrivals: 0,
            recovery_checkpoints: 0,
            serve_requests: 0,
            serve_admitted: 0,
            serve_shed: 0,
            serve_deadline_shed: 0,
            serve_quarantine_shed: 0,
            serve_completed: 0,
            serve_host_fallback: 0,
            serve_chunks: 0,
            serve_ladder_peak: 0,
        }
    }

    /// Snapshots that reused the arena allocation instead of growing it.
    #[must_use]
    pub const fn arena_reuses(&self) -> u64 {
        self.arena_snapshots - self.arena_grows
    }

    /// Name of the recorded degradation tier, if a plan was observed.
    #[must_use]
    pub fn degraded_tier_name(&self) -> Option<&'static str> {
        self.degraded_tier.map(ladder_name)
    }

    /// Folds another report into this one: counters add, watermarks
    /// (`wall_ps`, `max_link_busy_ps`, `max_straggler_delay_ns`) take the
    /// max, and the degraded tier keeps the *worst* observed rung.
    pub fn merge(&mut self, other: &MetricsReport) {
        for i in 0..TIERS {
            self.wire_bytes_by_tier[i] += other.wire_bytes_by_tier[i];
            self.wire_transfers_by_tier[i] += other.wire_transfers_by_tier[i];
            self.link_busy_ps_by_tier[i] += other.link_busy_ps_by_tier[i];
            self.exec_bytes_injected_by_tier[i] += other.exec_bytes_injected_by_tier[i];
            self.exec_bytes_delivered_by_tier[i] += other.exec_bytes_delivered_by_tier[i];
            self.comm_time_ps_by_tier[i] += other.comm_time_ps_by_tier[i];
        }
        self.max_link_busy_ps = self.max_link_busy_ps.max(other.max_link_busy_ps);
        self.wall_ps = self.wall_ps.max(other.wall_ps);
        self.barriers += other.barriers;
        self.barrier_wait_ps += other.barrier_wait_ps;
        self.stragglers += other.stragglers;
        self.max_straggler_delay_ns = self
            .max_straggler_delay_ns
            .max(other.max_straggler_delay_ns);
        self.exec_steps += other.exec_steps;
        self.arena_snapshots += other.arena_snapshots;
        self.arena_grows += other.arena_grows;
        self.crc_checks += other.crc_checks;
        self.corrupted += other.corrupted;
        self.retries += other.retries;
        self.retransmissions += other.retransmissions;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_dedup_waits += other.cache_dedup_waits;
        self.sync_time_ps += other.sync_time_ps;
        self.mem_time_ps += other.mem_time_ps;
        self.host_time_ps += other.host_time_ps;
        self.noc_injected_bytes += other.noc_injected_bytes;
        self.noc_delivered_bytes += other.noc_delivered_bytes;
        self.noc_stall_cycles += other.noc_stall_cycles;
        self.noc_packets += other.noc_packets;
        self.degraded_tier = match (self.degraded_tier, other.degraded_tier) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for i in 0..self.transfer_bytes.buckets.len() {
            self.transfer_bytes.buckets[i] += other.transfer_bytes.buckets[i];
        }
        self.recovery_steps += other.recovery_steps;
        self.recovery_retries += other.recovery_retries;
        self.recovery_backoff_ps = self
            .recovery_backoff_ps
            .saturating_add(other.recovery_backoff_ps);
        self.recovery_replans += other.recovery_replans;
        self.recovery_quarantines += other.recovery_quarantines;
        self.recovery_arrivals += other.recovery_arrivals;
        self.recovery_checkpoints += other.recovery_checkpoints;
        self.serve_requests += other.serve_requests;
        self.serve_admitted += other.serve_admitted;
        self.serve_shed += other.serve_shed;
        self.serve_deadline_shed += other.serve_deadline_shed;
        self.serve_quarantine_shed += other.serve_quarantine_shed;
        self.serve_completed += other.serve_completed;
        self.serve_host_fallback += other.serve_host_fallback;
        self.serve_chunks += other.serve_chunks;
        self.serve_ladder_peak = self.serve_ladder_peak.max(other.serve_ladder_peak);
    }

    /// Deterministic `key,value` CSV of every counter (per-tier counters
    /// expand to one row per tier; histogram buckets to one row each).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,value\n");
        let mut kv = |k: &str, v: u64| out.push_str(&format!("{k},{v}\n"));
        for i in 0..TIERS {
            kv(
                &format!("wire_bytes.{}", tier_name(i)),
                self.wire_bytes_by_tier[i],
            );
        }
        for i in 0..TIERS {
            kv(
                &format!("wire_transfers.{}", tier_name(i)),
                self.wire_transfers_by_tier[i],
            );
        }
        for i in 0..TIERS {
            kv(
                &format!("link_busy_ps.{}", tier_name(i)),
                self.link_busy_ps_by_tier[i],
            );
        }
        kv("max_link_busy_ps", self.max_link_busy_ps);
        kv("wall_ps", self.wall_ps);
        kv("barriers", self.barriers);
        kv("barrier_wait_ps", self.barrier_wait_ps);
        kv("stragglers", self.stragglers);
        kv("max_straggler_delay_ns", self.max_straggler_delay_ns);
        kv("exec_steps", self.exec_steps);
        for i in 0..TIERS {
            kv(
                &format!("exec_bytes_injected.{}", tier_name(i)),
                self.exec_bytes_injected_by_tier[i],
            );
        }
        for i in 0..TIERS {
            kv(
                &format!("exec_bytes_delivered.{}", tier_name(i)),
                self.exec_bytes_delivered_by_tier[i],
            );
        }
        kv("arena_snapshots", self.arena_snapshots);
        kv("arena_grows", self.arena_grows);
        kv("arena_reuses", self.arena_reuses());
        kv("crc_checks", self.crc_checks);
        kv("corrupted", self.corrupted);
        kv("retries", self.retries);
        kv("retransmissions", self.retransmissions);
        kv("cache_hits", self.cache_hits);
        kv("cache_misses", self.cache_misses);
        kv("cache_dedup_waits", self.cache_dedup_waits);
        for i in 0..TIERS {
            kv(
                &format!("comm_time_ps.{}", tier_name(i)),
                self.comm_time_ps_by_tier[i],
            );
        }
        kv("sync_time_ps", self.sync_time_ps);
        kv("mem_time_ps", self.mem_time_ps);
        kv("host_time_ps", self.host_time_ps);
        kv("noc_injected_bytes", self.noc_injected_bytes);
        kv("noc_delivered_bytes", self.noc_delivered_bytes);
        kv("noc_stall_cycles", self.noc_stall_cycles);
        kv("noc_packets", self.noc_packets);
        kv(
            "degraded_tier",
            self.degraded_tier.map_or(u64::MAX, u64::from),
        );
        kv("recovery_steps", self.recovery_steps);
        kv("recovery_retries", self.recovery_retries);
        kv("recovery_backoff_ps", self.recovery_backoff_ps);
        kv("recovery_replans", self.recovery_replans);
        kv("recovery_quarantines", self.recovery_quarantines);
        kv("recovery_arrivals", self.recovery_arrivals);
        kv("recovery_checkpoints", self.recovery_checkpoints);
        kv("serve_requests", self.serve_requests);
        kv("serve_admitted", self.serve_admitted);
        kv("serve_shed", self.serve_shed);
        kv("serve_deadline_shed", self.serve_deadline_shed);
        kv("serve_quarantine_shed", self.serve_quarantine_shed);
        kv("serve_completed", self.serve_completed);
        kv("serve_host_fallback", self.serve_host_fallback);
        kv("serve_chunks", self.serve_chunks);
        kv("serve_ladder_peak", self.serve_ladder_peak);
        for (i, count) in self.transfer_bytes.buckets.iter().enumerate() {
            kv(
                &format!("transfer_bytes_ge_{}", Histogram::bucket_floor(i)),
                *count,
            );
        }
        out
    }

    /// Compact human-readable summary (non-zero counters only).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("metrics report\n");
        for line in self.to_csv().lines().skip(1) {
            let Some((k, v)) = line.split_once(',') else {
                continue;
            };
            if v != "0" && v != u64::MAX.to_string() {
                out.push_str(&format!("  {k:<34} {v}\n"));
            }
        }
        if let Some(name) = self.degraded_tier_name() {
            out.push_str(&format!("  {:<34} {name}\n", "degraded_tier_name"));
        }
        out
    }
}

impl Default for MetricsReport {
    fn default() -> MetricsReport {
        MetricsReport::new()
    }
}

/// A metrics sink: either enabled (a `Mutex`-guarded [`MetricsReport`])
/// or the `const`-constructible no-op sink.
#[derive(Debug)]
pub struct Metrics {
    enabled: bool,
    inner: Mutex<MetricsReport>,
}

impl Metrics {
    /// The no-op sink: records nothing, costs one branch per call site.
    #[must_use]
    pub const fn disabled() -> Metrics {
        Metrics {
            enabled: false,
            inner: Mutex::new(MetricsReport::new()),
        }
    }

    /// An enabled sink starting from the all-zero report.
    #[must_use]
    pub fn enabled() -> Metrics {
        Metrics {
            enabled: true,
            inner: Mutex::new(MetricsReport::new()),
        }
    }

    /// Whether this sink records anything.
    #[inline]
    #[must_use]
    pub const fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn with(&self, f: impl FnOnce(&mut MetricsReport)) {
        if !self.enabled {
            return;
        }
        match self.inner.lock() {
            Ok(mut r) => f(&mut r),
            Err(poisoned) => f(&mut poisoned.into_inner()),
        }
    }

    /// Copies out the current report (all-zero on a disabled sink).
    #[must_use]
    pub fn snapshot(&self) -> MetricsReport {
        match self.inner.lock() {
            Ok(r) => *r,
            Err(poisoned) => *poisoned.into_inner(),
        }
    }

    /// Resets the report to all-zero.
    pub fn reset(&self) {
        self.with(|r| *r = MetricsReport::new());
    }

    /// Folds `other` into this sink's report (see [`MetricsReport::merge`]).
    pub fn absorb(&self, other: &MetricsReport) {
        self.with(|r| r.merge(other));
    }

    /// One timeline transfer window of `bytes` on `tier`.
    pub fn wire_transfer(&self, tier: usize, bytes: u64) {
        self.with(|r| {
            r.wire_bytes_by_tier[tier] += bytes;
            r.wire_transfers_by_tier[tier] += 1;
            r.transfer_bytes.record(bytes);
        });
    }

    /// Adds `ps` of per-link serialization busy time on `tier`.
    pub fn link_busy(&self, tier: usize, ps: u64) {
        self.with(|r| r.link_busy_ps_by_tier[tier] += ps);
    }

    /// Folds the busiest-link watermark.
    pub fn max_link_busy(&self, ps: u64) {
        self.with(|r| r.max_link_busy_ps = r.max_link_busy_ps.max(ps));
    }

    /// Folds the end-to-end completion watermark.
    pub fn wall(&self, ps: u64) {
        self.with(|r| r.wall_ps = r.wall_ps.max(ps));
    }

    /// One barrier costing `ps`.
    pub fn barrier(&self, ps: u64) {
        self.with(|r| {
            r.barriers += 1;
            r.barrier_wait_ps += ps;
        });
    }

    /// One straggler delaying by `delay_ns`.
    pub fn straggler(&self, delay_ns: u64) {
        self.with(|r| {
            r.stragglers += 1;
            r.max_straggler_delay_ns = r.max_straggler_delay_ns.max(delay_ns);
        });
    }

    /// One executed step: its staging snapshot, whether the arena grew,
    /// and the per-tier injected/delivered byte observations.
    pub fn exec_step(&self, tier: usize, injected: u64, delivered: u64, grew: bool) {
        self.with(|r| {
            r.exec_steps += 1;
            r.arena_snapshots += 1;
            r.arena_grows += u64::from(grew);
            r.exec_bytes_injected_by_tier[tier] += injected;
            r.exec_bytes_delivered_by_tier[tier] += delivered;
        });
    }

    /// Fault-layer counters from one executor run.
    pub fn fault_counts(&self, crc_checks: u64, corrupted: u64, retries: u64) {
        self.with(|r| {
            r.crc_checks += crc_checks;
            r.corrupted += corrupted;
            r.retries += retries;
        });
    }

    /// `n` NoC packet retransmissions.
    pub fn retransmissions(&self, n: u64) {
        self.with(|r| r.retransmissions += n);
    }

    /// One schedule-cache hit.
    pub fn cache_hit(&self) {
        self.with(|r| r.cache_hits += 1);
    }

    /// One schedule-cache miss.
    pub fn cache_miss(&self) {
        self.with(|r| r.cache_misses += 1);
    }

    /// One wait on another worker's in-flight build.
    pub fn cache_dedup_wait(&self) {
        self.with(|r| r.cache_dedup_waits += 1);
    }

    /// Adds modeled per-tier communication time (ps) from a workload.
    pub fn comm_time(&self, tier: usize, ps: u64) {
        self.with(|r| r.comm_time_ps_by_tier[tier] += ps);
    }

    /// Adds modeled sync / local-memory / host time (ps) from a workload.
    pub fn program_time(&self, sync_ps: u64, mem_ps: u64, host_ps: u64) {
        self.with(|r| {
            r.sync_time_ps += sync_ps;
            r.mem_time_ps += mem_ps;
            r.host_time_ps += host_ps;
        });
    }

    /// NoC totals from one cycle-accurate run.
    pub fn noc(&self, injected: u64, delivered: u64, stalls: u64, packets: u64) {
        self.with(|r| {
            r.noc_injected_bytes += injected;
            r.noc_delivered_bytes += delivered;
            r.noc_stall_cycles += stalls;
            r.noc_packets += packets;
        });
    }

    /// Records the degradation-ladder tier of a planned run (keeps the
    /// worst rung across multiple plans).
    pub fn degraded_tier(&self, tier: u8) {
        self.with(|r| {
            r.degraded_tier = Some(r.degraded_tier.map_or(tier, |t| t.max(tier)));
        });
    }

    /// One recovery-manager step completion (also a checkpoint).
    pub fn recovery_step(&self) {
        self.with(|r| {
            r.recovery_steps += 1;
            r.recovery_checkpoints += 1;
        });
    }

    /// One step-level recovery retry that waited `backoff_ps` (the total
    /// saturates, like the recovery clock).
    pub fn recovery_retry(&self, backoff_ps: u64) {
        self.with(|r| {
            r.recovery_retries += 1;
            r.recovery_backoff_ps = r.recovery_backoff_ps.saturating_add(backoff_ps);
        });
    }

    /// One mid-run replan.
    pub fn recovery_replan(&self) {
        self.with(|r| r.recovery_replans += 1);
    }

    /// One health-tracker quarantine promotion.
    pub fn recovery_quarantine(&self) {
        self.with(|r| r.recovery_quarantines += 1);
    }

    /// `n` timed permanent-fault arrivals absorbed at a step boundary.
    pub fn recovery_arrivals(&self, n: u64) {
        self.with(|r| r.recovery_arrivals += n);
    }

    /// One request reaching the serving engine's admission stage.
    pub fn serve_request(&self) {
        self.with(|r| r.serve_requests += 1);
    }

    /// One request admitted into its tenant queue.
    pub fn serve_admit(&self) {
        self.with(|r| r.serve_admitted += 1);
    }

    /// One request shed; flags mark the deadline / quarantine classes.
    pub fn serve_shed(&self, deadline: bool, quarantine: bool) {
        self.with(|r| {
            r.serve_shed += 1;
            if deadline {
                r.serve_deadline_shed += 1;
            }
            if quarantine {
                r.serve_quarantine_shed += 1;
            }
        });
    }

    /// One request served end-to-end over `chunks` dispatched chunks;
    /// `host_fallback` marks tier-3 service.
    pub fn serve_complete(&self, chunks: u64, host_fallback: bool) {
        self.with(|r| {
            r.serve_completed += 1;
            r.serve_chunks += chunks;
            if host_fallback {
                r.serve_host_fallback += 1;
            }
        });
    }

    /// Folds an overload-ladder level into the peak watermark.
    pub fn serve_ladder(&self, level: u64) {
        self.with(|r| r.serve_ladder_peak = r.serve_ladder_peak.max(level));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_stays_all_zero() {
        static M: Metrics = Metrics::disabled();
        M.wire_transfer(1, 4096);
        M.barrier(10);
        M.cache_hit();
        M.degraded_tier(3);
        M.wall(99);
        assert!(!M.is_enabled());
        assert_eq!(M.snapshot(), MetricsReport::new());
    }

    #[test]
    fn counters_accumulate_and_watermarks_fold_max() {
        let m = Metrics::enabled();
        m.wire_transfer(1, 100);
        m.wire_transfer(1, 50);
        m.wire_transfer(3, 7);
        m.wall(10);
        m.wall(5);
        m.max_link_busy(4);
        m.max_link_busy(9);
        m.straggler(100);
        m.straggler(40);
        let r = m.snapshot();
        assert_eq!(r.wire_bytes_by_tier, [0, 150, 0, 7]);
        assert_eq!(r.wire_transfers_by_tier, [0, 2, 0, 1]);
        assert_eq!(r.wall_ps, 10);
        assert_eq!(r.max_link_busy_ps, 9);
        assert_eq!(r.stragglers, 2);
        assert_eq!(r.max_straggler_delay_ns, 100);
        assert_eq!(r.transfer_bytes.count(), 3);
    }

    #[test]
    fn merge_matches_recording_into_one_sink() {
        let a = Metrics::enabled();
        let b = Metrics::enabled();
        let joint = Metrics::enabled();
        for (m, tier, bytes) in [(&a, 1usize, 64u64), (&b, 2, 128)] {
            m.wire_transfer(tier, bytes);
            joint.wire_transfer(tier, bytes);
        }
        a.barrier(5);
        joint.barrier(5);
        b.degraded_tier(2);
        joint.degraded_tier(2);
        a.degraded_tier(1);
        joint.degraded_tier(1);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, joint.snapshot());
        assert_eq!(merged.degraded_tier, Some(2), "worst rung wins");
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.buckets[0], 2, "0 and 1 share the first bucket");
        assert_eq!(h.buckets[1], 2, "2 and 3");
        assert_eq!(h.buckets[2], 1, "4");
        assert_eq!(h.buckets[9], 1, "1023");
        assert_eq!(h.buckets[10], 1, "1024");
        assert_eq!(h.buckets[16], 1, "overflow");
        assert_eq!(h.count(), 8);
        assert_eq!(Histogram::bucket_floor(0), 0);
        assert_eq!(Histogram::bucket_floor(10), 1024);
    }

    #[test]
    fn csv_and_render_are_deterministic_and_complete() {
        let m = Metrics::enabled();
        m.wire_transfer(2, 4096);
        m.exec_step(2, 4096, 4096, true);
        m.fault_counts(10, 2, 2);
        m.degraded_tier(1);
        let r = m.snapshot();
        assert_eq!(r.to_csv(), r.to_csv());
        let csv = r.to_csv();
        assert!(csv.contains("wire_bytes.inter-chip,4096"));
        assert!(csv.contains("exec_bytes_injected.inter-chip,4096"));
        assert!(csv.contains("arena_reuses,0"));
        assert!(csv.contains("degraded_tier,1"));
        let pretty = r.render();
        assert!(pretty.contains("degraded_tier_name"));
        assert!(pretty.contains("repaired"));
        assert!(!pretty.contains("noc_packets"), "zero rows are hidden");
    }

    #[test]
    fn recovery_counters_accumulate_and_merge() {
        let m = Metrics::enabled();
        m.recovery_step();
        m.recovery_step();
        m.recovery_retry(100);
        m.recovery_retry(200);
        m.recovery_replan();
        m.recovery_quarantine();
        m.recovery_arrivals(3);
        let r = m.snapshot();
        assert_eq!(r.recovery_steps, 2);
        assert_eq!(r.recovery_checkpoints, 2);
        assert_eq!(r.recovery_retries, 2);
        assert_eq!(r.recovery_backoff_ps, 300);
        assert_eq!(r.recovery_replans, 1);
        assert_eq!(r.recovery_quarantines, 1);
        assert_eq!(r.recovery_arrivals, 3);
        let mut merged = r;
        merged.merge(&r);
        assert_eq!(merged.recovery_steps, 4);
        assert_eq!(merged.recovery_backoff_ps, 600);
        let csv = r.to_csv();
        assert!(csv.contains("recovery_steps,2"));
        assert!(csv.contains("recovery_backoff_ps,300"));
    }

    #[test]
    fn tier_and_ladder_names_are_stable() {
        assert_eq!(tier_name(0), "local");
        assert_eq!(tier_name(1), "inter-bank");
        assert_eq!(tier_name(2), "inter-chip");
        assert_eq!(tier_name(3), "inter-rank");
        assert_eq!(ladder_name(0), "full");
        assert_eq!(ladder_name(3), "host-fallback");
    }
}
