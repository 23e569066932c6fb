//! `pimnet::serve` — a deterministic, long-lived multi-tenant
//! request-stream engine over the static-schedule stack.
//!
//! The one-shot figure sweeps answer "how fast is one collective"; real
//! PIM deployments face a *stream*: N tenants (DLRM embedding lookups
//! are the canonical traffic) each firing collectives at their own rate
//! against their own spatial shard of the machine, with the engine
//! obliged to stay correct under overload and runtime fault storms.
//! This module is that serving layer:
//!
//! * **seeded arrival traces** — every tenant's request stream is a pure
//!   function of the engine seed ([`sample_arrivals`]), so a run is
//!   replayable byte-for-byte;
//! * **bounded queues + token buckets** — admission control sheds
//!   explicitly with [`PimnetError::AdmissionRejected`] when a tenant's
//!   queue fills or its bucket is dry, never queueing forever;
//! * **deadline-aware dispatch** — FIFO, LIFO, or priority order
//!   ([`QueuePolicy`]); a request whose deadline has already slipped is
//!   shed with [`PimnetError::DeadlineExceeded`] instead of served late;
//! * **chunked service** — requests split into chunks interleaved
//!   round-robin over the tenant's private channels (the
//!   ASTRA-sim-style `preferred-dataset-splits` /
//!   `active-chunks-per-dimension` knobs);
//! * **overload ladder** — a *monotone* engine-wide level ratchet:
//!   full service → shrunk chunking → shed low-priority → per-tenant
//!   host fallback ([`OverloadThresholds`]);
//! * **fault-storm composition** — with an active [`FaultConfig`] the
//!   dispatch path runs each request through
//!   [`crate::recovery::run_recovered`] against the storm
//!   timeline rebased to the request's own start time
//!   ([`pim_faults::FaultTimeline::shifted`]); tenants whose requests
//!   repeatedly fail are quarantined with probation hysteresis.
//!
//! Every request ends in **exactly one** typed outcome — served, shed,
//! quarantined, or host-fallback ([`RequestOutcome`]) — enforced by
//! construction (the engine slots outcomes into a one-per-request table
//! and panics on a double write, which the soak suite would surface).
//! The whole run is bit-identical across worker counts and seeds; the
//! schedule cache turns per-tenant compilation into cross-tenant cache
//! hits, which is what makes a thousand-request soak cheap.

use std::collections::VecDeque;

use pim_arch::geometry::{DpuId, PimGeometry};
use pim_arch::{HostLink, SystemConfig};
use pim_faults::{FaultConfig, FaultInjector, HealthConfig};
use pim_sim::rng::hash_coords;
use pim_sim::trace::codes;
use pim_sim::{Bytes, Probe, SimTime};

use crate::backends::{BaselineHostBackend, CollectiveBackend};
use crate::collective::{CollectiveKind, CollectiveSpec};
use crate::error::PimnetError;
use crate::exec::ReduceOp;
use crate::fabric::FabricConfig;
use crate::recovery::{run_recovered, RecoveryRequest};
use crate::schedule::cache::{self, Algo, Proof, ScheduleRequest};
use crate::schedule::CommSchedule;
use crate::timing::TimingModel;

/// How long a quarantined tenant is shed before probation starts: 0.5 ms
/// on the serve clock. Entry and exit follow `HealthConfig::default()`'s
/// hysteresis (3 failures in, 2 probation successes out).
pub const QUARANTINE_PS: u64 = 500_000_000;

/// Dequeue order within a tenant queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueuePolicy {
    /// Oldest request first.
    #[default]
    Fifo,
    /// Newest request first (freshest data wins; stale ones age out and
    /// are shed at their deadline).
    Lifo,
    /// Highest priority first; earliest deadline breaks ties.
    Priority,
}

impl QueuePolicy {
    /// Parses the CLI spelling (`fifo` / `lifo` / `priority`).
    ///
    /// # Errors
    ///
    /// Returns the unrecognized text.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fifo" => Ok(QueuePolicy::Fifo),
            "lifo" => Ok(QueuePolicy::Lifo),
            "priority" => Ok(QueuePolicy::Priority),
            other => Err(format!(
                "unknown queue policy '{other}' (expected fifo|lifo|priority)"
            )),
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QueuePolicy::Fifo => "fifo",
            QueuePolicy::Lifo => "lifo",
            QueuePolicy::Priority => "priority",
        }
    }
}

/// One tenant's shard, traffic shape, and admission knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Display name (lands in the request-log CSV).
    pub name: String,
    /// The tenant's private spatial shard (single channel; the fig 17
    /// mapping gives each tenant its own ranks).
    pub geometry: PimGeometry,
    /// The collective each request runs.
    pub kind: CollectiveKind,
    /// Elements per node per request.
    pub elems_per_node: usize,
    /// Bytes per element on the wire.
    pub elem_bytes: u32,
    /// Bounded queue depth; admission sheds beyond it.
    pub queue_capacity: usize,
    /// Token-bucket burst capacity.
    pub bucket_capacity: u64,
    /// One token accrues every this many picoseconds (0 = unmetered).
    pub token_every_ps: u64,
    /// Scheduling priority, higher wins; the overload ladder sheds
    /// below [`ServeConfig::shed_priority_below`] at level ≥ 2.
    pub priority: u8,
    /// Relative deadline stamped on each request at arrival.
    pub deadline_ps: u64,
    /// Mean inter-arrival gap of the seeded trace.
    pub mean_gap_ps: u64,
    /// Virtual channels chunks interleave over (≥ 1).
    pub channels: u32,
    /// Opt-in: admit per-geometry autotuned schedules. The admission
    /// path prices each chunk off the [`crate::schedule::autotune`]
    /// winner instead of the paper's Table V schedule; the incumbent
    /// keeps ties, so an autotuned tenant never prices worse. Off by
    /// default so existing serving traces stay byte-identical.
    pub autotune: bool,
}

impl TenantConfig {
    /// A tenant with fig 17's per-tenant shard (2 ranks × 8 chips × 8
    /// banks) and round numbers for every serving knob.
    #[must_use]
    pub fn new(name: &str) -> Self {
        TenantConfig {
            name: name.to_string(),
            geometry: PimGeometry::new(8, 8, 2, 1),
            kind: CollectiveKind::AllReduce,
            elems_per_node: 256,
            elem_bytes: 4,
            queue_capacity: 8,
            bucket_capacity: 4,
            token_every_ps: 50_000_000, // one token per 50 us
            priority: 1,
            deadline_ps: 2_000_000_000, // 2 ms
            mean_gap_ps: 100_000_000,   // 100 us
            channels: 2,
            autotune: false,
        }
    }
}

/// Backlog thresholds (total queued requests across tenants) that
/// ratchet the overload ladder. The level is *monotone*: it only ever
/// climbs within a run, so degradation decisions are replayable and
/// the soak suite can assert the ladder never flaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadThresholds {
    /// Backlog at which chunking shrinks (level 1).
    pub shrink_at: usize,
    /// Backlog at which low-priority requests are shed (level 2).
    pub shed_at: usize,
    /// Backlog at which service moves to the per-tenant host path
    /// (level 3).
    pub fallback_at: usize,
}

impl Default for OverloadThresholds {
    fn default() -> Self {
        OverloadThresholds {
            shrink_at: 8,
            shed_at: 16,
            fallback_at: 24,
        }
    }
}

/// Everything one serving run needs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The tenants, index = tenant id.
    pub tenants: Vec<TenantConfig>,
    /// Dequeue order within each tenant queue.
    pub policy: QueuePolicy,
    /// Seed of the arrival trace (and of the fault scenario when
    /// `faults.seed` is 0).
    pub seed: u64,
    /// Arrivals are sampled on `[0, horizon_ps)`; queued work drains
    /// past the horizon.
    pub horizon_ps: u64,
    /// Base chunk size (elements); level ≥ 1 halves it.
    pub chunk_elems: usize,
    /// At ladder level ≥ 2, requests below this priority are shed.
    pub shed_priority_below: u8,
    /// Ladder thresholds.
    pub overload: OverloadThresholds,
    /// Fabric timing the tenants' shards run on.
    pub fabric: FabricConfig,
    /// Host-link override for the host-fallback path; `None` keeps the
    /// paper's link. Co-tenancy time-shares the host path (fig 17
    /// halves it) while PIMnet's lower tiers stay physically private.
    pub host: Option<HostLink>,
    /// The fault scenario; an inactive config keeps the whole run on
    /// the analytic fast path.
    pub faults: FaultConfig,
}

impl ServeConfig {
    /// `n` uniform tenants (named `t0..`) under the given seed, fault
    /// free, with default knobs everywhere.
    #[must_use]
    pub fn uniform(n: usize, seed: u64) -> Self {
        ServeConfig {
            tenants: (0..n)
                .map(|i| TenantConfig::new(&format!("t{i}")))
                .collect(),
            policy: QueuePolicy::Fifo,
            seed,
            horizon_ps: 2_000_000_000, // 2 ms
            chunk_elems: 128,
            shed_priority_below: 1,
            overload: OverloadThresholds::default(),
            fabric: FabricConfig::paper(),
            host: None,
            faults: FaultConfig::none(),
        }
    }
}

/// One sampled request of the arrival trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Global id, dense in arrival order.
    pub id: u64,
    /// Tenant index into [`ServeConfig::tenants`].
    pub tenant: u32,
    /// Per-tenant sequence number.
    pub seq: u64,
    /// Arrival time on the serve clock.
    pub arrive_ps: u64,
    /// Absolute deadline (`arrive + tenant.deadline_ps`).
    pub deadline_ps: u64,
    /// Tenant priority at sampling time.
    pub priority: u8,
    /// Elements per node this request moves.
    pub elems: usize,
}

/// Why admission control shed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's bounded queue was full.
    QueueFull,
    /// The tenant's token bucket was empty.
    NoTokens,
    /// The deadline slipped before dispatch.
    Deadline,
    /// The overload ladder is shedding this priority class.
    LowPriority,
}

impl ShedReason {
    /// Stable trace/CSV keyword.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue-full",
            ShedReason::NoTokens => "no-tokens",
            ShedReason::Deadline => "deadline",
            ShedReason::LowPriority => "low-priority",
        }
    }

    /// Stable trace-arg code (matches the `SERVE_SHED` doc).
    #[must_use]
    pub fn code(self) -> u64 {
        match self {
            ShedReason::QueueFull => 1,
            ShedReason::NoTokens => 2,
            ShedReason::Deadline => 3,
            ShedReason::LowPriority => 4,
        }
    }
}

/// The exactly-one typed end state of a request.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOutcome {
    /// Served on the PIM fabric at ladder tier ≤ 2.
    Served {
        /// Dispatch time.
        start_ps: u64,
        /// Completion time.
        end_ps: u64,
        /// Degradation tier the service ended at (0 full … 2 shrunk).
        tier: u8,
        /// Chunks dispatched across the tenant's channels.
        chunks: u32,
    },
    /// Served, but over the host path (ladder level 3, or the recovery
    /// manager escalated to the host-fallback rung).
    HostFallback {
        /// Dispatch time.
        start_ps: u64,
        /// Completion time.
        end_ps: u64,
    },
    /// Shed with a typed rejection ([`PimnetError::AdmissionRejected`],
    /// [`PimnetError::DeadlineExceeded`], or the terminal error of a
    /// failed recovery).
    Shed {
        /// When the shed was decided.
        at_ps: u64,
        /// Why admission or dispatch said no (`None` for a failed
        /// recovery, where `error` carries the cause).
        reason: Option<ShedReason>,
        /// The typed rejection.
        error: PimnetError,
    },
    /// Shed because the tenant was quarantined at arrival.
    Quarantined {
        /// When the request hit the quarantine wall.
        at_ps: u64,
        /// The tenant's quarantine epoch at that instant.
        epoch: u64,
    },
}

impl RequestOutcome {
    /// The acceptance-criteria class: `served`, `shed`, `quarantined`,
    /// or `host-fallback`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            RequestOutcome::Served { .. } => "served",
            RequestOutcome::HostFallback { .. } => "host-fallback",
            RequestOutcome::Shed { .. } => "shed",
            RequestOutcome::Quarantined { .. } => "quarantined",
        }
    }
}

/// A request joined with its outcome — one row of the request log.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    /// The sampled request.
    pub request: Request,
    /// How it ended.
    pub outcome: RequestOutcome,
}

impl RequestRecord {
    /// End-to-end latency for served / host-fallback requests.
    #[must_use]
    pub fn latency_ps(&self) -> Option<u64> {
        match self.outcome {
            RequestOutcome::Served { end_ps, .. } | RequestOutcome::HostFallback { end_ps, .. } => {
                Some(end_ps.saturating_sub(self.request.arrive_ps))
            }
            _ => None,
        }
    }
}

/// A ladder transition (`level` is the new, higher level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderStep {
    /// When the ratchet clicked.
    pub at_ps: u64,
    /// The new level (1..=3).
    pub level: u8,
    /// Backlog that triggered it.
    pub backlog: usize,
}

/// A tenant quarantine boundary crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineEvent {
    /// When it happened.
    pub at_ps: u64,
    /// The tenant.
    pub tenant: u32,
    /// `true` = entered quarantine, `false` = restored to healthy.
    pub entered: bool,
    /// The tenant's quarantine epoch after the crossing.
    pub epoch: u64,
}

/// Everything one serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// One record per sampled request, ordered by request id.
    pub log: Vec<RequestRecord>,
    /// Ladder transitions in time order (empty = never left level 0).
    pub ladder: Vec<LadderStep>,
    /// Quarantine enter/restore events in time order.
    pub quarantines: Vec<QuarantineEvent>,
    /// Serve-clock time the last request retired.
    pub end_ps: u64,
}

impl ServeReport {
    /// The final (peak) overload level.
    #[must_use]
    pub fn peak_level(&self) -> u8 {
        self.ladder.last().map_or(0, |l| l.level)
    }

    /// Count of records in the given outcome class
    /// (`served` / `shed` / `quarantined` / `host-fallback`).
    #[must_use]
    pub fn count(&self, kind: &str) -> usize {
        self.log.iter().filter(|r| r.outcome.kind() == kind).count()
    }

    /// Sorted end-to-end latencies of served + host-fallback requests.
    #[must_use]
    pub fn latencies_ps(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .log
            .iter()
            .filter_map(RequestRecord::latency_ps)
            .collect();
        v.sort_unstable();
        v
    }

    /// The `p`-th latency percentile (nearest-rank), 0 when nothing was
    /// served.
    #[must_use]
    pub fn percentile_ps(&self, p: f64) -> u64 {
        let lat = self.latencies_ps();
        if lat.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
        lat[rank.clamp(1, lat.len()) - 1]
    }

    /// Sustained service rate: requests served (any tier) per second of
    /// serve-clock time.
    #[must_use]
    pub fn collectives_per_sec(&self) -> f64 {
        let served = self.count("served") + self.count("host-fallback");
        if self.end_ps == 0 {
            return 0.0;
        }
        served as f64 * 1e12 / self.end_ps as f64
    }

    /// Deterministic CSV of the request log (the byte-identity artifact
    /// of the soak suites). One row per request, ordered by id.
    #[must_use]
    pub fn render_log(&self, cfg: &ServeConfig) -> String {
        let mut out = String::from(
            "id,tenant,seq,arrive_ps,deadline_ps,priority,elems,outcome,\
             detail,start_ps,end_ps,tier,chunks,latency_ps\n",
        );
        for r in &self.log {
            let q = &r.request;
            let tenant = &cfg.tenants[q.tenant as usize].name;
            let (detail, start, end, tier, chunks) = match &r.outcome {
                RequestOutcome::Served {
                    start_ps,
                    end_ps,
                    tier,
                    chunks,
                } => (
                    "ok".to_string(),
                    *start_ps,
                    *end_ps,
                    u64::from(*tier),
                    u64::from(*chunks),
                ),
                RequestOutcome::HostFallback { start_ps, end_ps } => {
                    ("host".to_string(), *start_ps, *end_ps, 3, 0)
                }
                RequestOutcome::Shed { at_ps, reason, .. } => (
                    reason.map_or("failed", ShedReason::name).to_string(),
                    *at_ps,
                    *at_ps,
                    0,
                    0,
                ),
                RequestOutcome::Quarantined { at_ps, epoch } => {
                    (format!("epoch{epoch}"), *at_ps, *at_ps, 0, 0)
                }
            };
            let lat = r.latency_ps().map_or(0, |l| l);
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
                q.id,
                tenant,
                q.seq,
                q.arrive_ps,
                q.deadline_ps,
                q.priority,
                q.elems,
                r.outcome.kind(),
                detail,
                start,
                end,
                tier,
                chunks,
                lat,
            ));
        }
        out
    }
}

/// Samples the merged, id-stamped arrival trace of a config — a pure
/// function of `(cfg.seed, tenants)`, independent of engine state.
/// Per-tenant gaps are `mean_gap/2 + hash % mean_gap`, so the mean is
/// honored while the sequence stays coordinate-hashed (no sequential
/// RNG state to get reordered). Every gap is at least 1 ps, so the
/// trace ends at the horizon even for a 0- or 1-ps mean gap.
#[must_use]
pub fn sample_arrivals(cfg: &ServeConfig) -> Vec<Request> {
    let mut all: Vec<Request> = Vec::new();
    for (ti, t) in cfg.tenants.iter().enumerate() {
        let mut at = 0u64;
        let mut seq = 0u64;
        loop {
            let gap = (t.mean_gap_ps / 2)
                .saturating_add(hash_coords(cfg.seed, &[ti as u64, seq]) % t.mean_gap_ps.max(1))
                .max(1);
            at = at.saturating_add(gap);
            if at >= cfg.horizon_ps {
                break;
            }
            all.push(Request {
                id: 0, // stamped after the merge sort
                tenant: ti as u32,
                seq,
                arrive_ps: at,
                deadline_ps: at.saturating_add(t.deadline_ps),
                priority: t.priority,
                elems: t.elems_per_node,
            });
            seq += 1;
        }
    }
    all.sort_unstable_by_key(|r| (r.arrive_ps, r.tenant, r.seq));
    for (i, r) in all.iter_mut().enumerate() {
        r.id = i as u64;
    }
    all
}

/// Checks a finished report against the serving contract: one outcome
/// per sampled arrival, ids dense in arrival order, an overload ladder
/// that never steps down, and per-tenant quarantine epochs that never
/// regress. The engine holds these by construction; callers re-prove
/// them from the outside.
///
/// # Errors
///
/// The first clause the report broke.
pub fn check_report(cfg: &ServeConfig, report: &ServeReport) -> Result<(), String> {
    let arrivals = sample_arrivals(cfg).len();
    if report.log.len() != arrivals {
        return Err(format!(
            "request log has {} entries for {arrivals} sampled arrivals",
            report.log.len()
        ));
    }
    if let Some((i, r)) = (0u64..).zip(&report.log).find(|(i, r)| r.request.id != *i) {
        return Err(format!("log entry {i} carries request id {}", r.request.id));
    }
    if let Some(w) = report.ladder.windows(2).find(|w| w[1].level < w[0].level) {
        return Err(format!(
            "overload ladder dropped from {} to {} at {} ps",
            w[0].level, w[1].level, w[1].at_ps
        ));
    }
    let mut epochs = vec![0u64; cfg.tenants.len()];
    for q in &report.quarantines {
        let e = &mut epochs[q.tenant as usize];
        if q.epoch < *e {
            return Err(format!(
                "tenant {} quarantine epoch regressed from {} to {}",
                q.tenant, *e, q.epoch
            ));
        }
        *e = q.epoch;
    }
    Ok(())
}

/// Per-tenant quarantine state machine (probation hysteresis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    Healthy { failures: u32 },
    Quarantined { until_ps: u64 },
    Probation { successes: u32 },
}

/// Token bucket refilled by elapsed serve-clock time (integer math).
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: u64,
    last_ps: u64,
}

impl Bucket {
    fn refill(&mut self, t: &TenantConfig, now_ps: u64) {
        if t.token_every_ps == 0 {
            self.tokens = t.bucket_capacity;
            return;
        }
        let accrued = now_ps.saturating_sub(self.last_ps) / t.token_every_ps;
        if accrued > 0 {
            self.tokens = (self.tokens + accrued).min(t.bucket_capacity);
            self.last_ps += accrued * t.token_every_ps;
        }
    }
}

/// Run state of one tenant.
struct TenantState {
    queue: VecDeque<Request>,
    bucket: Bucket,
    /// `Some((busy_until, request, provisional outcome))` while serving.
    in_flight: Option<(u64, Request, RequestOutcome)>,
    health: Health,
    epoch: u64,
    system: SystemConfig,
    timing: TimingModel,
}

/// The engine itself; lives for one [`serve_probed`] call.
struct Engine<'a> {
    cfg: &'a ServeConfig,
    probe: &'a Probe,
    tenants: Vec<TenantState>,
    outcomes: Vec<Option<RequestOutcome>>,
    requests: Vec<Request>,
    level: u8,
    ladder: Vec<LadderStep>,
    quarantines: Vec<QuarantineEvent>,
    injector: FaultInjector,
    end_ps: u64,
}

/// Serves the whole configured stream; see the module docs.
///
/// # Errors
///
/// Configuration errors (no tenants, zero-element requests, a zero-depth
/// queue, a zero mean arrival gap) surface as
/// [`PimnetError::InvalidMessage`]; per-request service errors never
/// abort the run — they land in that request's typed outcome.
pub fn serve(cfg: &ServeConfig) -> Result<ServeReport, PimnetError> {
    serve_probed(cfg, Probe::disabled())
}

/// [`serve`] with `serve-*` trace events and `serve_*` metrics counters.
/// A disabled probe is bit-identical to [`serve`].
///
/// # Errors
///
/// Exactly those of [`serve`].
pub fn serve_probed(cfg: &ServeConfig, probe: &Probe) -> Result<ServeReport, PimnetError> {
    if cfg.tenants.is_empty() {
        return Err(PimnetError::InvalidMessage {
            reason: "serve config names no tenants".into(),
        });
    }
    for t in &cfg.tenants {
        if t.elems_per_node == 0 || t.elem_bytes == 0 {
            return Err(PimnetError::InvalidMessage {
                reason: format!("tenant {} has a zero-sized request shape", t.name),
            });
        }
        if t.queue_capacity == 0 {
            return Err(PimnetError::InvalidMessage {
                reason: format!("tenant {} has a zero-depth queue", t.name),
            });
        }
        if t.mean_gap_ps == 0 {
            return Err(PimnetError::InvalidMessage {
                reason: format!("tenant {} has a zero mean arrival gap", t.name),
            });
        }
    }
    let requests = sample_arrivals(cfg);
    let tenants = cfg
        .tenants
        .iter()
        .map(|t| {
            let mut system = SystemConfig::paper().with_geometry(t.geometry);
            if let Some(host) = cfg.host {
                system = system.with_host(host);
            }
            TenantState {
                queue: VecDeque::new(),
                bucket: Bucket {
                    tokens: t.bucket_capacity,
                    last_ps: 0,
                },
                in_flight: None,
                health: Health::Healthy { failures: 0 },
                epoch: 0,
                timing: TimingModel::new(cfg.fabric, system),
                system,
            }
        })
        .collect();
    let mut eng = Engine {
        cfg,
        probe,
        tenants,
        outcomes: vec![None; requests.len()],
        requests,
        level: 0,
        ladder: Vec::new(),
        quarantines: Vec::new(),
        injector: FaultInjector::new(cfg.faults.clone()),
        end_ps: 0,
    };
    eng.run()?;
    let log = eng
        .requests
        .iter()
        .zip(eng.outcomes)
        .map(|(request, outcome)| RequestRecord {
            request: *request,
            outcome: outcome.expect("engine retired every request exactly once"),
        })
        .collect();
    Ok(ServeReport {
        log,
        ladder: eng.ladder,
        quarantines: eng.quarantines,
        end_ps: eng.end_ps,
    })
}

impl Engine<'_> {
    fn run(&mut self) -> Result<(), PimnetError> {
        let mut next_arrival = 0usize;
        loop {
            // Earliest completion, tenant index breaking ties.
            let completion = self
                .tenants
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.in_flight.as_ref().map(|(end, _, _)| (*end, i)))
                .min();
            let arrival = self.requests.get(next_arrival).map(|r| r.arrive_ps);
            match (completion, arrival) {
                (None, None) => break,
                // Completions first on ties, so a freed tenant can take
                // the simultaneous arrival.
                (Some((ct, ti)), at) if ct <= at.unwrap_or(u64::MAX) => {
                    self.complete(ti, ct);
                    self.dispatch(ti, ct)?;
                }
                _ => {
                    let req = self.requests[next_arrival];
                    next_arrival += 1;
                    self.admit(req)?;
                }
            }
        }
        Ok(())
    }

    /// Slots the one-and-only outcome of a request; a second write for
    /// the same id is an engine bug and panics (the soak suite would
    /// catch it).
    fn retire(&mut self, id: u64, outcome: RequestOutcome) {
        let slot = &mut self.outcomes[id as usize];
        assert!(
            slot.is_none(),
            "request {id} retired twice: {slot:?} then {outcome:?}"
        );
        *slot = Some(outcome);
    }

    fn ratchet(&mut self, now_ps: u64) {
        let backlog: usize = self.tenants.iter().map(|t| t.queue.len()).sum();
        let o = &self.cfg.overload;
        let target = if backlog >= o.fallback_at {
            3
        } else if backlog >= o.shed_at {
            2
        } else if backlog >= o.shrink_at {
            1
        } else {
            0
        };
        while self.level < target {
            self.level += 1;
            self.ladder.push(LadderStep {
                at_ps: now_ps,
                level: self.level,
                backlog,
            });
            self.probe.trace.instant(
                SimTime::from_ps(now_ps),
                codes::SERVE_LADDER,
                [u64::from(self.level), backlog as u64, now_ps, 0],
            );
            self.probe.metrics.serve_ladder(u64::from(self.level));
            if self.level == 1 {
                // Entering degraded chunking: pre-prove each tenant's
                // halved-chunk schedule now, so the first degraded
                // dispatch hits a warm analysis summary instead of
                // paying a full proof on the hot path. Build errors are
                // left for dispatch to surface with request context.
                let chunk = (self.cfg.chunk_elems / 2).max(1);
                for t in &self.cfg.tenants {
                    let req = ScheduleRequest::new(t.kind, &t.geometry, chunk, t.elem_bytes);
                    let _ = cache::get::<Proof>(&req, self.probe);
                }
            }
        }
    }

    fn shed(&mut self, req: &Request, now_ps: u64, reason: ShedReason) {
        let error = match reason {
            ShedReason::Deadline => PimnetError::DeadlineExceeded {
                tenant: req.tenant,
                deadline_ps: req.deadline_ps,
                now_ps,
            },
            ShedReason::QueueFull => PimnetError::AdmissionRejected {
                tenant: req.tenant,
                reason: format!(
                    "queue full (cap {})",
                    self.cfg.tenants[req.tenant as usize].queue_capacity
                ),
            },
            ShedReason::NoTokens => PimnetError::AdmissionRejected {
                tenant: req.tenant,
                reason: "token bucket empty".into(),
            },
            ShedReason::LowPriority => PimnetError::AdmissionRejected {
                tenant: req.tenant,
                reason: format!(
                    "overload level {} sheds priority < {}",
                    self.level, self.cfg.shed_priority_below
                ),
            },
        };
        self.probe.trace.instant(
            SimTime::from_ps(now_ps),
            codes::SERVE_SHED,
            [u64::from(req.tenant), req.id, reason.code(), now_ps],
        );
        self.probe
            .metrics
            .serve_shed(reason == ShedReason::Deadline, false);
        self.retire(
            req.id,
            RequestOutcome::Shed {
                at_ps: now_ps,
                reason: Some(reason),
                error,
            },
        );
    }

    fn admit(&mut self, req: Request) -> Result<(), PimnetError> {
        let now = req.arrive_ps;
        let ti = req.tenant as usize;
        self.probe.trace.instant(
            SimTime::from_ps(now),
            codes::SERVE_ARRIVE,
            [u64::from(req.tenant), req.id, now, req.elems as u64],
        );
        self.probe.metrics.serve_request();

        // Quarantine wall (and its time-based exit into probation).
        match self.tenants[ti].health {
            Health::Quarantined { until_ps } if now < until_ps => {
                let epoch = self.tenants[ti].epoch;
                self.probe.trace.instant(
                    SimTime::from_ps(now),
                    codes::SERVE_SHED,
                    [u64::from(req.tenant), req.id, 5, now],
                );
                self.probe.metrics.serve_shed(false, true);
                self.retire(req.id, RequestOutcome::Quarantined { at_ps: now, epoch });
                return Ok(());
            }
            Health::Quarantined { .. } => {
                self.tenants[ti].health = Health::Probation { successes: 0 };
            }
            _ => {}
        }

        // Overload ladder level ≥ 2: shed the low-priority class.
        if self.level >= 2 && req.priority < self.cfg.shed_priority_below {
            self.shed(&req, now, ShedReason::LowPriority);
            return Ok(());
        }

        // Token bucket.
        {
            let t = &self.cfg.tenants[ti];
            let state = &mut self.tenants[ti];
            state.bucket.refill(t, now);
            if state.bucket.tokens == 0 {
                self.shed(&req, now, ShedReason::NoTokens);
                return Ok(());
            }
            if state.queue.len() >= t.queue_capacity {
                self.shed(&req, now, ShedReason::QueueFull);
                return Ok(());
            }
            state.bucket.tokens -= 1;
            state.queue.push_back(req);
            self.probe.trace.instant(
                SimTime::from_ps(now),
                codes::SERVE_ADMIT,
                [
                    u64::from(req.tenant),
                    req.id,
                    state.queue.len() as u64,
                    state.bucket.tokens,
                ],
            );
            self.probe.metrics.serve_admit();
        }
        self.ratchet(now);
        if self.tenants[ti].in_flight.is_none() {
            self.dispatch(ti, now)?;
        }
        Ok(())
    }

    /// Pops the next request per policy, or `None` when the queue is
    /// empty.
    fn pop(&mut self, ti: usize) -> Option<Request> {
        let q = &mut self.tenants[ti].queue;
        match self.cfg.policy {
            QueuePolicy::Fifo => q.pop_front(),
            QueuePolicy::Lifo => q.pop_back(),
            QueuePolicy::Priority => {
                let best = q
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| (std::cmp::Reverse(r.priority), r.deadline_ps, r.seq))
                    .map(|(i, _)| i)?;
                q.remove(best)
            }
        }
    }

    /// Keeps dispatching until the tenant is busy or its queue drains.
    fn dispatch(&mut self, ti: usize, now_ps: u64) -> Result<(), PimnetError> {
        while self.tenants[ti].in_flight.is_none() {
            let Some(req) = self.pop(ti) else {
                return Ok(());
            };
            if now_ps > req.deadline_ps {
                self.shed(&req, now_ps, ShedReason::Deadline);
                continue;
            }
            self.start(ti, req, now_ps)?;
        }
        Ok(())
    }

    /// Starts service for one request, computing its completion time and
    /// provisional outcome up front (the engine is analytic, so service
    /// is priced at dispatch; the outcome is recorded at completion).
    fn start(&mut self, ti: usize, req: Request, now_ps: u64) -> Result<(), PimnetError> {
        let t = &self.cfg.tenants[ti];
        if self.level >= 3 {
            // Per-tenant host fallback: the engine stops scheduling the
            // PIM fabric entirely for new dispatches.
            let spec = CollectiveSpec::new(
                t.kind,
                Bytes::new(req.elems as u64 * u64::from(t.elem_bytes)),
            )
            .with_elem_bytes(t.elem_bytes);
            let dur = BaselineHostBackend::new(self.tenants[ti].system)
                .collective(&spec)?
                .total()
                .as_ps()
                .max(1);
            let end = now_ps.saturating_add(dur);
            self.begin(ti, req, now_ps, end, 0);
            self.tenants[ti].in_flight = Some((
                end,
                req,
                RequestOutcome::HostFallback {
                    start_ps: now_ps,
                    end_ps: end,
                },
            ));
            return Ok(());
        }

        if self.injector.is_active() {
            return self.start_recovered(ti, req, now_ps);
        }

        // Analytic fast path: chunked service off the schedule cache.
        let chunk = if self.level >= 1 {
            (self.cfg.chunk_elems / 2).max(1)
        } else {
            self.cfg.chunk_elems.max(1)
        };
        let state = &self.tenants[ti];
        let full_chunks = req.elems / chunk;
        let tail = req.elems % chunk;
        let nchunks = (full_chunks + usize::from(tail > 0)).max(1);
        let mut chan_busy = vec![now_ps; t.channels.max(1) as usize];
        let price = |elems: usize| -> Result<u64, PimnetError> {
            // Prove the chunk schedule before pricing it (warm hits in
            // the analysis-summary cache skip re-proving): the serving
            // hot path never dispatches an unverified schedule.
            let paper = ScheduleRequest::new(t.kind, &t.geometry, elems, t.elem_bytes);
            let summary = &cache::get::<Proof>(&paper, self.probe)?.summary;
            if summary.report.has_errors() {
                return Err(PimnetError::ScheduleInvalid {
                    reason: format!(
                        "chunk schedule failed static analysis ({} error(s))",
                        summary.report.error_count()
                    ),
                });
            }
            // Opt-in tuned admission: the tuner proves a composed
            // candidate clean before it can win, and the paper incumbent
            // keeps ties, so a tuned tenant never prices worse than the
            // paper.
            let algo = if t.autotune { Algo::Tuned } else { Algo::Paper };
            let s = cache::get::<CommSchedule>(&ScheduleRequest { algo, ..paper }, self.probe)?;
            Ok(state
                .timing
                .time_schedule(&s, SimTime::ZERO)
                .total()
                .as_ps()
                .max(1))
        };
        let full_dur = if full_chunks > 0 {
            price(chunk.min(req.elems))?
        } else {
            0
        };
        let tail_dur = if tail > 0 { price(tail)? } else { 0 };
        for j in 0..nchunks {
            let dur = if j < full_chunks { full_dur } else { tail_dur };
            let c = j % chan_busy.len();
            chan_busy[c] = chan_busy[c].saturating_add(dur);
        }
        let end = chan_busy
            .iter()
            .copied()
            .max()
            .unwrap_or(now_ps)
            .max(now_ps.saturating_add(1));
        let tier = u8::from(self.level >= 1);
        self.begin(ti, req, now_ps, end, nchunks as u32);
        self.tenants[ti].in_flight = Some((
            end,
            req,
            RequestOutcome::Served {
                start_ps: now_ps,
                end_ps: end,
                tier,
                chunks: nchunks as u32,
            },
        ));
        Ok(())
    }

    /// Fault-path service: one recovered collective against the storm
    /// timeline rebased to this request's start.
    fn start_recovered(&mut self, ti: usize, req: Request, now_ps: u64) -> Result<(), PimnetError> {
        let t = &self.cfg.tenants[ti];
        let mut storm = self.cfg.faults.clone();
        storm.timeline = self.injector.timeline().shifted(now_ps);
        let injector = FaultInjector::new(storm);
        let state = &self.tenants[ti];
        let rreq = RecoveryRequest {
            kind: t.kind,
            geometry: &t.geometry,
            elems_per_node: req.elems,
            elem_bytes: t.elem_bytes,
            op: ReduceOp::Sum,
            injector: &injector,
            system: &state.system,
            timing: &state.timing,
        };
        let seed = self.cfg.seed;
        let outcome = run_recovered(
            &rreq,
            |id: DpuId| -> Vec<u64> {
                (0..req.elems)
                    .map(|e| hash_coords(seed, &[u64::from(id.0), e as u64]) >> 32)
                    .collect()
            },
            self.probe,
        );
        let provisional = match outcome {
            Ok(o) => {
                let end = now_ps.saturating_add(o.end_ps.max(1));
                if o.plan_tier >= 3 {
                    RequestOutcome::HostFallback {
                        start_ps: now_ps,
                        end_ps: end,
                    }
                } else {
                    RequestOutcome::Served {
                        start_ps: now_ps,
                        end_ps: end,
                        tier: o.plan_tier,
                        chunks: 1,
                    }
                }
            }
            Err(error) => {
                let end = now_ps.saturating_add(self.cfg.faults.watchdog_ps.max(1));
                RequestOutcome::Shed {
                    at_ps: end,
                    reason: None,
                    error,
                }
            }
        };
        let end = match &provisional {
            RequestOutcome::Served { end_ps, .. } | RequestOutcome::HostFallback { end_ps, .. } => {
                *end_ps
            }
            RequestOutcome::Shed { at_ps, .. } => *at_ps,
            RequestOutcome::Quarantined { .. } => unreachable!(),
        };
        self.begin(ti, req, now_ps, end, 1);
        self.tenants[ti].in_flight = Some((end, req, provisional));
        Ok(())
    }

    fn begin(&mut self, ti: usize, req: Request, now_ps: u64, _end_ps: u64, chunks: u32) {
        let _ = ti;
        self.probe.trace.instant(
            SimTime::from_ps(now_ps),
            codes::SERVE_START,
            [u64::from(req.tenant), req.id, u64::from(chunks), now_ps],
        );
    }

    /// Retires the in-flight request of tenant `ti` at its completion
    /// time and folds the result into the tenant's health machine.
    fn complete(&mut self, ti: usize, now_ps: u64) {
        let (end, req, outcome) = self.tenants[ti]
            .in_flight
            .take()
            .expect("complete() called on an idle tenant");
        debug_assert_eq!(end, now_ps);
        self.end_ps = self.end_ps.max(end);
        match &outcome {
            RequestOutcome::Served { tier, chunks, .. } => {
                self.probe.trace.instant(
                    SimTime::from_ps(now_ps),
                    codes::SERVE_DONE,
                    [
                        u64::from(req.tenant),
                        req.id,
                        u64::from(*tier),
                        end.saturating_sub(req.arrive_ps),
                    ],
                );
                self.probe.metrics.serve_complete(u64::from(*chunks), false);
                self.record_success(ti, now_ps);
            }
            RequestOutcome::HostFallback { .. } => {
                self.probe.trace.instant(
                    SimTime::from_ps(now_ps),
                    codes::SERVE_DONE,
                    [
                        u64::from(req.tenant),
                        req.id,
                        3,
                        end.saturating_sub(req.arrive_ps),
                    ],
                );
                self.probe.metrics.serve_complete(1, true);
                // A recovery-forced host fallback is a PIM-path service
                // failure; an engine-chosen one (ladder level 3) is a
                // policy outcome and leaves tenant health alone.
                if self.level < 3 {
                    self.record_failure(ti, now_ps);
                }
            }
            RequestOutcome::Shed { .. } => {
                // A failed recovery: typed error, tenant health debit.
                self.probe.trace.instant(
                    SimTime::from_ps(now_ps),
                    codes::SERVE_SHED,
                    [u64::from(req.tenant), req.id, 0, now_ps],
                );
                self.probe.metrics.serve_shed(false, false);
                self.record_failure(ti, now_ps);
            }
            RequestOutcome::Quarantined { .. } => unreachable!("never in flight"),
        }
        self.retire(req.id, outcome);
    }

    fn record_success(&mut self, ti: usize, now_ps: u64) {
        match self.tenants[ti].health {
            Health::Healthy { .. } => self.tenants[ti].health = Health::Healthy { failures: 0 },
            Health::Probation { successes } => {
                let successes = successes + 1;
                if successes >= HealthConfig::default().probation_successes {
                    self.tenants[ti].health = Health::Healthy { failures: 0 };
                    let epoch = self.tenants[ti].epoch;
                    self.quarantines.push(QuarantineEvent {
                        at_ps: now_ps,
                        tenant: ti as u32,
                        entered: false,
                        epoch,
                    });
                    self.probe.trace.instant(
                        SimTime::from_ps(now_ps),
                        codes::SERVE_QUARANTINE,
                        [ti as u64, 0, 0, now_ps],
                    );
                } else {
                    self.tenants[ti].health = Health::Probation { successes };
                }
            }
            Health::Quarantined { .. } => {}
        }
    }

    fn record_failure(&mut self, ti: usize, now_ps: u64) {
        let enter = match self.tenants[ti].health {
            Health::Healthy { failures } => {
                let failures = failures + 1;
                if failures >= HealthConfig::default().fail_threshold {
                    true
                } else {
                    self.tenants[ti].health = Health::Healthy { failures };
                    false
                }
            }
            // Any probation failure re-quarantines immediately.
            Health::Probation { .. } => true,
            Health::Quarantined { .. } => false,
        };
        if enter {
            self.tenants[ti].epoch += 1;
            let epoch = self.tenants[ti].epoch;
            self.tenants[ti].health = Health::Quarantined {
                until_ps: now_ps.saturating_add(QUARANTINE_PS),
            };
            self.quarantines.push(QuarantineEvent {
                at_ps: now_ps,
                tenant: ti as u32,
                entered: true,
                epoch,
            });
            self.probe.trace.instant(
                SimTime::from_ps(now_ps),
                codes::SERVE_QUARANTINE,
                [
                    ti as u64,
                    1,
                    u64::from(HealthConfig::default().fail_threshold),
                    now_ps,
                ],
            );
            // Quarantine flushes the tenant's queue: everything waiting
            // is shed as quarantined (it can never dispatch before the
            // wall anyway, and holding it would hide backpressure).
            let epoch_now = epoch;
            while let Some(q) = self.tenants[ti].queue.pop_front() {
                self.probe.trace.instant(
                    SimTime::from_ps(now_ps),
                    codes::SERVE_SHED,
                    [u64::from(q.tenant), q.id, 5, now_ps],
                );
                self.probe.metrics.serve_shed(false, true);
                self.retire(
                    q.id,
                    RequestOutcome::Quarantined {
                        at_ps: now_ps,
                        epoch: epoch_now,
                    },
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seed: u64) -> ServeConfig {
        let mut cfg = ServeConfig::uniform(2, seed);
        for t in &mut cfg.tenants {
            t.geometry = PimGeometry::new(4, 2, 2, 1);
            t.elems_per_node = 64;
            t.mean_gap_ps = 40_000_000;
        }
        cfg.horizon_ps = 1_000_000_000;
        cfg.chunk_elems = 32;
        cfg
    }

    #[test]
    fn arrivals_are_seed_deterministic_and_id_dense() {
        let cfg = tiny_cfg(7);
        let a = sample_arrivals(&cfg);
        let b = sample_arrivals(&cfg);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for (i, r) in a.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
        assert!(a.windows(2).all(|w| w[0].arrive_ps <= w[1].arrive_ps));
        let c = sample_arrivals(&tiny_cfg(8));
        assert_ne!(a, c, "different seeds must sample different traces");
    }

    #[test]
    fn every_request_gets_exactly_one_outcome() {
        let cfg = tiny_cfg(3);
        let report = serve(&cfg).unwrap();
        assert_eq!(report.log.len(), sample_arrivals(&cfg).len());
        let total = report.count("served")
            + report.count("shed")
            + report.count("quarantined")
            + report.count("host-fallback");
        assert_eq!(total, report.log.len());
        assert!(report.count("served") > 0, "a healthy run serves requests");
    }

    #[test]
    fn serve_is_deterministic_per_seed() {
        let cfg = tiny_cfg(11);
        let a = serve(&cfg).unwrap();
        let b = serve(&cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.render_log(&cfg), b.render_log(&cfg));
    }

    #[test]
    fn tight_deadlines_shed_with_typed_errors() {
        let mut cfg = tiny_cfg(5);
        for t in &mut cfg.tenants {
            t.deadline_ps = 1; // everything that queues behind service slips
            t.mean_gap_ps = 1_000_000; // hammer the queue
        }
        let report = serve(&cfg).unwrap();
        let sheds: Vec<_> = report
            .log
            .iter()
            .filter_map(|r| match &r.outcome {
                RequestOutcome::Shed { error, .. } => Some(error.clone()),
                _ => None,
            })
            .collect();
        assert!(!sheds.is_empty());
        assert!(sheds.iter().any(|e| matches!(
            e,
            PimnetError::DeadlineExceeded { .. } | PimnetError::AdmissionRejected { .. }
        )));
    }

    #[test]
    fn overload_ladder_is_monotone_and_reaches_shed() {
        let mut cfg = tiny_cfg(9);
        for t in &mut cfg.tenants {
            t.mean_gap_ps = 120_000; // flood: ~3x the per-request service time
            t.queue_capacity = 64;
            t.bucket_capacity = 1_000;
            t.token_every_ps = 0;
            t.priority = 0; // below shed_priority_below = 1
        }
        cfg.overload = OverloadThresholds {
            shrink_at: 2,
            shed_at: 4,
            fallback_at: 8,
        };
        let report = serve(&cfg).unwrap();
        let levels: Vec<u8> = report.ladder.iter().map(|l| l.level).collect();
        assert!(levels.windows(2).all(|w| w[0] < w[1]), "monotone ratchet");
        assert!(report.peak_level() >= 2, "flood must climb the ladder");
        assert!(
            report.log.iter().any(|r| matches!(
                &r.outcome,
                RequestOutcome::Shed {
                    reason: Some(ShedReason::LowPriority),
                    ..
                }
            )),
            "level >= 2 sheds the low-priority class"
        );
    }

    #[test]
    fn autotuned_tenants_serve_and_never_price_worse_than_paper() {
        let base = tiny_cfg(13);
        let mut tuned = base.clone();
        for t in &mut tuned.tenants {
            t.autotune = true;
        }
        let paper_report = serve(&base).unwrap();
        let tuned_report = serve(&tuned).unwrap();
        assert!(tuned_report.count("served") > 0);
        assert_eq!(tuned_report.count("served"), paper_report.count("served"));
        // Same trace, same chunking: the tuner's winner keeps ties with
        // the paper incumbent, so no served request takes longer.
        for (a, b) in paper_report.log.iter().zip(&tuned_report.log) {
            assert_eq!(a.request.id, b.request.id);
            if let (
                RequestOutcome::Served {
                    start_ps: s0,
                    end_ps: e0,
                    ..
                },
                RequestOutcome::Served {
                    start_ps: s1,
                    end_ps: e1,
                    ..
                },
            ) = (&a.outcome, &b.outcome)
            {
                assert!(e1 - s1 <= e0 - s0, "request {} priced worse", a.request.id);
            }
        }
        // Determinism holds with tuning on.
        assert_eq!(tuned_report, serve(&tuned).unwrap());
    }

    #[test]
    fn clock_arithmetic_saturates_at_the_end_of_time() {
        // A storm with a watchdog at the end of the picosecond clock:
        // every failed recovery sheds at `u64::MAX` instead of wrapping.
        let mut cfg = ServeConfig::uniform(2, 1);
        cfg.horizon_ps = 200_000_000;
        let g = cfg.tenants[0].geometry;
        let rates = pim_faults::TimelineRates {
            segment_arrival_prob: 1.0,
            port_arrival_prob: 1.0,
            rank_arrival_prob: 0.25,
            flap_prob: 1.0,
            burst_prob: 1.0,
            burst_ber: 0.8,
        };
        cfg.faults.timeline = pim_faults::FaultTimeline::sample(
            1,
            g.ranks_per_channel,
            g.chips_per_rank,
            g.banks_per_chip,
            cfg.horizon_ps,
            &rates,
        );
        cfg.faults.watchdog_ps = u64::MAX;
        let report = serve(&cfg).unwrap();
        let failed: Vec<u64> = report
            .log
            .iter()
            .filter_map(|r| match r.outcome {
                RequestOutcome::Shed {
                    at_ps,
                    reason: None,
                    ..
                } => Some(at_ps),
                _ => None,
            })
            .collect();
        assert!(!failed.is_empty(), "the storm must fail a recovery");
        assert!(failed.iter().all(|&at| at == u64::MAX), "{failed:?}");
        assert_eq!(report.end_ps, u64::MAX);
        assert_eq!(check_report(&cfg, &report), Ok(()));
    }

    #[test]
    fn a_deadline_at_the_end_of_time_never_slips() {
        let mut cfg = tiny_cfg(3);
        for t in &mut cfg.tenants {
            t.deadline_ps = u64::MAX;
        }
        assert!(sample_arrivals(&cfg)
            .iter()
            .all(|r| r.deadline_ps == u64::MAX));
        // Gaps and the horizon at the end of time end the trace instead
        // of overflowing the arrival clock.
        let mut huge = cfg.clone();
        huge.horizon_ps = u64::MAX;
        for t in &mut huge.tenants {
            t.mean_gap_ps = u64::MAX;
        }
        assert!(sample_arrivals(&huge).len() <= 2 * huge.tenants.len());
        let report = serve(&cfg).unwrap();
        assert!(report.count("served") > 0);
        assert!(!report.log.iter().any(|r| matches!(
            r.outcome,
            RequestOutcome::Shed {
                reason: Some(ShedReason::Deadline),
                ..
            }
        )));
    }

    #[test]
    fn check_report_names_the_broken_clause() {
        let cfg = tiny_cfg(3);
        let good = serve(&cfg).unwrap();
        assert_eq!(check_report(&cfg, &good), Ok(()));
        let mut short = good.clone();
        short.log.pop();
        assert!(check_report(&cfg, &short).unwrap_err().contains("entries"));
        let mut swapped = good.clone();
        swapped.log.swap(0, 1);
        assert!(check_report(&cfg, &swapped)
            .unwrap_err()
            .contains("carries request id"));
        let mut ladder = good.clone();
        ladder.ladder = vec![
            LadderStep {
                at_ps: 1,
                level: 2,
                backlog: 9,
            },
            LadderStep {
                at_ps: 2,
                level: 1,
                backlog: 9,
            },
        ];
        assert!(check_report(&cfg, &ladder).unwrap_err().contains("ladder"));
        let mut epochs = good;
        let q = |epoch| QuarantineEvent {
            at_ps: 0,
            tenant: 1,
            entered: true,
            epoch,
        };
        epochs.quarantines = vec![q(2), q(1)];
        assert!(check_report(&cfg, &epochs).unwrap_err().contains("epoch"));
    }

    #[test]
    fn a_zero_mean_gap_is_a_typed_config_error() {
        let mut cfg = tiny_cfg(7);
        cfg.tenants[1].mean_gap_ps = 0;
        match serve(&cfg) {
            Err(PimnetError::InvalidMessage { reason }) => {
                assert!(reason.contains(&cfg.tenants[1].name), "{reason}");
                assert!(reason.contains("zero mean arrival gap"), "{reason}");
            }
            other => panic!("expected InvalidMessage, got {other:?}"),
        }
    }

    #[test]
    fn the_arrival_clock_advances_at_least_a_picosecond_per_request() {
        let mut cfg = tiny_cfg(1);
        cfg.tenants.truncate(1);
        cfg.horizon_ps = 1000;
        cfg.tenants[0].mean_gap_ps = 1;
        assert!(sample_arrivals(&cfg).len() <= 1000);
        cfg.tenants[0].mean_gap_ps = 0;
        assert!(sample_arrivals(&cfg).len() <= 1000);
    }

    #[test]
    fn empty_tenant_list_is_a_typed_config_error() {
        let cfg = ServeConfig {
            tenants: Vec::new(),
            ..ServeConfig::uniform(1, 0)
        };
        assert!(matches!(
            serve(&cfg),
            Err(PimnetError::InvalidMessage { .. })
        ));
    }
}
