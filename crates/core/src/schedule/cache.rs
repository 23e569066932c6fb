//! Memoized schedule construction.
//!
//! Schedules are pure functions of their request: the same
//! [`ScheduleRequest`] — collective kind, geometry, payload split,
//! algorithm, permanent-fault set and health epoch — always compiles to
//! the same schedule. Yet the sweeps that dominate this workspace's
//! wall-clock — chaos soaks, preset lint matrices, the figure-scaling
//! curves, `resilience::plan_degraded` under storms — rebuild identical
//! schedules thousands of times, once per seed or per backend. This module
//! memoizes the build **and the validation**: a cache hit hands back a
//! schedule that already passed [`validate::validate`], shared behind an
//! [`Arc`].
//!
//! # One request, several products
//!
//! [`get`] answers one request with one memoized [`Product`]:
//!
//! * [`CommSchedule`] — the validated schedule the request's [`Algo`]
//!   builds (for [`Algo::Tuned`], the autotuner's winner); with `faults`,
//!   the repaired schedule;
//! * [`RepairedSchedule`] — the unfaulted schedule repaired around
//!   `faults` (the identity repair when `faults` is `None`);
//! * [`BoostPlan`] — the representative-slice thinning of the schedule;
//! * [`TunedChoice`] — the autotuner's sweep for the request's payload;
//! * [`Proof`] — the four-pass analysis summary of the schedule; with
//!   `faults`, the delta re-proof against the unfaulted request's proof.
//!
//! Products that need another product look it up through [`get`] too, so
//! a warm plain schedule makes a cold boost plan or repair cheap.
//!
//! # Key derivation
//!
//! `ScheduleRequest::key` is the only place a cache key is built. It
//! carries every request field plus the product's tag:
//!
//! * the full [`PimGeometry`] (all four dimensions, not just the DPU
//!   count — two geometries with equal products build different rings);
//! * the algorithm, with a composition's chunk split;
//! * a **fingerprint of the permanent-fault set** ([`fault_fingerprint`]):
//!   an FNV-1a hash folded over the set's segments, ports and dead ranks in
//!   their canonical (`BTreeSet`) order, so it is stable across runs and
//!   platforms. `None` computes no fingerprint and keys apart from
//!   `Some(&empty)`;
//! * the health epoch, so a replan after mid-run quarantine never recalls
//!   a pre-fault entry whose fault fingerprint happens to coincide.
//!
//! Entries are never invalidated (the request fully determines the value);
//! [`clear`] exists for benchmarks that want a cold start. The cache is
//! process-global and thread-safe — the deterministic fan-out in
//! [`pim_sim::par`] shares it across workers, and because every worker
//! would build bit-identical schedules anyway, sharing is unobservable in
//! results.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use pim_arch::geometry::PimGeometry;
use pim_faults::permanent::PermanentFaultSet;
use pim_sim::trace::codes;
use pim_sim::{Probe, SimTime};

use crate::analysis::{self, AnalysisSummary, DeltaStats};
use crate::collective::CollectiveKind;
use crate::error::PimnetError;

use super::algos::{self, Composition};
use super::autotune::{self, TunedChoice};
use super::boost::{self, BoostPlan};
use super::repair::{self, RepairedSchedule};
use super::{validate, CommSchedule};

/// Which builder produces a request's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// The paper's Table V schedule ([`CommSchedule::build`]: the
    /// [`Composition::paper`] composition, keyed apart from its spec).
    Paper,
    /// A per-tier [`Composition`] with a `chunks`-way payload split
    /// ([`algos::build_composed_chunked`]).
    Composed(Composition, usize),
    /// The autotuner's winner for the request's payload
    /// ([`autotune`]).
    Tuned,
}

/// Everything that determines a schedule: the one input of [`get`].
///
/// Building a request (and its key) allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleRequest<'a> {
    /// The collective.
    pub kind: CollectiveKind,
    /// The full geometry it runs on.
    pub geometry: PimGeometry,
    /// Elements contributed per node.
    pub elems_per_node: usize,
    /// Element width in bytes.
    pub elem_bytes: u32,
    /// The builder.
    pub algo: Algo,
    /// Permanent faults to repair around; `None` for the unrepaired
    /// schedule.
    pub faults: Option<&'a PermanentFaultSet>,
    /// Degradation/health epoch: bumped by the recovery manager whenever
    /// mid-run quarantine or fault arrival changes the live scenario.
    /// Static planning uses epoch 0.
    pub epoch: u64,
}

impl<'a> ScheduleRequest<'a> {
    /// The paper's schedule for `kind` on `geometry`: no faults, epoch 0.
    #[must_use]
    pub fn new(
        kind: CollectiveKind,
        geometry: &PimGeometry,
        elems_per_node: usize,
        elem_bytes: u32,
    ) -> Self {
        ScheduleRequest {
            kind,
            geometry: *geometry,
            elems_per_node,
            elem_bytes,
            algo: Algo::Paper,
            faults: None,
            epoch: 0,
        }
    }

    /// The same request without its fault set: the base a repair starts
    /// from.
    fn unfaulted(&self) -> Self {
        ScheduleRequest {
            faults: None,
            ..*self
        }
    }

    /// The cache key of this request's `product` — the only code that
    /// builds a [`Key`].
    fn key(&self, product: Tag) -> Key {
        Key {
            kind: self.kind,
            geometry: self.geometry,
            elems_per_node: self.elems_per_node,
            elem_bytes: self.elem_bytes,
            algo: self.algo,
            faults: self.faults.map(fault_fingerprint),
            epoch: self.epoch,
            product,
        }
    }
}

/// Which product a cache entry holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Tag {
    Schedule,
    Repaired,
    Boost,
    Tuned,
    Proof,
}

/// Cache key: a [`ScheduleRequest`] with its fault set fingerprinted,
/// plus the product tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Key {
    kind: CollectiveKind,
    geometry: PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    algo: Algo,
    faults: Option<u64>,
    epoch: u64,
    product: Tag,
}

/// One memoized value of the schedule table; its [`Tag`] fixes the type.
type Entry = Arc<dyn Any + Send + Sync>;

/// A table slot: either a finished entry, or a build in flight. Pending
/// slots are what make concurrent misses on the same key build **once**:
/// the first worker claims the slot and builds outside the table lock,
/// later workers block on the slot's condvar instead of duplicating the
/// build.
#[derive(Debug, Clone)]
enum Slot {
    Ready(Entry),
    Pending(Arc<Pending>),
}

/// Rendezvous for workers waiting on an in-flight build.
#[derive(Debug)]
struct Pending {
    state: Mutex<PendState>,
    cv: Condvar,
}

#[derive(Debug)]
enum PendState {
    Building,
    Done(Entry),
    /// The build errored; waiters retry (and typically reproduce the
    /// error themselves, since errors are not cached).
    Failed,
}

impl Pending {
    fn new() -> Self {
        Pending {
            state: Mutex::new(PendState::Building),
            cv: Condvar::new(),
        }
    }

    fn finish(&self, outcome: Option<Entry>) {
        let mut state = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        *state = match outcome {
            Some(e) => PendState::Done(e),
            None => PendState::Failed,
        };
        self.cv.notify_all();
    }

    /// Blocks until the in-flight build resolves; `None` means it failed
    /// and the caller should retry from the top.
    fn wait(&self) -> Option<Entry> {
        let mut state = match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        loop {
            match &*state {
                PendState::Done(e) => return Some(e.clone()),
                PendState::Failed => return None,
                PendState::Building => {
                    state = match self.cv.wait(state) {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            }
        }
    }
}

/// Running cache counters (process-global, monotone until
/// [`reset_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build (and validate) a schedule.
    pub misses: u64,
    /// Schedules actually constructed (equals `misses` that succeeded).
    pub schedules_built: u64,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static BUILT: AtomicU64 = AtomicU64::new(0);

fn table() -> &'static Mutex<HashMap<Key, Slot>> {
    static TABLE: OnceLock<Mutex<HashMap<Key, Slot>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_table() -> std::sync::MutexGuard<'static, HashMap<Key, Slot>> {
    // A poisoned cache means a builder panicked mid-insert; the map itself
    // is still a plain HashMap in a consistent state, so keep serving.
    match table().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Looks `key` up, waiting out any in-flight build; on a cold key, runs
/// `build` (outside the table lock) and publishes the result.
///
/// Exactly one worker builds a given key no matter how many miss on it
/// concurrently, so `schedules_built` is invariant in the worker count.
/// Errors are not cached: the pending slot is removed and every waiter
/// retries (reproducing the cheap, request-specific error itself).
fn get_or_build(
    key: Key,
    probe: &Probe,
    build: impl Fn() -> Result<Entry, PimnetError>,
) -> Result<Entry, PimnetError> {
    loop {
        let pending = {
            let mut map = lock_table();
            match map.get(&key) {
                Some(Slot::Ready(e)) => {
                    HITS.fetch_add(1, Ordering::Relaxed);
                    record_cache_event(codes::CACHE_HIT, &key, probe);
                    return Ok(e.clone());
                }
                Some(Slot::Pending(p)) => p.clone(),
                None => {
                    let p = Arc::new(Pending::new());
                    map.insert(key, Slot::Pending(p.clone()));
                    drop(map);
                    MISSES.fetch_add(1, Ordering::Relaxed);
                    record_cache_event(codes::CACHE_MISS, &key, probe);
                    match build() {
                        Ok(entry) => {
                            BUILT.fetch_add(1, Ordering::Relaxed);
                            lock_table().insert(key, Slot::Ready(entry.clone()));
                            p.finish(Some(entry.clone()));
                            return Ok(entry);
                        }
                        Err(e) => {
                            // Drop our pending slot (unless clear() or a
                            // retrying waiter already replaced it).
                            let mut map = lock_table();
                            if matches!(map.get(&key),
                                Some(Slot::Pending(q)) if Arc::ptr_eq(q, &p))
                            {
                                map.remove(&key);
                            }
                            drop(map);
                            p.finish(None);
                            return Err(e);
                        }
                    }
                }
            }
        };
        // Someone else is building this key: wait for them. A successful
        // build counts as a hit for us; a failed one sends us back around
        // the loop to try building it ourselves.
        record_cache_event(codes::CACHE_DEDUP_WAIT, &key, probe);
        if let Some(entry) = pending.wait() {
            HITS.fetch_add(1, Ordering::Relaxed);
            record_cache_event(codes::CACHE_HIT, &key, probe);
            return Ok(entry);
        }
    }
}

/// Emits one cache event (hit/miss/dedup-wait) and bumps the matching
/// metrics counter. Cache events have no simulated time, so they carry
/// timestamp zero; the per-kind golden traces filter the cache group out,
/// since hit/miss patterns legitimately differ between cold and warm runs.
fn record_cache_event(code: u16, key: &Key, probe: &Probe) {
    if !probe.is_active() {
        return;
    }
    probe.trace.instant(
        SimTime::ZERO,
        code,
        [
            key.kind as u64,
            u64::from(key.geometry.total_dpus()),
            key.elems_per_node as u64,
            u64::from(key.elem_bytes),
        ],
    );
    match code {
        codes::CACHE_HIT => probe.metrics.cache_hit(),
        codes::CACHE_MISS => probe.metrics.cache_miss(),
        _ => probe.metrics.cache_dedup_wait(),
    }
}

/// Fingerprint of the empty fault set (FNV-1a offset basis).
const EMPTY_FAULTS: u64 = 0xcbf2_9ce4_8422_2325;

/// Stable FNV-1a fingerprint of a permanent-fault set, folded over the
/// set's canonical (`BTreeSet`-ordered) contents. Identical sets — however
/// they were produced (parsed tokens, seeded sampling, merges) — hash
/// identically on every platform; the empty set hashes to the fault-free
/// fingerprint.
#[must_use]
pub fn fault_fingerprint(faults: &PermanentFaultSet) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = EMPTY_FAULTS;
    let mut fold = |tag: u64, vals: [u64; 3]| {
        for v in std::iter::once(tag).chain(vals) {
            h = (h ^ v).wrapping_mul(PRIME);
        }
    };
    for s in &faults.segments {
        fold(
            1,
            [
                u64::from(s.rank) << 32 | u64::from(s.chip),
                u64::from(s.from_bank),
                u64::from(s.east),
            ],
        );
    }
    for p in &faults.ports {
        fold(
            2,
            [
                u64::from(p.rank) << 32 | u64::from(p.chip),
                p.side as u64,
                0,
            ],
        );
    }
    for &r in &faults.dead_ranks {
        fold(3, [u64::from(r), 0, 0]);
    }
    h
}

/// A product of a [`ScheduleRequest`] that [`get`] memoizes.
pub trait Product: Sized {
    /// Recalls (or computes and publishes) this product of `req`; see
    /// [`get`].
    ///
    /// # Errors
    ///
    /// See [`get`].
    fn lookup(req: &ScheduleRequest<'_>, probe: &Probe) -> Result<Arc<Self>, PimnetError>;
}

/// Recalls (or builds) one product of `req`.
///
/// On a miss this runs the product's builder — for schedules, the builder
/// followed by [`validate::validate`] — outside the table lock; on a hit
/// it is a map lookup and an `Arc` clone. Schedule-table lookups (every
/// product but [`Proof`]) land in `probe` as `cache-*` trace events and
/// metrics counters, and concurrent misses on one key build once. A
/// [`Proof`] lookup emits exactly one `lint-*` event, hit or miss alike,
/// with warmth-independent arguments. With a disabled probe nothing is
/// recorded and results are identical.
///
/// # Errors
///
/// Whatever the builder, validator or [`repair::repair`] return for
/// this request. Errors are not cached: they are cheap to reproduce and
/// carry request-specific messages.
pub fn get<P: Product>(req: &ScheduleRequest<'_>, probe: &Probe) -> Result<Arc<P>, PimnetError> {
    P::lookup(req, probe)
}

/// [`get_or_build`] for one product type: the entry under `key` always
/// holds a `P`, because the key's tag names the product.
fn memo<P: Any + Send + Sync>(
    key: Key,
    probe: &Probe,
    build: impl Fn() -> Result<P, PimnetError>,
) -> Result<Arc<P>, PimnetError> {
    let entry = get_or_build(key, probe, || Ok(Arc::new(build()?) as Entry))?;
    Ok(entry
        .downcast()
        .expect("a product tag always holds the same type"))
}

impl Product for CommSchedule {
    fn lookup(req: &ScheduleRequest<'_>, probe: &Probe) -> Result<Arc<Self>, PimnetError> {
        let key = req.key(Tag::Schedule);
        match (req.faults, req.algo) {
            // The tuner's memoized winner already holds the schedule.
            (None, Algo::Tuned) => Ok(get::<TunedChoice>(req, probe)?.schedule.clone()),
            (Some(_), _) => memo(key, probe, || {
                Ok(get::<RepairedSchedule>(req, probe)?.schedule.clone())
            }),
            (None, algo) => memo(key, probe, || {
                let (kind, g, elems, bytes) =
                    (req.kind, &req.geometry, req.elems_per_node, req.elem_bytes);
                let schedule = match algo {
                    Algo::Composed(comp, chunks) => {
                        algos::build_composed_chunked(kind, g, elems, bytes, comp, chunks)?
                    }
                    _ => CommSchedule::build(kind, g, elems, bytes)?,
                };
                validate::validate(&schedule)?;
                Ok(schedule)
            }),
        }
    }
}

impl Product for RepairedSchedule {
    fn lookup(req: &ScheduleRequest<'_>, probe: &Probe) -> Result<Arc<Self>, PimnetError> {
        memo(req.key(Tag::Repaired), probe, || {
            let base = get::<CommSchedule>(&req.unfaulted(), probe)?;
            repair::repair(&base, req.faults.unwrap_or(&PermanentFaultSet::none()))
        })
    }
}

impl Product for BoostPlan {
    fn lookup(req: &ScheduleRequest<'_>, probe: &Probe) -> Result<Arc<Self>, PimnetError> {
        memo(req.key(Tag::Boost), probe, || {
            let schedule = get::<CommSchedule>(req, probe)?;
            Ok(boost::plan(&schedule))
        })
    }
}

impl Product for TunedChoice {
    /// The tuner sweeps regardless of `req.algo`; callers ask with
    /// [`Algo::Tuned`], and concurrent tuners of one request dedup to a
    /// single sweep.
    fn lookup(req: &ScheduleRequest<'_>, probe: &Probe) -> Result<Arc<Self>, PimnetError> {
        memo(req.key(Tag::Tuned), probe, || autotune::sweep(req, probe))
    }
}

// ---------------------------------------------------------------------
// Proof cache: analysis summaries memoized alongside the schedules they
// prove, so a warm hit skips re-proving entirely and a repaired variant
// re-proves only its delta against the cached base.
// ---------------------------------------------------------------------

/// One memoized verification of a request's schedule.
#[derive(Debug)]
pub struct Proof {
    /// The four-pass summary; its report is byte-identical to
    /// [`crate::analysis::run_all`] on the proven schedule.
    pub summary: Arc<AnalysisSummary>,
    /// For faulted requests, the delta-work stats of the original
    /// re-proof. They are cached so the `lint-delta` trace event carries
    /// identical arguments on hits and misses — traces must not depend on
    /// cache warmth.
    pub delta: Option<DeltaStats>,
}

fn proof_table() -> &'static Mutex<HashMap<Key, Arc<Proof>>> {
    static TABLE: OnceLock<Mutex<HashMap<Key, Arc<Proof>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_proof_table() -> std::sync::MutexGuard<'static, HashMap<Key, Arc<Proof>>> {
    match proof_table().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Looks a proof up without emitting any event; on a miss, verifies
/// outside the lock. Two workers racing the same cold key may both
/// verify, but the first insert wins and both produce byte-identical
/// summaries, so the race is unobservable in results. The schedules a
/// miss proves are looked up with a disabled probe.
fn proof(req: &ScheduleRequest<'_>) -> Result<Arc<Proof>, PimnetError> {
    let key = req.key(Tag::Proof);
    if let Some(p) = lock_proof_table().get(&key).cloned() {
        return Ok(p);
    }
    let quiet = Probe::disabled();
    let built = match req.faults {
        None => Proof {
            summary: Arc::new(analysis::verify_full_arc(get(req, quiet)?)),
            delta: None,
        },
        // Re-lint only the steps the repair dirtied (and their
        // state-dependent suffix) against the cached base proof.
        Some(_) => {
            let base = proof(&req.unfaulted())?;
            let repaired = get::<RepairedSchedule>(req, quiet)?;
            let (summary, delta) = analysis::reverify_repair(&base.summary, &repaired);
            Proof {
                summary: Arc::new(summary),
                delta: Some(delta),
            }
        }
    };
    Ok(lock_proof_table()
        .entry(key)
        .or_insert(Arc::new(built))
        .clone())
}

impl Product for Proof {
    /// Emits one `lint-full` (or, with `faults`, `lint-delta`) event per
    /// call, with arguments taken from the cached proof.
    fn lookup(req: &ScheduleRequest<'_>, probe: &Probe) -> Result<Arc<Self>, PimnetError> {
        let p = proof(req)?;
        if probe.is_active() {
            let (code, a2, a3) = match p.delta {
                None => (
                    codes::LINT_FULL,
                    p.summary.steps() as u64,
                    p.summary.report.error_count() as u64,
                ),
                Some(d) => (codes::LINT_DELTA, d.reused() as u64, d.relinted as u64),
            };
            let dpus = u64::from(req.geometry.total_dpus());
            probe
                .trace
                .instant(SimTime::ZERO, code, [req.kind as u64, dpus, a2, a3]);
        }
        Ok(p)
    }
}

/// The validated paper schedule: [`get`] of a [`ScheduleRequest::new`]
/// with no probe.
///
/// # Errors
///
/// See [`get`].
pub fn build_cached(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
) -> Result<Arc<CommSchedule>, PimnetError> {
    get(
        &ScheduleRequest::new(kind, geometry, elems_per_node, elem_bytes),
        Probe::disabled(),
    )
}

/// The summary of the paper schedule's [`Proof`].
///
/// # Errors
///
/// See [`get`].
pub fn analyze_cached(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
    probe: &Probe,
) -> Result<Arc<AnalysisSummary>, PimnetError> {
    let req = ScheduleRequest::new(kind, geometry, elems_per_node, elem_bytes);
    Ok(get::<Proof>(&req, probe)?.summary.clone())
}

/// Current counters.
#[must_use]
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        schedules_built: BUILT.load(Ordering::Relaxed),
    }
}

/// Zeroes the counters (the cached entries stay).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
    BUILT.store(0, Ordering::Relaxed);
}

/// Drops every cached schedule and proof (counters stay).
/// Benchmarks use this to measure cold-cache builds.
pub fn clear() {
    lock_table().clear();
    lock_proof_table().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The cache is process-global and sibling tests build concurrently,
    // so these tests never call `clear()` and count hits and misses
    // through a per-test probe, never through the global `stats()`.

    fn g(n: u32) -> PimGeometry {
        PimGeometry::paper_scaled(n)
    }

    #[test]
    fn hit_returns_the_same_validated_schedule() {
        let req = ScheduleRequest::new(CollectiveKind::AllReduce, &g(16), 96, 4);
        let a = get::<CommSchedule>(&req, Probe::disabled()).unwrap();
        let p = Probe::enabled();
        let b = get::<CommSchedule>(&req, &p).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "hit must share the entry");
        let m = p.metrics.snapshot();
        assert_eq!((m.cache_hits, m.cache_misses), (1, 0));
        // Structurally equal to a fresh, uncached build.
        let fresh = CommSchedule::build(CollectiveKind::AllReduce, &g(16), 96, 4).unwrap();
        assert_eq!(*a, fresh);
    }

    /// Looks `a` up twice and then `b` once, each through its own probe:
    /// the repeat must hit and share the entry, and `b` must miss. Proof
    /// lookups record no cache events, so a fresh entry is their miss.
    fn separates<P: Product + 'static>(a: &ScheduleRequest<'_>, b: &ScheduleRequest<'_>) {
        let what = format!("{}: {a:?} vs {b:?}", std::any::type_name::<P>());
        let first = get::<P>(a, Probe::disabled()).unwrap();
        let p = Probe::enabled();
        let again = get::<P>(a, &p).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "{what}: repeat did not share");
        assert_eq!(
            p.metrics.snapshot().cache_misses,
            0,
            "{what}: repeat missed"
        );
        let p = Probe::enabled();
        let other = get::<P>(b, &p).unwrap();
        if std::any::TypeId::of::<P>() == std::any::TypeId::of::<Proof>() {
            assert!(!Arc::ptr_eq(&first, &other), "{what}: proof was shared");
        } else {
            let first_event = p.trace.drain().events.first().map(|e| e.code);
            assert_eq!(first_event, Some(codes::CACHE_MISS), "{what}: did not miss");
        }
    }

    #[test]
    fn every_request_field_separates_every_product() {
        let empty = PermanentFaultSet::none();
        let faults = PermanentFaultSet::parse_tokens("r0c0b2E").unwrap();
        let comp = Composition::parse("direct_ring_ring").unwrap();
        // One payload per product, so no product's lookups warm another's
        // entries. The tuned pair comes last: its sweep warms the composed
        // requests of the pairs before it.
        let pairs = |elems| {
            let base = ScheduleRequest::new(CollectiveKind::AllReduce, &g(8), elems, 4);
            let with = |f: fn(&mut ScheduleRequest<'_>)| {
                let mut r = base;
                f(&mut r);
                r
            };
            let composed = ScheduleRequest {
                algo: Algo::Composed(comp, 1),
                ..base
            };
            let empty_faults = ScheduleRequest {
                faults: Some(&empty),
                ..base
            };
            [
                (base, with(|r| r.kind = CollectiveKind::AllGather)),
                // Same DPU count, different shape.
                (base, with(|r| r.geometry = PimGeometry::new(4, 2, 1, 1))),
                (base, with(|r| r.elems_per_node += 1)),
                (base, with(|r| r.elem_bytes = 8)),
                (base, composed),
                (
                    composed,
                    ScheduleRequest {
                        algo: Algo::Composed(comp, 2),
                        ..base
                    },
                ),
                (base, empty_faults),
                (
                    empty_faults,
                    ScheduleRequest {
                        faults: Some(&faults),
                        ..base
                    },
                ),
                (base, with(|r| r.epoch = 1)),
                (base, with(|r| r.algo = Algo::Tuned)),
            ]
        };
        for (a, b) in &pairs(40) {
            separates::<CommSchedule>(a, b);
        }
        for (a, b) in &pairs(50) {
            separates::<RepairedSchedule>(a, b);
        }
        for (a, b) in &pairs(60) {
            separates::<BoostPlan>(a, b);
        }
        for (a, b) in &pairs(70) {
            separates::<TunedChoice>(a, b);
        }
        for (a, b) in &pairs(80) {
            separates::<Proof>(a, b);
        }
    }

    #[test]
    fn errors_are_not_cached() {
        let bad = build_cached(CollectiveKind::AllReduce, &g(8), 64, 0);
        assert!(bad.is_err());
        assert!(build_cached(CollectiveKind::AllReduce, &g(8), 64, 0).is_err());
        assert!(build_cached(CollectiveKind::AllReduce, &g(8), 64, 4).is_ok());
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let empty = PermanentFaultSet::none();
        assert_eq!(fault_fingerprint(&empty), EMPTY_FAULTS);
        let a = PermanentFaultSet::parse_tokens("r0c0b1E,r0c1tx").unwrap();
        let b = PermanentFaultSet::parse_tokens("r0c1tx,r0c0b1E").unwrap();
        assert_eq!(
            fault_fingerprint(&a),
            fault_fingerprint(&b),
            "token order is canonicalized by the BTreeSets"
        );
        let c = PermanentFaultSet::parse_tokens("r0c0b1W").unwrap();
        assert_ne!(fault_fingerprint(&a), fault_fingerprint(&c));
        let d = PermanentFaultSet::parse_tokens("rank1").unwrap();
        assert_ne!(fault_fingerprint(&c), fault_fingerprint(&d));
    }

    #[test]
    fn products_match_fresh_builds() {
        let faults = PermanentFaultSet::parse_tokens("r0c0b2E").unwrap();
        let req = ScheduleRequest::new(CollectiveKind::AllReduce, &g(8), 128, 4);
        let plain = get::<CommSchedule>(&req, Probe::disabled()).unwrap();
        let faulted = ScheduleRequest {
            faults: Some(&faults),
            ..req
        };
        let repaired = get::<RepairedSchedule>(&faulted, Probe::disabled()).unwrap();
        assert_eq!(*repaired, repair::repair(&plain, &faults).unwrap());
        // A faulted request's schedule is the repaired one.
        let schedule = get::<CommSchedule>(&faulted, Probe::disabled()).unwrap();
        assert_eq!(*schedule, repaired.schedule);
        // The identity repair of an empty set is the plain schedule.
        let none = ScheduleRequest {
            faults: Some(&PermanentFaultSet::none()),
            ..req
        };
        let identity = get::<RepairedSchedule>(&none, Probe::disabled()).unwrap();
        assert_eq!(identity.schedule, *plain);
        // A cold boost plan over a warm schedule builds only the plan.
        let p = Probe::enabled();
        let boosted = get::<BoostPlan>(&req, &p).unwrap();
        let seen: Vec<u16> = p.trace.drain().events.iter().map(|e| e.code).collect();
        assert_eq!(seen, [codes::CACHE_MISS, codes::CACHE_HIT]);
        assert_eq!(*boosted, boost::plan(&plain));
        // A tuned request's schedule is the tuner's winner.
        let tuned = ScheduleRequest {
            algo: Algo::Tuned,
            ..req
        };
        let choice = get::<TunedChoice>(&tuned, Probe::disabled()).unwrap();
        let winner = get::<CommSchedule>(&tuned, Probe::disabled()).unwrap();
        assert!(Arc::ptr_eq(&choice.schedule, &winner));
    }
}
