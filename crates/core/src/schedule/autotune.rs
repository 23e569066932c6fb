//! Per-geometry collective autotuner.
//!
//! The paper commits to one schedule per collective (Table V). This
//! module instead *searches*: for one `(collective kind, geometry,
//! payload)` request it sweeps a deterministic candidate set of per-tier
//! algorithm [`Composition`]s × chunk splits, prices every candidate
//! through the same boost-plan timing path the sweeps use, proves the
//! ones that could win with the full four-pass [`crate::analysis`] suite
//! (rejecting anything with a diagnostic — the tuner never trades
//! correctness for speed), and memoizes the winner in the schedule cache
//! under a composition-aware key.
//!
//! The paper's own Table V schedule ([`Composition::paper`], under its
//! own cache key) is the incumbent: it is priced first, outside the
//! candidate list, and wins all ties, so [`TunedChoice::tuned_time`] is
//! never worse than [`TunedChoice::paper_time`] *by construction* —
//! tuning can only help.
//!
//! # Price first, prove lazily
//!
//! Only a candidate strictly cheaper than the incumbent can win, and the
//! cheapest clean one does. So the sweep builds, validates and prices
//! every candidate, sorts the ones cheaper than the paper by (price,
//! sweep index), and proves them in that order, stopping at the first
//! clean one. That is the winner a sweep proving every candidate would
//! pick, at a fraction of the proofs: a request the paper keeps proves
//! nothing, and one that tunes away proves its winner plus any cheaper
//! candidate found unclean.
//!
//! # Candidate grammar
//!
//! Sweeping all `4³` compositions × chunk splits per request would make
//! admission-path tuning (see [`crate::serve`]) pay a large cold-start
//! cost for candidates that are never competitive. The set is instead:
//!
//! * every *uniform* composition (`ring_ring_ring`, `direct_direct_…`),
//! * every all-ring composition with exactly **one** tier swapped,
//!
//! filtered by [`Composition::applies_to`] and by concrete geometry
//! (power-of-two groups for Rabenseifner tiers), with trivial tiers
//! (group size 1) canonicalized to ring so degenerate geometries do not
//! enumerate duplicates. AllReduce additionally sweeps a 2-way chunk
//! split. The order is fixed, so the tuner is deterministic and its
//! winner is byte-stable across worker counts and cache warmth.

use std::sync::Arc;

use pim_arch::geometry::PimGeometry;
use pim_sim::{Probe, SimTime};

use crate::collective::CollectiveKind;
use crate::error::PimnetError;
use crate::timing::TimingModel;

use super::algos::{Composition, TierAlgo};
use super::cache::{self, Algo, Proof, ScheduleRequest};
use super::{boost, CommSchedule};

/// The autotuner's memoized decision for one request.
#[derive(Debug, Clone)]
pub struct TunedChoice {
    /// The collective that was tuned.
    pub kind: CollectiveKind,
    /// The geometry it was tuned for.
    pub geometry: PimGeometry,
    /// Elements contributed per node.
    pub elems_per_node: usize,
    /// Element width in bytes.
    pub elem_bytes: u32,
    /// The winning composition and chunk split, or `None` when the
    /// paper's Table V schedule won (or tied — the incumbent keeps ties).
    pub winner: Option<(Composition, usize)>,
    /// The winning schedule itself (validated, analysis-clean).
    pub schedule: Arc<CommSchedule>,
    /// Modeled completion time of the winner.
    pub tuned_time: SimTime,
    /// Modeled completion time of the paper's Table V schedule.
    pub paper_time: SimTime,
    /// Composed candidates enumerated for this request (excluding the
    /// paper incumbent).
    pub candidates: usize,
    /// Candidates proven by the analysis suite: the ones cheaper than the
    /// paper incumbent, cheapest first, up to the first clean one.
    pub proven: usize,
    /// Candidates that failed to build or validate, or were proven and
    /// found unclean. One that does not beat the paper, or sorts after
    /// the winner, is never proven, so it is never rejected.
    pub rejected: usize,
}

impl TunedChoice {
    /// The winning composition spec (`paper` for the incumbent).
    #[must_use]
    pub fn spec(&self) -> String {
        match self.winner {
            Some((comp, 1)) => comp.spec(),
            Some((comp, chunks)) => format!("{comp}/c{chunks}"),
            None => "paper".to_string(),
        }
    }

    /// Paper time over tuned time (≥ 1.0 by construction).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.tuned_time.as_ps() == 0 {
            return 1.0;
        }
        self.paper_time.as_ps() as f64 / self.tuned_time.as_ps() as f64
    }
}

/// The deterministic candidate list for one request: `(composition,
/// chunk split)` pairs in sweep order, already filtered for
/// applicability to `kind` and to the concrete `geometry`. The paper's
/// incumbent schedule is *not* in the list — it is always priced
/// separately and wins ties.
#[must_use]
pub fn candidates(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
) -> Vec<(Composition, usize)> {
    let group_sizes = [
        geometry.banks_per_chip,
        geometry.chips_per_rank,
        geometry.ranks_per_channel,
    ];
    // Canonicalize trivial tiers (group size 1: the algorithm is a
    // no-op) to ring, then dedup while preserving order.
    let canonical = |mut c: Composition| {
        if group_sizes[0] == 1 {
            c.bank = TierAlgo::Ring;
        }
        if group_sizes[1] == 1 {
            c.chip = TierAlgo::Ring;
        }
        if group_sizes[2] == 1 {
            c.rank = TierAlgo::Ring;
        }
        c
    };
    let geometry_ok = |c: Composition| {
        c.tiers()
            .into_iter()
            .zip(group_sizes)
            .all(|(a, k)| a != TierAlgo::Rabenseifner || k.is_power_of_two())
    };

    let mut comps: Vec<Composition> = Vec::new();
    let mut push = |raw: Composition| {
        if !raw.applies_to(kind) {
            return;
        }
        // Canonicalizing a trivial tier must not destroy applicability
        // (all-to-all admits only the all-direct composition): keep the
        // raw spelling when it would.
        let c = canonical(raw);
        let c = if c.applies_to(kind) { c } else { raw };
        if geometry_ok(c) && !comps.contains(&c) {
            comps.push(c);
        }
    };
    for a in TierAlgo::ALL {
        push(Composition {
            bank: a,
            chip: a,
            rank: a,
            ..Composition::RING
        });
    }
    for tier in 0..3 {
        for a in TierAlgo::ALL {
            if a == TierAlgo::Ring {
                continue;
            }
            let mut c = Composition::RING;
            match tier {
                0 => c.bank = a,
                1 => c.chip = a,
                _ => c.rank = a,
            }
            push(c);
        }
    }

    let chunk_splits: &[usize] = if kind == CollectiveKind::AllReduce && elems_per_node >= 2 {
        &[1, 2]
    } else {
        &[1]
    };
    let mut out = Vec::with_capacity(comps.len() * chunk_splits.len());
    for &chunks in chunk_splits {
        for &c in &comps {
            out.push((c, chunks));
        }
    }
    out
}

/// Prices one schedule the way the figure sweeps do: boost-plan
/// reconstruction under the paper timing model, zero skew.
fn price(schedule: &CommSchedule, timing: &TimingModel) -> SimTime {
    boost::plan(schedule)
        .breakdown(timing, SimTime::ZERO)
        .total()
}

/// Which priced candidate wins, and the proofs it took to find out.
#[derive(Debug, PartialEq, Eq)]
struct Selection {
    /// `(sweep index, price)` of the winner; `None` when the paper
    /// incumbent keeps the request.
    winner: Option<(usize, SimTime)>,
    /// Candidates proven.
    proven: usize,
    /// Proven candidates found unclean.
    rejected: usize,
}

/// Picks the cheapest clean candidate strictly cheaper than `paper_time`,
/// the lower sweep index on a tie. `priced` holds the `(sweep index,
/// price)` of every candidate that built and validated, and `prove(i)`
/// says whether candidate `i` is clean. Only candidates cheaper than the
/// paper are proven, in (price, sweep index) order, and the first clean
/// one wins: the pick of a sweep that proves every candidate and takes
/// the minimum.
fn select(
    priced: &[(usize, SimTime)],
    paper_time: SimTime,
    mut prove: impl FnMut(usize) -> bool,
) -> Selection {
    let mut order: Vec<(SimTime, usize)> = priced
        .iter()
        .filter(|&&(_, t)| t < paper_time)
        .map(|&(i, t)| (t, i))
        .collect();
    order.sort_unstable();
    let mut pick = Selection {
        winner: None,
        proven: 0,
        rejected: 0,
    };
    for (t, i) in order {
        pick.proven += 1;
        if prove(i) {
            pick.winner = Some((i, t));
            break;
        }
        pick.rejected += 1;
    }
    pick
}

/// Tunes one request: sweeps [`candidates`], prices every one that builds
/// and validates, proves the ones cheaper than the paper incumbent with
/// the full analysis suite, cheapest first, until one is clean, and
/// memoizes the winner in the schedule cache. Warm calls are a map
/// lookup. This is [`cache::get`] of a [`TunedChoice`] with no probe.
///
/// # Errors
///
/// Whatever the paper builder or validator return for this request.
/// Candidates that fail to build, validate or prove are skipped, not
/// errors; the paper incumbent failing is an error.
pub fn tune(
    kind: CollectiveKind,
    geometry: &PimGeometry,
    elems_per_node: usize,
    elem_bytes: u32,
) -> Result<Arc<TunedChoice>, PimnetError> {
    let req = ScheduleRequest {
        algo: Algo::Tuned,
        ..ScheduleRequest::new(kind, geometry, elems_per_node, elem_bytes)
    };
    cache::get(&req, Probe::disabled())
}

/// The uncached sweep behind [`tune`]: every schedule and proof it needs
/// comes from the cache, under `req` with its algorithm swapped.
pub(crate) fn sweep(req: &ScheduleRequest<'_>, probe: &Probe) -> Result<TunedChoice, PimnetError> {
    let timing = TimingModel::paper();
    let paper = ScheduleRequest {
        algo: Algo::Paper,
        ..*req
    };
    let paper = cache::get::<CommSchedule>(&paper, probe)?;
    let paper_time = price(&paper, &timing);

    let cands = candidates(req.kind, &req.geometry, req.elems_per_node);
    let request = |i: usize| {
        let (comp, chunks) = cands[i];
        ScheduleRequest {
            algo: Algo::Composed(comp, chunks),
            ..*req
        }
    };
    // Build, validate and price every candidate; one that fails to build
    // or validate is rejected unproven.
    let built: Vec<Option<Arc<CommSchedule>>> = (0..cands.len())
        .map(|i| cache::get::<CommSchedule>(&request(i), probe).ok())
        .collect();
    let priced: Vec<(usize, SimTime)> = built
        .iter()
        .enumerate()
        .filter_map(|(i, s)| Some((i, price(s.as_deref()?, &timing))))
        .collect();
    // Any diagnostic at all disqualifies a candidate.
    let pick = select(&priced, paper_time, |i| {
        matches!(cache::get::<Proof>(&request(i), probe),
            Ok(p) if p.summary.report.is_clean())
    });
    let (winner, schedule, tuned_time) = match pick.winner {
        Some((i, t)) => {
            let schedule = built[i].clone().expect("only built candidates are priced");
            (Some(cands[i]), schedule, t)
        }
        None => (None, paper, paper_time),
    };

    Ok(TunedChoice {
        kind: req.kind,
        geometry: req.geometry,
        elems_per_node: req.elems_per_node,
        elem_bytes: req.elem_bytes,
        winner,
        schedule,
        tuned_time,
        paper_time,
        candidates: cands.len(),
        proven: pick.proven,
        rejected: cands.len() - priced.len() + pick.rejected,
    })
}

#[cfg(test)]
mod tests {
    use pim_sim::SimRng;

    use super::*;
    use crate::analysis;

    /// `(sweep index, price)` pairs from prices in picoseconds.
    fn priced(ps: &[u64]) -> Vec<(usize, SimTime)> {
        ps.iter()
            .map(|&p| SimTime::from_ps(p))
            .enumerate()
            .collect()
    }

    /// The eager reference: prove every candidate, then take the cheapest
    /// clean one strictly below the paper, the lower sweep index on a tie.
    fn eager(
        priced: &[(usize, SimTime)],
        paper_time: SimTime,
        clean: &[bool],
    ) -> Option<(usize, SimTime)> {
        priced
            .iter()
            .copied()
            .filter(|&(i, t)| clean[i] && t < paper_time)
            .min_by_key(|&(i, t)| (t, i))
    }

    #[test]
    fn candidate_order_is_deterministic_and_deduped() {
        let g = PimGeometry::paper_scaled(64);
        let a = candidates(CollectiveKind::AllReduce, &g, 1024);
        let b = candidates(CollectiveKind::AllReduce, &g, 1024);
        assert_eq!(a, b);
        let mut seen = a.clone();
        seen.dedup();
        assert_eq!(seen.len(), a.len(), "duplicate candidates");
        // Chunked variants only for AllReduce with payload >= 2.
        assert!(a.iter().any(|&(_, c)| c == 2));
        assert!(candidates(CollectiveKind::AllGather, &g, 1024)
            .iter()
            .all(|&(_, c)| c == 1));
        assert!(candidates(CollectiveKind::AllReduce, &g, 1)
            .iter()
            .all(|&(_, c)| c == 1));
    }

    #[test]
    fn trivial_tiers_are_canonicalized_to_ring() {
        // 8 DPUs = 8 banks x 1 chip x 1 rank: chip/rank tier choices are
        // no-ops and must not multiply the candidate list.
        let g = PimGeometry::paper_scaled(8);
        for (comp, _) in candidates(CollectiveKind::AllReduce, &g, 64) {
            assert_eq!(comp.chip, TierAlgo::Ring, "{comp}");
            assert_eq!(comp.rank, TierAlgo::Ring, "{comp}");
        }
    }

    #[test]
    fn winner_is_never_worse_than_paper_and_is_clean() {
        let g = PimGeometry::paper_scaled(64);
        let choice = tune(CollectiveKind::AllReduce, &g, 64, 4).unwrap();
        assert!(choice.tuned_time <= choice.paper_time);
        assert!(choice.speedup() >= 1.0);
        let report = analysis::run_all(&*choice.schedule);
        assert!(report.is_clean(), "winner not clean:\n{report}");
        // Memoized: the second call shares the entry.
        let again = tune(CollectiveKind::AllReduce, &g, 64, 4).unwrap();
        assert!(Arc::ptr_eq(&choice, &again));
    }

    #[test]
    fn reduce_and_gather_tune_to_the_paper_schedule() {
        // No composed form exists for the rooted converge collectives:
        // the candidate list is empty and the incumbent wins.
        let g = PimGeometry::paper_scaled(16);
        assert!(candidates(CollectiveKind::Reduce, &g, 64).is_empty());
        let choice = tune(CollectiveKind::Reduce, &g, 64, 4).unwrap();
        assert!(choice.winner.is_none());
        assert_eq!(choice.spec(), "paper");
        assert_eq!(choice.tuned_time, choice.paper_time);
    }

    #[test]
    fn an_unclean_cheapest_candidate_is_skipped_and_rejected() {
        let clean = [true, false, true, true];
        let mut proved = Vec::new();
        let pick = select(&priced(&[30, 10, 20, 50]), SimTime::from_ps(40), |i| {
            proved.push(i);
            clean[i]
        });
        assert_eq!(proved, [1, 2], "proof order is cheapest first");
        assert_eq!(
            pick,
            Selection {
                winner: Some((2, SimTime::from_ps(20))),
                proven: 2,
                rejected: 1,
            }
        );
    }

    #[test]
    fn price_ties_go_to_the_lower_sweep_index() {
        // Listed out of sweep order: the sort breaks the tie, not the
        // order the candidates arrive in.
        let at = SimTime::from_ps(10);
        let priced = [(3, at), (2, at), (1, at), (0, SimTime::from_ps(12))];
        let clean = [true, false, true, true];
        let mut proved = Vec::new();
        let pick = select(&priced, SimTime::from_ps(11), |i| {
            proved.push(i);
            clean[i]
        });
        assert_eq!(proved, [1, 2]);
        assert_eq!(
            pick,
            Selection {
                winner: Some((2, at)),
                proven: 2,
                rejected: 1,
            }
        );
    }

    #[test]
    fn nothing_is_proven_when_no_candidate_beats_the_paper() {
        // A candidate priced at the paper's time does not beat it either:
        // the incumbent keeps ties.
        let none = Selection {
            winner: None,
            proven: 0,
            rejected: 0,
        };
        let pick = select(&priced(&[50, 40, 60]), SimTime::from_ps(40), |i| {
            panic!("proved candidate {i}, which cannot win")
        });
        assert_eq!(pick, none);
        assert_eq!(select(&[], SimTime::from_ps(40), |_| true), none);
    }

    #[test]
    fn lazy_selection_picks_what_proving_everything_picks() {
        let mut rng = SimRng::seed_from_u64(0xA070_7E57);
        for case in 0..4000 {
            let n = rng.below(12) as usize;
            // Few distinct prices, so ties with each other and with the
            // paper are common; a candidate that failed to build is
            // missing from the priced list.
            let priced: Vec<(usize, SimTime)> = (0..n)
                .filter_map(|i| {
                    let price = SimTime::from_ps(1 + rng.below(8));
                    rng.gen_bool(0.9).then_some((i, price))
                })
                .collect();
            let clean: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
            let paper_time = SimTime::from_ps(1 + rng.below(9));

            let mut proved = Vec::new();
            let pick = select(&priced, paper_time, |i| {
                proved.push(i);
                clean[i]
            });
            let want = eager(&priced, paper_time, &clean);
            assert_eq!(pick.winner, want, "case {case}: {priced:?} {clean:?}");

            // Proven exactly: every candidate cheaper than the paper that
            // sorts before the winner, and the winner.
            let cheaper = |&&(j, u): &&(usize, SimTime)| {
                u < paper_time && want.is_none_or(|(w, t)| (u, j) <= (t, w))
            };
            let mut expected: Vec<(SimTime, usize)> = priced
                .iter()
                .filter(cheaper)
                .map(|&(j, u)| (u, j))
                .collect();
            expected.sort_unstable();
            let expected: Vec<usize> = expected.into_iter().map(|(_, j)| j).collect();
            assert_eq!(proved, expected, "case {case}: proof order");
            assert_eq!(pick.proven, proved.len());
            assert_eq!(
                pick.rejected,
                proved.len() - usize::from(want.is_some()),
                "case {case}: only unclean proofs are rejected"
            );
        }
    }
}
