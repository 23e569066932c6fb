//! Differential equivalence harness for the incremental verifier: the
//! streaming fold ([`analysis::verify_full`]) and the delta re-lint
//! ([`analysis::reverify_delta`] / [`analysis::reverify_repair`]) must
//! produce reports **byte-identical** to the batch analyzer
//! ([`analysis::run_all`]) — same codes, same rendered messages, same
//! order — over the full fuzzer corpus (the validator fuzzer's 1000
//! seeded single mutations, at 1, 2, and 8 workers), the builder matrix,
//! and repaired storm schedules. Schedules that break each premise of the
//! delta walk's split rule, and deltas taken from a delta summary, must
//! agree too.
//!
//! Byte-identity is the soundness statement: a mutant the batch analyzer
//! rejects that the delta path accepts would be an unsound accept, and
//! any divergence at all fails the `assert_eq!` on the rendered report.

use std::sync::Arc;

use pim_arch::geometry::{DpuId, PimGeometry};
use pimnet_suite::net::analysis;
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::schedule::{repair, CommSchedule, CommStep, Span, Transfer};
use pimnet_suite::sim::{par, SimRng};

/// Renders a report both ways the repo compares them: the exact human
/// rendering and the exact JSON. Any difference in either is a failure.
fn fingerprint(report: &analysis::AnalysisReport) -> String {
    format!("{report}\n{}", report.to_json())
}

/// Asserts the three drivers agree on `schedule`, given the verified
/// summary of `base` to delta from, and returns the batch fingerprint.
fn check_one(label: &str, base: &analysis::AnalysisSummary, schedule: &CommSchedule) -> String {
    let batch = analysis::run_all(schedule);
    let batch_fp = fingerprint(&batch);

    let streamed = analysis::verify_full(schedule);
    assert_eq!(
        batch_fp,
        fingerprint(&streamed.report),
        "{label}: streaming verifier diverged from batch"
    );

    let (delta, stats) = analysis::reverify_delta(base, Arc::new(schedule.clone()));
    assert_eq!(
        batch_fp,
        fingerprint(&delta.report),
        "{label}: delta re-lint diverged from batch \
         (reused {} of {} steps, {} re-linted)",
        stats.reused(),
        stats.steps_total,
        stats.relinted
    );
    batch_fp
}

/// One corpus case: the validator fuzzer's mutation recipe (same seeds,
/// same geometry/kind/site/op draws), adjudicated for byte-identity
/// instead of executor agreement. Pure function of the seed, so the
/// fan-out is worker-count independent.
fn mutation_case(seed: u64) -> String {
    let mut rng = SimRng::seed_from_u64(0xBEEF_0000 ^ seed);
    let dpus = [8u32, 16][rng.below(2) as usize];
    let kind = CollectiveKind::ALL[rng.below(7) as usize];
    let g = PimGeometry::paper_scaled(dpus);
    let mut s = CommSchedule::build(kind, &g, 64, 4).unwrap();
    let total = g.total_dpus();

    // The base schedule is verified once; every mutant deltas from it.
    let base = analysis::verify_full(&s);
    assert_eq!(
        fingerprint(&analysis::run_all(&s)),
        fingerprint(&base.report),
        "seed {seed}: streaming verifier diverged on the unmutated base"
    );

    let sites: Vec<(usize, usize, usize)> = s
        .phases
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| {
            p.steps.iter().enumerate().flat_map(move |(si, st)| {
                st.transfers
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| !t.is_local())
                    .map(move |(ti, _)| (pi, si, ti))
            })
        })
        .collect();
    let (pi, si, ti) = sites[rng.below(sites.len() as u64) as usize];
    let op = rng.below(6);
    let step = &mut s.phases[pi].steps[si];
    match op {
        0 => {
            step.transfers.remove(ti);
        }
        1 => {
            let t = &mut step.transfers[ti];
            t.dsts[0] = DpuId((t.dsts[0].0 + 1) % total);
        }
        2 => {
            let t = &mut step.transfers[ti];
            t.dst_span = Span::new(t.dst_span.start + 1, t.dst_span.len);
        }
        3 => {
            let t = &mut step.transfers[ti];
            t.src = DpuId((t.src.0 + 1) % total);
        }
        4 => {
            let t = &mut step.transfers[ti];
            if t.src_span.len > 1 {
                t.src_span = Span::new(t.src_span.start, t.src_span.len - 1);
                t.dst_span = Span::new(t.dst_span.start, t.dst_span.len - 1);
            } else {
                step.transfers.remove(ti);
            }
        }
        _ => {
            let t = &mut step.transfers[ti];
            t.combine = !t.combine;
        }
    }

    let label = format!("seed {seed} ({kind} x{dpus} op {op})");
    format!("{label}\n{}", check_one(&label, &base, &s))
}

/// The full 1000-seed mutation corpus, checked for three-way
/// byte-identity at 1, 2, and 8 workers: each case already asserts
/// incremental == batch internally, and the concatenated fingerprints
/// must not depend on the worker count either.
#[test]
fn mutation_corpus_is_byte_identical_at_every_worker_count() {
    const TOTAL: u64 = 1000;
    let reference = par::map_ordered_with(1, (0..TOTAL).collect(), mutation_case).join("\n");
    for workers in [2usize, 8] {
        let got = par::map_ordered_with(workers, (0..TOTAL).collect(), mutation_case).join("\n");
        assert_eq!(
            reference, got,
            "corpus fingerprints diverged between 1 and {workers} workers"
        );
    }
}

/// Builder matrix: every collective on small/medium geometries and both
/// an aligned and a deliberately awkward payload size.
#[test]
fn builder_matrix_streaming_matches_batch() {
    for kind in CollectiveKind::ALL {
        for dpus in [2u32, 8, 64] {
            for elems in [64usize, 193] {
                let g = PimGeometry::paper_scaled(dpus);
                let s = CommSchedule::build(kind, &g, elems, 4).unwrap();
                let base = analysis::verify_full(&s);
                let label = format!("{kind} x{dpus} e{elems}");
                // Delta of a schedule against its own summary must also
                // reproduce the batch report while reusing every step.
                let (delta, stats) = analysis::reverify_delta(&base, Arc::new(s.clone()));
                assert_eq!(
                    fingerprint(&analysis::run_all(&s)),
                    fingerprint(&delta.report),
                    "{label}: identity delta diverged"
                );
                assert_eq!(stats.relinted, 0, "{label}: identity delta re-linted");
                assert_eq!(fingerprint(&base.report), fingerprint(&delta.report));
            }
        }
    }
}

/// A mutation in the last step must not be masked by adoption: the delta
/// walk has to notice the content change, re-lint it, and report exactly
/// what batch reports.
#[test]
fn suffix_mutations_are_never_masked() {
    let g = PimGeometry::paper_scaled(16);
    let s = CommSchedule::build(CollectiveKind::AllReduce, &g, 64, 4).unwrap();
    let base = analysis::verify_full(&s);
    // Mutate the last non-local transfer in the schedule.
    let mut m = s.clone();
    let mut site = None;
    for (pi, p) in m.phases.iter().enumerate() {
        for (si, st) in p.steps.iter().enumerate() {
            for (ti, t) in st.transfers.iter().enumerate() {
                if !t.is_local() {
                    site = Some((pi, si, ti));
                }
            }
        }
    }
    let (pi, si, ti) = site.expect("a non-local transfer");
    let t = &mut m.phases[pi].steps[si].transfers[ti];
    t.dst_span = Span::new(t.dst_span.start + 1, t.dst_span.len);
    let batch = analysis::run_all(&m);
    let (delta, stats) = analysis::reverify_delta(&base, Arc::new(m));
    assert_eq!(fingerprint(&batch), fingerprint(&delta.report));
    assert!(stats.relinted >= 1, "suffix mutation re-linted nothing");
}

/// A repair's `(phase, base step, new step, sub-steps)` split groups,
/// paired the way the delta walk pairs them: by transfer count.
fn split_groups(base: &CommSchedule, new: &CommSchedule) -> Vec<(usize, usize, usize, usize)> {
    let mut groups = Vec::new();
    for (pi, (old, phase)) in base.phases.iter().zip(&new.phases).enumerate() {
        let mut j = 0;
        for (i, step) in old.steps.iter().enumerate() {
            let (mut have, mut k) = (0, 0);
            while have < step.transfers.len() {
                have += phase.steps[j + k].transfers.len();
                k += 1;
            }
            if k > 1 {
                groups.push((pi, i, j, k));
            }
            j += k;
        }
    }
    groups
}

/// The repair of `kind` on `dpus` DPUs at 64 elements around `tokens`,
/// with the unrepaired schedule and its proof.
fn repaired(
    kind: CollectiveKind,
    dpus: u32,
    tokens: &str,
) -> (
    CommSchedule,
    analysis::AnalysisSummary,
    repair::RepairedSchedule,
) {
    let g = PimGeometry::paper_scaled(dpus);
    let s = CommSchedule::build(kind, &g, 64, 4).unwrap();
    let faults = pimnet_suite::faults::permanent::PermanentFaultSet::parse_tokens(tokens).unwrap();
    let r = repair::repair(&s, &faults).unwrap();
    let base = analysis::verify_full(&s);
    (s, base, r)
}

/// Storm corpus: seeded repairs of every collective at 8–64 DPUs, with
/// an aligned and a ragged payload, re-proven by `reverify_repair` against
/// the fault-free base summary, must match a batch run over the repaired
/// schedule byte for byte. A repair that changed the schedule must also
/// re-fold no dataflow step: reroutes and remaps adopt the base's
/// verdicts, and the repair's reader-before-writer splits pass the split
/// rule.
#[test]
fn repaired_storm_schedules_delta_matches_batch() {
    let cells: Vec<(CollectiveKind, u32, usize)> = CollectiveKind::ALL
        .into_iter()
        .flat_map(|kind| {
            [8u32, 16, 64]
                .into_iter()
                .flat_map(move |dpus| [64usize, 193].map(|elems| (kind, dpus, elems)))
        })
        .collect();
    let cell = |(kind, dpus, elems): (CollectiveKind, u32, usize)| -> (usize, usize) {
        let g = PimGeometry::paper_scaled(dpus);
        let s = CommSchedule::build(kind, &g, elems, 4).unwrap();
        let base = analysis::verify_full(&s);
        let (mut changed, mut split) = (0, 0);
        for seed in 0..6u64 {
            let cfg = pimnet_suite::faults::FaultConfig {
                perm_rates: pimnet_suite::faults::PermanentFaultRates {
                    segment_prob: 0.05,
                    port_prob: 0.05,
                    rank_prob: 0.0,
                },
                ..pimnet_suite::faults::FaultConfig::none()
            }
            .with_seed(0xADD0 ^ (seed << 8) ^ u64::from(dpus));
            let injector = pimnet_suite::faults::FaultInjector::new(cfg);
            let faults =
                injector.permanent_faults(g.ranks_per_channel, g.chips_per_rank, g.banks_per_chip);
            if !repair::unusable_dpus(&g, &faults).is_empty() {
                continue;
            }
            let Ok(r) = repair::repair(&s, &faults) else {
                continue;
            };
            let label = format!("{kind} x{dpus} e{elems} seed {seed}");
            let (delta, stats) = analysis::reverify_repair(&base, &r);
            assert_eq!(
                fingerprint(&analysis::run_all(r.schedule.as_ref())),
                fingerprint(&delta.report),
                "{label}: repaired delta diverged from batch"
            );
            if !r.report.is_identity() {
                changed += 1;
                split += usize::from(r.report.extra_steps > 0);
                assert_eq!(stats.refolded, 0, "{label}: {stats:?}");
                assert!(!stats.full, "{label}: fell back to a full proof");
            }
        }
        (changed, split)
    };
    let counts = par::map_ordered_with(2, cells, cell);
    let changed: usize = counts.iter().map(|c| c.0).sum();
    let split: usize = counts.iter().map(|c| c.1).sum();
    assert!(
        changed >= 100 && split >= 40,
        "repair corpus too thin: {changed} changed, {split} split"
    );
}

/// Premise 4 of the split rule is load-bearing. In AllReduce x128 at 64
/// elements, one transfer of phase 2 step 0 combines into a region
/// another transfer of the step reads. Run it first, alone, and the
/// reader sees the combined data: batch reports the double count, and the
/// delta must re-fold the group to report it too.
#[test]
fn writer_first_split_is_refolded_and_reports_the_double_count() {
    let g = PimGeometry::paper_scaled(128);
    let s = CommSchedule::build(CollectiveKind::AllReduce, &g, 64, 4).unwrap();
    let base = analysis::verify_full(&s);
    assert!(base.report.is_clean());
    // The step's first reader whose region another transfer combines
    // into, and that writer.
    let step = &s.phases[2].steps[0];
    let combines_into = |w: &Transfer, r: &Transfer| {
        w.combine
            && w.dsts.contains(&r.src)
            && r.src_span.start < w.dst_span.end()
            && w.dst_span.start < r.src_span.end()
    };
    let w = step
        .transfers
        .iter()
        .find_map(|r| step.transfers.iter().position(|w| combines_into(w, r)))
        .expect("a combine into a region another transfer reads");
    let mut m = s.clone();
    let mut rest = m.phases[2].steps[0].transfers.clone();
    let writer = rest.remove(w);
    m.phases[2]
        .steps
        .splice(0..1, [CommStep::new(vec![writer]), CommStep::new(rest)]);
    let batch = analysis::run_all(&m);
    assert!(
        batch.diagnostics.iter().any(|d| d.code == "P104"
            && (
                d.location.phase,
                d.location.step,
                d.location.transfer,
                d.location.dpu
            ) == (Some(2), Some(1), Some(0), Some(64))),
        "batch lost the double count:\n{batch}"
    );
    let (delta, stats) = analysis::reverify_delta(&base, Arc::new(m));
    assert_eq!(fingerprint(&batch), fingerprint(&delta.report));
    assert!(stats.refolded >= 2 && !stats.full, "{stats:?}");
}

/// Premise 3: a transfer moved out of a split group into the next one
/// leaves neither group holding its base step's flows, so nothing is
/// adopted there; the delta still equals batch.
#[test]
fn transfer_moved_between_groups_is_refolded() {
    let (_, base, r) = repaired(CollectiveKind::AllGather, 64, "r0c0b2E,r0c3tx");
    let groups = split_groups(base.schedule(), &r.schedule);
    let &(pi, _, j, k) = groups
        .iter()
        .find(|g| r.schedule.phases[g.0].steps.len() > g.2 + g.3)
        .expect("a split group with a step after it");
    let mut m = (*r.schedule).clone();
    let steps = &mut m.phases[pi].steps;
    let moved = steps[j + k - 1].transfers.pop().unwrap();
    steps[j + k].transfers.push(moved);
    let batch = analysis::run_all(&m);
    let (delta, stats) = analysis::reverify_delta(&base, Arc::new(m));
    assert_eq!(fingerprint(&batch), fingerprint(&delta.report));
    assert!(stats.refolded > 0, "{stats:?}");
}

/// Premise 2: a split of a base step that carries a finding re-folds the
/// group, even though it holds the step's flows and reads nothing an
/// earlier sub-step delivers.
#[test]
fn split_of_a_step_with_findings_is_refolded() {
    let (s, _, r) = repaired(CollectiveKind::AllReduce, 64, "r0c0b2E,r0c5rx");
    let groups = split_groups(&s, &r.schedule);
    let &(pi, i, j, k) = groups.first().expect("the repair splits a step");
    // Deliver one combining transfer twice: the step double-counts.
    let double = |t: &mut Transfer| {
        let d = t.dsts[0];
        t.dsts.push(d);
    };
    let target = s.phases[pi].steps[i]
        .transfers
        .iter()
        .find(|t| t.combine)
        .expect("a combining transfer")
        .clone();
    let mut b = s.clone();
    let t = b.phases[pi].steps[i]
        .transfers
        .iter_mut()
        .find(|t| **t == target)
        .unwrap();
    double(t);
    let mut m = (*r.schedule).clone();
    let t = m.phases[pi].steps[j..j + k]
        .iter_mut()
        .flat_map(|st| &mut st.transfers)
        .find(|t| {
            (t.src, &t.dsts, t.src_span, t.dst_span)
                == (target.src, &target.dsts, target.src_span, target.dst_span)
        })
        .expect("the group holds the transfer");
    double(t);
    let base = analysis::verify_full(&b);
    assert!(base.report.has_errors(), "the doubled step is clean");
    let batch = analysis::run_all(&m);
    let (delta, stats) = analysis::reverify_delta(&base, Arc::new(m));
    assert_eq!(fingerprint(&batch), fingerprint(&delta.report));
    assert!(stats.refolded >= k && !stats.full, "{stats:?}");
}

/// A delta summary holds no checkpoint inside a split group. Deltas taken
/// from it must still equal batch: a change right after a sub-step with
/// no checkpoint falls back to a full proof, a change elsewhere walks,
/// and the repaired schedule itself is adopted whole.
#[test]
fn delta_from_a_delta_summary_equals_batch() {
    let (_, base, r) = repaired(CollectiveKind::AllReduce, 64, "r0c0b2E,r0c5rx");
    let (first, stats) = analysis::reverify_repair(&base, &r);
    assert_eq!(stats.refolded, 0);
    let groups = split_groups(base.schedule(), &r.schedule);
    let &(pi, _, j, _) = groups.first().expect("the repair splits a step");
    // Shift one delivery of a sub-step: a dataflow change.
    let shifted = |at: usize| {
        let mut m = (*r.schedule).clone();
        let t = &mut m.phases[pi].steps[at].transfers[0];
        t.dst_span = Span::new(t.dst_span.start + 1, t.dst_span.len);
        m
    };
    for (at, falls_back) in [(j + 1, true), (j, false)] {
        let m = shifted(at);
        let batch = analysis::run_all(&m);
        let (delta, stats) = analysis::reverify_delta(&first, Arc::new(m));
        assert_eq!(
            fingerprint(&batch),
            fingerprint(&delta.report),
            "change at phase {pi} step {at}"
        );
        assert_eq!(
            stats.full, falls_back,
            "change at phase {pi} step {at}: {stats:?}"
        );
    }
    let (again, stats) = analysis::reverify_delta(&first, r.schedule.clone());
    assert_eq!(fingerprint(&first.report), fingerprint(&again.report));
    assert_eq!(stats.reused(), stats.steps_total);
}
