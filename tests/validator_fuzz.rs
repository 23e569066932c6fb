//! Failure injection and differential fuzzing: systematically corrupt
//! valid schedules and check that the static validator or analyzer (or,
//! where the corruption is semantic rather than structural, the
//! functional executor) catches every mutation class — and that the
//! analyzer's verdict agrees with executor bit-identity on random
//! geometry × collective × permanent-fault scenarios.

use pim_arch::geometry::{DpuId, PimGeometry};
use pimnet_suite::net::analysis;
use pimnet_suite::net::collective::CollectiveKind;
use pimnet_suite::net::exec::{run_collective, ReduceOp};
use pimnet_suite::net::schedule::{boost, repair, validate::validate, CommSchedule, Span};
use pimnet_suite::net::timing::TimingModel;
use pimnet_suite::net::topology::Resource;
use pimnet_suite::net::{isa, PimnetError};
use pimnet_suite::sim::{SimRng, SimTime};

fn base_schedule() -> CommSchedule {
    CommSchedule::build(
        CollectiveKind::AllReduce,
        &PimGeometry::paper_scaled(64),
        256,
        4,
    )
    .unwrap()
}

/// Finds the first non-local transfer and applies `f` to it.
fn corrupt(s: &mut CommSchedule, f: impl FnOnce(&mut pimnet_suite::net::schedule::Transfer)) {
    for phase in &mut s.phases {
        for step in &mut phase.steps {
            if let Some(t) = step.transfers.iter_mut().find(|t| !t.is_local()) {
                f(t);
                return;
            }
        }
    }
    panic!("no transfer to corrupt");
}

#[test]
fn out_of_bounds_span_is_caught() {
    let mut s = base_schedule();
    let len = s.buffer_len;
    corrupt(&mut s, |t| {
        t.src_span = Span::new(len, 8);
        t.dst_span = t.src_span;
    });
    assert!(validate(&s).is_err());
}

#[test]
fn mismatched_span_lengths_are_caught() {
    let mut s = base_schedule();
    corrupt(&mut s, |t| {
        t.dst_span = Span::new(t.dst_span.start, t.dst_span.len + 1)
    });
    assert!(validate(&s).is_err());
}

#[test]
fn empty_destination_is_caught() {
    let mut s = base_schedule();
    corrupt(&mut s, |t| t.dsts.clear());
    assert!(validate(&s).is_err());
}

#[test]
fn self_send_over_the_fabric_is_caught() {
    let mut s = base_schedule();
    corrupt(&mut s, |t| t.dsts = vec![t.src]);
    assert!(validate(&s).is_err());
}

#[test]
fn wrong_tier_resources_are_caught() {
    // A same-chip transfer claiming the rank bus must be rejected.
    let mut s = base_schedule();
    corrupt(&mut s, |t| {
        t.resources = vec![Resource::RankBus { channel: 0 }];
    });
    assert!(validate(&s).is_err());
}

#[test]
fn stripped_dq_endpoint_is_caught() {
    // Find a cross-rank transfer (needs a multi-rank geometry) and drop
    // its source Tx channel.
    let mut s =
        CommSchedule::build(CollectiveKind::AllReduce, &PimGeometry::paper(), 256, 4).unwrap();
    let mut hit = false;
    for phase in &mut s.phases {
        for step in &mut phase.steps {
            for t in &mut step.transfers {
                if t.resources
                    .iter()
                    .any(|r| matches!(r, Resource::RankBus { .. }))
                {
                    t.resources
                        .retain(|r| !matches!(r, Resource::ChipTx { .. }));
                    hit = true;
                    break;
                }
            }
        }
    }
    assert!(hit, "no cross-rank transfer found");
    assert!(validate(&s).is_err());
}

#[test]
fn duplicated_ring_flow_in_exclusive_phase_is_caught() {
    // Duplicate a transfer inside the (non-multiplexed) bank phase with a
    // different destination: two flows on one bufferless segment.
    let mut s = base_schedule();
    let phase = s
        .phases
        .iter_mut()
        .find(|p| !p.multiplexed)
        .expect("a ring phase");
    let step = &mut phase.steps[0];
    let mut dup = step.transfers[0].clone();
    // Same resources, different flow identity.
    dup.src = step.transfers[1].src;
    step.transfers.push(dup);
    assert!(validate(&s).is_err());
}

#[test]
fn malformed_result_tables_are_rejected_before_exec() {
    // A result span past the buffer, or a table one node short, is
    // `P010`: validation, execution and ISA compilation refuse the
    // schedule instead of panicking when a node's result is read.
    let base = CommSchedule::build(
        CollectiveKind::AllReduce,
        &PimGeometry::paper_scaled(8),
        64,
        4,
    )
    .unwrap();
    let mut beyond = base.clone();
    beyond.result_spans[3] = vec![Span::new(beyond.buffer_len, 8)];
    let mut short = base;
    short.result_spans.pop();
    let names_p010 = |what: &str, err: Option<PimnetError>| match err {
        Some(PimnetError::ScheduleInvalid { reason }) if reason.contains("P010") => {}
        other => panic!("{what}: expected a P010 ScheduleInvalid, got {other:?}"),
    };
    for s in [beyond, short] {
        names_p010("validate", validate(&s).err());
        names_p010(
            "run_collective",
            run_collective(&s, ReduceOp::Sum, |id| vec![u64::from(id.0); 64]).err(),
        );
        names_p010("isa::compile", isa::compile(&s).err());
    }
}

#[test]
fn validate_names_the_reports_first_structural_error() {
    // Every non-local transfer of the first exclusive step claims all of
    // that step's resources, so many resources carry several flows. The
    // one `validate` names must not depend on hash state: it is the first
    // `P0xx` error of the analysis report, on every call.
    let mut s = CommSchedule::build(
        CollectiveKind::AllReduce,
        &PimGeometry::paper_scaled(8),
        64,
        4,
    )
    .unwrap();
    let step = s
        .phases
        .iter_mut()
        .find(|p| !p.multiplexed)
        .and_then(|p| p.steps.first_mut())
        .expect("an exclusive step");
    let mut all: Vec<Resource> = Vec::new();
    for r in step.transfers.iter().flat_map(|t| &t.resources) {
        if !all.contains(r) {
            all.push(*r);
        }
    }
    for t in step.transfers.iter_mut().filter(|t| !t.is_local()) {
        t.resources = all.clone();
    }
    let first = analysis::run_all(&s)
        .diagnostics
        .into_iter()
        .find(|d| d.code.starts_with("P0"))
        .expect("a structural error");
    for _ in 0..50 {
        match validate(&s) {
            Err(PimnetError::ScheduleInvalid { reason }) => {
                assert_eq!(reason, first.to_string());
            }
            other => panic!("expected ScheduleInvalid, got {other:?}"),
        }
    }
}

#[test]
fn dropping_a_transfer_breaks_semantics_not_structure() {
    // Removing one reduce hop leaves a structurally valid but semantically
    // wrong schedule — the functional layer must expose it.
    let mut s = base_schedule();
    let phase = &mut s.phases[0];
    let removed = phase.steps[0].transfers.remove(0);
    assert!(
        validate(&s).is_ok(),
        "structure alone cannot see a missing transfer"
    );
    let n = s.geometry.total_dpus();
    let m = run_collective(&s, ReduceOp::Sum, |id| vec![u64::from(id.0) + 1; 256]).unwrap();
    let expected: u64 = (1..=u64::from(n)).sum();
    let wrong = s
        .participants()
        .any(|id| m.result(&s, id).iter().any(|&x| x != expected));
    assert!(
        wrong,
        "dropping {removed:?} should corrupt at least one node's result"
    );
}

#[test]
fn flipping_combine_off_breaks_the_reduction() {
    let mut s = base_schedule();
    corrupt(&mut s, |t| t.combine = false);
    assert!(validate(&s).is_ok(), "combine=false is structurally legal");
    let m = run_collective(&s, ReduceOp::Sum, |id| vec![u64::from(id.0) + 1; 256]).unwrap();
    let expected: u64 = (1..=64).sum();
    let wrong = s
        .participants()
        .any(|id| m.result(&s, id).iter().any(|&x| x != expected));
    assert!(
        wrong,
        "overwriting instead of reducing must corrupt the sum"
    );
}

/// The collective's reference semantics, computed directly from the
/// definition (never from the schedule's transfers): node `j`'s
/// contribution element `e` is `f(j, e)`; the return value is what
/// `ExecMachine::result` must produce for node `id`.
fn reference_result(s: &CommSchedule, id: DpuId, f: impl Fn(u32, usize) -> u64 + Copy) -> Vec<u64> {
    let n = s.elems_per_node;
    let total = s.geometry.total_dpus();
    let i = id.0;
    let reduced = |e: usize| (0..total).fold(0u64, |acc, j| acc.wrapping_add(f(j, e)));
    match s.kind {
        CollectiveKind::AllReduce => (0..n).map(reduced).collect(),
        CollectiveKind::Reduce => {
            if i == 0 {
                (0..n).map(reduced).collect()
            } else {
                Vec::new()
            }
        }
        // ReduceScatter's piece boundaries are the schedule's own result
        // spans (buffer index == element index); the *values* still come
        // from the reference reduction.
        CollectiveKind::ReduceScatter => s.result_spans[i as usize]
            .iter()
            .flat_map(|sp| sp.range())
            .map(reduced)
            .collect(),
        CollectiveKind::AllGather => (0..total)
            .flat_map(|j| (0..n).map(move |e| f(j, e)))
            .collect(),
        CollectiveKind::Gather => {
            if i == 0 {
                (0..total)
                    .flat_map(|j| (0..n).map(move |e| f(j, e)))
                    .collect()
            } else {
                Vec::new()
            }
        }
        CollectiveKind::Broadcast => (0..n).map(|e| f(0, e)).collect(),
        CollectiveKind::AllToAll => {
            let chunk = n / total as usize;
            (0..total)
                .flat_map(|j| (0..chunk).map(move |c| f(j, i as usize * chunk + c)))
                .collect()
        }
    }
}

/// Differential fuzz: random geometry × collective × permanent-fault
/// storms. Whenever the analyzer accepts a schedule (builder output, or
/// repair output under a sampled storm), the functional executor must
/// bit-match the reference semantics — the analyzer's "clean" verdict is
/// a proof, so a single mismatch here falsifies it.
#[test]
fn differential_fuzz_analyzer_accept_implies_exec_matches_reference() {
    let mut rng = SimRng::seed_from_u64(0xD1FF_FA22);
    let mut accepted = 0usize;
    for round in 0..48u64 {
        let dpus = [2u32, 4, 8, 16, 64][rng.below(5) as usize];
        let kind = CollectiveKind::ALL[rng.below(7) as usize];
        let elems = [16usize, 37, 64, 193][rng.below(4) as usize];
        let g = PimGeometry::paper_scaled(dpus);
        let mut s = CommSchedule::build(kind, &g, elems, 4).unwrap();
        // Sometimes hit the schedule with a permanent-fault storm and
        // prove the *repaired* schedule instead.
        if dpus >= 8 && rng.gen_bool(0.5) {
            let cfg = pimnet_suite::faults::FaultConfig {
                perm_rates: pimnet_suite::faults::PermanentFaultRates {
                    segment_prob: 0.04,
                    port_prob: 0.04,
                    rank_prob: 0.0,
                },
                ..pimnet_suite::faults::FaultConfig::none()
            }
            .with_seed(0x57A2 ^ round);
            let injector = pimnet_suite::faults::FaultInjector::new(cfg);
            let faults =
                injector.permanent_faults(g.ranks_per_channel, g.chips_per_rank, g.banks_per_chip);
            if !faults.is_empty() && repair::unusable_dpus(&g, &faults).is_empty() {
                if let Ok(r) = repair::repair(&s, &faults) {
                    s = std::sync::Arc::unwrap_or_clone(r.schedule);
                }
            }
        }
        let report = analysis::run_all(&s);
        assert!(
            !report.has_errors(),
            "round {round}: analyzer rejected a builder/repair schedule \
             ({kind} x{dpus} e{elems}):\n{report}"
        );
        accepted += 1;
        // Element- and node-dependent payload so wrong element mappings
        // and wrong contributors both change bits.
        let f = |j: u32, e: usize| u64::from(j) * 100_003 + e as u64 * 7 + 1;
        let m = run_collective(&s, ReduceOp::Sum, |id| {
            (0..s.elems_per_node).map(|e| f(id.0, e)).collect()
        })
        .unwrap();
        for id in s.participants() {
            assert_eq!(
                m.result(&s, id),
                reference_result(&s, id, f),
                "round {round}: {kind} x{dpus} e{elems} diverged on {id} \
                 despite a clean analysis"
            );
        }
    }
    assert_eq!(accepted, 48);
}

/// The analyzer side of the differential contract: when it *rejects*,
/// the report pinpoints a concrete phase/step/transfer or DPU, so the
/// rejection is actionable rather than "something is wrong somewhere".
/// 1000 seeded single mutations (delete / retarget / shift / reroute /
/// shrink / combine-flip) over valid schedules: every mutation that
/// actually breaks the collective must be flagged *without running the
/// executor* (≥ 99% of all mutations are). The executor only appears on
/// the other side of the contract, adjudicating analyzer-accepted
/// mutants: a few mutations are genuinely semantics-preserving (e.g.
/// retargeting a ring ReduceScatter hop to the next-next node, where the
/// commutative combine re-merges one step later; or dropping a delivery
/// that was redundant to begin with), and for exactly those the accepted
/// schedule must still be bit-identical to the reference.
/// What one fuzz seed resolved to (see
/// [`seeded_mutations_are_flagged_without_the_executor`]).
enum FuzzOutcome {
    /// The analyzer rejected the mutant with a pinpointed error.
    Caught,
    /// The analyzer accepted it and the executor proved it harmless.
    Harmless,
    /// The analyzer accepted a semantics-breaking mutant (a bug).
    Unsound(String),
}

/// Mutates one seeded schedule and adjudicates the analyzer's verdict.
/// Also pins `validate` to the analyzer's structural verdict: it rejects
/// the mutant exactly when the report holds a `P0xx` or `P301` error. The
/// autotuner prices candidates before anything validates them, so every
/// mutant, accepted or rejected, is priced too, and its facts price must
/// equal its boost plan's breakdown.
/// Returns whether `validate` rejected, and the outcome. Pure function of
/// the seed, so the 1000-seed sweep fans out over `pim_sim::par` without
/// changing any outcome.
fn fuzz_one_mutation(seed: u64) -> (bool, FuzzOutcome) {
    {
        let mut rng = SimRng::seed_from_u64(0xBEEF_0000 ^ seed);
        let dpus = [8u32, 16][rng.below(2) as usize];
        let kind = CollectiveKind::ALL[rng.below(7) as usize];
        let g = PimGeometry::paper_scaled(dpus);
        let mut s = CommSchedule::build(kind, &g, 64, 4).unwrap();
        let total = g.total_dpus();

        // Pick a random non-local transfer.
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
            // Delete the transfer: its payload is never delivered.
            0 => {
                step.transfers.remove(ti);
            }
            // Retarget the delivery to the next DPU.
            1 => {
                let t = &mut step.transfers[ti];
                t.dsts[0] = DpuId((t.dsts[0].0 + 1) % total);
            }
            // Shift the landing region by one element.
            2 => {
                let t = &mut step.transfers[ti];
                t.dst_span = Span::new(t.dst_span.start + 1, t.dst_span.len);
            }
            // Read from the wrong source node.
            3 => {
                let t = &mut step.transfers[ti];
                t.src = DpuId((t.src.0 + 1) % total);
            }
            // Shrink both spans: one element is silently dropped.
            4 => {
                let t = &mut step.transfers[ti];
                if t.src_span.len > 1 {
                    t.src_span = Span::new(t.src_span.start, t.src_span.len - 1);
                    t.dst_span = Span::new(t.dst_span.start, t.dst_span.len - 1);
                } else {
                    step.transfers.remove(ti);
                }
            }
            // Flip the combine flag: overwrite instead of reduce (or the
            // reverse).
            _ => {
                let t = &mut step.transfers[ti];
                t.combine = !t.combine;
            }
        }

        let timing = TimingModel::paper();
        assert_eq!(
            boost::price(&s, &timing, SimTime::ZERO),
            boost::plan(&s).breakdown(&timing, SimTime::ZERO),
            "seed {seed} ({kind} x{dpus} op {op}): facts price differs from the plan's"
        );
        let report = analysis::run_all(&s);
        let rejected = validate(&s).is_err();
        let structural = report.diagnostics.iter().any(|d| {
            d.severity == analysis::Severity::Error
                && (d.code.starts_with("P0") || d.code == "P301")
        });
        assert_eq!(
            rejected, structural,
            "seed {seed} ({kind} x{dpus} op {op}): validate disagrees with the \
             structural verdict of the report:\n{report}"
        );
        if report.has_errors() {
            assert!(
                report.diagnostics.iter().any(|d| {
                    d.severity == analysis::Severity::Error && d.location.is_pinpointed()
                }),
                "seed {seed} ({kind} x{dpus} op {op}): rejected but no \
                 pinpointed error diagnostic:\n{report}"
            );
            return (rejected, FuzzOutcome::Caught);
        }
        // Analyzer accepted the mutant: it must be semantics-preserving.
        let f = |j: u32, e: usize| u64::from(j) * 100_003 + e as u64 * 7 + 1;
        let m = run_collective(&s, ReduceOp::Sum, |id| {
            (0..s.elems_per_node).map(|e| f(id.0, e)).collect()
        })
        .unwrap_or_else(|e| {
            panic!(
                "seed {seed} ({kind} x{dpus} op {op}): analyzer accepted a \
                    schedule the validator rejects: {e}"
            )
        });
        let preserved = s
            .participants()
            .all(|id| m.result(&s, id) == reference_result(&s, id, f));
        let outcome = if preserved {
            FuzzOutcome::Harmless
        } else {
            FuzzOutcome::Unsound(format!("seed {seed}: {kind} x{dpus} op {op}"))
        };
        (rejected, outcome)
    }
}

#[test]
fn seeded_mutations_are_flagged_without_the_executor() {
    const TOTAL: u64 = 1000;
    let (rejected, outcomes): (Vec<bool>, Vec<FuzzOutcome>) =
        pimnet_suite::sim::par::map_ordered((0..TOTAL).collect(), fuzz_one_mutation)
            .into_iter()
            .unzip();
    // `validate` rejects exactly the structurally broken mutants (the
    // per-seed agreement is asserted in `fuzz_one_mutation`).
    let rejected = rejected.iter().filter(|&&r| r).count();
    assert_eq!(rejected, 249, "validate's verdicts on the corpus changed");
    let caught = outcomes
        .iter()
        .filter(|o| matches!(o, FuzzOutcome::Caught))
        .count();
    let harmless = outcomes
        .iter()
        .filter(|o| matches!(o, FuzzOutcome::Harmless))
        .count();
    let unsound: Vec<&String> = outcomes
        .iter()
        .filter_map(|o| match o {
            FuzzOutcome::Unsound(msg) => Some(msg),
            _ => None,
        })
        .take(8)
        .collect();
    // Soundness: the analyzer never accepts a mutation that changes bits.
    assert!(
        unsound.is_empty(),
        "analyzer accepted semantics-breaking mutations: {unsound:?}"
    );
    // Coverage: 100% of breaking mutations were flagged statically
    // (anything unflagged was proven harmless above), and the harmless
    // tail stays small enough that the raw static catch rate holds too.
    assert_eq!(caught + harmless, TOTAL as usize);
    assert!(
        caught * 100 >= TOTAL as usize * 95,
        "static catch rate dropped: flagged {caught}/{TOTAL} ({harmless} harmless)"
    );
}

#[test]
fn the_uncorrupted_schedule_passes_everything() {
    let s = base_schedule();
    validate(&s).unwrap();
    let m = run_collective(&s, ReduceOp::Sum, |id| vec![u64::from(id.0) + 1; 256]).unwrap();
    let expected: u64 = (1..=64).sum();
    for id in s.participants() {
        assert!(m.result(&s, id).iter().all(|&x| x == expected));
    }
    let _ = DpuId(0);
}
