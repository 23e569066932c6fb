//! Discrete-event execution of workload programs.
//!
//! [`crate::program::run_program`] times a program analytically, folding
//! per-DPU load imbalance into a mean + skew model. This module runs the
//! same program through the event-driven engine of `pim-sim` with an
//! *explicit* per-DPU compute-time distribution: every DPU's kernel
//! completion is an event, the collective launches when the last READY
//! arrives (the PIMnet barrier), and its completion event triggers the
//! next phase.
//!
//! Besides exercising the simulation kernel end-to-end, this yields a
//! per-phase timeline and lets tests check that the analytic model is a
//! faithful summary of the event-driven execution.

use pim_sim::rng::SimRng;
use pim_sim::{Engine, SimTime};

use pim_arch::SystemConfig;
use pimnet::backends::CollectiveBackend;
use pimnet::collective::CollectiveSpec;

use crate::error::WorkloadError;
use crate::program::{Phase, Program};

/// One timeline entry of an event-driven run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelineEvent {
    /// When the phase completed.
    pub at: SimTime,
    /// Phase index within the program.
    pub phase: usize,
    /// Human-readable description.
    pub what: String,
}

/// Result of an event-driven program execution.
#[derive(Debug, Clone, PartialEq)]
pub struct DesReport {
    /// End-to-end completion time.
    pub end: SimTime,
    /// Completion timeline, one entry per phase.
    pub timeline: Vec<TimelineEvent>,
    /// Events dispatched by the engine.
    pub events: u64,
}

struct DesWorld {
    /// DPUs still computing in the current compute phase.
    outstanding: u32,
    timeline: Vec<TimelineEvent>,
}

/// Runs `program` event-driven: per-DPU compute times are drawn uniformly
/// from `mean × [1 − imbalance, 1 + imbalance]` (seeded), each completion
/// is an engine event, and collectives start at the barrier after the last
/// completion.
///
/// # Errors
///
/// [`WorkloadError::Backend`] for backend rejections (evaluated up front,
/// before simulation); [`WorkloadError::LostCompletions`] if a compute
/// phase's barrier closes with completion events still outstanding.
pub fn run_program_des(
    program: &Program,
    system: &SystemConfig,
    backend: &dyn CollectiveBackend,
    seed: u64,
) -> Result<DesReport, WorkloadError> {
    let dpus = system.geometry.dpus_per_channel();
    let mut rng = SimRng::seed_from_u64(seed);

    // Pre-compute every collective's duration, aligned one-to-one with the
    // phase list (they are state-independent; compute phases hold ZERO), so
    // the playback loop below never indexes past the precomputed set.
    let mut comm_times = Vec::with_capacity(program.phases.len());
    for phase in &program.phases {
        comm_times.push(match phase {
            Phase::Collective {
                kind,
                bytes_per_dpu,
                elem_bytes,
            } => {
                let spec = CollectiveSpec::new(*kind, *bytes_per_dpu).with_elem_bytes(*elem_bytes);
                backend.collective(&spec)?.total()
            }
            Phase::Compute { .. } => SimTime::ZERO,
        });
    }

    let mut engine: Engine<DesWorld> = Engine::new();
    let mut world = DesWorld {
        outstanding: 0,
        timeline: Vec::new(),
    };

    // Walk phases sequentially: each compute phase schedules one completion
    // event per DPU; the phase ends when the last lands. Collectives are
    // single events of the precomputed duration.
    let mut cursor = SimTime::ZERO;
    for (pi, (phase, &phase_comm)) in program.phases.iter().zip(&comm_times).enumerate() {
        match phase {
            Phase::Compute { per_dpu, imbalance } => {
                let mean = system.dpu.compute_time(per_dpu);
                world.outstanding = dpus;
                let mut last = cursor;
                for _ in 0..dpus {
                    let f = 1.0 + rng.gen_range(-*imbalance..=*imbalance);
                    let t = cursor + SimTime::from_secs_f64(mean.as_secs_f64() * f);
                    last = last.max(t);
                    engine.schedule(t, move |w: &mut DesWorld, _| {
                        w.outstanding = w.outstanding.saturating_sub(1);
                    });
                }
                engine.run(&mut world);
                if world.outstanding != 0 {
                    return Err(WorkloadError::LostCompletions {
                        missing: world.outstanding,
                    });
                }
                cursor = last;
                world.timeline.push(TimelineEvent {
                    at: cursor,
                    phase: pi,
                    what: format!("compute barrier ({dpus} DPUs ready)"),
                });
            }
            Phase::Collective { kind, .. } => {
                let done = cursor + phase_comm;
                let label = kind.to_string();
                engine.schedule(done, move |w: &mut DesWorld, _| {
                    w.timeline.push(TimelineEvent {
                        at: done,
                        phase: pi,
                        what: format!("{label} complete"),
                    });
                });
                engine.run(&mut world);
                cursor = done;
            }
        }
    }

    Ok(DesReport {
        end: cursor,
        timeline: world.timeline,
        events: engine.events_executed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Mlp;
    use crate::program::run_program;
    use crate::Workload;
    use pimnet::backends::PimnetBackend;

    #[test]
    fn des_and_analytic_agree_within_the_jitter_band() {
        let sys = SystemConfig::paper();
        let backend = PimnetBackend::paper();
        let program = Mlp::new(1024).program(&sys);
        let analytic = run_program(&program, &sys, &backend, pim_sim::Probe::disabled())
            .unwrap()
            .total();
        let des = run_program_des(&program, &sys, &backend, 7).unwrap();
        let ratio = des.end.ratio(analytic);
        // The analytic model charges the *max* of the imbalance band; a
        // sampled run lands at or below it, and never under the mean.
        assert!(
            (0.9..=1.02).contains(&ratio),
            "DES {} vs analytic {analytic} (ratio {ratio:.3})",
            des.end
        );
    }

    #[test]
    fn timeline_has_one_entry_per_phase() {
        let sys = SystemConfig::paper();
        let backend = PimnetBackend::paper();
        let program = Mlp::new(256).program(&sys);
        let des = run_program_des(&program, &sys, &backend, 1).unwrap();
        assert_eq!(des.timeline.len(), program.phases.len());
        // Timeline is monotone.
        assert!(des.timeline.windows(2).all(|w| w[0].at <= w[1].at));
        // One event per DPU per compute phase plus one per collective.
        assert_eq!(des.events, 3 * 256 + 3);
    }

    #[test]
    fn seeds_change_the_tail_but_not_the_structure() {
        let sys = SystemConfig::paper();
        let backend = PimnetBackend::paper();
        let program = Mlp::new(512).program(&sys);
        let a = run_program_des(&program, &sys, &backend, 1).unwrap();
        let b = run_program_des(&program, &sys, &backend, 2).unwrap();
        assert_ne!(a.end, b.end);
        assert_eq!(a.timeline.len(), b.timeline.len());
        // Determinism: same seed, same result.
        let a2 = run_program_des(&program, &sys, &backend, 1).unwrap();
        assert_eq!(a, a2);
    }
}
