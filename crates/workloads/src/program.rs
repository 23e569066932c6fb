//! Workload programs: alternating compute and collective phases, and the
//! runner that times them on a system + backend pair.

use std::fmt;

use pim_sim::{Bytes, Probe, SimTime};

use pim_arch::{OpCounts, SystemConfig};
use pimnet::backends::CollectiveBackend;
use pimnet::collective::{CollectiveKind, CollectiveSpec};
use pimnet::timing::CommBreakdown;
use pimnet::PimnetError;

/// One phase of a workload's execution on the PIM side.
#[derive(Debug, Clone, PartialEq)]
pub enum Phase {
    /// Every DPU runs a kernel with (mean) per-DPU instruction counts;
    /// `imbalance` is the fractional spread between the mean and the
    /// slowest DPU, which the next collective pays as synchronization skew.
    Compute {
        /// Mean per-DPU instruction counts.
        per_dpu: OpCounts,
        /// `(max − mean) / mean` finish-time spread across DPUs.
        imbalance: f64,
    },
    /// A collective over all DPUs of the channel.
    Collective {
        /// Which collective.
        kind: CollectiveKind,
        /// Payload per DPU.
        bytes_per_dpu: Bytes,
        /// Element width in bytes.
        elem_bytes: u32,
    },
}

impl Phase {
    /// A compute phase with the suite's default 5 % imbalance.
    #[must_use]
    pub fn compute(per_dpu: OpCounts) -> Self {
        Phase::Compute {
            per_dpu,
            imbalance: 0.05,
        }
    }

    /// A collective phase with 4-byte elements.
    #[must_use]
    pub fn collective(kind: CollectiveKind, bytes_per_dpu: Bytes) -> Self {
        Phase::Collective {
            kind,
            bytes_per_dpu,
            elem_bytes: 4,
        }
    }
}

/// A compiled workload: the phase sequence one end-to-end run executes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Phases, in execution order.
    pub phases: Vec<Phase>,
}

impl Program {
    /// Creates a program from phases.
    #[must_use]
    pub fn new(phases: Vec<Phase>) -> Self {
        Program { phases }
    }

    /// The distinct collective kinds this program uses.
    #[must_use]
    pub fn collective_kinds(&self) -> Vec<CollectiveKind> {
        let mut kinds: Vec<CollectiveKind> = self
            .phases
            .iter()
            .filter_map(|p| match p {
                Phase::Collective { kind, .. } => Some(*kind),
                Phase::Compute { .. } => None,
            })
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        kinds
    }

    /// Total bytes per DPU sent through collectives.
    #[must_use]
    pub fn total_collective_bytes(&self) -> Bytes {
        self.phases
            .iter()
            .map(|p| match p {
                Phase::Collective { bytes_per_dpu, .. } => *bytes_per_dpu,
                Phase::Compute { .. } => Bytes::ZERO,
            })
            .sum()
    }
}

/// A workload that can compile itself for a system.
pub trait Workload {
    /// Stable display name (matches the paper's Fig 10 labels).
    fn name(&self) -> &str;

    /// The dominant collective (the paper's Table VII "Comm." column).
    fn comm_pattern(&self) -> CollectiveKind;

    /// Compiles the workload for a system (geometry-aware partitioning).
    fn program(&self, system: &SystemConfig) -> Program;
}

/// Timing outcome of one program on one backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutionReport {
    /// Total DPU compute time (identical across backends).
    pub compute: SimTime,
    /// Accumulated communication breakdown.
    pub comm: CommBreakdown,
    /// Number of phases executed.
    pub phases: usize,
}

impl ExecutionReport {
    /// End-to-end execution time.
    #[must_use]
    pub fn total(&self) -> SimTime {
        self.compute + self.comm.total()
    }

    /// Fraction of time spent communicating (the paper quotes e.g. 83 %
    /// for CC on the baseline).
    #[must_use]
    pub fn comm_fraction(&self) -> f64 {
        self.comm.total().ratio(self.total())
    }
}

impl fmt::Display for ExecutionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {} (compute {}, comm {} = {:.1}%)",
            self.total(),
            self.compute,
            self.comm.total(),
            self.comm_fraction() * 100.0
        )
    }
}

/// Times a program on a system with one collective backend.
///
/// Compute phases go through the DPU model; each collective inherits the
/// preceding compute phase's imbalance as synchronization skew. Each
/// collective phase's [`CommBreakdown`] lands in `probe`'s metrics sink —
/// per-tier communication time plus the sync / memory-staging / host
/// buckets — so figure generators can source their columns from one
/// [`pim_sim::MetricsReport`] instead of hand-rolled accumulators.
///
/// # Errors
///
/// Propagates backend errors (e.g., unsupported collectives).
pub fn run_program(
    program: &Program,
    system: &SystemConfig,
    backend: &dyn CollectiveBackend,
    probe: &Probe,
) -> Result<ExecutionReport, PimnetError> {
    let mut report = ExecutionReport::default();
    let mut pending_skew = SimTime::ZERO;
    for phase in &program.phases {
        report.phases += 1;
        match phase {
            Phase::Compute { per_dpu, imbalance } => {
                // Every backend waits for the slowest DPU before it can
                // communicate, so the straggler time is compute, not
                // synchronization; only residual jitter (the spread right
                // at the barrier, ~10% of the imbalance) lands in the
                // collective's sync bucket.
                let mean = system.dpu.compute_time(per_dpu);
                let max = SimTime::from_secs_f64(mean.as_secs_f64() * (1.0 + imbalance));
                report.compute += max;
                pending_skew = SimTime::from_secs_f64(mean.as_secs_f64() * imbalance * 0.1);
            }
            Phase::Collective {
                kind,
                bytes_per_dpu,
                elem_bytes,
            } => {
                let spec = CollectiveSpec::new(*kind, *bytes_per_dpu)
                    .with_elem_bytes(*elem_bytes)
                    .with_skew(pending_skew);
                let comm = backend.collective(&spec)?;
                if probe.is_active() {
                    probe.metrics.comm_time(1, comm.inter_bank.as_ps());
                    probe.metrics.comm_time(2, comm.inter_chip.as_ps());
                    probe.metrics.comm_time(3, comm.inter_rank.as_ps());
                    probe.metrics.program_time(
                        comm.sync.as_ps(),
                        comm.mem.as_ps(),
                        comm.host.as_ps(),
                    );
                }
                report.comm = report.comm + comm;
                pending_skew = SimTime::ZERO;
            }
        }
    }
    if probe.is_active() {
        probe.metrics.wall(report.total().as_ps());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::Mlp;
    use pim_sim::SimRng;
    use pimnet::backends::{BaselineHostBackend, PimnetBackend};

    fn toy_program() -> Program {
        Program::new(vec![
            Phase::compute(OpCounts::new().with_adds(100_000).with_muls(10_000)),
            Phase::collective(CollectiveKind::AllReduce, Bytes::kib(8)),
            Phase::compute(OpCounts::new().with_adds(50_000)),
            Phase::collective(CollectiveKind::ReduceScatter, Bytes::kib(4)),
        ])
    }

    #[test]
    fn compute_is_backend_invariant() {
        let sys = SystemConfig::paper();
        let p = toy_program();
        let a = run_program(&p, &sys, &PimnetBackend::paper(), Probe::disabled()).unwrap();
        let b = run_program(&p, &sys, &BaselineHostBackend::new(sys), Probe::disabled()).unwrap();
        assert_eq!(a.compute, b.compute);
        assert!(a.comm.total() < b.comm.total());
    }

    #[test]
    fn skew_feeds_the_following_collective() {
        let sys = SystemConfig::paper();
        let heavy = Program::new(vec![
            Phase::Compute {
                per_dpu: OpCounts::new().with_muls(10_000_000),
                imbalance: 0.5,
            },
            Phase::collective(CollectiveKind::AllReduce, Bytes::kib(1)),
        ]);
        let light = Program::new(vec![
            Phase::Compute {
                per_dpu: OpCounts::new().with_muls(10_000_000),
                imbalance: 0.0,
            },
            Phase::collective(CollectiveKind::AllReduce, Bytes::kib(1)),
        ]);
        let h = run_program(&heavy, &sys, &PimnetBackend::paper(), Probe::disabled()).unwrap();
        let l = run_program(&light, &sys, &PimnetBackend::paper(), Probe::disabled()).unwrap();
        // Residual jitter feeds the barrier; the straggler tail itself is
        // accounted as compute (every backend waits for the slowest DPU).
        assert!(h.comm.sync > l.comm.sync);
        assert!(h.compute > l.compute);
    }

    #[test]
    fn report_accounting() {
        let sys = SystemConfig::paper();
        let r = run_program(
            &toy_program(),
            &sys,
            &PimnetBackend::paper(),
            Probe::disabled(),
        )
        .unwrap();
        assert_eq!(r.phases, 4);
        assert!(r.total() >= r.compute);
        assert!((0.0..=1.0).contains(&r.comm_fraction()));
        assert!(r.to_string().contains("comm"));
    }

    /// Plays `program` with every DPU's compute time drawn (seeded)
    /// uniformly from `mean × [1 − imbalance, 1 + imbalance]`: a compute
    /// phase ends when its slowest DPU does, and a collective then runs
    /// at the backend's skew-free price.
    fn sampled_end(
        program: &Program,
        system: &SystemConfig,
        backend: &dyn CollectiveBackend,
        seed: u64,
    ) -> SimTime {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut cursor = SimTime::ZERO;
        for phase in &program.phases {
            match phase {
                Phase::Compute { per_dpu, imbalance } => {
                    let mean = system.dpu.compute_time(per_dpu).as_secs_f64();
                    let mut last = cursor;
                    for _ in 0..system.geometry.dpus_per_channel() {
                        let f = 1.0 + rng.gen_range(-*imbalance..=*imbalance);
                        last = last.max(cursor + SimTime::from_secs_f64(mean * f));
                    }
                    cursor = last;
                }
                Phase::Collective {
                    kind,
                    bytes_per_dpu,
                    elem_bytes,
                } => {
                    let spec =
                        CollectiveSpec::new(*kind, *bytes_per_dpu).with_elem_bytes(*elem_bytes);
                    cursor += backend.collective(&spec).unwrap().total();
                }
            }
        }
        cursor
    }

    #[test]
    fn imbalance_model_matches_sampled_completions() {
        let sys = SystemConfig::paper();
        let backend = PimnetBackend::paper();
        let program = Mlp::new(1024).program(&sys);
        let model = run_program(&program, &sys, &backend, Probe::disabled())
            .unwrap()
            .total();
        let sampled = sampled_end(&program, &sys, &backend, 7);
        let ratio = sampled.ratio(model);
        // The model charges the *max* of the imbalance band; a sampled run
        // lands at or below it, and never under the mean.
        assert!(
            (0.9..=1.02).contains(&ratio),
            "sampled {sampled} vs model {model} (ratio {ratio:.3})"
        );
    }

    #[test]
    fn program_introspection() {
        let p = toy_program();
        assert_eq!(
            p.collective_kinds(),
            vec![CollectiveKind::ReduceScatter, CollectiveKind::AllReduce]
        );
        assert_eq!(p.total_collective_bytes(), Bytes::kib(12));
    }
}
