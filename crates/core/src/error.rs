//! Error type for the PIMnet public API.

use std::error::Error;
use std::fmt;

use pim_arch::geometry::PimGeometry;

use crate::collective::CollectiveKind;

/// Errors returned by PIMnet's public API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PimnetError {
    /// The requested collective is not supported by the selected backend
    /// (e.g., NDPBridge has no in-network reduction, so no AllReduce).
    UnsupportedCollective {
        /// The collective that was requested.
        kind: CollectiveKind,
        /// The backend that rejected it.
        backend: &'static str,
    },
    /// The geometry violates a requirement of the schedule builder (e.g.,
    /// All-to-All pairwise exchange needs power-of-two dimensions).
    InvalidGeometry {
        /// The offending geometry.
        geometry: PimGeometry,
        /// Why it was rejected.
        reason: String,
    },
    /// The message is malformed for the collective (e.g., zero element size).
    InvalidMessage {
        /// Why it was rejected.
        reason: String,
    },
    /// A schedule failed static validation — this indicates a bug in a
    /// schedule builder and is surfaced rather than silently mistimed.
    ScheduleInvalid {
        /// Validator diagnostic.
        reason: String,
    },
    /// A transfer stayed corrupted through its whole bounded-retry budget
    /// (every attempt failed its CRC check).
    TransferFailed {
        /// Phase index within the schedule.
        phase: usize,
        /// Step index within the phase.
        step: usize,
        /// Transfer index within the step.
        transfer: usize,
        /// Attempts made (the original send plus every retry), saturating
        /// at `u32::MAX`.
        attempts: u32,
    },
    /// The READY/START barrier did not close before the watchdog fired —
    /// either participants are hard-dead and will never raise READY, or a
    /// straggler overran the timeout.
    SyncTimeout {
        /// Watchdog timeout that expired, in nanoseconds.
        timeout_ns: u64,
        /// Participants that never raised READY (empty when a straggler,
        /// rather than a dead node, blew the deadline).
        missing: Vec<u32>,
    },
    /// The collective's plan names a hard-dead DPU; the schedule must be
    /// rebuilt around it (see `resilience`).
    DeadDpu {
        /// The dead participant.
        dpu: u32,
    },
    /// A rank's DQ lanes are permanently dead, so every DPU on it is
    /// unreachable; the plan must exclude the whole rank.
    DeadRank {
        /// The dead rank (within its channel).
        rank: u32,
    },
    /// A permanent fabric fault leaves part of the schedule with no
    /// surviving route — repair cannot preserve the full participant set
    /// and the plan must degrade further down the ladder.
    Unroutable {
        /// What could not be routed around, and why.
        reason: String,
    },
    /// A cycle-level simulation hit its deadlock guard: traffic stopped
    /// making progress before every packet was delivered (e.g. a fault
    /// scenario wedged the flow control). Surfaced as a typed error on
    /// fault paths instead of a panic, so chaos harnesses can count it.
    SimulationStalled {
        /// Cycle count at which the guard fired.
        cycles: u64,
        /// Packets still undelivered.
        remaining: usize,
    },
    /// The serving engine refused to enqueue a request: the tenant's
    /// bounded queue was full, its token bucket was empty, or the
    /// overload ladder / quarantine policy is shedding its class.
    /// Backpressure is explicit — requests are rejected with this typed
    /// error rather than queued forever.
    AdmissionRejected {
        /// The tenant whose request was turned away.
        tenant: u32,
        /// Why admission control said no.
        reason: String,
    },
    /// A queued request's deadline passed before (or while) it could be
    /// dispatched; the serving engine sheds it rather than serving a
    /// result nobody is waiting for.
    DeadlineExceeded {
        /// The tenant whose request slipped its deadline.
        tenant: u32,
        /// The absolute deadline, integer picoseconds on the serve clock.
        deadline_ps: u64,
        /// The serve-clock time at which the slip was detected.
        now_ps: u64,
    },
}

impl fmt::Display for PimnetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PimnetError::UnsupportedCollective { kind, backend } => {
                write!(f, "collective {kind} is not supported by backend {backend}")
            }
            PimnetError::InvalidGeometry { geometry, reason } => {
                write!(f, "invalid geometry {geometry}: {reason}")
            }
            PimnetError::InvalidMessage { reason } => {
                write!(f, "invalid message: {reason}")
            }
            PimnetError::ScheduleInvalid { reason } => {
                write!(f, "schedule failed validation: {reason}")
            }
            PimnetError::TransferFailed {
                phase,
                step,
                transfer,
                attempts,
            } => {
                write!(
                    f,
                    "transfer {transfer} of phase {phase} step {step} failed \
                     CRC on all {attempts} attempts"
                )
            }
            PimnetError::SyncTimeout {
                timeout_ns,
                missing,
            } => {
                if missing.is_empty() {
                    write!(f, "READY/START barrier timed out after {timeout_ns} ns")
                } else {
                    write!(
                        f,
                        "READY/START barrier timed out after {timeout_ns} ns; \
                         {} participant(s) never raised READY: {missing:?}",
                        missing.len()
                    )
                }
            }
            PimnetError::DeadDpu { dpu } => {
                write!(f, "collective plan includes hard-dead DPU{dpu}")
            }
            PimnetError::DeadRank { rank } => {
                write!(f, "rank {rank}'s DQ lanes are permanently dead")
            }
            PimnetError::Unroutable { reason } => {
                write!(f, "permanent fault leaves no surviving route: {reason}")
            }
            PimnetError::SimulationStalled { cycles, remaining } => {
                write!(
                    f,
                    "simulation stalled after {cycles} cycles with {remaining} \
                     packet(s) undelivered"
                )
            }
            PimnetError::AdmissionRejected { tenant, reason } => {
                write!(f, "tenant {tenant} request rejected at admission: {reason}")
            }
            PimnetError::DeadlineExceeded {
                tenant,
                deadline_ps,
                now_ps,
            } => {
                write!(
                    f,
                    "tenant {tenant} request shed: deadline {deadline_ps} ps \
                     passed at {now_ps} ps"
                )
            }
        }
    }
}

impl Error for PimnetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_complete() {
        let e = PimnetError::UnsupportedCollective {
            kind: CollectiveKind::AllReduce,
            backend: "ndp-bridge",
        };
        assert_eq!(
            e.to_string(),
            "collective AllReduce is not supported by backend ndp-bridge"
        );

        let e = PimnetError::InvalidMessage {
            reason: "zero element size".into(),
        };
        assert!(e.to_string().contains("zero element size"));

        let e = PimnetError::AdmissionRejected {
            tenant: 3,
            reason: "queue full (cap 8)".into(),
        };
        assert_eq!(
            e.to_string(),
            "tenant 3 request rejected at admission: queue full (cap 8)"
        );

        let e = PimnetError::DeadlineExceeded {
            tenant: 1,
            deadline_ps: 5_000,
            now_ps: 7_500,
        };
        assert_eq!(
            e.to_string(),
            "tenant 1 request shed: deadline 5000 ps passed at 7500 ps"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PimnetError>();
    }
}
