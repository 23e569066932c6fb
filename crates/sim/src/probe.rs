//! The [`Probe`]: one handle bundling an event [`Tracer`] and a
//! [`Metrics`] sink.
//!
//! Each instrumented layer has one entry point that takes `probe: &Probe`
//! as its last argument; callers with nothing to observe pass
//! [`Probe::disabled`]. The contract every instrumented body follows:
//!
//! * the result is **bit-identical** whatever the probe — observation
//!   never perturbs the simulation;
//! * with an inactive probe, recording costs one [`Probe::is_active`]
//!   branch per record site inside the same loop;
//! * recorded events and counters are deterministic functions of the
//!   simulated inputs (no wall-clock, no worker identity, no addresses).

use crate::metrics::Metrics;
use crate::trace::Tracer;

/// A pair of sinks instrumented code records into.
#[derive(Debug)]
pub struct Probe {
    /// The structured-event sink.
    pub trace: Tracer,
    /// The typed-counter sink.
    pub metrics: Metrics,
}

/// The process-wide no-op probe (see [`Probe::disabled`]).
static DISABLED: Probe = Probe {
    trace: Tracer::disabled(),
    metrics: Metrics::disabled(),
};

impl Probe {
    /// The shared no-op probe: both sinks disabled. Callers with nothing
    /// to observe pass this, making the observation cost a single branch.
    #[must_use]
    pub fn disabled() -> &'static Probe {
        &DISABLED
    }

    /// A probe with both sinks enabled (default trace ring capacity).
    #[must_use]
    pub fn enabled() -> Probe {
        Probe {
            trace: Tracer::enabled(),
            metrics: Metrics::enabled(),
        }
    }

    /// A probe with both sinks enabled and a trace ring of `capacity`
    /// events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Probe {
        Probe {
            trace: Tracer::with_capacity(capacity),
            metrics: Metrics::enabled(),
        }
    }

    /// A probe recording only metrics (no event buffering).
    #[must_use]
    pub fn metrics_only() -> Probe {
        Probe {
            trace: Tracer::disabled(),
            metrics: Metrics::enabled(),
        }
    }

    /// Whether any sink records: instrumented code skips its recording
    /// work when this is `false`.
    #[inline]
    #[must_use]
    pub const fn is_active(&self) -> bool {
        self.trace.is_enabled() || self.metrics.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsReport;

    #[test]
    fn disabled_probe_is_inert_and_shared() {
        let p = Probe::disabled();
        assert!(!p.is_active());
        p.metrics.barrier(10);
        p.trace
            .instant(crate::SimTime::ZERO, crate::trace::codes::BARRIER, [0; 4]);
        assert_eq!(p.metrics.snapshot(), MetricsReport::new());
        assert!(p.trace.is_empty());
        assert!(std::ptr::eq(Probe::disabled(), Probe::disabled()));
    }

    #[test]
    fn enabled_probe_records_both_sinks() {
        let p = Probe::enabled();
        assert!(p.is_active());
        p.metrics.cache_miss();
        p.trace.instant(
            crate::SimTime::ZERO,
            crate::trace::codes::CACHE_MISS,
            [0; 4],
        );
        assert_eq!(p.metrics.snapshot().cache_misses, 1);
        assert_eq!(p.trace.len(), 1);
    }

    #[test]
    fn metrics_only_probe_is_active_but_traceless() {
        let p = Probe::metrics_only();
        assert!(p.is_active());
        p.trace
            .instant(crate::SimTime::ZERO, crate::trace::codes::BARRIER, [0; 4]);
        p.metrics.barrier(7);
        assert!(p.trace.is_empty());
        assert_eq!(p.metrics.snapshot().barriers, 1);
    }
}
