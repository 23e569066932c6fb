//! READY/START synchronization (paper §IV-C, Fig 5(d)).
//!
//! Before a collective begins, every participating DPU raises READY to its
//! chip's control interface; READY signals aggregate up the hierarchy
//! (chip → inter-chip switch → inter-rank switch) and a START signal
//! propagates back down. Because PIMnet's data movement is statically
//! scheduled, this is the *only* dynamic synchronization in the network;
//! the paper estimates its worst-case propagation at ≈15 ns (≈6 DPU
//! cycles).
//!
//! The model also accounts for *compute skew*: START fires only after the
//! **last** DPU is ready, so PIMnet pays `max(finish) − earliest possible
//! start`, whereas a dynamically flow-controlled network would let early
//! DPUs inject immediately (the trade-off quantified in Fig 13).

use pim_arch::geometry::{DpuId, PimGeometry};
use pim_faults::FaultInjector;
use pim_sim::trace::codes;
use pim_sim::{Probe, SimTime};

use crate::error::PimnetError;
use crate::fabric::FabricConfig;

/// How far a collective's participants extend across the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SyncScope {
    /// All participants share one DRAM chip (READY stops at the chip's
    /// control interface).
    Chip,
    /// Participants span chips of one rank (READY reaches the inter-chip
    /// switch on the buffer chip).
    Rank,
    /// Participants span ranks of one channel (READY reaches the inter-rank
    /// switch — the worst case).
    Channel,
}

impl SyncScope {
    /// Stable integer used as the `barrier` trace-event argument.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        match self {
            SyncScope::Chip => 0,
            SyncScope::Rank => 1,
            SyncScope::Channel => 2,
        }
    }

    /// The scope a geometry's collectives synchronize over: how far up the
    /// hierarchy READY must aggregate before START can fire.
    #[must_use]
    pub fn of_geometry(g: &PimGeometry) -> SyncScope {
        if g.ranks_per_channel > 1 {
            SyncScope::Channel
        } else if g.chips_per_rank > 1 {
            SyncScope::Rank
        } else {
            SyncScope::Chip
        }
    }
}

/// Timing model of the READY/START barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SyncModel {
    /// One-way worst-case propagation across the whole PIMnet (channel
    /// scope); narrower scopes pay a proportional fraction.
    pub propagation: SimTime,
}

impl SyncModel {
    /// Builds the model from a fabric configuration (15 ns worst case in
    /// the paper).
    #[must_use]
    pub fn from_fabric(fabric: &FabricConfig) -> Self {
        SyncModel {
            propagation: fabric.sync_propagation,
        }
    }

    /// One-way READY aggregation latency for a scope.
    #[must_use]
    pub fn one_way(&self, scope: SyncScope) -> SimTime {
        // READY crosses: bank->chip control (1/3 of the way), chip->buffer
        // chip (2/3), buffer->inter-rank switch (full path).
        match scope {
            SyncScope::Chip => self.propagation / 3,
            SyncScope::Rank => (self.propagation * 2) / 3,
            SyncScope::Channel => self.propagation,
        }
    }

    /// Full barrier cost: READY up, START down, plus the compute `skew`
    /// (time between the first and last participant becoming ready).
    #[must_use]
    pub fn barrier(&self, scope: SyncScope, skew: SimTime) -> SimTime {
        self.one_way(scope) * 2 + skew
    }

    /// Records an already-computed barrier of `cost` (used by the timeline
    /// builder and the scheduled NoC playback, which price the barrier
    /// themselves): a `barrier` span starting at simulated time zero.
    pub fn record_barrier(&self, scope: SyncScope, cost: SimTime, skew: SimTime, probe: &Probe) {
        if !probe.is_active() {
            return;
        }
        probe.trace.span(
            SimTime::ZERO,
            cost,
            codes::BARRIER,
            [scope.as_u64(), skew.as_ps(), 0, 0],
        );
        probe.metrics.barrier(cost.as_ps());
    }

    /// Control-plane cost of a schedule repair that inserted
    /// `extra_steps` serialization steps.
    ///
    /// Every inserted step adds one WAIT-counter boundary the chip
    /// control interface must sequence — one extra chip-scope one-way
    /// control propagation per step. Repairs that only reroute or borrow
    /// ports (no new steps) cost nothing here; their price is carried by
    /// the data path (longer routes, doubled occupancy).
    #[must_use]
    pub fn repair_overhead(&self, extra_steps: usize) -> SimTime {
        self.one_way(SyncScope::Chip) * extra_steps as u64
    }

    /// The barrier under a fault scenario, guarded by a watchdog.
    ///
    /// Stragglers stretch the effective skew (START fires only after the
    /// *last* participant raises READY); hard-dead participants never
    /// raise READY at all, so the watchdog is the only way out. `epoch`
    /// identifies the barrier instance so each collective re-rolls its
    /// stragglers.
    ///
    /// On success, `probe` receives one `straggler` instant per delayed
    /// participant (in participant order) and the `barrier` span; nothing
    /// is recorded on the error path.
    ///
    /// # Errors
    ///
    /// [`PimnetError::SyncTimeout`] when a dead participant means the
    /// barrier can never close, or when the straggler-stretched skew
    /// overruns the configured watchdog timeout.
    pub fn barrier_with_faults(
        &self,
        scope: SyncScope,
        skew: SimTime,
        participants: impl Iterator<Item = DpuId>,
        injector: &FaultInjector,
        epoch: u64,
        probe: &Probe,
    ) -> Result<SimTime, PimnetError> {
        if !injector.is_active() {
            let total = self.barrier(scope, skew);
            self.record_barrier(scope, total, skew, probe);
            return Ok(total);
        }
        let watchdog = SimTime::from_ps(injector.config().watchdog_ps);
        let timeout_ns = watchdog.as_ps() / 1_000;
        let mut missing = Vec::new();
        let mut straggle_ns = 0u64;
        let mut stragglers = Vec::new();
        for id in participants {
            if injector.is_dead(id.0) {
                missing.push(id.0);
                continue;
            }
            let delay_ns = injector.straggler_delay_ns(id.0, epoch);
            straggle_ns = straggle_ns.max(delay_ns);
            if delay_ns > 0 && probe.is_active() {
                stragglers.push((id, delay_ns));
            }
        }
        if !missing.is_empty() {
            return Err(PimnetError::SyncTimeout {
                timeout_ns,
                missing,
            });
        }
        let total = self.barrier(scope, skew + SimTime::from_ns(straggle_ns));
        if total > watchdog {
            return Err(PimnetError::SyncTimeout {
                timeout_ns,
                missing: Vec::new(),
            });
        }
        for (id, delay_ns) in stragglers {
            probe.trace.instant(
                SimTime::ZERO,
                codes::STRAGGLER,
                [u64::from(id.0), delay_ns, 0, 0],
            );
            probe.metrics.straggler(delay_ns);
        }
        self.record_barrier(scope, total, skew, probe);
        Ok(total)
    }
}

impl Default for SyncModel {
    fn default() -> Self {
        SyncModel::from_fabric(&FabricConfig::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The faulty barrier of 8 chip-scope participants at epoch 0.
    fn chip_barrier(m: &SyncModel, inj: &FaultInjector) -> Result<SimTime, PimnetError> {
        m.barrier_with_faults(
            SyncScope::Chip,
            SimTime::ZERO,
            (0..8).map(DpuId),
            inj,
            0,
            Probe::disabled(),
        )
    }

    #[test]
    fn channel_scope_is_the_paper_worst_case() {
        let m = SyncModel::default();
        assert_eq!(m.one_way(SyncScope::Channel), SimTime::from_ns(15));
        // Barrier with no skew: 30 ns round trip.
        assert_eq!(
            m.barrier(SyncScope::Channel, SimTime::ZERO),
            SimTime::from_ns(30)
        );
    }

    #[test]
    fn narrower_scopes_are_cheaper() {
        let m = SyncModel::default();
        assert!(m.one_way(SyncScope::Chip) < m.one_way(SyncScope::Rank));
        assert!(m.one_way(SyncScope::Rank) < m.one_way(SyncScope::Channel));
    }

    #[test]
    fn skew_adds_linearly() {
        let m = SyncModel::default();
        let skew = SimTime::from_us(3);
        assert_eq!(
            m.barrier(SyncScope::Chip, skew),
            m.barrier(SyncScope::Chip, SimTime::ZERO) + skew
        );
    }

    #[test]
    fn faulty_barrier_matches_clean_when_inactive() {
        use pim_faults::FaultInjector;
        let m = SyncModel::default();
        let ids = (0..8).map(DpuId);
        let t = m
            .barrier_with_faults(
                SyncScope::Chip,
                SimTime::ZERO,
                ids,
                &FaultInjector::none(),
                0,
                Probe::disabled(),
            )
            .unwrap();
        assert_eq!(t, m.barrier(SyncScope::Chip, SimTime::ZERO));
    }

    #[test]
    fn stragglers_stretch_the_barrier() {
        use pim_faults::{FaultConfig, FaultInjector};
        let m = SyncModel::default();
        let inj = FaultInjector::new(
            FaultConfig {
                straggler_prob: 1.0,
                straggler_max_ns: 500,
                ..FaultConfig::none()
            }
            .with_seed(4),
        );
        let clean = m.barrier(SyncScope::Chip, SimTime::ZERO);
        let faulty = chip_barrier(&m, &inj).unwrap();
        assert!(faulty > clean);
        assert!(faulty <= clean + SimTime::from_ns(500));
        // Deterministic for the seed/epoch.
        let again = chip_barrier(&m, &inj).unwrap();
        assert_eq!(faulty, again);
    }

    #[test]
    fn dead_participants_trip_the_watchdog() {
        use pim_faults::{FaultConfig, FaultInjector};
        let m = SyncModel::default();
        let inj = FaultInjector::new(FaultConfig {
            dead_dpus: vec![3, 6],
            ..FaultConfig::none()
        });
        let err = chip_barrier(&m, &inj).unwrap_err();
        match err {
            PimnetError::SyncTimeout { missing, .. } => assert_eq!(missing, vec![3, 6]),
            other => panic!("expected SyncTimeout, got {other:?}"),
        }
    }

    #[test]
    fn straggler_overrun_trips_the_watchdog_without_missing_nodes() {
        use pim_faults::{FaultConfig, FaultInjector};
        let m = SyncModel::default();
        let inj = FaultInjector::new(
            FaultConfig {
                straggler_prob: 1.0,
                straggler_max_ns: 1_000,
                watchdog_ps: 10_000, // 10 ns: tighter than any straggler
                ..FaultConfig::none()
            }
            .with_seed(4),
        );
        let err = chip_barrier(&m, &inj).unwrap_err();
        match err {
            PimnetError::SyncTimeout {
                missing,
                timeout_ns,
            } => {
                assert!(missing.is_empty());
                assert_eq!(timeout_ns, 10);
            }
            other => panic!("expected SyncTimeout, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_ps_override_tightens_the_watchdog() {
        use pim_faults::{FaultConfig, FaultInjector};
        let m = SyncModel::default();
        let base = FaultConfig {
            straggler_prob: 1.0,
            straggler_max_ns: 1_000,
            ..FaultConfig::none()
        }
        .with_seed(4);
        // Default (1 ms) watchdog: the straggler-stretched barrier closes.
        let inj = FaultInjector::new(base.clone());
        assert!(chip_barrier(&m, &inj).is_ok());
        // A 10 ns watchdog expressed in picoseconds trips it.
        let inj = FaultInjector::new(FaultConfig {
            watchdog_ps: 10_000,
            ..base
        });
        match chip_barrier(&m, &inj).unwrap_err() {
            PimnetError::SyncTimeout { timeout_ns, .. } => assert_eq!(timeout_ns, 10),
            other => panic!("expected SyncTimeout, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_compares_at_picosecond_precision() {
        use pim_faults::{FaultConfig, FaultInjector};
        let inj = |watchdog_ps| {
            FaultInjector::new(
                FaultConfig {
                    straggler_prob: 1.0,
                    straggler_max_ns: 1_000,
                    watchdog_ps,
                    ..FaultConfig::none()
                }
                .with_seed(4),
            )
        };
        // A 1.503 ns propagation puts the barrier off the nanosecond grid.
        let m = SyncModel {
            propagation: SimTime::from_ps(1_503),
        };
        let closed = chip_barrier(&m, &inj(u64::MAX)).unwrap();
        assert_ne!(closed.as_ps() % 1_000, 0);
        // A watchdog of exactly the barrier's length lets it close; one
        // picosecond less trips it, reporting the watchdog in whole ns.
        assert_eq!(chip_barrier(&m, &inj(closed.as_ps())), Ok(closed));
        match chip_barrier(&m, &inj(closed.as_ps() - 1)) {
            Err(PimnetError::SyncTimeout {
                timeout_ns,
                missing,
            }) => {
                assert!(missing.is_empty());
                assert_eq!(timeout_ns, (closed.as_ps() - 1) / 1_000);
            }
            other => panic!("expected SyncTimeout, got {other:?}"),
        }
    }

    #[test]
    fn repair_overhead_scales_with_inserted_steps() {
        let m = SyncModel::default();
        assert_eq!(m.repair_overhead(0), SimTime::ZERO);
        assert_eq!(m.repair_overhead(1), m.one_way(SyncScope::Chip));
        assert_eq!(m.repair_overhead(4), m.one_way(SyncScope::Chip) * 4);
    }

    #[test]
    fn sync_is_negligible_vs_small_collectives() {
        // §VI-B: even a 1 KB AllReduce across 256 DPUs takes >1000 DPU
        // cycles (~2.9 us); the 30 ns barrier is relatively small.
        let m = SyncModel::default();
        let barrier = m.barrier(SyncScope::Channel, SimTime::ZERO);
        assert!(barrier.as_ns() / 2_857.0 < 0.02);
    }
}
