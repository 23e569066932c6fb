//! The fault decision oracle.
//!
//! Every method is a pure function of `(config.seed, event coordinates)`:
//! the injector holds no mutable state, so consumers may query it in any
//! order — per-transfer in schedule order, per-packet in simulation order,
//! or in parallel — and always see the same fault pattern for a seed.

use pim_sim::rng::hash_coords;

use crate::config::FaultConfig;

/// Domain-separation tags so the same coordinates never collide across
/// fault classes.
const TAG_TRANSIENT: u64 = 0x7472_616E; // "tran"
const TAG_STRAGGLER: u64 = 0x7374_7261; // "stra"
const TAG_FLIP: u64 = 0x666C_6970; // "flip"
const TAG_TIMED: u64 = 0x746D_6564; // "tmed"

/// Converts a hash to a uniform probability in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Stateless fault oracle over a [`FaultConfig`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    cfg: FaultConfig,
}

impl FaultInjector {
    /// Wraps a configuration.
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector { cfg }
    }

    /// The fault-free injector (nothing ever fires).
    #[must_use]
    pub fn none() -> Self {
        FaultInjector::new(FaultConfig::none())
    }

    /// The underlying configuration.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// `true` if any fault class can fire. The fault-free fast paths key
    /// off this.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    /// Is this DPU hard-dead (never raises READY, never transfers)?
    #[must_use]
    pub fn is_dead(&self, dpu: u32) -> bool {
        self.cfg.dead_dpus.binary_search(&dpu).is_ok()
    }

    /// `true` if this scenario names or can sample permanent fabric
    /// faults, so planners must consult [`permanent_faults`](Self::permanent_faults).
    #[must_use]
    pub fn has_permanent_faults(&self) -> bool {
        self.cfg.has_permanent_faults()
    }

    /// The permanent-fault scenario for a fabric of `ranks` × `chips` ×
    /// `banks` (one channel): the config's explicitly named components
    /// merged with the components sampled from the seed at the configured
    /// rates. Pure in `(seed, dims)` — call it as often as you like.
    #[must_use]
    pub fn permanent_faults(
        &self,
        ranks: u32,
        chips: u32,
        banks: u32,
    ) -> crate::permanent::PermanentFaultSet {
        let mut set = crate::permanent::PermanentFaultSet::sample(
            self.cfg.seed,
            ranks,
            chips,
            banks,
            &self.cfg.perm_rates,
        );
        set.merge(&self.cfg.permanent);
        set
    }

    /// Does attempt `attempt` of transfer `(phase, step, transfer)` get
    /// corrupted on the wire (and caught by the CRC)?
    #[must_use]
    pub fn transient_corrupts(&self, phase: u64, step: u64, transfer: u64, attempt: u32) -> bool {
        if self.cfg.transient_ber <= 0.0 {
            return false;
        }
        let h = hash_coords(
            self.cfg.seed,
            &[TAG_TRANSIENT, phase, step, transfer, u64::from(attempt)],
        );
        unit(h) < self.cfg.transient_ber
    }

    /// Which bit of an `n_bytes`-byte wire image flips when
    /// [`transient_corrupts`](Self::transient_corrupts) fires. Returns
    /// `(byte_index, bit_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `n_bytes` is zero.
    #[must_use]
    pub fn flip_position(
        &self,
        phase: u64,
        step: u64,
        transfer: u64,
        attempt: u32,
        n_bytes: usize,
    ) -> (usize, u32) {
        assert!(n_bytes > 0, "flip_position: empty payload");
        let h = hash_coords(
            self.cfg.seed,
            &[TAG_FLIP, phase, step, transfer, u64::from(attempt)],
        );
        ((h as usize >> 3) % n_bytes, (h & 0x7) as u32)
    }

    /// Number of corrupted attempts before transfer `(phase, step,
    /// transfer)` goes through clean, capped at the retry budget.
    ///
    /// Returns `None` if every allowed attempt (the original plus
    /// `max_retries` re-sends) is corrupted — the transfer fails. A
    /// transfer that [always corrupts](Self::always_corrupts) fails
    /// without walking its budget.
    #[must_use]
    pub fn attempts_before_success(&self, phase: u64, step: u64, transfer: u64) -> Option<u32> {
        if self.always_corrupts() {
            return None;
        }
        (0..=self.cfg.max_retries)
            .find(|&attempt| !self.transient_corrupts(phase, step, transfer, attempt))
    }

    /// Attempts a failed transfer made: the original send plus
    /// `max_retries` re-sends, saturating at `u32::MAX`. Every retry
    /// walker reports this as `TransferFailed::attempts`.
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.cfg.max_retries.saturating_add(1)
    }

    /// `true` when [`transient_corrupts`](Self::transient_corrupts) holds
    /// for every attempt of every transfer: a draw corrupts when
    /// `unit(h) < ber`, and `unit` stays below 1, so a BER of at least 1
    /// corrupts every draw. Retry walkers fail a non-empty transfer
    /// outright instead of drawing `max_retries + 1` times.
    #[must_use]
    pub fn always_corrupts(&self) -> bool {
        self.cfg.transient_ber >= 1.0
    }

    /// [`always_corrupts`](Self::always_corrupts) for
    /// [`corrupts_at`](Self::corrupts_at): the effective BER at `t_ps` is
    /// at least 1, so every attempt of every round corrupts.
    #[must_use]
    pub fn always_corrupts_at(&self, t_ps: u64) -> bool {
        self.ber_at(t_ps) >= 1.0
    }

    /// The static `transient_ber` or the timeline's burst BER at `t_ps`,
    /// whichever is higher.
    fn ber_at(&self, t_ps: u64) -> f64 {
        match self.cfg.timeline.burst_ber(t_ps) {
            Some(b) => b.max(self.cfg.transient_ber),
            None => self.cfg.transient_ber,
        }
    }

    /// Extra nanoseconds DPU `dpu` straggles past the compute deadline for
    /// barrier `epoch` (0 for non-stragglers and dead nodes — a dead node
    /// is not *late*, it is absent, which the watchdog handles).
    #[must_use]
    pub fn straggler_delay_ns(&self, dpu: u32, epoch: u64) -> u64 {
        if self.cfg.straggler_prob <= 0.0 || self.cfg.straggler_max_ns == 0 || self.is_dead(dpu) {
            return 0;
        }
        let h = hash_coords(self.cfg.seed, &[TAG_STRAGGLER, u64::from(dpu), epoch]);
        if unit(h) >= self.cfg.straggler_prob {
            return 0;
        }
        // Reuse the decision hash's high bits for the magnitude so one
        // lookup decides both; +1 keeps the delay nonzero.
        1 + hash_coords(h, &[1]) % self.cfg.straggler_max_ns
    }

    /// The smallest delay [`straggler_delay_ns`](Self::straggler_delay_ns)
    /// draws for a live DPU at any epoch: 1 ns when a probability of at
    /// least 1 makes every DPU straggle, else 0.
    #[must_use]
    pub fn min_straggler_delay_ns(&self) -> u64 {
        u64::from(self.cfg.straggler_prob >= 1.0 && self.cfg.straggler_max_ns > 0)
    }

    /// The time-varying fault timeline (empty when the scenario is
    /// static).
    #[must_use]
    pub fn timeline(&self) -> &crate::timeline::FaultTimeline {
        &self.cfg.timeline
    }

    /// Does attempt `attempt` of transfer `(phase, step, transfer)` get
    /// corrupted at simulated instant `t_ps`, during recovery round
    /// `round`? The effective BER is the static `transient_ber` or the
    /// timeline's burst BER at `t_ps`, whichever is higher; the round
    /// coordinate makes step-level retries re-roll instead of replaying
    /// the identical corruption.
    #[must_use]
    pub fn corrupts_at(
        &self,
        t_ps: u64,
        phase: u64,
        step: u64,
        transfer: u64,
        attempt: u32,
        round: u32,
    ) -> bool {
        let ber = self.ber_at(t_ps);
        if ber <= 0.0 {
            return false;
        }
        let h = hash_coords(
            self.cfg.seed,
            &[
                TAG_TIMED,
                phase,
                step,
                transfer,
                u64::from(attempt),
                u64::from(round),
            ],
        );
        unit(h) < ber
    }

    /// Is `segment` flapped down (temporarily unusable) at `t_ps`?
    #[must_use]
    pub fn flap_down(&self, segment: crate::permanent::SegmentId, t_ps: u64) -> bool {
        self.cfg.timeline.flap_down(segment, t_ps)
    }

    /// Exponential backoff before re-send or recovery round `round`
    /// (1-based), in integer picoseconds: `backoff_base_ps << (round - 1)`,
    /// saturating at `u64::MAX` once a bit would shift out. Round 0 waits
    /// nothing.
    #[must_use]
    pub fn backoff_ps(&self, round: u32) -> u64 {
        let base = self.cfg.backoff_base_ps;
        if round == 0 || base == 0 {
            return 0;
        }
        let shift = round - 1;
        if shift > base.leading_zeros() {
            u64::MAX
        } else {
            base << shift
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(seed: u64, ber: f64) -> FaultInjector {
        FaultInjector::new(
            FaultConfig {
                transient_ber: ber,
                ..FaultConfig::none()
            }
            .with_seed(seed),
        )
    }

    #[test]
    fn decisions_are_deterministic_and_order_free() {
        let a = lossy(9, 0.3);
        let b = lossy(9, 0.3);
        // Query b in reverse order; answers must match a's.
        let fwd: Vec<bool> = (0..100).map(|i| a.transient_corrupts(1, i, 0, 0)).collect();
        let rev: Vec<bool> = (0..100)
            .rev()
            .map(|i| b.transient_corrupts(1, i, 0, 0))
            .collect();
        assert_eq!(fwd, rev.into_iter().rev().collect::<Vec<_>>());
    }

    #[test]
    fn seeds_change_the_pattern() {
        let a = lossy(1, 0.3);
        let b = lossy(2, 0.3);
        let pa: Vec<bool> = (0..200).map(|i| a.transient_corrupts(0, i, 0, 0)).collect();
        let pb: Vec<bool> = (0..200).map(|i| b.transient_corrupts(0, i, 0, 0)).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn corruption_rate_tracks_ber() {
        let inj = lossy(5, 0.2);
        let hits = (0..10_000)
            .filter(|&i| inj.transient_corrupts(0, i, 0, 0))
            .count();
        assert!((1_500..2_500).contains(&hits), "p=0.2 gave {hits}/10000");
    }

    #[test]
    fn certain_corruption_fails_without_walking_the_budget() {
        let inj = FaultInjector::new(FaultConfig {
            transient_ber: 1.0,
            max_retries: u32::MAX,
            ..FaultConfig::none()
        });
        assert!(inj.always_corrupts());
        assert_eq!(inj.attempts_before_success(0, 0, 0), None);
        assert_eq!(inj.max_attempts(), u32::MAX);
        assert!(!lossy(3, 0.999).always_corrupts());
        assert_eq!(lossy(3, 0.5).max_attempts(), 4);
    }

    #[test]
    fn zero_ber_never_fires() {
        let inj = lossy(5, 0.0);
        assert!((0..1000).all(|i| !inj.transient_corrupts(0, i, 0, 0)));
        assert_eq!(inj.attempts_before_success(0, 0, 0), Some(0));
    }

    #[test]
    fn attempts_respect_the_budget() {
        // BER 1.0: every attempt corrupted, so the transfer always fails.
        let inj = lossy(3, 1.0);
        assert_eq!(inj.attempts_before_success(0, 0, 0), None);
        // Moderate BER: success always within budget + 1 attempts.
        let inj = lossy(3, 0.4);
        for t in 0..200 {
            if let Some(a) = inj.attempts_before_success(0, 0, t) {
                assert!(a <= inj.config().max_retries);
                assert!(!inj.transient_corrupts(0, 0, t, a));
                for early in 0..a {
                    assert!(inj.transient_corrupts(0, 0, t, early));
                }
            }
        }
    }

    #[test]
    fn dead_set_is_exact() {
        let inj = FaultInjector::new(FaultConfig {
            dead_dpus: vec![2, 40, 7],
            ..FaultConfig::none()
        });
        // Note: parse() sorts, but direct construction must too for
        // binary_search. The constructor contract is "sorted"; mimic it.
        let inj = FaultInjector::new(FaultConfig {
            dead_dpus: {
                let mut d = inj.config().dead_dpus.clone();
                d.sort_unstable();
                d
            },
            ..inj.config().clone()
        });
        assert!(inj.is_dead(2) && inj.is_dead(7) && inj.is_dead(40));
        assert!(!inj.is_dead(0) && !inj.is_dead(41));
    }

    #[test]
    fn straggler_delays_are_bounded_and_deterministic() {
        let inj = FaultInjector::new(
            FaultConfig {
                straggler_prob: 0.5,
                straggler_max_ns: 100,
                ..FaultConfig::none()
            }
            .with_seed(11),
        );
        let mut fired = 0;
        for dpu in 0..1000 {
            let d = inj.straggler_delay_ns(dpu, 0);
            assert!(d <= 100);
            assert_eq!(d, inj.straggler_delay_ns(dpu, 0));
            if d > 0 {
                fired += 1;
            }
        }
        assert!((300..700).contains(&fired), "p=0.5 fired {fired}/1000");
        // Different epochs re-roll.
        let per_epoch: Vec<u64> = (0..8).map(|e| inj.straggler_delay_ns(7, e)).collect();
        assert!(
            per_epoch
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 1
        );
    }

    #[test]
    fn min_straggler_delay_bounds_every_draw() {
        for (prob, max_ns, min) in [(0.5, 100, 0), (1.0, 100, 1), (1.0, 0, 0), (2.0, 7, 1)] {
            let inj = FaultInjector::new(FaultConfig {
                straggler_prob: prob,
                straggler_max_ns: max_ns,
                ..FaultConfig::none()
            });
            assert_eq!(inj.min_straggler_delay_ns(), min, "p={prob} max={max_ns}");
            for (dpu, epoch) in (0..200).zip(0..) {
                assert!(inj.straggler_delay_ns(dpu, epoch) >= min);
            }
        }
    }

    #[test]
    fn backoff_is_exponential_and_saturating() {
        let inj = FaultInjector::new(FaultConfig {
            backoff_base_ps: 100,
            ..FaultConfig::none()
        });
        assert_eq!(inj.backoff_ps(0), 0);
        assert_eq!(inj.backoff_ps(1), 100);
        assert_eq!(inj.backoff_ps(2), 200);
        assert_eq!(inj.backoff_ps(3), 400);
        assert_eq!(inj.backoff_ps(200), u64::MAX);
        let default = FaultInjector::none();
        assert_eq!(default.backoff_ps(1), 100_000, "100 ns default base");
    }

    #[test]
    fn backoff_never_decreases_and_saturates() {
        for base in [1, 7, 100_000, 1 << 40, u64::MAX / 3, u64::MAX] {
            let inj = FaultInjector::new(FaultConfig {
                backoff_base_ps: base,
                ..FaultConfig::none()
            });
            let mut prev = 0;
            for round in 1..=200 {
                let b = inj.backoff_ps(round);
                assert!(b >= prev, "base {base}: round {round} gave {b} < {prev}");
                let exact = u128::from(base) << (round - 1).min(127);
                if round <= 64 && exact <= u128::from(u64::MAX) {
                    assert_eq!(u128::from(b), exact, "base {base}, round {round}");
                } else {
                    assert_eq!(b, u64::MAX, "base {base}, round {round}");
                }
                prev = b;
            }
            assert_eq!(prev, u64::MAX);
        }
        let zero = FaultInjector::new(FaultConfig {
            backoff_base_ps: 0,
            ..FaultConfig::none()
        });
        assert!((0..=200).all(|r| zero.backoff_ps(r) == 0));
    }

    #[test]
    fn timed_corruption_tracks_burst_windows() {
        use crate::timeline::{FaultTimeline, TransientBurst};
        let inj = FaultInjector::new(
            FaultConfig {
                timeline: FaultTimeline {
                    bursts: vec![TransientBurst {
                        from_ps: 1_000,
                        until_ps: 2_000,
                        ber: 1.0,
                    }],
                    ..FaultTimeline::none()
                },
                ..FaultConfig::none()
            }
            .with_seed(21),
        );
        assert!(inj.is_active(), "burst-only scenario is active");
        // Outside the window the base BER (0) applies.
        assert!((0..50).all(|t| !inj.corrupts_at(999, 0, t, 0, 0, 0)));
        assert!((0..50).all(|t| !inj.corrupts_at(2_000, 0, t, 0, 0, 0)));
        // Inside the window BER 1.0 corrupts every attempt.
        assert!((0..50).all(|t| inj.corrupts_at(1_500, 0, t, 0, 0, 0)));
        // Round coordinate re-rolls: a moderate BER must not replay the
        // same pattern across rounds.
        let inj = lossy(17, 0.5);
        let r0: Vec<bool> = (0..100)
            .map(|t| inj.corrupts_at(0, 0, t, 0, 0, 0))
            .collect();
        let r1: Vec<bool> = (0..100)
            .map(|t| inj.corrupts_at(0, 0, t, 0, 0, 1))
            .collect();
        assert_ne!(r0, r1);
    }

    #[test]
    fn flip_positions_are_in_range() {
        let inj = lossy(13, 1.0);
        for t in 0..100 {
            let (byte, bit) = inj.flip_position(0, 0, t, 0, 33);
            assert!(byte < 33);
            assert!(bit < 8);
        }
    }
}
