//! Fault-model configuration, including the `key = value` file format the
//! CLI's `--fault-config` flag reads.

use std::fmt;
use std::path::Path;

use crate::permanent::{PermanentFaultRates, PermanentFaultSet};
use crate::timeline::FaultTimeline;

/// Complete description of a fault scenario.
///
/// The default ([`FaultConfig::none`]) injects nothing; every consumer is
/// required to keep that path byte-identical to the fault-unaware code.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Master seed; every fault decision hashes this with the event's
    /// coordinates.
    pub seed: u64,
    /// Probability that one transfer *attempt* is corrupted on the wire
    /// and caught by the per-transfer CRC (per step-transfer, per attempt).
    pub transient_ber: f64,
    /// Probability that a DPU straggles into a given READY/START barrier.
    pub straggler_prob: f64,
    /// Worst-case extra compute time of a straggler, in nanoseconds; the
    /// actual delay is drawn uniformly from `1..=straggler_max_ns`.
    pub straggler_max_ns: u64,
    /// Hard-dead DPUs (never raise READY, never source or sink a
    /// transfer). Sorted, deduplicated on parse.
    pub dead_dpus: Vec<u32>,
    /// Bounded retry budget: attempt 0 plus `max_retries` re-sends per
    /// transfer before the step is declared failed, and the recovery
    /// manager's retry rounds per step or barrier.
    pub max_retries: u32,
    /// Base retry backoff in integer picoseconds; re-send (or recovery
    /// round) `k` waits `backoff_base_ps << (k - 1)`, saturating (see
    /// `FaultInjector::backoff_ps`).
    pub backoff_base_ps: u64,
    /// READY/START watchdog in integer picoseconds: if the barrier has not
    /// closed after this long (dead participant, straggler overrun), the
    /// collective aborts with `SyncTimeout` instead of hanging.
    pub watchdog_ps: u64,
    /// Explicitly named permanent fabric faults (dead ring segments,
    /// crossbar ports, ranks). Schedule *repair*, not retry, handles these.
    pub permanent: PermanentFaultSet,
    /// Seeded permanent-fault rates; sampled components are merged with the
    /// explicit set per fabric geometry (see `FaultInjector::permanent_faults`).
    pub perm_rates: PermanentFaultRates,
    /// Time-stamped fault events (permanent-fault arrivals, link flaps,
    /// transient bursts). The *recovery manager*, not the planner, absorbs
    /// these: arrivals invalidate schedules mid-run, flaps fail transfers
    /// during their window, bursts elevate the effective BER.
    pub timeline: FaultTimeline,
}

impl FaultConfig {
    /// The fault-free configuration: nothing injected, generous budgets.
    #[must_use]
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            transient_ber: 0.0,
            straggler_prob: 0.0,
            straggler_max_ns: 0,
            dead_dpus: Vec::new(),
            max_retries: 3,
            backoff_base_ps: 100_000,   // 100 ns
            watchdog_ps: 1_000_000_000, // 1 ms
            permanent: PermanentFaultSet::none(),
            perm_rates: PermanentFaultRates::default(),
            timeline: FaultTimeline::none(),
        }
    }

    /// Returns the same config with a different master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// `true` if this scenario can inject anything at all. Consumers use
    /// this to take the zero-overhead fault-free path.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.transient_ber > 0.0
            || (self.straggler_prob > 0.0 && self.straggler_max_ns > 0)
            || !self.dead_dpus.is_empty()
            || self.has_permanent_faults()
            || !self.timeline.is_empty()
    }

    /// `true` if this scenario names or can sample permanent fabric faults
    /// (so the planner must consult the repair path).
    #[must_use]
    pub fn has_permanent_faults(&self) -> bool {
        !self.permanent.is_empty() || self.perm_rates.is_active()
    }

    /// Parses the `key = value` file format (see [`FaultConfig::parse`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the file on I/O failure, or the offending
    /// line on parse failure.
    pub fn from_file(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read fault config {}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses a fault scenario from `key = value` lines.
    ///
    /// Blank lines and `#` comments are ignored. Recognized keys match the
    /// struct fields; `dead_dpus` is a comma-separated id list:
    ///
    /// ```text
    /// # one flipped bit per ~100 transfers, two dead nodes
    /// seed = 42
    /// transient_ber = 0.01
    /// straggler_prob = 0.05
    /// straggler_max_ns = 2000
    /// dead_dpus = 3, 17
    /// # budgets: retries per transfer, backoff base and barrier watchdog
    /// max_retries = 3
    /// backoff_base_ps = 100000
    /// watchdog_ps = 1000000000
    /// # permanent fabric faults: explicit components and/or seeded rates
    /// perm_segments = r0c1b3E, r0c2b0W
    /// perm_ports = r0c1tx
    /// perm_ranks = 2
    /// perm_segment_prob = 0.0
    /// perm_port_prob = 0.0
    /// perm_rank_prob = 0.0
    /// # time-varying faults (recovery manager)
    /// arrivals = r0c1b3E@t=5000ps, rank2@t=12000ps
    /// flaps = r0c1b0W@t=2000ps+1500ps
    /// bursts = ber=0.4@t=1000ps+500ps
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for unknown keys,
    /// missing `=`, or unparseable values.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = FaultConfig::none();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                format!("line {}: expected `key = value`, got `{raw}`", lineno + 1)
            })?;
            let (key, value) = (key.trim(), value.trim());
            let bad =
                |e: &dyn fmt::Display| format!("line {}: bad value for {key}: {e}", lineno + 1);
            match key {
                "seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
                "transient_ber" => cfg.transient_ber = parse_prob(value).map_err(|e| bad(&e))?,
                "straggler_prob" => cfg.straggler_prob = parse_prob(value).map_err(|e| bad(&e))?,
                "straggler_max_ns" => cfg.straggler_max_ns = value.parse().map_err(|e| bad(&e))?,
                "dead_dpus" => {
                    let mut ids = Vec::new();
                    for part in value.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                        ids.push(part.parse::<u32>().map_err(|e| bad(&e))?);
                    }
                    ids.sort_unstable();
                    ids.dedup();
                    cfg.dead_dpus = ids;
                }
                "max_retries" => cfg.max_retries = value.parse().map_err(|e| bad(&e))?,
                "backoff_base_ps" => cfg.backoff_base_ps = value.parse().map_err(|e| bad(&e))?,
                "watchdog_ps" => cfg.watchdog_ps = value.parse().map_err(|e| bad(&e))?,
                "perm_segments" => {
                    for part in value.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                        cfg.permanent
                            .segments
                            .insert(crate::permanent::SegmentId::parse(part).map_err(|e| bad(&e))?);
                    }
                }
                "perm_ports" => {
                    for part in value.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                        cfg.permanent
                            .ports
                            .insert(crate::permanent::PortId::parse(part).map_err(|e| bad(&e))?);
                    }
                }
                "perm_ranks" => {
                    for part in value.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                        cfg.permanent
                            .dead_ranks
                            .insert(part.parse::<u32>().map_err(|e| bad(&e))?);
                    }
                }
                "perm_segment_prob" => {
                    cfg.perm_rates.segment_prob = parse_prob(value).map_err(|e| bad(&e))?;
                }
                "perm_port_prob" => {
                    cfg.perm_rates.port_prob = parse_prob(value).map_err(|e| bad(&e))?;
                }
                "perm_rank_prob" => {
                    cfg.perm_rates.rank_prob = parse_prob(value).map_err(|e| bad(&e))?;
                }
                "arrivals" => {
                    cfg.timeline.arrivals =
                        FaultTimeline::parse_arrivals(value).map_err(|e| bad(&e))?;
                }
                "flaps" => {
                    cfg.timeline.flaps = FaultTimeline::parse_flaps(value).map_err(|e| bad(&e))?;
                }
                "bursts" => {
                    cfg.timeline.bursts =
                        FaultTimeline::parse_bursts(value).map_err(|e| bad(&e))?;
                }
                _ => return Err(format!("line {}: unknown key `{key}`", lineno + 1)),
            }
        }
        Ok(cfg)
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

fn parse_prob(s: &str) -> Result<f64, String> {
    let p: f64 = s.parse().map_err(|e| format!("{e}"))?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("probability {p} not in [0, 1]"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive() {
        assert!(!FaultConfig::none().is_active());
        assert!(!FaultConfig::default().is_active());
    }

    #[test]
    fn any_knob_activates() {
        let base = FaultConfig::none();
        assert!(FaultConfig {
            transient_ber: 0.1,
            ..base.clone()
        }
        .is_active());
        assert!(FaultConfig {
            straggler_prob: 0.1,
            straggler_max_ns: 10,
            ..base.clone()
        }
        .is_active());
        assert!(FaultConfig {
            dead_dpus: vec![3],
            ..base
        }
        .is_active());
    }

    #[test]
    fn parse_roundtrip() {
        let cfg = FaultConfig::parse(
            "# comment\n\
             seed = 42\n\
             transient_ber = 0.01\n\
             straggler_prob = 0.05  # inline comment\n\
             straggler_max_ns = 2000\n\
             dead_dpus = 17, 3, 17\n\
             max_retries = 5\n\
             backoff_base_ps = 250000\n\
             watchdog_ps = 9000500\n",
        )
        .unwrap();
        assert_eq!(cfg.seed, 42);
        assert!((cfg.transient_ber - 0.01).abs() < 1e-12);
        assert_eq!(cfg.dead_dpus, vec![3, 17]); // sorted, deduped
        assert_eq!(cfg.max_retries, 5);
        assert_eq!(cfg.backoff_base_ps, 250_000);
        assert_eq!(cfg.watchdog_ps, 9_000_500, "picosecond precision is kept");
    }

    #[test]
    fn default_budgets_are_three_retries_100ns_backoff_and_a_1ms_watchdog() {
        let cfg = FaultConfig::none();
        assert_eq!(cfg.max_retries, 3);
        assert_eq!(cfg.backoff_base_ps, 100_000);
        assert_eq!(cfg.watchdog_ps, 1_000_000_000);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(FaultConfig::parse("nonsense").is_err());
        assert_eq!(
            FaultConfig::parse("seed = 1\nmystery_key = 3"),
            Err("line 2: unknown key `mystery_key`".to_string())
        );
        assert!(FaultConfig::parse("watchdog_ps = -1").is_err());
        assert!(FaultConfig::parse("backoff_base_ps = 18446744073709551616").is_err());
        assert!(FaultConfig::parse("transient_ber = 1.5").is_err());
        assert!(FaultConfig::parse("dead_dpus = 1, x").is_err());
    }

    #[test]
    fn parse_permanent_fault_keys() {
        let cfg = FaultConfig::parse(
            "perm_segments = r0c1b3E, r1c0b7W\n\
             perm_ports = r0c1tx, r0c2rx\n\
             perm_ranks = 2, 3\n\
             perm_segment_prob = 0.01\n",
        )
        .unwrap();
        assert_eq!(cfg.permanent.segments.len(), 2);
        assert_eq!(cfg.permanent.ports.len(), 2);
        assert_eq!(cfg.permanent.dead_ranks.len(), 2);
        assert!((cfg.perm_rates.segment_prob - 0.01).abs() < 1e-12);
        assert!(cfg.has_permanent_faults());
        assert!(cfg.is_active());
        assert!(FaultConfig::parse("perm_segments = bogus").is_err());
        assert!(FaultConfig::parse("perm_ports = r0c1").is_err());
        assert!(FaultConfig::parse("perm_rank_prob = 2.0").is_err());
    }

    #[test]
    fn parse_timeline_keys() {
        let cfg = FaultConfig::parse(
            "arrivals = r0c1b3E@t=5000ps, rank2@t=12000ps\n\
             flaps = r0c1b0W@t=2000ps+1500ps\n\
             bursts = ber=0.4@t=1000ps+500ps\n",
        )
        .unwrap();
        assert_eq!(cfg.timeline.arrivals.len(), 2);
        assert_eq!(cfg.timeline.flaps.len(), 1);
        assert_eq!(cfg.timeline.bursts.len(), 1);
        assert!(cfg.is_active(), "a timeline alone activates the scenario");
        assert!(FaultConfig::parse("arrivals = r0c1b3E").is_err());
        assert!(FaultConfig::parse("bursts = 0.4@t=0ps+1ps").is_err());
    }

    #[test]
    fn empty_parses_to_none() {
        assert_eq!(FaultConfig::parse("").unwrap(), FaultConfig::none());
        assert_eq!(
            FaultConfig::parse("\n# only comments\n").unwrap(),
            FaultConfig::none()
        );
    }
}
