//! Analytic timing of communication schedules.
//!
//! A step's duration is the maximum, over every fabric resource it touches,
//! of the *occupancy* of that resource — the sum of serialization times of
//! all transfers crossing it within the step — plus the per-hop propagation
//! of the longest path. Within non-multiplexed phases the validator
//! guarantees one flow per resource, so the occupancy maximum is exact; in
//! multiplexed phases (WAIT-slotted DQ channels and bus) it models the
//! deterministic time-multiplexing the PIM-controlled schedule performs.
//!
//! Occupancy is tallied in one [`Occupancy`] table over the geometry's
//! dense resource slots, allocated once per schedule walk and cleared
//! step by step, so pricing a step costs O(resource visits) with no
//! per-step allocation.
//!
//! The result is a [`CommBreakdown`] with the same buckets as the paper's
//! Fig 11: inter-bank / inter-chip / inter-rank time, `Sync` (the
//! READY/START barrier plus compute skew) and `Mem` (WRAM-overflow staging
//! through the MRAM↔WRAM DMA). A `host` bucket exists for the comparison
//! backends; it is always zero for PIMnet itself.

use std::fmt;
use std::iter::Sum;
use std::ops::Add;

use pim_sim::{Bytes, SimTime};

use pim_arch::SystemConfig;

use pim_arch::geometry::PimGeometry;

use crate::fabric::FabricConfig;
use crate::schedule::{
    CommSchedule, CommStep, Phase, PhaseLabel, ScheduleHeader, ScheduleView, StepRef, TierTimes,
};
use crate::sync::{SyncModel, SyncScope};
use crate::topology::Occupancy;

/// Where the time of one collective went (the paper's Fig 11 buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CommBreakdown {
    /// READY/START barrier plus compute skew.
    pub sync: SimTime,
    /// Inter-bank ring time.
    pub inter_bank: SimTime,
    /// Inter-chip crossbar time.
    pub inter_chip: SimTime,
    /// Inter-rank bus time.
    pub inter_rank: SimTime,
    /// WRAM-overflow staging through the MRAM↔WRAM DMA.
    pub mem: SimTime,
    /// Host involvement (transfers through the CPU and host software
    /// overheads); zero for PIMnet, dominant for the baseline.
    pub host: SimTime,
}

impl CommBreakdown {
    /// A breakdown with every bucket zero.
    #[must_use]
    pub fn zero() -> Self {
        CommBreakdown::default()
    }

    /// End-to-end collective time.
    #[must_use]
    pub fn total(&self) -> SimTime {
        self.sync + self.inter_bank + self.inter_chip + self.inter_rank + self.mem + self.host
    }

    /// Network-only time (everything except host involvement).
    #[must_use]
    pub fn network(&self) -> SimTime {
        self.sync + self.inter_bank + self.inter_chip + self.inter_rank + self.mem
    }

    /// Adds `t` to the bucket for `label`.
    pub fn add_phase(&mut self, label: PhaseLabel, t: SimTime) {
        match label {
            PhaseLabel::Local => {}
            PhaseLabel::InterBank => self.inter_bank += t,
            PhaseLabel::InterChip => self.inter_chip += t,
            PhaseLabel::InterRank => self.inter_rank += t,
        }
    }

    /// Fraction of the total spent in a given bucket-sum, as percent.
    #[must_use]
    pub fn percent(&self, part: SimTime) -> f64 {
        part.ratio(self.total()) * 100.0
    }
}

impl Add for CommBreakdown {
    type Output = CommBreakdown;

    fn add(self, rhs: CommBreakdown) -> CommBreakdown {
        CommBreakdown {
            sync: self.sync + rhs.sync,
            inter_bank: self.inter_bank + rhs.inter_bank,
            inter_chip: self.inter_chip + rhs.inter_chip,
            inter_rank: self.inter_rank + rhs.inter_rank,
            mem: self.mem + rhs.mem,
            host: self.host + rhs.host,
        }
    }
}

impl Sum for CommBreakdown {
    fn sum<I: Iterator<Item = CommBreakdown>>(iter: I) -> CommBreakdown {
        iter.fold(CommBreakdown::zero(), Add::add)
    }
}

impl fmt::Display for CommBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {} (sync {}, bank {}, chip {}, rank {}, mem {}, host {})",
            self.total(),
            self.sync,
            self.inter_bank,
            self.inter_chip,
            self.inter_rank,
            self.mem,
            self.host
        )
    }
}

/// Times schedules against a fabric + system configuration.
#[derive(Debug, Clone, Copy)]
pub struct TimingModel {
    /// Fabric (tier bandwidth/latency) parameters.
    pub fabric: FabricConfig,
    /// System (memory/DMA) parameters, for the `Mem` bucket.
    pub system: SystemConfig,
}

impl TimingModel {
    /// Creates a timing model.
    #[must_use]
    pub fn new(fabric: FabricConfig, system: SystemConfig) -> Self {
        TimingModel { fabric, system }
    }

    /// The paper's configuration.
    #[must_use]
    pub fn paper() -> Self {
        TimingModel::new(FabricConfig::paper(), SystemConfig::paper())
    }

    /// Duration of one step: max resource occupancy plus the longest path's
    /// hop propagation.
    #[must_use]
    pub fn step_time(&self, schedule: &CommSchedule, step: &CommStep) -> SimTime {
        self.step_time_of(&schedule.header(), StepRef::Nested(step))
    }

    /// [`TimingModel::step_time`] for a step in either schedule layout.
    #[must_use]
    pub fn step_time_of(&self, hdr: &ScheduleHeader<'_>, step: StepRef<'_>) -> SimTime {
        self.step_time_in(&mut Occupancy::new(hdr.geometry), hdr.elem_bytes, step)
    }

    /// [`TimingModel::step_time_of`] tallying into `occupancy`, which is
    /// left clear for the next step.
    pub(crate) fn step_time_in(
        &self,
        occupancy: &mut Occupancy<SimTime>,
        elem_bytes: u32,
        step: StepRef<'_>,
    ) -> SimTime {
        // Occupancies only grow, so the largest running value is the
        // busiest resource's final occupancy.
        let mut busiest = SimTime::ZERO;
        let mut max_hops = 0usize;
        for t in step.transfers() {
            if t.is_local() {
                continue;
            }
            let bytes = t.bytes(elem_bytes);
            max_hops = max_hops.max(t.resources.len());
            for r in t.resources {
                let o = occupancy.entry(r, SimTime::ZERO);
                *o += r.bandwidth(&self.fabric).transfer_time(bytes);
                busiest = busiest.max(*o);
            }
        }
        occupancy.clear();
        busiest + self.fabric.hop_latency * max_hops as u64
    }

    /// Duration of one phase (steps are sequential).
    #[must_use]
    pub fn phase_time(&self, schedule: &CommSchedule, phase: &Phase) -> SimTime {
        let mut occupancy = Occupancy::new(&schedule.geometry);
        phase
            .steps
            .iter()
            .map(|s| self.step_time_in(&mut occupancy, schedule.elem_bytes, StepRef::Nested(s)))
            .sum()
    }

    /// Times a whole schedule in either layout, including the READY/START
    /// barrier (with `skew` between the earliest and latest participant)
    /// and WRAM-overflow staging.
    #[must_use]
    pub fn time_schedule<S: ScheduleView>(&self, schedule: &S, skew: SimTime) -> CommBreakdown {
        let hdr = schedule.header();
        let mut breakdown = CommBreakdown::zero();
        let sync = SyncModel::from_fabric(&self.fabric);
        breakdown.sync = sync.barrier(Self::scope_of_geometry(hdr.geometry), skew);
        let mut occupancy = Occupancy::new(hdr.geometry);
        for p in 0..schedule.phase_count() {
            let t: SimTime = (0..schedule.steps_in(p))
                .map(|s| self.step_time_in(&mut occupancy, hdr.elem_bytes, schedule.step(p, s)))
                .sum();
            breakdown.add_phase(schedule.phase_label(p), t);
        }
        breakdown.mem = self.mem_overhead_of(hdr.buffer_len, hdr.elem_bytes);
        breakdown
    }

    /// WRAM-overflow cost: payload beyond the WRAM staging budget must be
    /// DMA-staged from MRAM before sending and back after receiving.
    #[must_use]
    pub fn mem_overhead(&self, schedule: &CommSchedule) -> SimTime {
        self.mem_overhead_of(schedule.buffer_len, schedule.elem_bytes)
    }

    /// [`TimingModel::mem_overhead`] from the buffer footprint alone.
    #[must_use]
    pub fn mem_overhead_of(&self, buffer_len: usize, elem_bytes: u32) -> SimTime {
        let footprint = Bytes::new(buffer_len as u64 * u64::from(elem_bytes));
        let overflow = self.system.memory.wram_overflow(footprint);
        if overflow.is_zero() {
            SimTime::ZERO
        } else {
            self.system.dma.transfer_time(overflow) * 2
        }
    }

    /// The synchronization scope a schedule needs.
    #[must_use]
    pub fn scope_of(&self, schedule: &CommSchedule) -> SyncScope {
        Self::scope_of_geometry(&schedule.geometry)
    }

    /// The synchronization scope a geometry's collectives need.
    #[must_use]
    pub fn scope_of_geometry(g: &PimGeometry) -> SyncScope {
        SyncScope::of_geometry(g)
    }

    /// Per-tier durations in Algorithm 1 form, for an AllReduce schedule
    /// (phases: `RS_bank, RS_chip, RS_rank, AG_chip, AG_bank`, with absent
    /// tiers zero).
    #[must_use]
    pub fn tier_times(&self, schedule: &CommSchedule) -> TierTimes {
        let mut t = TierTimes::default();
        let mut seen_rank = false;
        for phase in &schedule.phases {
            let d = self.phase_time(schedule, phase);
            match phase.label {
                PhaseLabel::Local => {}
                PhaseLabel::InterBank => {
                    if t.rs_bank == pim_sim::SimTime::ZERO && !seen_rank {
                        t.rs_bank = d;
                    } else {
                        t.ag_bank = d;
                    }
                }
                PhaseLabel::InterChip => {
                    if !seen_rank && t.rs_chip == pim_sim::SimTime::ZERO {
                        t.rs_chip = d;
                    } else {
                        t.ag_chip = d;
                    }
                }
                PhaseLabel::InterRank => {
                    t.rs_rank = d;
                    seen_rank = true;
                }
            }
        }
        t
    }
}

impl Default for TimingModel {
    fn default() -> Self {
        TimingModel::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::CollectiveKind;
    use pim_arch::geometry::PimGeometry;
    use pim_sim::Bandwidth;

    fn ar(elems: usize) -> CommSchedule {
        CommSchedule::build(CollectiveKind::AllReduce, &PimGeometry::paper(), elems, 4).unwrap()
    }

    #[test]
    fn paper_allreduce_32kib_lands_near_hand_calculation() {
        // 32 KiB per DPU over 256 DPUs: hand calculation in DESIGN.md gives
        // roughly 20 us (bank RS) + 27 us (chip RS) + ~8 us (rank bcast) +
        // 27 + 20 us for the AG side ~= 100 us.
        let m = TimingModel::paper();
        let s = ar(8192); // 8192 x 4 B = 32 KiB
        let b = m.time_schedule(&s, SimTime::ZERO);
        let total = b.total().as_us();
        assert!(
            (60.0..180.0).contains(&total),
            "unexpected AllReduce time {total} us"
        );
        // The breakdown is dominated by the network tiers, not sync.
        assert!(b.sync < b.inter_bank);
        assert_eq!(b.host, SimTime::ZERO);
    }

    #[test]
    fn time_is_monotone_in_message_size() {
        let m = TimingModel::paper();
        let mut prev = SimTime::ZERO;
        for elems in [256usize, 1024, 4096, 16384] {
            let t = m.time_schedule(&ar(elems), SimTime::ZERO).total();
            assert!(t > prev, "not monotone at {elems} elems");
            prev = t;
        }
    }

    #[test]
    fn time_decreases_with_more_ring_bandwidth() {
        let s = ar(8192);
        let slow = TimingModel::new(
            FabricConfig::paper().with_bank_channel_bw(Bandwidth::gbps(0.1)),
            SystemConfig::paper(),
        );
        let fast = TimingModel::new(
            FabricConfig::paper().with_bank_channel_bw(Bandwidth::gbps(1.0)),
            SystemConfig::paper(),
        );
        assert!(
            slow.time_schedule(&s, SimTime::ZERO).inter_bank
                > fast.time_schedule(&s, SimTime::ZERO).inter_bank
        );
    }

    #[test]
    fn skew_lands_in_the_sync_bucket() {
        let m = TimingModel::paper();
        let s = ar(1024);
        let no_skew = m.time_schedule(&s, SimTime::ZERO);
        let skewed = m.time_schedule(&s, SimTime::from_us(10));
        assert_eq!(skewed.sync, no_skew.sync + SimTime::from_us(10));
        assert_eq!(skewed.inter_bank, no_skew.inter_bank);
    }

    #[test]
    fn mem_bucket_appears_only_beyond_wram_budget() {
        let m = TimingModel::paper();
        // 32 KiB fits the 48 KiB staging budget.
        assert_eq!(m.time_schedule(&ar(8192), SimTime::ZERO).mem, SimTime::ZERO);
        // 64 KiB does not.
        let b = m.time_schedule(&ar(16384), SimTime::ZERO);
        assert!(b.mem > SimTime::ZERO);
    }

    #[test]
    fn tier_times_match_phase_durations() {
        let m = TimingModel::paper();
        let s = ar(8192);
        let t = m.tier_times(&s);
        assert!(t.rs_bank > SimTime::ZERO);
        assert!(t.rs_chip > SimTime::ZERO);
        assert!(t.rs_rank > SimTime::ZERO);
        assert_eq!(t.ag_rank, SimTime::ZERO);
        // Symmetric hierarchy: AG mirrors RS within a factor (AG moves the
        // same bytes as RS on each tier).
        assert!(t.ag_bank > SimTime::ZERO);
        let sum = t.total();
        let b = m.time_schedule(&s, SimTime::ZERO);
        assert_eq!(sum + b.sync + b.mem, b.total());
    }

    #[test]
    fn breakdown_arithmetic() {
        let a = CommBreakdown {
            sync: SimTime::from_ns(10),
            inter_bank: SimTime::from_ns(20),
            ..CommBreakdown::zero()
        };
        let b = CommBreakdown {
            host: SimTime::from_ns(70),
            ..CommBreakdown::zero()
        };
        let c = a + b;
        assert_eq!(c.total(), SimTime::from_ns(100));
        assert_eq!(c.network(), SimTime::from_ns(30));
        assert_eq!(c.percent(SimTime::from_ns(70)), 70.0);
        let s: CommBreakdown = [a, b].into_iter().sum();
        assert_eq!(s, c);
        assert!(c.to_string().contains("total"));
    }
}
