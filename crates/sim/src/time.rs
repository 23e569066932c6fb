//! Picosecond-resolution simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, stored as integer picoseconds.
///
/// A single type is used both for instants and for durations, as is common in
/// event-driven simulators; the arithmetic operators behave like duration
/// arithmetic. Integer picoseconds give exact, platform-independent results
/// while still covering simulations of up to ~213 days.
///
/// # Example
///
/// ```
/// use pim_sim::SimTime;
///
/// let sync = SimTime::from_ns(15); // PIMnet worst-case READY/START latency
/// let step = SimTime::from_us(3);
/// assert!(sync < step);
/// assert_eq!((sync + step).as_ns(), 3_015.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero instant (also the zero duration).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; useful as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from integer picoseconds.
    #[must_use]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from integer nanoseconds.
    #[must_use]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from integer microseconds.
    #[must_use]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from integer milliseconds.
    #[must_use]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from fractional seconds, rounding to the nearest
    /// picosecond. Intended for configuration values, not for hot-path
    /// arithmetic (which should stay in integers).
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs >= 0.0 && secs.is_finite(),
            "SimTime::from_secs_f64: invalid seconds value {secs}"
        );
        let ps = secs * 1e12;
        assert!(ps <= u64::MAX as f64, "SimTime::from_secs_f64: overflow");
        SimTime(ps.round() as u64)
    }

    /// Raw picosecond count.
    #[must_use]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in (fractional) nanoseconds.
    #[must_use]
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This time expressed in (fractional) microseconds.
    #[must_use]
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This time expressed in (fractional) milliseconds.
    #[must_use]
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time expressed in (fractional) seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: returns [`SimTime::ZERO`] instead of wrapping.
    #[must_use]
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// Checked multiplication by a count; `None` on overflow.
    #[must_use]
    pub const fn checked_mul(self, rhs: u64) -> Option<SimTime> {
        match self.0.checked_mul(rhs) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// The larger of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Dimensionless ratio `self / other` as `f64`.
    ///
    /// Returns `f64::INFINITY` when `other` is zero and `self` is non-zero,
    /// and `0.0` when both are zero (a convention convenient for speedup
    /// tables).
    #[must_use]
    pub fn ratio(self, other: SimTime) -> f64 {
        if other.0 == 0 {
            if self.0 == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 as f64 / other.0 as f64
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime addition overflow"),
        )
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        *self = *self + rhs;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;

    fn mul(self, rhs: u64) -> SimTime {
        SimTime(
            self.0
                .checked_mul(rhs)
                .expect("SimTime multiplication overflow"),
        )
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;

    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0 ps")
        } else if ps < 1_000 {
            write!(f, "{ps} ps")
        } else if ps < 1_000_000 {
            write!(f, "{:.3} ns", self.as_ns())
        } else if ps < 1_000_000_000 {
            write!(f, "{:.3} us", self.as_us())
        } else if ps < 1_000_000_000_000 {
            write!(f, "{:.3} ms", self.as_ms())
        } else {
            write!(f, "{:.6} s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_secs_f64(1.5).as_ps(), 1_500_000_000_000);
    }

    #[test]
    fn arithmetic_behaves_like_durations() {
        let a = SimTime::from_ns(10);
        let b = SimTime::from_ns(4);
        assert_eq!(a + b, SimTime::from_ns(14));
        assert_eq!(a - b, SimTime::from_ns(6));
        assert_eq!(a * 3, SimTime::from_ns(30));
        assert_eq!(a / 2, SimTime::from_ns(5));
    }

    #[test]
    fn saturating_sub_clamps_to_zero() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert_eq!(a.saturating_sub(b), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn plain_sub_panics_on_underflow() {
        let _ = SimTime::from_ns(1) - SimTime::from_ns(2);
    }

    #[test]
    fn ratio_conventions() {
        assert_eq!(SimTime::from_ns(10).ratio(SimTime::from_ns(5)), 2.0);
        assert_eq!(SimTime::ZERO.ratio(SimTime::ZERO), 0.0);
        assert!(SimTime::from_ns(1).ratio(SimTime::ZERO).is_infinite());
    }

    #[test]
    fn display_auto_scales() {
        assert_eq!(SimTime::from_ps(12).to_string(), "12 ps");
        assert_eq!(SimTime::from_ns(15).to_string(), "15.000 ns");
        assert_eq!(SimTime::from_us(3).to_string(), "3.000 us");
        assert_eq!(SimTime::from_ms(7).to_string(), "7.000 ms");
        assert_eq!(SimTime::from_secs_f64(2.0).to_string(), "2.000000 s");
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = [1u64, 2, 3].iter().map(|&n| SimTime::from_ns(n)).sum();
        assert_eq!(total, SimTime::from_ns(6));
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_ns(3);
        let b = SimTime::from_ns(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
