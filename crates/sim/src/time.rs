//! Virtual time for the discrete-event simulator.
//!
//! The simulator advances a virtual clock measured in integer nanoseconds.
//! Two newtypes keep instants and durations apart: [`SimTime`] is a point on
//! the virtual timeline and [`SimDuration`] is a span between two points.
//! Nanosecond resolution is sufficient for the paper's calibration constants
//! (the finest is a fraction of a microsecond).

#![expect(
    clippy::expect_used,
    reason = "checked SimTime/SimDuration arithmetic; ns-timeline overflow is unrecoverable"
)]

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the virtual timeline, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw nanoseconds since simulation start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns the raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; that always indicates a
    /// causality bug in the caller.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is in the future"),
        )
    }

    /// Saturating version of [`SimTime::duration_since`].
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from integer microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the nanosecond count overflows `u64` (≈ 584 years).
    pub const fn from_micros(us: u64) -> Self {
        match us.checked_mul(1_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_micros overflow"),
        }
    }

    /// Creates a duration from integer milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the nanosecond count overflows `u64`.
    pub const fn from_millis(ms: u64) -> Self {
        match ms.checked_mul(1_000_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_millis overflow"),
        }
    }

    /// Creates a duration from integer seconds.
    ///
    /// # Panics
    ///
    /// Panics if the nanosecond count overflows `u64`.
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(1_000_000_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_secs overflow"),
        }
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((secs * 1_000_000_000.0).round() as u64)
    }

    /// Returns the raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Saturating addition (pins at `u64::MAX` nanoseconds instead of
    /// panicking — used for "far future" horizon arithmetic).
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Saturating scalar multiplication.
    pub fn saturating_mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }

    /// Checked addition; `None` on `u64` nanosecond overflow.
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }

    /// Checked scalar multiplication; `None` on overflow.
    pub fn checked_mul(self, rhs: u64) -> Option<SimDuration> {
        self.0.checked_mul(rhs).map(SimDuration)
    }
}

impl SimTime {
    /// Saturating addition (pins at the far-future instant `u64::MAX`).
    pub fn saturating_add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Checked addition; `None` if the instant leaves the timeline.
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }
}

// Arithmetic overflow on the virtual timeline always indicates a runaway
// delay computation (e.g. multiplying a latency by a corrupted count), so
// the operators are checked in all build profiles rather than wrapping
// silently in release.

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_add(rhs.0)
                .expect("SimTime + SimDuration overflowed the virtual timeline"),
        )
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime - SimDuration went before simulation start"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_add(rhs.0)
                .expect("SimDuration addition overflow"),
        )
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(
            self.0
                .checked_mul(rhs)
                .expect("SimDuration scalar multiplication overflow"),
        )
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000_000.0)
        } else {
            write!(f, "{:.3}us", self.as_micros_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_000);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d).as_nanos(), 3_000);
        assert_eq!((t + d).duration_since(t), d);
    }

    #[test]
    fn fractional_micros() {
        let d = SimDuration::from_secs_f64(2.42e-6);
        assert_eq!(d.as_nanos(), 2_420);
        assert!((d.as_micros_f64() - 2.42).abs() < 1e-9);
    }

    #[test]
    fn negative_and_nan_durations_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_micros(10);
        assert_eq!((d * 3).as_nanos(), 30_000);
        assert_eq!((d / 2).as_nanos(), 5_000);
        assert_eq!((d * 0.5).as_nanos(), 5_000);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_on_causality_violation() {
        let _ = SimTime::from_nanos(1).duration_since(SimTime::from_nanos(2));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(1500).to_string(), "1.500us");
        assert_eq!(SimDuration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimDuration::from_secs(1).to_string(), "1.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn duration_add_overflow_panics() {
        let _ = SimDuration::from_nanos(u64::MAX) + SimDuration::from_nanos(1);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn duration_mul_overflow_panics() {
        let _ = SimDuration::from_nanos(u64::MAX / 2) * 3;
    }

    #[test]
    #[should_panic(expected = "overflowed the virtual timeline")]
    fn time_add_overflow_panics() {
        let _ = SimTime::from_nanos(u64::MAX) + SimDuration::from_nanos(1);
    }

    #[test]
    fn saturating_and_checked_ops() {
        let max = SimDuration::from_nanos(u64::MAX);
        assert_eq!(max.saturating_add(SimDuration::from_nanos(1)), max);
        assert_eq!(max.saturating_mul(2), max);
        assert_eq!(max.checked_add(SimDuration::from_nanos(1)), None);
        assert_eq!(max.checked_mul(2), None);
        assert_eq!(
            SimTime::from_nanos(u64::MAX).saturating_add(SimDuration::from_nanos(5)),
            SimTime::from_nanos(u64::MAX)
        );
        assert_eq!(
            SimTime::from_nanos(u64::MAX).checked_add(SimDuration::from_nanos(1)),
            None
        );
        assert_eq!(
            SimTime::from_nanos(3).checked_add(SimDuration::from_nanos(4)),
            Some(SimTime::from_nanos(7))
        );
    }
}
