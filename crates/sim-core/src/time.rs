//! Virtual time for the simulation.
//!
//! Time is measured in microseconds since the start of the simulated
//! campaign ("sim epoch"). The calendar helpers assume the campaign starts
//! at midnight of day 0, which is how the temporal experiments in the paper
//! (EX-4, Figures 6–8) index their observations.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, microseconds since the sim epoch.
///
/// `SimTime` is totally ordered and cheap to copy. Arithmetic with
/// [`SimDuration`] is saturating on underflow and panics on overflow in
/// debug builds (an overflowing simulation clock is always a bug).
///
/// ```
/// use sky_sim::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_secs(90);
/// assert_eq!(t.as_secs_f64(), 90.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time, microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

pub const MICROS_PER_MILLI: u64 = 1_000;
pub const MICROS_PER_SEC: u64 = 1_000_000;
pub const MICROS_PER_MIN: u64 = 60 * MICROS_PER_SEC;
pub const MICROS_PER_HOUR: u64 = 60 * MICROS_PER_MIN;
pub const MICROS_PER_DAY: u64 = 24 * MICROS_PER_HOUR;

impl SimTime {
    /// The sim epoch: midnight of day 0.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from raw microseconds since the sim epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Microseconds since the sim epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the sim epoch as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Calendar day index of this instant (day 0 starts at the epoch).
    pub const fn day(self) -> u64 {
        self.0 / MICROS_PER_DAY
    }

    /// Hour of day in `0..24`.
    pub const fn hour_of_day(self) -> u32 {
        ((self.0 % MICROS_PER_DAY) / MICROS_PER_HOUR) as u32
    }

    /// Fractional hour of day in `[0, 24)`, used by the diurnal load model.
    pub fn hour_of_day_f64(self) -> f64 {
        (self.0 % MICROS_PER_DAY) as f64 / MICROS_PER_HOUR as f64
    }

    /// The instant at which the given calendar day starts.
    pub const fn start_of_day(day: u64) -> Self {
        SimTime(day * MICROS_PER_DAY)
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * MICROS_PER_MILLI)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * MICROS_PER_MIN)
    }

    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * MICROS_PER_HOUR)
    }

    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * MICROS_PER_DAY)
    }

    /// Construct from fractional milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is negative or not finite.
    pub fn from_millis_f64(ms: f64) -> Self {
        assert!(
            ms.is_finite() && ms >= 0.0,
            "duration must be finite and non-negative"
        );
        SimDuration((ms * MICROS_PER_MILLI as f64).round() as u64)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_MILLI as f64
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Billed milliseconds, rounded **up** to the next whole millisecond,
    /// the rounding rule AWS Lambda applies to billed duration.
    pub const fn billed_millis(self) -> u64 {
        self.0.div_ceil(MICROS_PER_MILLI)
    }

    /// Scale by a non-negative factor (e.g. a CPU slowdown multiplier).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "factor must be finite and non-negative"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }

    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day();
        let rem = self.0 % MICROS_PER_DAY;
        let h = rem / MICROS_PER_HOUR;
        let m = (rem % MICROS_PER_HOUR) / MICROS_PER_MIN;
        let s = (rem % MICROS_PER_MIN) / MICROS_PER_SEC;
        let ms = (rem % MICROS_PER_SEC) / MICROS_PER_MILLI;
        write!(f, "d{day} {h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= MICROS_PER_DAY {
            write!(f, "{:.1}d", self.0 as f64 / MICROS_PER_DAY as f64)
        } else if self.0 >= MICROS_PER_HOUR {
            write!(f, "{:.1}h", self.0 as f64 / MICROS_PER_HOUR as f64)
        } else if self.0 >= MICROS_PER_MIN {
            write!(f, "{:.1}min", self.0 as f64 / MICROS_PER_MIN as f64)
        } else if self.0 >= MICROS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.3}ms", self.as_millis_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_helpers() {
        let t = SimTime::start_of_day(3) + SimDuration::from_hours(5) + SimDuration::from_mins(30);
        assert_eq!(t.day(), 3);
        assert_eq!(t.hour_of_day(), 5);
        assert!((t.hour_of_day_f64() - 5.5).abs() < 1e-9);
    }

    #[test]
    fn billed_millis_rounds_up() {
        assert_eq!(SimDuration::from_micros(0).billed_millis(), 0);
        assert_eq!(SimDuration::from_micros(1).billed_millis(), 1);
        assert_eq!(SimDuration::from_micros(999).billed_millis(), 1);
        assert_eq!(SimDuration::from_micros(1_000).billed_millis(), 1);
        assert_eq!(SimDuration::from_micros(1_001).billed_millis(), 2);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(
            t.saturating_since(SimTime::ZERO),
            SimDuration::from_secs(10)
        );
        assert_eq!(SimTime::ZERO.saturating_since(t), SimDuration::ZERO);
        assert_eq!(
            t - SimDuration::from_secs(4),
            SimTime::ZERO + SimDuration::from_secs(6)
        );
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_millis(150));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn from_fractional() {
        assert_eq!(
            SimDuration::from_millis_f64(1.5),
            SimDuration::from_micros(1500)
        );
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_panics() {
        let _ = SimDuration::from_millis_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::start_of_day(1) + SimDuration::from_millis(1500);
        assert_eq!(t.to_string(), "d1 00:00:01.500");
        assert_eq!(SimDuration::from_millis(250).to_string(), "250.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_mins(3).to_string(), "3.0min");
        assert_eq!(SimDuration::from_hours(22).to_string(), "22.0h");
        assert_eq!(SimDuration::from_days(7).to_string(), "7.0d");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [SimDuration::from_secs(1), SimDuration::from_millis(500)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDuration::from_millis(1500));
    }
}
