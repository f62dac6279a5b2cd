//! Virtual time. Microsecond resolution covers month-long simulations in a
//! `u64` with room to spare (a `u64` of microseconds spans ~584k years).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in microseconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Whole simulated days, for the study's daily time-series buckets.
    pub fn from_days(d: u64) -> Self {
        SimTime(d * 86_400 * 1_000_000)
    }

    pub fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Index of the simulated day this instant falls in.
    pub fn day(self) -> u64 {
        self.0 / (86_400 * 1_000_000)
    }

    pub fn saturating_sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000)
    }

    pub fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600 * 1_000_000)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
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

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.0 / 1_000_000;
        let d = total_secs / 86_400;
        let h = (total_secs % 86_400) / 3_600;
        let m = (total_secs % 3_600) / 60;
        let s = total_secs % 60;
        write!(f, "d{d}+{h:02}:{m:02}:{s:02}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 10_500_000);
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_millis(500));
    }

    #[test]
    fn day_bucketing() {
        assert_eq!(SimTime::from_days(0).day(), 0);
        assert_eq!(SimTime::from_secs(86_399).day(), 0);
        assert_eq!(SimTime::from_secs(86_400).day(), 1);
        assert_eq!(SimTime::from_days(34).day(), 34);
    }

    #[test]
    fn display_format() {
        let t = SimTime::from_days(3) + SimDuration::from_hours(4) + SimDuration::from_mins(5);
        assert_eq!(t.to_string(), "d3+04:05:00");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }
}
