//! Integer simulation time.
//!
//! All simulation timestamps are microseconds since the start of the run,
//! held in a `u64`. 2^64 µs is ~584,000 years, comfortably beyond the 40 h
//! traces of the paper's evaluation. Integer time keeps event ordering exact
//! and makes runs reproducible across platforms.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant in simulated time (microseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Raw microseconds since simulation start.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float (for statistics/plots).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Hours since simulation start as a float.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Minutes since simulation start as a float.
    #[inline]
    pub fn as_minutes_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Duration elapsed since `earlier`, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Construct from whole minutes.
    #[inline]
    pub const fn from_minutes(m: u64) -> Self {
        SimDuration(m * 60 * MICROS_PER_SEC)
    }

    /// Construct from whole hours.
    #[inline]
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3600 * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds. Negative values clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDuration(0);
        }
        SimDuration((s * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Raw microseconds.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Hours as a float.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3600.0
    }

    /// Minutes as a float.
    #[inline]
    pub fn as_minutes_f64(self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// Scale by a non-negative float, rounding to the nearest microsecond.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        debug_assert!(k >= 0.0, "negative duration scale {k}");
        SimDuration((self.0 as f64 * k).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, t: SimTime) -> SimDuration {
        SimDuration(self.0 - t.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 - d.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, d: SimDuration) {
        self.0 -= d.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, d: SimDuration) -> f64 {
        self.0 as f64 / d.0 as f64
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.as_secs_f64();
        if s >= 3600.0 {
            write!(f, "{:.2}h", s / 3600.0)
        } else if s >= 60.0 {
            write!(f, "{:.2}m", s / 60.0)
        } else {
            write!(f, "{s:.3}s")
        }
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_minutes(3).as_secs_f64(), 180.0);
        assert_eq!(SimDuration::from_hours(2).as_minutes_f64(), 120.0);
        assert_eq!(SimDuration::from_micros(1_500_000).as_secs_f64(), 1.5);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimTime::from_secs(5), SimDuration::from_secs(10));
        assert_eq!(SimDuration::from_secs(4) / 2, SimDuration::from_secs(2));
        assert_eq!(SimDuration::from_secs(3) * 2, SimDuration::from_secs(6));
        assert_eq!(SimDuration::from_secs(1) / SimDuration::from_secs(4), 0.25);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(5);
        assert_eq!(a.since(b), SimDuration::ZERO);
        assert_eq!(b.since(a), SimDuration::from_secs(4));
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_micros(), 500_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimTime::from_secs(120)), "2.00m");
        assert_eq!(format!("{}", SimTime::from_secs(7200)), "2.00h");
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(10).mul_f64(0.25);
        assert_eq!(d.as_micros(), 3); // 2.5 rounds to 3 (round half away from zero)
        assert_eq!(SimDuration::from_secs(1).mul_f64(2.0).as_secs_f64(), 2.0);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimTime::MAX > SimTime::from_secs(u32::MAX as u64));
    }
}
