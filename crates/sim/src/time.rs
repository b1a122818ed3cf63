//! Virtual time for the discrete-event simulator.

use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
///
/// `SimTime` is totally ordered and overflow-checked in debug builds; a
/// full paper-scale run (hours of virtual time) sits far below `u64::MAX`
/// nanoseconds (~584 years).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds a time from seconds.
    pub fn from_secs_f64(s: f64) -> SimTime {
        SimTime((s.max(0.0) * 1e9) as u64)
    }

    /// Builds a time from milliseconds.
    pub fn from_ms_f64(ms: f64) -> SimTime {
        SimTime((ms.max(0.0) * 1e6) as u64)
    }

    /// This time in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This time in milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Saturating difference.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Saturating subtraction of a span.
    pub fn saturating_sub_dur(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(d.0))
    }
}

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a span from seconds.
    pub fn from_secs_f64(s: f64) -> SimDuration {
        SimDuration((s.max(0.0) * 1e9) as u64)
    }

    /// Builds a span from milliseconds.
    pub fn from_ms_f64(ms: f64) -> SimDuration {
        SimDuration((ms.max(0.0) * 1e6) as u64)
    }

    /// This span in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This span in milliseconds.
    pub fn as_ms_f64(self) -> f64 {
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
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_ms_f64() - 1500.0).abs() < 1e-9);
        let d = SimDuration::from_ms_f64(2.5);
        assert_eq!(d.0, 2_500_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs_f64(1.0) + SimDuration::from_secs_f64(0.5);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        let d = SimTime::from_secs_f64(2.0) - SimTime::from_secs_f64(0.5);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        // Saturating: earlier minus later is zero.
        let z = SimTime::from_secs_f64(1.0) - SimTime::from_secs_f64(2.0);
        assert_eq!(z, SimDuration::ZERO);
    }

    #[test]
    fn negative_inputs_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_ms_f64(-5.0), SimDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert_eq!(SimTime(5).max(SimTime(3)), SimTime(5));
    }
}
