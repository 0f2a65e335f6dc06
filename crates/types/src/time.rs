//! Simulated-time newtypes.
//!
//! The DRAM simulator counts in memory-clock [`Cycles`]; the system-level
//! co-simulation counts in picosecond-resolution [`SimTime`]. Conversions
//! between the two go through the configured clock period so the two engines
//! can exchange timestamps without unit bugs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A count of DRAM clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// Raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The cycle count as a float, for rate and energy arithmetic. This
    /// is the audited widening point gd-lint's `unit-safety` rule routes
    /// raw `as f64` casts through.
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// The later of two timestamps.
    pub fn max(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.max(rhs.0))
    }

    /// The earlier of two timestamps.
    pub fn min(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.min(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// A point in (or duration of) simulated wall-clock time, in picoseconds.
///
/// Picoseconds give headroom: `u64` picoseconds covers ~213 days, far more
/// than the 24-hour VM-trace experiments need, while representing DDR4-2133
/// cycle times (937.5 ps) exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Constructs from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Constructs from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Constructs from fractional seconds. Truncates below 1 ps.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s * 1e12) as u64)
    }

    /// Nanoseconds (truncating).
    pub const fn as_nanos(self) -> u64 {
        self.0 / 1_000
    }

    /// Microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// The later of two timestamps.
    pub fn max(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.max(rhs.0))
    }

    /// The earlier of two timestamps.
    pub fn min(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.min(rhs.0))
    }

    /// Converts a cycle count at the given clock frequency (MHz) into time.
    pub fn from_cycles(cycles: Cycles, clock_mhz: f64) -> SimTime {
        SimTime::from_secs_f64(cycles.as_u64() as f64 / (clock_mhz * 1e6))
    }

    /// Converts this duration into cycles at the given clock frequency (MHz),
    /// rounding up (a constraint of N ns always costs at least ceil cycles).
    pub fn to_cycles(self, clock_mhz: f64) -> Cycles {
        let cycles = self.as_secs_f64() * clock_mhz * 1e6;
        // Tolerate float slop so an exact multiple of the period does not
        // round up to an extra cycle.
        Cycles((cycles - 1e-6).ceil().max(0.0) as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
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
        SimTime(iter.map(|t| t.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3}ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3}us", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3}ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps}ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_roundtrip() {
        let t = SimTime::from_millis(1580);
        assert_eq!(t.as_micros(), 1_580_000);
        assert_eq!(t.as_millis(), 1580);
        assert_eq!(t.as_secs(), 1);
        assert!((t.as_secs_f64() - 1.58).abs() < 1e-12);
    }

    #[test]
    fn cycle_time_conversion_ddr4_2133() {
        // DDR4-2133: 1066.66 MHz clock, period 937.5 ps.
        let one_us = SimTime::from_micros(1);
        let cycles = one_us.to_cycles(1_066.666_666_7);
        assert!((1066..=1067).contains(&cycles.as_u64()));
        let back = SimTime::from_cycles(cycles, 1_066.666_666_7);
        assert!(back.as_nanos() >= 999 && back.as_nanos() <= 1001);
    }

    #[test]
    fn to_cycles_rounds_up() {
        // 1 ns at 1000 MHz is exactly 1 cycle; 1.5 ns must cost 2.
        assert_eq!(SimTime::from_nanos(1).to_cycles(1000.0), Cycles(1));
        assert_eq!(SimTime::from_picos(1_500).to_cycles(1000.0), Cycles(2));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(2);
        let b = SimTime::from_millis(500);
        assert_eq!((a + b).as_millis(), 2500);
        assert_eq!((a - b).as_millis(), 1500);
        assert_eq!((b * 4).as_secs(), 2);
        assert_eq!((a / 4).as_millis(), 500);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    fn display_chooses_unit() {
        assert_eq!(SimTime::from_nanos(18).to_string(), "18.000ns");
        assert_eq!(SimTime::from_secs(3).to_string(), "3.000s");
        assert_eq!(Cycles(42).to_string(), "42cy");
    }

    #[test]
    fn cycles_sum_and_math() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
        assert_eq!(Cycles(10).saturating_sub(Cycles(20)), Cycles::ZERO);
        assert_eq!(Cycles(10).max(Cycles(20)), Cycles(20));
    }
}
