//! Virtual time used by the protocol cores and the discrete-event simulator.
//!
//! Protocol cores are written "sans-IO": they never read a wall clock.
//! Instead every entry point receives the current [`Instant`] from the
//! substrate driving the core (either the socket runtime, which maps wall
//! clock time onto these instants, or the discrete-event simulator, which
//! advances a purely virtual clock). Both substrates therefore share the same
//! time vocabulary and the cores behave identically under either.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A duration in nanoseconds of (possibly virtual) time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Builds a duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Duration(nanos)
    }

    /// Builds a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros * 1_000)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000_000)
    }

    /// Builds a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000_000)
    }

    /// The duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The duration in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction of two durations.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor.
    #[allow(clippy::should_implement_trait)] // an inherent, panic-free scalar helper
    pub fn mul(self, factor: u64) -> Duration {
        Duration(self.0 * factor)
    }

    /// Converts to a standard library duration (for the socket runtime).
    pub fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }

    /// Converts from a standard library duration, saturating at `u64::MAX` ns.
    pub fn from_std(d: std::time::Duration) -> Self {
        Duration(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{}us", self.as_micros())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A point in (possibly virtual) time, measured in nanoseconds since the
/// start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

impl Instant {
    /// The origin of time for a run.
    pub const ZERO: Instant = Instant(0);

    /// Builds an instant from nanoseconds since the origin.
    pub const fn from_nanos(nanos: u64) -> Self {
        Instant(nanos)
    }

    /// Nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds since the origin (fractional).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is in
    /// the future.
    pub fn duration_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn checked_add(self, d: Duration) -> Option<Instant> {
        self.0.checked_add(d.as_nanos()).map(Instant)
    }

    /// Saturating subtraction of a duration (clamped at time zero).
    pub fn saturating_sub(self, d: Duration) -> Instant {
        Instant(self.0.saturating_sub(d.as_nanos()))
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs.as_nanos())
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1_000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1_000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1_000));
    }

    #[test]
    fn duration_accessors() {
        let d = Duration::from_millis(1_500);
        assert_eq!(d.as_millis(), 1_500);
        assert_eq!(d.as_micros(), 1_500_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_arithmetic() {
        let a = Duration::from_millis(2);
        let b = Duration::from_millis(3);
        assert_eq!(a + b, Duration::from_millis(5));
        assert_eq!(b.saturating_sub(a), Duration::from_millis(1));
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(a.mul(4), Duration::from_millis(8));
    }

    #[test]
    fn instant_ordering_and_subtraction() {
        let t0 = Instant::ZERO;
        let t1 = t0 + Duration::from_millis(10);
        assert!(t0 < t1);
        assert_eq!(t1 - t0, Duration::from_millis(10));
        assert_eq!(t0 - t1, Duration::ZERO);
        assert_eq!(t1.duration_since(t0).as_millis(), 10);
    }

    #[test]
    fn std_round_trip() {
        let d = Duration::from_micros(1234);
        assert_eq!(Duration::from_std(d.to_std()), d);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Duration::from_nanos(5).to_string(), "5ns");
        assert_eq!(Duration::from_micros(7).to_string(), "7us");
        assert_eq!(Duration::from_millis(3).to_string(), "3.000ms");
        assert_eq!(Duration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn instant_checked_add() {
        let t = Instant::from_nanos(u64::MAX - 1);
        assert!(t.checked_add(Duration::from_nanos(1)).is_some());
        assert!(t.checked_add(Duration::from_nanos(2)).is_none());
    }
}
