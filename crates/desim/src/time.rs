//! Simulated time.
//!
//! The paper's workload is specified in minutes (median session time of
//! 60 minutes); we keep time as a dimensionless `f64` number of *minutes*
//! wrapped in a newtype that provides a total order (NaN is rejected at
//! construction) so it can key the event calendar.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in minutes since simulation start.
///
/// `SimTime` is totally ordered; constructing one from a NaN or negative
/// value panics, which turns arithmetic bugs into loud failures instead of
/// silently corrupting the event calendar order.
#[derive(Clone, Copy, PartialEq)]
pub struct SimTime(f64);

impl SimTime {
    /// Time zero: the start of the simulation.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a time point, panicking on NaN or negative input.
    #[must_use]
    pub fn new(minutes: f64) -> Self {
        assert!(
            minutes.is_finite() && minutes >= 0.0,
            "SimTime must be finite and non-negative, got {minutes}"
        );
        SimTime(minutes)
    }

    /// The raw number of minutes since simulation start.
    #[must_use]
    pub fn minutes(self) -> f64 {
        self.0
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Values are guaranteed finite by construction.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;

    fn add(self, delta: f64) -> SimTime {
        SimTime::new(self.0 + delta)
    }
}

impl AddAssign<f64> for SimTime {
    fn add_assign(&mut self, delta: f64) {
        *self = *self + delta;
    }
}

impl Sub for SimTime {
    type Output = f64;

    fn sub(self, other: SimTime) -> f64 {
        self.0 - other.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}min", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_origin() {
        assert_eq!(SimTime::ZERO.minutes(), 0.0);
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::new(1.0) < SimTime::new(2.0));
        assert!(SimTime::new(2.0) > SimTime::new(1.0));
        assert_eq!(SimTime::new(3.5), SimTime::new(3.5));
    }

    #[test]
    fn add_advances() {
        let t = SimTime::new(10.0) + 5.5;
        assert_eq!(t.minutes(), 15.5);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::new(1.0);
        t += 2.0;
        assert_eq!(t.minutes(), 3.0);
    }

    #[test]
    fn sub_gives_elapsed() {
        assert_eq!(SimTime::new(7.0) - SimTime::new(3.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_rejected() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_rejected() {
        let _ = SimTime::new(-1.0);
    }
}
