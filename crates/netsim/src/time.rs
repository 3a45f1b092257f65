use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in slots of length `Δ` since the common start
/// (time 0).
///
/// The paper's protocols are specified in terms of the maximum message delay `Δ`; in the
/// simulator one slot is exactly `Δ`, so "wait `c · Δ` time" becomes "wait `c` slots".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Time(pub u64);

impl Time {
    /// The common starting time of all parties.
    pub const ZERO: Time = Time(0);

    /// The underlying slot counter.
    pub fn slot(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl Add<u64> for Time {
    type Output = Time;

    fn add(self, rhs: u64) -> Time {
        Time(self.0 + rhs)
    }
}

impl AddAssign<u64> for Time {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Time> for Time {
    type Output = u64;

    fn sub(self, rhs: Time) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Time::ZERO;
        assert_eq!(t.slot(), 0);
        assert_eq!((t + 3).slot(), 3);
        let mut u = Time(2);
        u += 4;
        assert_eq!(u, Time(6));
        assert_eq!(u - Time(2), 4);
        assert_eq!(Time(2) - u, 0);
        assert_eq!(u.to_string(), "t=6");
    }
}
