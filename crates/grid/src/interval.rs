use std::fmt;

use serde::{Deserialize, Serialize};

/// A half-open interval `[lower, upper)` on one dimension of the value
/// space.
///
/// The paper defines each grid cell as the intersection of one interval
/// from each dimension, with `v^a = [l^a, u^a)` (Section 3). A data point
/// belongs to the cell whose intervals contain it on both dimensions.
///
/// # Example
///
/// ```
/// use gridwatch_grid::Interval;
///
/// let iv = Interval::new(1.0, 2.0);
/// assert!(iv.contains(1.0));
/// assert!(!iv.contains(2.0)); // half-open
/// assert_eq!(iv.width(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interval {
    lower: f64,
    upper: f64,
}

impl Interval {
    /// Creates the interval `[lower, upper)`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are non-finite or `lower >= upper`.
    pub fn new(lower: f64, upper: f64) -> Self {
        assert!(
            lower.is_finite() && upper.is_finite(),
            "interval bounds must be finite"
        );
        assert!(
            lower < upper,
            "interval must be non-empty: [{lower}, {upper})"
        );
        Interval { lower, upper }
    }

    /// The inclusive lower bound.
    pub fn lower(self) -> f64 {
        self.lower
    }

    /// The exclusive upper bound.
    pub fn upper(self) -> f64 {
        self.upper
    }

    /// The interval's width.
    pub fn width(self) -> f64 {
        self.upper - self.lower
    }

    /// The interval's midpoint.
    pub fn midpoint(self) -> f64 {
        self.lower + self.width() / 2.0
    }

    /// Whether `value` lies in `[lower, upper)`.
    pub fn contains(self, value: f64) -> bool {
        self.lower <= value && value < self.upper
    }

    /// Whether this interval shares a boundary point with `other`
    /// (`self.upper == other.lower` or vice versa).
    ///
    /// Adjacency is bit-exact by construction: partitions tile the value
    /// space by reusing the same `f64` as one interval's upper bound and
    /// the next one's lower bound, so a tolerance would declare merely
    /// nearby intervals adjacent.
    #[expect(clippy::float_cmp, reason = "adjacency is bit-exact by construction")]
    pub fn is_adjacent_to(self, other: Interval) -> bool {
        self.upper == other.lower || other.upper == self.lower
    }

    /// The smallest interval covering both `self` and `other`.
    pub fn hull(self, other: Interval) -> Interval {
        Interval {
            lower: self.lower.min(other.lower),
            upper: self.upper.max(other.upper),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.6}, {:.6})", self.lower, self.upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn half_open_membership() {
        let iv = Interval::new(-1.0, 1.0);
        assert!(iv.contains(-1.0));
        assert!(iv.contains(0.0));
        assert!(iv.contains(0.999_999));
        assert!(!iv.contains(1.0));
        assert!(!iv.contains(-1.000_001));
    }

    #[test]
    fn geometry() {
        let iv = Interval::new(2.0, 6.0);
        assert_eq!(iv.width(), 4.0);
        assert_eq!(iv.midpoint(), 4.0);
    }

    #[test]
    fn adjacency_and_hull() {
        let a = Interval::new(0.0, 1.0);
        let b = Interval::new(1.0, 2.0);
        let c = Interval::new(3.0, 4.0);
        assert!(a.is_adjacent_to(b));
        assert!(b.is_adjacent_to(a));
        assert!(!a.is_adjacent_to(c));
        let h = a.hull(c);
        assert_eq!(h.lower(), 0.0);
        assert_eq!(h.upper(), 4.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_interval_rejected() {
        Interval::new(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_bounds_rejected() {
        Interval::new(0.0, f64::INFINITY);
    }
}
