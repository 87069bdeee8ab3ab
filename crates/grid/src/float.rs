//! Epsilon-based floating-point comparison helpers shared across the
//! workspace.
//!
//! Fitness scores, transition probabilities and grid statistics are `f64`
//! values produced by long chains of arithmetic; comparing them with a
//! naked `==` is a correctness trap (and a `gridwatch-audit` lint
//! violation). This module is the one vetted place where tolerance is
//! made explicit, so every crate compares floats the same way.
//!
//! The helpers use a hybrid absolute/relative tolerance: values near zero
//! are compared absolutely, larger magnitudes relatively, both against
//! [`EPSILON`].

/// Default comparison tolerance.
///
/// Scores and probabilities in this workspace live in `[0, 1]` and are
/// computed from at most a few thousand accumulation steps, so `1e-9`
/// comfortably absorbs rounding while still catching real drift (a
/// mis-normalized transition row is off by orders of magnitude more).
pub const EPSILON: f64 = 1e-9;

/// Whether `a` and `b` are equal within [`EPSILON`] (hybrid
/// absolute/relative tolerance).
///
/// # Example
///
/// ```
/// use gridwatch_grid::float::approx_eq;
///
/// assert!(approx_eq(0.1 + 0.2, 0.3));
/// assert!(!approx_eq(0.3, 0.3 + 1e-6));
/// ```
// The blessed site for exact comparison: the fast path below covers
// identical values (including infinities) before the tolerance check.
pub fn approx_eq(a: f64, b: f64) -> bool {
    if a == b {
        return true;
    }
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= EPSILON * scale
}

/// Whether `x` is zero within [`EPSILON`] (absolute tolerance).
pub fn approx_zero(x: f64) -> bool {
    x.abs() <= EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn near_values_compare_equal() {
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(approx_eq(1e12, 1e12 * (1.0 + 1e-12)));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn distinct_values_compare_unequal() {
        assert!(!approx_eq(0.0, 1e-6));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
        assert!(!approx_eq(f64::NAN, f64::NAN));
    }

    #[test]
    fn zero_helper() {
        assert!(approx_zero(0.0));
        assert!(approx_zero(-1e-12));
        assert!(!approx_zero(1e-6));
    }
}
