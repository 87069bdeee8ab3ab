//! Statistics utilities implemented from scratch: running moments
//! (Welford), Pearson and Spearman correlation, quantiles, and fixed-width
//! histograms.
//!
//! The Rust stats ecosystem is thin compared to what the paper's authors
//! had available, so everything the workspace needs is implemented here
//! with tests against hand-computed values.

use serde::{Deserialize, Serialize};

/// Numerically stable running mean/variance accumulator (Welford's
/// algorithm).
///
/// # Example
///
/// ```
/// use gridwatch_timeseries::stats::Welford;
///
/// let mut w = Welford::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     w.update(v);
/// }
/// assert_eq!(w.mean(), Some(5.0));
/// assert_eq!(w.population_variance(), Some(4.0));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford::default()
    }

    /// Feeds one observation.
    pub fn update(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean, or `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Population variance (`/n`), or `None` before any observation.
    pub fn population_variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Sample variance (`/(n-1)`), or `None` with fewer than two
    /// observations.
    pub fn sample_variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Population standard deviation.
    pub fn population_stddev(&self) -> Option<f64> {
        self.population_variance().map(f64::sqrt)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }
}

/// Pearson product-moment correlation of two equal-length slices.
///
/// Returns `None` if the slices differ in length, have fewer than two
/// elements, or either has zero variance.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx.sqrt() * syy.sqrt()))
}

/// Spearman rank correlation of two equal-length slices.
///
/// Computed as the Pearson correlation of fractional ranks (average ranks
/// for ties). Returns `None` under the same conditions as [`pearson`].
pub fn spearman(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let rx = fractional_ranks(xs);
    let ry = fractional_ranks(ys);
    pearson(&rx, &ry)
}

/// Fractional ranks (1-based, ties receive their average rank).
pub fn fractional_ranks(values: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    #[expect(clippy::expect_used, reason = "the series reject non-finite values")]
    order.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("finite values"));
    let mut ranks = vec![0.0; values.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        // A tie is bit-exact equality by definition: two samples rank
        // equally only when they carry the very same value.
        #[expect(clippy::float_cmp, reason = "a tie is bit-exact equality")]
        while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg_rank;
        }
        i = j + 1;
    }
    ranks
}

/// Linear-interpolated quantile of a slice, `q` in `[0, 1]`.
///
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile fraction must be in [0,1]"
    );
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    #[expect(clippy::expect_used, reason = "NaN input is a documented panic")]
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in quantile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median (the 0.5 [`quantile`]).
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// A fixed-width histogram over `[lo, hi)` — the unit-counting pass of the
/// MAFIA-style grid construction works on exactly this structure.
///
/// Values outside the range are clamped into the first/last bin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, `lo >= hi`, or the bounds are non-finite.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite(),
            "histogram bounds must be finite"
        );
        assert!(lo < hi, "histogram lower bound must be below upper bound");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// The bin index a value falls into (clamped to range). `NaN` lands
    /// in the first bin, like any other below-range value.
    pub fn bin_of(&self, value: f64) -> usize {
        let last = self.counts.len() - 1;
        // Clamp BEFORE the float→usize cast. `value <= lo` handles the
        // negative side, but NaN fails every comparison, and a huge or
        // infinite value makes the quotient overflow usize — both were
        // previously absorbed only by Rust's saturating cast semantics
        // (NaN→0, +inf→usize::MAX). The clamp makes the truncation
        // explicit instead of an implicit property of `as`.
        if value.is_nan() || value <= self.lo {
            return 0;
        }
        let raw = (value - self.lo) / self.bin_width();
        if raw >= last as f64 {
            return last;
        }
        raw as usize
    }

    /// Adds one observation.
    pub fn add(&mut self, value: f64) {
        let b = self.bin_of(value);
        self.counts[b] += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `[lo, hi)` boundaries of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_bounds(&self, i: usize) -> (f64, f64) {
        assert!(i < self.counts.len(), "bin index out of range");
        let w = self.bin_width();
        (self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data = [1.5, 2.5, -3.0, 4.0, 0.0, 10.0];
        let mut w = Welford::new();
        for &v in &data {
            w.update(v);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / data.len() as f64;
        assert!((w.mean().unwrap() - mean).abs() < 1e-12);
        assert!((w.population_variance().unwrap() - var).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 20.0, 30.0, 40.0];
        let mut w1 = Welford::new();
        a.iter().for_each(|&v| w1.update(v));
        let mut w2 = Welford::new();
        b.iter().for_each(|&v| w2.update(v));
        w1.merge(&w2);
        let mut all = Welford::new();
        a.iter().chain(b.iter()).for_each(|&v| all.update(v));
        assert!((w1.mean().unwrap() - all.mean().unwrap()).abs() < 1e-12);
        assert!(
            (w1.population_variance().unwrap() - all.population_variance().unwrap()).abs() < 1e-12
        );
        assert_eq!(w1.count(), 7);
    }

    #[test]
    fn welford_merge_with_empty() {
        let mut w = Welford::new();
        w.update(5.0);
        let snapshot = w;
        w.merge(&Welford::new());
        assert_eq!(w, snapshot);
        let mut empty = Welford::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[1.0], &[1.0]), None);
        assert_eq!(pearson(&[1.0, 2.0], &[1.0]), None);
        assert_eq!(pearson(&[1.0, 1.0], &[1.0, 2.0]), None); // zero variance
    }

    #[test]
    fn spearman_captures_monotone_nonlinear() {
        let xs: Vec<f64> = (1..=20).map(|k| k as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x / 2.0).exp()).collect();
        let rho = spearman(&xs, &ys).unwrap();
        assert!((rho - 1.0).abs() < 1e-12, "rho = {rho}");
        // Pearson on the same data is well below 1.
        assert!(pearson(&xs, &ys).unwrap() < 0.9);
    }

    #[test]
    fn fractional_ranks_handle_ties() {
        let r = fractional_ranks(&[10.0, 20.0, 20.0, 30.0]);
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn quantiles_interpolate() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&vals, 0.0), Some(1.0));
        assert_eq!(quantile(&vals, 1.0), Some(4.0));
        assert_eq!(median(&vals), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.3), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "quantile fraction")]
    fn quantile_rejects_bad_fraction() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bin_width(), 2.0);
        h.add(-1.0); // clamps to bin 0
        h.add(0.0);
        h.add(1.9);
        h.add(2.0);
        h.add(9.99);
        h.add(10.0); // clamps to last bin
        h.add(100.0); // clamps to last bin
        assert_eq!(h.counts(), &[3, 1, 0, 0, 3]);
        assert_eq!(h.total(), 7);
        assert_eq!(h.bin_bounds(1), (2.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn histogram_clamps_extreme_and_non_finite_values_explicitly() {
        // Regression: the bucket index was computed with a bare
        // `as usize` cast, which relied on saturating-cast semantics to
        // avoid wrapping on NaN / ±inf / huge quotients. The clamp is
        // now explicit; this pins the behaviour at every extreme.
        let h = Histogram::new(-5.0, 5.0, 4);
        assert_eq!(h.bin_of(f64::NEG_INFINITY), 0);
        assert_eq!(h.bin_of(f64::INFINITY), 3);
        assert_eq!(h.bin_of(f64::NAN), 0);
        assert_eq!(h.bin_of(-1e308), 0);
        assert_eq!(h.bin_of(1e308), 3);
        assert_eq!(h.bin_of(f64::MIN_POSITIVE), 2);
        // A degenerate-width histogram (lo ≈ hi) still cannot escape
        // the bin range even though the quotient overflows.
        let tiny = Histogram::new(0.0, f64::MIN_POSITIVE, 2);
        assert_eq!(tiny.bin_of(1.0), 1);
        assert_eq!(tiny.bin_of(-1.0), 0);
        // Adding the extremes never panics and lands in real bins.
        let mut h = Histogram::new(0.0, 1.0, 3);
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300] {
            h.add(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!(h.counts(), &[3, 0, 2]);
    }
}
