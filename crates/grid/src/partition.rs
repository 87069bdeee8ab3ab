use serde::{Deserialize, Serialize};

use crate::Interval;

/// An ordered, contiguous partition of one dimension into half-open
/// intervals.
///
/// Invariants (enforced at construction and under extension):
/// * at least one interval;
/// * intervals are contiguous: `intervals[k].upper == intervals[k+1].lower`.
///
/// The partition supports the paper's online boundary extension: when data
/// drift slightly past the bounds, new intervals of the average historical
/// width are appended (Section 4.1, "Update").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimensionPartition {
    intervals: Vec<Interval>,
    /// Average interval width at initialization (`r_avg` in the paper);
    /// newly appended intervals use this width, so one noisy online batch
    /// cannot degrade the partition's resolution.
    initial_avg_width: f64,
}

impl DimensionPartition {
    /// The most intervals one [`DimensionPartition::extend_to`] call may
    /// add on each side. Growth-policy reach (`λ · r_avg`) needs at most
    /// `⌈λ⌉ + 1` intervals, so any λ below this cap is unaffected.
    pub const MAX_EXTENSION_INTERVALS: usize = 65_536;

    /// Creates a partition from contiguous intervals.
    ///
    /// # Panics
    ///
    /// Panics if `intervals` is empty or not contiguous in order.
    pub fn new(intervals: Vec<Interval>) -> Self {
        assert!(
            !intervals.is_empty(),
            "partition needs at least one interval"
        );
        // Exact equality is the contiguity invariant: adjacent intervals
        // must share their boundary bit-for-bit, or `locate` could miss or
        // double-count a point.
        #[expect(clippy::float_cmp, reason = "the contiguity invariant is exact")]
        for w in intervals.windows(2) {
            assert!(
                w[0].upper() == w[1].lower(),
                "partition intervals must be contiguous: {} then {}",
                w[0],
                w[1]
            );
        }
        let avg = (intervals[intervals.len() - 1].upper() - intervals[0].lower())
            / intervals.len() as f64;
        DimensionPartition {
            intervals,
            initial_avg_width: avg,
        }
    }

    /// Creates `count` equal-width intervals over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `lo >= hi`.
    pub fn equal_width(lo: f64, hi: f64, count: usize) -> Self {
        assert!(count > 0, "partition needs at least one interval");
        assert!(lo < hi, "partition range must be non-empty");
        let w = (hi - lo) / count as f64;
        let intervals = (0..count)
            .map(|k| {
                let lower = lo + k as f64 * w;
                // Use the exact upper bound for the last interval to avoid
                // floating-point gaps.
                let upper = if k == count - 1 {
                    hi
                } else {
                    lo + (k + 1) as f64 * w
                };
                Interval::new(lower, upper)
            })
            .collect();
        DimensionPartition::new(intervals)
    }

    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.intervals.len()
    }

    /// Whether the partition is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.intervals.is_empty()
    }

    /// The intervals, in increasing order.
    pub fn intervals(&self) -> &[Interval] {
        &self.intervals
    }

    /// The partition's inclusive lower bound.
    pub fn lower(&self) -> f64 {
        self.intervals[0].lower()
    }

    /// The partition's exclusive upper bound.
    pub fn upper(&self) -> f64 {
        // Non-empty by construction, so direct indexing cannot fail.
        self.intervals[self.intervals.len() - 1].upper()
    }

    /// The average interval width *at initialization* (`r_avg`).
    pub fn average_width(&self) -> f64 {
        self.initial_avg_width
    }

    /// The index of the interval containing `value`, or `None` if out of
    /// bounds.
    pub fn locate(&self, value: f64) -> Option<usize> {
        if !(value >= self.lower() && value < self.upper()) {
            return None;
        }
        // Binary search over lower bounds: the containing interval is the
        // last one whose lower bound is <= value.
        let idx = self
            .intervals
            .partition_point(|iv| iv.lower() <= value)
            .saturating_sub(1);
        debug_assert!(self.intervals[idx].contains(value));
        Some(idx)
    }

    /// Extends the partition so that `value` becomes contained, appending
    /// intervals of width [`DimensionPartition::average_width`] below or
    /// above as needed. Returns the number of intervals prepended and
    /// appended: `(below, above)`.
    ///
    /// The caller decides *whether* extension is allowed (the `λ · r_avg`
    /// proximity rule lives in [`crate::GrowthPolicy`]); this method only
    /// performs it.
    ///
    /// Non-finite values, and finite values more than
    /// [`DimensionPartition::MAX_EXTENSION_INTERVALS`] average widths
    /// beyond a bound, leave the partition unchanged and return
    /// `(0, 0)`: `±inf` would otherwise append intervals forever, `NaN`
    /// would silently no-op by comparison luck, and a huge finite
    /// outlier (say `1e300`) would allocate an interval per average
    /// width between the bound and the value. The `λ · r_avg` reach rule
    /// keeps every policy-gated caller far below the cap.
    pub fn extend_to(&mut self, value: f64) -> (usize, usize) {
        if !value.is_finite() {
            return (0, 0);
        }
        let w = self.initial_avg_width;
        let cap = Self::MAX_EXTENSION_INTERVALS as f64 * w;
        if value < self.lower() - cap || value >= self.upper() + cap {
            return (0, 0);
        }
        let mut below = 0;
        while value < self.lower() {
            let lo = self.lower();
            self.intervals.insert(0, Interval::new(lo - w, lo));
            below += 1;
        }
        let mut above = 0;
        while value >= self.upper() {
            let hi = self.upper();
            self.intervals.push(Interval::new(hi, hi + w));
            above += 1;
        }
        crate::invariants::check_partition(self);
        (below, above)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_width_partition() {
        let p = DimensionPartition::equal_width(0.0, 10.0, 5);
        assert_eq!(p.len(), 5);
        assert_eq!(p.lower(), 0.0);
        assert_eq!(p.upper(), 10.0);
        assert_eq!(p.average_width(), 2.0);
        assert_eq!(p.locate(0.0), Some(0));
        assert_eq!(p.locate(9.999), Some(4));
        assert_eq!(p.locate(10.0), None);
        assert_eq!(p.locate(-0.1), None);
    }

    #[test]
    fn locate_respects_uneven_intervals() {
        let p = DimensionPartition::new(vec![
            Interval::new(0.0, 1.0),
            Interval::new(1.0, 5.0),
            Interval::new(5.0, 6.0),
        ]);
        assert_eq!(p.locate(0.5), Some(0));
        assert_eq!(p.locate(1.0), Some(1));
        assert_eq!(p.locate(4.999), Some(1));
        assert_eq!(p.locate(5.0), Some(2));
        assert_eq!(p.average_width(), 2.0);
    }

    #[test]
    fn extend_above_and_below() {
        let mut p = DimensionPartition::equal_width(0.0, 4.0, 2); // r_avg = 2
        let (below, above) = p.extend_to(7.5);
        assert_eq!((below, above), (0, 2)); // 4..6, 6..8
        assert_eq!(p.upper(), 8.0);
        assert_eq!(p.locate(7.5), Some(3));

        let (below, above) = p.extend_to(-3.0);
        assert_eq!((below, above), (2, 0)); // -2..0, -4..-2
        assert_eq!(p.lower(), -4.0);
        assert_eq!(p.locate(-3.0), Some(0));
        // All intervals still contiguous.
        for w in p.intervals().windows(2) {
            assert_eq!(w[0].upper(), w[1].lower());
        }
    }

    #[test]
    fn extend_to_contained_value_is_noop() {
        let mut p = DimensionPartition::equal_width(0.0, 4.0, 2);
        let before = p.clone();
        assert_eq!(p.extend_to(1.0), (0, 0));
        assert_eq!(p, before);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn gaps_rejected() {
        DimensionPartition::new(vec![Interval::new(0.0, 1.0), Interval::new(2.0, 3.0)]);
    }

    #[test]
    fn non_finite_values_leave_the_partition_unchanged() {
        // Regression: `extend_to(inf)` looped forever (the bound can
        // never catch up with an infinite value) and `extend_to(-inf)`
        // additionally allocated an interval per iteration.
        let mut p = DimensionPartition::equal_width(0.0, 4.0, 2);
        let before = p.clone();
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(p.extend_to(v), (0, 0), "value {v}");
            assert_eq!(p, before, "value {v} must not modify the partition");
        }
    }

    #[test]
    fn huge_values_are_refused_instead_of_allocating_unboundedly() {
        // 1e300 is ~5e299 average widths beyond the bound; extending to
        // it would need that many intervals.
        let mut p = DimensionPartition::equal_width(0.0, 4.0, 2);
        let before = p.clone();
        assert_eq!(p.extend_to(1e300), (0, 0));
        assert_eq!(p.extend_to(-1e300), (0, 0));
        assert_eq!(p, before);
        // Values inside the cap still extend normally.
        let (below, above) = p.extend_to(20.0);
        assert_eq!((below, above), (0, 9));
        assert!(p.locate(20.0).is_some());
    }

    #[test]
    fn average_width_is_fixed_at_initialization() {
        let mut p = DimensionPartition::equal_width(0.0, 4.0, 4); // r_avg = 1
        p.extend_to(10.0);
        assert_eq!(p.average_width(), 1.0);
    }
}
