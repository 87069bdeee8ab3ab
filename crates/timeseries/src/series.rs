use serde::{Deserialize, Serialize};

use crate::{SampleInterval, TimeSeriesError, Timestamp};

/// A time series: strictly increasing timestamps with finite `f64` values.
///
/// This is the storage type for one measurement's monitoring data. Samples
/// must be appended in strictly increasing timestamp order and must be
/// finite; both invariants are enforced at insertion ([`TimeSeries::push`]).
///
/// # Example
///
/// ```
/// use gridwatch_timeseries::{TimeSeries, Timestamp};
///
/// let ts = TimeSeries::from_samples([(0, 1.0), (360, 2.0), (720, 4.0)])?;
/// assert_eq!(ts.len(), 3);
/// assert_eq!(ts.value_at(Timestamp::from_secs(360)), Some(2.0));
/// assert_eq!(ts.mean(), Some(7.0 / 3.0));
/// # Ok::<(), gridwatch_timeseries::TimeSeriesError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    timestamps: Vec<Timestamp>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Creates an empty series with capacity for `n` samples.
    pub fn with_capacity(n: usize) -> Self {
        TimeSeries {
            timestamps: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// Builds a series from `(seconds, value)` samples.
    ///
    /// # Errors
    ///
    /// Returns an error if timestamps are not strictly increasing or any
    /// value is non-finite.
    pub fn from_samples<I>(samples: I) -> Result<Self, TimeSeriesError>
    where
        I: IntoIterator<Item = (u64, f64)>,
    {
        let iter = samples.into_iter();
        let mut ts = TimeSeries::with_capacity(iter.size_hint().0);
        for (secs, value) in iter {
            ts.push(Timestamp::from_secs(secs), value)?;
        }
        Ok(ts)
    }

    /// Appends a sample.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::NonMonotonicTimestamp`] if `at` is not
    /// strictly after the last sample, and
    /// [`TimeSeriesError::NonFiniteValue`] if `value` is NaN or infinite.
    pub fn push(&mut self, at: Timestamp, value: f64) -> Result<(), TimeSeriesError> {
        if !value.is_finite() {
            return Err(TimeSeriesError::NonFiniteValue { at, value });
        }
        if let Some(&latest) = self.timestamps.last() {
            if at <= latest {
                return Err(TimeSeriesError::NonMonotonicTimestamp {
                    latest,
                    offered: at,
                });
            }
        }
        self.timestamps.push(at);
        self.values.push(value);
        Ok(())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// The sample timestamps, in increasing order.
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.timestamps
    }

    /// The sample values, parallel to [`TimeSeries::timestamps`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The first sample's timestamp, if any.
    pub fn start(&self) -> Option<Timestamp> {
        self.timestamps.first().copied()
    }

    /// The last sample's timestamp, if any.
    pub fn end(&self) -> Option<Timestamp> {
        self.timestamps.last().copied()
    }

    /// The value recorded exactly at `at`, if present.
    pub fn value_at(&self, at: Timestamp) -> Option<f64> {
        self.timestamps
            .binary_search(&at)
            .ok()
            .map(|i| self.values[i])
    }

    /// The most recent sample at or before `at`, if any.
    pub fn latest_at_or_before(&self, at: Timestamp) -> Option<(Timestamp, f64)> {
        let idx = match self.timestamps.binary_search(&at) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        Some((self.timestamps[idx], self.values[idx]))
    }

    /// Iterates over `(timestamp, value)` samples.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            inner: self.timestamps.iter().zip(self.values.iter()),
        }
    }

    /// Returns the sub-series with timestamps in `[start, end)`.
    pub fn slice(&self, start: Timestamp, end: Timestamp) -> TimeSeries {
        let lo = self.timestamps.partition_point(|&t| t < start);
        let hi = self.timestamps.partition_point(|&t| t < end);
        TimeSeries {
            timestamps: self.timestamps[lo..hi].to_vec(),
            values: self.values[lo..hi].to_vec(),
        }
    }

    /// Mean of all values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.len() as f64)
        }
    }

    /// Population variance of all values, or `None` if empty.
    pub fn variance(&self) -> Option<f64> {
        let mean = self.mean()?;
        let ss: f64 = self.values.iter().map(|v| (v - mean) * (v - mean)).sum();
        Some(ss / self.len() as f64)
    }

    /// Minimum value, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// Coefficient of variation (`stddev / |mean|`).
    ///
    /// Used by the paper's measurement-selection criterion ("the
    /// measurement should have high variance during the monitoring
    /// period"). Returns `None` for empty series or zero mean.
    pub fn coefficient_of_variation(&self) -> Option<f64> {
        let mean = self.mean()?;
        if mean == 0.0 {
            return None;
        }
        Some(self.variance()?.sqrt() / mean.abs())
    }

    /// Downsamples to one sample per `interval`, keeping the last sample in
    /// each interval-aligned bucket.
    pub fn resample(&self, interval: SampleInterval) -> TimeSeries {
        let mut out = TimeSeries::new();
        let step = interval.as_secs();
        let mut current_bucket: Option<(u64, Timestamp, f64)> = None;
        for (t, v) in self.iter() {
            let bucket = t.as_secs() / step;
            match current_bucket {
                Some((b, _, _)) if b == bucket => {
                    current_bucket = Some((bucket, t, v));
                }
                Some((_, bt, bv)) => {
                    #[expect(clippy::expect_used, reason = "buckets rise; values are finite")]
                    out.push(Timestamp::from_secs(bt.as_secs() / step * step), bv)
                        .expect("bucket starts are strictly increasing and values finite");
                    current_bucket = Some((bucket, t, v));
                }
                None => current_bucket = Some((bucket, t, v)),
            }
        }
        if let Some((_, bt, bv)) = current_bucket {
            #[expect(clippy::expect_used, reason = "the last bucket starts after the rest")]
            out.push(Timestamp::from_secs(bt.as_secs() / step * step), bv)
                .expect("final bucket start is after all previous and value finite");
        }
        out
    }
}

impl<'a> IntoIterator for &'a TimeSeries {
    type Item = (Timestamp, f64);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over a series' `(timestamp, value)` samples; see
/// [`TimeSeries::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    inner: std::iter::Zip<std::slice::Iter<'a, Timestamp>, std::slice::Iter<'a, f64>>,
}

impl Iterator for Iter<'_> {
    type Item = (Timestamp, f64);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|(&t, &v)| (t, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        TimeSeries::from_samples([(0, 1.0), (360, 2.0), (720, 4.0), (1080, 8.0)]).unwrap()
    }

    #[test]
    fn push_enforces_monotonicity() {
        let mut ts = series();
        let err = ts.push(Timestamp::from_secs(1080), 1.0).unwrap_err();
        assert!(matches!(err, TimeSeriesError::NonMonotonicTimestamp { .. }));
        let err = ts.push(Timestamp::from_secs(100), 1.0).unwrap_err();
        assert!(matches!(err, TimeSeriesError::NonMonotonicTimestamp { .. }));
        ts.push(Timestamp::from_secs(1081), 1.0).unwrap();
    }

    #[test]
    fn push_rejects_non_finite() {
        let mut ts = TimeSeries::new();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = ts.push(Timestamp::from_secs(0), bad).unwrap_err();
            assert!(matches!(err, TimeSeriesError::NonFiniteValue { .. }));
        }
        assert!(ts.is_empty());
    }

    #[test]
    fn value_lookup() {
        let ts = series();
        assert_eq!(ts.value_at(Timestamp::from_secs(720)), Some(4.0));
        assert_eq!(ts.value_at(Timestamp::from_secs(721)), None);
    }

    #[test]
    fn latest_at_or_before() {
        let ts = series();
        assert_eq!(
            ts.latest_at_or_before(Timestamp::from_secs(800)),
            Some((Timestamp::from_secs(720), 4.0))
        );
        assert_eq!(
            ts.latest_at_or_before(Timestamp::from_secs(720)),
            Some((Timestamp::from_secs(720), 4.0))
        );
        assert_eq!(
            ts.latest_at_or_before(Timestamp::EPOCH),
            Some((Timestamp::EPOCH, 1.0))
        );
        let empty = TimeSeries::new();
        assert_eq!(empty.latest_at_or_before(Timestamp::from_secs(5)), None);
    }

    #[test]
    fn slicing_is_half_open() {
        let ts = series();
        let s = ts.slice(Timestamp::from_secs(360), Timestamp::from_secs(1080));
        assert_eq!(s.len(), 2);
        assert_eq!(s.values(), &[2.0, 4.0]);
        assert!(ts
            .slice(Timestamp::from_secs(2000), Timestamp::from_secs(3000))
            .is_empty());
    }

    #[test]
    fn summary_statistics() {
        let ts = series();
        assert_eq!(ts.mean(), Some(15.0 / 4.0));
        assert_eq!(ts.min(), Some(1.0));
        assert_eq!(ts.max(), Some(8.0));
        let var = ts.variance().unwrap();
        assert!(var > 0.0);
        assert!(ts.coefficient_of_variation().unwrap() > 0.0);
        assert_eq!(TimeSeries::new().mean(), None);
    }

    #[test]
    fn resample_keeps_last_per_bucket() {
        let ts = TimeSeries::from_samples([(0, 1.0), (100, 2.0), (360, 3.0), (400, 4.0)]).unwrap();
        let r = ts.resample(SampleInterval::SIX_MINUTES);
        assert_eq!(r.len(), 2);
        assert_eq!(r.values(), &[2.0, 4.0]);
        assert_eq!(
            r.timestamps(),
            &[Timestamp::from_secs(0), Timestamp::from_secs(360)]
        );
    }

    #[test]
    fn iteration_matches_storage() {
        let ts = series();
        let collected: Vec<_> = ts.iter().collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[2], (Timestamp::from_secs(720), 4.0));
        let via_ref: Vec<_> = (&ts).into_iter().collect();
        assert_eq!(collected, via_ref);
    }

    #[test]
    fn serde_roundtrip() {
        let ts = series();
        let json = serde_json::to_string(&ts).unwrap();
        let back: TimeSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(ts, back);
    }
}
