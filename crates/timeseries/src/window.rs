use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::stats::Welford;
use crate::{TimeSeries, Timestamp};

/// A fixed-capacity sliding window over a value stream, maintaining running
/// statistics of the most recent `capacity` samples.
///
/// Used by detectors that compare the current behaviour against a recent
/// baseline (e.g. the z-score baseline detector).
///
/// # Example
///
/// ```
/// use gridwatch_timeseries::SlidingWindow;
///
/// let mut w = SlidingWindow::new(3);
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     w.push(v);
/// }
/// assert_eq!(w.len(), 3);
/// assert_eq!(w.mean(), Some(3.0)); // window holds 2,3,4
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlidingWindow {
    capacity: usize,
    buf: VecDeque<f64>,
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sliding window capacity must be positive");
        SlidingWindow {
            capacity,
            buf: VecDeque::with_capacity(capacity),
        }
    }

    /// Pushes a sample, evicting the oldest if full. Returns the evicted
    /// sample, if any.
    pub fn push(&mut self, value: f64) -> Option<f64> {
        let evicted = if self.buf.len() == self.capacity {
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(value);
        evicted
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Whether the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// Mean of the samples currently in the window.
    pub fn mean(&self) -> Option<f64> {
        if self.buf.is_empty() {
            None
        } else {
            Some(self.buf.iter().sum::<f64>() / self.buf.len() as f64)
        }
    }

    /// Population standard deviation of the window contents.
    pub fn stddev(&self) -> Option<f64> {
        let mut w = Welford::new();
        for &v in &self.buf {
            w.update(v);
        }
        w.population_stddev()
    }

    /// Iterates over the window contents, oldest first.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.buf.iter().copied()
    }
}

/// A series of per-bucket means, where buckets are fixed spans of time
/// (e.g. the 6-hour buckets of the paper's Figures 12 and 16).
///
/// # Example
///
/// ```
/// use gridwatch_timeseries::{BucketSeries, TimeSeries, Timestamp};
///
/// let ts = TimeSeries::from_samples([(0, 1.0), (100, 3.0), (3600, 10.0)])?;
/// let buckets = BucketSeries::from_series(&ts, 3600);
/// assert_eq!(buckets.len(), 2);
/// assert_eq!(buckets.mean_of(0), Some(2.0));
/// assert_eq!(buckets.mean_of(1), Some(10.0));
/// # Ok::<(), gridwatch_timeseries::TimeSeriesError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BucketSeries {
    bucket_secs: u64,
    /// `(bucket_index, welford)` for buckets that received samples,
    /// in increasing bucket order.
    buckets: Vec<(u64, Welford)>,
}

impl BucketSeries {
    /// Buckets a series into spans of `bucket_secs` seconds, averaging the
    /// samples that fall in each span.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_secs == 0`.
    pub fn from_series(series: &TimeSeries, bucket_secs: u64) -> Self {
        Self::from_iter_inner(series.iter(), bucket_secs)
    }

    /// Buckets raw `(timestamp, value)` samples.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_secs == 0`.
    pub fn from_samples<I>(samples: I, bucket_secs: u64) -> Self
    where
        I: IntoIterator<Item = (Timestamp, f64)>,
    {
        Self::from_iter_inner(samples.into_iter(), bucket_secs)
    }

    fn from_iter_inner<I>(samples: I, bucket_secs: u64) -> Self
    where
        I: Iterator<Item = (Timestamp, f64)>,
    {
        assert!(bucket_secs > 0, "bucket span must be positive");
        let mut out = BucketSeries {
            bucket_secs,
            buckets: Vec::new(),
        };
        for (t, v) in samples {
            let idx = t.as_secs() / bucket_secs;
            match out.buckets.last_mut() {
                Some((last_idx, w)) if *last_idx == idx => w.update(v),
                _ => {
                    let mut w = Welford::new();
                    w.update(v);
                    out.buckets.push((idx, w));
                }
            }
        }
        out
    }

    /// Number of non-empty buckets.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether there are no buckets.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Mean of the `i`-th non-empty bucket (in time order).
    pub fn mean_of(&self, i: usize) -> Option<f64> {
        self.buckets.get(i).and_then(|(_, w)| w.mean())
    }

    /// Iterates `(bucket_start_timestamp, mean)` pairs.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Timestamp, f64)> + '_ {
        self.buckets.iter().map(|(idx, w)| {
            (
                Timestamp::from_secs(idx * self.bucket_secs),
                #[expect(clippy::expect_used, reason = "buckets are only created non-empty")]
                w.mean().expect("buckets are only created non-empty"),
            )
        })
    }

    /// The means as a plain vector, in time order.
    pub fn means(&self) -> Vec<f64> {
        self.iter().map(|(_, m)| m).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_evicts_oldest() {
        let mut w = SlidingWindow::new(2);
        assert_eq!(w.push(1.0), None);
        assert_eq!(w.push(2.0), None);
        assert!(w.is_full());
        assert_eq!(w.push(3.0), Some(1.0));
        let contents: Vec<_> = w.iter().collect();
        assert_eq!(contents, vec![2.0, 3.0]);
    }

    #[test]
    fn window_stats() {
        let mut w = SlidingWindow::new(10);
        assert_eq!(w.mean(), None);
        for v in [2.0, 4.0, 6.0] {
            w.push(v);
        }
        assert_eq!(w.mean(), Some(4.0));
        let sd = w.stddev().unwrap();
        assert!((sd - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn window_rejects_zero_capacity() {
        SlidingWindow::new(0);
    }

    #[test]
    fn buckets_skip_empty_spans() {
        let ts = TimeSeries::from_samples([(0, 2.0), (10, 4.0), (7200, 9.0)]).unwrap();
        let b = BucketSeries::from_series(&ts, 3600);
        assert_eq!(b.len(), 2);
        let pairs: Vec<_> = b.iter().collect();
        assert_eq!(pairs[0], (Timestamp::from_secs(0), 3.0));
        assert_eq!(pairs[1], (Timestamp::from_secs(7200), 9.0));
        assert_eq!(b.means(), vec![3.0, 9.0]);
    }

    #[test]
    fn six_hour_buckets_of_one_day() {
        // 240 six-minute samples of constant 1.0 -> 4 buckets of mean 1.0.
        let samples = (0..240u64).map(|k| (k * 360, 1.0));
        let ts = TimeSeries::from_samples(samples).unwrap();
        let b = BucketSeries::from_series(&ts, 6 * 3600);
        assert_eq!(b.len(), 4);
        assert!(b.means().iter().all(|&m| m == 1.0));
    }
}
