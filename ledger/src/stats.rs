//! Order statistics the ledger reports: medians, quartiles, percentiles
//! under the ten-samples-beyond rule, and per-window throughput.

use std::time::Duration;

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, one slow sample moves it.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count). Zero for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value at quantile `q` of `values` by nearest rank: the smallest
/// value with at least `q` of the values at or below it. Zero for an
/// empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile, exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives
/// them. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// One reported percentile of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// The percentile actually reported, as a fraction: `wanted`, or
    /// nearer the median when the samples were too few for it.
    pub percentile: f64,
}

/// The `wanted` percentile of sorted samples, moved towards the median
/// as far as needed to keep [`MIN_BEYOND`] samples beyond it (above it,
/// and for a percentile under the median below it too). `None` when not
/// even the median has that many.
pub fn tail(sorted: &[f64], wanted: f64) -> Option<Tail> {
    let n = sorted.len();
    if n < 2 * MIN_BEYOND {
        return None;
    }
    // The epsilon keeps 0.9 * 100 from rounding up to rank 91.
    let rank = ((wanted * n as f64 - 1e-9).ceil() as usize).max(1);
    let kept = rank.max(MIN_BEYOND + 1).min(n - MIN_BEYOND);
    Some(Tail {
        value: sorted[kept - 1],
        percentile: if kept == rank {
            wanted
        } else {
            kept as f64 / n as f64
        },
    })
}

/// Throughput of each of `windows` equal-count windows of a report
/// stream that began at time zero, in units per second. `arrivals[k]` is
/// when report `k` came in and `units[k]` what it counts for (1 for
/// snapshots, its pair scores for pairs). Windows that took no time are
/// left out.
pub fn window_rates(arrivals: &[Duration], units: &[f64], windows: usize) -> Vec<f64> {
    let per = arrivals.len() / windows.max(1);
    if per == 0 {
        return Vec::new();
    }
    let mut rates = Vec::with_capacity(windows);
    let mut start = Duration::ZERO;
    for w in 0..windows {
        let range = w * per..(w + 1) * per;
        let end = arrivals[range.end - 1];
        let secs = end.saturating_sub(start).as_secs_f64();
        if secs > 0.0 {
            rates.push(units[range].iter().sum::<f64>() / secs);
        }
        start = end;
    }
    rates
}

/// `(max − min) / median` of `values`: how far apart the windows of one
/// run were.
pub fn relative_range(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.is_empty() || mid == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let fifteen: Vec<f64> = (1..=15).rev().map(f64::from).collect();
        assert_eq!(quantile(&fifteen, 0.75), 12.0);
        assert_eq!(quantile(&fifteen, 0.5), 8.0);
        assert_eq!(quantile(&fifteen, 1.0), 15.0);
        assert_eq!(quantile(&[0.5, 0.9, 0.4, 0.6, 30.0], 0.25), 0.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn never_reports_a_percentile_with_fewer_than_ten_samples_beyond_it() {
        let samples = |n: usize| (1..=n).map(|k| k as f64).collect::<Vec<_>>();
        // p99 needs 1000 samples, p90 needs 100, p50 needs 20.
        assert_eq!(tail(&samples(1000), 0.99).unwrap().value, 990.0);
        assert_eq!(tail(&samples(100), 0.90).unwrap().value, 90.0);
        assert_eq!(tail(&samples(20), 0.50).unwrap().value, 10.0);
        assert_eq!(tail(&samples(19), 0.50), None);
        // Too few for p99: the report says which percentile it is.
        let lowered = tail(&samples(200), 0.99).unwrap();
        assert_eq!(lowered.value, 190.0);
        assert_eq!(lowered.percentile, 0.95);
        // The low side likewise: p10 needs 110 samples.
        assert_eq!(tail(&samples(110), 0.10).unwrap().value, 11.0);
        let raised = tail(&samples(50), 0.10).unwrap();
        assert_eq!((raised.value, raised.percentile), (11.0, 0.22));
        for n in 20..2500 {
            let sorted = samples(n);
            for wanted in [0.5, 0.9, 0.99, 0.999] {
                let t = tail(&sorted, wanted).unwrap();
                let beyond = sorted.iter().filter(|&&v| v > t.value).count();
                assert!(
                    beyond >= MIN_BEYOND,
                    "n={n} wanted={wanted} beyond={beyond}"
                );
                assert!(t.percentile <= wanted);
            }
            for wanted in [0.01, 0.1, 0.25] {
                let t = tail(&sorted, wanted).unwrap();
                let below = sorted.iter().filter(|&&v| v < t.value).count();
                let above = sorted.iter().filter(|&&v| v > t.value).count();
                assert!(
                    above >= MIN_BEYOND && (below >= MIN_BEYOND || n == 20),
                    "n={n} wanted={wanted} below={below} above={above}"
                );
                assert!(t.percentile >= wanted);
            }
        }
    }

    #[test]
    fn window_throughput_ignores_a_stalled_window() {
        // 5 windows of 2 reports; the third window stalls for a second.
        let ms = Duration::from_millis;
        let arrivals = [10, 20, 30, 40, 1030, 1040, 1050, 1060, 1070, 1080].map(ms);
        let rates = window_rates(&arrivals, &[1.0; 10], 5);
        assert_eq!(rates.len(), 5);
        assert!((rates[0] - 100.0).abs() < 1e-9);
        assert!((rates[2] - 2.0).abs() < 1e-9);
        assert!((quantile(&rates, 0.75) - 100.0).abs() < 1e-9);
        let mean = rates.iter().sum::<f64>() / 5.0;
        assert!(mean < 81.0, "the mean would have moved: {mean}");
        // Weighted by units: pairs per report.
        let weighted = window_rates(&arrivals, &[40.0; 10], 5);
        assert!((quantile(&weighted, 0.75) - 4000.0).abs() < 1e-6);
        assert!(relative_range(&rates) > 0.9);
        assert!(window_rates(&arrivals[..3], &[1.0; 3], 5).is_empty());
    }
}
