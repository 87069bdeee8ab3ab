use gridwatch_timeseries::stats::Histogram;
use gridwatch_timeseries::Point2;
use serde::{Deserialize, Serialize};

use crate::{DimensionPartition, GridError, GridStructure, Interval};

/// Configuration for the adaptive grid construction (Section 4.1 of the
/// paper).
///
/// The construction divides each dimension into `units_per_dimension` fine
/// equal-width units, counts the history points per unit, and merges
/// adjacent units into intervals when their counts are similar (relative
/// difference at most `merge_similarity`) or both sparse (below
/// `density_threshold_factor` times the average unit density). Dense areas
/// therefore end up represented by more cells. If a dimension's unit
/// counts are near-uniform (coefficient of variation below
/// `uniform_cv_threshold`), the procedure is skipped and the dimension is
/// split into `uniform_intervals` equal-width intervals, exactly as the
/// paper prescribes for equal-distributed data.
///
/// # Example
///
/// ```
/// use gridwatch_grid::GridConfig;
///
/// let config = GridConfig::builder()
///     .units_per_dimension(80)
///     .merge_similarity(0.25)
///     .max_intervals(20)
///     .build()?;
/// assert_eq!(config.units_per_dimension, 80);
/// # Ok::<(), gridwatch_grid::GridError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridConfig {
    /// Number of fine units each dimension is initially divided into
    /// (the unit length `z^a` is the dimension's range divided by this).
    pub units_per_dimension: usize,
    /// Maximum relative difference between adjacent unit counts for them
    /// to be merged into one interval.
    pub merge_similarity: f64,
    /// Units whose count is below this fraction of the average unit count
    /// are "sparse"; adjacent sparse units merge unconditionally.
    pub density_threshold_factor: f64,
    /// If the coefficient of variation of unit counts is below this, the
    /// dimension is considered equal-distributed and split uniformly.
    pub uniform_cv_threshold: f64,
    /// Interval count used for the uniform fallback.
    pub uniform_intervals: usize,
    /// Hard cap on intervals per dimension; if adaptive merging produces
    /// more, the merge tolerance is relaxed by re-bucketing to this many
    /// equal-count intervals.
    pub max_intervals: usize,
    /// Lower bound on intervals per dimension.
    pub min_intervals: usize,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            units_per_dimension: 60,
            merge_similarity: 0.30,
            density_threshold_factor: 0.25,
            uniform_cv_threshold: 0.15,
            uniform_intervals: 10,
            max_intervals: 32,
            min_intervals: 2,
        }
    }
}

impl GridConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> GridConfigBuilder {
        GridConfigBuilder {
            config: GridConfig::default(),
        }
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::InvalidConfig`] when any parameter is out of
    /// range.
    pub fn validate(&self) -> Result<(), GridError> {
        let fail = |reason: &str| {
            Err(GridError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if self.units_per_dimension < 2 {
            return fail("units_per_dimension must be at least 2");
        }
        if !(0.0..=1.0).contains(&self.merge_similarity) {
            return fail("merge_similarity must be in [0, 1]");
        }
        if !(0.0..=1.0).contains(&self.density_threshold_factor) {
            return fail("density_threshold_factor must be in [0, 1]");
        }
        if self.uniform_cv_threshold < 0.0 {
            return fail("uniform_cv_threshold must be non-negative");
        }
        if self.min_intervals == 0 {
            return fail("min_intervals must be positive");
        }
        if self.uniform_intervals < self.min_intervals {
            return fail("uniform_intervals must be at least min_intervals");
        }
        if self.max_intervals < self.min_intervals {
            return fail("max_intervals must be at least min_intervals");
        }
        if self.max_intervals > self.units_per_dimension {
            return fail("max_intervals cannot exceed units_per_dimension");
        }
        Ok(())
    }
}

/// Builder for [`GridConfig`]; see [`GridConfig::builder`].
#[derive(Debug, Clone)]
pub struct GridConfigBuilder {
    config: GridConfig,
}

impl GridConfigBuilder {
    /// Sets the number of fine units per dimension.
    pub fn units_per_dimension(mut self, units: usize) -> Self {
        self.config.units_per_dimension = units;
        self
    }

    /// Sets the merge similarity tolerance.
    pub fn merge_similarity(mut self, s: f64) -> Self {
        self.config.merge_similarity = s;
        self
    }

    /// Sets the sparse-density threshold factor.
    pub fn density_threshold_factor(mut self, f: f64) -> Self {
        self.config.density_threshold_factor = f;
        self
    }

    /// Sets the uniform-fallback CV threshold.
    pub fn uniform_cv_threshold(mut self, cv: f64) -> Self {
        self.config.uniform_cv_threshold = cv;
        self
    }

    /// Sets the uniform-fallback interval count.
    pub fn uniform_intervals(mut self, n: usize) -> Self {
        self.config.uniform_intervals = n;
        self
    }

    /// Sets the per-dimension interval cap.
    pub fn max_intervals(mut self, n: usize) -> Self {
        self.config.max_intervals = n;
        self
    }

    /// Sets the per-dimension interval floor.
    pub fn min_intervals(mut self, n: usize) -> Self {
        self.config.min_intervals = n;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::InvalidConfig`] when any parameter is out of
    /// range.
    pub fn build(self) -> Result<GridConfig, GridError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Builds [`GridStructure`]s from history data snapshots.
///
/// # Example
///
/// ```
/// use gridwatch_grid::{GridBuilder, GridConfig};
/// use gridwatch_timeseries::Point2;
///
/// // Bimodal data: dense near 0 and near 100.
/// let pts: Vec<Point2> = (0..200)
///     .map(|k| {
///         let base = if k % 2 == 0 { 0.0 } else { 100.0 };
///         Point2::new(base + (k % 10) as f64, base + (k % 7) as f64)
///     })
///     .collect();
/// let grid = GridBuilder::new(GridConfig::default()).build(&pts)?;
/// assert!(grid.locate(pts[0]).is_some());
/// # Ok::<(), gridwatch_grid::GridError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GridBuilder {
    config: GridConfig,
}

impl GridBuilder {
    /// Creates a builder with the given configuration.
    pub fn new(config: GridConfig) -> Self {
        GridBuilder { config }
    }

    /// The builder's configuration.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// Builds a grid from history points.
    ///
    /// # Errors
    ///
    /// * [`GridError::EmptyHistory`] if `points` is empty.
    /// * [`GridError::DegenerateDimension`] if either coordinate has zero
    ///   spread.
    /// * [`GridError::InvalidConfig`] if the configuration is invalid.
    pub fn build(&self, points: &[Point2]) -> Result<GridStructure, GridError> {
        self.config.validate()?;
        if points.is_empty() {
            return Err(GridError::EmptyHistory);
        }
        let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
        let px = self.build_dimension(&xs, 0)?;
        let py = self.build_dimension(&ys, 1)?;
        Ok(GridStructure::new(px, py))
    }

    /// Discretizes one dimension adaptively; see [`GridConfig`] for the
    /// algorithm.
    fn build_dimension(
        &self,
        values: &[f64],
        dimension: usize,
    ) -> Result<DimensionPartition, GridError> {
        let cfg = &self.config;
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // Exact equality of the fold min and max means every sample is
        // the very same value — the one case a grid cannot be built for.
        #[expect(clippy::float_cmp, reason = "only identical samples are degenerate")]
        if lo == hi {
            return Err(GridError::DegenerateDimension {
                dimension,
                value: lo,
            });
        }
        // Pad the upper bound so the maximum sample is contained in the
        // half-open range.
        let span = hi - lo;
        let hi = hi + span * 1e-9 + f64::EPSILON;

        let mut hist = Histogram::new(lo, hi, cfg.units_per_dimension);
        for &v in values {
            hist.add(v);
        }

        if unit_count_cv(hist.counts()) < cfg.uniform_cv_threshold {
            // Equal-distributed data: "we ignore the above procedure and
            // simply divide the dimension into equal-sized intervals".
            return Ok(DimensionPartition::equal_width(
                lo,
                hi,
                cfg.uniform_intervals,
            ));
        }

        let groups = merge_units(
            hist.counts(),
            cfg.merge_similarity,
            cfg.density_threshold_factor,
        );

        let intervals = if groups.len() > cfg.max_intervals {
            // Too fine: fall back to equal-frequency bucketing at the cap,
            // which still adapts to density but respects the budget.
            equal_frequency_bounds(values, lo, hi, cfg.max_intervals)
        } else if groups.len() < cfg.min_intervals {
            return Ok(DimensionPartition::equal_width(lo, hi, cfg.min_intervals));
        } else {
            // Convert unit-index groups to intervals.
            let w = hist.bin_width();
            groups
                .iter()
                .map(|&(start, end)| {
                    let a = lo + start as f64 * w;
                    let b = if end == cfg.units_per_dimension - 1 {
                        hi
                    } else {
                        lo + (end + 1) as f64 * w
                    };
                    Interval::new(a, b)
                })
                .collect()
        };
        Ok(DimensionPartition::new(intervals))
    }
}

/// Coefficient of variation of unit counts (0 for perfectly uniform).
fn unit_count_cv(counts: &[u64]) -> f64 {
    let n = counts.len() as f64;
    let mean = counts.iter().sum::<u64>() as f64 / n;
    if crate::float::approx_zero(mean) {
        return 0.0;
    }
    let var = counts
        .iter()
        .map(|&c| (c as f64 - mean).powi(2))
        .sum::<f64>()
        / n;
    var.sqrt() / mean
}

/// Greedy MAFIA-style merge: scan adjacent units, grouping while the next
/// unit's count is within `similarity` relative difference of the current
/// group's running average, or both are below the sparse threshold.
/// Returns inclusive `(start_unit, end_unit)` ranges.
fn merge_units(counts: &[u64], similarity: f64, density_factor: f64) -> Vec<(usize, usize)> {
    let avg = counts.iter().sum::<u64>() as f64 / counts.len() as f64;
    let sparse = avg * density_factor;
    let mut groups: Vec<(usize, usize)> = Vec::new();
    let mut start = 0usize;
    let mut group_sum = counts[0] as f64;
    for (i, &c) in counts.iter().enumerate().skip(1) {
        let group_len = (i - start) as f64;
        let group_avg = group_sum / group_len;
        let c = c as f64;
        let both_sparse = group_avg <= sparse && c <= sparse;
        let denom = group_avg.max(c).max(1.0);
        let similar = (group_avg - c).abs() / denom <= similarity;
        if both_sparse || similar {
            group_sum += c;
        } else {
            groups.push((start, i - 1));
            start = i;
            group_sum = c;
        }
    }
    groups.push((start, counts.len() - 1));
    groups
}

/// Equal-frequency interval boundaries: `k` intervals over `[lo, hi)` with
/// roughly equal point counts.
fn equal_frequency_bounds(values: &[f64], lo: f64, hi: f64, k: usize) -> Vec<Interval> {
    let mut sorted = values.to_vec();
    #[expect(clippy::expect_used, reason = "training values are screened finite")]
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let mut bounds = vec![lo];
    for q in 1..k {
        let idx = q * sorted.len() / k;
        let v = sorted[idx.min(sorted.len() - 1)];
        #[expect(clippy::expect_used, reason = "`bounds` starts with `lo`")]
        let last = *bounds.last().expect("non-empty");
        if v > last && v < hi {
            bounds.push(v);
        }
    }
    bounds.push(hi);
    bounds
        .windows(2)
        .map(|w| Interval::new(w[0], w[1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        GridConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_rejects_bad_parameters() {
        assert!(GridConfig::builder()
            .units_per_dimension(1)
            .build()
            .is_err());
        assert!(GridConfig::builder().merge_similarity(1.5).build().is_err());
        assert!(GridConfig::builder().min_intervals(0).build().is_err());
        assert!(GridConfig::builder()
            .max_intervals(100)
            .units_per_dimension(50)
            .build()
            .is_err());
    }

    #[test]
    fn empty_history_rejected() {
        let err = GridBuilder::new(GridConfig::default())
            .build(&[])
            .unwrap_err();
        assert_eq!(err, GridError::EmptyHistory);
    }

    #[test]
    fn degenerate_dimension_rejected() {
        let pts: Vec<Point2> = (0..10).map(|k| Point2::new(5.0, k as f64)).collect();
        let err = GridBuilder::new(GridConfig::default())
            .build(&pts)
            .unwrap_err();
        assert!(matches!(
            err,
            GridError::DegenerateDimension { dimension: 0, .. }
        ));
    }

    #[test]
    fn uniform_data_uses_equal_width() {
        // Uniform grid of points -> CV of unit counts ~ 0.
        let pts: Vec<Point2> = (0..6000)
            .map(|k| Point2::new((k % 600) as f64 / 6.0, (k % 6000) as f64 / 60.0))
            .collect();
        let cfg = GridConfig::default();
        let grid = GridBuilder::new(cfg).build(&pts).unwrap();
        // Equal-width fallback yields exactly uniform_intervals per dim.
        assert_eq!(grid.x_partition().len(), cfg.uniform_intervals);
        let widths: Vec<f64> = grid
            .x_partition()
            .intervals()
            .iter()
            .map(|iv| iv.width())
            .collect();
        let (w0, wl) = (widths[0], widths[widths.len() - 1]);
        assert!((w0 - wl).abs() / w0 < 1e-6);
    }

    #[test]
    fn dense_regions_get_more_intervals() {
        // 90% of points in [0, 10), 10% spread over [10, 100).
        let mut pts = Vec::new();
        for k in 0..900 {
            let v = (k % 100) as f64 / 10.0;
            pts.push(Point2::new(v, v));
        }
        for k in 0..100 {
            let v = 10.0 + (k as f64) * 0.9;
            pts.push(Point2::new(v, v));
        }
        let grid = GridBuilder::new(GridConfig::default()).build(&pts).unwrap();
        let p = grid.x_partition();
        // Count intervals fully inside the dense region vs the sparse one.
        let dense = p.intervals().iter().filter(|iv| iv.upper() <= 10.5).count();
        let sparse = p.intervals().iter().filter(|iv| iv.lower() >= 10.5).count();
        assert!(
            dense >= sparse,
            "dense region should get at least as many intervals: dense={dense} sparse={sparse}"
        );
        // All points must be locatable.
        for p in &pts {
            assert!(grid.locate(*p).is_some(), "point {p:?} not locatable");
        }
    }

    #[test]
    fn max_intervals_cap_respected() {
        // Highly multi-modal data that would produce many groups.
        let mut pts = Vec::new();
        for mode in 0..50 {
            for k in 0..20 {
                let v = mode as f64 * 10.0 + (k as f64) * 0.01;
                pts.push(Point2::new(v, -v));
            }
        }
        let cfg = GridConfig::builder().max_intervals(8).build().unwrap();
        let grid = GridBuilder::new(cfg).build(&pts).unwrap();
        assert!(grid.x_partition().len() <= 8);
        assert!(grid.y_partition().len() <= 8);
        for p in &pts {
            assert!(grid.locate(*p).is_some());
        }
    }

    #[test]
    fn merge_units_groups_similar_counts() {
        let counts = [100, 98, 103, 5, 4, 6, 200, 198];
        let groups = merge_units(&counts, 0.3, 0.25);
        assert_eq!(groups, vec![(0, 2), (3, 5), (6, 7)]);
    }

    #[test]
    fn merge_units_single_group_when_all_similar() {
        let counts = [10, 10, 10, 10];
        let groups = merge_units(&counts, 0.3, 0.25);
        assert_eq!(groups, vec![(0, 3)]);
    }

    #[test]
    fn all_history_points_are_contained() {
        let pts: Vec<Point2> = (0..1000)
            .map(|k| {
                let t = k as f64 / 1000.0 * std::f64::consts::TAU;
                Point2::new(t.sin() * 50.0 + 100.0, t.cos() * 20.0 + 40.0)
            })
            .collect();
        let grid = GridBuilder::new(GridConfig::default()).build(&pts).unwrap();
        for p in &pts {
            assert!(grid.locate(*p).is_some(), "point {p:?} escaped the grid");
        }
    }
}
