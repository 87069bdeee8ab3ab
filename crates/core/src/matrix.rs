use std::collections::{BTreeMap, HashMap};

use gridwatch_grid::{CellId, DecayKernel, GridStructure};
use serde::{Deserialize, Serialize};

use crate::fitness::{score_row, TransitionScore};
use crate::prior::{log_prior_row, normalize_log_row};

/// The transition probability matrix `V` with `V[i][j] = P(c_i → c_j)`,
/// stored sparsely.
///
/// # Representation
///
/// A dense `s × s` matrix per pair is prohibitive when thousands of pairs
/// are watched (the paper monitors `3 × C(100, 2)` models). Instead we
/// exploit the structure of the Bayesian update: the posterior of row `i`
/// after observing destinations `h_1, …, h_k` is
///
/// ```text
/// log V[i][j] = −ln K(c_i, c_j) − Σ_m  ln K(c_{h_m}, c_j)  (+ normalizer)
/// ```
///
/// where `K` is the decay kernel (prior term from the spatial-closeness
/// prior, one likelihood term per observation — Eq. 1 and Eq. 2 of the
/// paper in log space). So it suffices to store, per visited row, the
/// *count of observations per destination cell*; full rows are
/// materialized lazily in `O(s · distinct_destinations)` and memoized
/// until the row changes.
///
/// # Example
///
/// ```
/// use gridwatch_core::TransitionMatrix;
/// use gridwatch_grid::{CellId, DecayKernel, GridStructure};
///
/// let grid = GridStructure::uniform((0.0, 3.0), (0.0, 3.0), 3, 3);
/// let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
/// // Repeatedly observe c5 → c2.
/// for _ in 0..20 {
///     v.observe(CellId(4), CellId(1));
/// }
/// let row = v.row(&grid, CellId(4));
/// let best = row
///     .iter()
///     .enumerate()
///     .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
///     .unwrap()
///     .0;
/// assert_eq!(best, 1, "mass concentrates on the observed destination");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransitionMatrix {
    kernel: DecayKernel,
    decay_rate: f64,
    /// Per-row observation counts: `counts[i][h]` = number of observed
    /// transitions from cell `i` to cell `h`. Rows never observed are
    /// absent and equal to the prior.
    counts: BTreeMap<usize, BTreeMap<usize, u64>>,
    /// Memoized materialized rows, invalidated on update/remap.
    #[serde(skip)]
    row_cache: HashMap<usize, Vec<f64>>,
    total_observations: u64,
}

impl TransitionMatrix {
    /// Creates an empty (pure-prior) matrix.
    ///
    /// # Panics
    ///
    /// Panics if `decay_rate <= 1`.
    pub fn new(kernel: DecayKernel, decay_rate: f64) -> Self {
        assert!(decay_rate > 1.0, "decay rate must exceed 1");
        TransitionMatrix {
            kernel,
            decay_rate,
            counts: BTreeMap::new(),
            row_cache: HashMap::new(),
            total_observations: 0,
        }
    }

    /// The decay kernel in use.
    pub fn kernel(&self) -> DecayKernel {
        self.kernel
    }

    /// The decay rate `w`.
    pub fn decay_rate(&self) -> f64 {
        self.decay_rate
    }

    /// Total number of observed transitions.
    pub fn total_observations(&self) -> u64 {
        self.total_observations
    }

    /// Number of rows with at least one observation.
    pub fn observed_rows(&self) -> usize {
        self.counts.len()
    }

    /// Number of distinct `(source, destination)` entries stored — the
    /// sparse representation's actual memory footprint, versus the `s²`
    /// entries a dense matrix would hold.
    pub fn distinct_entries(&self) -> usize {
        self.counts.values().map(|row| row.len()).sum()
    }

    /// The source cells with at least one observed transition, in
    /// increasing order. Used by the invariant checkers to sample real
    /// (non-prior) rows for the row-stochastic property.
    pub fn observed_sources(&self) -> impl Iterator<Item = CellId> + '_ {
        self.counts.keys().copied().map(CellId)
    }

    /// The maximum cell index referenced by any stored transition count
    /// (source or destination), or `None` if no transitions were observed.
    /// A value `>= grid.cell_count()` means the matrix references cells
    /// outside its grid — a corrupted or mismatched checkpoint.
    pub fn max_referenced_cell(&self) -> Option<usize> {
        self.counts
            .iter()
            .flat_map(|(&from, row)| row.keys().copied().chain(std::iter::once(from)))
            .max()
    }

    /// Records an observed transition `from → to` (the Bayesian update of
    /// Eq. 2, deferred until the row is materialized).
    pub fn observe(&mut self, from: CellId, to: CellId) {
        *self
            .counts
            .entry(from.index())
            .or_default()
            .entry(to.index())
            .or_insert(0) += 1;
        self.total_observations += 1;
        self.row_cache.remove(&from.index());
    }

    /// Number of observed transitions from `from` to `to`.
    pub fn count(&self, from: CellId, to: CellId) -> u64 {
        self.counts
            .get(&from.index())
            .and_then(|r| r.get(&to.index()))
            .copied()
            .unwrap_or(0)
    }

    /// The posterior distribution `P(from → ·)` over all cells of `grid`,
    /// in flat cell order, computed lazily and memoized.
    ///
    /// # Panics
    ///
    /// Panics if `from` is outside the grid's cell range.
    pub fn row(&mut self, grid: &GridStructure, from: CellId) -> &[f64] {
        assert!(from.index() < grid.cell_count(), "row out of range");
        if !self.row_cache.contains_key(&from.index()) {
            let row = self.compute_row(grid, from);
            self.row_cache.insert(from.index(), row);
        }
        #[expect(clippy::expect_used, reason = "the row is inserted just above")]
        self.row_cache
            .get(&from.index())
            .expect("row inserted above")
    }

    /// Computes the posterior row without touching the cache (`&self`
    /// variant of [`TransitionMatrix::row`]).
    pub fn compute_row(&self, grid: &GridStructure, from: CellId) -> Vec<f64> {
        let mut log_row = log_prior_row(grid, self.kernel, self.decay_rate, from);
        if let Some(obs) = self.counts.get(&from.index()) {
            for (&h, &n) in obs {
                let h_cell = CellId(h);
                // Guard against stale indices (can only happen on misuse;
                // remap keeps indices in range).
                if h >= grid.cell_count() {
                    continue;
                }
                let n = n as f64;
                for (j, l) in log_row.iter_mut().enumerate() {
                    let (dx, dy) = grid.offset(h_cell, CellId(j));
                    *l -= n * self.kernel.log_weight(self.decay_rate, dx, dy);
                }
            }
        }
        normalize_log_row(&log_row)
    }

    /// The probability `P(from → to)`.
    pub fn probability(&mut self, grid: &GridStructure, from: CellId, to: CellId) -> f64 {
        self.row(grid, from)[to.index()]
    }

    /// Scores the transition `from → to`: the rank-based fitness of `to`
    /// in the memoized posterior row, exactly
    /// `score_row(self.row(grid, from), to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is outside the grid's cell range.
    pub fn score(&mut self, grid: &GridStructure, from: CellId, to: CellId) -> TransitionScore {
        assert!(to.index() < grid.cell_count(), "destination out of range");
        score_row(self.row(grid, from), to)
    }

    /// Approximate bytes held by the memoized rows (the integer counts,
    /// the persisted state, are not included).
    pub fn approx_row_cache_bytes(&self) -> usize {
        self.row_cache
            .values()
            .map(|r| r.capacity() * std::mem::size_of::<f64>())
            .sum()
    }

    /// Exports the full dense matrix (row-major); intended for small
    /// grids, reporting, and tests.
    pub fn to_dense(&self, grid: &GridStructure) -> Vec<Vec<f64>> {
        grid.cells()
            .map(|from| self.compute_row(grid, from))
            .collect()
    }

    /// Remaps all stored cell indices after the grid grew.
    ///
    /// `old_columns` is the column count before growth; the other
    /// arguments are the prepend/append counts reported by
    /// [`gridwatch_grid::Extension::Extended`]. A cell formerly at
    /// `(col, row)` moves to `(col + prepended_cols, row + prepended_rows)`
    /// in a grid with `old_columns + prepended_cols + appended_cols`
    /// columns.
    pub fn remap_after_growth(
        &mut self,
        old_columns: usize,
        prepended_cols: usize,
        appended_cols: usize,
        prepended_rows: usize,
    ) {
        if prepended_cols == 0 && appended_cols == 0 && prepended_rows == 0 {
            // Rows appended above do not change flat indices, but the
            // cell count did change, so every memoized row is stale.
            self.clear_cache();
            return;
        }
        let new_columns = old_columns + prepended_cols + appended_cols;
        let remap = |flat: usize| -> usize {
            let row = flat / old_columns;
            let col = flat % old_columns;
            (row + prepended_rows) * new_columns + (col + prepended_cols)
        };
        let old = std::mem::take(&mut self.counts);
        for (from, row) in old {
            let new_row: BTreeMap<usize, u64> =
                row.into_iter().map(|(to, n)| (remap(to), n)).collect();
            self.counts.insert(remap(from), new_row);
        }
        self.clear_cache();
    }

    /// Drops all memoized rows (e.g. after deserialization).
    pub fn clear_cache(&mut self) {
        self.row_cache.clear();
    }

    /// Exponentially decays all observation counts by `factor` in
    /// `(0, 1]`, dropping entries that fall below one half observation.
    ///
    /// This implements *forgetting*: the paper adapts the model "online
    /// to the distribution changes", and on slowly drifting systems old
    /// transitions should stop dominating the posterior. Calling this
    /// once per day with, say, `factor = 0.98` halves the weight of
    /// month-old observations. A factor of `1.0` is a no-op. Counts decay
    /// by integer rounding, so rare old transitions vanish entirely while
    /// frequent ones shrink proportionally.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn decay_counts(&mut self, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "forgetting factor must be in (0, 1], got {factor}"
        );
        if gridwatch_grid::float::approx_one(factor) {
            return;
        }
        let mut removed = 0u64;
        for row in self.counts.values_mut() {
            row.retain(|_, n| {
                let decayed = (*n as f64 * factor).round() as u64;
                if decayed == 0 {
                    removed += *n;
                    false
                } else {
                    removed += *n - decayed;
                    *n = decayed;
                    true
                }
            });
        }
        self.counts.retain(|_, row| !row.is_empty());
        self.total_observations = self.total_observations.saturating_sub(removed);
        self.clear_cache();
    }
}

impl PartialEq for TransitionMatrix {
    fn eq(&self, other: &Self) -> bool {
        // Bitwise comparison: equality here means "same persisted model",
        // so two NaN decay rates (never valid, but conceivable after a
        // corrupted checkpoint) must still compare equal to themselves.
        self.kernel == other.kernel
            && self.decay_rate.to_bits() == other.decay_rate.to_bits()
            && self.counts == other.counts
            && self.total_observations == other.total_observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid3x3() -> GridStructure {
        GridStructure::uniform((0.0, 3.0), (0.0, 3.0), 3, 3)
    }

    #[test]
    fn fresh_matrix_equals_prior() {
        let grid = grid3x3();
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        let row = v.row(&grid, CellId(4)).to_vec();
        let prior = crate::prior::prior_row(&grid, DecayKernel::MeanAxis, 2.0, CellId(4));
        for (a, b) in row.iter().zip(&prior) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn rows_always_sum_to_one() {
        let grid = grid3x3();
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        for k in 0..50 {
            v.observe(CellId(k % 9), CellId((k * 3) % 9));
        }
        for from in grid.cells() {
            let sum: f64 = v.row(&grid, from).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {from} sums to {sum}");
        }
    }

    #[test]
    fn repeated_observation_dominates_prior() {
        // Figures 9/10 of the paper: the prior peaks at the source cell,
        // but after many observed transitions to another cell the
        // posterior peaks at the observed destination.
        let grid = grid3x3();
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        let from = CellId(4);
        let to = CellId(2);
        let prior_peak = {
            let row = v.compute_row(&grid, from);
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(prior_peak, from.index());
        for _ in 0..10 {
            v.observe(from, to);
        }
        let row = v.row(&grid, from);
        let post_peak = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(post_peak, to.index());
    }

    #[test]
    fn observation_counts_tracked() {
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        v.observe(CellId(0), CellId(1));
        v.observe(CellId(0), CellId(1));
        v.observe(CellId(0), CellId(2));
        assert_eq!(v.count(CellId(0), CellId(1)), 2);
        assert_eq!(v.count(CellId(0), CellId(2)), 1);
        assert_eq!(v.count(CellId(1), CellId(0)), 0);
        assert_eq!(v.total_observations(), 3);
        assert_eq!(v.observed_rows(), 1);
    }

    #[test]
    fn cache_is_invalidated_by_observe() {
        let grid = grid3x3();
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        let before = v.row(&grid, CellId(0)).to_vec();
        v.observe(CellId(0), CellId(8));
        let after = v.row(&grid, CellId(0)).to_vec();
        assert!(after[8] > before[8]);
    }

    #[test]
    fn remap_preserves_counts_under_growth() {
        // 3x3 grid grows by one prepended column and one prepended row.
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        // Transition c1 (0,0) -> c5 (1,1) in the old 3x3 grid.
        v.observe(CellId(0), CellId(4));
        v.remap_after_growth(3, 1, 0, 1);
        // New grid is 4x4: old (0,0) is now (1,1) = flat 5; old (1,1) is
        // now (2,2) = flat 10.
        assert_eq!(v.count(CellId(5), CellId(10)), 1);
        assert_eq!(v.count(CellId(0), CellId(4)), 0);
        assert_eq!(v.total_observations(), 1);
    }

    #[test]
    fn remap_with_append_only_keeps_indices() {
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        v.observe(CellId(3), CellId(7));
        // Rows appended at the top (higher y) and columns appended right
        // with no prepends: flat indices change only via column count.
        v.remap_after_growth(3, 0, 1, 0);
        // Old (row 1, col 0) -> new flat = 1 * 4 + 0 = 4.
        // Old (row 2, col 1) -> new flat = 2 * 4 + 1 = 9.
        assert_eq!(v.count(CellId(4), CellId(9)), 1);
    }

    #[test]
    fn dense_export_matches_rows() {
        let grid = grid3x3();
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        v.observe(CellId(1), CellId(2));
        let dense = v.to_dense(&grid);
        assert_eq!(dense.len(), 9);
        for (i, row) in dense.iter().enumerate() {
            let live = v.row(&grid, CellId(i));
            for (a, b) in row.iter().zip(live) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn serde_roundtrip_preserves_distribution() {
        let grid = grid3x3();
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        for _ in 0..5 {
            v.observe(CellId(0), CellId(3));
        }
        let json = serde_json::to_string(&v).unwrap();
        let mut back: TransitionMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
        let a = v.row(&grid, CellId(0)).to_vec();
        let b = back.row(&grid, CellId(0)).to_vec();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "decay rate")]
    fn rejects_non_decaying_rate() {
        TransitionMatrix::new(DecayKernel::MeanAxis, 1.0);
    }

    #[test]
    fn dense_score_matches_score_row() {
        let grid = grid3x3();
        // Mixed observations: some rows heavy, some light.
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        for k in 0..60 {
            v.observe(CellId(k % 9), CellId((k * 5 + 2) % 9));
        }
        for from in grid.cells() {
            for to in grid.cells() {
                let expected = score_row(&v.compute_row(&grid, from), to);
                assert_eq!(v.score(&grid, from, to), expected);
            }
        }
    }
}
