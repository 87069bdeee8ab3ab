use std::collections::{BTreeMap, HashMap};

use gridwatch_grid::{CellId, DecayKernel, GridStructure};
use serde::{Deserialize, Serialize};

use crate::fitness::{score_row, TransitionScore};
use crate::prior::{log_row_probability, normalize_log_row};

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
/// *count of observations per destination cell*. A row is materialized
/// as this *log row* (without the normalizer) in `O(s · (1 +
/// distinct_destinations))` lookups into a per-grid-shape table of
/// `ln K` by `(|dx|, |dy|)`, and scored by ranking it: normalising would
/// only add `s` `exp`s that underflow the tail to ties. Only callers that
/// read a probability normalise.
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
/// let row = v.probability_row(&grid, CellId(4));
/// let best = row
///     .iter()
///     .enumerate()
///     .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
///     .unwrap()
///     .0;
/// assert_eq!(best, 1, "mass concentrates on the observed destination");
/// assert_eq!(v.score(&grid, CellId(4), CellId(1)).rank(), Some(1));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransitionMatrix {
    kernel: DecayKernel,
    decay_rate: f64,
    /// Per-row observation counts: `counts[i][h]` = number of observed
    /// transitions from cell `i` to cell `h`. Rows never observed are
    /// absent and equal to the prior.
    counts: BTreeMap<usize, BTreeMap<usize, u64>>,
    /// Memoized log rows of [`TransitionMatrix::score`], invalidated on
    /// update/remap.
    #[serde(skip)]
    row_cache: HashMap<usize, Vec<f64>>,
    /// `ln K` for the grid shape last scored against.
    #[serde(skip)]
    table: KernelTable,
    /// The log row [`TransitionMatrix::score_fresh`] ranks, reused.
    #[serde(skip)]
    scratch: Vec<f64>,
    total_observations: u64,
}

/// `DecayKernel::log_weight` by `(|dx|, |dy|)` for one grid shape. Every
/// kernel depends on an offset only through its absolute values, so a
/// `columns × rows` grid needs at most `columns × rows` weights, and a
/// lookup returns the very bits `log_weight` would.
#[derive(Debug, Clone, Default)]
struct KernelTable {
    columns: usize,
    rows: usize,
    /// `log_weight(w, dx, dy)` at `dy * columns + dx`.
    log_weights: Vec<f64>,
}

impl KernelTable {
    fn new(kernel: DecayKernel, decay_rate: f64, grid: &GridStructure) -> Self {
        let (columns, rows) = (grid.columns(), grid.rows());
        let log_weights = (0..rows as i64)
            .flat_map(|dy| (0..columns as i64).map(move |dx| kernel.log_weight(decay_rate, dx, dy)))
            .collect();
        KernelTable {
            columns,
            rows,
            log_weights,
        }
    }

    fn fits(&self, grid: &GridStructure) -> bool {
        self.columns == grid.columns() && self.rows == grid.rows()
    }

    /// Writes the log row of `from` into `out`: the prior `−ln K(from, ·)`,
    /// then `−n · ln K(h, ·)` per observed destination `h` in increasing
    /// order — the operands and order of the paper's Eq. 1, so the row is
    /// bit-identical to one built from `log_weight` directly.
    fn log_row_into(
        &self,
        from: usize,
        observed: Option<&BTreeMap<usize, u64>>,
        out: &mut Vec<f64>,
    ) {
        let s = self.columns * self.rows;
        out.clear();
        out.resize(s, 0.0);
        self.each_weight(from, out, |l, lw| *l = -lw);
        for (&h, &n) in observed.into_iter().flatten() {
            // Guard against stale indices (can only happen on misuse;
            // remap keeps indices in range).
            if h >= s {
                continue;
            }
            let n = n as f64;
            self.each_weight(h, out, |l, lw| *l -= n * lw);
        }
    }

    /// Calls `f(&mut row[j], ln K(center, c_j))` for every cell `j`.
    fn each_weight(&self, center: usize, row: &mut [f64], f: impl Fn(&mut f64, f64)) {
        let (cc, cr) = (center % self.columns, center / self.columns);
        for (r, cells) in row.chunks_exact_mut(self.columns).enumerate() {
            let start = r.abs_diff(cr) * self.columns;
            let weights = &self.log_weights[start..start + self.columns];
            // Left of the centre column the offset counts down to 1, from
            // it rightwards it counts up from 0.
            let (left, right) = cells.split_at_mut(cc);
            for (l, &lw) in left.iter_mut().zip(weights[1..=cc].iter().rev()) {
                f(l, lw);
            }
            for (l, &lw) in right.iter_mut().zip(weights) {
                f(l, lw);
            }
        }
    }

    fn bytes(&self) -> usize {
        self.log_weights.capacity() * std::mem::size_of::<f64>()
    }
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
            table: KernelTable::default(),
            scratch: Vec::new(),
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
        if !self.row_cache.is_empty() {
            self.row_cache.remove(&from.index());
        }
    }

    /// Number of observed transitions from `from` to `to`.
    pub fn count(&self, from: CellId, to: CellId) -> u64 {
        self.counts
            .get(&from.index())
            .and_then(|r| r.get(&to.index()))
            .copied()
            .unwrap_or(0)
    }

    /// The posterior log row `ln P(from → ·) + const` over all cells of
    /// `grid`, in flat cell order, computed lazily and memoized.
    ///
    /// # Panics
    ///
    /// Panics if `from` is outside the grid's cell range.
    pub fn log_row(&mut self, grid: &GridStructure, from: CellId) -> &[f64] {
        assert!(from.index() < grid.cell_count(), "row out of range");
        self.refresh_table(grid);
        let (table, counts) = (&self.table, &self.counts);
        self.row_cache.entry(from.index()).or_insert_with(|| {
            let mut row = Vec::new();
            table.log_row_into(from.index(), counts.get(&from.index()), &mut row);
            row
        })
    }

    /// Computes the posterior log row without touching the memo (`&self`
    /// variant of [`TransitionMatrix::log_row`]).
    ///
    /// # Panics
    ///
    /// Panics if `from` is outside the grid's cell range.
    pub fn compute_row(&self, grid: &GridStructure, from: CellId) -> Vec<f64> {
        assert!(from.index() < grid.cell_count(), "row out of range");
        let built;
        let table = if self.table.fits(grid) {
            &self.table
        } else {
            built = KernelTable::new(self.kernel, self.decay_rate, grid);
            &built
        };
        let mut row = Vec::new();
        table.log_row_into(from.index(), self.counts.get(&from.index()), &mut row);
        row
    }

    /// The posterior distribution `P(from → ·)`: the normalized
    /// [`TransitionMatrix::compute_row`].
    pub fn probability_row(&self, grid: &GridStructure, from: CellId) -> Vec<f64> {
        normalize_log_row(&self.compute_row(grid, from))
    }

    /// Scores the transition `from → to`: the rank-based fitness of `to`
    /// in the memoized log row, exactly
    /// `score_row(&self.compute_row(grid, from), to)`. For models that do
    /// not learn; see [`TransitionMatrix::score_fresh`].
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is outside the grid's cell range.
    pub fn score(&mut self, grid: &GridStructure, from: CellId, to: CellId) -> TransitionScore {
        assert!(to.index() < grid.cell_count(), "destination out of range");
        score_row(self.log_row(grid, from), to)
    }

    /// [`TransitionMatrix::score`] for a caller about to
    /// [`TransitionMatrix::observe`] `from`, which would invalidate a
    /// memoized row: ranks a log row built in a reused buffer and memoizes
    /// nothing. With `with_probability` the score also carries `to`'s
    /// normalized probability.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is outside the grid's cell range.
    pub fn score_fresh(
        &mut self,
        grid: &GridStructure,
        from: CellId,
        to: CellId,
        with_probability: bool,
    ) -> TransitionScore {
        assert!(from.index() < grid.cell_count(), "row out of range");
        assert!(to.index() < grid.cell_count(), "destination out of range");
        self.refresh_table(grid);
        self.table.log_row_into(
            from.index(),
            self.counts.get(&from.index()),
            &mut self.scratch,
        );
        let score = score_row(&self.scratch, to);
        if with_probability {
            score.with_probability(log_row_probability(&self.scratch, to.index()))
        } else {
            score
        }
    }

    /// Approximate heap bytes of the state derived from the counts and
    /// never persisted: the memoized log rows, the kernel table and the
    /// scoring buffer.
    pub fn approx_row_cache_bytes(&self) -> usize {
        let f64s: usize =
            self.row_cache.values().map(Vec::capacity).sum::<usize>() + self.scratch.capacity();
        f64s * std::mem::size_of::<f64>() + self.table.bytes()
    }

    /// Exports the full dense probability matrix (row-major); intended for
    /// small grids, reporting, and tests.
    pub fn to_dense(&self, grid: &GridStructure) -> Vec<Vec<f64>> {
        grid.cells()
            .map(|from| self.probability_row(grid, from))
            .collect()
    }

    /// Rebuilds the kernel table if `grid` has another shape than the one
    /// it was built for.
    fn refresh_table(&mut self, grid: &GridStructure) {
        if !self.table.fits(grid) {
            self.table = KernelTable::new(self.kernel, self.decay_rate, grid);
        }
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
        let v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        let row = v.probability_row(&grid, CellId(4));
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
            let sum: f64 = v.probability_row(&grid, from).iter().sum();
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
        let row = v.log_row(&grid, from);
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
        let before = v.score(&grid, CellId(0), CellId(8)).rank().unwrap();
        v.observe(CellId(0), CellId(8));
        let after = v.score(&grid, CellId(0), CellId(8)).rank().unwrap();
        assert!(after < before, "rank {before} -> {after}");
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
            let live = normalize_log_row(v.log_row(&grid, CellId(i)));
            for (a, b) in row.iter().zip(&live) {
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
        let a = v.log_row(&grid, CellId(0)).to_vec();
        let b = back.log_row(&grid, CellId(0)).to_vec();
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
            let row = v.compute_row(&grid, from);
            let dense = normalize_log_row(&row);
            for to in grid.cells() {
                let expected = score_row(&row, to);
                assert_eq!(v.score(&grid, from, to), expected);
                assert_eq!(v.score_fresh(&grid, from, to, false), expected);
                let with_p = v.score_fresh(&grid, from, to, true);
                assert_eq!(with_p.probability(), Some(dense[to.index()]));
                assert_eq!(with_p.rank(), expected.rank());
            }
        }
    }
}
