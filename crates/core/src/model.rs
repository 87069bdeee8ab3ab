use gridwatch_grid::{CellId, Extension, GridBuilder, GridStructure};
use gridwatch_timeseries::{PairSeries, Point2};
use serde::{Deserialize, Serialize};

use crate::fitness::{score_row, TransitionScore};
use crate::prior::log_row_probability;
use crate::{CellRanges, ModelConfig, ModelError, TransitionMatrix};

/// The outcome of one online observation step
/// ([`TransitionModel::observe`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepOutcome {
    /// The score of the observed transition, or `None` when there was no
    /// previous in-grid point to transition from (the very first
    /// observation, or every observation since the model was reset).
    pub score: Option<TransitionScore>,
    /// Whether the transition was incorporated into the matrix.
    pub updated: bool,
    /// Whether the grid was extended to contain this observation.
    pub extended: bool,
}

/// The pairwise correlation model `M = (G, V)`: a grid structure plus a
/// transition probability matrix, with the paper's full lifecycle —
/// offline initialization from history data, online scoring, and adaptive
/// updates (Figure 6).
///
/// # Example
///
/// ```
/// use gridwatch_core::{ModelConfig, TransitionModel};
/// use gridwatch_timeseries::{PairSeries, Point2};
///
/// let history = PairSeries::from_samples(
///     (0..300u64).map(|k| {
///         let x = (k % 60) as f64;
///         (k * 360, x, x + 5.0)
///     }),
/// )?;
/// let mut model = TransitionModel::fit(&history, ModelConfig::default())?;
/// let outcome = model.observe(Point2::new(30.0, 35.0));
/// assert!(outcome.score.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionModel {
    grid: GridStructure,
    matrix: TransitionMatrix,
    config: ModelConfig,
    /// The cell of the most recent *in-grid* observation: the source of
    /// the next transition. Outliers do not replace it, so a lone spike
    /// outside the grid does not blind the score of the next sample.
    last_cell: Option<CellId>,
    observations: u64,
    outliers: u64,
    extensions: u64,
    updates_skipped: u64,
}

impl TransitionModel {
    /// Initializes a model from history data: builds the grid structure
    /// over the history snapshot, then replays every consecutive
    /// transition through the Bayesian update (Section 4.2), starting
    /// from the spatial-closeness prior.
    ///
    /// # Errors
    ///
    /// * [`ModelError::InvalidConfig`] for bad parameters.
    /// * [`ModelError::InsufficientHistory`] if `history` has fewer than
    ///   two points.
    /// * [`ModelError::Grid`] if the grid cannot be built (degenerate
    ///   data).
    pub fn fit(history: &PairSeries, config: ModelConfig) -> Result<Self, ModelError> {
        config.validate()?;
        if history.len() < 2 {
            return Err(ModelError::InsufficientHistory {
                points: history.len(),
            });
        }
        let grid = GridBuilder::new(config.grid).build(history.points())?;
        let mut matrix = TransitionMatrix::new(config.kernel, config.decay_rate);
        let mut last_cell = None;
        for (_, from, to) in history.transitions() {
            #[expect(clippy::expect_used, reason = "the grid was built from these points")]
            let ci = grid
                .locate(from)
                .expect("history points are inside the grid by construction");
            #[expect(clippy::expect_used, reason = "the grid was built from these points")]
            let cj = grid
                .locate(to)
                .expect("history points are inside the grid by construction");
            matrix.observe(ci, cj);
            last_cell = Some(cj);
        }
        Ok(TransitionModel {
            grid,
            matrix,
            config,
            last_cell,
            observations: history.len() as u64,
            outliers: 0,
            extensions: 0,
            updates_skipped: 0,
        })
    }

    /// Creates a model with an explicit grid and a pure-prior matrix (no
    /// observations yet). Useful for experiments that start from the
    /// prior, such as the paper's Figures 9/10.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for bad parameters.
    pub fn from_grid(grid: GridStructure, config: ModelConfig) -> Result<Self, ModelError> {
        config.validate()?;
        let matrix = TransitionMatrix::new(config.kernel, config.decay_rate);
        Ok(TransitionModel {
            grid,
            matrix,
            config,
            last_cell: None,
            observations: 0,
            outliers: 0,
            extensions: 0,
            updates_skipped: 0,
        })
    }

    /// The grid structure `G`.
    pub fn grid(&self) -> &GridStructure {
        &self.grid
    }

    /// The transition matrix `V`.
    pub fn matrix(&self) -> &TransitionMatrix {
        &self.matrix
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The cell of the most recent in-grid observation.
    pub fn last_cell(&self) -> Option<CellId> {
        self.last_cell
    }

    /// Total points offered via [`TransitionModel::fit`] and
    /// [`TransitionModel::observe`].
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Points that fell outside the grid (and its growth reach).
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Number of grid extensions performed online.
    pub fn extensions(&self) -> u64 {
        self.extensions
    }

    /// Updates skipped because the transition probability was below the
    /// `update_threshold` `δ` (flagged anomalous, not learned).
    pub fn updates_skipped(&self) -> u64 {
        self.updates_skipped
    }

    /// Processes one online observation: scores the transition from the
    /// previous in-grid point, then (in adaptive mode) updates the grid
    /// and matrix per the paper's Figure 6 flow.
    ///
    /// Outliers score 0 and never update the model; near-boundary points
    /// extend the grid when the growth policy allows; normal transitions
    /// (probability ≥ `δ`) are learned.
    pub fn observe(&mut self, p: Point2) -> StepOutcome {
        self.observations += 1;
        // Resolve the destination cell, possibly growing the grid.
        let old_columns = self.grid.columns();
        let (dest, extended) = if self.config.adaptive {
            match self.grid.locate_or_extend(p, self.config.growth) {
                Extension::Contained(c) => (Some(c), false),
                Extension::Extended {
                    cell,
                    prepended_cols,
                    appended_cols,
                    prepended_rows,
                    ..
                } => {
                    self.extensions += 1;
                    self.matrix.remap_after_growth(
                        old_columns,
                        prepended_cols,
                        appended_cols,
                        prepended_rows,
                    );
                    if let Some(last) = self.last_cell {
                        self.last_cell = Some(remap_cell(
                            last,
                            old_columns,
                            prepended_cols,
                            appended_cols,
                            prepended_rows,
                        ));
                    }
                    (Some(cell), true)
                }
                Extension::Outlier => (None, false),
            }
        } else {
            (self.grid.locate(p), false)
        };

        // An adaptive model is about to update the row it scores, so the
        // row is not memoized; its probability is only needed against a
        // positive threshold `δ`.
        let threshold = self.config.update_threshold;
        let score = match (self.last_cell, dest) {
            (Some(from), Some(to)) if self.config.adaptive => {
                Some(
                    self.matrix
                        .score_fresh(&self.grid, from, to, threshold > 0.0),
                )
            }
            (Some(from), Some(to)) => Some(self.matrix.score(&self.grid, from, to)),
            (Some(_), None) => Some(TransitionScore::outlier(self.grid.cell_count())),
            (None, _) => None,
        };

        // Learn the transition if it is normal (Figure 6: "N → Update").
        let mut updated = false;
        if let (Some(from), Some(to), Some(s)) = (self.last_cell, dest, score) {
            if self.config.adaptive {
                if s.probability().is_none_or(|p| p >= threshold) {
                    self.matrix.observe(from, to);
                    updated = true;
                } else {
                    self.updates_skipped += 1;
                }
            }
        }

        match dest {
            Some(c) => self.last_cell = Some(c),
            None => self.outliers += 1,
        }

        StepOutcome {
            score,
            updated,
            extended,
        }
    }

    /// Scores a hypothetical next observation without mutating the model.
    ///
    /// Returns the outlier score when the model has no previous in-grid
    /// point or `p` falls outside the grid.
    pub fn score_point(&self, p: Point2) -> TransitionScore {
        let Some(from) = self.last_cell else {
            return TransitionScore::outlier(self.grid.cell_count());
        };
        match self.grid.locate(p) {
            Some(to) => self.score_cells(from, to),
            None => TransitionScore::outlier(self.grid.cell_count()),
        }
    }

    /// Scores the transition between two explicit points without mutating
    /// the model. Returns `None` if `from` is outside the grid.
    pub fn score_transition(&self, from: Point2, to: Point2) -> Option<TransitionScore> {
        let ci = self.grid.locate(from)?;
        Some(match self.grid.locate(to) {
            Some(cj) => self.score_cells(ci, cj),
            None => TransitionScore::outlier(self.grid.cell_count()),
        })
    }

    /// The model's `P(x_t → x_{t+1})` for two explicit points; 0 if
    /// either is outside the grid.
    pub fn transition_probability(&self, from: Point2, to: Point2) -> f64 {
        match (self.grid.locate(from), self.grid.locate(to)) {
            (Some(ci), Some(cj)) => {
                log_row_probability(&self.matrix.compute_row(&self.grid, ci), cj.index())
            }
            _ => 0.0,
        }
    }

    /// Scores `from → to` from a fresh log row, with the probability.
    fn score_cells(&self, from: CellId, to: CellId) -> TransitionScore {
        let row = self.matrix.compute_row(&self.grid, from);
        score_row(&row, to).with_probability(log_row_probability(&row, to.index()))
    }

    /// Human-readable value ranges of a cell, for the problem reports the
    /// paper highlights ("the model can output the problematic measurement
    /// ranges").
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell_ranges(&self, cell: CellId) -> CellRanges {
        CellRanges::new(&self.grid, cell)
    }

    /// Forgets the last observed point (e.g. across a data gap) so the
    /// next observation starts a fresh trajectory.
    pub fn reset_trajectory(&mut self) {
        self.last_cell = None;
    }
}

/// Remaps a flat cell id after grid growth; mirrors
/// [`TransitionMatrix::remap_after_growth`].
fn remap_cell(
    cell: CellId,
    old_columns: usize,
    prepended_cols: usize,
    appended_cols: usize,
    prepended_rows: usize,
) -> CellId {
    let new_columns = old_columns + prepended_cols + appended_cols;
    let row = cell.index() / old_columns;
    let col = cell.index() % old_columns;
    CellId((row + prepended_rows) * new_columns + (col + prepended_cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_grid::GrowthPolicy;

    /// A tight linear pair: y = 2x with x cycling over 0..100.
    fn linear_history(n: u64) -> PairSeries {
        PairSeries::from_samples((0..n).map(|k| {
            let x = (k % 100) as f64;
            (k * 360, x, 2.0 * x)
        }))
        .unwrap()
    }

    #[test]
    fn fit_requires_two_points() {
        let single = PairSeries::from_samples([(0, 1.0, 1.0)]).unwrap();
        let err = TransitionModel::fit(&single, ModelConfig::default()).unwrap_err();
        assert!(matches!(err, ModelError::InsufficientHistory { points: 1 }));
    }

    #[test]
    fn fit_learns_all_transitions() {
        let history = linear_history(200);
        let model = TransitionModel::fit(&history, ModelConfig::default()).unwrap();
        assert_eq!(model.matrix().total_observations(), 199);
        assert!(model.last_cell().is_some());
        assert_eq!(model.observations(), 200);
    }

    #[test]
    fn correlated_points_outscore_broken_ones() {
        let history = linear_history(500);
        let model = TransitionModel::fit(&history, ModelConfig::default()).unwrap();
        let good = model.score_transition(Point2::new(50.0, 100.0), Point2::new(51.0, 102.0));
        let bad = model.score_transition(Point2::new(50.0, 100.0), Point2::new(50.0, 1.0));
        let (good, bad) = (good.unwrap(), bad.unwrap());
        assert!(
            good.fitness() > bad.fitness(),
            "good {} vs bad {}",
            good.fitness(),
            bad.fitness()
        );
    }

    #[test]
    fn observe_scores_and_updates() {
        let history = linear_history(300);
        let mut model = TransitionModel::fit(&history, ModelConfig::default()).unwrap();
        let before = model.matrix().total_observations();
        let out = model.observe(Point2::new(10.0, 20.0));
        assert!(out.score.is_some());
        assert!(out.updated);
        assert_eq!(model.matrix().total_observations(), before + 1);
    }

    #[test]
    fn frozen_model_never_updates() {
        let history = linear_history(300);
        let config = ModelConfig::default().frozen();
        let mut model = TransitionModel::fit(&history, config).unwrap();
        let before = model.matrix().total_observations();
        let out = model.observe(Point2::new(10.0, 20.0));
        assert!(!out.updated);
        assert!(!out.extended);
        assert_eq!(model.matrix().total_observations(), before);
    }

    #[test]
    fn outlier_scores_zero_and_preserves_model() {
        let history = linear_history(300);
        let mut model = TransitionModel::fit(&history, ModelConfig::default()).unwrap();
        let before = model.matrix().clone();
        let far = Point2::new(1e7, -1e7);
        let out = model.observe(far);
        let score = out.score.unwrap();
        assert!(score.is_outlier());
        assert_eq!(score.fitness(), 0.0);
        assert!(!out.updated);
        assert_eq!(model.matrix(), &before);
        assert_eq!(model.outliers(), 1);
    }

    #[test]
    fn outlier_does_not_blind_next_score() {
        let history = linear_history(300);
        let mut model = TransitionModel::fit(&history, ModelConfig::default()).unwrap();
        model.observe(Point2::new(1e7, -1e7)); // outlier
        let out = model.observe(Point2::new(10.0, 20.0));
        // The next in-grid point still gets a score relative to the last
        // in-grid cell.
        assert!(out.score.is_some());
        assert!(!out.score.unwrap().is_outlier());
    }

    #[test]
    fn near_boundary_point_extends_grid_in_adaptive_mode() {
        let history = linear_history(300);
        let config = ModelConfig::builder()
            .growth(GrowthPolicy { lambda: 3.0 })
            .build()
            .unwrap();
        let mut model = TransitionModel::fit(&history, config).unwrap();
        let (x_hi, y_hi) = (
            model.grid().x_partition().upper(),
            model.grid().y_partition().upper(),
        );
        let cells_before = model.grid().cell_count();
        // Slightly past the boundary on both dims.
        let p = Point2::new(x_hi + 0.1, y_hi + 0.1);
        let out = model.observe(p);
        assert!(out.extended);
        assert!(model.grid().cell_count() > cells_before);
        assert_eq!(model.extensions(), 1);
        // The point is now in-grid and scored.
        assert!(!out.score.unwrap().is_outlier());
        // A subsequent normal point still scores fine (remap correctness).
        let out2 = model.observe(Point2::new(50.0, 100.0));
        assert!(out2.score.is_some());
    }

    #[test]
    fn update_threshold_skips_anomalous_transitions() {
        let history = linear_history(500);
        let config = ModelConfig::builder()
            .update_threshold(0.05)
            .build()
            .unwrap();
        let mut model = TransitionModel::fit(&history, config).unwrap();
        let before = model.matrix().total_observations();
        // A wildly improbable (but in-grid) jump.
        model.observe(Point2::new(0.5, 1.0));
        model.observe(Point2::new(99.0, 1.0));
        assert!(model.updates_skipped() >= 1);
        assert!(model.matrix().total_observations() <= before + 2);
    }

    #[test]
    fn score_point_without_context_is_outlier() {
        let grid = GridStructure::uniform((0.0, 1.0), (0.0, 1.0), 3, 3);
        let model = TransitionModel::from_grid(grid, ModelConfig::default()).unwrap();
        assert!(model.score_point(Point2::new(0.5, 0.5)).is_outlier());
    }

    #[test]
    fn reset_trajectory_clears_context() {
        let history = linear_history(100);
        let mut model = TransitionModel::fit(&history, ModelConfig::default()).unwrap();
        model.reset_trajectory();
        assert_eq!(model.last_cell(), None);
        let out = model.observe(Point2::new(10.0, 20.0));
        assert!(
            out.score.is_none(),
            "first point after reset has no transition"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let history = linear_history(100);
        let model = TransitionModel::fit(&history, ModelConfig::default()).unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: TransitionModel = serde_json::from_str(&json).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn remap_cell_matches_matrix_remap() {
        // Old 3-column grid, prepend 1 col and 1 row, append 1 col.
        let c = remap_cell(CellId(4), 3, 1, 1, 1);
        // Old (row 1, col 1) -> new (row 2, col 2) with 5 columns = 12.
        assert_eq!(c, CellId(12));
    }
}
