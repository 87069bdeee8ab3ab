//! The rank-based fitness score (Section 5 of the paper).
//!
//! Given the current cell `c_i` and the observed destination cell `c_h`,
//! all cells are ranked by `P(c_i → ·)` in decreasing order (rank 1 =
//! most probable) and the fitness is `Q = 1 − (π(c_h) − 1)/s`. The most
//! probable destination scores 1, the least probable scores `1/s`, and
//! points that fall outside the grid score 0.
//!
//! The scorer ranks the *log* row `l_j = ln P(c_i → c_j) + const`, which
//! orders cells exactly as the probabilities do without the `exp` that
//! would underflow the row's tail to `0.0` and tie its least probable
//! cells. A probability is normalised only where a caller reads one.
//!
//! Ties use *competition ranking*: cells with equal value share the best
//! rank among them, so the score does not depend on an arbitrary internal
//! ordering. (The paper's worked example, Figure 11, has no ties; this
//! module's tests reproduce it exactly.)

use gridwatch_grid::CellId;
use serde::{Deserialize, Serialize};

/// The outcome of scoring one observed transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransitionScore {
    fitness: f64,
    probability: Option<f64>,
    rank: Option<usize>,
    cell_count: usize,
    destination: Option<CellId>,
}

impl TransitionScore {
    /// A score for a destination inside the grid.
    fn in_grid(fitness: f64, rank: usize, cell_count: usize, destination: CellId) -> Self {
        TransitionScore {
            fitness,
            probability: None,
            rank: Some(rank),
            cell_count,
            destination: Some(destination),
        }
    }

    /// This score with the destination's normalised probability attached.
    pub(crate) fn with_probability(mut self, probability: f64) -> Self {
        self.probability = Some(probability);
        self
    }

    /// The zero score the paper assigns to out-of-grid outliers.
    pub(crate) fn outlier(cell_count: usize) -> Self {
        TransitionScore {
            fitness: 0.0,
            probability: Some(0.0),
            rank: None,
            cell_count,
            destination: None,
        }
    }

    /// The fitness score `Q ∈ [0, 1]`; 0 for outliers.
    pub fn fitness(&self) -> f64 {
        self.fitness
    }

    /// The model's transition probability `P(x_t → x_{t+1})`: `Some(0.0)`
    /// for outliers, and `None` when the scorer ranked the log row without
    /// normalising it (the online path does so unless the update
    /// threshold `δ` is positive).
    pub fn probability(&self) -> Option<f64> {
        self.probability
    }

    /// The destination cell's rank `π(c_h)` (1 = most probable), or
    /// `None` for outliers.
    pub fn rank(&self) -> Option<usize> {
        self.rank
    }

    /// The number of grid cells `s` at scoring time.
    pub fn cell_count(&self) -> usize {
        self.cell_count
    }

    /// The destination cell, or `None` for outliers.
    pub fn destination(&self) -> Option<CellId> {
        self.destination
    }

    /// Whether the observation fell outside the grid.
    pub fn is_outlier(&self) -> bool {
        self.destination.is_none()
    }
}

/// The competition rank (1-based) of `destination` when cells are ordered
/// by decreasing value: `1 + #{j : v_j > v_dest}`. `row` is a probability
/// row or a log row; the two rank alike wherever `exp` keeps distinct log
/// values distinct.
///
/// # Panics
///
/// Panics if `destination` is out of range for `row`.
pub fn rank_of_destination(row: &[f64], destination: CellId) -> usize {
    let p = row[destination.index()];
    1 + row.iter().filter(|&&q| q > p).count()
}

/// The paper's fitness formula `Q = 1 − (rank − 1)/s`.
///
/// # Panics
///
/// Panics if `rank` is 0 or exceeds `cell_count`, or if `cell_count` is 0.
pub fn fitness_from_rank(rank: usize, cell_count: usize) -> f64 {
    assert!(cell_count > 0, "cell count must be positive");
    assert!(
        (1..=cell_count).contains(&rank),
        "rank must be in 1..={cell_count}, got {rank}"
    );
    1.0 - (rank - 1) as f64 / cell_count as f64
}

/// Scores a destination cell against a log (or probability) row: the rank
/// and fitness, without a probability.
pub fn score_row(row: &[f64], destination: CellId) -> TransitionScore {
    let rank = rank_of_destination(row, destination);
    TransitionScore::in_grid(
        fitness_from_rank(rank, row.len()),
        rank,
        row.len(),
        destination,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 11: transition probabilities from c4 over six
    /// cells, with printed ranks and fitness scores.
    #[test]
    fn figure11_worked_example() {
        let row = [0.1116, 0.2422, 0.2095, 0.2538, 0.1734, 0.0094];
        let expected_rank = [5, 2, 3, 1, 4, 6];
        let expected_fitness = [0.3333, 0.8333, 0.6667, 1.0000, 0.5000, 0.1667];
        for j in 0..6 {
            let s = score_row(&row, CellId(j));
            assert_eq!(s.rank(), Some(expected_rank[j]), "cell c{}", j + 1);
            assert!(
                (s.fitness() - expected_fitness[j]).abs() < 5e-5,
                "cell c{}: fitness {} (paper prints {})",
                j + 1,
                s.fitness(),
                expected_fitness[j]
            );
            assert_eq!(s.probability(), None);
            assert!(!s.is_outlier());
        }
    }

    #[test]
    fn fitness_extremes() {
        assert_eq!(fitness_from_rank(1, 10), 1.0);
        assert!((fitness_from_rank(10, 10) - 0.1).abs() < 1e-12);
        assert_eq!(fitness_from_rank(1, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "rank must be in")]
    fn fitness_rejects_zero_rank() {
        fitness_from_rank(0, 5);
    }

    #[test]
    #[should_panic(expected = "rank must be in")]
    fn fitness_rejects_excessive_rank() {
        fitness_from_rank(6, 5);
    }

    #[test]
    fn ties_share_best_rank() {
        let row = [0.4, 0.4, 0.2];
        assert_eq!(rank_of_destination(&row, CellId(0)), 1);
        assert_eq!(rank_of_destination(&row, CellId(1)), 1);
        assert_eq!(rank_of_destination(&row, CellId(2)), 3);
    }

    #[test]
    fn outlier_scores_zero() {
        let s = TransitionScore::outlier(9);
        assert_eq!(s.fitness(), 0.0);
        assert_eq!(s.probability(), Some(0.0));
        assert_eq!(s.rank(), None);
        assert!(s.is_outlier());
        assert_eq!(s.cell_count(), 9);
    }

    #[test]
    fn higher_probability_never_scores_worse() {
        let row = [0.05, 0.30, 0.10, 0.25, 0.20, 0.10];
        let mut indexed: Vec<usize> = (0..row.len()).collect();
        indexed.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap());
        let mut prev = f64::INFINITY;
        for &j in &indexed {
            let f = score_row(&row, CellId(j)).fitness();
            assert!(f <= prev + 1e-12);
            prev = f;
        }
    }
}
