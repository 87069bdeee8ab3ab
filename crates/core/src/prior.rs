//! The spatial-closeness prior over cell transitions.
//!
//! Given `x_t ∈ c_i`, the paper's prior makes `P(c_i → c_i)` the highest
//! and decays the probability exponentially as `c_j` departs from `c_i`:
//! `P(c_i → c_j) ∝ P(c_i → c_i) / w^{d(c_i, c_j)}`. The exact decay
//! weight is a [`DecayKernel`]; the default [`DecayKernel::MeanAxis`] with
//! `w = 2` reproduces the paper's Figure 5 example matrix digit for digit
//! (see the tests in this module).

use gridwatch_grid::{CellId, DecayKernel, GridStructure};

/// The unnormalized log-prior of transitioning from `from` to every cell
/// of the grid, in flat cell order: `-ln K(from, c_j)`.
///
/// Adding per-observation log-likelihood terms to this vector and
/// normalizing yields the posterior row (Eq. 1 of the paper, in log
/// space).
pub fn log_prior_row(
    grid: &GridStructure,
    kernel: DecayKernel,
    decay_rate: f64,
    from: CellId,
) -> Vec<f64> {
    grid.cells()
        .map(|to| {
            let (dx, dy) = grid.offset(from, to);
            -kernel.log_weight(decay_rate, dx, dy)
        })
        .collect()
}

/// The normalized prior distribution `P(from → ·)` over all cells, in
/// flat cell order. Each row sums to 1.
///
/// # Example
///
/// ```
/// use gridwatch_core::prior::prior_row;
/// use gridwatch_grid::{CellId, DecayKernel, GridStructure};
///
/// let grid = GridStructure::uniform((0.0, 3.0), (0.0, 3.0), 3, 3);
/// // Row of the centre cell c5 (flat index 4) with the paper's w = 2:
/// let row = prior_row(&grid, DecayKernel::MeanAxis, 2.0, CellId(4));
/// assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
/// // Figure 5 prints P(c5 → c5) = 17.65%.
/// assert!((row[4] - 0.1765).abs() < 5e-4);
/// ```
pub fn prior_row(
    grid: &GridStructure,
    kernel: DecayKernel,
    decay_rate: f64,
    from: CellId,
) -> Vec<f64> {
    let log_row = log_prior_row(grid, kernel, decay_rate, from);
    normalize_log_row(&log_row)
}

/// The full `s × s` prior matrix, row `i` being `P(c_i → ·)`.
pub fn prior_matrix(grid: &GridStructure, kernel: DecayKernel, decay_rate: f64) -> Vec<Vec<f64>> {
    grid.cells()
        .map(|from| prior_row(grid, kernel, decay_rate, from))
        .collect()
}

/// Converts an unnormalized log-probability row into a normalized
/// probability row using the log-sum-exp trick.
pub fn normalize_log_row(log_row: &[f64]) -> Vec<f64> {
    match log_normalizer(log_row) {
        Some(log_z) => log_row.iter().map(|&l| (l - log_z).exp()).collect(),
        None => vec![1.0 / log_row.len() as f64; log_row.len()],
    }
}

/// Entry `j` of [`normalize_log_row`] alone, bit for bit, without
/// allocating a row.
pub(crate) fn log_row_probability(log_row: &[f64], j: usize) -> f64 {
    match log_normalizer(log_row) {
        Some(log_z) => (log_row[j] - log_z).exp(),
        None => 1.0 / log_row.len() as f64,
    }
}

/// `ln Σ_j exp(l_j)` by log-sum-exp, or `None` when all mass vanished
/// (the callers then fall back to uniform to stay a distribution).
fn log_normalizer(log_row: &[f64]) -> Option<f64> {
    let max = log_row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        return None;
    }
    let sum: f64 = log_row.iter().map(|&l| (l - max).exp()).sum();
    Some(max + sum.ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid3x3() -> GridStructure {
        GridStructure::uniform((0.0, 3.0), (0.0, 3.0), 3, 3)
    }

    /// The paper's Figure 5: the full 9×9 prior matrix for a 3×3 grid,
    /// printed to two decimal places (percentages). Our default kernel
    /// must reproduce every entry.
    #[test]
    fn figure5_matrix_reproduced_exactly() {
        #[rustfmt::skip]
        let expected: [[f64; 9]; 9] = [
            [21.98, 14.65,  8.79, 14.65, 10.99,  7.33,  8.79,  7.33,  5.49],
            [13.16, 19.74, 13.16,  9.87, 13.16,  9.87,  6.58,  7.89,  6.58],
            [ 8.79, 14.65, 21.98,  7.33, 10.99, 14.65,  5.49,  7.33,  8.79],
            [13.16,  9.87,  6.58, 19.74, 13.16,  7.89, 13.16,  9.87,  6.58],
            [ 8.82, 11.76,  8.82, 11.76, 17.65, 11.76,  8.82, 11.76,  8.82],
            [ 6.58,  9.87, 13.16,  7.89, 13.16, 19.74,  6.58,  9.87, 13.16],
            [ 8.79,  7.33,  5.49, 14.65, 10.99,  7.33, 21.98, 14.65,  8.79],
            [ 6.58,  7.89,  6.58,  9.87, 13.16,  9.87, 13.16, 19.74, 13.16],
            [ 5.49,  7.33,  8.79,  7.33, 10.99, 14.65,  8.79, 14.65, 21.98],
        ];
        let grid = grid3x3();
        let matrix = prior_matrix(&grid, DecayKernel::MeanAxis, 2.0);
        for (i, row) in matrix.iter().enumerate() {
            for (j, &p) in row.iter().enumerate() {
                let want = expected[i][j] / 100.0;
                assert!(
                    (p - want).abs() < 5e-5,
                    "V[{}][{}] = {:.4}%, paper prints {:.2}%",
                    i + 1,
                    j + 1,
                    p * 100.0,
                    expected[i][j]
                );
            }
        }
    }

    #[test]
    fn rows_sum_to_one_for_all_kernels() {
        let grid = GridStructure::uniform((0.0, 1.0), (0.0, 1.0), 5, 4);
        for kernel in DecayKernel::ALL {
            for from in grid.cells() {
                let row = prior_row(&grid, kernel, 2.0, from);
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-10, "{kernel:?} row {from}");
            }
        }
    }

    #[test]
    fn self_transition_is_most_probable() {
        let grid = GridStructure::uniform((0.0, 1.0), (0.0, 1.0), 6, 6);
        for kernel in DecayKernel::ALL {
            for from in grid.cells() {
                let row = prior_row(&grid, kernel, 2.0, from);
                let self_p = row[from.index()];
                for (j, &p) in row.iter().enumerate() {
                    if j != from.index() {
                        assert!(self_p >= p, "{kernel:?}: self not maximal from {from}");
                    }
                }
            }
        }
    }

    #[test]
    fn probability_decreases_with_distance_along_a_row_of_cells() {
        let grid = GridStructure::uniform((0.0, 1.0), (0.0, 1.0), 8, 1);
        let row = prior_row(&grid, DecayKernel::MeanAxis, 2.0, CellId(0));
        for j in 1..8 {
            assert!(row[j] < row[j - 1], "prior must decay monotonically");
        }
    }

    #[test]
    fn higher_decay_rate_concentrates_mass() {
        let grid = grid3x3();
        let soft = prior_row(&grid, DecayKernel::MeanAxis, 1.5, CellId(4));
        let sharp = prior_row(&grid, DecayKernel::MeanAxis, 4.0, CellId(4));
        assert!(sharp[4] > soft[4]);
    }

    #[test]
    fn normalize_handles_degenerate_rows() {
        let row = normalize_log_row(&[f64::NEG_INFINITY, f64::NEG_INFINITY]);
        assert_eq!(row, vec![0.5, 0.5]);
        let row = normalize_log_row(&[0.0, 0.0, 0.0, 0.0]);
        assert!(row.iter().all(|&p| (p - 0.25).abs() < 1e-12));
    }
}
