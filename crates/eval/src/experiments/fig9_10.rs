//! Figures 9–10: the prior transition distribution from one cell
//! (peaked at the cell itself) versus the posterior after six days of
//! observed transitions dominated by one destination (peak moves to the
//! observed destination).
//!
//! The paper's example uses cell c12 with most observed transitions
//! going to c10; we reproduce the same situation on a 4×4 grid.

use gridwatch_core::{DecayKernel, TransitionMatrix};
use gridwatch_grid::{CellId, GridStructure};

use crate::report::{Check, ExperimentResult, Table};

/// Regenerates the prior/posterior comparison.
pub fn run() -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "fig9_10",
        "prior vs posterior transition distribution from cell c12",
    );
    let grid = GridStructure::uniform((0.0, 4.0), (0.0, 4.0), 4, 4);
    let from = CellId(11); // c12 in 1-based paper numbering
    let to = CellId(9); // c10

    let mut matrix = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
    let prior_row = matrix.probability_row(&grid, from);

    // Six days of 6-minute samples ≈ 1440 transitions; the paper's
    // walkthrough says "many transitions from c12 to c10 are observed".
    // We emulate a realistic mix: 60% to c10, 25% self, 15% to a
    // neighbour of c10.
    let neighbour = CellId(10); // c11
    for k in 0..1440 {
        let dest = match k % 20 {
            0..=11 => to,
            12..=16 => from,
            _ => neighbour,
        };
        matrix.observe(from, dest);
    }
    let posterior_row = matrix.probability_row(&grid, from);

    let mut table = Table::new(
        "P(c12 -> c) before and after six days of updates",
        vec!["cell".into(), "prior %".into(), "posterior %".into()],
    );
    for j in 0..grid.cell_count() {
        table.push_row(vec![
            format!("c{}", j + 1),
            format!("{:.2}", prior_row[j] * 100.0),
            format!("{:.2}", posterior_row[j] * 100.0),
        ]);
    }
    result.tables.push(table);

    let argmax = |row: &[f64]| {
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("non-empty")
            .0
    };
    result.checks.push(Check::new(
        "the prior peaks at the source cell c12",
        argmax(&prior_row) == from.index(),
        format!("prior argmax = c{}", argmax(&prior_row) + 1),
    ));
    result.checks.push(Check::new(
        "after many observed c12→c10 transitions the posterior peaks at c10",
        argmax(&posterior_row) == to.index(),
        format!("posterior argmax = c{}", argmax(&posterior_row) + 1),
    ));
    result.checks.push(Check::new(
        "both rows remain probability distributions",
        (prior_row.iter().sum::<f64>() - 1.0).abs() < 1e-9
            && (posterior_row.iter().sum::<f64>() - 1.0).abs() < 1e-9,
        "row sums within 1e-9 of 1",
    ));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn posterior_peak_moves_to_observed_destination() {
        let r = run();
        assert!(r.all_checks_passed(), "{}", r.to_ascii());
    }
}
