//! Runtime invariant checks for the detection layer.
//!
//! The paper's math only holds under properties the type system cannot
//! express:
//!
//! * every transition row of `V` is a probability distribution — entries
//!   in `[0, 1]`, summing to one (Section 3, Eq. 1);
//! * every fitness score `Q` lies in `[0, 1]` (Section 4.2: `Q = 1 −
//!   (rank − 1)/s`);
//! * the decay rate `w` of the spatial-closeness prior exceeds one
//!   (Section 4.2: probability decays in cell distance);
//! * the grid underlying each model tiles the value space
//!   ([`gridwatch_grid::invariants`]).
//!
//! Pure verifiers return `Err(description)` and are reused by
//! `gridwatch-audit` for offline checkpoint validation; the `check_*`
//! wrappers assert at runtime and are active under `debug_assertions`.

use gridwatch_core::TransitionModel;
use gridwatch_timeseries::MeasurementPair;

/// Tolerance for row sums: rows are normalized in log space from up to
/// `s` terms, so the accumulated rounding budget is larger than the
/// comparison epsilon for individual scores.
pub const ROW_SUM_TOLERANCE: f64 = 1e-6;

/// Default number of observed rows sampled per model by
/// [`verify_model`]'s callers. A handful of rows catches systematic
/// normalization bugs without making startup quadratic in model count.
pub const DEFAULT_ROW_SAMPLE: usize = 8;

/// Whether the assertion wrappers are active in this build: true under
/// `debug_assertions`.
pub const fn enabled() -> bool {
    cfg!(debug_assertions)
}

/// Verifies a fitness score `Q ∈ [0, 1]` and finite.
pub fn verify_fitness(q: f64) -> Result<(), String> {
    if !q.is_finite() {
        return Err(format!("fitness score is not finite: {q}"));
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(format!("fitness score outside [0, 1]: {q}"));
    }
    Ok(())
}

/// Verifies that `row` is a probability distribution: non-empty, every
/// entry finite and in `[0, 1]` (within [`ROW_SUM_TOLERANCE`]), and the
/// entries summing to one within [`ROW_SUM_TOLERANCE`].
pub fn verify_row_stochastic(row: &[f64]) -> Result<(), String> {
    if row.is_empty() {
        return Err("transition row is empty".to_owned());
    }
    let mut sum = 0.0;
    for (k, &p) in row.iter().enumerate() {
        if !p.is_finite() {
            return Err(format!("transition probability {k} is not finite: {p}"));
        }
        if !(-ROW_SUM_TOLERANCE..=1.0 + ROW_SUM_TOLERANCE).contains(&p) {
            return Err(format!("transition probability {k} outside [0, 1]: {p}"));
        }
        sum += p;
    }
    if (sum - 1.0).abs() > ROW_SUM_TOLERANCE {
        return Err(format!(
            "transition row is not row-stochastic: sums to {sum}"
        ));
    }
    Ok(())
}

/// Verifies one model's static invariants: a well-formed grid, a decay
/// rate `w > 1`, transition counts that stay inside the grid's cell
/// range, and (for up to `max_rows` observed source cells) row-stochastic
/// transition rows.
pub fn verify_model(model: &TransitionModel, max_rows: usize) -> Result<(), String> {
    let grid = model.grid();
    gridwatch_grid::invariants::verify_grid(grid)?;
    let matrix = model.matrix();
    if !matrix.decay_rate().is_finite() || matrix.decay_rate() <= 1.0 {
        return Err(format!(
            "decay rate must exceed 1, got {}",
            matrix.decay_rate()
        ));
    }
    if let Some(max_cell) = matrix.max_referenced_cell() {
        if max_cell >= grid.cell_count() {
            return Err(format!(
                "transition matrix references cell {max_cell} but the grid has only {} cells",
                grid.cell_count()
            ));
        }
    }
    for from in matrix.observed_sources().take(max_rows) {
        let row = matrix.probability_row(grid, from);
        if let Err(why) = verify_row_stochastic(&row) {
            return Err(format!("row of {from}: {why}"));
        }
    }
    Ok(())
}

/// Asserts [`verify_fitness`] when checks are [`enabled`].
pub fn check_fitness(q: f64) {
    if enabled() {
        let checked = verify_fitness(q);
        assert!(checked.is_ok(), "detection invariant violated: {checked:?}");
    }
}

/// Asserts [`verify_row_stochastic`] when checks are [`enabled`].
pub fn check_row_stochastic(row: &[f64]) {
    if enabled() {
        let checked = verify_row_stochastic(row);
        assert!(checked.is_ok(), "detection invariant violated: {checked:?}");
    }
}

/// Asserts [`verify_model`] for every model when checks are [`enabled`].
/// Called at engine construction (training and snapshot recovery), not
/// per step: the sampled rows make it a startup cost only.
pub fn check_models<'a, I>(models: I)
where
    I: IntoIterator<Item = (&'a MeasurementPair, &'a TransitionModel)>,
{
    if !enabled() {
        return;
    }
    for (pair, model) in models {
        let checked = verify_model(model, DEFAULT_ROW_SAMPLE);
        assert!(
            checked.is_ok(),
            "model invariant violated for {pair}: {checked:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fitness_bounds() {
        assert!(verify_fitness(0.0).is_ok());
        assert!(verify_fitness(1.0).is_ok());
        assert!(verify_fitness(0.37).is_ok());
        assert!(verify_fitness(-0.01).is_err());
        assert!(verify_fitness(1.01).is_err());
        assert!(verify_fitness(f64::NAN).is_err());
        assert!(verify_fitness(f64::INFINITY).is_err());
    }

    #[test]
    fn row_stochastic_bounds() {
        assert!(verify_row_stochastic(&[0.25, 0.25, 0.5]).is_ok());
        assert!(verify_row_stochastic(&[1.0]).is_ok());
        assert!(verify_row_stochastic(&[]).is_err());
        assert!(verify_row_stochastic(&[0.6, 0.6]).is_err());
        assert!(verify_row_stochastic(&[0.5, f64::NAN]).is_err());
        assert!(verify_row_stochastic(&[1.5, -0.5]).is_err());
    }

    #[test]
    fn tiny_rounding_error_is_tolerated() {
        let row = [0.1; 10]; // sums to 1 within rounding, not exactly
        assert!(verify_row_stochastic(&row).is_ok());
    }
}
