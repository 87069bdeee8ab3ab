//! Edge-case tests for the transition model beyond the happy path:
//! degenerate grids, extreme thresholds, kernel variants, and cache
//! behaviour.

use gridwatch_core::{
    fitness_from_rank, DecayKernel, ModelConfig, TransitionMatrix, TransitionModel,
};
use gridwatch_grid::{CellId, GridStructure, GrowthPolicy};
use gridwatch_timeseries::{PairSeries, Point2};

fn linear_history(n: u64) -> PairSeries {
    PairSeries::from_samples((0..n).map(|k| {
        let x = (k % 100) as f64;
        (k * 360, x, 2.0 * x)
    }))
    .unwrap()
}

#[test]
fn single_cell_grid_always_scores_one() {
    let grid = GridStructure::uniform((0.0, 1.0), (0.0, 1.0), 1, 1);
    let mut model = TransitionModel::from_grid(grid, ModelConfig::default()).unwrap();
    model.observe(Point2::new(0.5, 0.5));
    let out = model.observe(Point2::new(0.2, 0.8));
    let score = out.score.unwrap();
    assert_eq!(score.fitness(), 1.0);
    assert_eq!(score.rank(), Some(1));
    assert_eq!(score.cell_count(), 1);
}

#[test]
fn update_threshold_one_never_learns() {
    let config = ModelConfig::builder()
        .update_threshold(1.0)
        .build()
        .unwrap();
    let mut model = TransitionModel::fit(&linear_history(200), config).unwrap();
    let before = model.matrix().total_observations();
    for k in 0..20 {
        model.observe(Point2::new((k % 100) as f64, 2.0 * (k % 100) as f64));
    }
    // A probability of exactly 1.0 is only achievable in a 1-cell grid,
    // so every update is skipped.
    assert_eq!(model.matrix().total_observations(), before);
    assert_eq!(model.updates_skipped(), 20);
}

#[test]
fn every_kernel_fits_and_scores() {
    let history = linear_history(300);
    for kernel in DecayKernel::ALL {
        let config = ModelConfig::builder().kernel(kernel).build().unwrap();
        let model = TransitionModel::fit(&history, config).unwrap();
        let s = model
            .score_transition(Point2::new(50.0, 100.0), Point2::new(51.0, 102.0))
            .unwrap();
        assert!(
            s.fitness() > 0.5,
            "{kernel:?} scores an in-pattern transition at {}",
            s.fitness()
        );
    }
}

#[test]
fn score_transition_from_outside_grid_is_none() {
    let model = TransitionModel::fit(&linear_history(100), ModelConfig::default()).unwrap();
    assert!(model
        .score_transition(Point2::new(1e9, 1e9), Point2::new(0.0, 0.0))
        .is_none());
}

#[test]
fn transition_probability_handles_all_membership_cases() {
    let model = TransitionModel::fit(&linear_history(100), ModelConfig::default()).unwrap();
    let inside = Point2::new(50.0, 100.0);
    let outside = Point2::new(-1e6, 1e6);
    assert!(model.transition_probability(inside, inside) > 0.0);
    assert_eq!(model.transition_probability(inside, outside), 0.0);
    assert_eq!(model.transition_probability(outside, inside), 0.0);
    assert_eq!(model.transition_probability(outside, outside), 0.0);
}

#[test]
fn growth_disabled_marks_boundary_points_outliers() {
    let config = ModelConfig::builder()
        .growth(GrowthPolicy::FROZEN)
        .build()
        .unwrap();
    let mut model = TransitionModel::fit(&linear_history(200), config).unwrap();
    let x_hi = model.grid().x_partition().upper();
    let out = model.observe(Point2::new(x_hi + 1e-6, 100.0));
    assert!(out.score.unwrap().is_outlier());
    assert!(!out.extended);
}

#[test]
fn matrix_cache_survives_clear() {
    let grid = GridStructure::uniform((0.0, 3.0), (0.0, 3.0), 3, 3);
    let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
    v.observe(CellId(0), CellId(4));
    let row1 = v.log_row(&grid, CellId(0)).to_vec();
    v.clear_cache();
    let row2 = v.log_row(&grid, CellId(0)).to_vec();
    assert_eq!(row1, row2);
}

#[test]
fn rectangular_grids_have_valid_priors() {
    // Tall-narrow and wide-short grids.
    for (cols, rows) in [(1usize, 12usize), (12, 1), (2, 9), (9, 2)] {
        let grid = GridStructure::uniform((0.0, 1.0), (0.0, 1.0), cols, rows);
        let v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        for from in grid.cells() {
            let sum: f64 = v.probability_row(&grid, from).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{cols}x{rows} from {from}");
        }
    }
}

#[test]
fn fitness_covers_full_range_exactly() {
    let s = 17;
    let best = fitness_from_rank(1, s);
    let worst = fitness_from_rank(s, s);
    assert_eq!(best, 1.0);
    assert!((worst - 1.0 / s as f64).abs() < 1e-12);
}

#[test]
fn model_equality_is_semantic_not_cache_based() {
    let history = linear_history(150);
    let a = TransitionModel::fit(&history, ModelConfig::default()).unwrap();
    let b = TransitionModel::fit(&history, ModelConfig::default()).unwrap();
    // Materialize some rows in b only; equality must not care.
    let _ = b.score_point(Point2::new(10.0, 20.0));
    assert_eq!(a, b);
}

#[test]
fn insufficient_and_degenerate_histories_are_distinct_errors() {
    let one = PairSeries::from_samples([(0, 1.0, 1.0)]).unwrap();
    let flat = PairSeries::from_samples((0..50u64).map(|k| (k, 1.0, k as f64))).unwrap();
    let e1 = TransitionModel::fit(&one, ModelConfig::default()).unwrap_err();
    let e2 = TransitionModel::fit(&flat, ModelConfig::default()).unwrap_err();
    assert!(format!("{e1}").contains("at least 2"));
    assert!(format!("{e2}").contains("dimension 0"));
}
