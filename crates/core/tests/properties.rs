//! Property-based tests for the transition model: distributions stay
//! normalized, fitness is rank-consistent, updates move mass toward
//! observations, and online growth never corrupts indices.

use gridwatch_core::{
    fitness_from_rank, rank_of_destination, DecayKernel, ModelConfig, TransitionMatrix,
    TransitionModel,
};
use gridwatch_grid::{CellId, GridStructure, GrowthPolicy};
use gridwatch_timeseries::{PairSeries, Point2};
use proptest::prelude::*;

fn arb_grid() -> impl Strategy<Value = GridStructure> {
    (1usize..8, 1usize..8).prop_map(|(cols, rows)| {
        GridStructure::uniform((0.0, cols as f64), (0.0, rows as f64), cols, rows)
    })
}

proptest! {
    #[test]
    fn posterior_rows_are_distributions(
        grid in arb_grid(),
        observations in prop::collection::vec((0usize..64, 0usize..64), 0..100),
        w in 1.1f64..5.0,
    ) {
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, w);
        let s = grid.cell_count();
        for (from, to) in observations {
            v.observe(CellId(from % s), CellId(to % s));
        }
        for from in grid.cells() {
            let row = v.probability_row(&grid, from);
            let sum: f64 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-8, "row {from} sums to {sum}");
            prop_assert!(row.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
        }
    }

    #[test]
    fn observing_a_destination_raises_its_probability(
        grid in arb_grid(),
        from_idx in 0usize..64,
        to_idx in 0usize..64,
    ) {
        let s = grid.cell_count();
        let from = CellId(from_idx % s);
        let to = CellId(to_idx % s);
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        let before = v.probability_row(&grid, from)[to.index()];
        v.observe(from, to);
        let after = v.probability_row(&grid, from)[to.index()];
        if s > 1 {
            prop_assert!(after > before, "observation must raise probability: {before} -> {after}");
        } else {
            prop_assert_eq!(after, 1.0);
        }
    }

    #[test]
    fn fitness_is_monotone_in_rank(s in 1usize..200, r1 in 1usize..200, r2 in 1usize..200) {
        let r1 = r1.min(s);
        let r2 = r2.min(s);
        let f1 = fitness_from_rank(r1, s);
        let f2 = fitness_from_rank(r2, s);
        prop_assert_eq!(r1 < r2, f1 > f2);
        prop_assert!((0.0..=1.0).contains(&f1));
    }

    #[test]
    fn rank_counts_strictly_greater(probs in prop::collection::vec(0.0f64..1.0, 1..50), pick in 0usize..50) {
        let dest = CellId(pick % probs.len());
        let rank = rank_of_destination(&probs, dest);
        prop_assert!(rank >= 1 && rank <= probs.len());
        let greater = probs.iter().filter(|&&q| q > probs[dest.index()]).count();
        prop_assert_eq!(rank, greater + 1);
    }

    #[test]
    fn fitted_model_scores_history_like_transitions_well(
        seed_vals in prop::collection::vec(0.0f64..100.0, 50..150),
    ) {
        // History walks a diagonal band; model should score in-band
        // transitions at least as well as orthogonal jumps on average.
        let history = PairSeries::from_samples(
            seed_vals
                .iter()
                .enumerate()
                .map(|(k, &x)| (k as u64 * 360, x, x + 1000.0)),
        )
        .unwrap();
        if let Ok(model) = TransitionModel::fit(&history, ModelConfig::default()) {
            let mid = 50.0;
            let good = model
                .score_transition(Point2::new(mid, mid + 1000.0), Point2::new(mid, mid + 1000.0));
            if let Some(g) = good {
                prop_assert!(!g.is_outlier());
                prop_assert!(g.fitness() > 0.0);
            }
        }
    }

    #[test]
    fn online_stream_never_panics_and_scores_stay_bounded(
        stream in prop::collection::vec((-50.0f64..150.0, -50.0f64..150.0), 1..200),
        lambda in 0.0f64..4.0,
    ) {
        let history = PairSeries::from_samples(
            (0..100u64).map(|k| (k * 360, (k % 50) as f64, ((k % 50) * 2) as f64)),
        )
        .unwrap();
        let config = ModelConfig::builder()
            .growth(GrowthPolicy { lambda })
            .build()
            .unwrap();
        let mut model = TransitionModel::fit(&history, config).unwrap();
        for (x, y) in stream {
            let out = model.observe(Point2::new(x, y));
            if let Some(s) = out.score {
                prop_assert!((0.0..=1.0).contains(&s.fitness()));
                if let Some(p) = s.probability() {
                    prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
                }
            }
        }
    }

    #[test]
    fn adaptive_learning_is_conservative_about_totals(
        n_extra in 1usize..50,
    ) {
        let history = PairSeries::from_samples(
            (0..100u64).map(|k| (k * 360, (k % 50) as f64, ((k % 50) * 2) as f64)),
        )
        .unwrap();
        let mut model = TransitionModel::fit(&history, ModelConfig::default()).unwrap();
        let base = model.matrix().total_observations();
        for k in 0..n_extra {
            model.observe(Point2::new((k % 50) as f64, ((k % 50) * 2) as f64));
        }
        // Every in-grid observation with default threshold 0 is learned.
        prop_assert_eq!(model.matrix().total_observations(), base + n_extra as u64);
    }
}
