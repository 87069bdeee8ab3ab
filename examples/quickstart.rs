//! Quickstart: learn a pairwise correlation model from history data and
//! score new observations online.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use gridwatch::model::{ModelConfig, TransitionModel};
use gridwatch::timeseries::{PairSeries, Point2};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // History: two measurements tied by a noisy linear relationship,
    // sampled every six minutes (the paper's setting).
    let history = PairSeries::from_samples((0..2000u64).map(|k| {
        let load = 50.0 + 30.0 * (k as f64 / 40.0).sin();
        let jitter = ((k * 7919) % 101) as f64 / 101.0 - 0.5;
        (k * 360, load + jitter, 2.0 * load + 5.0 + jitter)
    }))?;

    // M = (G, V): adaptive grid + transition probability matrix.
    let mut model = TransitionModel::fit(&history, ModelConfig::default())?;
    println!(
        "trained on {} transitions; grid {}x{} = {} cells",
        model.matrix().total_observations(),
        model.grid().columns(),
        model.grid().rows(),
        model.grid().cell_count()
    );

    // Score two hypothetical transitions from the same starting state: a
    // small in-pattern move versus a broken correlation (y collapses).
    let from = Point2::new(60.0, 125.0);
    let normal_score = model
        .score_transition(from, Point2::new(61.0, 127.0))
        .expect("starting point is inside the grid");
    let broken_score = model
        .score_transition(from, Point2::new(61.0, 50.0))
        .expect("starting point is inside the grid");
    // `score_transition` normalises the row, so both carry a probability.
    let normal_probability = normal_score.probability().expect("normalised");
    let broken_probability = broken_score.probability().expect("normalised");
    println!(
        "normal transition: fitness {:.3}, probability {:.3e} (rank {:?} of {})",
        normal_score.fitness(),
        normal_probability,
        normal_score.rank(),
        normal_score.cell_count()
    );
    println!(
        "broken transition: fitness {:.3}, probability {:.3e} (rank {:?} of {})",
        broken_score.fitness(),
        broken_probability,
        broken_score.rank(),
        broken_score.cell_count()
    );
    // The paper alarms when P(x_t -> x_{t+1}) drops below a threshold δ;
    // the broken transition's probability collapses even when its
    // rank-based fitness only dips.
    assert!(broken_probability < normal_probability / 10.0);
    // Online use updates the model as data streams in.
    let outcome = model.observe(Point2::new(60.0, 125.0));
    println!(
        "streamed one observation: updated = {}, extended = {}",
        outcome.updated, outcome.extended
    );

    // The paper's human-debugging output: the offending value ranges.
    if let Some(cell) = broken_score.destination() {
        println!(
            "anomalous values fell into cell ranges {}",
            model.cell_ranges(cell)
        );
    }
    assert!(normal_score.fitness() >= broken_score.fitness());
    Ok(())
}
