//! The grid-based transition probability model `M = (G, V)` of the ICDCS
//! 2009 paper, together with its Bayesian learning rule and the rank-based
//! fitness score used for problem determination.
//!
//! # Model
//!
//! For a pair of measurements, each observation is a two-dimensional point
//! `x_t = (m1_t, m2_t)`. Under the first-order Markov assumption
//! `P(x_{t+1} | x_t, …, x_1) = P(x_{t+1} | x_t)`, the model approximates
//! `P(x_{t+1} | x_t)` by the cell-level transition probability
//! `P(c_i → c_j)` where `x_t ∈ c_i` and `x_{t+1} ∈ c_j` over the grid
//! structure `G` built by [`gridwatch_grid`].
//!
//! # Learning
//!
//! * **Prior** — the *spatial closeness tendency*: transitions to nearby
//!   cells are a-priori more probable, `P(c_i → c_j) ∝ 1 / K(c_i, c_j)`
//!   where `K` is a [`DecayKernel`] weight with decay rate `w`
//!   ([`prior`]). With the default kernel and `w = 2` this reproduces the
//!   paper's printed Figure 5 matrix exactly.
//! * **Posterior** — each observed transition `x_t → x_{t+1}` with
//!   `x_{t+1} ∈ c_h` multiplies row `i` by the likelihood
//!   `P(x_t → x_{t+1} | c_i → c_j) ∝ 1 / K(c_h, c_j)` (Eq. 2) and
//!   renormalizes; performed additively in log space
//!   ([`TransitionMatrix`]).
//!
//! # Scoring
//!
//! For the observed destination cell `c_h`, cells are ranked by
//! `P(c_i → ·)` descending and the fitness score is
//! `Q = 1 − (π(c_h) − 1)/s` ([`fitness`]); out-of-grid points score 0.
//!
//! # Example
//!
//! ```
//! use gridwatch_core::{ModelConfig, TransitionModel};
//! use gridwatch_timeseries::{PairSeries, Point2};
//!
//! // History: a tight linear correlation y = 2x.
//! let history = PairSeries::from_samples(
//!     (0..500u64).map(|k| {
//!         let x = ((k % 100) as f64) + 1.0;
//!         (k * 360, x, 2.0 * x)
//!     }),
//! )?;
//! let mut model = TransitionModel::fit(&history, ModelConfig::default())?;
//!
//! // A correlated observation scores better than a broken one.
//! let good = model.score_point(Point2::new(50.0, 100.0));
//! let bad = model.score_point(Point2::new(50.0, 2.0));
//! assert!(good.fitness() > bad.fitness());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::disallowed_methods,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

mod config;
mod error;
pub mod fitness;
mod matrix;
mod model;
pub mod prior;
mod report;

pub use config::{ModelConfig, ModelConfigBuilder};
pub use error::ModelError;
pub use fitness::{fitness_from_rank, rank_of_destination, score_row, TransitionScore};
pub use gridwatch_grid::DecayKernel;
pub use matrix::TransitionMatrix;
pub use model::{StepOutcome, TransitionModel};
pub use report::CellRanges;
