//! Adaptive two-dimensional grid discretization for `gridwatch`.
//!
//! The ICDCS 2009 paper partitions the two-dimensional value space of a
//! measurement pair into non-overlapping rectangular cells (Section 4.1):
//!
//! 1. **Initialization** — each dimension is divided into fine equal-width
//!    *units*; adjacent units are merged into *intervals* when their data
//!    counts are similar or both sparse (the density-adaptive strategy of
//!    the MAFIA subspace-clustering algorithm). Near-uniform dimensions
//!    fall back to plain equal-width intervals. The grid is the cross
//!    product of the two dimensions' intervals.
//! 2. **Online extension** — when a new point lands slightly outside the
//!    grid (within `λ · r_avg` of the boundary, where `r_avg` is the
//!    dimension's average interval width), the boundary gradually extends
//!    by appending intervals; points further out are outliers and leave
//!    the grid unchanged. Cells are never deleted, keeping the grid
//!    rectangular for fast indexing.
//!
//! The crate also defines the [`DecayKernel`] used by `gridwatch-core` for
//! the spatial-closeness prior and likelihood: transitions to nearby cells
//! are more probable, with probability decaying in the cell distance.
//!
//! # Example
//!
//! ```
//! use gridwatch_grid::{GridBuilder, GridConfig};
//! use gridwatch_timeseries::Point2;
//!
//! let points: Vec<Point2> = (0..500)
//!     .map(|k| {
//!         let x = (k % 100) as f64;
//!         Point2::new(x, x * 2.0)
//!     })
//!     .collect();
//! let grid = GridBuilder::new(GridConfig::default()).build(&points)?;
//! assert!(grid.cell_count() > 1);
//! let cell = grid.locate(gridwatch_timeseries::Point2::new(50.0, 100.0)).unwrap();
//! assert!(grid.cell_bounds(cell).0.contains(50.0));
//! # Ok::<(), gridwatch_grid::GridError>(())
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

mod builder;
mod distance;
mod error;
pub mod float;
mod interval;
pub mod invariants;
mod partition;
mod structure;

pub use builder::{GridBuilder, GridConfig};
pub use distance::DecayKernel;
pub use error::GridError;
pub use interval::Interval;
pub use partition::DimensionPartition;
pub use structure::{CellId, Extension, GridStructure, GrowthPolicy, Location};
