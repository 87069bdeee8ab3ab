//! Measurement identifiers, time-series storage, pair alignment, and
//! statistics for the `gridwatch` workspace.
//!
//! A *measurement* in the sense of the ICDCS 2009 paper is a single metric
//! observed on a single machine (e.g. CPU utilization on host `web-03`),
//! producing a time series as the system runs. This crate provides:
//!
//! * [`MeasurementId`], [`MachineId`], [`MetricKind`] — strongly typed
//!   identifiers for measurements (`machine × metric`).
//! * [`Timestamp`] and [`SampleInterval`] — integer second timekeeping with
//!   day/hour helpers used by the periodic workload experiments.
//! * [`TimeSeries`] — a sorted `(Timestamp, f64)` sequence with range
//!   queries, resampling, and iteration.
//! * [`PairSeries`] — the two-dimensional stream `(m1_t, m2_t)` obtained by
//!   aligning two series on their timestamps; the input to the pairwise
//!   correlation models in `gridwatch-core`.
//! * [`stats`] — running statistics (Welford), Pearson/Spearman
//!   correlation, quantiles, and histograms implemented from scratch.
//! * [`Catalog`] — a registry mapping measurements to machines and groups,
//!   used for problem localization.
//!
//! # Example
//!
//! ```
//! use gridwatch_timeseries::{TimeSeries, Timestamp, SampleInterval};
//!
//! let interval = SampleInterval::SIX_MINUTES;
//! let mut ts = TimeSeries::new();
//! for k in 0..10 {
//!     ts.push(Timestamp::from_secs(k * interval.as_secs()), k as f64)?;
//! }
//! assert_eq!(ts.len(), 10);
//! assert_eq!(ts.value_at(Timestamp::from_secs(720)), Some(2.0));
//! # Ok::<(), gridwatch_timeseries::TimeSeriesError>(())
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

mod catalog;
mod error;
mod id;
mod pair;
mod series;
pub mod stats;
mod time;
mod window;

pub use catalog::{Catalog, MeasurementInfo};
pub use error::TimeSeriesError;
pub use id::{GroupId, MachineId, MeasurementId, MeasurementPair, MetricKind, ParseIdError};
pub use pair::{AlignmentPolicy, PairSeries, Point2};
pub use series::TimeSeries;
pub use time::{HourOfDay, SampleInterval, Timestamp, Weekday};
pub use window::{BucketSeries, SlidingWindow};
