//! System-level problem determination and localization (Section 5 of the
//! paper).
//!
//! With `l` measurements under watch, the paper keeps `l(l−1)/2` pairwise
//! transition-probability models and evaluates a *fitness score* at three
//! levels at every sampling instant `t`:
//!
//! 1. **Pair** — `Q^{a,b}_t`: the rank-based score of the observed
//!    transition under the pair's model (from `gridwatch-core`);
//! 2. **Measurement** — `Q^a_t`: the mean of `Q^{a,b}_t` over the `l−1`
//!    partners `b ≠ a` (all links leading to node `a` in the correlation
//!    graph);
//! 3. **System** — `Q_t`: the mean over all measurements.
//!
//! Administrators watch `Q_t`; when it drops below a threshold `δ` they
//! drill down to per-measurement scores, per-machine averages (Figure
//! 14), and finally the offending pair's cell ranges for debugging.
//!
//! This crate provides the [`DetectionEngine`] that owns the models and
//! consumes timestamped [`Snapshot`]s, the three-level aggregation
//! ([`ScoreBoard`]), alarm generation with debouncing ([`AlarmPolicy`]),
//! and machine-level localization ([`Localizer`]).
//!
//! # Example
//!
//! ```
//! use gridwatch_detect::{DetectionEngine, EngineConfig, Snapshot};
//! use gridwatch_timeseries::{
//!     MachineId, MeasurementId, MeasurementPair, MetricKind, PairSeries, Timestamp,
//! };
//!
//! let a = MeasurementId::new(MachineId::new(0), MetricKind::CpuUtilization);
//! let b = MeasurementId::new(MachineId::new(0), MetricKind::MemoryUsage);
//! let pair = MeasurementPair::new(a, b).unwrap();
//! let history = PairSeries::from_samples(
//!     (0..300u64).map(|k| {
//!         let x = (k % 60) as f64;
//!         (k * 360, x, 2.0 * x + 5.0)
//!     }),
//! )?;
//!
//! let mut engine = DetectionEngine::train(
//!     vec![(pair, history)],
//!     EngineConfig::default(),
//! )?;
//!
//! let mut snapshot = Snapshot::new(Timestamp::from_secs(300 * 360));
//! snapshot.insert(a, 30.0);
//! snapshot.insert(b, 65.0);
//! let report = engine.step(&snapshot);
//! assert!(report.scores.system_score().unwrap() > 0.0);
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

mod alarm;
mod config;
mod drift;
mod engine;
mod incident;
pub mod invariants;
mod localize;
mod persist;
mod scores;
mod snapshot;

pub use alarm::{AlarmEvent, AlarmLevel, AlarmTracker};
pub use config::{AlarmPolicy, EngineConfig, PairScreen};
pub use drift::{DriftConfig, RebuildEvent};
pub use engine::{DetectionEngine, NoModelsTrained, StepReport, TrainingOutcome};
pub use incident::{IncidentReport, PairFinding};
pub use localize::{Localizer, SuspectMachine, SuspectMeasurement};
pub use persist::EngineSnapshot;
pub use scores::{MergeError, ScoreBoard};
pub use snapshot::Snapshot;
