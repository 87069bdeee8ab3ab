//! Shared fixtures for the Criterion gate benches: a simulated trace
//! and the engine trained on it.

use std::collections::BTreeMap;

use gridwatch_core::ModelConfig;
use gridwatch_detect::{DetectionEngine, EngineConfig, PairScreen};
use gridwatch_sim::scenario::clean_scenario;
use gridwatch_sim::Trace;
use gridwatch_timeseries::{
    AlignmentPolicy, GroupId, MeasurementId, MeasurementPair, PairSeries, TimeSeries, Timestamp,
};

/// A simulated clean trace for group A.
pub fn trace(machines: usize) -> Trace {
    clean_scenario(GroupId::A, machines, 20080529).trace
}

/// Every measurement of the trace over its first 8 days.
fn training_window(trace: &Trace) -> BTreeMap<MeasurementId, TimeSeries> {
    let train_end = Timestamp::from_days(8);
    trace
        .measurement_ids()
        .map(|id| {
            let series = trace
                .series(id)
                .expect("measurement exists")
                .slice(Timestamp::EPOCH, train_end);
            (id, series)
        })
        .collect()
}

/// The aligned training histories of `pairs`.
fn histories(
    training: &BTreeMap<MeasurementId, TimeSeries>,
    pairs: Vec<MeasurementPair>,
) -> Vec<(MeasurementPair, PairSeries)> {
    pairs
        .into_iter()
        .filter_map(|p| {
            PairSeries::align(
                &training[&p.first()],
                &training[&p.second()],
                AlignmentPolicy::Intersect,
            )
            .ok()
            .map(|h| (p, h))
        })
        .collect()
}

/// An engine for the chaos benches: frozen model (the drift layer's
/// target configuration) with an optional drift detector, trained on
/// 8 days over up to `max_pairs` screened pairs.
pub fn trained_drift_engine(
    trace: &Trace,
    max_pairs: usize,
    drift: Option<gridwatch_detect::DriftConfig>,
) -> DetectionEngine {
    let training = training_window(trace);
    let screen = PairScreen {
        min_cv: 0.05,
        max_pairs: Some(max_pairs),
        ..PairScreen::default()
    };
    let pairs = screen.select(&training);
    DetectionEngine::train(
        histories(&training, pairs),
        EngineConfig {
            model: ModelConfig::default().frozen(),
            drift,
            ..EngineConfig::default()
        },
    )
    .expect("benchmark engine trains")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let t = trace(2);
        let drifting = trained_drift_engine(&t, 5, Some(gridwatch_detect::DriftConfig::default()));
        assert!(drifting.model_count() > 0);
    }
}
