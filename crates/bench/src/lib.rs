//! Shared fixtures for the Criterion benches: simulated pairs, trained
//! models, and trained engines at several scales.

use gridwatch_core::{ModelConfig, TransitionModel};
use gridwatch_detect::{DetectionEngine, EngineConfig, PairScreen};
use gridwatch_sim::scenario::clean_scenario;
use gridwatch_sim::Trace;
use gridwatch_timeseries::{AlignmentPolicy, GroupId, PairSeries, Point2, Timestamp};

/// A simulated clean trace for group A.
pub fn trace(machines: usize) -> Trace {
    clean_scenario(GroupId::A, machines, 20080529).trace
}

/// The trace's first pair of measurements, aligned over `[0, days)`.
pub fn pair_series(trace: &Trace, days: u64) -> PairSeries {
    let mut ids = trace.measurement_ids();
    let a = ids.next().expect("trace has measurements");
    let b = ids.next().expect("trace has measurements");
    let sa = trace
        .series(a)
        .expect("measurement exists")
        .slice(Timestamp::EPOCH, Timestamp::from_days(days));
    let sb = trace
        .series(b)
        .expect("measurement exists")
        .slice(Timestamp::EPOCH, Timestamp::from_days(days));
    PairSeries::align(&sa, &sb, AlignmentPolicy::Intersect).expect("same schedule")
}

/// A model trained on `train_days` of the trace's first pair.
pub fn trained_model(trace: &Trace, train_days: u64) -> TransitionModel {
    let history = pair_series(trace, train_days);
    TransitionModel::fit(&history, ModelConfig::default()).expect("history is modelable")
}

/// The test-day points of the trace's first pair.
pub fn test_points(trace: &Trace) -> Vec<Point2> {
    let mut ids = trace.measurement_ids();
    let a = ids.next().expect("trace has measurements");
    let b = ids.next().expect("trace has measurements");
    let sa = trace
        .series(a)
        .expect("measurement exists")
        .slice(Timestamp::from_days(15), Timestamp::from_days(16));
    let sb = trace
        .series(b)
        .expect("measurement exists")
        .slice(Timestamp::from_days(15), Timestamp::from_days(16));
    PairSeries::align(&sa, &sb, AlignmentPolicy::Intersect)
        .expect("same schedule")
        .points()
        .to_vec()
}

/// An engine trained on 8 days over up to `max_pairs` screened pairs.
pub fn trained_engine(trace: &Trace, max_pairs: usize) -> DetectionEngine {
    let train_end = Timestamp::from_days(8);
    let mut training = std::collections::BTreeMap::new();
    for id in trace.measurement_ids() {
        training.insert(
            id,
            trace
                .series(id)
                .expect("measurement exists")
                .slice(Timestamp::EPOCH, train_end),
        );
    }
    let screen = PairScreen {
        min_cv: 0.05,
        max_pairs: Some(max_pairs),
        ..PairScreen::default()
    };
    let pairs = screen.select(&training);
    let histories: Vec<_> = pairs
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
        .collect();
    DetectionEngine::train(histories, EngineConfig::default()).expect("benchmark engine trains")
}

/// An engine for the chaos benches: frozen model (the drift layer's
/// target configuration) with an optional drift detector, trained on
/// the same 8 days and screen as [`trained_engine`].
pub fn trained_drift_engine(
    trace: &Trace,
    max_pairs: usize,
    drift: Option<gridwatch_detect::DriftConfig>,
) -> DetectionEngine {
    let train_end = Timestamp::from_days(8);
    let mut training = std::collections::BTreeMap::new();
    for id in trace.measurement_ids() {
        training.insert(
            id,
            trace
                .series(id)
                .expect("measurement exists")
                .slice(Timestamp::EPOCH, train_end),
        );
    }
    let screen = PairScreen {
        min_cv: 0.05,
        max_pairs: Some(max_pairs),
        ..PairScreen::default()
    };
    let pairs = screen.select(&training);
    let histories: Vec<_> = pairs
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
        .collect();
    DetectionEngine::train(
        histories,
        EngineConfig {
            model: ModelConfig::default().frozen(),
            drift,
            ..EngineConfig::default()
        },
    )
    .expect("benchmark engine trains")
}

/// An engine for the sketch benches: up to `max_pairs` trained models
/// and, when `sketch` is set, every *other* screened pair registered as
/// a sketch-only candidate (the million-measurement posture: few
/// materialized models, many cheap tracked pairs).
pub fn trained_sketch_engine(
    trace: &Trace,
    max_pairs: usize,
    sketch: Option<gridwatch_detect::SketchConfig>,
) -> DetectionEngine {
    let train_end = Timestamp::from_days(8);
    let mut training = std::collections::BTreeMap::new();
    for id in trace.measurement_ids() {
        training.insert(
            id,
            trace
                .series(id)
                .expect("measurement exists")
                .slice(Timestamp::EPOCH, train_end),
        );
    }
    let screen = PairScreen {
        min_cv: 0.05,
        ..PairScreen::default()
    };
    let mut pairs = screen.select(&training);
    let overflow = if pairs.len() > max_pairs {
        pairs.split_off(max_pairs)
    } else {
        Vec::new()
    };
    let histories: Vec<_> = pairs
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
        .collect();
    let sketched = sketch.is_some();
    let mut engine = DetectionEngine::train(
        histories,
        EngineConfig {
            sketch,
            ..EngineConfig::default()
        },
    )
    .expect("benchmark engine trains");
    if sketched {
        engine.add_candidates(overflow);
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let t = trace(2);
        let model = trained_model(&t, 2);
        assert!(model.matrix().total_observations() > 0);
        assert!(!test_points(&t).is_empty());
        let engine = trained_engine(&t, 5);
        assert!(engine.model_count() > 0);
        let drifting = trained_drift_engine(&t, 5, Some(gridwatch_detect::DriftConfig::default()));
        assert!(drifting.model_count() > 0);
        let sketched =
            trained_sketch_engine(&t, 3, Some(gridwatch_detect::SketchConfig::default()));
        assert_eq!(sketched.model_count(), 3);
        assert!(
            sketched.tracked_pair_count() > sketched.model_count(),
            "screen overflow becomes sketch candidates"
        );
    }
}
