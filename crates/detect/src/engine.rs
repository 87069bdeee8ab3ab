use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use gridwatch_core::{CellRanges, ModelError, TransitionModel};
use gridwatch_timeseries::{MeasurementPair, PairSeries, Point2};

use crate::alarm::{AlarmEvent, AlarmTracker};
use crate::config::EngineConfig;
use crate::drift::{DriftRuntime, RebuildEvent};
use crate::scores::ScoreBoard;
use crate::snapshot::Snapshot;

/// Error returned when engine training produces no usable models.
#[derive(Debug, Clone, PartialEq)]
pub struct NoModelsTrained {
    /// How many pairs were offered.
    pub offered: usize,
}

impl fmt::Display for NoModelsTrained {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "none of the {} offered pairs produced a usable model",
            self.offered
        )
    }
}

impl Error for NoModelsTrained {}

/// Summary of a training run: how many pair models were fitted and which
/// pairs were skipped (with the reason).
#[derive(Debug)]
pub struct TrainingOutcome {
    /// Number of successfully fitted pair models.
    pub trained: usize,
    /// Pairs that could not be modeled (e.g. degenerate history).
    pub skipped: Vec<(MeasurementPair, ModelError)>,
}

/// The per-step output: the full three-level score board plus any alarms
/// that fired.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// All fitness scores at this instant.
    pub scores: ScoreBoard,
    /// Alarms raised at this instant (already debounced).
    pub alarms: Vec<AlarmEvent>,
}

/// The online problem-determination engine: owns one
/// [`TransitionModel`] per watched measurement pair and implements the
/// paper's Figure 6 loop over system [`Snapshot`]s.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug)]
pub struct DetectionEngine {
    config: EngineConfig,
    models: BTreeMap<MeasurementPair, TransitionModel>,
    tracker: AlarmTracker,
    training: TrainingOutcome,
    last_snapshot_at: Option<gridwatch_timeseries::Timestamp>,
    recorder: Option<gridwatch_obs::FlightRecorder>,
    /// Drift bookkeeping; present exactly when `config.drift` is set.
    /// Runtime-only — not persisted, rebuilt empty on restore.
    drift: Option<DriftRuntime>,
}

impl DetectionEngine {
    /// Trains one model per offered pair from its history series.
    ///
    /// Pairs whose history cannot be modeled (degenerate data,
    /// insufficient samples) are skipped and reported in
    /// [`DetectionEngine::training_outcome`]; training only fails if *no*
    /// pair is usable.
    ///
    /// # Errors
    ///
    /// Returns [`NoModelsTrained`] when every offered pair was skipped.
    pub fn train<I>(pairs: I, config: EngineConfig) -> Result<Self, NoModelsTrained>
    where
        I: IntoIterator<Item = (MeasurementPair, PairSeries)>,
    {
        let mut models = BTreeMap::new();
        let mut skipped = Vec::new();
        let mut offered = 0usize;
        for (pair, history) in pairs {
            offered += 1;
            match TransitionModel::fit(&history, config.model) {
                Ok(model) => {
                    models.insert(pair, model);
                }
                Err(e) => skipped.push((pair, e)),
            }
        }
        if models.is_empty() {
            return Err(NoModelsTrained { offered });
        }
        crate::invariants::check_models(models.iter());
        Ok(DetectionEngine {
            config,
            models,
            tracker: AlarmTracker::new(),
            training: TrainingOutcome {
                trained: offered - skipped.len(),
                skipped,
            },
            last_snapshot_at: None,
            recorder: None,
            drift: config.drift.map(DriftRuntime::new),
        })
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// What happened during training.
    pub fn training_outcome(&self) -> &TrainingOutcome {
        &self.training
    }

    /// Number of live pair models.
    pub fn model_count(&self) -> usize {
        self.models.len()
    }

    /// The watched pairs, in canonical order.
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = MeasurementPair> + '_ {
        self.models.keys().copied()
    }

    /// Read access to one pair's model.
    pub fn model(&self, pair: MeasurementPair) -> Option<&TransitionModel> {
        self.models.get(&pair)
    }

    /// Processes one snapshot: scores every watched pair whose two
    /// measurements are present, aggregates the three fitness levels,
    /// and evaluates alarms.
    ///
    /// Models adapt (or not) according to the engine's
    /// [`gridwatch_core::ModelConfig::adaptive`] flag, exactly as in the
    /// paper's offline/adaptive comparison (Figure 13a).
    pub fn step(&mut self, snapshot: &Snapshot) -> StepReport {
        let board = self.step_scores(snapshot);
        let alarms = self.tracker.evaluate(&board, &self.config.alarm);
        if !alarms.is_empty() {
            if let Some(recorder) = &self.recorder {
                recorder.record(
                    "alarm",
                    format_args!("{} alarm event(s) at t={}", alarms.len(), board.at()),
                );
            }
        }
        StepReport {
            scores: board,
            alarms,
        }
    }

    /// Attaches a flight recorder: every alarming [`DetectionEngine::step`]
    /// records an `alarm` event, so an [`crate::IncidentReport`] compiled
    /// later can carry the run-up via
    /// [`crate::IncidentReport::with_events`].
    pub fn attach_recorder(&mut self, recorder: gridwatch_obs::FlightRecorder) {
        self.recorder = Some(recorder);
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&gridwatch_obs::FlightRecorder> {
        self.recorder.as_ref()
    }

    /// The scoring half of [`DetectionEngine::step`]: updates every pair
    /// model against the snapshot and returns the score board *without*
    /// evaluating alarms or touching the alarm tracker.
    ///
    /// This is the building block for pair-sharded serving
    /// (`gridwatch-serve`): each shard calls `step_scores` on its slice
    /// of the pairs, the partial boards are merged with
    /// [`ScoreBoard::merge`], and a single tracker evaluates alarms on
    /// the merged board — bit-identical to an unsharded `step`.
    pub fn step_scores(&mut self, snapshot: &Snapshot) -> ScoreBoard {
        // Across a monitoring outage, the "previous point" is stale:
        // reset trajectories instead of scoring a bogus transition.
        if let (Some(max_gap), Some(last)) = (self.config.max_gap_secs, self.last_snapshot_at) {
            if snapshot.at().saturating_secs_since(last) > max_gap {
                self.reset_trajectories();
            }
        }
        self.last_snapshot_at = Some(snapshot.at());
        let mut board = ScoreBoard::new(snapshot.at());
        let results: Vec<(MeasurementPair, Option<f64>)> = self
            .models
            .iter_mut()
            .map(|(&pair, model)| (pair, observe_pair(model, pair, snapshot)))
            .collect();
        if let Some(drift) = self.drift.as_mut() {
            let fired = drift.observe(&mut self.models, self.config.model, snapshot, &results);
            if fired > 0 {
                if let Some(recorder) = &self.recorder {
                    for event in drift.recent_events(fired) {
                        recorder.record("rebuild", event);
                    }
                }
            }
        }
        for (pair, fitness) in results {
            if let Some(f) = fitness {
                board.record(pair, f);
            }
        }
        board
    }

    /// Drains the drift layer's rebuild events accumulated since the
    /// last drain (empty when [`EngineConfig::drift`] is unset).
    pub fn take_rebuild_events(&mut self) -> Vec<RebuildEvent> {
        self.drift
            .as_mut()
            .map(DriftRuntime::take_events)
            .unwrap_or_default()
    }

    /// Total model rebuilds the drift layer has fired.
    pub fn rebuild_count(&self) -> u64 {
        self.drift
            .as_ref()
            .map(DriftRuntime::total_rebuilds)
            .unwrap_or(0)
    }

    /// Benchmark probe executing exactly the per-step drift gate (the
    /// only code the disabled drift path adds to `step_scores`).
    #[doc(hidden)]
    pub fn drift_gate_probe(&mut self) -> bool {
        self.drift.is_some()
    }

    /// The value ranges of the cell a pair's trajectory currently
    /// occupies — the paper's human-debugging output ("the model can
    /// output the problematic measurement ranges").
    pub fn explain(&self, pair: MeasurementPair) -> Option<CellRanges> {
        let model = self.models.get(&pair)?;
        let cell = model.last_cell()?;
        Some(model.cell_ranges(cell))
    }

    /// Forgets every model's last observed point, so the next snapshot
    /// starts fresh trajectories (used across data gaps; see
    /// [`EngineConfig::max_gap_secs`]).
    pub fn reset_trajectories(&mut self) {
        for model in self.models.values_mut() {
            model.reset_trajectory();
        }
    }

    /// The alarm tracker's current debounce state (for persistence).
    pub(crate) fn tracker_state(&self) -> &AlarmTracker {
        &self.tracker
    }

    /// Rebuilds an engine from persisted parts (see
    /// [`crate::EngineSnapshot`]).
    pub(crate) fn from_parts(
        config: EngineConfig,
        models: BTreeMap<MeasurementPair, TransitionModel>,
        tracker: AlarmTracker,
    ) -> Self {
        crate::invariants::check_models(models.iter());
        let trained = models.len();
        DetectionEngine {
            config,
            models,
            tracker,
            training: TrainingOutcome {
                trained,
                skipped: Vec::new(),
            },
            last_snapshot_at: None,
            recorder: None,
            drift: config.drift.map(DriftRuntime::new),
        }
    }
}

/// Scores and updates one pair model against a snapshot; `None` when
/// either measurement is missing or the model has no transition context
/// yet.
fn observe_pair(
    model: &mut TransitionModel,
    pair: MeasurementPair,
    snapshot: &Snapshot,
) -> Option<f64> {
    let x = snapshot.value(pair.first())?;
    let y = snapshot.value(pair.second())?;
    let outcome = model.observe(Point2::new(x, y));
    let fitness = outcome.score.map(|s| s.fitness());
    if let Some(q) = fitness {
        crate::invariants::check_fitness(q);
    }
    fitness
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_timeseries::{MachineId, MeasurementId, MetricKind, Timestamp};

    fn id(machine: u32, tag: u16) -> MeasurementId {
        MeasurementId::new(MachineId::new(machine), MetricKind::Custom(tag))
    }

    /// Three measurements where all are linearly driven by a common load.
    fn training_pairs() -> Vec<(MeasurementPair, PairSeries)> {
        let ids = [id(0, 0), id(0, 1), id(1, 0)];
        let value = |m: usize, k: u64| {
            let load = (k % 60) as f64;
            (m as f64 + 1.0) * load + 10.0 * m as f64
        };
        let mut out = Vec::new();
        for i in 0..3 {
            for j in (i + 1)..3 {
                let pair = MeasurementPair::new(ids[i], ids[j]).unwrap();
                let history = PairSeries::from_samples(
                    (0..400u64).map(|k| (k * 360, value(i, k), value(j, k))),
                )
                .unwrap();
                out.push((pair, history));
            }
        }
        out
    }

    fn snapshot_at(k: u64, values: [f64; 3]) -> Snapshot {
        let ids = [id(0, 0), id(0, 1), id(1, 0)];
        let mut s = Snapshot::new(Timestamp::from_secs(400 * 360 + k * 360));
        for (i, &v) in values.iter().enumerate() {
            s.insert(ids[i], v);
        }
        s
    }

    #[test]
    fn train_builds_all_pair_models() {
        let engine = DetectionEngine::train(training_pairs(), EngineConfig::default()).unwrap();
        assert_eq!(engine.model_count(), 3);
        assert_eq!(engine.training_outcome().trained, 3);
        assert!(engine.training_outcome().skipped.is_empty());
    }

    #[test]
    fn degenerate_pairs_are_skipped_not_fatal() {
        let mut pairs = training_pairs();
        // A constant pair: degenerate grid.
        let ghost = MeasurementPair::new(id(5, 0), id(5, 1)).unwrap();
        let flat = PairSeries::from_samples((0..50u64).map(|k| (k * 360, 1.0, 1.0))).unwrap();
        pairs.push((ghost, flat));
        let engine = DetectionEngine::train(pairs, EngineConfig::default()).unwrap();
        assert_eq!(engine.model_count(), 3);
        assert_eq!(engine.training_outcome().skipped.len(), 1);
        assert_eq!(engine.training_outcome().skipped[0].0, ghost);
    }

    #[test]
    fn all_degenerate_training_fails() {
        let ghost = MeasurementPair::new(id(5, 0), id(5, 1)).unwrap();
        let flat = PairSeries::from_samples((0..50u64).map(|k| (k * 360, 1.0, 1.0))).unwrap();
        let err = DetectionEngine::train([(ghost, flat)], EngineConfig::default()).unwrap_err();
        assert_eq!(err.offered, 1);
        assert!(err.to_string().contains("none of the 1"));
    }

    #[test]
    fn normal_snapshot_scores_high_broken_scores_lower() {
        let mut engine = DetectionEngine::train(training_pairs(), EngineConfig::default()).unwrap();
        // Consistent with training: load 30 -> values (40, 70, 100).
        let good = engine.step(&snapshot_at(0, [40.0, 70.0, 100.0]));
        let q_good = good.scores.system_score().unwrap();
        // Measurement 2 breaks away.
        let bad = engine.step(&snapshot_at(1, [41.0, 72.0, 0.0]));
        let q_bad = bad.scores.system_score().unwrap();
        assert!(q_good > q_bad, "good {q_good} vs bad {q_bad}");
        // The broken measurement has the lowest per-measurement score.
        let suspects = crate::Localizer::rank_measurements(&bad.scores);
        assert_eq!(suspects[0].id, id(1, 0));
    }

    #[test]
    fn missing_measurements_are_tolerated() {
        let mut engine = DetectionEngine::train(training_pairs(), EngineConfig::default()).unwrap();
        let ids = [id(0, 0), id(0, 1)];
        let mut snap = Snapshot::new(Timestamp::from_secs(400 * 360));
        snap.insert(ids[0], 40.0);
        snap.insert(ids[1], 70.0);
        // Only the (0,0)-(0,1) pair is fully present.
        let report = engine.step(&snap);
        assert_eq!(report.scores.len(), 1);
    }

    #[test]
    fn step_decomposes_into_scores_plus_tracker() {
        let config = EngineConfig {
            alarm: crate::AlarmPolicy {
                system_threshold: 0.7,
                measurement_threshold: 0.4,
                min_consecutive: 2,
            },
            ..EngineConfig::default()
        };
        let mut whole = DetectionEngine::train(training_pairs(), config).unwrap();
        let mut split = DetectionEngine::train(training_pairs(), config).unwrap();
        let mut tracker = crate::AlarmTracker::new();
        for k in 0..12 {
            let snap = snapshot_at(k, [40.0, 70.0, if k < 3 { 100.0 } else { -35.0 }]);
            let report = whole.step(&snap);
            let board = split.step_scores(&snap);
            let alarms = tracker.evaluate(&board, &split.config().alarm);
            assert_eq!(report.scores, board, "step {k}");
            assert_eq!(report.alarms, alarms, "step {k}");
        }
    }

    #[test]
    fn alarms_fire_on_sustained_breakage() {
        let config = EngineConfig {
            alarm: crate::AlarmPolicy {
                system_threshold: 0.7,
                measurement_threshold: 0.0,
                min_consecutive: 2,
            },
            ..EngineConfig::default()
        };
        let mut engine = DetectionEngine::train(training_pairs(), config).unwrap();
        let mut fired = Vec::new();
        for k in 0..12 {
            // Persistent break on measurement 2: wild values.
            let report = engine.step(&snapshot_at(
                k,
                [40.0, 70.0, if k < 2 { 100.0 } else { -35.0 }],
            ));
            fired.extend(report.alarms);
        }
        assert!(
            fired.iter().any(|a| a.level == crate::AlarmLevel::System),
            "sustained break must raise a system alarm; got {fired:?}"
        );
    }

    fn drift_config() -> crate::DriftConfig {
        crate::DriftConfig {
            fitness_floor: 0.45,
            window: 20,
            decay_fraction: 0.7,
            min_history: 30,
            history_points: 200,
            cooldown: 50,
        }
    }

    #[test]
    fn sustained_decay_triggers_rebuild_and_recovers_fitness() {
        // Drift detection pairs with a *frozen* (non-adaptive) model: an
        // adaptive grid extends itself over the rewired trajectory and
        // self-heals, so fitness never decays. A frozen grid scores
        // off-manifold points as outliers, which is exactly the
        // sustained decay the drift layer watches for.
        let config = EngineConfig {
            model: gridwatch_core::ModelConfig::default().frozen(),
            drift: Some(drift_config()),
            ..EngineConfig::default()
        };
        let mut engine = DetectionEngine::train(training_pairs(), config).unwrap();
        // Permanent rewire: measurement 2 flips between two branches, a
        // repetitive (learnable) regime far off the trained manifold.
        let mut decayed_scores = Vec::new();
        let mut rebuilt_scores = Vec::new();
        for k in 0..200u64 {
            let load = (k % 60) as f64;
            let rewired = if k % 2 == 0 {
                3.0 * load
            } else {
                200.0 - 3.0 * load
            };
            let report = engine.step(&snapshot_at(k, [load + 1.0, 2.0 * load + 10.0, rewired]));
            let before = engine.rebuild_count() == 0;
            if let Some(q) = report.scores.system_score() {
                if before {
                    decayed_scores.push(q);
                } else {
                    rebuilt_scores.push(q);
                }
            }
        }
        assert!(engine.rebuild_count() >= 1, "drift must trigger a rebuild");
        let events = engine.take_rebuild_events();
        assert!(!events.is_empty());
        assert!(events.iter().any(|e| e.succeeded), "{events:?}");
        // Second drain is empty (events ship exactly once).
        assert!(engine.take_rebuild_events().is_empty());
        // The rebuilt model fits the new regime better than the stale one.
        let stale_mean: f64 = decayed_scores.iter().rev().take(10).sum::<f64>() / 10.0;
        let fresh_mean: f64 =
            rebuilt_scores.iter().rev().take(10).sum::<f64>() / rebuilt_scores.len().min(10) as f64;
        assert!(
            fresh_mean > stale_mean,
            "rebuilt {fresh_mean} vs stale {stale_mean}"
        );
    }

    #[test]
    fn point_dips_do_not_trigger_rebuilds() {
        let config = EngineConfig {
            model: gridwatch_core::ModelConfig::default().frozen(),
            drift: Some(drift_config()),
            ..EngineConfig::default()
        };
        let mut engine = DetectionEngine::train(training_pairs(), config).unwrap();
        for k in 0..200u64 {
            let load = (k % 60) as f64;
            // A short anomaly burst (5 steps ~ a point fault), otherwise
            // faithful to training.
            let v2 = if (60..65).contains(&k) {
                -35.0
            } else {
                3.0 * load + 20.0
            };
            engine.step(&snapshot_at(k, [load + 0.5, 2.0 * load + 10.0, v2]));
        }
        assert_eq!(engine.rebuild_count(), 0);
        assert!(engine.take_rebuild_events().is_empty());
    }

    #[test]
    fn disabled_drift_layer_is_inert() {
        let mut engine = DetectionEngine::train(training_pairs(), EngineConfig::default()).unwrap();
        assert!(!engine.drift_gate_probe());
        for k in 0..50u64 {
            engine.step(&snapshot_at(k, [0.0, -100.0, 100.0]));
        }
        assert_eq!(engine.rebuild_count(), 0);
        assert!(engine.take_rebuild_events().is_empty());
    }

    #[test]
    fn explain_reports_cell_ranges() {
        let mut engine = DetectionEngine::train(training_pairs(), EngineConfig::default()).unwrap();
        engine.step(&snapshot_at(0, [40.0, 70.0, 100.0]));
        let pair = engine.pairs().next().unwrap();
        let ranges = engine.explain(pair).unwrap();
        let text = ranges.to_string();
        assert!(text.contains('[') && text.contains('&'), "{text}");
    }
}
