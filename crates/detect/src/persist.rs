use serde::{Deserialize, Serialize};

use gridwatch_core::TransitionModel;
use gridwatch_timeseries::MeasurementPair;

use crate::alarm::AlarmTracker;
use crate::config::EngineConfig;
use crate::engine::DetectionEngine;

/// A serializable snapshot of a running [`DetectionEngine`]: its
/// configuration, every pair model's full state (grid + matrix + online
/// counters), and the alarm debounce streaks.
///
/// Monitoring daemons restart; a snapshot taken before shutdown restores
/// the engine exactly, so models keep the correlations learned since the
/// last offline training, with no retraining pass.
///
/// The drift layer's runtime state (decay windows, refit histories,
/// cooldowns — see [`crate::DriftConfig`]) is deliberately *not* part of
/// the snapshot: it is reconstructed empty from the persisted config, so
/// a restored engine re-earns its drift evidence before rebuilding any
/// model.
///
/// # Example
///
/// ```
/// use gridwatch_detect::{DetectionEngine, EngineConfig, EngineSnapshot, Snapshot};
/// use gridwatch_timeseries::{
///     MachineId, MeasurementId, MeasurementPair, MetricKind, PairSeries, Timestamp,
/// };
///
/// let a = MeasurementId::new(MachineId::new(0), MetricKind::CpuUtilization);
/// let b = MeasurementId::new(MachineId::new(0), MetricKind::MemoryUsage);
/// let pair = MeasurementPair::new(a, b).unwrap();
/// let history = PairSeries::from_samples(
///     (0..100u64).map(|k| (k * 360, (k % 20) as f64, 3.0 * (k % 20) as f64)),
/// )?;
/// let engine = DetectionEngine::train(vec![(pair, history)], EngineConfig::default())?;
///
/// let json = serde_json::to_string(&engine.snapshot())?;
/// let restored: EngineSnapshot = serde_json::from_str(&json)?;
/// let engine2 = DetectionEngine::from_snapshot(restored);
/// assert_eq!(engine2.model_count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// The engine configuration.
    pub config: EngineConfig,
    /// Every pair model's full state, in canonical pair order. (A list
    /// rather than a map: JSON map keys must be strings, and a
    /// [`MeasurementPair`] is a structured key.)
    pub models: Vec<(MeasurementPair, TransitionModel)>,
    /// The alarm tracker's debounce streaks.
    pub tracker: AlarmTracker,
}

/// Counts completed directory syncs so tests can assert the durability
/// path is actually exercised (see [`EngineSnapshot::save`]).
#[cfg(test)]
static DIR_SYNCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Fsyncs `dir` so a rename into it survives power loss; empty parents
/// (bare file names) resolve to the current directory.
fn sync_dir(dir: &std::path::Path) -> std::io::Result<()> {
    let dir = if dir.as_os_str().is_empty() {
        std::path::Path::new(".")
    } else {
        dir
    };
    std::fs::File::open(dir)?.sync_all()?;
    #[cfg(test)]
    DIR_SYNCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    Ok(())
}

impl EngineSnapshot {
    /// Writes the snapshot to `path` as JSON, durably: temp file +
    /// fsync + atomic rename + parent-directory fsync. Syncing only the
    /// data file is not enough — the rename lives in the directory
    /// inode, and a crash before that inode hits disk silently loses a
    /// "committed" snapshot.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let json = serde_json::to_string(self).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("serialize engine snapshot: {e}"),
            )
        })?;
        let tmp = path.with_extension("tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(json.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        sync_dir(path.parent().unwrap_or(std::path::Path::new(".")))
    }

    /// Reads a snapshot previously written by [`EngineSnapshot::save`]
    /// (or any JSON serialization of one).
    pub fn load(path: &std::path::Path) -> std::io::Result<EngineSnapshot> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("parse engine snapshot {}: {e}", path.display()),
            )
        })
    }
}

impl DetectionEngine {
    /// Captures the engine's full state for persistence.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            config: *self.config(),
            models: self
                .pairs()
                .filter_map(|p| self.model(p).map(|m| (p, m.clone())))
                .collect(),
            tracker: self.tracker_state().clone(),
        }
    }

    /// Restores an engine from a snapshot.
    ///
    /// The restored engine's [`DetectionEngine::training_outcome`]
    /// reports all models as trained and no skips (the skip list is not
    /// part of the persisted state).
    pub fn from_snapshot(snapshot: EngineSnapshot) -> Self {
        DetectionEngine::from_parts(
            snapshot.config,
            snapshot.models.into_iter().collect(),
            snapshot.tracker,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;
    use gridwatch_timeseries::{MachineId, MeasurementId, MetricKind, PairSeries, Timestamp};

    fn trained_engine() -> DetectionEngine {
        let a = MeasurementId::new(MachineId::new(0), MetricKind::Custom(0));
        let b = MeasurementId::new(MachineId::new(0), MetricKind::Custom(1));
        let pair = MeasurementPair::new(a, b).unwrap();
        let history = PairSeries::from_samples((0..150u64).map(|k| {
            let x = (k % 30) as f64;
            (k * 360, x, 2.0 * x + 1.0)
        }))
        .unwrap();
        DetectionEngine::train([(pair, history)], EngineConfig::default()).unwrap()
    }

    fn snapshot_at(k: u64, x: f64, y: f64) -> Snapshot {
        let a = MeasurementId::new(MachineId::new(0), MetricKind::Custom(0));
        let b = MeasurementId::new(MachineId::new(0), MetricKind::Custom(1));
        let mut s = Snapshot::new(Timestamp::from_secs(150 * 360 + k * 360));
        s.insert(a, x);
        s.insert(b, y);
        s
    }

    #[test]
    fn roundtrip_preserves_behaviour() {
        let mut original = trained_engine();
        // Advance the original so it has online state.
        original.step(&snapshot_at(0, 10.0, 21.0));

        let json = serde_json::to_string(&original.snapshot()).unwrap();
        let restored: EngineSnapshot = serde_json::from_str(&json).unwrap();
        let mut twin = DetectionEngine::from_snapshot(restored);

        // Both engines must score the next stream identically.
        for k in 1..20u64 {
            let snap = snapshot_at(k, (k % 30) as f64, 2.0 * (k % 30) as f64 + 1.0);
            let a = original.step(&snap);
            let b = twin.step(&snap);
            assert_eq!(a.scores, b.scores, "step {k}");
            assert_eq!(a.alarms, b.alarms, "step {k}");
        }
    }

    #[test]
    fn save_is_atomic_and_syncs_the_directory() {
        use std::sync::atomic::Ordering;
        let dir =
            std::env::temp_dir().join(format!("gridwatch-persist-save-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.json");

        let snapshot = trained_engine().snapshot();
        let before = DIR_SYNCS.load(Ordering::Relaxed);
        snapshot.save(&path).unwrap();
        assert!(
            DIR_SYNCS.load(Ordering::Relaxed) > before,
            "save must fsync the parent directory after the rename"
        );
        assert!(!dir.join("engine.tmp").exists(), "temp file must be gone");
        assert_eq!(EngineSnapshot::load(&path).unwrap(), snapshot);

        // Corrupt bytes come back as a typed error, not a panic.
        std::fs::write(&path, "{ torn").unwrap();
        let err = EngineSnapshot::load(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_training_outcome_counts_models() {
        let engine = trained_engine();
        let twin = DetectionEngine::from_snapshot(engine.snapshot());
        assert_eq!(twin.training_outcome().trained, 1);
        assert!(twin.training_outcome().skipped.is_empty());
        assert_eq!(twin.model_count(), 1);
    }
}
