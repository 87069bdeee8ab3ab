//! Crash-recovery: checkpoint mid-stream, kill the engine without a
//! clean shutdown, restore from the manifest, and verify the resumed
//! stream matches an uninterrupted single-threaded run exactly.

use std::path::PathBuf;

use gridwatch_detect::{
    AlarmPolicy, DetectionEngine, EngineConfig, EngineSnapshot, Snapshot, StepReport,
};
use gridwatch_serve::{BackpressurePolicy, Checkpointer, ServeConfig, ShardedEngine};
use gridwatch_timeseries::{
    MachineId, MeasurementId, MeasurementPair, MetricKind, PairSeries, Timestamp,
};

const STEP_SECS: u64 = 360;
const MEASUREMENTS: usize = 6;

fn ids() -> Vec<MeasurementId> {
    (0..MEASUREMENTS as u32)
        .map(|m| MeasurementId::new(MachineId::new(m / 2), MetricKind::Custom((m % 2) as u16)))
        .collect()
}

fn value(m: usize, k: u64) -> f64 {
    let load = (k % 48) as f64;
    (m as f64 + 1.0) * load + 5.0 * m as f64
}

fn trained() -> EngineSnapshot {
    let ids = ids();
    let config = EngineConfig {
        alarm: AlarmPolicy {
            system_threshold: 0.7,
            measurement_threshold: 0.4,
            min_consecutive: 2,
        },
        ..EngineConfig::default()
    };
    let mut pairs = Vec::new();
    for i in 0..MEASUREMENTS {
        for j in (i + 1)..MEASUREMENTS {
            let pair = MeasurementPair::new(ids[i], ids[j]).unwrap();
            let history = PairSeries::from_samples(
                (0..400u64).map(|k| (k * STEP_SECS, value(i, k), value(j, k))),
            )
            .unwrap();
            pairs.push((pair, history));
        }
    }
    DetectionEngine::train(pairs, config).unwrap().snapshot()
}

/// A trace whose fault window straddles the checkpoint cut, so alarm
/// debounce streaks are live state the checkpoint must carry over.
fn trace(steps: u64) -> Vec<Snapshot> {
    let ids = ids();
    (0..steps)
        .map(|k| {
            let mut snap = Snapshot::new(Timestamp::from_secs((400 + k) * STEP_SECS));
            for (m, &mid) in ids.iter().enumerate() {
                let v = if m == MEASUREMENTS - 1 && (12..22).contains(&k) {
                    -180.0
                } else {
                    value(m, k)
                };
                snap.insert(mid, v);
            }
            snap
        })
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridwatch-recover-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn uninterrupted_reports(snapshot: EngineSnapshot, trace: &[Snapshot]) -> Vec<StepReport> {
    let mut engine = DetectionEngine::from_snapshot(snapshot);
    trace.iter().map(|s| engine.step(s)).collect()
}

/// The core crash-recovery scenario. The checkpoint cut lands at step
/// 14 — inside the fault window, with a live alarm streak.
fn crash_and_recover(original_shards: usize, recovered_shards: usize, tag: &str) {
    let snapshot = trained();
    let trace = trace(30);
    let want = uninterrupted_reports(snapshot.clone(), &trace);
    assert!(
        want.iter().any(|r| !r.alarms.is_empty()),
        "scenario must exercise alarms"
    );

    let dir = scratch_dir(tag);
    let cut = 14usize;
    let mut engine = ShardedEngine::start(
        snapshot,
        ServeConfig {
            shards: original_shards,
            queue_capacity: 8,
            backpressure: BackpressurePolicy::Block,
        },
    );
    for snap in &trace[..cut] {
        engine.submit(snap.clone());
    }
    let manifest = engine.checkpoint(&dir).expect("checkpoint succeeds");
    assert_eq!(manifest.cut_seq, cut as u64);
    // Keep streaming past the checkpoint, then "crash": drop the engine
    // without shutdown. Everything since the cut is lost.
    for snap in &trace[cut..cut + 5] {
        engine.submit(snap.clone());
    }
    drop(engine);

    // Restore from the manifest, possibly onto a different shard count,
    // and replay the stream from the cut.
    let (recovered, manifest) = Checkpointer::new(&dir).recover().expect("recover succeeds");
    let resume_from = manifest.cut_seq as usize;
    let mut engine = ShardedEngine::start(
        recovered,
        ServeConfig {
            shards: recovered_shards,
            queue_capacity: 8,
            backpressure: BackpressurePolicy::Block,
        },
    );
    for snap in &trace[resume_from..] {
        engine.submit(snap.clone());
    }
    let (got, stats) = engine.shutdown();
    assert_eq!(stats.reports as usize, trace.len() - resume_from);
    assert_eq!(
        got,
        want[resume_from..],
        "resumed reports must match the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recovery_resumes_exactly_same_shard_count() {
    crash_and_recover(4, 4, "same");
}

#[test]
fn crash_recovery_resumes_exactly_onto_fewer_shards() {
    crash_and_recover(4, 2, "fewer");
}

#[test]
fn crash_recovery_resumes_exactly_onto_unsharded_engine() {
    let snapshot = trained();
    let trace = trace(30);
    let want = uninterrupted_reports(snapshot.clone(), &trace);

    let dir = scratch_dir("unsharded");
    let cut = 14usize;
    let mut engine = ShardedEngine::start(
        snapshot,
        ServeConfig {
            shards: 3,
            queue_capacity: 8,
            backpressure: BackpressurePolicy::Block,
        },
    );
    for snap in &trace[..cut] {
        engine.submit(snap.clone());
    }
    engine.checkpoint(&dir).unwrap();
    drop(engine);

    // A recovered checkpoint is a plain EngineSnapshot: it can resume
    // on a single-threaded DetectionEngine too.
    let (recovered, _) = Checkpointer::new(&dir).recover().unwrap();
    let mut engine = DetectionEngine::from_snapshot(recovered);
    let got: Vec<StepReport> = trace[cut..].iter().map(|s| engine.step(s)).collect();
    assert_eq!(got, want[cut..]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_checkpoint_overwrites_first_atomically() {
    let snapshot = trained();
    let trace = trace(30);
    let want = uninterrupted_reports(snapshot.clone(), &trace);

    let dir = scratch_dir("overwrite");
    let mut engine = ShardedEngine::start(
        snapshot,
        ServeConfig {
            shards: 2,
            queue_capacity: 8,
            backpressure: BackpressurePolicy::Block,
        },
    );
    for (k, snap) in trace.iter().enumerate() {
        if k == 10 || k == 20 {
            engine.checkpoint(&dir).unwrap();
        }
        engine.submit(snap.clone());
    }
    let (_, stats) = engine.shutdown();
    assert_eq!(stats.checkpoints, 2);

    // Only the latest checkpoint remains; it resumes from step 20.
    let (recovered, manifest) = Checkpointer::new(&dir).recover().unwrap();
    assert_eq!(manifest.cut_seq, 20);
    let mut engine = DetectionEngine::from_snapshot(recovered);
    let got: Vec<StepReport> = trace[20..].iter().map(|s| engine.step(s)).collect();
    assert_eq!(got, want[20..]);
    let _ = std::fs::remove_dir_all(&dir);
}
