//! The sharding equivalence property: for ANY trace and ANY shard count,
//! a `ShardedEngine` under the lossless `Block` policy emits the exact
//! same `StepReport` stream — boards and alarms, bit for bit — as a
//! single-threaded `DetectionEngine` stepping the same snapshots.

use gridwatch_detect::{
    AlarmPolicy, DetectionEngine, EngineConfig, EngineSnapshot, Snapshot, StepReport,
};
use gridwatch_serve::{BackpressurePolicy, ServeConfig, ShardedEngine};
use gridwatch_timeseries::{
    MachineId, MeasurementId, MeasurementPair, MetricKind, PairSeries, Timestamp,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STEP_SECS: u64 = 360;

fn ids(measurements: usize) -> Vec<MeasurementId> {
    (0..measurements as u32)
        .map(|m| MeasurementId::new(MachineId::new(m / 2), MetricKind::Custom((m % 2) as u16)))
        .collect()
}

/// Linear couplings with per-measurement gain/offset plus bounded noise,
/// so the trained grids are non-degenerate but scores still vary.
fn value(m: usize, load: f64, noise: f64) -> f64 {
    (m as f64 + 1.0) * load + 7.0 * m as f64 + noise
}

/// A randomized system: training histories and a test trace that
/// optionally breaks one measurement over a window.
struct Case {
    engine: EngineSnapshot,
    trace: Vec<Snapshot>,
}

fn build_case(
    seed: u64,
    measurements: usize,
    steps: u64,
    break_measurement: usize,
    break_from: u64,
    break_len: u64,
) -> Case {
    let ids = ids(measurements);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut noise = |scale: f64| (rng.random::<f64>() - 0.5) * scale;

    let config = EngineConfig {
        alarm: AlarmPolicy {
            system_threshold: 0.7,
            measurement_threshold: 0.4,
            min_consecutive: 2,
        },
        ..EngineConfig::default()
    };
    let mut pairs = Vec::new();
    for i in 0..measurements {
        for j in (i + 1)..measurements {
            let pair = MeasurementPair::new(ids[i], ids[j]).unwrap();
            let history = PairSeries::from_samples((0..400u64).map(|k| {
                let load = (k % 48) as f64;
                (
                    k * STEP_SECS,
                    value(i, load, noise(0.4)),
                    value(j, load, noise(0.4)),
                )
            }))
            .unwrap();
            pairs.push((pair, history));
        }
    }
    let engine = DetectionEngine::train(pairs, config)
        .expect("coupled histories always train")
        .snapshot();

    let break_measurement = break_measurement % measurements;
    let trace = (0..steps)
        .map(|k| {
            let mut snap = Snapshot::new(Timestamp::from_secs((400 + k) * STEP_SECS));
            let load = (k % 48) as f64;
            for (m, &mid) in ids.iter().enumerate() {
                let broken =
                    m == break_measurement && (break_from..break_from + break_len).contains(&k);
                let v = if broken {
                    -150.0 - noise(10.0).abs()
                } else {
                    value(m, load, noise(0.4))
                };
                snap.insert(mid, v);
            }
            snap
        })
        .collect();
    Case { engine, trace }
}

fn unsharded_reports(case: &Case) -> Vec<StepReport> {
    let mut engine = DetectionEngine::from_snapshot(case.engine.clone());
    case.trace.iter().map(|s| engine.step(s)).collect()
}

fn sharded_reports(case: &Case, shards: usize, queue_capacity: usize) -> Vec<StepReport> {
    let mut engine = ShardedEngine::start(
        case.engine.clone(),
        ServeConfig {
            shards,
            queue_capacity,
            backpressure: BackpressurePolicy::Block,
        },
    );
    for snap in &case.trace {
        assert!(engine.submit(snap.clone()).is_some(), "Block is lossless");
    }
    let (reports, stats) = engine.shutdown();
    assert_eq!(stats.reports, case.trace.len() as u64);
    reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn any_shard_count_is_bitwise_identical_to_unsharded(
        seed in 0u64..1_000_000,
        measurements in 4usize..=7,
        steps in 8u64..=24,
        break_measurement in 0usize..7,
        break_from in 0u64..12,
        break_len in 0u64..10,
        queue_capacity in 1usize..=6,
    ) {
        let case = build_case(seed, measurements, steps, break_measurement, break_from, break_len);
        let want = unsharded_reports(&case);
        for shards in [1usize, 2, 4, 8] {
            let got = sharded_reports(&case, shards, queue_capacity);
            prop_assert_eq!(
                &got,
                &want,
                "shards={} capacity={} diverged from the unsharded engine",
                shards,
                queue_capacity
            );
        }
    }
}

/// Non-random pin: a trace engineered to fire alarms must produce the
/// identical alarm sequence through every shard count (so the property
/// above is known to exercise the alarm path, not just quiet boards).
#[test]
fn alarm_sequences_are_preserved_across_shard_counts() {
    let case = build_case(20080529, 6, 24, 5, 8, 9);
    let want = unsharded_reports(&case);
    let fired: usize = want.iter().map(|r| r.alarms.len()).sum();
    assert!(fired > 0, "pin trace must raise alarms");
    for shards in [1usize, 2, 4, 8] {
        let got = sharded_reports(&case, shards, 4);
        let got_alarms: Vec<_> = got.iter().flat_map(|r| r.alarms.clone()).collect();
        let want_alarms: Vec<_> = want.iter().flat_map(|r| r.alarms.clone()).collect();
        assert_eq!(got_alarms, want_alarms, "{shards} shards");
        assert_eq!(got, want, "{shards} shards");
    }
}
