//! The multi-node fabric equivalence property: a [`Coordinator`]
//! fanning snapshots out to N remote [`ShardWorker`] processes (here:
//! threads with real TCP sockets — `{N workers × 1 shard each}`)
//! produces the exact same `StepReport` stream — boards and alarms,
//! bit for bit — as a single unsharded `DetectionEngine`, which the
//! sibling `equivalence` suite proves equals `{1 process × N shards}`.
//! Holds for shard counts 1/2/4/8, and across a worker kill with
//! checkpoint-transfer migration mid-stream.

use std::thread::JoinHandle;

use gridwatch_detect::{
    AlarmPolicy, DetectionEngine, EngineConfig, EngineSnapshot, Snapshot, StepReport,
};
use gridwatch_obs::{parse_exposition, FlightRecorder, PipelineObs, Stage};
use gridwatch_serve::{
    Coordinator, FabricConfig, FabricError, ServeConfig, ShardWorker, ShardedEngine,
    WorkerController, WorkerSummary,
};
use gridwatch_timeseries::{
    AlignmentPolicy, MachineId, MeasurementId, MeasurementPair, MetricKind, PairSeries, Timestamp,
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

fn value(m: usize, load: f64, noise: f64) -> f64 {
    (m as f64 + 1.0) * load + 7.0 * m as f64 + noise
}

struct Case {
    engine: EngineSnapshot,
    trace: Vec<Snapshot>,
}

/// Same randomized-system builder as the in-process equivalence suite:
/// coupled training histories plus a test trace that breaks one
/// measurement over a window.
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

/// One in-process "remote" worker: a real TCP listener served on its
/// own thread, killable mid-stream through its controller.
struct Worker {
    addr: String,
    controller: WorkerController,
    /// The worker's own flight recorder.
    recorder: FlightRecorder,
    handle: JoinHandle<Result<WorkerSummary, FabricError>>,
}

fn spawn_worker() -> Worker {
    let worker = ShardWorker::bind("127.0.0.1:0").expect("bind worker");
    let addr = worker.local_addr().to_string();
    let controller = worker.controller();
    let recorder = worker.obs().recorder.clone();
    let handle = std::thread::spawn(move || worker.run());
    Worker {
        addr,
        controller,
        recorder,
        handle,
    }
}

fn spawn_workers(n: usize) -> Vec<Worker> {
    (0..n).map(|_| spawn_worker()).collect()
}

fn join_workers(workers: Vec<Worker>) {
    for worker in workers {
        // A killed worker returns Ok too; only a real server error
        // should fail the test.
        worker
            .handle
            .join()
            .expect("worker thread")
            .expect("worker run");
    }
}

/// Streams the whole trace through a fabric of `shards` workers.
fn fabric_reports(case: &Case, shards: usize) -> Vec<StepReport> {
    let workers = spawn_workers(shards);
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let mut coordinator =
        Coordinator::connect(case.engine.clone(), &addrs, FabricConfig::default())
            .expect("connect fabric");
    for snap in &case.trace {
        coordinator.submit(snap.clone()).expect("submit");
    }
    let (reports, stats) = coordinator.shutdown(true);
    assert_eq!(stats.reports, case.trace.len() as u64);
    assert_eq!(stats.stale_boards, 0);
    assert_eq!(stats.disconnects, 0);
    join_workers(workers);
    reports
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gridwatch-fabric-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Streams the trace through a fabric, but checkpoints a third of the
/// way in, kills one worker two thirds of the way in, and migrates its
/// shard to a fresh successor via checkpoint state + journal replay.
fn fabric_reports_with_migration(
    case: &Case,
    shards: usize,
    victim: usize,
    tag: &str,
) -> Vec<StepReport> {
    let dir = scratch_dir(tag);
    let mut workers = spawn_workers(shards);
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let mut coordinator =
        Coordinator::connect(case.engine.clone(), &addrs, FabricConfig::default())
            .expect("connect fabric");

    let n = case.trace.len();
    let cut = n / 3;
    let kill_at = (2 * n) / 3;
    for snap in &case.trace[..cut] {
        coordinator.submit(snap.clone()).expect("submit");
    }
    coordinator.checkpoint(&dir).expect("checkpoint");
    for snap in &case.trace[cut..kill_at] {
        coordinator.submit(snap.clone()).expect("submit");
    }

    // Kill the victim mid-epoch and migrate its shard to a successor.
    workers[victim].controller.kill();
    coordinator.declare_dead(victim);
    let successor = spawn_worker();
    coordinator
        .attach_worker(victim, &successor.addr)
        .expect("attach successor");
    let old = std::mem::replace(&mut workers[victim], successor);
    old.handle
        .join()
        .expect("victim thread")
        .expect("victim run");

    for snap in &case.trace[kill_at..] {
        coordinator.submit(snap.clone()).expect("submit");
    }
    let (reports, stats) = coordinator.shutdown(true);
    assert_eq!(stats.reports, n as u64, "every step must still report");
    assert_eq!(stats.migrations, 1);
    assert_eq!(stats.checkpoints, 1);
    join_workers(workers);
    let _ = std::fs::remove_dir_all(&dir);
    reports
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `{N processes × 1 shard}` over TCP equals the unsharded engine
    /// (and, transitively, `{1 process × N shards}`) bit for bit.
    #[test]
    fn remote_fabric_matches_unsharded_bit_for_bit(
        seed in 0u64..1_000_000,
        measurements in 4usize..=6,
        steps in 8u64..=18,
        break_measurement in 0usize..6,
        break_from in 0u64..10,
        break_len in 0u64..8,
    ) {
        let case = build_case(seed, measurements, steps, break_measurement, break_from, break_len);
        let want = unsharded_reports(&case);
        for shards in [1usize, 2, 4, 8] {
            let got = fabric_reports(&case, shards);
            prop_assert_eq!(
                &got,
                &want,
                "{} remote shards diverged from the unsharded engine",
                shards
            );
        }
    }

    /// The stream stays bit-identical across a worker kill mid-epoch
    /// with checkpoint-transfer migration to a successor.
    #[test]
    fn migration_preserves_the_report_stream(
        seed in 0u64..1_000_000,
        measurements in 4usize..=6,
        steps in 9u64..=18,
        break_measurement in 0usize..6,
        break_from in 0u64..10,
        break_len in 0u64..8,
        victim_pick in 0usize..8,
    ) {
        let case = build_case(seed, measurements, steps, break_measurement, break_from, break_len);
        let want = unsharded_reports(&case);
        for shards in [1usize, 2, 4, 8] {
            let victim = victim_pick % shards;
            let got = fabric_reports_with_migration(
                &case,
                shards,
                victim,
                &format!("{seed}-{shards}"),
            );
            prop_assert_eq!(
                &got,
                &want,
                "{} shards with shard {} migrated diverged from the unsharded engine",
                shards,
                victim
            );
        }
    }
}

/// Turning the observability layer on — span tracing across the wire,
/// score timing on the workers, the metrics probe rendering live — must
/// not perturb the stream: the reports stay bit-identical to the
/// unsharded engine, while the tracer genuinely collects spans.
#[test]
fn observed_fabric_stays_bit_identical() {
    let case = build_case(19731102, 5, 16, 2, 4, 6);
    let want = unsharded_reports(&case);

    let workers = spawn_workers(3);
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let obs = PipelineObs::default();
    obs.tracer.enable();
    let mut coordinator = Coordinator::connect_with_obs(
        case.engine.clone(),
        &addrs,
        FabricConfig::default(),
        obs.clone(),
    )
    .expect("connect fabric");
    let probe = coordinator.metrics_probe();
    for snap in &case.trace {
        coordinator.submit(snap.clone()).expect("submit");
    }
    let (got, stats) = coordinator.shutdown(true);
    join_workers(workers);
    assert_eq!(got, want, "observability must not change the stream");
    assert_eq!(stats.reports, case.trace.len() as u64);

    // Every submit took a Route span, and every accepted board carried
    // its worker-side score timing upstream (3 shards × every step).
    let steps = case.trace.len() as u64;
    assert_eq!(obs.tracer.stage(Stage::Route).count, steps);
    assert_eq!(obs.tracer.stage(Stage::Score).count, 3 * steps);
    assert_eq!(obs.tracer.stage(Stage::Report).count, steps);

    // The probe renders a parseable exposition carrying the same counts.
    let text = probe.to_prometheus();
    let samples = parse_exposition(&text).expect("parseable exposition");
    let submitted = samples
        .iter()
        .find(|s| s.name == "gridwatch_fabric_submitted_total")
        .expect("submitted counter");
    assert_eq!(submitted.value, steps as f64);
    let route_count = samples
        .iter()
        .find(|s| {
            s.name == "gridwatch_stage_ns_count"
                && s.labels.iter().any(|(k, v)| k == "stage" && v == "route")
        })
        .expect("route span histogram");
    assert_eq!(route_count.value, steps as f64);
}

/// Non-random pin: the migration path must preserve an alarm-firing
/// trace exactly — kills land mid-alarm-window so debounce state is
/// exercised across the merge.
#[test]
fn alarms_survive_migration_bit_for_bit() {
    let case = build_case(20080529, 6, 24, 5, 8, 9);
    let want = unsharded_reports(&case);
    let fired: usize = want.iter().map(|r| r.alarms.len()).sum();
    assert!(fired > 0, "pin trace must raise alarms");
    for shards in [2usize, 4] {
        let got =
            fabric_reports_with_migration(&case, shards, shards - 1, &format!("pin-{shards}"));
        assert_eq!(got, want, "{shards} shards");
    }
}

/// A fabric worker scores with the same shard step as an in-process
/// shard: its engine shares the worker's flight recorder, so the drift
/// layer's rebuild events land there, and the step's event lists are
/// drained every snapshot. Drives a drift-enabled engine over the
/// `Drift` chaos regime through a coordinator and two in-process
/// workers; the stream must stay bit-identical to `ShardedEngine`'s.
#[test]
fn fabric_workers_record_drift_rebuilds_in_their_flight_recorders() {
    use gridwatch_sim::chaos::chaos_scenario;
    use gridwatch_sim::scenario::TEST_DAY;
    use gridwatch_sim::ChaosRegime;

    let scenario = chaos_scenario(ChaosRegime::Drift, 2, 20080529);
    let trace = &scenario.trace;
    let train_end = Timestamp::from_days(TEST_DAY);
    // Every pair among machine 0's measurements: the regime rewires its
    // out-traffic rate, so the pairs containing it must rebuild.
    let ids: Vec<MeasurementId> = trace
        .measurement_ids()
        .filter(|id| id.machine() == MachineId::new(0))
        .collect();
    let mut pairs = Vec::new();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            let pair = MeasurementPair::new(a, b).unwrap();
            let history = PairSeries::align(
                &trace.series(a).unwrap().slice(Timestamp::EPOCH, train_end),
                &trace.series(b).unwrap().slice(Timestamp::EPOCH, train_end),
                AlignmentPolicy::Intersect,
            )
            .unwrap();
            pairs.push((pair, history));
        }
    }
    let config = EngineConfig {
        model: gridwatch_core::ModelConfig::default().frozen(),
        drift: Some(gridwatch_detect::DriftConfig::default()),
        ..EngineConfig::default()
    };
    let engine = DetectionEngine::train(pairs, config).unwrap().snapshot();
    let snapshots: Vec<Snapshot> = trace
        .interval()
        .ticks(train_end, Timestamp::from_days(TEST_DAY + 1))
        .map(|t| {
            let mut snap = Snapshot::new(t);
            for id in trace.measurement_ids() {
                if let Some(v) = trace.series(id).unwrap().value_at(t) {
                    snap.insert(id, v);
                }
            }
            snap
        })
        .collect();

    let mut local = ShardedEngine::start(
        engine.clone(),
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
    );
    for snap in &snapshots {
        local.submit(snap.clone());
    }
    let (want, local_stats) = local.shutdown();
    assert!(local_stats.rebuilds > 0, "the regime must fire rebuilds");

    let workers = spawn_workers(2);
    let addrs: Vec<String> = workers.iter().map(|w| w.addr.clone()).collect();
    let mut coordinator =
        Coordinator::connect(engine, &addrs, FabricConfig::default()).expect("connect fabric");
    for snap in &snapshots {
        coordinator.submit(snap.clone()).expect("submit");
    }
    let (got, _) = coordinator.shutdown(true);
    let recorders: Vec<FlightRecorder> = workers.iter().map(|w| w.recorder.clone()).collect();
    join_workers(workers);

    assert_eq!(got, want, "fabric diverged from the in-process engine");
    let rebuilds: u64 = recorders
        .iter()
        .flat_map(|r| r.snapshot())
        .filter(|e| e.kind == "rebuild")
        .count() as u64;
    assert_eq!(
        rebuilds, local_stats.rebuilds,
        "every rebuild reaches the flight recorder of the worker that fired it"
    );
}
