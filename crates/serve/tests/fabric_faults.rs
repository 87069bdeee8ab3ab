//! Deterministic fault injection for the multi-node shard fabric, in
//! the style of the `net_faults` suite: a scripted chaos worker speaks
//! the fabric protocol byte-for-byte but misbehaves on cue, so every
//! defense — per-(seq, shard) dedup, epoch fencing, shard-bound
//! checks, undecodable boards, degraded-checkpoint refusal,
//! crash-resume — is exercised on demand instead of by timing luck.

use std::net::TcpListener;
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gridwatch_detect::{
    AlarmPolicy, AlarmTracker, DetectionEngine, EngineConfig, EngineSnapshot, Snapshot, StepReport,
};
use gridwatch_serve::{
    decode_downstream, encode_response, read_frame, write_frame, BoardFrame, Checkpointer,
    Coordinator, Downstream, FabricConfig, FabricControl, FabricError, FabricResponse, ShardWorker,
};
use gridwatch_sync::channel::{bounded, Receiver, Sender};
use gridwatch_timeseries::{
    MachineId, MeasurementId, MeasurementPair, MetricKind, PairSeries, Timestamp,
};

const STEP_SECS: u64 = 360;

fn ids(measurements: usize) -> Vec<MeasurementId> {
    (0..measurements as u32)
        .map(|m| MeasurementId::new(MachineId::new(m / 2), MetricKind::Custom((m % 2) as u16)))
        .collect()
}

fn value(m: usize, load: f64) -> f64 {
    (m as f64 + 1.0) * load + 7.0 * m as f64
}

/// A small deterministic system: noiseless couplings so every run of a
/// scenario sees identical boards.
fn build_case(measurements: usize, steps: u64) -> (EngineSnapshot, Vec<Snapshot>) {
    let ids = ids(measurements);
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
                (k * STEP_SECS, value(i, load), value(j, load))
            }))
            .unwrap();
            pairs.push((pair, history));
        }
    }
    let engine = DetectionEngine::train(pairs, config).unwrap().snapshot();
    let trace = (0..steps)
        .map(|k| {
            let mut snap = Snapshot::new(Timestamp::from_secs((400 + k) * STEP_SECS));
            let load = (k % 48) as f64;
            for (m, &mid) in ids.iter().enumerate() {
                snap.insert(mid, value(m, load) + 0.25);
            }
            snap
        })
        .collect();
    (engine, trace)
}

fn unsharded_reports(engine: &EngineSnapshot, trace: &[Snapshot]) -> Vec<StepReport> {
    let mut engine = DetectionEngine::from_snapshot(engine.clone());
    trace.iter().map(|s| engine.step(s)).collect()
}

fn drain_reports(coordinator: &mut Coordinator, n: usize) -> Vec<StepReport> {
    let mut reports = Vec::with_capacity(n);
    while reports.len() < n {
        match coordinator.recv_report_timeout(Duration::from_secs(10)) {
            Some(report) => reports.push(report),
            None => panic!("timed out after {} of {n} reports", reports.len()),
        }
    }
    reports
}

/// How the scripted worker misbehaves.
enum Chaos {
    /// Every board is sent four times: once correct, once duplicated,
    /// once with a forged epoch, once with an out-of-range shard index.
    Quadruplicate,
    /// Boards for `seq >= mute_after` are withheld (the worker looks
    /// partitioned from the coordinator) and flushed, stale, when the
    /// test signals `flush` — after the coordinator has migrated the
    /// shard away.
    MuteThenFlush {
        mute_after: u64,
        flush: Receiver<()>,
    },
    /// Every board is sent one byte short: a well-framed payload that
    /// does not decode, as from a peer running another build.
    Truncate,
}

/// A scripted worker: honest protocol, dishonest delivery.
fn chaos_worker(listener: TcpListener, chaos: Chaos) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("chaos accept");
        let payload = read_frame(&mut stream)
            .expect("chaos handshake read")
            .expect("chaos handshake frame");
        let Downstream::Control(FabricControl::Hello {
            shard,
            shards: _,
            epoch,
            state,
            trace: _,
            exemplar: _,
        }) = decode_downstream(&payload).expect("chaos handshake decode")
        else {
            panic!("chaos worker expected Hello first");
        };
        let mut engine = DetectionEngine::from_snapshot(EngineSnapshot {
            config: state.config,
            models: state.models,
            tracker: AlarmTracker::new(),
        });
        let ack = encode_response(&FabricResponse::HelloAck {
            shard,
            epoch,
            pairs: engine.model_count(),
        })
        .unwrap();
        write_frame(&mut stream, &ack).expect("chaos ack");

        // Poll reads so the flush signal is noticed even when the
        // coordinator has stopped sending (it migrated the shard away).
        stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut withheld: Vec<BoardFrame> = Vec::new();
        loop {
            let payload = match read_frame(&mut stream) {
                Ok(Some(payload)) => payload,
                Ok(None) => return,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if let Chaos::MuteThenFlush { flush, .. } = &chaos {
                        if flush.try_recv().is_ok() {
                            // Partition heals — but the coordinator has
                            // moved on. Everything held back goes out
                            // with the superseded epoch.
                            for stale in withheld.drain(..) {
                                let bytes = encode_response(&FabricResponse::Board(stale)).unwrap();
                                if write_frame(&mut stream, &bytes).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                    continue;
                }
                Err(_) => return,
            };
            match decode_downstream(&payload).expect("chaos decode") {
                Downstream::Snapshot(frame) => {
                    let board = engine.step_scores(&frame.snapshot);
                    let good = BoardFrame {
                        shard,
                        epoch,
                        seq: frame.seq,
                        board,
                        score_ns: 0,
                        spans: Vec::new(),
                    };
                    match &chaos {
                        Chaos::Quadruplicate => {
                            for forged in [
                                good.clone(),
                                good.clone(),
                                BoardFrame {
                                    epoch: epoch + 1000,
                                    ..good.clone()
                                },
                                BoardFrame {
                                    shard: shard + 64,
                                    ..good
                                },
                            ] {
                                let bytes =
                                    encode_response(&FabricResponse::Board(forged)).unwrap();
                                write_frame(&mut stream, &bytes).expect("chaos board");
                            }
                        }
                        Chaos::Truncate => {
                            let mut bytes = encode_response(&FabricResponse::Board(good)).unwrap();
                            bytes.pop();
                            if write_frame(&mut stream, &bytes).is_err() {
                                return;
                            }
                        }
                        Chaos::MuteThenFlush { mute_after, .. } => {
                            if good.seq < *mute_after {
                                let bytes = encode_response(&FabricResponse::Board(good)).unwrap();
                                write_frame(&mut stream, &bytes).expect("chaos board");
                            } else {
                                withheld.push(good);
                            }
                        }
                    }
                }
                Downstream::Control(FabricControl::Checkpoint { id }) => {
                    let bytes = encode_response(&FabricResponse::State {
                        shard,
                        epoch,
                        id,
                        state: engine.snapshot(),
                    })
                    .unwrap();
                    write_frame(&mut stream, &bytes).expect("chaos state");
                }
                Downstream::Control(FabricControl::Shutdown) => return,
                Downstream::Control(FabricControl::Hello { .. }) => {
                    panic!("chaos worker got a second Hello")
                }
            }
        }
    })
}

/// Flushes a healed partition by poking the chaos worker's channel and
/// waiting (bounded) for the coordinator to fence the stale boards.
fn await_stale_boards(coordinator: &Coordinator, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while coordinator.stats().stale_boards < want {
        assert!(
            Instant::now() < deadline,
            "coordinator fenced only {} of {want} stale boards",
            coordinator.stats().stale_boards
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gridwatch-fabric-faults-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Duplicate, forged-epoch, and misrouted boards are all dropped on
/// the floor — the report stream stays bit-identical to the unsharded
/// engine, and every drop lands in the right counter.
#[test]
fn duplicate_forged_and_misrouted_boards_are_dropped() {
    let (engine, trace) = build_case(4, 12);
    let want = unsharded_reports(&engine, &trace);
    let n = trace.len() as u64;

    let honest = ShardWorker::bind("127.0.0.1:0").unwrap();
    let honest_addr = honest.local_addr().to_string();
    let honest_handle = std::thread::spawn(move || honest.run());

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let chaos_addr = listener.local_addr().unwrap().to_string();
    let chaos_handle = chaos_worker(listener, Chaos::Quadruplicate);

    let mut coordinator =
        Coordinator::connect(engine, &[honest_addr, chaos_addr], FabricConfig::default()).unwrap();
    for snap in &trace {
        coordinator.submit(snap.clone()).unwrap();
    }
    let (reports, stats) = coordinator.shutdown(true);

    assert_eq!(reports, want, "chaos deliveries must not change reports");
    assert_eq!(stats.reports, n);
    // The forged-epoch copy is always fenced; the misrouted copy is
    // always rejected on the shard bound. The honest duplicate lands in
    // `duplicate_boards` when the step is still pending and in
    // `replayed_boards` when the step was already emitted.
    assert_eq!(stats.stale_boards, n, "forged epochs fenced");
    assert_eq!(stats.bad_boards, n, "misrouted boards rejected");
    assert_eq!(
        stats.duplicate_boards + stats.replayed_boards,
        n,
        "duplicates absorbed"
    );
    assert_eq!(stats.disconnects, 0);

    honest_handle.join().unwrap().unwrap();
    chaos_handle.join().unwrap();
}

/// A partitioned worker (declared dead, socket never closed) is
/// migrated away; when the partition later heals and its backlog of
/// boards arrives, every one is fenced by the epoch check — the report
/// stream the successor produced is untouched. Also pins the
/// degraded-checkpoint refusal while the shard is dead.
#[test]
fn healed_partition_backlog_is_fenced_after_migration() {
    let (engine, trace) = build_case(4, 12);
    let want = unsharded_reports(&engine, &trace);
    let n = trace.len() as u64;
    let mute_after = 5u64;

    let honest = ShardWorker::bind("127.0.0.1:0").unwrap();
    let honest_addr = honest.local_addr().to_string();
    let honest_handle = std::thread::spawn(move || honest.run());

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let chaos_addr = listener.local_addr().unwrap().to_string();
    let (flush_tx, flush_rx): (Sender<()>, Receiver<()>) = bounded(1);
    let chaos_handle = chaos_worker(
        listener,
        Chaos::MuteThenFlush {
            mute_after,
            flush: flush_rx,
        },
    );

    let mut coordinator =
        Coordinator::connect(engine, &[honest_addr, chaos_addr], FabricConfig::default()).unwrap();
    for snap in &trace {
        coordinator.submit(snap.clone()).unwrap();
    }
    // Steps >= mute_after cannot finalize: shard 1 looks partitioned.
    let head = drain_reports(&mut coordinator, mute_after as usize);

    // The operator declares the shard dead. A checkpoint must now be
    // refused — it cannot capture shard 1 at the cut.
    coordinator.declare_dead(1);
    assert_eq!(coordinator.dead_shards(), vec![1]);
    let dir = scratch_dir("degraded");
    match coordinator.checkpoint(&dir) {
        Err(FabricError::Degraded { dead }) => assert_eq!(dead, vec![1]),
        other => panic!("degraded checkpoint must be refused, got {other:?}"),
    }

    // Migrate shard 1 to an honest successor; the journal replay
    // regenerates everything the partitioned worker still owes.
    let successor = ShardWorker::bind("127.0.0.1:0").unwrap();
    let successor_addr = successor.local_addr().to_string();
    let successor_handle = std::thread::spawn(move || successor.run());
    coordinator.attach_worker(1, &successor_addr).unwrap();
    let tail = drain_reports(&mut coordinator, trace.len() - mute_after as usize);

    // Partition heals: the stale backlog arrives and is fenced.
    flush_tx.send(()).unwrap();
    await_stale_boards(&coordinator, n - mute_after);

    let (rest, stats) = coordinator.shutdown(true);
    assert!(rest.is_empty(), "no report may materialize twice");
    let mut got = head;
    got.extend(tail);
    assert_eq!(got, want, "migrated stream must match the unsharded engine");
    assert_eq!(stats.stale_boards, n - mute_after, "healed backlog fenced");
    assert_eq!(stats.replayed_boards, mute_after, "replay overlap absorbed");
    assert_eq!(stats.migrations, 1);
    assert_eq!(stats.disconnects, 1);
    assert_eq!(stats.checkpoints, 0);

    honest_handle.join().unwrap().unwrap();
    successor_handle.join().unwrap().unwrap();
    chaos_handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A board that does not decode drops its worker, and says why: the
/// shard is marked dead, the flight recorder's `disconnect` event
/// carries the decode error, and nothing panics.
#[test]
fn truncated_board_drops_the_worker_with_the_decode_error() {
    let (engine, trace) = build_case(4, 6);

    let honest = ShardWorker::bind("127.0.0.1:0").unwrap();
    let honest_addr = honest.local_addr().to_string();
    let honest_handle = std::thread::spawn(move || honest.run());

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let chaos_addr = listener.local_addr().unwrap().to_string();
    let chaos_handle = chaos_worker(listener, Chaos::Truncate);

    let mut coordinator =
        Coordinator::connect(engine, &[honest_addr, chaos_addr], FabricConfig::default()).unwrap();
    for snap in &trace {
        coordinator.submit(snap.clone()).unwrap();
    }
    // The merge thread marks the shard dead before it records the
    // event, so wait for the event.
    let deadline = Instant::now() + Duration::from_secs(10);
    let lost = loop {
        let events = coordinator.obs().recorder.snapshot();
        if let Some(event) = events.into_iter().find(|e| e.kind == "disconnect") {
            break event;
        }
        assert!(Instant::now() < deadline, "no disconnect recorded");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(
        lost.detail.starts_with("shard 1 ") && lost.detail.contains("malformed board frame"),
        "the disconnect must name the decode error: {lost:?}"
    );
    assert_eq!(coordinator.dead_shards(), vec![1]);

    let (reports, stats) = coordinator.shutdown(true);
    assert!(reports.is_empty(), "no step can finalize without shard 1");
    assert_eq!(stats.disconnects, 1);
    honest_handle.join().unwrap().unwrap();
    chaos_handle.join().unwrap();
}

/// Coordinator crash-resume: a new coordinator recovered from the
/// checkpoint directory (same workers, `start_seq`/`epoch_base` from
/// the manifest) continues the stream exactly where the old one cut.
#[test]
fn coordinator_crash_resume_continues_the_stream() {
    let (engine, trace) = build_case(5, 14);
    let want = unsharded_reports(&engine, &trace);
    let cut = 6usize;
    let dir = scratch_dir("resume");

    let workers: Vec<ShardWorker> = (0..2)
        .map(|_| ShardWorker::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let handles: Vec<_> = workers
        .into_iter()
        .map(|w| std::thread::spawn(move || w.run()))
        .collect();

    // First life: stream a prefix, checkpoint, die without ceremony
    // (workers keep running and fall back to accept).
    let mut first = Coordinator::connect(engine.clone(), &addrs, FabricConfig::default()).unwrap();
    for snap in &trace[..cut] {
        first.submit(snap.clone()).unwrap();
    }
    first.checkpoint(&dir).unwrap();
    let (head, first_stats) = first.shutdown(false);
    assert_eq!(first_stats.checkpoints, 1);

    // Recovery: state, cut, and fencing base all come from the
    // manifest.
    let (recovered, manifest) = Checkpointer::new(&dir).recover().unwrap();
    assert_eq!(manifest.cut_seq, cut as u64);
    assert_eq!(manifest.fabric_epoch, 2, "one epoch per initial attach");
    assert_eq!(manifest.remote.len(), 2);
    for (shard, entry) in manifest.remote.iter().enumerate() {
        assert_eq!(entry.shard, shard);
        assert!(entry.epoch >= 1 && entry.epoch <= manifest.fabric_epoch);
        assert!(!entry.source.is_empty());
    }

    let mut second = Coordinator::connect(
        recovered,
        &addrs,
        FabricConfig {
            start_seq: manifest.cut_seq,
            epoch_base: manifest.fabric_epoch,
            ..FabricConfig::default()
        },
    )
    .unwrap();
    assert!(
        second.fabric_epoch() > manifest.fabric_epoch,
        "resumed epochs must fence every pre-crash assignment"
    );
    for snap in &trace[cut..] {
        second.submit(snap.clone()).unwrap();
    }
    let (tail, second_stats) = second.shutdown(true);
    assert_eq!(second_stats.reports, (trace.len() - cut) as u64);

    let mut got = head;
    got.extend(tail);
    assert_eq!(got, want, "resumed stream must match the unsharded engine");

    for handle in handles {
        handle.join().unwrap().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}
