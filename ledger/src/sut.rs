//! The system under test: every call into a gridwatch crate is in this
//! file, so a refactor of the program breaks the ledger in one place.
//!
//! The functions build inputs (fixtures, frames), start the two serving
//! paths in-process exactly the way the CLI's `run_listen` and
//! `coordinator` commands do, hand reports back through an [`Oracle`]
//! that checks them, and expose single operations of each layer for the
//! probes. The only clocks here are around those single operations, so
//! that preparing their inputs stays outside the timed part; what is
//! measured when, and how it is reported, is decided elsewhere. The rest
//! of the ledger sees plain numbers and handles it cannot look inside.
//!
//! Deliberately unused, because ROADMAP plans their removal:
//! `EngineConfig::parallel`, non-default row formats, and the CSV wire
//! protocol (the protocol field is left at `NetConfig::default()`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{self, Write};
use std::net::TcpStream;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gridwatch_core::{ModelConfig, TransitionModel};
use gridwatch_detect::{
    DetectionEngine, EngineConfig, EngineSnapshot, PairScreen, ScoreBoard, Snapshot, StepReport,
};
use gridwatch_grid::CellId;
use gridwatch_obs::{LogHistogram, PipelineObs, Stage};
use gridwatch_serve::{
    decode_response, encode_json, encode_response, BackpressurePolicy, BoardFrame, Checkpointer,
    Coordinator, FabricConfig, FabricResponse, FrameDecoder, HistoryDepth, HistorySink, NetConfig,
    NetServer, ServeConfig, ServeStats, ShardRouter, ShardWorker, ShardedEngine, SourceTable,
    WireFrame,
};
use gridwatch_sim::{FaultSchedule, Infrastructure, Trace, TraceGenerator, WorkloadConfig};
use gridwatch_timeseries::{
    AlignmentPolicy, GroupId, MeasurementId, PairSeries, Point2, Timestamp,
};

use crate::loadgen::{Got, Sink, Source};

/// Shards on every serving path: the box has two cores.
pub const SHARDS: usize = 2;
/// The `source` name stamped on every frame the ledger sends.
const SOURCE: &str = "ledger";
/// The infrastructure (machines, metric couplings) and the history the
/// engine is trained on are the same for every seed; `--seed` drives the
/// snapshots served to it. Runs with different seeds then start from
/// the same grids (with a seeded history the adaptive workload's
/// throughput differed by a third between seeds, which no bound could
/// have held).
const INFRA_SEED: u64 = 20080529;
/// How far the served snapshots move from the fixed realisation's own
/// next days towards the seed's realisation of the same system. Adaptive
/// models keep learning from what they are served, and what they learn
/// sets what a step costs: served an independent realisation (a share of
/// one), single-threaded steps late in the trace cost from 8.9 to 13.7 ms
/// depending on the seed alone; at a quarter, 8.6 to 9.3 ms.
const SEED_SHARE: f64 = 0.25;
/// Days of history every engine is trained on, as `gridwatch train`.
const TRAIN_DAYS: u64 = 8;
/// Sampling interval of the simulator (the paper's six minutes).
const STEP_SECS: u64 = 360;

/// What a workload's inputs are made from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixtureSpec {
    /// Simulated machines (six measurements each).
    pub machines: usize,
    /// Cap on watched pairs, in canonical order.
    pub max_pairs: usize,
    /// `ModelConfig::default().frozen()` instead of the adaptive default.
    pub frozen: bool,
}

/// One workload's inputs: a trained engine and the snapshots it serves.
pub struct Fixture {
    engine: EngineSnapshot,
    ids: Vec<MeasurementId>,
    /// One column of values per measurement, serving window only.
    columns: Vec<Vec<f64>>,
    start_secs: u64,
    /// Seconds spent in `TraceGenerator::generate`.
    pub generate_s: f64,
    /// Seconds spent screening pairs and in `DetectionEngine::train`.
    pub train_s: f64,
}

impl Fixture {
    /// Trains the engine on the fixed realisation's first days and makes
    /// the `frames` snapshots it will serve from the days after them:
    /// each value lies [`SEED_SHARE`] of the way from the fixed
    /// realisation to the realisation `seed` gives of the same system.
    pub fn build(spec: FixtureSpec, frames: usize, seed: u64) -> Fixture {
        let train_end = Timestamp::from_days(TRAIN_DAYS);
        let end = Timestamp::from_secs(train_end.as_secs() + frames as u64 * STEP_SECS);
        let generate = |seed: u64| {
            let infra = Infrastructure::standard_group(GroupId::A, spec.machines, INFRA_SEED);
            TraceGenerator::new(infra, WorkloadConfig::default(), FaultSchedule::new(), seed)
                .generate(Timestamp::EPOCH, end)
        };
        let began = Instant::now();
        let fixed = generate(INFRA_SEED);
        let seeded = generate(seed);
        let generate_s = began.elapsed().as_secs_f64();

        let began = Instant::now();
        let mut training = BTreeMap::new();
        for id in fixed.measurement_ids() {
            let series = fixed.series(id).expect("id comes from the trace");
            training.insert(id, series.slice(Timestamp::EPOCH, train_end));
        }
        let screen = PairScreen {
            min_cv: 0.05,
            max_pairs: Some(spec.max_pairs),
            ..PairScreen::default()
        };
        let histories: Vec<_> = screen
            .select(&training)
            .into_iter()
            .filter_map(|pair| {
                PairSeries::align(
                    &training[&pair.first()],
                    &training[&pair.second()],
                    AlignmentPolicy::Intersect,
                )
                .ok()
                .map(|history| (pair, history))
            })
            .collect();
        let model = if spec.frozen {
            ModelConfig::default().frozen()
        } else {
            ModelConfig::default()
        };
        let engine = DetectionEngine::train(
            histories,
            EngineConfig {
                model,
                ..EngineConfig::default()
            },
        )
        .expect("simulated histories train")
        .snapshot();
        let train_s = began.elapsed().as_secs_f64();

        let ids: Vec<MeasurementId> = seeded.measurement_ids().collect();
        let columns = ids
            .iter()
            .map(|&id| {
                let serving = |trace: &Trace| {
                    let series = trace.series(id).expect("both traces hold every id");
                    series.slice(train_end, end)
                };
                let (fixed, seeded) = (serving(&fixed), serving(&seeded));
                assert_eq!(seeded.len(), frames, "every tick has a sample");
                let blend = |(a, b): (&f64, &f64)| a + SEED_SHARE * (b - a);
                fixed
                    .values()
                    .iter()
                    .zip(seeded.values())
                    .map(blend)
                    .collect()
            })
            .collect();
        Fixture {
            engine,
            ids,
            columns,
            start_secs: train_end.as_secs(),
            generate_s,
            train_s,
        }
    }

    /// Serving snapshots available.
    pub fn frames(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// The timestamp, in trace seconds, of serving snapshot `k`.
    fn at_secs(&self, k: usize) -> u64 {
        self.start_secs + k as u64 * STEP_SECS
    }

    fn snapshot(&self, k: usize) -> Snapshot {
        let mut snap = Snapshot::new(Timestamp::from_secs(self.at_secs(k)));
        for (id, column) in self.ids.iter().zip(&self.columns) {
            snap.insert(*id, column[k]);
        }
        snap
    }

    fn snapshots(&self, range: std::ops::Range<usize>) -> Vec<Snapshot> {
        range.map(|k| self.snapshot(k)).collect()
    }
}

/// Every serving snapshot as a length-prefixed JSON wire frame, encoded
/// before anything is timed so that `encode_json` is not on the load
/// generator's clock.
pub struct Frames {
    bytes: Vec<u8>,
    /// `ends[k]` is the end offset of frame `k` in `bytes`.
    ends: Vec<usize>,
}

impl Frames {
    /// Encodes the fixture's first `count` snapshots, with `seq == index`.
    pub fn encode(fixture: &Fixture, count: usize) -> Frames {
        let mut bytes = Vec::new();
        let mut ends = Vec::with_capacity(count);
        for k in 0..count {
            let frame = WireFrame {
                source: SOURCE.to_string(),
                seq: k as u64,
                snapshot: fixture.snapshot(k),
            };
            bytes.extend_from_slice(&encode_json(&frame).expect("simulated frames encode"));
            ends.push(bytes.len());
        }
        Frames { bytes, ends }
    }

    /// Frames encoded.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Total encoded bytes.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    fn get(&self, k: usize) -> &[u8] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.bytes[start..self.ends[k]]
    }
}

/// Checks the report stream as it arrives. Report `k` must carry the
/// timestamp of snapshot `k` (which also proves order and uniqueness)
/// and scores inside `[0, 1]`; the first `verify` reports are kept and
/// later compared bit for bit against the reference pass.
pub struct Oracle {
    start_secs: u64,
    next: usize,
    bad: usize,
    kept: Vec<StepReport>,
    verify: usize,
}

impl Oracle {
    /// An oracle for the fixture's stream, keeping `verify` reports.
    pub fn new(fixture: &Fixture, verify: usize) -> Oracle {
        Oracle {
            start_secs: fixture.start_secs,
            next: 0,
            bad: 0,
            kept: Vec::with_capacity(verify),
            verify,
        }
    }

    fn accept(&mut self, report: StepReport) -> Got {
        let k = self.next;
        self.next += 1;
        let expected = self.start_secs + k as u64 * STEP_SECS;
        let pairs = report.scores.len();
        let ok = report.scores.at().as_secs() == expected
            && report
                .scores
                .pair_scores()
                .all(|(_, score)| (0.0..=1.0).contains(&score));
        if !ok {
            self.bad += 1;
        }
        if k < self.verify {
            self.kept.push(report);
        }
        Got { pairs, ok }
    }

    /// Reports seen so far.
    pub fn seen(&self) -> usize {
        self.next
    }

    /// Reports that arrived out of order, with the wrong timestamp, or
    /// with a score outside `[0, 1]`.
    pub fn bad(&self) -> usize {
        self.bad
    }

    /// Kept reports that differ from the reference (a missing report
    /// counts as a difference).
    pub fn mismatches(&self, reference: &Reference) -> usize {
        let want = &reference.reports[..self.verify.min(reference.reports.len())];
        let differing = want
            .iter()
            .zip(&self.kept)
            .filter(|(want, got)| want != got)
            .count();
        differing + want.len().saturating_sub(self.kept.len())
    }
}

/// The single-threaded `DetectionEngine::step` replay of the verify
/// prefix: the correctness reference and the single-threaded baseline.
pub struct Reference {
    reports: Vec<StepReport>,
    engine: DetectionEngine,
    /// Wall time of the pass.
    pub elapsed: Duration,
    /// Pair scores recorded over the pass.
    pub pairs_scored: usize,
}

impl Reference {
    /// Replays the first `verify` snapshots through an unsharded engine.
    pub fn run(fixture: &Fixture, verify: usize) -> Reference {
        let snaps = fixture.snapshots(0..verify);
        let mut engine = DetectionEngine::from_snapshot(fixture.engine.clone());
        let began = Instant::now();
        let reports: Vec<StepReport> = snaps.iter().map(|snap| engine.step(snap)).collect();
        let elapsed = began.elapsed();
        let pairs_scored = reports.iter().map(|r| r.scores.len()).sum();
        Reference {
            reports,
            engine,
            elapsed,
            pairs_scored,
        }
    }

    /// Snapshots replayed.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Mean row-cache bytes per model after the pass.
    pub fn row_cache_bytes_per_model(&self) -> f64 {
        let models: Vec<_> = self
            .engine
            .pairs()
            .filter_map(|pair| self.engine.model(pair))
            .collect();
        let total: usize = models
            .iter()
            .map(|m| m.matrix().approx_row_cache_bytes())
            .sum();
        total as f64 / models.len().max(1) as f64
    }
}

/// One pipeline stage's span histogram, whole, so that runs can be
/// merged and re-percentiled later.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageHist {
    /// The stage's name in the program's own vocabulary.
    pub stage: &'static str,
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, nanoseconds.
    pub sum_ns: u64,
    /// Shortest span.
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
    /// An upper bound on the 99th percentile.
    pub p99_ns: u64,
    /// Log-bucket counts (see `gridwatch_obs::hist`).
    pub buckets: Vec<u64>,
}

fn stage_hists(merged: impl Fn(Stage) -> LogHistogram) -> Vec<StageHist> {
    Stage::ALL
        .iter()
        .map(|&stage| {
            let hist = merged(stage);
            StageHist {
                stage: stage.name(),
                count: hist.count,
                sum_ns: hist.sum,
                min_ns: hist.min,
                max_ns: hist.max,
                p99_ns: hist.p99(),
                buckets: hist.buckets,
            }
        })
        .collect()
}

/// What the program's own counters said after a run, as plain numbers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SutStats {
    /// Reports the system says it emitted.
    pub reports: u64,
    /// Share of shard submits that blocked on a full queue.
    pub backpressure_engaged_share: f64,
    /// Median shard queue depth sampled at submit.
    pub queue_depth_p50: f64,
    /// Median shard step time over all shards, microseconds.
    pub shard_step_p50_us: f64,
    /// 99th percentile shard step time over all shards, microseconds.
    pub shard_step_p99_us: f64,
    /// Busiest shard's summed step time over the mean shard's.
    pub shard_skew: f64,
    /// Frames decoded by the listener.
    pub net_frames: u64,
    /// Frames the sequencer absorbed as duplicates.
    pub net_duplicates: u64,
    /// Frames the sequencer buffered ahead of a gap.
    pub net_out_of_order: u64,
    /// Frames lost to decode errors.
    pub net_decode_errors: u64,
    /// Boards the coordinator fenced as stale.
    pub stale_boards: u64,
    /// Worker connections the coordinator lost.
    pub disconnects: u64,
    /// The seven stage histograms; empty unless the run was traced.
    pub stages: Vec<StageHist>,
}

fn digest_serve(stats: &ServeStats) -> SutStats {
    let mut steps = LogHistogram::new();
    let mut depths = LogHistogram::new();
    let mut blocked = 0u64;
    let mut busy: Vec<f64> = Vec::new();
    for shard in &stats.shards {
        steps.merge(&shard.latency);
        depths.merge(&shard.queue_depths);
        blocked += shard.backpressure_wait_ns.count;
        busy.push(shard.latency.sum as f64);
    }
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let max_busy = busy.iter().copied().fold(0.0, f64::max);
    let submits = stats.submitted * stats.shards.len() as u64;
    SutStats {
        reports: stats.reports,
        backpressure_engaged_share: blocked as f64 / submits.max(1) as f64,
        queue_depth_p50: depths.p50() as f64,
        shard_step_p50_us: steps.p50() as f64 / 1e3,
        shard_step_p99_us: steps.p99() as f64 / 1e3,
        shard_skew: if mean_busy > 0.0 {
            max_busy / mean_busy
        } else {
            0.0
        },
        net_frames: stats.net.frames,
        net_duplicates: stats.net.duplicates,
        net_out_of_order: stats.net.out_of_order,
        net_decode_errors: stats.net.decode_errors,
        ..SutStats::default()
    }
}

fn serve_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        backpressure: BackpressurePolicy::Block,
        ..ServeConfig::default()
    }
}

fn obs(traced: bool) -> PipelineObs {
    if traced {
        PipelineObs::enabled()
    } else {
        PipelineObs::disabled()
    }
}

/// `NetServer` over loopback TCP with one client connection: what
/// `gridwatch serve --listen` runs, minus flag parsing and `--store`.
pub struct NetTarget {
    server: NetServer,
    stream: TcpStream,
    oracle: Oracle,
    traced: bool,
}

impl NetTarget {
    /// Binds the listener on an OS-assigned loopback port and connects
    /// the one client. Returns once the server has accepted it.
    pub fn start(fixture: &Fixture, verify: usize, traced: bool) -> io::Result<NetTarget> {
        let server = NetServer::bind_with_obs(
            "127.0.0.1:0",
            fixture.engine.clone(),
            serve_config(SHARDS),
            NetConfig::default(),
            BTreeMap::new(),
            obs(traced),
        )?;
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        Ok(NetTarget {
            server,
            stream,
            oracle: Oracle::new(fixture, verify),
            traced,
        })
    }

    /// The two halves the load generator drives from its two threads.
    pub fn split<'a>(&'a mut self, frames: &'a Frames) -> io::Result<(NetSink<'a>, NetSource<'a>)> {
        Ok((
            NetSink {
                stream: self.stream.try_clone()?,
                frames,
                pending: Vec::with_capacity(2 * SINK_BUFFER),
            },
            NetSource {
                server: &self.server,
                oracle: &mut self.oracle,
            },
        ))
    }

    /// Shuts the listener down gracefully (joining its threads) and
    /// digests its statistics.
    pub fn finish(self) -> (Oracle, SutStats) {
        let NetTarget {
            server,
            stream,
            mut oracle,
            traced,
        } = self;
        let tracer = server.obs().tracer.clone();
        drop(stream);
        let (rest, stats) = server.shutdown();
        for report in rest {
            oracle.accept(report);
        }
        let mut digest = digest_serve(&stats);
        if traced {
            digest.stages = stage_hists(|stage| tracer.stage(stage));
        }
        (oracle, digest)
    }
}

/// Bytes the saturating sender batches per `write`: whole frames, so the
/// generator's syscalls stay cheap next to the system's two cores.
const SINK_BUFFER: usize = 32 << 10;

/// The sending half of a [`NetTarget`].
pub struct NetSink<'a> {
    stream: TcpStream,
    frames: &'a Frames,
    pending: Vec<u8>,
}

impl Sink for NetSink<'_> {
    fn send(&mut self, frame: usize, flush: bool) -> io::Result<()> {
        self.pending.extend_from_slice(self.frames.get(frame));
        if flush || self.pending.len() >= SINK_BUFFER {
            self.stream.write_all(&self.pending)?;
            self.pending.clear();
        }
        Ok(())
    }
}

/// The receiving half of a [`NetTarget`].
pub struct NetSource<'a> {
    server: &'a NetServer,
    oracle: &'a mut Oracle,
}

impl Source for NetSource<'_> {
    fn recv(&mut self, timeout: Duration) -> Option<Got> {
        let report = if timeout.is_zero() {
            self.server.try_recv_report()
        } else {
            self.server.recv_report_timeout(timeout)
        }?;
        Some(self.oracle.accept(report))
    }
}

/// `Coordinator` plus two in-process `ShardWorker`s over loopback TCP:
/// what `gridwatch coordinator` and two `gridwatch shard-worker`
/// processes run, minus the process boundaries.
pub struct FabricTarget {
    coordinator: Coordinator,
    workers: Vec<JoinHandle<()>>,
    worker_obs: Vec<PipelineObs>,
    snaps: Vec<Option<Snapshot>>,
    oracle: Oracle,
    traced: bool,
}

impl FabricTarget {
    /// Starts the workers, connects the coordinator (Hello handshake
    /// included), and materialises the first `count` snapshots, which
    /// `Coordinator::submit` takes by value.
    pub fn start(
        fixture: &Fixture,
        count: usize,
        verify: usize,
        traced: bool,
    ) -> io::Result<FabricTarget> {
        let mut addrs = Vec::new();
        let mut workers = Vec::new();
        let mut worker_obs = Vec::new();
        for _ in 0..SHARDS {
            let worker = ShardWorker::bind("127.0.0.1:0")?;
            addrs.push(worker.local_addr().to_string());
            worker_obs.push(worker.obs().clone());
            workers.push(std::thread::spawn(move || {
                if let Err(e) = worker.run() {
                    eprintln!("ledger: shard worker failed: {e}");
                }
            }));
        }
        let coordinator = Coordinator::connect_with_obs(
            fixture.engine.clone(),
            &addrs,
            FabricConfig::default(),
            obs(traced),
        )
        .map_err(|e| io::Error::other(e.to_string()))?;
        Ok(FabricTarget {
            coordinator,
            workers,
            worker_obs,
            snaps: fixture.snapshots(0..count).into_iter().map(Some).collect(),
            oracle: Oracle::new(fixture, verify),
            traced,
        })
    }

    /// Halts the workers, joins every thread, and digests the
    /// coordinator's statistics.
    pub fn finish(self) -> (Oracle, SutStats) {
        let FabricTarget {
            coordinator,
            workers,
            worker_obs,
            mut oracle,
            traced,
            ..
        } = self;
        let tracer = coordinator.obs().tracer.clone();
        let (rest, stats) = coordinator.shutdown(true);
        for report in rest {
            oracle.accept(report);
        }
        for worker in workers {
            let _ = worker.join();
        }
        let mut digest = SutStats {
            reports: stats.reports,
            stale_boards: stats.stale_boards,
            disconnects: stats.disconnects,
            ..SutStats::default()
        };
        if traced {
            // Workers time their own socket read and decode; the
            // coordinator times the rest (score arrives in the boards).
            digest.stages = stage_hists(|stage| match stage {
                Stage::Ingest | Stage::Decode => {
                    let mut merged = LogHistogram::new();
                    for obs in &worker_obs {
                        merged.merge(&obs.tracer.stage(stage));
                    }
                    merged
                }
                _ => tracer.stage(stage),
            });
        }
        (oracle, digest)
    }
}

impl Sink for FabricTarget {
    fn send(&mut self, frame: usize, _flush: bool) -> io::Result<()> {
        let snap = self.snaps[frame].take().expect("each frame is sent once");
        self.coordinator
            .submit(snap)
            .map(drop)
            .map_err(|e| io::Error::other(e.to_string()))
    }
}

impl Source for FabricTarget {
    fn recv(&mut self, timeout: Duration) -> Option<Got> {
        let report = if timeout.is_zero() {
            self.coordinator.try_recv_report()
        } else {
            self.coordinator.recv_report_timeout(timeout)
        }?;
        Some(self.oracle.accept(report))
    }
}

/// One layer operation the probes time: `run` performs a batch and
/// returns how many operations it did and how long the timed part took
/// (preparation, such as cloning inputs, is outside the timer).
pub struct Probe<'a> {
    /// The per-layer metric this probe reports.
    pub metric: &'static str,
    /// Nanoseconds per unit of the metric (1 for `_ns`, 1000 for `_us`).
    pub unit_ns: f64,
    /// Runs one batch.
    pub run: Box<dyn FnMut() -> (usize, Duration) + 'a>,
}

/// Snapshots and frames each timed probe works on per batch.
pub const PROBE_FRAMES: usize = 256;

/// The probes that time single public calls of each layer, on this
/// workload's own engine and frames.
pub fn timed_probes<'a>(
    fixture: &'a Fixture,
    frames: &'a Frames,
    reference: &'a Reference,
) -> Vec<Probe<'a>> {
    let n = PROBE_FRAMES.min(fixture.frames()).min(frames.len());
    let snaps = fixture.snapshots(0..n);
    let (pair, trained) = fixture
        .engine
        .models
        .first()
        .expect("a trained engine has a model");
    let pair = *pair;
    let points: Vec<Point2> = snaps
        .iter()
        .filter_map(|s| Some(Point2::new(s.value(pair.first())?, s.value(pair.second())?)))
        .collect();
    // Rows the reference pass left observations in: the rows scoring
    // actually visits.
    let visited: &TransitionModel = reference.engine.model(pair).expect("same pairs");
    let rows: Vec<CellId> = visited.matrix().observed_sources().collect();

    let wire_frames: Vec<WireFrame> = snaps
        .iter()
        .enumerate()
        .map(|(k, snap)| WireFrame {
            source: SOURCE.to_string(),
            seq: k as u64,
            snapshot: snap.clone(),
        })
        .collect();

    let board = half_board(reference);
    let board_bytes = encode_response(&board).expect("a board encodes");

    let mut observed = trained.clone();
    let net = NetConfig::default();
    vec![
        Probe {
            metric: "grid.locate_ns",
            unit_ns: 1.0,
            run: Box::new({
                let points = points.clone();
                move || {
                    let began = Instant::now();
                    for &p in &points {
                        black_box(trained.grid().locate(black_box(p)));
                    }
                    (points.len(), began.elapsed())
                }
            }),
        },
        Probe {
            metric: "core.observe_ns",
            unit_ns: 1.0,
            run: Box::new(move || {
                let began = Instant::now();
                for &p in &points {
                    black_box(observed.observe(black_box(p)));
                }
                (points.len(), began.elapsed())
            }),
        },
        Probe {
            metric: "core.compute_row_us",
            unit_ns: 1e3,
            run: Box::new(move || {
                let began = Instant::now();
                for &row in &rows {
                    black_box(visited.matrix().compute_row(visited.grid(), row));
                }
                (rows.len(), began.elapsed())
            }),
        },
        Probe {
            metric: "serve.wire.encode_ns_per_frame",
            unit_ns: 1.0,
            run: Box::new(move || {
                let began = Instant::now();
                for frame in &wire_frames {
                    black_box(encode_json(frame).expect("simulated frames encode"));
                }
                (wire_frames.len(), began.elapsed())
            }),
        },
        Probe {
            metric: "serve.wire.decode_ns_per_frame",
            unit_ns: 1.0,
            run: Box::new(move || {
                let mut decoder = FrameDecoder::new(net.protocol, net.max_frame_bytes);
                let began = Instant::now();
                for k in 0..n {
                    decoder.push(frames.get(k));
                    black_box(decoder.next_frame().expect("own frames decode"));
                }
                (n, began.elapsed())
            }),
        },
        Probe {
            metric: "serve.sequence.admit_ns_per_frame",
            unit_ns: 1.0,
            run: Box::new(move || {
                let mut table = SourceTable::new(NetConfig::default().reorder_capacity);
                let batch = snaps.clone();
                let began = Instant::now();
                for (k, snap) in batch.into_iter().enumerate() {
                    black_box(table.admit(SOURCE, k as u64, snap));
                }
                (n, began.elapsed())
            }),
        },
        Probe {
            metric: "serve.remote.board_encode_us",
            unit_ns: 1e3,
            run: Box::new(move || {
                let began = Instant::now();
                for _ in 0..n {
                    black_box(encode_response(black_box(&board)).expect("a board encodes"));
                }
                (n, began.elapsed())
            }),
        },
        Probe {
            metric: "serve.remote.board_decode_us",
            unit_ns: 1e3,
            run: Box::new({
                let bytes = board_bytes.clone();
                move || {
                    let began = Instant::now();
                    for _ in 0..n {
                        black_box(decode_response(black_box(&bytes)).expect("own board decodes"));
                    }
                    (n, began.elapsed())
                }
            }),
        },
    ]
}

/// A real half-board response: the last reference report's scores for
/// shard 0 of two, as a worker would ship them.
fn half_board(reference: &Reference) -> FabricResponse {
    let last = reference
        .reports
        .last()
        .expect("a reference pass has reports");
    let router = ShardRouter::new(SHARDS);
    let mut half = ScoreBoard::new(last.scores.at());
    for (pair, score) in last.scores.pair_scores() {
        if router.route(pair) == 0 {
            half.record(pair, score);
        }
    }
    FabricResponse::Board(BoardFrame {
        shard: 0,
        epoch: 1,
        seq: reference.reports.len() as u64 - 1,
        score_ns: 0,
        spans: Vec::new(),
        board: half,
    })
}

/// Encoded bytes of that half-board.
pub fn board_bytes(reference: &Reference) -> usize {
    encode_response(&half_board(reference)).map_or(0, |bytes| bytes.len())
}

/// What one checkpoint of a two-shard engine costs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckpointCost {
    /// `ShardedEngine::checkpoint`, milliseconds.
    pub write_ms: f64,
    /// Bytes the checkpoint directory holds.
    pub bytes: u64,
    /// `Checkpointer::recover`, milliseconds.
    pub recover_ms: f64,
}

/// `ShardedEngine::submit` → `shutdown` with no TCP in front: `warm`
/// snapshots untimed, then `count` timed. Returns snapshots per second
/// and, when `checkpoint_dir` is given, what a checkpoint of the
/// post-run engine costs.
pub fn inproc(
    fixture: &Fixture,
    shards: usize,
    warm: usize,
    count: usize,
    checkpoint_dir: Option<&Path>,
) -> io::Result<(f64, Option<CheckpointCost>)> {
    let mut engine = ShardedEngine::start(fixture.engine.clone(), serve_config(shards));
    // Submits a batch and waits until every one of its reports is back.
    let pump = |engine: &mut ShardedEngine, snaps: Vec<Snapshot>| -> io::Result<()> {
        let expected = snaps.len();
        for snap in snaps {
            engine.submit(snap);
        }
        for _ in 0..expected {
            engine
                .recv_report_timeout(Duration::from_secs(30))
                .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "engine stalled"))?;
        }
        Ok(())
    };
    pump(&mut engine, fixture.snapshots(0..warm))?;
    let snaps = fixture.snapshots(warm..warm + count);
    let began = Instant::now();
    pump(&mut engine, snaps)?;
    let rate = count as f64 / began.elapsed().as_secs_f64();

    let cost = match checkpoint_dir {
        None => None,
        Some(dir) => {
            let began = Instant::now();
            engine
                .checkpoint(dir)
                .map_err(|e| io::Error::other(e.to_string()))?;
            let write_ms = began.elapsed().as_secs_f64() * 1e3;
            let began = Instant::now();
            black_box(
                Checkpointer::new(dir)
                    .recover()
                    .map_err(|e| io::Error::other(e.to_string()))?,
            );
            Some(CheckpointCost {
                write_ms,
                bytes: dir_bytes(dir)?,
                recover_ms: began.elapsed().as_secs_f64() * 1e3,
            })
        }
    };
    engine.shutdown();
    Ok((rate, cost))
}

/// What persisting reports to the history store costs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistoryCost {
    /// `HistorySink::append_report` at depth `full`, microseconds.
    pub append_us_per_report: f64,
    /// Sealing the WAL into columnar blocks, per thousand reports.
    pub seal_ms_per_1k_reports: f64,
    /// Sealed bytes on disk per report.
    pub bytes_per_report: f64,
}

/// Appends the reference reports to a fresh store in `dir` and seals it.
pub fn history_cost(reference: &Reference, dir: &Path) -> io::Result<HistoryCost> {
    let store_err = |e: &dyn std::fmt::Display| io::Error::other(e.to_string());
    let (mut sink, _) = HistorySink::open(dir, Default::default(), HistoryDepth::Full)
        .map_err(|e| store_err(&e))?;
    let reports = reference.reports.len() as f64;
    let began = Instant::now();
    for report in &reference.reports {
        sink.append_report(report).map_err(|e| store_err(&e))?;
    }
    let append = began.elapsed();
    let began = Instant::now();
    sink.checkpoint().map_err(|e| store_err(&e))?;
    let seal = began.elapsed();
    drop(sink);
    Ok(HistoryCost {
        append_us_per_report: append.as_secs_f64() * 1e6 / reports,
        seal_ms_per_1k_reports: seal.as_secs_f64() * 1e3 / reports * 1e3,
        bytes_per_report: dir_bytes(dir)? as f64 / reports,
    })
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
