//! The sharded concurrent detection engine.
//!
//! # Architecture
//!
//! ```text
//!  submit(&mut)        bounded queues          merged, in seq order
//!  ───────────►  ┌──► [shard worker 0] ──┐
//!   Snapshot     ├──► [shard worker 1] ──┼──► [aggregator] ──► reports
//!  (broadcast)   └──► [shard worker k] ──┘     │
//!                                              └─► alarms, stats, manifest
//! ```
//!
//! Pair models are partitioned once at startup ([`ShardRouter`]); every
//! snapshot is broadcast to every shard because each shard must see every
//! instant to keep its pair trajectories (and gap-reset behaviour)
//! identical to an unsharded [`DetectionEngine`]. Each worker scores its
//! slice with [`DetectionEngine::step_scores`]; the aggregator merges the
//! disjoint partial [`ScoreBoard`]s ([`ScoreBoard::merge`] is exact — the
//! three-level aggregation is a pure function of the pair-score map) and
//! runs the single [`AlarmTracker`] over the merged board, so under the
//! lossless [`BackpressurePolicy::Block`] policy the stream of
//! [`StepReport`]s is bit-identical to `DetectionEngine::step`.
//!
//! # Ordering and correctness notes
//!
//! * `submit(&mut self)` makes the ingestion front single-producer, so
//!   sequence numbers are assigned in submission order and queue lengths
//!   can only shrink underneath it.
//! * Every accepted sequence number reaches every shard and receives
//!   exactly one scored board per shard; load is only ever shed before a
//!   sequence number exists ([`BackpressurePolicy::Reject`]), so every
//!   report is a complete board. The aggregator finalizes sequence
//!   numbers strictly in order, releasing a report as soon as the lowest
//!   outstanding one is fully replied.
//! * A checkpoint is a barrier: the caller announces the cut to the
//!   aggregator, pushes a marker through every shard queue, and blocks
//!   until the aggregator has merged every pre-cut step and written the
//!   manifest. Channel FIFO order guarantees every pre-cut reply is
//!   consumed before the last marker reply, so the manifest's tracker
//!   state is exactly the post-cut state.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gridwatch_sync::channel::{self, Receiver, Sender, TrySendError};

use gridwatch_detect::{
    AlarmTracker, DetectionEngine, EngineSnapshot, ScoreBoard, Snapshot, StepReport,
};
use gridwatch_obs::{BurnSample, FlightRecorder, PipelineObs, SpanSlice, Stage};
use gridwatch_sync::{may_block, LeafMutex};

use crate::checkpoint::{CheckpointError, CheckpointManifest, Checkpointer};
use crate::ingest::BackpressurePolicy;
use crate::merge::{Cut, StepMerger, Tally};
use crate::router::ShardRouter;
use crate::stats::{NetStats, ServeStats};

/// Configuration of the serving layer (the detection semantics live in
/// the wrapped engine's [`gridwatch_detect::EngineConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of shard worker threads the pair models are split across.
    pub shards: usize,
    /// Bounded capacity of each shard's snapshot queue.
    pub queue_capacity: usize,
    /// What the ingestion front does when a queue is full.
    pub backpressure: BackpressurePolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            queue_capacity: 64,
            backpressure: BackpressurePolicy::Block,
        }
    }
}

/// Work sent to a shard worker.
enum ShardMsg {
    /// Score this snapshot against the shard's pair models.
    Snapshot { seq: u64, snap: Arc<Snapshot> },
    /// Checkpoint barrier marker: persist the shard's state now.
    Checkpoint { id: u64, dir: PathBuf },
}

/// Everything the aggregator consumes (worker replies and ingestion-side
/// control messages share one channel so their relative order is the
/// order they were pushed).
enum ShardReply {
    /// One shard's scored step for one sequence number.
    Scores {
        shard: usize,
        seq: u64,
        step: ScoredStep,
    },
    /// A checkpoint was requested.
    CheckpointBegin(Cut<CheckpointError>),
    /// One shard finished writing its checkpoint file.
    CheckpointFile {
        shard: usize,
        id: u64,
        result: Result<String, CheckpointError>,
    },
}

/// What scoring one snapshot on one shard produced. The in-process
/// worker replies with all of it; a fabric worker ships the board and
/// the wall time upstream and has nowhere to send the rest.
pub(crate) struct ScoredStep {
    /// The shard's partial board (one score per owned pair).
    pub(crate) board: ScoreBoard,
    /// Wall-clock nanoseconds `step_scores` took.
    pub(crate) elapsed_ns: u64,
    /// Pair-model rebuilds the shard's drift layer fired while
    /// scoring this snapshot (0 when the drift layer is off).
    pub(crate) rebuilds: u64,
}

/// A running sharded detection engine. Built with
/// [`ShardedEngine::start`], fed with [`ShardedEngine::submit`], torn
/// down with [`ShardedEngine::shutdown`] (which drains and returns every
/// remaining report).
///
/// Dropping the engine without calling `shutdown` is safe — the worker
/// and aggregator threads notice their channels disconnecting and exit —
/// but any unread reports are lost.
pub struct ShardedEngine {
    config: ServeConfig,
    shard_senders: Vec<Sender<ShardMsg>>,
    reply_sender: Sender<ShardReply>,
    reports_rx: Receiver<StepReport>,
    /// The live stats document, the observability handles, and receiver
    /// clones of the shard queues for live depths.
    probe: StatsProbe,
    next_seq: u64,
    next_ckpt_id: u64,
    workers: Vec<JoinHandle<()>>,
    aggregator: JoinHandle<()>,
}

impl std::fmt::Debug for ShardMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardMsg::Snapshot { seq, .. } => write!(f, "Snapshot(seq {seq})"),
            ShardMsg::Checkpoint { id, .. } => write!(f, "Checkpoint(id {id})"),
        }
    }
}

impl std::fmt::Debug for ShardReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardReply::Scores { shard, seq, .. } => {
                write!(f, "Scores(shard {shard}, seq {seq})")
            }
            ShardReply::CheckpointBegin(cut) => {
                write!(f, "CheckpointBegin(id {}, cut {})", cut.id, cut.cut_seq)
            }
            ShardReply::CheckpointFile { shard, id, .. } => {
                write!(f, "CheckpointFile(shard {shard}, id {id})")
            }
        }
    }
}

impl ShardedEngine {
    /// Starts workers and aggregator from a trained engine's persisted
    /// state (see [`DetectionEngine::snapshot`]): pair models are
    /// partitioned across `config.shards` shards by [`ShardRouter`], and
    /// the snapshot's alarm tracker seeds the aggregator so alarm
    /// debouncing continues where the source engine left off.
    ///
    /// # Panics
    ///
    /// Panics when `config.shards` or `config.queue_capacity` is zero,
    /// or when a thread cannot be spawned.
    pub fn start(snapshot: EngineSnapshot, config: ServeConfig) -> Self {
        ShardedEngine::start_with_obs(snapshot, config, PipelineObs::disabled())
    }

    /// [`ShardedEngine::start`] with explicit observability handles:
    /// the tracer times the `route → score → merge → report` stages
    /// (when enabled) and the flight recorder captures checkpoint and
    /// alarm events regardless.
    ///
    /// # Panics
    ///
    /// Same as [`ShardedEngine::start`].
    pub fn start_with_obs(snapshot: EngineSnapshot, config: ServeConfig, obs: PipelineObs) -> Self {
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let engine_config = snapshot.config;
        let router = ShardRouter::new(config.shards);
        let partitions = router.partition(snapshot.models);

        let mut live = ServeStats::new(config.shards);
        for (k, part) in partitions.iter().enumerate() {
            live.shards[k].pairs = part.len();
        }
        let stats = Arc::new(LeafMutex::new(live));

        #[expect(clippy::disallowed_methods, reason = "bounded by the submit queues")]
        let (reply_tx, reply_rx) = channel::unbounded::<ShardReply>();
        #[expect(clippy::disallowed_methods, reason = "bounded by the submit queues")]
        let (reports_tx, reports_rx) = channel::unbounded::<StepReport>();

        let mut shard_senders = Vec::with_capacity(config.shards);
        let mut queue_readers = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for (k, part) in partitions.into_iter().enumerate() {
            let (tx, rx) = channel::bounded::<ShardMsg>(config.queue_capacity);
            queue_readers.push(rx.clone());
            shard_senders.push(tx);
            let reply = reply_tx.clone();
            let state = EngineSnapshot {
                config: engine_config,
                models: part,
                tracker: AlarmTracker::new(),
            };
            let engine = shard_engine(state, obs.recorder.clone());
            #[expect(clippy::expect_used, reason = "the engine needs its threads")]
            workers.push(
                std::thread::Builder::new()
                    .name(format!("gw-shard-{k}"))
                    .spawn(move || worker_loop(k, engine, rx, reply))
                    .expect("spawn shard worker"),
            );
        }

        let agg_stats = Arc::clone(&stats);
        let agg_obs = obs.clone();
        let tally_stats = Arc::clone(&stats);
        let merger = StepMerger::new(
            config.shards,
            engine_config,
            snapshot.tracker,
            0,
            reports_tx,
            obs.clone(),
            "aggregator",
            move |tally| {
                let mut live = tally_stats.lock();
                match tally {
                    Tally::Report { alarms } => {
                        live.reports += 1;
                        live.alarms += alarms as u64;
                    }
                    Tally::Checkpoint => live.checkpoints += 1,
                    // Each worker answers each sequence number once and
                    // shards own disjoint pairs, so none of these can
                    // arise in-process; `ServeStats` has no field for
                    // them.
                    Tally::Duplicate | Tally::Replayed | Tally::Bad => {}
                }
            },
        );
        #[expect(clippy::expect_used, reason = "the engine needs its threads")]
        let aggregator = std::thread::Builder::new()
            .name("gw-aggregate".to_string())
            .spawn(move || aggregator_loop(merger, reply_rx, agg_stats, agg_obs))
            .expect("spawn aggregator");

        ShardedEngine {
            config,
            shard_senders,
            reply_sender: reply_tx,
            reports_rx,
            probe: StatsProbe {
                stats,
                queues: queue_readers,
                obs,
                queue_capacity: config.queue_capacity,
                net: None,
            },
            next_seq: 0,
            next_ckpt_id: 0,
            workers,
            aggregator,
        }
    }

    /// The serving configuration.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// The number of shard workers.
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// Submits one snapshot to every shard, applying the configured
    /// backpressure policy. Returns the snapshot's sequence number, or
    /// `None` when [`BackpressurePolicy::Reject`] refused it.
    ///
    /// Takes `&mut self` deliberately: a single-producer ingestion front
    /// is what makes sequence numbering and the `Reject` pre-check
    /// race-free.
    pub fn submit(&mut self, snapshot: Snapshot) -> Option<u64> {
        self.submit_traced(snapshot, "local", &[])
    }

    /// [`ShardedEngine::submit`] with trace-context attribution: the
    /// snapshot's exemplar trace (when capture is enabled) is opened
    /// under `source`, seeded with `wire_spans` collected upstream
    /// (ingest/decode/sequence slices from a network listener or a
    /// fabric worker), and completed by the aggregator as the snapshot
    /// crosses score → merge → report. Front stages missing from
    /// `wire_spans` are synthesized as zero-duration slices so every
    /// retained trace covers all seven stages.
    pub fn submit_traced(
        &mut self,
        snapshot: Snapshot,
        source: &str,
        wire_spans: &[SpanSlice],
    ) -> Option<u64> {
        // Clone the handles so the span's borrow does not pin `self`.
        let obs = self.probe.obs.clone();
        let at_secs = snapshot.at().as_secs();
        let route = obs.span(Stage::Route);
        // Routing ends at admission, and the trace is complete up to it
        // before the first queue send: a fast shard's slices must find
        // it open. A rejected snapshot has no trace to file the span
        // under; dropping it unfinished still times the stage.
        self.submit_inner(snapshot, |seq| {
            if obs.exemplar.is_enabled() {
                obs.exemplar.open(seq, source, at_secs);
                for stage in [Stage::Ingest, Stage::Decode, Stage::Sequence] {
                    if !wire_spans.iter().any(|s| s.stage == stage.name()) {
                        let slice = SpanSlice::new(stage, route.start_ns(), 0, source);
                        obs.exemplar.record(seq, slice);
                    }
                }
                obs.exemplar.record_slices(seq, wire_spans);
            }
            route.finish(seq, "ingest");
        })
    }

    /// Routes one snapshot. `admitted(seq)` runs once the snapshot has
    /// passed admission and holds its sequence number, before any shard
    /// queue sees it; a rejected snapshot never calls it.
    ///
    /// An admitted snapshot is broadcast to every shard, blocking on
    /// full queues. The submit is counted before the first send: a fast
    /// shard can emit the report before the loop ends. Each send tries
    /// the non-blocking path first so the (rare) blocked case can be
    /// timed: the wait is what the backpressure-wait distribution
    /// measures.
    fn submit_inner(&mut self, snapshot: Snapshot, admitted: impl FnOnce(u64)) -> Option<u64> {
        // Sample every queue's depth up front: the distribution feeds
        // capacity planning, and `Reject` reuses the same reading for
        // its admission check.
        let depths: Vec<usize> = self.shard_senders.iter().map(|tx| tx.len()).collect();
        // Single producer: if every queue has room now, the blocking
        // sends below cannot actually block.
        let (policy, cap) = (self.config.backpressure, self.config.queue_capacity);
        if policy == BackpressurePolicy::Reject && depths.iter().any(|&depth| depth >= cap) {
            self.count_submit(&depths, |live| live.rejected += 1);
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        admitted(seq);
        self.count_submit(&depths, |live| live.submitted += 1);
        let snap = Arc::new(snapshot);
        let mut waits: Vec<(usize, u64)> = Vec::new();
        for (k, tx) in self.shard_senders.iter().enumerate() {
            let msg = ShardMsg::Snapshot {
                seq,
                snap: Arc::clone(&snap),
            };
            match tx.try_send(msg) {
                Ok(()) => {}
                Err(TrySendError::Full(back)) => {
                    let blocked = Instant::now();
                    #[expect(clippy::expect_used, reason = "disconnected only by a panic")]
                    tx.send(back).expect("shard worker disconnected");
                    waits.push((k, blocked.elapsed().as_nanos() as u64));
                }
                #[expect(clippy::panic, reason = "disconnected only by a panic")]
                Err(TrySendError::Disconnected(_)) => panic!("shard worker disconnected"),
            }
        }
        if !waits.is_empty() {
            let mut live = self.probe.stats.lock();
            for (k, wait_ns) in waits {
                live.shards[k].backpressure_wait_ns.record(wait_ns);
            }
        }
        Some(seq)
    }

    /// Accounts one submit under a single lock of the live document:
    /// the queue depths it saw and what became of the snapshot.
    fn count_submit(&self, depths: &[usize], outcome: impl FnOnce(&mut ServeStats)) {
        let mut live = self.probe.stats.lock();
        for (shard, &depth) in live.shards.iter_mut().zip(depths) {
            shard.queue_depths.record(depth as u64);
        }
        outcome(&mut live);
    }

    /// Takes a consistent checkpoint of the whole engine into `dir`,
    /// blocking until every shard has persisted its state and the
    /// aggregator has written the manifest. Everything submitted before
    /// this call is reflected; nothing after.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created or any shard file or
    /// the manifest cannot be written; a failed checkpoint never writes
    /// a manifest, so the previous complete checkpoint (if any) stays
    /// recoverable.
    pub fn checkpoint(
        &mut self,
        dir: impl AsRef<Path>,
    ) -> Result<CheckpointManifest, CheckpointError> {
        self.checkpoint_with_sources(dir, BTreeMap::new())
    }

    /// [`ShardedEngine::checkpoint`], additionally recording per-source
    /// frame-sequencing progress in the manifest so a network listener's
    /// resume is atomic with the model state (see
    /// [`CheckpointManifest::sources`]).
    ///
    /// # Errors
    ///
    /// Same as [`ShardedEngine::checkpoint`].
    pub fn checkpoint_with_sources(
        &mut self,
        dir: impl AsRef<Path>,
        sources: BTreeMap<String, u64>,
    ) -> Result<CheckpointManifest, CheckpointError> {
        let dir = dir.as_ref().to_path_buf();
        Checkpointer::new(&dir).prepare()?;
        let id = self.next_ckpt_id;
        self.next_ckpt_id += 1;
        let (ack_tx, ack_rx) = channel::bounded(1);
        // Announce the cut to the aggregator first, then push a marker
        // through every shard queue. FIFO order per channel guarantees
        // the aggregator sees all pre-cut replies before the last
        // marker's reply.
        #[expect(clippy::expect_used, reason = "disconnected only by a panic")]
        self.reply_sender
            .send(ShardReply::CheckpointBegin(Cut {
                id,
                cut_seq: self.next_seq,
                dir: dir.clone(),
                sources,
                fabric_epoch: 0,
                remote: Vec::new(),
                ack: ack_tx,
            }))
            .expect("aggregator disconnected");
        for tx in &self.shard_senders {
            #[expect(clippy::expect_used, reason = "disconnected only by a panic")]
            tx.send(ShardMsg::Checkpoint {
                id,
                dir: dir.clone(),
            })
            .expect("shard worker disconnected");
        }
        #[expect(clippy::expect_used, reason = "disconnected only by a panic")]
        ack_rx.recv().expect("aggregator dropped checkpoint ack")
    }

    /// A merged report, if one is ready.
    pub fn try_recv_report(&self) -> Option<StepReport> {
        self.reports_rx.try_recv().ok()
    }

    /// Waits up to `timeout` for the next merged report.
    pub fn recv_report_timeout(&self, timeout: Duration) -> Option<StepReport> {
        self.reports_rx.recv_timeout(timeout).ok()
    }

    /// A receiver clone of the merged-report channel, so the network
    /// listener can hand out reports while its ingest thread owns the
    /// engine. Each report is delivered to exactly one receiver.
    pub(crate) fn reports_receiver(&self) -> Receiver<StepReport> {
        self.reports_rx.clone()
    }

    /// Current serving statistics (counters plus live queue depths).
    pub fn stats(&self) -> ServeStats {
        self.probe.stats()
    }

    /// A shareable handle that reads [`ServeStats`] while another thread
    /// owns the engine (the network listener's ingest thread holds the
    /// `&mut` ingestion front; stats requests come from elsewhere).
    ///
    /// The probe holds receiver clones of the shard queues for live
    /// depths — receivers do not keep workers alive, so an outstanding
    /// probe never blocks [`ShardedEngine::shutdown`].
    pub fn stats_probe(&self) -> StatsProbe {
        self.probe.clone()
    }

    /// The engine's observability handles (shared with its threads).
    pub fn obs(&self) -> &PipelineObs {
        &self.probe.obs
    }

    /// Stops the engine: lets every shard drain its queue, joins all
    /// threads, and returns the remaining unread reports plus final
    /// statistics.
    pub fn shutdown(self) -> (Vec<StepReport>, ServeStats) {
        let ShardedEngine {
            shard_senders,
            reply_sender,
            reports_rx,
            probe,
            workers,
            aggregator,
            ..
        } = self;
        // Disconnect the shard queues; workers drain what is left and
        // exit, dropping their reply senders. (The probe's receiver
        // clones do not keep a queue connected.)
        drop(shard_senders);
        for worker in workers {
            may_block();
            #[expect(clippy::expect_used, reason = "a join error re-raises a panic")]
            worker.join().expect("shard worker panicked");
        }
        // Now ours is the last reply sender: dropping it stops the
        // aggregator once it has merged everything.
        drop(reply_sender);
        may_block();
        #[expect(clippy::expect_used, reason = "a join error re-raises a panic")]
        aggregator.join().expect("aggregator panicked");
        let mut reports = Vec::new();
        while let Ok(report) = reports_rx.try_recv() {
            reports.push(report);
        }
        // Every queue is drained, so the live depths all read zero.
        (reports, probe.stats())
    }
}

/// A read-only view of a running engine's statistics, detachable from
/// the engine's owner thread (see [`ShardedEngine::stats_probe`]).
#[derive(Clone)]
pub struct StatsProbe {
    stats: Arc<LeafMutex<ServeStats>>,
    queues: Vec<Receiver<ShardMsg>>,
    obs: PipelineObs,
    queue_capacity: usize,
    /// The wire-path counters of the listener in front of the engine;
    /// `None` when snapshots arrive by `submit` alone.
    pub(crate) net: Option<Arc<LeafMutex<NetStats>>>,
}

impl StatsProbe {
    /// Current serving statistics: the counters, live queue depths,
    /// the flight recorder's overflow count and, behind a listener,
    /// the wire-path counters. Every stats document the engine, a
    /// probe or a listener hands out is built here.
    pub fn stats(&self) -> ServeStats {
        let depths: Vec<usize> = self.queues.iter().map(|rx| rx.len()).collect();
        // Read before locking: no lock is ever taken under the stats lock.
        let flight_dropped = self.obs.recorder.dropped();
        let mut stats = self.stats.lock().snapshot(&depths, flight_dropped);
        if let Some(net) = &self.net {
            stats.net = net.lock().clone();
        }
        stats
    }

    /// One cumulative burn-rate sample: the counters plus the tracer's
    /// per-stage histograms. Fed to [`gridwatch_obs::BurnGauges::observe`]
    /// at scrape cadence; the gauge layer differences consecutive
    /// samples per window.
    pub fn burn_sample(&self) -> BurnSample {
        let stats = self.stats();
        BurnSample {
            decode_errors: stats.net.decode_errors,
            sequence_errors: stats.net.gap_skips,
            submitted: stats.submitted,
            rejected: stats.rejected,
            stages: self.obs.tracer.snapshot(),
        }
    }

    /// The structural half of the health document: per-shard queue
    /// occupancy and liveness, admission coverage, and the alarm total.
    /// Callers layer on deployment state (checkpoint age, WAL lag,
    /// alarm deltas) before serving it from `/healthz`.
    pub fn health_report(&self) -> gridwatch_obs::HealthReport {
        let stats = self.stats();
        let mut report = gridwatch_obs::HealthReport {
            coverage_ppm: (stats.coverage_fraction * 1_000_000.0) as u64,
            alarms: stats.alarms,
            ..Default::default()
        };
        for shard in &stats.shards {
            let live = self.queue_capacity == 0 || shard.queue_depth < self.queue_capacity;
            report.shards.push(gridwatch_obs::ShardHealth {
                shard: shard.shard as u64,
                live,
                queue_depth: shard.queue_depth as u64,
                queue_capacity: self.queue_capacity as u64,
            });
            if !live {
                report.degrade(format!("shard {} queue at capacity", shard.shard));
            }
        }
        report
    }

    /// The engine's observability handles (shared, not a copy).
    pub fn obs(&self) -> &PipelineObs {
        &self.obs
    }

    /// The current stats plus stage spans as Prometheus exposition
    /// text — what a `GET /metrics` scrape of this engine returns.
    pub fn to_prometheus(&self) -> String {
        self.stats().to_prometheus(&self.obs.tracer)
    }
}

impl std::fmt::Debug for StatsProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StatsProbe({} shards)", self.queues.len())
    }
}

/// Builds the engine one shard scores with, in-process or in a fabric
/// worker, from the shard's slice of the model state.
pub(crate) fn shard_engine(state: EngineSnapshot, recorder: FlightRecorder) -> DetectionEngine {
    let mut engine = DetectionEngine::from_snapshot(EngineSnapshot {
        // Alarms are evaluated once, on the merged board.
        tracker: AlarmTracker::new(),
        ..state
    });
    // Shard engines share the flight recorder so drift-layer rebuild
    // events land in the same ring as alarms and checkpoints (and flow
    // to the history store from there).
    engine.attach_recorder(recorder);
    engine
}

/// The one shard step: scores `snap` against the shard's slice of the
/// pair models and drains what the step left behind.
pub(crate) fn score_step(engine: &mut DetectionEngine, snap: &Snapshot) -> ScoredStep {
    // Timed unconditionally: the wall time feeds the per-shard latency
    // histogram (or rides the board frame upstream) even when the
    // tracer is off.
    let start = Instant::now();
    let board = engine.step_scores(snap);
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    // Drain drift-layer rebuilds fired by this step, every step, so
    // the engine's pending list stays bounded; the events themselves
    // already reached the flight recorder inside step_scores, so only
    // the count travels on.
    let rebuilds = engine.take_rebuild_events().len() as u64;
    ScoredStep {
        board,
        elapsed_ns,
        rebuilds,
    }
}

/// One shard worker: scores snapshots against its slice of the pair
/// models, persists its state on checkpoint markers.
fn worker_loop(
    shard: usize,
    mut engine: DetectionEngine,
    rx: Receiver<ShardMsg>,
    reply: Sender<ShardReply>,
) {
    while let Ok(msg) = rx.recv() {
        let answer = match msg {
            ShardMsg::Snapshot { seq, snap } => ShardReply::Scores {
                shard,
                seq,
                step: score_step(&mut engine, &snap),
            },
            ShardMsg::Checkpoint { id, dir } => ShardReply::CheckpointFile {
                shard,
                id,
                result: Checkpointer::new(dir).write_shard(shard, &engine.snapshot()),
            },
        };
        if reply.send(answer).is_err() {
            break;
        }
    }
}

/// The aggregator: the in-process adapter over the [`StepMerger`]. It
/// owns the per-shard roll-ups (latency histograms, rebuild counts) and
/// hands everything else — merging, in-order finalization, alarms,
/// reports, manifests — to the merger.
fn aggregator_loop<T: FnMut(Tally)>(
    mut merger: StepMerger<CheckpointError, T>,
    reply_rx: Receiver<ShardReply>,
    stats: Arc<LeafMutex<ServeStats>>,
    obs: PipelineObs,
) {
    while let Ok(msg) = reply_rx.recv() {
        match msg {
            ShardReply::Scores { shard, seq, step } => {
                {
                    let mut live = stats.lock();
                    live.rebuilds += step.rebuilds;
                    live.shards[shard].observe_latency(step.elapsed_ns);
                }
                // The worker has no exemplar handle; attribute its
                // measured wall time here, anchored to the receive
                // instant (start ≈ now − elapsed on this timeline).
                let slice = obs.exemplar.ended_now(
                    Stage::Score,
                    step.elapsed_ns,
                    shard as u64,
                    format_args!("shard-{shard}"),
                );
                merger.offer(shard, seq, step.board, step.elapsed_ns, slice.as_slice());
            }
            ShardReply::CheckpointBegin(cut) => merger.begin_cut(cut),
            ShardReply::CheckpointFile { shard, id, result } => {
                merger.shard_file(shard, id, result)
            }
        }
        merger.advance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_detect::{AlarmPolicy, EngineConfig};
    use gridwatch_timeseries::{
        MachineId, MeasurementId, MeasurementPair, MetricKind, PairSeries, Timestamp,
    };

    fn id(machine: u32, tag: u16) -> MeasurementId {
        MeasurementId::new(MachineId::new(machine), MetricKind::Custom(tag))
    }

    const MEASUREMENTS: usize = 6;

    fn ids() -> Vec<MeasurementId> {
        (0..MEASUREMENTS as u32)
            .map(|m| id(m / 2, (m % 2) as u16))
            .collect()
    }

    fn value(m: usize, k: u64) -> f64 {
        let load = (k % 48) as f64;
        (m as f64 + 1.0) * load + 5.0 * m as f64
    }

    /// Trains all 15 pairs over 6 linearly-coupled measurements.
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
                    (0..400u64).map(|k| (k * 360, value(i, k), value(j, k))),
                )
                .unwrap();
                pairs.push((pair, history));
            }
        }
        DetectionEngine::train(pairs, config).unwrap().snapshot()
    }

    /// A trace that runs healthy, then breaks measurement 5 for a
    /// stretch (long enough to trip the 2-consecutive alarm debounce),
    /// then recovers.
    fn trace(steps: u64) -> Vec<Snapshot> {
        let ids = ids();
        (0..steps)
            .map(|k| {
                let mut snap = Snapshot::new(Timestamp::from_secs((400 + k) * 360));
                for (m, &mid) in ids.iter().enumerate() {
                    let v = if m == MEASUREMENTS - 1 && (8..16).contains(&k) {
                        -200.0
                    } else {
                        value(m, k)
                    };
                    snap.insert(mid, v);
                }
                snap
            })
            .collect()
    }

    fn reference_reports(snapshot: EngineSnapshot, trace: &[Snapshot]) -> Vec<StepReport> {
        let mut engine = DetectionEngine::from_snapshot(snapshot);
        trace.iter().map(|s| engine.step(s)).collect()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gridwatch-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn block_policy_is_bitwise_identical_to_unsharded() {
        let snapshot = trained();
        let trace = trace(24);
        let want = reference_reports(snapshot.clone(), &trace);
        assert!(
            want.iter().any(|r| !r.alarms.is_empty()),
            "trace must exercise alarms for the comparison to mean anything"
        );
        for shards in [1, 2, 4] {
            let mut engine = ShardedEngine::start(
                snapshot.clone(),
                ServeConfig {
                    shards,
                    queue_capacity: 4,
                    backpressure: BackpressurePolicy::Block,
                },
            );
            for snap in &trace {
                assert!(engine.submit(snap.clone()).is_some());
            }
            let (reports, stats) = engine.shutdown();
            assert_eq!(reports, want, "{shards} shards");
            assert_eq!(stats.submitted, trace.len() as u64);
            assert_eq!(stats.reports, trace.len() as u64);
            assert_eq!(stats.rejected, 0);
        }
    }

    #[test]
    fn reports_can_be_consumed_while_streaming() {
        let snapshot = trained();
        let trace = trace(12);
        let want = reference_reports(snapshot.clone(), &trace);
        let mut engine = ShardedEngine::start(
            snapshot,
            ServeConfig {
                shards: 2,
                queue_capacity: 4,
                backpressure: BackpressurePolicy::Block,
            },
        );
        let mut streamed = Vec::new();
        for snap in &trace {
            engine.submit(snap.clone());
            while let Some(report) = engine.try_recv_report() {
                streamed.push(report);
            }
        }
        while streamed.len() < trace.len() {
            streamed.push(
                engine
                    .recv_report_timeout(Duration::from_secs(5))
                    .expect("report within timeout"),
            );
        }
        let (rest, _) = engine.shutdown();
        assert!(rest.is_empty());
        assert_eq!(streamed, want);
    }

    #[test]
    fn checkpoint_matches_unsharded_engine_state() {
        let snapshot = trained();
        let trace = trace(20);
        let mut reference = DetectionEngine::from_snapshot(snapshot.clone());
        let mut engine = ShardedEngine::start(
            snapshot,
            ServeConfig {
                shards: 3,
                queue_capacity: 8,
                backpressure: BackpressurePolicy::Block,
            },
        );
        for snap in &trace {
            reference.step(snap);
            engine.submit(snap.clone());
        }
        let dir = scratch_dir("ckpt-exact");
        let manifest = engine.checkpoint(&dir).unwrap();
        assert_eq!(manifest.cut_seq, trace.len() as u64);
        assert_eq!(manifest.shards, 3);

        let (recovered, _) = Checkpointer::new(&dir).recover().unwrap();
        assert_eq!(recovered, reference.snapshot());

        let (_, stats) = engine.shutdown();
        assert_eq!(stats.checkpoints, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serving_continues_after_checkpoint() {
        let snapshot = trained();
        let trace = trace(24);
        let want = reference_reports(snapshot.clone(), &trace);
        let mut engine = ShardedEngine::start(
            snapshot,
            ServeConfig {
                shards: 2,
                queue_capacity: 4,
                backpressure: BackpressurePolicy::Block,
            },
        );
        let dir = scratch_dir("ckpt-continue");
        for (k, snap) in trace.iter().enumerate() {
            if k == 10 {
                engine.checkpoint(&dir).unwrap();
            }
            engine.submit(snap.clone());
        }
        let (reports, _) = engine.shutdown();
        assert_eq!(reports, want, "a checkpoint must not perturb the stream");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reject_keeps_accepted_stream_consistent() {
        let snapshot = trained();
        let trace = trace(200);
        let mut engine = ShardedEngine::start(
            snapshot.clone(),
            ServeConfig {
                shards: 2,
                queue_capacity: 1,
                backpressure: BackpressurePolicy::Reject,
            },
        );
        let mut accepted = Vec::new();
        for snap in &trace {
            if let Some(seq) = engine.submit(snap.clone()) {
                assert_eq!(seq, accepted.len() as u64, "accepted seqs are dense");
                accepted.push(snap.clone());
            }
        }
        let probe = engine.stats_probe();
        let (reports, stats) = engine.shutdown();
        assert!(
            stats.rejected > 0,
            "a one-slot queue must refuse part of a tight submit loop"
        );
        assert_eq!(stats.submitted, accepted.len() as u64);
        assert_eq!(stats.submitted + stats.rejected, trace.len() as u64);
        // A rejected snapshot reaches no shard, so the stream is exactly
        // an unsharded engine stepped over the accepted snapshots.
        assert_eq!(reports, reference_reports(snapshot, &accepted));
        // Coverage counts the refusals: it is the accepted share, and
        // the health document agrees with the stats.
        let offered = stats.submitted + stats.rejected;
        let want = stats.submitted as f64 / offered as f64;
        assert!(stats.coverage_fraction < 1.0);
        assert!(
            (stats.coverage_fraction - want).abs() < 1e-12,
            "coverage {} vs {want}",
            stats.coverage_fraction
        );
        assert_eq!(
            probe.health_report().coverage_ppm,
            (stats.coverage_fraction * 1_000_000.0) as u64
        );
    }

    #[test]
    fn stats_expose_shard_work() {
        let snapshot = trained();
        let trace = trace(10);
        let mut engine = ShardedEngine::start(
            snapshot,
            ServeConfig {
                shards: 4,
                queue_capacity: 8,
                backpressure: BackpressurePolicy::Block,
            },
        );
        for snap in &trace {
            engine.submit(snap.clone());
        }
        let (_, stats) = engine.shutdown();
        assert_eq!(stats.shards.len(), 4);
        assert_eq!(stats.shards.iter().map(|s| s.pairs).sum::<usize>(), 15);
        for shard in &stats.shards {
            assert_eq!(shard.processed, trace.len() as u64);
            assert_eq!(shard.latency.count, shard.processed);
            assert!(shard.latency.min <= shard.latency.mean());
            assert!(shard.latency.mean() <= shard.latency.max);
            assert!(shard.latency.p50() <= shard.latency.p999());
            // Queue depth is sampled once per submit, per shard.
            assert_eq!(shard.queue_depths.count, stats.submitted);
        }
        let json = stats.to_json();
        assert!(json.contains("\"processed\""), "{json}");
    }

    #[test]
    fn enabled_tracer_times_every_stage_it_owns() {
        let snapshot = trained();
        let trace = trace(10);
        let obs = gridwatch_obs::PipelineObs::enabled();
        let mut engine = ShardedEngine::start_with_obs(
            snapshot,
            ServeConfig {
                shards: 2,
                queue_capacity: 4,
                backpressure: BackpressurePolicy::Block,
            },
            obs.clone(),
        );
        for snap in &trace {
            engine.submit(snap.clone());
        }
        let probe = engine.stats_probe();
        let (_, stats) = engine.shutdown();
        let n = trace.len() as u64;
        assert_eq!(obs.tracer.stage(Stage::Route).count, n);
        // One Score sample per (shard, snapshot) reply.
        assert_eq!(obs.tracer.stage(Stage::Score).count, 2 * n);
        assert_eq!(obs.tracer.stage(Stage::Merge).count, 2 * n);
        assert_eq!(obs.tracer.stage(Stage::Report).count, n);
        // Alarms landed in the flight recorder (the trace trips them).
        assert!(stats.alarms > 0);
        assert!(
            obs.recorder.snapshot().iter().any(|e| e.kind == "alarm"),
            "{:?}",
            obs.recorder.snapshot()
        );
        // The probe renders a parseable scrape including stage spans.
        let text = probe.to_prometheus();
        assert!(
            text.contains("gridwatch_stage_ns_count{stage=\"route\"}"),
            "{text}"
        );
        assert!(gridwatch_obs::parse_exposition(&text).is_some());
    }

    #[test]
    fn exemplar_capture_retains_alarmed_traces_with_all_seven_stages() {
        let snapshot = trained();
        let trace = trace(24);
        let obs = gridwatch_obs::PipelineObs {
            exemplar: gridwatch_obs::ExemplarTracer::enabled(gridwatch_obs::ExemplarConfig {
                ring_capacity: 64,
                ..Default::default()
            }),
            ..Default::default()
        };
        let want = reference_reports(snapshot.clone(), &trace);
        let alarmed_seqs: Vec<u64> = want
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.alarms.is_empty())
            .map(|(k, _)| k as u64)
            .collect();
        assert!(!alarmed_seqs.is_empty(), "trace must trip alarms");

        let mut engine = ShardedEngine::start_with_obs(
            snapshot,
            ServeConfig {
                shards: 2,
                queue_capacity: 4,
                backpressure: BackpressurePolicy::Block,
            },
            obs.clone(),
        );
        for snap in &trace {
            engine.submit(snap.clone());
        }
        let (reports, _) = engine.shutdown();
        assert_eq!(reports, want, "exemplar capture must not perturb reports");

        // Tail sampling: exactly the alarmed snapshots are retained.
        let (_, exemplars) = obs.exemplar.snapshot_indexed();
        let got_seqs: Vec<u64> = exemplars.iter().map(|t| t.seq).collect();
        assert_eq!(got_seqs, alarmed_seqs);
        for trace in &exemplars {
            assert!(trace.alarmed);
            assert_eq!(trace.source, "local");
            // Every retained trace covers all seven pipeline stages.
            for stage in Stage::ALL {
                assert!(
                    trace.spans.iter().any(|s| s.stage == stage.name()),
                    "seq {} missing {} in {:?}",
                    trace.seq,
                    stage.name(),
                    trace.spans
                );
            }
            // Score slices carry shard attribution (one per shard).
            let scored: Vec<_> = trace.spans.iter().filter(|s| s.stage == "score").collect();
            assert_eq!(scored.len(), 2);
            assert!(scored.iter().all(|s| s.shard.is_some()));
        }
        // The exemplar layer never touches the aggregate tracer.
        for (_, hist) in obs.tracer.snapshot() {
            assert_eq!(hist.count, 0);
        }
    }

    /// Traces open only for admitted snapshots: with a rejecting
    /// one-slot queue, every seq the engine handed out is retained whole
    /// (head sampling keeps all), and nothing is left pending for a
    /// snapshot that was rejected.
    #[test]
    fn shed_and_rejected_snapshots_leave_no_pending_trace() {
        let snapshot = trained();
        let trace = trace(48);
        let obs = gridwatch_obs::PipelineObs {
            exemplar: gridwatch_obs::ExemplarTracer::enabled(gridwatch_obs::ExemplarConfig {
                ring_capacity: 64,
                head_sample_every: 1,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut engine = ShardedEngine::start_with_obs(
            snapshot,
            ServeConfig {
                shards: 2,
                queue_capacity: 1,
                backpressure: BackpressurePolicy::Reject,
            },
            obs.clone(),
        );
        let admitted: Vec<u64> = trace
            .iter()
            .filter_map(|snap| engine.submit(snap.clone()))
            .collect();
        engine.shutdown();
        assert_eq!(obs.exemplar.pending(), 0);
        let (_, exemplars) = obs.exemplar.snapshot_indexed();
        let retained: Vec<u64> = exemplars.iter().map(|t| t.seq).collect();
        assert_eq!(retained, admitted);
        for trace in &exemplars {
            for stage in Stage::ALL {
                assert!(trace.spans.iter().any(|s| s.stage == stage.name()));
            }
        }
    }

    #[test]
    fn every_stats_reader_reports_the_flight_ring_overflow() {
        let snapshot = trained();
        let trace = trace(24);
        // A two-slot ring, so a handful of events overflow it.
        let obs = gridwatch_obs::PipelineObs {
            recorder: FlightRecorder::new(2),
            ..Default::default()
        };
        let mut engine = ShardedEngine::start_with_obs(
            snapshot,
            ServeConfig {
                shards: 2,
                queue_capacity: 4,
                backpressure: BackpressurePolicy::Block,
            },
            obs.clone(),
        );
        for snap in &trace {
            engine.submit(snap.clone());
        }
        // Every report out means every pipeline event is recorded.
        for _ in &trace {
            engine
                .recv_report_timeout(Duration::from_secs(5))
                .expect("report within timeout");
        }
        for k in 0..8 {
            obs.recorder.record("test", format_args!("event {k}"));
        }
        let dropped = obs.recorder.dropped();
        assert!(dropped > 0, "the ring must have overflowed");
        let probe = engine.stats_probe();
        // One snapshot function behind all three readers: the stats
        // file (`stats()` / `shutdown()`) and `/metrics` (the probe)
        // cannot disagree.
        assert_eq!(engine.stats().flight_dropped, dropped);
        assert_eq!(probe.stats().flight_dropped, dropped);
        assert_eq!(engine.shutdown().1.flight_dropped, dropped);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_counters_still_flow() {
        let snapshot = trained();
        let trace = trace(6);
        let mut engine = ShardedEngine::start(
            snapshot,
            ServeConfig {
                shards: 2,
                queue_capacity: 4,
                backpressure: BackpressurePolicy::Block,
            },
        );
        for snap in &trace {
            engine.submit(snap.clone());
        }
        let obs = engine.obs().clone();
        let (_, stats) = engine.shutdown();
        for (_, hist) in obs.tracer.snapshot() {
            assert_eq!(hist.count, 0);
        }
        // Per-shard latency histograms fill regardless of tracing.
        assert_eq!(stats.shards[0].latency.count, trace.len() as u64);
    }

    #[test]
    fn recovered_checkpoint_can_be_resharded() {
        let snapshot = trained();
        let trace = trace(24);
        let (head, tail) = trace.split_at(12);

        // Stream the head on 4 shards, checkpoint, tear down.
        let mut first = ShardedEngine::start(
            snapshot.clone(),
            ServeConfig {
                shards: 4,
                queue_capacity: 8,
                backpressure: BackpressurePolicy::Block,
            },
        );
        for snap in head {
            first.submit(snap.clone());
        }
        let dir = scratch_dir("reshard");
        first.checkpoint(&dir).unwrap();
        first.shutdown();

        // Recover onto 2 shards and stream the tail.
        let (recovered, manifest) = Checkpointer::new(&dir).recover().unwrap();
        assert_eq!(manifest.cut_seq, head.len() as u64);
        let mut second = ShardedEngine::start(
            recovered,
            ServeConfig {
                shards: 2,
                queue_capacity: 8,
                backpressure: BackpressurePolicy::Block,
            },
        );
        for snap in tail {
            second.submit(snap.clone());
        }
        let (got, _) = second.shutdown();

        // Must match an uninterrupted unsharded run over the whole trace.
        let want = reference_reports(snapshot, &trace);
        assert_eq!(got, want[head.len()..]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
