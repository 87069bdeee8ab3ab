//! The coordinator half of the multi-node shard fabric.
//!
//! A [`Coordinator`] owns the full trained model set, partitions it
//! across remote [`ShardWorker`](crate::remote::ShardWorker) processes
//! with the same [`ShardRouter`] placement the in-process
//! `ShardedEngine` uses, fans every submitted snapshot out to all live
//! workers, and merges the partial [`BoardFrame`]s that stream back
//! into in-order [`StepReport`]s — **bit-identical** to what a
//! single-process `ShardedEngine` (or an unsharded engine) would emit,
//! because each worker scores with the same deterministic
//! `step_scores` over the same model slice and alarms are evaluated on
//! the merged board by one tracker, exactly as the in-process
//! aggregator does.
//!
//! # Epoch fencing
//!
//! Every worker attachment gets a fresh *fabric epoch* from one
//! monotonic counter, so an (shard, epoch) pair is globally unique
//! across the fabric's lifetime. Workers stamp every board with their
//! assigned epoch; the merge thread drops any board whose epoch is not
//! the shard's current one (or whose shard is not live). After a
//! migration, a partitioned-but-alive predecessor can keep sending
//! boards forever — they are all fenced, never merged, so a stale
//! worker cannot corrupt the report stream.
//!
//! # Migration
//!
//! The coordinator keeps a journal of submitted snapshots since the
//! last checkpoint cut, and a per-shard state cache (the shard's
//! `EngineSnapshot` as of that cut, refreshed on every checkpoint).
//! When a worker dies, [`Coordinator::attach_worker`] hands a
//! successor the cached state plus a journal replay; determinism of
//! `step_scores` means the successor regenerates byte-identical boards
//! for any steps the predecessor had already answered, and the merge
//! thread's per-(seq, shard) dedup absorbs the overlap.

use std::collections::{BTreeMap, VecDeque};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use gridwatch_sync::channel::{self, Receiver, Sender};
use gridwatch_sync::{may_block, LeafMutex};
use serde::{Deserialize, Serialize};

use gridwatch_detect::{AlarmTracker, EngineSnapshot, Snapshot, StepReport};
use gridwatch_obs::{Exposition, Metric, PipelineObs, SpanSlice, Stage};

use crate::checkpoint::{Checkpointer, RemoteShard};
use crate::merge::{Cut, StepMerger, Tally};
use crate::remote::{
    decode_response, encode_control, io_ctx, read_frame, write_frame, BoardFrame, FabricControl,
    FabricError, FabricResponse,
};
use crate::router::ShardRouter;
use crate::wire::{encode_json, WireFrame};

/// The `source` name stamped on snapshot frames the coordinator sends
/// to its workers.
pub const COORDINATOR_SOURCE: &str = "coordinator";

/// Tuning knobs for a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Capacity of the internal merge and report channels.
    pub channel_capacity: usize,
    /// The first snapshot sequence number (a resumed coordinator
    /// starts at the recovered manifest's `cut_seq`).
    pub start_seq: u64,
    /// Fabric epochs are allocated strictly above this base (a resumed
    /// coordinator passes the manifest's `fabric_epoch` so stale
    /// pre-crash assignments can never collide with new ones).
    pub epoch_base: u64,
    /// How long [`Coordinator::checkpoint`] waits for worker states.
    pub checkpoint_timeout: Duration,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            channel_capacity: 1024,
            start_seq: 0,
            epoch_base: 0,
            checkpoint_timeout: Duration::from_secs(30),
        }
    }
}

/// Lifetime counters of one coordinator.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricStats {
    /// Shards in the fabric.
    pub shards: usize,
    /// Snapshots submitted for scoring.
    pub submitted: u64,
    /// Step reports emitted.
    pub reports: u64,
    /// Alarm events raised across all reports.
    pub alarms: u64,
    /// Boards fenced off for carrying a superseded epoch or arriving
    /// from a shard declared dead.
    pub stale_boards: u64,
    /// Boards dropped because the (seq, shard) slot was already filled.
    pub duplicate_boards: u64,
    /// Boards dropped for scoring a step already emitted (migration
    /// replay overlap).
    pub replayed_boards: u64,
    /// Boards dropped as malformed (bad shard index, mismatched
    /// instant, overlapping pairs).
    pub bad_boards: u64,
    /// Worker connections lost (write failure, EOF, or declared dead).
    pub disconnects: u64,
    /// Successful worker re-attachments.
    pub migrations: u64,
    /// Checkpoints completed.
    pub checkpoints: u64,
}

/// The coordinator's `/metrics` document, in scrape order.
pub(crate) const FABRIC_METRICS: &[Metric<FabricStats>] = &[
    (
        "gridwatch_fabric_shards",
        "gauge",
        "Shards in the fabric",
        |s| s.shards as u64,
    ),
    (
        "gridwatch_fabric_submitted_total",
        "counter",
        "Snapshots submitted for scoring",
        |s| s.submitted,
    ),
    (
        "gridwatch_fabric_reports_total",
        "counter",
        "Step reports emitted",
        |s| s.reports,
    ),
    (
        "gridwatch_fabric_alarms_total",
        "counter",
        "Alarm events raised",
        |s| s.alarms,
    ),
    (
        "gridwatch_fabric_stale_boards_total",
        "counter",
        "Boards fenced for a superseded epoch or dead shard",
        |s| s.stale_boards,
    ),
    (
        "gridwatch_fabric_duplicate_boards_total",
        "counter",
        "Boards dropped as duplicates",
        |s| s.duplicate_boards,
    ),
    (
        "gridwatch_fabric_replayed_boards_total",
        "counter",
        "Boards dropped as migration replay overlap",
        |s| s.replayed_boards,
    ),
    (
        "gridwatch_fabric_bad_boards_total",
        "counter",
        "Boards dropped as malformed",
        |s| s.bad_boards,
    ),
    (
        "gridwatch_fabric_disconnects_total",
        "counter",
        "Worker connections lost",
        |s| s.disconnects,
    ),
    (
        "gridwatch_fabric_migrations_total",
        "counter",
        "Successful worker re-attachments",
        |s| s.migrations,
    ),
    (
        "gridwatch_fabric_checkpoints_total",
        "counter",
        "Checkpoints completed",
        |s| s.checkpoints,
    ),
];

/// Per-shard assignment published to the merge thread: which epoch is
/// current and whether the shard has a live worker.
#[derive(Debug)]
struct ShardSlot {
    epoch: u64,
    live: bool,
    addr: String,
}

type Slots = Arc<Vec<LeafMutex<ShardSlot>>>;

/// One entry of the per-shard state cache: the shard's engine state as
/// of snapshot sequence `cut` (exclusive).
#[derive(Debug, Clone)]
struct StateEntry {
    cut: u64,
    state: EngineSnapshot,
}

/// Messages from reader threads (and the front, for checkpoints) into
/// the merge thread.
enum CoordMsg {
    Board(BoardFrame),
    State {
        shard: usize,
        epoch: u64,
        id: u64,
        state: Box<EngineSnapshot>,
    },
    Disconnected {
        shard: usize,
        epoch: u64,
        /// EOF, the socket error, or the frame's decode error.
        why: String,
    },
    CheckpointBegin(Cut<FabricError>),
}

/// The coordinator of a multi-node shard fabric. Single-threaded front
/// API: `submit` snapshots, `recv` reports, `checkpoint`, and migrate
/// dead shards with `attach_worker`; readers and the merge run on
/// internal threads.
#[derive(Debug)]
pub struct Coordinator {
    shards: usize,
    fabric: FabricConfig,
    slots: Slots,
    /// Write halves of the current worker connections (front-owned).
    streams: Vec<Option<TcpStream>>,
    /// Write halves of superseded connections, kept open so a
    /// partitioned predecessor's reader keeps draining (and fencing)
    /// its boards; severed at shutdown to unblock those readers.
    zombies: Vec<TcpStream>,
    readers: Vec<JoinHandle<()>>,
    merge: Option<JoinHandle<()>>,
    merge_tx: Option<Sender<CoordMsg>>,
    reports_rx: Receiver<StepReport>,
    report_buffer: VecDeque<StepReport>,
    state_cache: Arc<LeafMutex<Vec<StateEntry>>>,
    stats: Arc<LeafMutex<FabricStats>>,
    closing: Arc<std::sync::atomic::AtomicBool>,
    journal: VecDeque<(u64, Snapshot)>,
    next_seq: u64,
    epoch_counter: u64,
    checkpoint_counter: u64,
    obs: PipelineObs,
}

/// A detachable handle rendering a live coordinator's counters and
/// stage distributions as Prometheus text exposition, for `--metrics`
/// scrapes while the front thread drives the fabric.
#[derive(Debug, Clone)]
pub struct CoordinatorMetricsProbe {
    stats: Arc<LeafMutex<FabricStats>>,
    slots: Slots,
    obs: PipelineObs,
}

impl CoordinatorMetricsProbe {
    /// A copy of the fabric's lifetime counters.
    pub fn stats(&self) -> FabricStats {
        *self.stats.lock()
    }

    /// The structural half of the `/healthz` document: per-shard
    /// fabric-session liveness and the alarm total. Time-dependent
    /// fields (checkpoint age, WAL lag, alarm deltas) are layered on
    /// by the caller, which owns the clocks.
    pub fn health_report(&self) -> gridwatch_obs::HealthReport {
        let stats = self.stats();
        let mut report = gridwatch_obs::HealthReport {
            alarms: stats.alarms,
            ..Default::default()
        };
        for (shard, slot) in self.slots.iter().enumerate() {
            let live = slot.lock().live;
            report.shards.push(gridwatch_obs::ShardHealth {
                shard: shard as u64,
                live,
                queue_depth: 0,
                queue_capacity: 0,
            });
            if !live {
                report.degrade(format!("shard {shard} has no live worker"));
            }
        }
        report
    }

    /// The scrape-time burn sample: malformed boards map onto the
    /// decode-error budget, fenced boards (stale epoch, duplicate
    /// slot, migration replay) onto the sequence-error budget.
    pub fn burn_sample(&self) -> gridwatch_obs::BurnSample {
        let s = self.stats();
        gridwatch_obs::BurnSample {
            decode_errors: s.bad_boards,
            sequence_errors: s.stale_boards + s.duplicate_boards + s.replayed_boards,
            submitted: s.submitted,
            rejected: 0,
            stages: self.obs.tracer.snapshot(),
        }
    }

    /// Renders the fabric counters and any recorded stage timings.
    pub fn to_prometheus(&self) -> String {
        let mut expo = Exposition::new();
        expo.scalars(FABRIC_METRICS, &[(None, &self.stats())]);
        self.obs.tracer.render_into(&mut expo);
        expo.finish()
    }
}

impl Coordinator {
    /// Partitions `snapshot`'s models across `workers` (one shard per
    /// address, placed by [`ShardRouter`]), performs the Hello
    /// handshake with each, and starts the merge pipeline.
    pub fn connect(
        snapshot: EngineSnapshot,
        workers: &[String],
        fabric: FabricConfig,
    ) -> Result<Coordinator, FabricError> {
        Coordinator::connect_with_obs(snapshot, workers, fabric, PipelineObs::default())
    }

    /// [`Coordinator::connect`] with an explicit observability context.
    /// When the tracer is enabled, every worker Hello carries
    /// `trace: true` so the workers' tracers light up too.
    pub fn connect_with_obs(
        snapshot: EngineSnapshot,
        workers: &[String],
        fabric: FabricConfig,
        obs: PipelineObs,
    ) -> Result<Coordinator, FabricError> {
        let shards = workers.len();
        if shards == 0 {
            return Err(FabricError::Protocol(
                "a fabric needs at least one worker address".to_string(),
            ));
        }
        let router = ShardRouter::new(shards);
        let config = snapshot.config;
        let tracker = snapshot.tracker.clone();
        let partitions = router.partition(snapshot.models);

        let slots: Slots = Arc::new(
            (0..shards)
                .map(|_| {
                    LeafMutex::new(ShardSlot {
                        epoch: 0,
                        live: false,
                        addr: String::new(),
                    })
                })
                .collect(),
        );
        let state_cache = Arc::new(LeafMutex::new(
            partitions
                .into_iter()
                .map(|part| StateEntry {
                    cut: fabric.start_seq,
                    state: EngineSnapshot {
                        config,
                        models: part,
                        tracker: AlarmTracker::new(),
                    },
                })
                .collect::<Vec<_>>(),
        ));
        let stats = Arc::new(LeafMutex::new(FabricStats {
            shards,
            ..FabricStats::default()
        }));

        let closing = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (merge_tx, merge_rx) = channel::bounded(fabric.channel_capacity);
        let (reports_tx, reports_rx) = channel::bounded(fabric.channel_capacity);
        let merge = {
            let slots = Arc::clone(&slots);
            let state_cache = Arc::clone(&state_cache);
            let stats = Arc::clone(&stats);
            let tally_stats = Arc::clone(&stats);
            let closing = Arc::clone(&closing);
            let merge_obs = obs.clone();
            let merger = StepMerger::new(
                shards,
                config,
                tracker,
                fabric.start_seq,
                reports_tx,
                obs.clone(),
                "merge",
                move |tally| {
                    let mut stats = tally_stats.lock();
                    match tally {
                        Tally::Report { alarms } => {
                            stats.reports += 1;
                            stats.alarms += alarms as u64;
                        }
                        Tally::Duplicate => stats.duplicate_boards += 1,
                        Tally::Replayed => stats.replayed_boards += 1,
                        Tally::Bad => stats.bad_boards += 1,
                        Tally::Checkpoint => stats.checkpoints += 1,
                    }
                },
            );
            thread::Builder::new()
                .name("fabric-merge".to_string())
                .spawn(move || {
                    merge_loop(
                        merger,
                        merge_rx,
                        slots,
                        state_cache,
                        stats,
                        closing,
                        merge_obs,
                    )
                })
                .map_err(|e| FabricError::Io {
                    context: "spawn merge thread".to_string(),
                    source: e,
                })?
        };

        let mut coordinator = Coordinator {
            shards,
            epoch_counter: fabric.epoch_base,
            next_seq: fabric.start_seq,
            fabric,
            slots,
            streams: (0..shards).map(|_| None).collect(),
            zombies: Vec::new(),
            readers: Vec::new(),
            merge: Some(merge),
            merge_tx: Some(merge_tx),
            reports_rx,
            report_buffer: VecDeque::new(),
            state_cache,
            stats: Arc::clone(&stats),
            closing,
            journal: VecDeque::new(),
            checkpoint_counter: 0,
            obs,
        };
        for (shard, addr) in workers.iter().enumerate() {
            coordinator.attach(shard, addr.clone())?;
        }
        Ok(coordinator)
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The highest fabric epoch allocated so far.
    pub fn fabric_epoch(&self) -> u64 {
        self.epoch_counter
    }

    /// A copy of the lifetime counters.
    pub fn stats(&self) -> FabricStats {
        *self.stats.lock()
    }

    /// This coordinator's observability context.
    pub fn obs(&self) -> &PipelineObs {
        &self.obs
    }

    /// A handle that renders live metrics while the front thread
    /// drives the fabric.
    pub fn metrics_probe(&self) -> CoordinatorMetricsProbe {
        CoordinatorMetricsProbe {
            stats: Arc::clone(&self.stats),
            slots: Arc::clone(&self.slots),
            obs: self.obs.clone(),
        }
    }

    /// Shards currently without a live worker.
    pub fn dead_shards(&self) -> Vec<usize> {
        (0..self.shards)
            .filter(|&k| !self.slots[k].lock().live)
            .collect()
    }

    /// Declares a shard's worker dead without touching its socket —
    /// the coordinator-side view of a network partition. Boards still
    /// arriving from the worker are fenced, and the shard becomes
    /// eligible for [`Coordinator::attach_worker`].
    pub fn declare_dead(&mut self, shard: usize) {
        if shard < self.shards {
            self.mark_dead(shard);
        }
    }

    fn mark_dead(&self, shard: usize) {
        // Flip the slot under its lock, but do the bookkeeping (stats,
        // recorder, log) after releasing it: locks are leaves, so
        // nothing else may be locked while the slot is held.
        let epoch = {
            let mut slot = self.slots[shard].lock();
            if !slot.live {
                return;
            }
            slot.live = false;
            slot.epoch
        };
        self.stats.lock().disconnects += 1;
        self.obs.recorder.record(
            "disconnect",
            format_args!("shard {shard} (epoch {epoch}) marked dead"),
        );
        gridwatch_obs::warn!(
            "fabric",
            "gridwatch coordinator: shard {shard} worker lost (epoch {epoch})"
        );
    }

    /// Fans one snapshot out to every live worker and journals it for
    /// migration replay. A worker whose socket rejects the write is
    /// marked dead (its boards for this and later steps will come from
    /// a successor after [`Coordinator::attach_worker`]).
    pub fn submit(&mut self, snapshot: Snapshot) -> Result<u64, FabricError> {
        // Clone the handles so the span's borrow does not pin `self`.
        let obs = self.obs.clone();
        let at_secs = snapshot.at().as_secs();
        let route = obs.span(Stage::Route);
        let seq = self.next_seq;
        self.next_seq += 1;
        let framed = encode_json(&WireFrame {
            source: COORDINATOR_SOURCE.to_string(),
            seq,
            snapshot: snapshot.clone(),
        })
        .map_err(|e| FabricError::Protocol(format!("encode snapshot frame: {e}")))?;
        self.journal.push_back((seq, snapshot));
        self.stats.lock().submitted += 1;
        // The trace opens, and routing ends, before any worker sees the
        // frame, so a fast board's spans find the trace open and whole.
        if obs.exemplar.is_enabled() {
            obs.exemplar.open(seq, COORDINATOR_SOURCE, at_secs);
            // The coordinator sequences at the merge barrier, not at a
            // socket table; a zero-width Sequence slice keeps every
            // trace covering the same seven stages. Ingest/decode come
            // back with the workers' board spans.
            let sequence = SpanSlice::new(Stage::Sequence, route.start_ns(), 0, COORDINATOR_SOURCE);
            obs.exemplar.record(seq, sequence);
        }
        route.finish(seq, COORDINATOR_SOURCE);
        for shard in 0..self.shards {
            if !self.slots[shard].lock().live {
                continue;
            }
            let Some(stream) = self.streams[shard].as_mut() else {
                continue;
            };
            // encode_json output already carries the length prefix.
            may_block();
            if std::io::Write::write_all(stream, &framed).is_err() {
                self.mark_dead(shard);
            }
        }
        Ok(seq)
    }

    /// Attaches a successor worker to a dead shard: allocates a fresh
    /// epoch (fencing the predecessor), ships the cached shard state,
    /// and replays the journal since that state's cut. Fails if the
    /// shard still has a live worker.
    pub fn attach_worker(&mut self, shard: usize, addr: &str) -> Result<(), FabricError> {
        if shard >= self.shards {
            return Err(FabricError::Protocol(format!(
                "shard {shard} out of range for {} shards",
                self.shards
            )));
        }
        if self.slots[shard].lock().live {
            return Err(FabricError::Protocol(format!(
                "shard {shard} already has a live worker; declare it dead first"
            )));
        }
        if let Some(old) = self.streams[shard].take() {
            self.zombies.push(old);
        }
        self.attach(shard, addr.to_string())?;
        self.stats.lock().migrations += 1;
        self.obs.recorder.record(
            "migration",
            format_args!(
                "shard {shard} migrated to {addr} (epoch {})",
                self.epoch_counter
            ),
        );
        gridwatch_obs::info!(
            "fabric",
            "gridwatch coordinator: shard {shard} migrated to {addr}"
        );
        Ok(())
    }

    /// Dials `addr`, performs the Hello handshake with the cached
    /// state, publishes the new (epoch, live) assignment, spawns the
    /// reader, and replays the journal suffix the state has not seen.
    fn attach(&mut self, shard: usize, addr: String) -> Result<(), FabricError> {
        self.epoch_counter += 1;
        let epoch = self.epoch_counter;
        let entry = self.state_cache.lock()[shard].clone();

        may_block();
        let mut stream =
            TcpStream::connect(&addr).map_err(io_ctx(&format!("connect worker {addr}")))?;
        stream
            .set_nodelay(true)
            .map_err(io_ctx(&format!("nodelay on {addr}")))?;
        let hello = encode_control(&FabricControl::Hello {
            shard,
            shards: self.shards,
            epoch,
            trace: self.obs.tracer.is_enabled(),
            exemplar: self.obs.exemplar.is_enabled(),
            state: entry.state,
        })?;
        write_frame(&mut stream, &hello).map_err(io_ctx(&format!("hello to {addr}")))?;
        let Some(payload) =
            read_frame(&mut stream).map_err(io_ctx(&format!("hello ack from {addr}")))?
        else {
            return Err(FabricError::Protocol(format!(
                "worker {addr} closed the connection during the handshake"
            )));
        };
        match decode_response(&payload)? {
            FabricResponse::HelloAck {
                shard: acked_shard,
                epoch: acked_epoch,
                pairs: _,
            } if acked_shard == shard && acked_epoch == epoch => {}
            other => {
                return Err(FabricError::Protocol(format!(
                    "worker {addr} answered the shard {shard} Hello with {other:?}"
                )))
            }
        }

        // Publish the assignment before the reader can push frames, so
        // nothing from this worker is ever fenced as stale.
        {
            let mut slot = self.slots[shard].lock();
            slot.epoch = epoch;
            slot.live = true;
            slot.addr = addr.clone();
        }
        self.obs.recorder.record(
            "attach",
            format_args!("shard {shard} attached to {addr} (epoch {epoch})"),
        );

        let reader_stream = stream
            .try_clone()
            .map_err(io_ctx(&format!("clone socket for {addr}")))?;
        let Some(merge_tx) = self.merge_tx.as_ref() else {
            return Err(FabricError::Protocol(
                "coordinator is already shut down".to_string(),
            ));
        };
        let tx = merge_tx.clone();
        let reader = thread::Builder::new()
            .name(format!("fabric-reader-{shard}-e{epoch}"))
            .spawn(move || reader_loop(shard, epoch, reader_stream, tx))
            .map_err(|e| FabricError::Io {
                context: format!("spawn reader for shard {shard}"),
                source: e,
            })?;
        self.readers.push(reader);

        // Journal replay: every snapshot the shipped state has not
        // folded in yet.
        for (seq, snapshot) in self.journal.iter().filter(|(seq, _)| *seq >= entry.cut) {
            let framed = encode_json(&WireFrame {
                source: COORDINATOR_SOURCE.to_string(),
                seq: *seq,
                snapshot: snapshot.clone(),
            })
            .map_err(|e| FabricError::Protocol(format!("encode replay frame: {e}")))?;
            may_block();
            std::io::Write::write_all(&mut stream, &framed)
                .map_err(io_ctx(&format!("replay to {addr}")))?;
        }
        self.streams[shard] = Some(stream);
        Ok(())
    }

    /// Checkpoints the fabric into `dir`: sends every worker a
    /// checkpoint marker, persists the returned shard states plus a
    /// manifest recording the cut, the fabric epoch, and the remote
    /// ownership table, refreshes the migration state cache, and trims
    /// the journal below the cut. Refuses while any shard is dead —
    /// a checkpoint must capture every shard at the same cut.
    pub fn checkpoint(&mut self, dir: impl Into<PathBuf>) -> Result<u64, FabricError> {
        let dead = self.dead_shards();
        if !dead.is_empty() {
            return Err(FabricError::Degraded { dead });
        }
        let dir = dir.into();
        Checkpointer::new(&dir)
            .prepare()
            .map_err(FabricError::Checkpoint)?;
        self.checkpoint_counter += 1;
        let id = self.checkpoint_counter;
        let cut_seq = self.next_seq;
        let remote: Vec<RemoteShard> = (0..self.shards)
            .map(|shard| {
                let slot = self.slots[shard].lock();
                RemoteShard {
                    shard,
                    epoch: slot.epoch,
                    source: slot.addr.clone(),
                }
            })
            .collect();
        let (ack_tx, ack_rx) = channel::bounded(1);
        let Some(merge_tx) = self.merge_tx.as_ref() else {
            return Err(FabricError::Protocol(
                "coordinator is already shut down".to_string(),
            ));
        };
        // The begin message rides the same FIFO channel as the boards,
        // and the markers are written after every already-submitted
        // snapshot frame, so by the time the merge thread has seen all
        // worker states it has also merged every pre-cut board: the
        // manifest's tracker is exactly the tracker at the cut.
        merge_tx
            .send(CoordMsg::CheckpointBegin(Cut {
                id,
                cut_seq,
                dir,
                sources: BTreeMap::new(),
                fabric_epoch: self.epoch_counter,
                remote,
                ack: ack_tx,
            }))
            .map_err(|_| FabricError::Protocol("merge thread is gone".to_string()))?;
        let marker = encode_control(&FabricControl::Checkpoint { id })?;
        for shard in 0..self.shards {
            let Some(stream) = self.streams[shard].as_mut() else {
                continue;
            };
            if write_frame(stream, &marker).is_err() {
                // The merge thread fails the checkpoint when the
                // reader reports this worker's disconnect.
                self.mark_dead(shard);
            }
        }
        // Pump reports while waiting so a full report channel cannot
        // wedge the merge thread (and with it, the checkpoint).
        let deadline = Instant::now() + self.fabric.checkpoint_timeout;
        loop {
            match ack_rx.try_recv() {
                Ok(Ok(_manifest)) => {
                    while self.journal.front().is_some_and(|(seq, _)| *seq < cut_seq) {
                        self.journal.pop_front();
                    }
                    return Ok(id);
                }
                Ok(Err(e)) => return Err(e),
                Err(channel::TryRecvError::Empty) => {}
                Err(channel::TryRecvError::Disconnected) => {
                    return Err(FabricError::Protocol(
                        "merge thread dropped the checkpoint".to_string(),
                    ))
                }
            }
            while let Ok(report) = self.reports_rx.try_recv() {
                self.report_buffer.push_back(report);
            }
            if Instant::now() >= deadline {
                return Err(FabricError::Protocol(format!(
                    "checkpoint {id} timed out waiting for worker states"
                )));
            }
            may_block();
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Returns the next finalized report, if one is ready.
    pub fn try_recv_report(&mut self) -> Option<StepReport> {
        if let Some(report) = self.report_buffer.pop_front() {
            return Some(report);
        }
        self.reports_rx.try_recv().ok()
    }

    /// Waits up to `timeout` for the next finalized report.
    pub fn recv_report_timeout(&mut self, timeout: Duration) -> Option<StepReport> {
        if let Some(report) = self.report_buffer.pop_front() {
            return Some(report);
        }
        self.reports_rx.recv_timeout(timeout).ok()
    }

    /// Stops the fabric: optionally sends every live worker a
    /// `Shutdown` (halting the worker processes), drains all
    /// outstanding reports, and joins the pipeline threads. Returns
    /// the drained reports and the final stats.
    pub fn shutdown(mut self, halt_workers: bool) -> (Vec<StepReport>, FabricStats) {
        // Flag the teardown so the EOFs we are about to cause do not
        // read as abnormal disconnects. Slots stay live: boards still
        // in flight must merge, not be fenced.
        self.closing
            .store(true, std::sync::atomic::Ordering::SeqCst);
        if halt_workers {
            if let Ok(halt) = encode_control(&FabricControl::Shutdown) {
                for stream in self.streams.iter_mut().flatten() {
                    let _ = write_frame(stream, &halt);
                }
            }
        }
        for stream in self.streams.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Write);
        }
        for zombie in &self.zombies {
            let _ = zombie.shutdown(Shutdown::Both);
        }
        // Readers exit once the workers close their ends; pump reports
        // the whole time so neither the merge thread nor a reader can
        // deadlock on a full channel while we wait.
        let mut reports: Vec<StepReport> = std::mem::take(&mut self.report_buffer).into();
        loop {
            while let Ok(report) = self.reports_rx.try_recv() {
                reports.push(report);
            }
            if self.readers.iter().all(|reader| reader.is_finished()) {
                break;
            }
            may_block();
            thread::sleep(Duration::from_millis(1));
        }
        for reader in self.readers.drain(..) {
            may_block();
            let _ = reader.join();
        }
        // Closing the channel lets the merge thread finish; it drops
        // the report sender on exit, ending the drain below.
        self.merge_tx = None;
        while let Ok(report) = self.reports_rx.recv() {
            reports.push(report);
        }
        if let Some(merge) = self.merge.take() {
            may_block();
            let _ = merge.join();
        }
        let stats = *self.stats.lock();
        (reports, stats)
    }
}

/// Reads one worker connection, forwarding everything into the merge
/// channel; reports a disconnect (with this reader's epoch, so the
/// merge thread can tell current from superseded connections, and the
/// reason) on EOF, error, or garbage.
fn reader_loop(shard: usize, epoch: u64, mut stream: TcpStream, tx: Sender<CoordMsg>) {
    let lost = |why: String| CoordMsg::Disconnected { shard, epoch, why };
    loop {
        let msg = match read_frame(&mut stream) {
            Ok(Some(payload)) => match decode_response(&payload) {
                Ok(FabricResponse::Board(frame)) => CoordMsg::Board(frame),
                Ok(FabricResponse::State {
                    shard: s,
                    epoch: e,
                    id,
                    state,
                }) => CoordMsg::State {
                    shard: s,
                    epoch: e,
                    id,
                    state: Box::new(state),
                },
                // A duplicate ack is harmless protocol sloppiness.
                Ok(FabricResponse::HelloAck { .. }) => continue,
                Err(e) => lost(e.to_string()),
            },
            Ok(None) => lost("connection closed".to_string()),
            Err(e) => lost(format!("read failed: {e}")),
        };
        let last = matches!(msg, CoordMsg::Disconnected { .. });
        if tx.send(msg).is_err() || last {
            return;
        }
    }
}

/// The merge thread: the fabric adapter over the [`StepMerger`]. It
/// fences stale boards, persists and caches the shard states a
/// checkpoint collects, and handles disconnects; merging, replay
/// dedup, in-order finalization, alarms, reports and manifests are the
/// merger's.
fn merge_loop<T: FnMut(Tally)>(
    mut merger: StepMerger<FabricError, T>,
    rx: Receiver<CoordMsg>,
    slots: Slots,
    state_cache: Arc<LeafMutex<Vec<StateEntry>>>,
    stats: Arc<LeafMutex<FabricStats>>,
    closing: Arc<std::sync::atomic::AtomicBool>,
    obs: PipelineObs,
) {
    while let Ok(msg) = rx.recv() {
        match msg {
            CoordMsg::Board(frame) => match slots.get(frame.shard) {
                None => stats.lock().bad_boards += 1,
                Some(slot) => {
                    let (slot_epoch, slot_live) = {
                        let slot = slot.lock();
                        (slot.epoch, slot.live)
                    };
                    if !slot_live || frame.epoch != slot_epoch {
                        stats.lock().stale_boards += 1;
                        obs.recorder.record(
                            "fenced-board",
                            format_args!(
                                "board for seq {} from shard {} epoch {} fenced (current {})",
                                frame.seq, frame.shard, frame.epoch, slot_epoch
                            ),
                        );
                    } else {
                        // The worker's scoring time and its exemplar
                        // slices (ingest/decode/score) ride the frame,
                        // so remote work lands in the coordinator's
                        // distributions and traces.
                        merger.offer(
                            frame.shard,
                            frame.seq,
                            frame.board,
                            frame.score_ns,
                            &frame.spans,
                        );
                    }
                }
            },
            CoordMsg::State {
                shard,
                epoch,
                id,
                state,
            } => {
                // Epoch 0 is never allocated, so a bad shard index
                // can never match a live assignment.
                let current_epoch = slots.get(shard).map(|slot| slot.lock().epoch).unwrap_or(0);
                if epoch == current_epoch {
                    if let Some((checkpointer, cut)) = merger.cut_awaiting(shard, id) {
                        let result = checkpointer.write_shard(shard, &state);
                        if result.is_ok() {
                            state_cache.lock()[shard] = StateEntry { cut, state: *state };
                        }
                        merger.shard_file(shard, id, result.map_err(Into::into));
                    }
                }
            }
            CoordMsg::Disconnected { shard, epoch, why } => {
                let mut current = false;
                if let Some(slot) = slots.get(shard) {
                    let mut slot = slot.lock();
                    if slot.live && slot.epoch == epoch {
                        slot.live = false;
                        current = true;
                    }
                }
                if current {
                    if !closing.load(std::sync::atomic::Ordering::SeqCst) {
                        stats.lock().disconnects += 1;
                        obs.recorder.record(
                            "disconnect",
                            format_args!("shard {shard} reader lost (epoch {epoch}): {why}"),
                        );
                        gridwatch_obs::warn!(
                            "fabric",
                            "gridwatch coordinator: shard {shard} worker disconnected (epoch {epoch}): {why}"
                        );
                    }
                    // A checkpoint still waiting on this worker's state
                    // can never complete.
                    merger.fail_cut_awaiting(shard, FabricError::Degraded { dead: vec![shard] });
                }
            }
            CoordMsg::CheckpointBegin(cut) => merger.begin_cut(cut),
        }
        merger.advance();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the coordinator's `/metrics` document: every
    /// `gridwatch_fabric_*` name, kind, help string and its order, plus
    /// the shared stage-span block, are part of the scrape contract.
    #[test]
    fn fabric_exposition_is_pinned() {
        let obs = PipelineObs::enabled();
        obs.tracer.record_ns(Stage::Score, 900);
        obs.tracer.record_ns(Stage::Merge, 3);
        let probe = CoordinatorMetricsProbe {
            stats: Arc::new(LeafMutex::new(FabricStats {
                shards: 2,
                submitted: 11,
                reports: 10,
                alarms: 9,
                stale_boards: 8,
                duplicate_boards: 7,
                replayed_boards: 6,
                bad_boards: 5,
                disconnects: 4,
                migrations: 3,
                checkpoints: 1,
            })),
            slots: Arc::new(Vec::new()),
            obs,
        };
        let golden = "\
# HELP gridwatch_fabric_shards Shards in the fabric
# TYPE gridwatch_fabric_shards gauge
gridwatch_fabric_shards 2
# HELP gridwatch_fabric_submitted_total Snapshots submitted for scoring
# TYPE gridwatch_fabric_submitted_total counter
gridwatch_fabric_submitted_total 11
# HELP gridwatch_fabric_reports_total Step reports emitted
# TYPE gridwatch_fabric_reports_total counter
gridwatch_fabric_reports_total 10
# HELP gridwatch_fabric_alarms_total Alarm events raised
# TYPE gridwatch_fabric_alarms_total counter
gridwatch_fabric_alarms_total 9
# HELP gridwatch_fabric_stale_boards_total Boards fenced for a superseded epoch or dead shard
# TYPE gridwatch_fabric_stale_boards_total counter
gridwatch_fabric_stale_boards_total 8
# HELP gridwatch_fabric_duplicate_boards_total Boards dropped as duplicates
# TYPE gridwatch_fabric_duplicate_boards_total counter
gridwatch_fabric_duplicate_boards_total 7
# HELP gridwatch_fabric_replayed_boards_total Boards dropped as migration replay overlap
# TYPE gridwatch_fabric_replayed_boards_total counter
gridwatch_fabric_replayed_boards_total 6
# HELP gridwatch_fabric_bad_boards_total Boards dropped as malformed
# TYPE gridwatch_fabric_bad_boards_total counter
gridwatch_fabric_bad_boards_total 5
# HELP gridwatch_fabric_disconnects_total Worker connections lost
# TYPE gridwatch_fabric_disconnects_total counter
gridwatch_fabric_disconnects_total 4
# HELP gridwatch_fabric_migrations_total Successful worker re-attachments
# TYPE gridwatch_fabric_migrations_total counter
gridwatch_fabric_migrations_total 3
# HELP gridwatch_fabric_checkpoints_total Checkpoints completed
# TYPE gridwatch_fabric_checkpoints_total counter
gridwatch_fabric_checkpoints_total 1
# HELP gridwatch_stage_ns Span timing of each pipeline stage in nanoseconds.
# TYPE gridwatch_stage_ns histogram
gridwatch_stage_ns_bucket{stage=\"score\",le=\"0\"} 0
gridwatch_stage_ns_bucket{stage=\"score\",le=\"1\"} 0
gridwatch_stage_ns_bucket{stage=\"score\",le=\"3\"} 0
gridwatch_stage_ns_bucket{stage=\"score\",le=\"7\"} 0
gridwatch_stage_ns_bucket{stage=\"score\",le=\"15\"} 0
gridwatch_stage_ns_bucket{stage=\"score\",le=\"31\"} 0
gridwatch_stage_ns_bucket{stage=\"score\",le=\"63\"} 0
gridwatch_stage_ns_bucket{stage=\"score\",le=\"127\"} 0
gridwatch_stage_ns_bucket{stage=\"score\",le=\"255\"} 0
gridwatch_stage_ns_bucket{stage=\"score\",le=\"511\"} 0
gridwatch_stage_ns_bucket{stage=\"score\",le=\"1023\"} 1
gridwatch_stage_ns_bucket{stage=\"score\",le=\"+Inf\"} 1
gridwatch_stage_ns_sum{stage=\"score\"} 900
gridwatch_stage_ns_count{stage=\"score\"} 1
gridwatch_stage_ns_bucket{stage=\"merge\",le=\"0\"} 0
gridwatch_stage_ns_bucket{stage=\"merge\",le=\"1\"} 0
gridwatch_stage_ns_bucket{stage=\"merge\",le=\"3\"} 1
gridwatch_stage_ns_bucket{stage=\"merge\",le=\"+Inf\"} 1
gridwatch_stage_ns_sum{stage=\"merge\"} 3
gridwatch_stage_ns_count{stage=\"merge\"} 1
";
        assert_eq!(probe.to_prometheus(), golden);
    }
}
