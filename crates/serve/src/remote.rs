//! Remote shard workers: the worker half of the multi-node shard
//! fabric.
//!
//! A [`ShardWorker`] is a small TCP server that owns one coordinator-
//! assigned slice of pair models. The coordinator dials it, ships the
//! slice's state in a `Hello`, then streams snapshots using the **same
//! length-prefixed JSON wire encoding** the ingestion listener accepts
//! ([`crate::wire::encode_json`]); the worker scores each snapshot with
//! [`DetectionEngine::step_scores`] and streams the partial
//! [`ScoreBoard`] back as a [`BoardFrame`]. Shipping partial boards
//! instead of raw samples keeps the upstream link small: a board is one
//! `f64` per owned pair, independent of snapshot width.
//!
//! Frame format, both directions: a 4-byte big-endian length prefix
//! followed by a JSON payload (the same framing as the JSON wire
//! protocol, with a larger limit — `Hello` and `State` frames carry
//! full model state). Downstream (coordinator → worker) a payload is
//! either a snapshot frame or a control envelope
//! `{"control": ...}` ([`FabricControl`]); upstream every payload is a
//! [`FabricResponse`].
//!
//! The worker is deliberately stateless about placement: it learns its
//! shard index, fabric epoch, and model slice from each session's
//! `Hello`, so the same process can serve as the migration successor
//! for any shard — the coordinator replays the journal since the
//! shipped state's cut and the worker reproduces the exact boards the
//! failed predecessor would have sent.
//!
//! Sessions are serial: one coordinator at a time, and a session ends
//! at EOF (coordinator gone — wait for it to come back), on `Shutdown`
//! (exit the process), or on a protocol error (drop the connection,
//! keep listening).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gridwatch_sync::LeafMutex;
use serde::{Deserialize, Serialize};

use gridwatch_detect::{EngineSnapshot, ScoreBoard};
use gridwatch_obs::{ExemplarConfig, Exposition, Metric, PipelineObs, SpanSlice, Stage};

use crate::checkpoint::CheckpointError;
use crate::engine::{score_step, shard_engine, ScoredStep};
use crate::wire::{self, WireFrame};

/// Upper bound on one fabric frame. Larger than the wire protocol's
/// auto-detect limit because `Hello`/`State` frames carry a full shard's
/// model state.
pub const FABRIC_FRAME_LIMIT: usize = 1 << 26;

/// The canonical byte prefix of a control envelope (our own encoder
/// emits fields in declaration order with no whitespace).
const CONTROL_PREFIX: &[u8] = b"{\"control\":";

/// Coordinator → worker control messages.
//
// `Hello` dwarfs the other variants, but boxing the snapshot is not an
// option: the vendored serde has no `Box<T>` impls, and controls are
// built once per session, not per snapshot.
#[expect(clippy::large_enum_variant, reason = "the vendored serde has no Box")]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FabricControl {
    /// Session handshake: adopt this shard slice.
    Hello {
        /// The shard index this worker now serves.
        shard: usize,
        /// Total shard count in the fabric (for diagnostics).
        shards: usize,
        /// The fabric epoch of this assignment; every board the worker
        /// sends back is stamped with it, so boards from a superseded
        /// assignment can be fenced off.
        epoch: u64,
        /// Span-trace propagation: when true the worker enables its
        /// pipeline tracer for the session, so coordinator-side tracing
        /// extends across the wire. Defaulted so a Hello from an older
        /// coordinator (no such field) still parses.
        #[serde(default)]
        trace: bool,
        /// Exemplar-trace propagation: when true the worker times each
        /// snapshot's ingest/decode/score slices and ships them in
        /// [`BoardFrame::spans`], extending the coordinator's causal
        /// traces across the wire. Defaulted like `trace`.
        #[serde(default)]
        exemplar: bool,
        /// The shard's engine state to resume from.
        state: EngineSnapshot,
    },
    /// Checkpoint marker: reply with a `State` response carrying the
    /// current engine snapshot. Queued frames are processed first, so
    /// the state reflects exactly the snapshots sent before the marker.
    Checkpoint {
        /// Checkpoint id, echoed in the `State` reply.
        id: u64,
    },
    /// Stop serving: the worker exits its run loop.
    Shutdown,
}

/// The envelope distinguishing control payloads from snapshot frames on
/// the downstream connection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ControlEnvelope {
    control: FabricControl,
}

/// One partial score board from a remote shard (the fabric's wire
/// extension: shipped upstream instead of raw samples).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoardFrame {
    /// The shard that produced the board.
    pub shard: usize,
    /// The fabric epoch of the worker's current assignment.
    pub epoch: u64,
    /// The snapshot sequence number the board scores.
    pub seq: u64,
    /// Wall-clock nanoseconds the worker spent scoring this snapshot;
    /// the coordinator folds it into its Score stage distribution.
    /// Defaulted so boards from older workers (no such field) parse.
    #[serde(default)]
    pub score_ns: u64,
    /// Worker-side span slices for this snapshot (ingest/decode/score),
    /// present only when the session's `Hello` asked for exemplars.
    /// Start offsets are relative to the worker's own clock epoch —
    /// slice durations and ordering are meaningful across the wire,
    /// absolute starts are not. Defaulted so old boards parse.
    #[serde(default)]
    pub spans: Vec<SpanSlice>,
    /// The partial board (one score per pair owned by the shard).
    pub board: ScoreBoard,
}

/// Worker → coordinator messages.
///
/// `State` dwarfs the other variants, but it cannot be boxed: the
/// vendored serde derives have no `Box<T>` impls. One `State` exists
/// per shard per checkpoint, so the oversized variant never amplifies.
#[expect(clippy::large_enum_variant, reason = "the vendored serde has no Box")]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FabricResponse {
    /// Handshake acknowledgement.
    HelloAck {
        /// The adopted shard index (echo).
        shard: usize,
        /// The adopted epoch (echo).
        epoch: u64,
        /// Pair models in the adopted slice.
        pairs: usize,
    },
    /// One scored snapshot.
    Board(BoardFrame),
    /// Checkpoint reply: the shard's full engine state.
    State {
        /// The shard index (echo).
        shard: usize,
        /// The assignment epoch (echo).
        epoch: u64,
        /// The checkpoint id this state answers.
        id: u64,
        /// The shard's engine state at the marker.
        state: EngineSnapshot,
    },
}

/// Why a fabric operation failed.
#[derive(Debug)]
pub enum FabricError {
    /// A socket operation failed.
    Io {
        /// What the fabric was doing.
        context: String,
        /// The underlying error.
        source: io::Error,
    },
    /// The peer violated the fabric protocol.
    Protocol(String),
    /// The operation needs every shard live, but some are dead.
    Degraded {
        /// The dead shard indices.
        dead: Vec<usize>,
    },
    /// Writing or reading checkpoint state failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Io { context, source } => write!(f, "fabric io ({context}): {source}"),
            FabricError::Protocol(why) => write!(f, "fabric protocol violation: {why}"),
            FabricError::Degraded { dead } => {
                write!(f, "fabric is degraded: shards {dead:?} have no live worker")
            }
            FabricError::Checkpoint(e) => write!(f, "fabric checkpoint: {e}"),
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Io { source, .. } => Some(source),
            FabricError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for FabricError {
    fn from(e: CheckpointError) -> Self {
        FabricError::Checkpoint(e)
    }
}

pub(crate) fn io_ctx(context: &str) -> impl FnOnce(io::Error) -> FabricError + '_ {
    move |source| FabricError::Io {
        context: context.to_string(),
        source,
    }
}

/// Writes one length-prefixed fabric frame.
pub fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    if payload.len() > FABRIC_FRAME_LIMIT {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "fabric frame of {} bytes exceeds the {FABRIC_FRAME_LIMIT} byte limit",
                payload.len()
            ),
        ));
    }
    stream.write_all(&(payload.len() as u32).to_be_bytes())?;
    stream.write_all(payload)
}

/// Reads one length-prefixed fabric frame; `None` on clean EOF between
/// frames. EOF inside a frame is an error (a torn frame must not look
/// like a graceful close).
pub fn read_frame(stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_buf.len() {
        match stream.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a fabric length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > FABRIC_FRAME_LIMIT {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("fabric frame of {len} bytes exceeds the {FABRIC_FRAME_LIMIT} byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Encodes a control message as a downstream control envelope.
pub fn encode_control(control: &FabricControl) -> Result<Vec<u8>, FabricError> {
    serde_json::to_vec(&ControlEnvelope {
        control: control.clone(),
    })
    .map_err(|e| FabricError::Protocol(format!("encode control: {e}")))
}

/// Encodes an upstream (worker → coordinator) response payload.
pub fn encode_response(response: &FabricResponse) -> Result<Vec<u8>, FabricError> {
    serde_json::to_vec(response).map_err(|e| FabricError::Protocol(format!("encode response: {e}")))
}

/// Decodes an upstream (worker → coordinator) response payload.
pub fn decode_response(payload: &[u8]) -> Result<FabricResponse, FabricError> {
    serde_json::from_slice(payload)
        .map_err(|e| FabricError::Protocol(format!("undecodable fabric response: {e}")))
}

/// What a downstream (coordinator → worker) payload turned out to be.
//
// Same situation as `FabricControl` above: `Control(Hello)` dwarfs the
// snapshot variant, but controls arrive once per session, not per
// snapshot, so boxing buys nothing on the hot path.
#[expect(clippy::large_enum_variant, reason = "the vendored serde has no Box")]
#[derive(Debug)]
pub enum Downstream {
    /// A snapshot frame in the standard JSON wire encoding.
    Snapshot(WireFrame),
    /// A fabric control message.
    Control(FabricControl),
}

/// Decodes a downstream payload as either a snapshot frame or a
/// control envelope.
pub fn decode_downstream(payload: &[u8]) -> Result<Downstream, FabricError> {
    if payload.starts_with(CONTROL_PREFIX) {
        let envelope: ControlEnvelope = serde_json::from_slice(payload)
            .map_err(|e| FabricError::Protocol(format!("undecodable fabric control: {e}")))?;
        return Ok(Downstream::Control(envelope.control));
    }
    match wire::decode_json_payload(payload) {
        Ok(frame) => Ok(Downstream::Snapshot(frame)),
        // A control frame from an encoder with different key order.
        Err(snap_err) => match serde_json::from_slice::<ControlEnvelope>(payload) {
            Ok(envelope) => Ok(Downstream::Control(envelope.control)),
            Err(_) => Err(FabricError::Protocol(format!(
                "undecodable fabric frame: {snap_err}"
            ))),
        },
    }
}

/// Lifetime counters of one worker process.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Coordinator sessions served.
    pub sessions: u64,
    /// Snapshot frames scored.
    pub snapshots: u64,
    /// Board frames sent upstream.
    pub boards: u64,
    /// Checkpoint markers answered with a `State`.
    pub checkpoints: u64,
    /// Sessions dropped for protocol violations.
    pub protocol_errors: u64,
}

/// A worker's `/metrics` document, in scrape order.
pub(crate) const WORKER_METRICS: &[Metric<WorkerSummary>] = &[
    (
        "gridwatch_worker_sessions_total",
        "counter",
        "Coordinator sessions served",
        |s| s.sessions,
    ),
    (
        "gridwatch_worker_snapshots_total",
        "counter",
        "Snapshot frames scored",
        |s| s.snapshots,
    ),
    (
        "gridwatch_worker_boards_total",
        "counter",
        "Board frames sent upstream",
        |s| s.boards,
    ),
    (
        "gridwatch_worker_checkpoints_total",
        "counter",
        "Checkpoint markers answered",
        |s| s.checkpoints,
    ),
    (
        "gridwatch_worker_protocol_errors_total",
        "counter",
        "Sessions dropped for protocol violations",
        |s| s.protocol_errors,
    ),
];

/// How one coordinator session ended.
enum SessionEnd {
    /// The coordinator closed the connection; await the next session.
    Eof,
    /// The coordinator sent `Shutdown`; stop the worker.
    Shutdown,
}

/// A remote shard worker process: binds a port, serves coordinator
/// sessions serially, exits on `Shutdown`.
#[derive(Debug)]
pub struct ShardWorker {
    listener: TcpListener,
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    session: Arc<LeafMutex<Option<TcpStream>>>,
    summary: Arc<LeafMutex<WorkerSummary>>,
    obs: PipelineObs,
}

/// A detachable handle rendering a live worker's counters and stage
/// distributions as Prometheus text exposition, for `--metrics` scrapes
/// while [`ShardWorker::run`] owns the thread.
#[derive(Debug, Clone)]
pub struct WorkerMetricsProbe {
    summary: Arc<LeafMutex<WorkerSummary>>,
    obs: PipelineObs,
}

impl WorkerMetricsProbe {
    /// The worker's lifetime counters so far.
    pub fn summary(&self) -> WorkerSummary {
        *self.summary.lock()
    }

    /// Renders the worker's counters and any recorded stage timings.
    pub fn to_prometheus(&self) -> String {
        let mut expo = Exposition::new();
        expo.scalars(WORKER_METRICS, &[(None, &self.summary())]);
        self.obs.tracer.render_into(&mut expo);
        expo.finish()
    }
}

/// A test/ops handle that can hard-kill a running [`ShardWorker`] from
/// another thread, simulating a process kill: the accept loop stops and
/// any live session is severed mid-stream.
#[derive(Debug, Clone)]
pub struct WorkerController {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    session: Arc<LeafMutex<Option<TcpStream>>>,
}

impl WorkerController {
    /// Stops the worker as abruptly as a process kill: no `Shutdown`
    /// handshake, the session socket is severed where it stands.
    pub fn kill(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(stream) = self.session.lock().take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // Unblock a worker parked in accept().
        let _ = TcpStream::connect(self.addr);
    }
}

impl ShardWorker {
    /// Binds the worker's listening socket (port 0 picks a free port).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<ShardWorker> {
        ShardWorker::bind_with_obs(addr, PipelineObs::default())
    }

    /// [`ShardWorker::bind`] with an explicit observability context.
    /// The tracer also late-enables when a session's `Hello` carries
    /// `trace: true`.
    pub fn bind_with_obs(addr: impl ToSocketAddrs, obs: PipelineObs) -> io::Result<ShardWorker> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(ShardWorker {
            listener,
            local_addr,
            stop: Arc::new(AtomicBool::new(false)),
            session: Arc::new(LeafMutex::new(None)),
            summary: Arc::new(LeafMutex::new(WorkerSummary::default())),
            obs,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This worker's observability context.
    pub fn obs(&self) -> &PipelineObs {
        &self.obs
    }

    /// A handle that renders live metrics while `run` owns the thread.
    pub fn metrics_probe(&self) -> WorkerMetricsProbe {
        WorkerMetricsProbe {
            summary: Arc::clone(&self.summary),
            obs: self.obs.clone(),
        }
    }

    /// A kill handle for tests and supervisors.
    pub fn controller(&self) -> WorkerController {
        WorkerController {
            addr: self.local_addr,
            stop: Arc::clone(&self.stop),
            session: Arc::clone(&self.session),
        }
    }

    /// Serves coordinator sessions until a `Shutdown` control arrives
    /// or the controller kills the worker. A session ending in EOF or a
    /// protocol error does not stop the worker — the coordinator may
    /// reconnect (crash-resume, shard migration).
    pub fn run(&self) -> Result<WorkerSummary, FabricError> {
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Ok(*self.summary.lock());
            }
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    if self.stop.load(Ordering::SeqCst) {
                        return Ok(*self.summary.lock());
                    }
                    return Err(FabricError::Io {
                        context: "accept".to_string(),
                        source: e,
                    });
                }
            };
            if self.stop.load(Ordering::SeqCst) {
                return Ok(*self.summary.lock());
            }
            let session_id = {
                let mut summary = self.summary.lock();
                summary.sessions += 1;
                summary.sessions
            };
            self.obs.recorder.record(
                "session-open",
                format_args!("coordinator session {session_id} accepted"),
            );
            *self.session.lock() = stream.try_clone().ok();
            let end = session_loop(stream, &self.summary, &self.obs);
            *self.session.lock() = None;
            match end {
                Ok(SessionEnd::Shutdown) => {
                    self.obs
                        .recorder
                        .record("shutdown", format_args!("coordinator sent Shutdown"));
                    return Ok(*self.summary.lock());
                }
                Ok(SessionEnd::Eof) => {
                    self.obs.recorder.record(
                        "session-end",
                        format_args!("session {session_id} closed at EOF"),
                    );
                }
                Err(_) if self.stop.load(Ordering::SeqCst) => return Ok(*self.summary.lock()),
                Err(FabricError::Protocol(why)) => {
                    self.summary.lock().protocol_errors += 1;
                    self.obs
                        .recorder
                        .record("protocol-error", format_args!("{why}"));
                    gridwatch_obs::error!(
                        "fabric",
                        "gridwatch shard-worker: dropping session: {why}"
                    );
                }
                Err(e) => {
                    self.obs
                        .recorder
                        .record("session-error", format_args!("{e}"));
                    gridwatch_obs::error!("fabric", "gridwatch shard-worker: session ended: {e}");
                }
            }
        }
    }
}

/// One coordinator session: handshake, then score snapshots and answer
/// checkpoint markers until EOF or `Shutdown`.
fn session_loop(
    mut stream: TcpStream,
    summary: &LeafMutex<WorkerSummary>,
    obs: &PipelineObs,
) -> Result<SessionEnd, FabricError> {
    // Handshake: the first frame must be a Hello (or a Shutdown aimed
    // at an idle worker).
    let Some(payload) = read_frame(&mut stream).map_err(io_ctx("handshake read"))? else {
        return Ok(SessionEnd::Eof);
    };
    let (shard, epoch, mut engine) = match decode_downstream(&payload)? {
        Downstream::Control(FabricControl::Hello {
            shard,
            shards: _,
            epoch,
            trace,
            exemplar,
            state,
        }) => {
            // Span context propagates across the wire as a Hello
            // extension: a tracing coordinator turns on the worker's
            // tracer, and one capturing exemplars its slice capture,
            // for the whole process (both enables are sticky). The
            // worker retains no trace itself — it never opens one — so
            // the sampling rules stay at their inert defaults.
            if trace {
                obs.tracer.enable();
            }
            if exemplar {
                obs.exemplar.enable(ExemplarConfig::default());
            }
            // The same engine the in-process shards score with: serial,
            // and sharing this worker's flight recorder so rebuild and
            // lifecycle events reach it.
            let engine = shard_engine(state, obs.recorder.clone());
            let ack = encode_response(&FabricResponse::HelloAck {
                shard,
                epoch,
                pairs: engine.model_count(),
            })?;
            write_frame(&mut stream, &ack).map_err(io_ctx("handshake ack"))?;
            (shard, epoch, engine)
        }
        Downstream::Control(FabricControl::Shutdown) => return Ok(SessionEnd::Shutdown),
        Downstream::Control(_) => {
            return Err(FabricError::Protocol(
                "expected Hello as the first fabric frame".to_string(),
            ))
        }
        Downstream::Snapshot(_) => {
            return Err(FabricError::Protocol(
                "snapshot frame before Hello handshake".to_string(),
            ))
        }
    };

    let worker_name = format!("worker-{shard}");
    loop {
        // The slices ship upstream, where the coordinator's exemplar
        // layer decides what to keep.
        let ingest = obs.span(Stage::Ingest);
        let read = read_frame(&mut stream).map_err(io_ctx("session read"))?;
        let ingest = ingest.into_slice(&worker_name);
        let Some(payload) = read else {
            return Ok(SessionEnd::Eof);
        };
        let decode = obs.span(Stage::Decode);
        let decoded = decode_downstream(&payload)?;
        let decode = decode.into_slice(&worker_name);
        match decoded {
            Downstream::Snapshot(frame) => {
                summary.lock().snapshots += 1;
                // score_ns rides the board frame upstream so the
                // coordinator's Score distribution reflects remote work
                // even when this worker's own tracer is off. The step's
                // event counts and gauges stop here: the board frame
                // has no field for them.
                let ScoredStep {
                    board,
                    elapsed_ns: score_ns,
                    ..
                } = score_step(&mut engine, &frame.snapshot);
                obs.tracer.record_ns(Stage::Score, score_ns);
                let score =
                    obs.exemplar
                        .ended_now(Stage::Score, score_ns, shard as u64, &worker_name);
                let spans = [ingest, decode, score].into_iter().flatten().collect();
                let response = encode_response(&FabricResponse::Board(BoardFrame {
                    shard,
                    epoch,
                    seq: frame.seq,
                    score_ns,
                    spans,
                    board,
                }))?;
                write_frame(&mut stream, &response).map_err(io_ctx("board write"))?;
                summary.lock().boards += 1;
            }
            Downstream::Control(FabricControl::Checkpoint { id }) => {
                summary.lock().checkpoints += 1;
                obs.recorder.record(
                    "checkpoint",
                    format_args!("state reply for checkpoint {id} (shard {shard} epoch {epoch})"),
                );
                let response = encode_response(&FabricResponse::State {
                    shard,
                    epoch,
                    id,
                    state: engine.snapshot(),
                })?;
                write_frame(&mut stream, &response).map_err(io_ctx("state write"))?;
            }
            Downstream::Control(FabricControl::Shutdown) => return Ok(SessionEnd::Shutdown),
            Downstream::Control(FabricControl::Hello { .. }) => {
                return Err(FabricError::Protocol(
                    "unexpected mid-session Hello".to_string(),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_detect::{AlarmTracker, EngineConfig};
    use gridwatch_timeseries::Timestamp;

    /// Pins the worker's `/metrics` document: every
    /// `gridwatch_worker_*` name, kind, help string and its order, plus
    /// the shared stage-span block, are part of the scrape contract.
    #[test]
    fn worker_exposition_is_pinned() {
        let obs = PipelineObs::enabled();
        obs.tracer.record_ns(Stage::Decode, 5);
        let probe = WorkerMetricsProbe {
            summary: Arc::new(LeafMutex::new(WorkerSummary {
                sessions: 5,
                snapshots: 4,
                boards: 3,
                checkpoints: 2,
                protocol_errors: 1,
            })),
            obs,
        };
        let golden = "\
# HELP gridwatch_worker_sessions_total Coordinator sessions served
# TYPE gridwatch_worker_sessions_total counter
gridwatch_worker_sessions_total 5
# HELP gridwatch_worker_snapshots_total Snapshot frames scored
# TYPE gridwatch_worker_snapshots_total counter
gridwatch_worker_snapshots_total 4
# HELP gridwatch_worker_boards_total Board frames sent upstream
# TYPE gridwatch_worker_boards_total counter
gridwatch_worker_boards_total 3
# HELP gridwatch_worker_checkpoints_total Checkpoint markers answered
# TYPE gridwatch_worker_checkpoints_total counter
gridwatch_worker_checkpoints_total 2
# HELP gridwatch_worker_protocol_errors_total Sessions dropped for protocol violations
# TYPE gridwatch_worker_protocol_errors_total counter
gridwatch_worker_protocol_errors_total 1
# HELP gridwatch_stage_ns Span timing of each pipeline stage in nanoseconds.
# TYPE gridwatch_stage_ns histogram
gridwatch_stage_ns_bucket{stage=\"decode\",le=\"0\"} 0
gridwatch_stage_ns_bucket{stage=\"decode\",le=\"1\"} 0
gridwatch_stage_ns_bucket{stage=\"decode\",le=\"3\"} 0
gridwatch_stage_ns_bucket{stage=\"decode\",le=\"7\"} 1
gridwatch_stage_ns_bucket{stage=\"decode\",le=\"+Inf\"} 1
gridwatch_stage_ns_sum{stage=\"decode\"} 5
gridwatch_stage_ns_count{stage=\"decode\"} 1
";
        assert_eq!(probe.to_prometheus(), golden);
    }

    #[test]
    fn frames_roundtrip_over_a_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();

        write_frame(&mut client, b"hello").unwrap();
        write_frame(&mut client, b"").unwrap();
        assert_eq!(read_frame(&mut server).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut server).unwrap().unwrap(), b"");

        drop(client);
        assert!(read_frame(&mut server).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn torn_frame_is_an_error_not_an_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        // Announce 100 bytes, deliver 3, die.
        client.write_all(&100u32.to_be_bytes()).unwrap();
        client.write_all(b"abc").unwrap();
        drop(client);
        assert!(read_frame(&mut server).is_err());
    }

    #[test]
    fn oversized_frames_rejected_both_ways() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        client
            .write_all(&(FABRIC_FRAME_LIMIT as u32 + 1).to_be_bytes())
            .unwrap();
        assert!(read_frame(&mut server).is_err());

        let huge = vec![0u8; FABRIC_FRAME_LIMIT + 1];
        assert!(write_frame(&mut client, &huge).is_err());
    }

    #[test]
    fn control_envelopes_roundtrip_and_dispatch() {
        let control = FabricControl::Checkpoint { id: 9 };
        let bytes = encode_control(&control).unwrap();
        assert!(bytes.starts_with(CONTROL_PREFIX));
        match decode_downstream(&bytes).unwrap() {
            Downstream::Control(c) => assert_eq!(c, control),
            Downstream::Snapshot(_) => panic!("control decoded as snapshot"),
        }

        // A snapshot frame payload dispatches to Snapshot.
        let mut snap = gridwatch_detect::Snapshot::new(Timestamp::from_secs(360));
        snap.insert(
            gridwatch_timeseries::MeasurementId::new(
                gridwatch_timeseries::MachineId::new(0),
                gridwatch_timeseries::MetricKind::Custom(0),
            ),
            1.5,
        );
        let framed = wire::encode_json(&WireFrame {
            source: "coordinator".to_string(),
            seq: 3,
            snapshot: snap.clone(),
        })
        .unwrap();
        // encode_json includes the 4-byte prefix; strip it for payload
        // dispatch.
        match decode_downstream(&framed[4..]).unwrap() {
            Downstream::Snapshot(frame) => {
                assert_eq!(frame.seq, 3);
                assert_eq!(frame.snapshot, snap);
            }
            Downstream::Control(_) => panic!("snapshot decoded as control"),
        }

        assert!(decode_downstream(b"garbage").is_err());
    }

    #[test]
    fn responses_roundtrip() {
        let board = BoardFrame {
            shard: 2,
            epoch: 7,
            seq: 41,
            score_ns: 1_250,
            spans: vec![SpanSlice::sharded(Stage::Score, 10, 1_250, 2, "worker-2")],
            board: ScoreBoard::new(Timestamp::from_secs(360)),
        };
        for response in [
            FabricResponse::HelloAck {
                shard: 1,
                epoch: 5,
                pairs: 10,
            },
            FabricResponse::Board(board),
        ] {
            let bytes = encode_response(&response).unwrap();
            assert_eq!(decode_response(&bytes).unwrap(), response);
        }
        assert!(decode_response(b"{}").is_err());
    }

    #[test]
    fn pre_obs_wire_frames_still_parse() {
        // A Board from a worker predating `score_ns` defaults to 0.
        let old_board = format!(
            "{{\"Board\":{{\"shard\":2,\"epoch\":7,\"seq\":41,\"board\":{}}}}}",
            serde_json::to_string(&ScoreBoard::new(Timestamp::from_secs(360))).unwrap()
        );
        match decode_response(old_board.as_bytes()).unwrap() {
            FabricResponse::Board(frame) => {
                assert_eq!(frame.seq, 41);
                assert_eq!(frame.score_ns, 0);
                assert!(frame.spans.is_empty(), "missing spans default to none");
            }
            other => panic!("expected Board, got {other:?}"),
        }

        // A Hello from a coordinator predating `trace` defaults to off.
        let state = EngineSnapshot {
            config: EngineConfig::default(),
            models: Vec::new(),
            tracker: AlarmTracker::new(),
            candidates: Vec::new(),
        };
        let old_hello = format!(
            "{{\"control\":{{\"Hello\":{{\"shard\":1,\"shards\":2,\"epoch\":3,\"state\":{}}}}}}}",
            serde_json::to_string(&state).unwrap()
        );
        match decode_downstream(old_hello.as_bytes()).unwrap() {
            Downstream::Control(FabricControl::Hello {
                shard,
                trace,
                exemplar,
                ..
            }) => {
                assert_eq!(shard, 1);
                assert!(!trace, "missing trace field must default to false");
                assert!(!exemplar, "missing exemplar field must default to false");
            }
            other => panic!("expected Hello, got {other:?}"),
        }
    }

    #[test]
    fn worker_metrics_probe_renders_parseable_exposition() {
        let worker = ShardWorker::bind("127.0.0.1:0").unwrap();
        let probe = worker.metrics_probe();
        let text = probe.to_prometheus();
        let metrics = gridwatch_obs::parse_exposition(&text).unwrap();
        let sessions = metrics
            .iter()
            .find(|m| m.name == "gridwatch_worker_sessions_total")
            .expect("sessions counter rendered");
        assert_eq!(sessions.value, 0.0);
        // The disabled tracer contributes no stage series.
        assert!(!text.contains("gridwatch_stage_ns"));
    }
}
