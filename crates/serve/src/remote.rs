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
//! and the payload, in one write (the JSON wire protocol's framing,
//! with a larger limit — `Hello` and `State` carry full model state).
//! Downstream (coordinator → worker) a payload is a JSON snapshot frame
//! or a `{"control": ...}` envelope ([`FabricControl`]). Upstream it is
//! a [`FabricResponse`], in JSON except for boards. A board is a
//! self-describing binary frame: the tag byte `0xB0`, which no JSON
//! starts with; varints (`gridwatch_store::codec`) for shard, epoch,
//! seq, `score_ns`, the board instant and the span count; each
//! [`SpanSlice`]; a varint pair count; then per pair in canonical order
//! each endpoint's machine and `MetricKind::code` as varints and the
//! score's `f64::to_bits` as 8 little-endian bytes. Raw bits keep the
//! merged stream bit-identical, NaN included. Coordinator and workers
//! must run the same build.
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

use std::error::Error;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gridwatch_sync::{may_block, LeafMutex};
use serde::{Deserialize, Serialize};

use gridwatch_detect::{EngineSnapshot, ScoreBoard};
use gridwatch_obs::{ExemplarConfig, Exposition, Metric, PipelineObs, SpanSlice, Stage};
use gridwatch_store::codec::{put_string, put_varint, Reader};
use gridwatch_timeseries::{MachineId, MeasurementId, MeasurementPair, MetricKind, Timestamp};

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
/// extension: shipped upstream instead of raw samples, as a binary
/// frame; the serde derives exist only because [`FabricResponse`]'s do).
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
    pub score_ns: u64,
    /// Worker-side span slices for this snapshot (ingest/decode/score),
    /// present only when the session's `Hello` asked for exemplars.
    /// Start offsets are relative to the worker's own clock epoch —
    /// slice durations and ordering are meaningful across the wire,
    /// absolute starts are not.
    pub spans: Vec<SpanSlice>,
    /// The partial board (one score per pair owned by the shard).
    pub board: ScoreBoard,
}

/// Worker → coordinator messages; a `Board` is never JSON (see
/// [`encode_response`]).
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
#[track_caller]
pub fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> io::Result<()> {
    may_block();
    if payload.len() > FABRIC_FRAME_LIMIT {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "fabric frame of {} bytes exceeds the {FABRIC_FRAME_LIMIT} byte limit",
                payload.len()
            ),
        ));
    }
    // One write: a payload sent apart from its prefix waits on Nagle.
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)
}

/// Reads one length-prefixed fabric frame; `None` on clean EOF between
/// frames. EOF inside a frame is an error (a torn frame must not look
/// like a graceful close).
#[track_caller]
pub fn read_frame(stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
    may_block();
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

/// First byte of a binary board frame: a UTF-8 continuation byte, so
/// no JSON payload starts with it.
const BOARD_TAG: u8 = 0xB0;

/// Encodes an upstream (worker → coordinator) response payload: a
/// board as a binary frame, anything else as JSON.
pub fn encode_response(response: &FabricResponse) -> Result<Vec<u8>, FabricError> {
    match response {
        FabricResponse::Board(frame) => Ok(encode_board(frame)),
        other => serde_json::to_vec(other)
            .map_err(|e| FabricError::Protocol(format!("encode response: {e}"))),
    }
}

/// Decodes an upstream (worker → coordinator) response payload. A
/// malformed board frame, and a board sent as JSON, is a
/// [`FabricError::Protocol`].
pub fn decode_response(payload: &[u8]) -> Result<FabricResponse, FabricError> {
    if let Some((&BOARD_TAG, body)) = payload.split_first() {
        return decode_board(body)
            .map(FabricResponse::Board)
            .map_err(|e| FabricError::Protocol(format!("malformed board frame: {e}")));
    }
    match serde_json::from_slice(payload) {
        Ok(FabricResponse::Board(_)) => Err(FabricError::Protocol(
            "a board must be a binary frame, not JSON".to_string(),
        )),
        Ok(response) => Ok(response),
        Err(e) => Err(FabricError::Protocol(format!(
            "undecodable fabric response: {e}"
        ))),
    }
}

fn encode_board(frame: &BoardFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 16 * frame.board.len());
    out.push(BOARD_TAG);
    let (at, spans) = (frame.board.at().as_secs(), frame.spans.len() as u64);
    put_varint(&mut out, frame.shard as u64);
    for v in [frame.epoch, frame.seq, frame.score_ns, at, spans] {
        put_varint(&mut out, v);
    }
    for span in &frame.spans {
        put_string(&mut out, &span.stage);
        put_string(&mut out, &span.worker);
        let flag = u64::from(span.shard.is_some());
        for v in [span.start_ns, span.dur_ns, flag, span.shard.unwrap_or(0)] {
            put_varint(&mut out, v);
        }
    }
    put_varint(&mut out, frame.board.len() as u64);
    for (pair, score) in frame.board.pair_scores() {
        for m in [pair.first(), pair.second()] {
            put_varint(&mut out, u64::from(m.machine().index()));
            put_varint(&mut out, u64::from(m.metric().code()));
        }
        out.extend_from_slice(&score.to_bits().to_le_bytes());
    }
    out
}

/// Parses a board frame body (after the tag): canonical encodings
/// only, and no count is trusted further than the bytes left could
/// hold (a span takes at least 6 bytes, a pair 12).
fn decode_board(body: &[u8]) -> Result<BoardFrame, Box<dyn Error>> {
    let mut r = Reader::new(body);
    let shard = narrow(r.varint()?, "shard")? as usize;
    let [epoch, seq, score_ns, at] = [r.varint()?, r.varint()?, r.varint()?, r.varint()?];
    let n = count(&mut r, 6)?;
    let mut spans = Vec::with_capacity(n);
    for _ in 0..n {
        let (stage, worker) = (r.string()?, r.string()?);
        let [start_ns, dur_ns, flag, shard] = [r.varint()?, r.varint()?, r.varint()?, r.varint()?];
        let shard = match (flag, shard) {
            (0, 0) => None,
            (1, shard) => Some(shard),
            _ => return Err(format!("span shard flag {flag} with shard {shard}").into()),
        };
        spans.push(SpanSlice {
            stage,
            start_ns,
            dur_ns,
            shard,
            worker,
        });
    }
    let mut board = ScoreBoard::new(Timestamp::from_secs(at));
    let mut last: Option<MeasurementPair> = None;
    for _ in 0..count(&mut r, 12)? {
        let (a, b) = (measurement(&mut r)?, measurement(&mut r)?);
        let pair = MeasurementPair::new(a, b).ok_or_else(|| format!("self-pair of {a}"))?;
        if pair.first() != a || last.is_some_and(|last| last >= pair) {
            return Err(format!("pair {a} ~ {b} is out of canonical order").into());
        }
        let bits: [u8; 8] = r.take(8)?.try_into()?;
        board.record(pair, f64::from_bits(u64::from_le_bytes(bits)));
        last = Some(pair);
    }
    if !r.is_empty() {
        return Err(format!("{} trailing bytes", r.remaining()).into());
    }
    Ok(BoardFrame {
        shard,
        epoch,
        seq,
        score_ns,
        spans,
        board,
    })
}

/// Reads a count of items that take at least `min_bytes` each.
fn count(r: &mut Reader<'_>, min_bytes: usize) -> Result<usize, Box<dyn Error>> {
    let n = r.varint()?;
    let left = r.remaining();
    let fits = usize::try_from(n).ok().filter(|&n| n <= left / min_bytes);
    fits.ok_or_else(|| format!("count {n} overruns the {left} bytes left").into())
}

fn narrow(v: u64, what: &str) -> Result<u32, String> {
    u32::try_from(v).map_err(|_| format!("{what} {v} out of range"))
}

fn measurement(r: &mut Reader<'_>) -> Result<MeasurementId, Box<dyn Error>> {
    let machine = MachineId::new(narrow(r.varint()?, "machine")?);
    let code = r.varint()?;
    let metric = u32::try_from(code).ok().and_then(MetricKind::from_code);
    let metric = metric.ok_or_else(|| format!("unknown metric code {code}"))?;
    Ok(MeasurementId::new(machine, metric))
}

/// What a downstream (coordinator → worker) payload turned out to be.
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
        may_block();
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
            may_block();
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
            let session = SessionSlot::open(&self.session, &stream);
            let end = session_loop(stream, &self.summary, &self.obs);
            drop(session);
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

/// The controller's clone of the live session socket, cleared when the
/// session ends, by return or by unwind: a clone left open after a
/// panicking session would keep the coordinator's reader from ever
/// seeing EOF, and its shutdown from ever finishing.
struct SessionSlot<'a>(&'a LeafMutex<Option<TcpStream>>);

impl<'a> SessionSlot<'a> {
    fn open(slot: &'a LeafMutex<Option<TcpStream>>, stream: &TcpStream) -> SessionSlot<'a> {
        *slot.lock() = stream.try_clone().ok();
        SessionSlot(slot)
    }
}

impl Drop for SessionSlot<'_> {
    fn drop(&mut self) {
        *self.0.lock() = None;
    }
}

/// One coordinator session: handshake, then score snapshots and answer
/// checkpoint markers until EOF or `Shutdown`.
fn session_loop(
    mut stream: TcpStream,
    summary: &LeafMutex<WorkerSummary>,
    obs: &PipelineObs,
) -> Result<SessionEnd, FabricError> {
    // Boards are small and latency-bound: send each as soon as it is
    // written.
    stream.set_nodelay(true).map_err(io_ctx("nodelay"))?;
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
            // and sharing this worker's flight recorder so rebuild
            // events reach it.
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
    use proptest::prelude::*;

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

    /// A board's fields with every score as its bit pattern, so NaN
    /// compares equal to itself.
    fn board_bits(frame: &BoardFrame) -> impl PartialEq + std::fmt::Debug {
        let scores: Vec<(MeasurementPair, u64)> = frame
            .board
            .pair_scores()
            .map(|(pair, score)| (pair, score.to_bits()))
            .collect();
        let header = (frame.shard, frame.epoch, frame.seq, frame.score_ns);
        (header, frame.spans.clone(), frame.board.at(), scores)
    }

    fn decoded_board(bytes: &[u8]) -> Result<BoardFrame, FabricError> {
        match decode_response(bytes)? {
            FabricResponse::Board(frame) => Ok(frame),
            other => panic!("expected a board, got {other:?}"),
        }
    }

    /// Scores that JSON could not carry bit for bit, or at all.
    const AWKWARD_SCORES: [f64; 7] = [
        -0.0,
        0.0,
        1.0,
        f64::MIN_POSITIVE / 2.0,
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
    ];

    proptest! {
        /// Any board — any header, spans or none, any machine, any
        /// metric code, any score bits — decodes to exactly the frame
        /// that was encoded, and every strict prefix of it is an error.
        #[test]
        fn board_frames_roundtrip_bit_for_bit_and_no_prefix_parses(
            header in (0usize..1 << 20, any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            spans in prop::collection::vec((any::<u64>(), any::<u64>(), 0u64..3), 0..3),
            ids in prop::collection::vec((0u32..6, 0u32..6), 2..24),
            scores in prop::collection::vec(any::<u64>(), 0..300),
        ) {
            let (shard, epoch, seq, score_ns, at) = header;
            // Endpoints drawn from small indices into lists that hold
            // the extremes: MachineId(u32::MAX), Custom(0), Custom(MAX).
            let machines = [0, 1, 2, 1_000, u32::MAX - 1, u32::MAX];
            let metrics = [0, 4, 8, 9, 9 + 300, 9 + u32::from(u16::MAX)];
            let ids: Vec<MeasurementId> = ids
                .iter()
                .map(|&(m, k)| {
                    let metric = MetricKind::from_code(metrics[k as usize]).unwrap();
                    MeasurementId::new(MachineId::new(machines[m as usize]), metric)
                })
                .collect();
            let mut board = ScoreBoard::new(Timestamp::from_secs(at));
            let mut bits = scores.iter();
            for (i, &a) in ids.iter().enumerate() {
                for &b in &ids[i + 1..] {
                    if let (Some(pair), Some(&raw)) = (MeasurementPair::new(a, b), bits.next()) {
                        let awkward = AWKWARD_SCORES.get(raw as usize % 16).copied();
                        board.record(pair, awkward.unwrap_or(f64::from_bits(raw)));
                    }
                }
            }
            let spans = spans
                .into_iter()
                .map(|(start_ns, dur_ns, shard)| SpanSlice {
                    shard: shard.checked_sub(1),
                    ..SpanSlice::new(Stage::ALL[(dur_ns % 7) as usize], start_ns, dur_ns, "worker-3")
                })
                .collect();
            let frame = BoardFrame { shard, epoch, seq, score_ns, spans, board };
            let bytes = encode_response(&FabricResponse::Board(frame.clone())).unwrap();
            prop_assert_eq!(bytes[0], BOARD_TAG);
            prop_assert_eq!(board_bits(&decoded_board(&bytes).unwrap()), board_bits(&frame));
            for cut in 0..bytes.len() {
                prop_assert!(decode_response(&bytes[..cut]).is_err(), "prefix of {} bytes parsed", cut);
            }
        }
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

    /// A board frame assembled field by field so a test can forge any
    /// of them: each entry of `ids` is one pair's machine and metric
    /// code for both endpoints.
    fn forged(shard: u64, spans: u64, ids: &[[u64; 4]]) -> Vec<u8> {
        let mut out = vec![BOARD_TAG];
        for v in [shard, 7, 41, 1_250, 360, spans, ids.len() as u64] {
            put_varint(&mut out, v);
        }
        for pair in ids {
            for &v in pair {
                put_varint(&mut out, v);
            }
            out.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
        }
        out
    }

    #[test]
    fn malformed_board_frames_are_protocol_errors() {
        let good = forged(0, 0, &[[0, 0, 1, 0], [0, 1, 1, 0]]);
        assert_eq!(decoded_board(&good).unwrap().board.len(), 2);

        let mut trailing = good.clone();
        trailing.push(0);
        let mut pair_count = forged(0, 0, &[]);
        pair_count.pop();
        put_varint(&mut pair_count, 1 << 40);
        let mut span_flag = forged(0, 1, &[]);
        span_flag.pop();
        span_flag.extend_from_slice(&[0, 0, 0, 0, 2, 0]);
        let json_board = format!(
            "{{\"Board\":{{\"shard\":2,\"epoch\":7,\"seq\":41,\"score_ns\":0,\"spans\":[],\"board\":{}}}}}",
            serde_json::to_string(&ScoreBoard::new(Timestamp::from_secs(360))).unwrap()
        );
        let cases: [(&str, Vec<u8>); 12] = [
            ("trailing bytes", trailing),
            ("shard out of range", forged(1 << 32, 0, &[[0, 0, 1, 0]])),
            (
                "unknown metric code",
                forged(0, 0, &[[0, 9 + 65_536, 1, 0]]),
            ),
            ("machine out of range", forged(0, 0, &[[0, 0, 1 << 32, 0]])),
            ("self-pair", forged(0, 0, &[[3, 2, 3, 2]])),
            ("endpoints decreasing", forged(0, 0, &[[1, 0, 0, 0]])),
            (
                "pairs decreasing",
                forged(0, 0, &[[0, 1, 1, 0], [0, 0, 1, 0]]),
            ),
            ("pair repeated", forged(0, 0, &[[0, 0, 1, 0], [0, 0, 1, 0]])),
            ("span count beyond the bytes", forged(0, 1 << 40, &[])),
            ("pair count beyond the bytes", pair_count),
            ("span shard flag", span_flag),
            ("a JSON board", json_board.into_bytes()),
        ];
        for (what, bytes) in cases {
            match decode_response(&bytes) {
                Err(FabricError::Protocol(_)) => {}
                other => panic!("{what}: expected a protocol error, got {other:?}"),
            }
        }
    }

    #[test]
    fn pre_obs_wire_frames_still_parse() {
        // A Hello from a coordinator predating `trace` defaults to off.
        let state = EngineSnapshot {
            config: EngineConfig::default(),
            models: Vec::new(),
            tracker: AlarmTracker::new(),
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
