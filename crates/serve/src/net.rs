//! TCP snapshot ingestion in front of the sharded engine.
//!
//! # Architecture
//!
//! ```text
//!  clients ──► [accept thread] ─spawns─► [conn thread]*    (one per socket)
//!                                            │ WireFrame
//!                                            ▼
//!                              bounded frame channel (BackpressurePolicy)
//!                                            │
//!                                            ▼
//!                                      [ingest thread]
//!                                  SourceTable ➜ ShardedEngine
//!                                  periodic checkpoints + stats flush
//! ```
//!
//! Each connection runs its own [`FrameDecoder`] state machine, so
//! truncated frames, interleaved partial writes, garbage bytes, and
//! oversized claims are contained to that connection: the decoder turns
//! them into typed [`DecodeError`]s, the connection is closed and
//! counted, and every other client keeps streaming. Decoded frames cross
//! one bounded channel where the configured [`BackpressurePolicy`]
//! applies at the socket boundary — `block` never loses a frame (the
//! client's TCP window absorbs the stall), `reject` refuses frames while
//! the channel is full. Either way a frame is whole or gone before it is
//! sequenced.
//!
//! The ingest thread owns the engine. It runs admitted frames through a
//! [`SourceTable`] — duplicates from reconnect-with-replay are absorbed,
//! out-of-order frames are re-ordered within a bounded window, and a
//! window overflow abandons the gap rather than wedging the stream — so
//! under the lossless policy the engine sees exactly the sequence the
//! sources sent, and the merged [`StepReport`] stream is bit-identical
//! to an offline replay of the same snapshots.
//!
//! Shutdown is graceful by construction: the accept loop is woken and
//! stopped first, every open socket is shut down (unblocking reads),
//! connection threads drain what they already buffered, and only when
//! every frame sender is gone does the ingest thread take its final
//! checkpoint (with per-source progress inside the manifest) and stop
//! the engine.

#![cfg_attr(
    not(test),
    forbid(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::BTreeMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use gridwatch_sync::channel::{self, Receiver, Sender, TrySendError};
// `LeafMutex` wraps `parking_lot::Mutex`, which does not poison: a
// panicking stats writer cannot force every other thread to unwrap a
// poisoned lock, which keeps the accept/ingest paths free of
// `unwrap()/expect()`. Debug builds also check that no lock nests under
// another and no blocking call runs under one (see `gridwatch-sync`).
use gridwatch_sync::{may_block, LeafMutex};

use gridwatch_detect::{EngineSnapshot, StepReport};
use gridwatch_obs::{PipelineObs, Stage};

use crate::checkpoint::write_atomic;
use crate::engine::{ServeConfig, ShardedEngine, StatsProbe};
use crate::ingest::BackpressurePolicy;
use crate::sequence::{Admission, SourceTable};
use crate::stats::{ConnStats, NetStats, ServeStats};
use crate::wire::{FrameDecoder, WireFrame, WireProtocol};

/// Configuration of the TCP ingestion tier (the engine's own knobs live
/// in [`ServeConfig`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Accepted encoding; [`WireProtocol::Auto`] detects per connection.
    pub protocol: WireProtocol,
    /// Read deadline per `read` call; a connection that stays silent (or
    /// dribbles nothing) past it is closed and counted as a timeout.
    /// `Duration::ZERO` disables the deadline.
    pub read_timeout: Duration,
    /// Largest accepted frame (JSON payload or CSV line) in bytes.
    pub max_frame_bytes: usize,
    /// Bounded capacity of the socket-boundary frame channel.
    pub ingest_capacity: usize,
    /// Early frames buffered per source before a sequence gap is
    /// abandoned.
    pub reorder_capacity: usize,
    /// Where to checkpoint; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Applied snapshots between periodic checkpoints; `0` checkpoints
    /// only at shutdown.
    pub checkpoint_every: u64,
    /// Where to flush a [`ServeStats`] JSON dump at every checkpoint and
    /// at shutdown; `None` disables the dump.
    pub stats_path: Option<PathBuf>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            protocol: WireProtocol::Auto,
            read_timeout: Duration::from_secs(30),
            max_frame_bytes: 1 << 20,
            ingest_capacity: 256,
            reorder_capacity: 64,
            checkpoint_dir: None,
            checkpoint_every: 0,
            stats_path: None,
        }
    }
}

/// What happened to one frame at the socket boundary.
#[derive(Debug, PartialEq, Eq)]
enum Delivery {
    /// The frame entered the channel without losses.
    Delivered,
    /// The channel was full under [`BackpressurePolicy::Reject`]; the
    /// frame was discarded.
    Rejected,
    /// The ingest side of the channel is gone (shutdown already
    /// stopped it, or it died); the connection should stop reading.
    IngestGone,
}

/// Applies the backpressure policy to one frame at the channel mouth.
///
/// A disconnected channel is reported as [`Delivery::IngestGone`], never
/// a panic: a connection thread racing shutdown must wind down quietly
/// instead of taking the listener's stats with it.
fn deliver(policy: BackpressurePolicy, tx: &Sender<WireFrame>, frame: WireFrame) -> Delivery {
    match policy {
        BackpressurePolicy::Block => match tx.send(frame) {
            Ok(()) => Delivery::Delivered,
            Err(_) => Delivery::IngestGone,
        },
        BackpressurePolicy::Reject => match tx.try_send(frame) {
            Ok(()) => Delivery::Delivered,
            Err(TrySendError::Full(_)) => Delivery::Rejected,
            Err(TrySendError::Disconnected(_)) => Delivery::IngestGone,
        },
    }
}

type Shared<T> = Arc<LeafMutex<T>>;

/// Socket clones + join handles of live connection threads, kept so
/// shutdown can unblock and join every one of them.
#[derive(Default)]
struct ConnRegistry {
    entries: Vec<(TcpStream, JoinHandle<()>)>,
}

/// A TCP listener feeding a [`ShardedEngine`].
///
/// Built with [`NetServer::bind`]; reports stream out through
/// [`NetServer::try_recv_report`] / [`NetServer::recv_report_timeout`];
/// torn down with [`NetServer::shutdown`], which drains in-flight frames
/// and takes a final checkpoint before stopping the engine.
pub struct NetServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    ingest: Option<JoinHandle<Vec<StepReport>>>,
    conns: Shared<ConnRegistry>,
    frame_tx: Option<Sender<WireFrame>>,
    reports_rx: Receiver<StepReport>,
    /// The engine's probe, carrying the listener-wide wire counters
    /// (and per-connection table) the accept, connection and ingest
    /// threads count into.
    probe: StatsProbe,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetServer({})", self.local_addr)
    }
}

impl NetServer {
    /// Binds `addr`, starts the engine from a trained snapshot, and
    /// begins accepting connections. `sources` seeds the per-source
    /// sequencing table — pass a recovered manifest's
    /// [`crate::CheckpointManifest::sources`] so a resumed listener
    /// absorbs replayed frames as duplicates.
    ///
    /// # Errors
    ///
    /// Fails when the address cannot be parsed or bound (busy port,
    /// missing interface), or when a worker thread cannot spawn.
    ///
    /// # Panics
    ///
    /// Panics when `net.ingest_capacity`, `net.reorder_capacity`, or
    /// `net.max_frame_bytes` is zero.
    pub fn bind(
        addr: impl ToSocketAddrs,
        snapshot: EngineSnapshot,
        serve: ServeConfig,
        net: NetConfig,
        sources: BTreeMap<String, u64>,
    ) -> io::Result<NetServer> {
        NetServer::bind_with_obs(addr, snapshot, serve, net, sources, PipelineObs::disabled())
    }

    /// [`NetServer::bind`] with explicit observability handles: the
    /// tracer additionally times the `ingest → decode → sequence`
    /// wire-side stages, and the flight recorder captures connection
    /// lifecycle and fault events.
    ///
    /// # Errors
    ///
    /// Same as [`NetServer::bind`].
    ///
    /// # Panics
    ///
    /// Same as [`NetServer::bind`].
    pub fn bind_with_obs(
        addr: impl ToSocketAddrs,
        snapshot: EngineSnapshot,
        serve: ServeConfig,
        net: NetConfig,
        sources: BTreeMap<String, u64>,
        obs: PipelineObs,
    ) -> io::Result<NetServer> {
        assert!(net.ingest_capacity > 0, "ingest capacity must be positive");
        assert!(net.max_frame_bytes > 0, "frame limit must be positive");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;

        let engine = ShardedEngine::start_with_obs(snapshot, serve, obs.clone());
        let net_acc: Shared<NetStats> = Arc::new(LeafMutex::new(NetStats::default()));
        let mut probe = engine.stats_probe();
        probe.net = Some(Arc::clone(&net_acc));
        let reports_rx = engine.reports_receiver();
        let table = SourceTable::resume(net.reorder_capacity, sources);

        let (frame_tx, frame_rx) = channel::bounded::<WireFrame>(net.ingest_capacity);
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Shared<ConnRegistry> = Arc::new(LeafMutex::new(ConnRegistry::default()));

        let ingest = {
            let probe = probe.clone();
            let net_acc = Arc::clone(&net_acc);
            let cfg = net.clone();
            std::thread::Builder::new()
                .name("gw-net-ingest".to_string())
                .spawn(move || ingest_loop(engine, table, frame_rx, probe, net_acc, cfg))?
        };

        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let net_acc = Arc::clone(&net_acc);
            let tx = frame_tx.clone();
            let policy = serve.backpressure;
            let cfg = net.clone();
            let obs = obs.clone();
            let spawned = std::thread::Builder::new()
                .name("gw-net-accept".to_string())
                .spawn(move || accept_loop(listener, stop, conns, net_acc, tx, policy, cfg, obs));
            match spawned {
                Ok(handle) => handle,
                Err(e) => {
                    // The ingest thread already owns the engine; drop the
                    // last sender so it drains, checkpoints, and stops the
                    // engine before we report the spawn failure.
                    drop(frame_tx);
                    may_block();
                    let _ = ingest.join();
                    return Err(e);
                }
            }
        };

        Ok(NetServer {
            local_addr,
            stop,
            accept: Some(accept),
            ingest: Some(ingest),
            conns,
            frame_tx: Some(frame_tx),
            reports_rx,
            probe,
        })
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A merged report, if one is ready.
    pub fn try_recv_report(&self) -> Option<StepReport> {
        self.reports_rx.try_recv().ok()
    }

    /// Waits up to `timeout` for the next merged report.
    pub fn recv_report_timeout(&self, timeout: Duration) -> Option<StepReport> {
        self.reports_rx.recv_timeout(timeout).ok()
    }

    /// Current serving statistics, wire-path counters included.
    pub fn stats(&self) -> ServeStats {
        self.probe.stats()
    }

    /// The listener's observability handles (shared with its threads).
    pub fn obs(&self) -> &PipelineObs {
        self.probe.obs()
    }

    /// A detachable handle serving live scrapes of this listener:
    /// engine counters, wire counters, and stage spans. Holding one
    /// never blocks shutdown.
    pub fn metrics_probe(&self) -> StatsProbe {
        self.probe.clone()
    }

    /// Stops the listener gracefully: stops accepting, unblocks and
    /// joins every connection (frames already buffered are decoded and
    /// delivered), lets the ingest thread drain the channel, take its
    /// final checkpoint, and stop the engine. Returns the reports not
    /// yet consumed plus final statistics.
    pub fn shutdown(mut self) -> (Vec<StepReport>, ServeStats) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop sits in a blocking accept; a throwaway
        // connection to ourselves wakes it so it can observe the flag.
        may_block();
        drop(TcpStream::connect(self.local_addr));
        if let Some(accept) = self.accept.take() {
            may_block();
            if accept.join().is_err() {
                gridwatch_obs::error!(
                    "net",
                    "gridwatch-serve: accept thread panicked; continuing shutdown"
                );
            }
        }
        // Unblock every connection read, then join the handlers; each
        // drains its decoder before exiting, so buffered frames are not
        // lost.
        let entries = std::mem::take(&mut self.conns.lock().entries);
        for (stream, _) in &entries {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        for (_, handle) in entries {
            may_block();
            if handle.join().is_err() {
                gridwatch_obs::error!(
                    "net",
                    "gridwatch-serve: connection thread panicked; continuing shutdown"
                );
            }
        }
        // Ours is the last frame sender: dropping it lets the ingest
        // thread finish draining, checkpoint, and stop the engine.
        drop(self.frame_tx.take());
        may_block();
        let mut reports = match self.ingest.take().map(JoinHandle::join) {
            Some(Ok(drained)) => drained,
            // A dead ingest thread (or a double shutdown, which the
            // consuming receiver makes impossible) still yields the
            // stats the probe has been accumulating.
            Some(Err(_)) | None => {
                gridwatch_obs::error!(
                    "net",
                    "gridwatch-serve: ingest thread panicked; reporting partial stats"
                );
                Vec::new()
            }
        };
        // Anything the engine left on the report channel that the
        // caller did not consume yet.
        while let Ok(report) = self.reports_rx.try_recv() {
            reports.push(report);
        }
        // Every thread that counts is joined: this is the final document.
        (reports, self.probe.stats())
    }
}

/// Accepts connections until the stop flag is raised, spawning one
/// handler thread per socket.
#[expect(clippy::too_many_arguments, reason = "a thread body takes its handles")]
fn accept_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    conns: Shared<ConnRegistry>,
    net_acc: Shared<NetStats>,
    tx: Sender<WireFrame>,
    policy: BackpressurePolicy,
    cfg: NetConfig,
    obs: PipelineObs,
) {
    loop {
        may_block();
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) if stop.load(Ordering::SeqCst) => break,
            // Transient accept failure (e.g. the peer reset before we
            // got to it); keep listening.
            Err(_) => continue,
        };
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        let conn_id = {
            let mut acc = net_acc.lock();
            acc.accepted += 1;
            let conn_id = acc.connections.len();
            acc.connections.push(ConnStats {
                conn: conn_id as u64,
                peer: peer.clone(),
                protocol: "unknown".to_string(),
                open: true,
                ..ConnStats::default()
            });
            conn_id
        };
        obs.recorder
            .record("conn-open", format_args!("conn {conn_id} peer {peer}"));
        let reader = match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => {
                let mut acc = net_acc.lock();
                acc.closed += 1;
                acc.connections[conn_id].open = false;
                continue;
            }
        };
        let spawned = {
            let net_acc = Arc::clone(&net_acc);
            let tx = tx.clone();
            let cfg = cfg.clone();
            let obs = obs.clone();
            std::thread::Builder::new()
                .name(format!("gw-net-conn-{conn_id}"))
                .spawn(move || conn_loop(conn_id, reader, net_acc, tx, policy, cfg, obs))
        };
        let handle = match spawned {
            Ok(handle) => handle,
            Err(e) => {
                // Out of threads is a load condition, not a listener
                // defect: refuse this connection and keep accepting.
                gridwatch_obs::error!(
                    "net",
                    "gridwatch-serve: cannot spawn connection thread: {e}"
                );
                let _ = stream.shutdown(std::net::Shutdown::Both);
                let mut acc = net_acc.lock();
                acc.closed += 1;
                acc.connections[conn_id].open = false;
                continue;
            }
        };
        conns.lock().entries.push((stream, handle));
    }
}

/// One connection: read bytes, decode frames, deliver with backpressure,
/// account every outcome.
fn conn_loop(
    conn: usize,
    mut stream: TcpStream,
    net_acc: Shared<NetStats>,
    tx: Sender<WireFrame>,
    policy: BackpressurePolicy,
    cfg: NetConfig,
    obs: PipelineObs,
) {
    if cfg.read_timeout > Duration::ZERO {
        if let Err(e) = stream.set_read_timeout(Some(cfg.read_timeout)) {
            // A connection without a read deadline can hold its slot
            // forever (slow-loris with no timeout to trip); refuse to
            // serve it unprotected rather than ignoring the failure.
            gridwatch_obs::error!(
                "net",
                "gridwatch-serve: cannot arm read deadline on conn {conn}: {e}"
            );
            obs.recorder
                .record("deadline-failure", format_args!("conn {conn}: {e}"));
            let _ = stream.shutdown(std::net::Shutdown::Both);
            let mut acc = net_acc.lock();
            acc.deadline_failures += 1;
            acc.closed += 1;
            acc.connections[conn].open = false;
            return;
        }
    }
    let mut decoder = FrameDecoder::new(cfg.protocol, cfg.max_frame_bytes);
    let mut buf = [0u8; 8 * 1024];
    let mut named_protocol = false;
    'read: loop {
        // The Ingest span covers the blocking read: time-to-bytes as
        // seen from the server, socket wait included.
        let ingest = obs.span(Stage::Ingest);
        let read = stream.read(&mut buf);
        drop(ingest);
        match read {
            Ok(0) => {
                // Clean EOF — unless it truncated a frame mid-flight.
                if decoder.eof_error().is_some() {
                    obs.recorder.record(
                        "decode-error",
                        format_args!("conn {conn}: truncated at EOF"),
                    );
                    let mut acc = net_acc.lock();
                    acc.decode_errors += 1;
                    acc.connections[conn].decode_errors += 1;
                }
                break 'read;
            }
            Ok(n) => {
                decoder.push(&buf[..n]);
                loop {
                    // Span each `next_frame` slice separately so the
                    // Decode distribution never absorbs the blocking
                    // `deliver` below.
                    let decode = obs.span(Stage::Decode);
                    let next = decoder.next_frame();
                    drop(decode);
                    match next {
                        Ok(Some(frame)) => {
                            if !named_protocol {
                                if let Some(name) = decoder.protocol_name() {
                                    net_acc.lock().connections[conn].protocol = name.to_string();
                                    named_protocol = true;
                                }
                            }
                            let outcome = deliver(policy, &tx, frame);
                            let mut acc = net_acc.lock();
                            match outcome {
                                Delivery::Delivered => {
                                    acc.frames += 1;
                                    acc.connections[conn].frames += 1;
                                }
                                Delivery::Rejected => {
                                    acc.rejected += 1;
                                    acc.connections[conn].rejected += 1;
                                }
                                Delivery::IngestGone => {
                                    // Shutdown race: the ingest thread is
                                    // gone, so stop reading this socket.
                                    drop(acc);
                                    break 'read;
                                }
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // The stream is unsynchronized; close it.
                            gridwatch_obs::warn!(
                                "net",
                                "gridwatch-serve: decode error on conn {conn}: {e}"
                            );
                            obs.recorder
                                .record("decode-error", format_args!("conn {conn}: {e}"));
                            let mut acc = net_acc.lock();
                            acc.decode_errors += 1;
                            acc.connections[conn].decode_errors += 1;
                            break 'read;
                        }
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Slow-loris or idle client: past the read deadline.
                obs.recorder
                    .record("timeout", format_args!("conn {conn} hit the read deadline"));
                let mut acc = net_acc.lock();
                acc.timeouts += 1;
                acc.connections[conn].timeouts += 1;
                break 'read;
            }
            Err(_) => break 'read,
        }
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    obs.recorder
        .record("conn-close", format_args!("conn {conn}"));
    let mut acc = net_acc.lock();
    acc.closed += 1;
    acc.connections[conn].open = false;
}

/// The ingest thread: sequences frames per source, feeds the engine,
/// checkpoints periodically and at shutdown, and flushes stats dumps.
fn ingest_loop(
    mut engine: ShardedEngine,
    mut table: SourceTable,
    frame_rx: Receiver<WireFrame>,
    probe: StatsProbe,
    net_acc: Shared<NetStats>,
    cfg: NetConfig,
) -> Vec<StepReport> {
    let obs = probe.obs();
    let mut since_checkpoint = 0u64;
    while let Ok(frame) = frame_rx.recv() {
        let source = frame.source.clone();
        let sequence = obs.span(Stage::Sequence);
        let admission = table.admit(&frame.source, frame.seq, frame.snapshot);
        // The Sequence slice is shared by every snapshot this admission
        // releases (one reorder resolution can free a whole buffered
        // run).
        let sequence = sequence.into_slice("ingest");
        let ready = match admission {
            Admission::Ready(snaps) => snaps,
            Admission::Buffered => {
                net_acc.lock().out_of_order += 1;
                continue;
            }
            Admission::Duplicate => {
                net_acc.lock().duplicates += 1;
                continue;
            }
            Admission::GapAbandoned { skipped, released } => {
                gridwatch_obs::warn!(
                    "net",
                    "gridwatch-serve: abandoned {skipped} frame(s) from source {source}"
                );
                obs.recorder.record(
                    "gap-skip",
                    format_args!("source {source}: {skipped} seq(s) abandoned"),
                );
                net_acc.lock().gap_skips += skipped;
                released
            }
        };
        table.check_window_bound();
        for snap in ready {
            engine.submit_traced(snap, &source, sequence.as_slice());
            since_checkpoint += 1;
        }
        if cfg.checkpoint_every > 0 && since_checkpoint >= cfg.checkpoint_every {
            since_checkpoint = 0;
            run_checkpoint(&mut engine, &table, &probe, &net_acc, &cfg);
        }
    }
    // Every sender is gone: the stream is drained. Take the final cut.
    run_checkpoint(&mut engine, &table, &probe, &net_acc, &cfg);
    engine.shutdown().0
}

/// One periodic (or final) checkpoint plus the stats-file flush. Both
/// are best-effort: a failure is counted, and the stream keeps flowing.
fn run_checkpoint(
    engine: &mut ShardedEngine,
    table: &SourceTable,
    probe: &StatsProbe,
    net_acc: &Shared<NetStats>,
    cfg: &NetConfig,
) {
    if let Some(dir) = &cfg.checkpoint_dir {
        if let Err(e) = engine.checkpoint_with_sources(dir, table.progress()) {
            gridwatch_obs::error!("net", "gridwatch-serve: checkpoint failed: {e}");
            probe
                .obs()
                .recorder
                .record("checkpoint-failure", format_args!("{e}"));
            net_acc.lock().checkpoint_failures += 1;
        }
    }
    if let Some(path) = &cfg.stats_path {
        let _ = write_atomic(path, &probe.stats().to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use gridwatch_detect::Snapshot;
    use gridwatch_timeseries::Timestamp;

    fn frame(seq: u64) -> WireFrame {
        WireFrame {
            source: "t".to_string(),
            seq,
            snapshot: Snapshot::new(Timestamp::from_secs(seq * 360)),
        }
    }

    #[test]
    fn block_policy_delivers_everything() {
        let (tx, rx) = channel::bounded(4);
        for k in 0..4 {
            assert_eq!(
                deliver(BackpressurePolicy::Block, &tx, frame(k)),
                Delivery::Delivered
            );
        }
        assert_eq!(rx.len(), 4);
    }

    #[test]
    fn reject_policy_refuses_when_full() {
        let (tx, rx) = channel::bounded(2);
        assert_eq!(
            deliver(BackpressurePolicy::Reject, &tx, frame(0)),
            Delivery::Delivered
        );
        assert_eq!(
            deliver(BackpressurePolicy::Reject, &tx, frame(1)),
            Delivery::Delivered
        );
        assert_eq!(
            deliver(BackpressurePolicy::Reject, &tx, frame(2)),
            Delivery::Rejected
        );
        // The queued frames are untouched.
        assert_eq!(rx.recv().unwrap().seq, 0);
        assert_eq!(rx.recv().unwrap().seq, 1);
    }
}
