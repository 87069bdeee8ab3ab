//! gridwatch-serve: sharded concurrent online detection service.
//!
//! Partitions the measurement pairs of a trained
//! [`gridwatch_detect::DetectionEngine`] across worker shards, fans
//! snapshots out over bounded channels with configurable backpressure,
//! merges per-shard partial scores into exact three-level aggregates, and
//! checkpoints per-shard engine state atomically for crash recovery.
//!
//! The [`net`] module puts a TCP ingestion tier in front of the engine:
//! framed snapshot decoding ([`wire`]), per-source sequencing
//! ([`sequence`]), and a listener with backpressure at the socket
//! boundary ([`NetServer`]).
//!
//! The [`remote`] and [`coordinator`] modules extend the sharding
//! across processes: `gridwatch shard-worker` serves one shard's
//! models over TCP, and a [`Coordinator`] fans snapshots out and
//! merges the returned partial boards into the same in-order report
//! stream, with epoch fencing and checkpoint-transfer migration when a
//! worker dies.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::disallowed_methods,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod checkpoint;
pub mod coordinator;
pub mod engine;
pub mod history;
pub mod ingest;
mod merge;
pub mod net;
pub mod remote;
pub mod router;
pub mod sequence;
pub mod stats;
pub mod wire;

pub use checkpoint::{
    write_atomic, CheckpointError, CheckpointManifest, Checkpointer, RemoteShard,
};
pub use coordinator::{
    Coordinator, CoordinatorMetricsProbe, FabricConfig, FabricStats, COORDINATOR_SOURCE,
};
pub use engine::{ServeConfig, ShardedEngine, StatsProbe};
pub use history::{score_rows, HistoryDepth, HistorySink};
pub use ingest::BackpressurePolicy;
pub use net::{NetConfig, NetServer};
pub use remote::{
    decode_downstream, decode_response, encode_control, encode_response, read_frame, write_frame,
    BoardFrame, Downstream, FabricControl, FabricError, FabricResponse, ShardWorker,
    WorkerController, WorkerMetricsProbe, WorkerSummary, FABRIC_FRAME_LIMIT,
};
pub use router::ShardRouter;
pub use sequence::{Admission, SourceTable, MAX_COUNTED_GAP};
pub use stats::{ConnStats, NetStats, ServeStats, ShardStats};
pub use wire::{
    encode_csv, encode_json, DecodeError, EncodeError, FrameDecoder, WireFrame, WireProtocol,
};
