//! gridwatch-store: an embedded, append-only, time-partitioned history
//! store for the gridwatch serving stack — no external storage engine,
//! no new dependencies.
//!
//! The serving pipeline produces three streams worth keeping: fitness
//! scores (the paper's `Q_t` / `Q^a_t` / `Q^{a,b}_t` board), serving
//! stats samples, and alarm/incident events. This crate persists all
//! three through one write path:
//!
//! ```text
//! append ──▶ WAL (checksummed frames, fsync-batched) ──▶ sync: durable
//!                    │ seal (checkpoint cadence)
//!                    ▼
//!         time partitions of columnar blocks
//!         (delta+RLE ints, XOR+RLE f64 bits, dictionary strings)
//!                    │ retention
//!                    ▼
//!         expired partitions dropped atomically
//! ```
//!
//! Guarantees:
//!
//! * **Crash consistency** — reopening after a crash recovers exactly
//!   the records covered by the last completed [`HistoryStore::sync`];
//!   a torn tail is truncated, never misread. A crash mid-seal
//!   duplicates nothing: sequence numbers dedup WAL against blocks.
//! * **Bit-exact scores** — `f64` values travel as raw IEEE-754 bits;
//!   what the detection engine computed is what a query returns.
//! * **Self-checking at-rest format** — every WAL frame and every block
//!   carries a CRC-32; [`validate_store`] audits a store offline.
//!
//! Entry points: [`HistoryStore`] to write and scan, [`validate_store`]
//! to audit, [`query`] for CLI-grade summaries.

#![warn(missing_docs)]
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

use std::fmt;
use std::path::{Path, PathBuf};

pub mod block;
pub mod codec;
pub mod partition;
pub mod query;
pub mod record;
pub mod store;
pub mod validate;
pub mod wal;

pub use query::{measurement_key, pair_key, top_k_lowest_mean, KeySummary, SYSTEM_KEY};
pub use record::{EventRecord, Record, RecordKind, ScoreRow, StatsSample, TraceRecord};
pub use store::{HistoryStore, OpenReport, StoreConfig, StoreManifest, DEFAULT_PARTITION_SECS};
pub use validate::{validate_store, StoreValidation};

/// Any way a store operation can fail.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem refused.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// On-disk bytes violate the format or an invariant.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store I/O on {}: {source}", path.display())
            }
            StoreError::Corrupt(reason) => write!(f, "store corruption: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt(_) => None,
        }
    }
}

/// Wraps an I/O error with the path it happened on.
pub(crate) fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Fsyncs the directory containing `path`, making a rename or create
/// inside it durable.
pub(crate) fn sync_parent_dir(path: &Path) -> Result<(), StoreError> {
    let parent = match path.parent() {
        Some(parent) if parent.as_os_str().is_empty() => Path::new("."),
        Some(parent) => parent,
        None => Path::new("."),
    };
    let dir = std::fs::File::open(parent).map_err(|e| io_err(parent, e))?;
    dir.sync_all().map_err(|e| io_err(parent, e))
}

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, fsync, rename over the target, fsync the directory. A
/// crash leaves either the old file or the new one, never a torn mix.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    {
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        file.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
        file.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    sync_parent_dir(path)
}
