//! Atomic checkpointing of a sharded engine's state.
//!
//! Layout of a checkpoint directory:
//!
//! ```text
//! <dir>/shard-0.json     per-shard EngineSnapshot (models only)
//! <dir>/shard-1.json
//! ...
//! <dir>/manifest.json    CheckpointManifest — written last
//! ```
//!
//! Every file is written to a `.tmp` sibling and atomically renamed into
//! place, and the manifest is written only after every shard file landed,
//! so a crash mid-checkpoint leaves either the previous complete
//! checkpoint (old manifest) or no manifest at all — never a torn one.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use gridwatch_detect::{AlarmTracker, EngineConfig, EngineSnapshot};

/// Name of the manifest file inside a checkpoint directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// The checkpoint directory's table of contents, written last.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointManifest {
    /// Layout version, for forward compatibility.
    pub version: u32,
    /// Number of shards that wrote files.
    pub shards: usize,
    /// The ingest sequence number the checkpoint cuts at: every accepted
    /// snapshot with `seq < cut_seq` is reflected, none after.
    pub cut_seq: u64,
    /// The engine configuration (single source of truth on recovery).
    pub config: EngineConfig,
    /// The merged-board alarm tracker's debounce state at the cut.
    pub tracker: AlarmTracker,
    /// Shard file names, in shard order.
    pub shard_files: Vec<String>,
    /// Per-source next-expected frame sequence numbers at the cut
    /// (empty for local replays; absent in pre-network manifests).
    /// Living inside the manifest makes resume atomic: a crash can
    /// never persist source progress without the matching model state.
    #[serde(default)]
    pub sources: BTreeMap<String, u64>,
    /// The fabric epoch the coordinator was on when it cut this
    /// checkpoint (0 for single-process checkpoints). A resumed
    /// coordinator restarts above this, so boards from workers of any
    /// pre-crash epoch are fenced off.
    #[serde(default)]
    pub fabric_epoch: u64,
    /// Remote shard ownership at the cut: which worker owned each shard
    /// and under which epoch (empty for single-process checkpoints).
    #[serde(default)]
    pub remote: Vec<RemoteShard>,
}

/// One remote shard's ownership record inside a coordinator manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemoteShard {
    /// The shard index this record assigns.
    #[serde(default)]
    pub shard: usize,
    /// The fabric epoch the owning worker was admitted under (>= 1;
    /// epoch 0 is reserved for "never owned remotely").
    #[serde(default)]
    pub epoch: u64,
    /// The worker's address, as the coordinator dialed it.
    #[serde(default)]
    pub source: String,
}

/// Why a checkpoint or recovery failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure, with the path involved.
    Io {
        /// The file or directory being accessed.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The directory's contents don't form a valid checkpoint.
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, source } => {
                write!(f, "checkpoint io error at {}: {source}", path.display())
            }
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::Corrupt(_) => None,
        }
    }
}

fn io_err(path: &Path, source: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Counts completed directory syncs, so tests can assert the durability
/// path actually ran (a silently skipped fsync looks identical to a
/// successful one from the filesystem's point of view).
#[cfg(test)]
pub(crate) static DIR_SYNCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Fsyncs a directory so a rename into it survives power loss. On
/// Linux, `rename` only becomes durable once the directory's own inode
/// hits disk; syncing just the data file leaves the new directory entry
/// in the page cache.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), CheckpointError> {
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    let handle = fs::File::open(dir).map_err(|e| io_err(dir, e))?;
    handle.sync_all().map_err(|e| io_err(dir, e))?;
    #[cfg(test)]
    DIR_SYNCS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    Ok(())
}

/// Writes `content` to `path` via a temp-file + atomic rename, then
/// syncs the parent directory so the rename itself is durable.
///
/// Public so the CLI commands route their periodic stats dumps through
/// the same torn-write-proof path as checkpoint files.
#[track_caller]
pub fn write_atomic(path: &Path, content: &str) -> Result<(), CheckpointError> {
    gridwatch_sync::may_block();
    let tmp = path.with_extension("json.tmp");
    {
        let mut file = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        file.write_all(content.as_bytes())
            .map_err(|e| io_err(&tmp, e))?;
        file.sync_all().map_err(|e| io_err(&tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))
}

/// Reads and writes checkpoint directories.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    dir: PathBuf,
}

impl Checkpointer {
    /// A checkpointer rooted at `dir` (created on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Checkpointer { dir: dir.into() }
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The conventional file name for one shard's snapshot.
    pub fn shard_file_name(shard: usize) -> String {
        format!("shard-{shard}.json")
    }

    /// Ensures the directory exists.
    pub fn prepare(&self) -> Result<(), CheckpointError> {
        fs::create_dir_all(&self.dir).map_err(|e| io_err(&self.dir, e))
    }

    /// Atomically writes one shard's engine snapshot; returns the file
    /// name recorded in the manifest.
    pub fn write_shard(
        &self,
        shard: usize,
        snapshot: &EngineSnapshot,
    ) -> Result<String, CheckpointError> {
        let name = Self::shard_file_name(shard);
        let json = serde_json::to_string(snapshot)
            .map_err(|e| CheckpointError::Corrupt(format!("shard {shard} serialize: {e}")))?;
        write_atomic(&self.dir.join(&name), &json)?;
        Ok(name)
    }

    /// Atomically writes the manifest, completing the checkpoint.
    pub fn write_manifest(&self, manifest: &CheckpointManifest) -> Result<(), CheckpointError> {
        let json = serde_json::to_string_pretty(manifest)
            .map_err(|e| CheckpointError::Corrupt(format!("manifest serialize: {e}")))?;
        write_atomic(&self.dir.join(MANIFEST_FILE), &json)
    }

    /// Reads the manifest of a completed checkpoint.
    pub fn read_manifest(&self) -> Result<CheckpointManifest, CheckpointError> {
        let path = self.dir.join(MANIFEST_FILE);
        let json = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        serde_json::from_str(&json)
            .map_err(|e| CheckpointError::Corrupt(format!("manifest parse: {e}")))
    }

    /// Recovers the full engine state from a completed checkpoint:
    /// reads every shard file named by the manifest and reassembles one
    /// [`EngineSnapshot`] with the manifest's config and alarm tracker.
    ///
    /// The result is shard-count agnostic — it can be re-sharded onto
    /// any number of shards (or run unsharded).
    ///
    /// # Errors
    ///
    /// Fails when the manifest is missing or unreadable, a shard file is
    /// missing or unparsable, or two shard files claim the same pair.
    pub fn recover(&self) -> Result<(EngineSnapshot, CheckpointManifest), CheckpointError> {
        let manifest = self.read_manifest()?;
        if manifest.shard_files.len() != manifest.shards {
            return Err(CheckpointError::Corrupt(format!(
                "manifest names {} files for {} shards",
                manifest.shard_files.len(),
                manifest.shards
            )));
        }
        let mut models = BTreeMap::new();
        for (shard, name) in manifest.shard_files.iter().enumerate() {
            let path = self.dir.join(name);
            let json = fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
            let snapshot: EngineSnapshot = serde_json::from_str(&json)
                .map_err(|e| CheckpointError::Corrupt(format!("shard file {name}: {e}")))?;
            for (pair, model) in snapshot.models {
                if models.insert(pair, model).is_some() {
                    return Err(CheckpointError::Corrupt(format!(
                        "pair {pair} appears in more than one shard file (shard {shard})"
                    )));
                }
            }
        }
        let combined = EngineSnapshot {
            config: manifest.config,
            models: models.into_iter().collect(),
            tracker: manifest.tracker.clone(),
        };
        Ok((combined, manifest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_detect::DetectionEngine;
    use gridwatch_timeseries::{MachineId, MeasurementId, MeasurementPair, MetricKind, PairSeries};

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gridwatch-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn trained_snapshot() -> EngineSnapshot {
        let mk = |m: u32, t: u16| MeasurementId::new(MachineId::new(m), MetricKind::Custom(t));
        let ids = [mk(0, 0), mk(0, 1), mk(1, 0)];
        let mut pairs = Vec::new();
        for i in 0..3 {
            for j in (i + 1)..3 {
                let pair = MeasurementPair::new(ids[i], ids[j]).unwrap();
                let history = PairSeries::from_samples((0..300u64).map(|k| {
                    let x = (k % 40) as f64;
                    (k * 360, (i as f64 + 1.0) * x, (j as f64 + 2.0) * x)
                }))
                .unwrap();
                pairs.push((pair, history));
            }
        }
        DetectionEngine::train(pairs, EngineConfig::default())
            .unwrap()
            .snapshot()
    }

    #[test]
    fn shard_files_plus_manifest_recover_the_union() {
        let dir = scratch_dir("roundtrip");
        let ckpt = Checkpointer::new(&dir);
        ckpt.prepare().unwrap();

        let full = trained_snapshot();
        // Split the three models 2 + 1 by hand.
        let left = EngineSnapshot {
            config: full.config,
            models: full.models[..2].to_vec(),
            tracker: AlarmTracker::new(),
        };
        let right = EngineSnapshot {
            config: full.config,
            models: full.models[2..].to_vec(),
            tracker: AlarmTracker::new(),
        };
        let files = vec![
            ckpt.write_shard(0, &left).unwrap(),
            ckpt.write_shard(1, &right).unwrap(),
        ];
        ckpt.write_manifest(&CheckpointManifest {
            version: 1,
            shards: 2,
            cut_seq: 42,
            config: full.config,
            tracker: full.tracker.clone(),
            shard_files: files,
            sources: BTreeMap::from([("agent-1".to_string(), 7)]),
            fabric_epoch: 0,
            remote: Vec::new(),
        })
        .unwrap();

        let (recovered, manifest) = ckpt.recover().unwrap();
        assert_eq!(manifest.cut_seq, 42);
        assert_eq!(recovered, full);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_syncs_the_parent_directory() {
        use std::sync::atomic::Ordering;
        let dir = scratch_dir("dirsync");
        fs::create_dir_all(&dir).unwrap();
        let before = DIR_SYNCS.load(Ordering::Relaxed);
        write_atomic(&dir.join("file.json"), "{}").unwrap();
        let after = DIR_SYNCS.load(Ordering::Relaxed);
        assert!(
            after > before,
            "write_atomic must fsync the parent directory after the rename"
        );
        assert_eq!(fs::read_to_string(dir.join("file.json")).unwrap(), "{}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn relative_paths_fall_back_to_the_current_directory_for_sync() {
        // A bare file name has an empty parent; the sync must target
        // `.` instead of failing to open "".
        use std::sync::atomic::Ordering;
        let before = DIR_SYNCS.load(Ordering::Relaxed);
        sync_dir(Path::new("")).unwrap();
        assert!(DIR_SYNCS.load(Ordering::Relaxed) > before);
    }

    #[test]
    fn remote_manifest_fields_roundtrip_and_default() {
        let full = trained_snapshot();
        let manifest = CheckpointManifest {
            version: 1,
            shards: 2,
            cut_seq: 5,
            config: full.config,
            tracker: AlarmTracker::new(),
            shard_files: vec!["shard-0.json".into(), "shard-1.json".into()],
            sources: BTreeMap::new(),
            fabric_epoch: 3,
            remote: vec![
                RemoteShard {
                    shard: 0,
                    epoch: 1,
                    source: "127.0.0.1:7001".into(),
                },
                RemoteShard {
                    shard: 1,
                    epoch: 3,
                    source: "127.0.0.1:7002".into(),
                },
            ],
        };
        let json = serde_json::to_string(&manifest).unwrap();
        let back: CheckpointManifest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, manifest);

        // Pre-fabric manifests (no such keys) still parse, defaulted.
        let stripped = serde_json::to_string(&CheckpointManifest {
            fabric_epoch: 0,
            remote: Vec::new(),
            ..manifest.clone()
        })
        .unwrap();
        let legacy = stripped
            .replace(",\"fabric_epoch\":0", "")
            .replace(",\"remote\":[]", "");
        assert_ne!(legacy, stripped);
        let back: CheckpointManifest = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.fabric_epoch, 0);
        assert!(back.remote.is_empty());
    }

    #[test]
    fn missing_manifest_is_an_io_error() {
        let dir = scratch_dir("missing");
        let err = Checkpointer::new(&dir).recover().unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
    }

    #[test]
    fn torn_checkpoint_without_shard_file_is_detected() {
        let dir = scratch_dir("torn");
        let ckpt = Checkpointer::new(&dir);
        ckpt.prepare().unwrap();
        let full = trained_snapshot();
        ckpt.write_manifest(&CheckpointManifest {
            version: 1,
            shards: 1,
            cut_seq: 0,
            config: full.config,
            tracker: AlarmTracker::new(),
            shard_files: vec!["shard-0.json".into()],
            sources: BTreeMap::new(),
            fabric_epoch: 0,
            remote: Vec::new(),
        })
        .unwrap();
        // Manifest names a shard file that was never written.
        let err = ckpt.recover().unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_pairs_across_shards_are_corrupt() {
        let dir = scratch_dir("dup");
        let ckpt = Checkpointer::new(&dir);
        ckpt.prepare().unwrap();
        let full = trained_snapshot();
        let half = EngineSnapshot {
            config: full.config,
            models: full.models[..1].to_vec(),
            tracker: AlarmTracker::new(),
        };
        let files = vec![
            ckpt.write_shard(0, &half).unwrap(),
            ckpt.write_shard(1, &half).unwrap(),
        ];
        ckpt.write_manifest(&CheckpointManifest {
            version: 1,
            shards: 2,
            cut_seq: 0,
            config: full.config,
            tracker: AlarmTracker::new(),
            shard_files: files,
            sources: BTreeMap::new(),
            fabric_epoch: 0,
            remote: Vec::new(),
        })
        .unwrap();
        let err = ckpt.recover().unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
