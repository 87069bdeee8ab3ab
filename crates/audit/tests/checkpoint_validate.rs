//! The checkpoint validator against real and corrupted checkpoints.
//!
//! Deterministic cases cover corruptions that `Checkpointer::recover`
//! (and therefore `gridwatch serve --resume`) would happily accept —
//! the validator's whole reason to exist — and property tests assert
//! the two safety guarantees: truncated manifests are always rejected,
//! and no input whatsoever makes the validator panic. The compat
//! fixtures pin every persisted format as this code once wrote it.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use serde::Deserialize;

use gridwatch_audit::checkpoint::validate_checkpoint;
use gridwatch_detect::{
    AlarmTracker, DetectionEngine, EngineConfig, EngineSnapshot, Snapshot, StepReport,
};
use gridwatch_obs::{FlightEvent, HealthReport, TraceExemplar};
use gridwatch_serve::{CheckpointManifest, Checkpointer, ServeStats};
use gridwatch_store::StoreManifest;
use gridwatch_timeseries::{
    MachineId, MeasurementId, MeasurementPair, MetricKind, PairSeries, Timestamp,
};

fn measurement_ids() -> [MeasurementId; 3] {
    let mk = |m: u32, t: u16| MeasurementId::new(MachineId::new(m), MetricKind::Custom(t));
    [mk(0, 0), mk(0, 1), mk(1, 0)]
}

/// The persisted state of an engine trained on all three pairs of
/// [`measurement_ids`].
fn trained() -> EngineSnapshot {
    let ids = measurement_ids();
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

/// A pristine two-shard checkpoint, generated once and kept in memory:
/// `(manifest_json, [(shard_file_name, shard_json)])`.
fn pristine() -> &'static (String, Vec<(String, String)>) {
    static PRISTINE: OnceLock<(String, Vec<(String, String)>)> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let full = trained();
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
        let manifest = CheckpointManifest {
            version: 1,
            shards: 2,
            cut_seq: 7,
            config: full.config,
            tracker: full.tracker.clone(),
            shard_files: vec!["shard-0.json".into(), "shard-1.json".into()],
            sources: std::collections::BTreeMap::from([("agent-1".to_string(), 9)]),
            fabric_epoch: 0,
            remote: Vec::new(),
        };
        (
            serde_json::to_string_pretty(&manifest).unwrap(),
            vec![
                ("shard-0.json".into(), serde_json::to_string(&left).unwrap()),
                (
                    "shard-1.json".into(),
                    serde_json::to_string(&right).unwrap(),
                ),
            ],
        )
    })
}

/// Materializes a checkpoint directory with the given manifest text and
/// the pristine shard files.
fn materialize(tag: &str, manifest_text: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("gridwatch-audit-ckpt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let (_, shards) = pristine();
    for (name, json) in shards {
        fs::write(dir.join(name), json).unwrap();
    }
    fs::write(dir.join("manifest.json"), manifest_text).unwrap();
    dir
}

fn cleanup(dir: &PathBuf) {
    let _ = fs::remove_dir_all(dir);
}

fn compat(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/compat")
        .join(name)
}

fn load<T: Deserialize>(name: &str) -> T {
    let text = fs::read_to_string(compat(name)).unwrap();
    serde_json::from_str(text.trim_end()).unwrap_or_else(|e| panic!("{name} no longer loads: {e}"))
}

/// The keys the removed sketch layer wrote: 41 candidate pairs split
/// over the compat checkpoint's two shard files, and their total in
/// the manifest.
#[derive(Deserialize)]
struct SketchCandidates {
    candidates: Vec<MeasurementPair>,
}

#[derive(Deserialize)]
struct SketchManifest {
    candidate_pairs: usize,
}

/// Every persisted format still loads from the files this code wrote
/// once: a two-shard fabric checkpoint with drift, sketch candidates and
/// a remote table, a `--stats` document of a `--listen` run with one
/// connection, a store manifest, a flight event line, a trace exemplar
/// and a `/healthz` body. The vendored serde rejects a missing field
/// that is not `#[serde(default)]`, so a field added without one fails
/// here. Never regenerate these files.
#[test]
fn committed_compat_fixtures_still_load_and_resume() {
    let stats: ServeStats = load("stats.json");
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.net.connections.len(), 1);
    // The dump predates the removal of the lossy queue policy and the
    // overload sampler: their keys stay in the fixture and are ignored.
    let stats_text = fs::read_to_string(compat("stats.json")).unwrap();
    for key in [
        "\"evicted\"",
        "\"empty_steps\"",
        "\"sampled_out\"",
        "\"dropped\"",
        "\"coverage_fraction\"",
    ] {
        assert!(stats_text.contains(key), "the fixture lost {key}");
    }
    let store: StoreManifest = load("STORE.json");
    assert_eq!(store.retention_secs, Some(604_800));
    let event: FlightEvent = load("flight.jsonl");
    assert_eq!(event.kind, "alarm");
    let exemplar: TraceExemplar = load("exemplar.json");
    assert!(exemplar.alarmed && !exemplar.spans.is_empty());
    let health: HealthReport = load("healthz.json");
    assert_eq!(health.shards.len(), 2);

    let manifest: CheckpointManifest = load("checkpoint/manifest.json");
    assert!(manifest.config.drift.is_some());
    assert_eq!(manifest.remote.len(), 2);
    let manifest_text = fs::read_to_string(compat("checkpoint/manifest.json")).unwrap();
    for key in [
        "\"sketch\": {",
        "\"candidate_pairs\"",
        "\"sketch_promotions\"",
        "\"sketch_demotions\"",
    ] {
        assert!(manifest_text.contains(key), "the fixture lost {key}");
    }
    let mut models = Vec::new();
    let mut candidates = Vec::new();
    for shard in &manifest.shard_files {
        let name = format!("checkpoint/{shard}");
        let text = fs::read_to_string(compat(&name)).unwrap();
        assert!(text.contains("\"sketch\":{") && text.contains("\"candidates\":["));
        let snapshot: EngineSnapshot = load(&name);
        models.extend(snapshot.models.into_iter().map(|(pair, _)| pair));
        candidates.extend(load::<SketchCandidates>(&name).candidates);
    }
    assert_eq!(candidates.len(), 41);
    assert_eq!(
        load::<SketchManifest>("checkpoint/manifest.json").candidate_pairs,
        candidates.len()
    );

    let dir = compat("checkpoint");
    let report = validate_checkpoint(&dir);
    assert!(report.is_valid(), "{:#?}", report.problems);
    // The candidates are dropped on resume: the engine owns exactly the
    // fixture's models, and every one of them scores.
    let (snapshot, _) = Checkpointer::new(&dir).recover().unwrap();
    let mut engine = DetectionEngine::from_snapshot(snapshot);
    let pairs: Vec<MeasurementPair> = engine.pairs().collect();
    models.sort();
    assert_eq!(pairs, models);
    assert!(candidates.iter().all(|pair| engine.model(*pair).is_none()));
    let mut snap = Snapshot::new(Timestamp::from_secs(16 * 86_400));
    for pair in &pairs {
        snap.insert(pair.first(), 1.0);
        snap.insert(pair.second(), 1.0);
    }
    let report = engine.step(&snap);
    assert_eq!(report.scores.len(), pairs.len());
}

#[test]
fn pristine_checkpoint_validates() {
    let (manifest, _) = pristine();
    let dir = materialize("ok", manifest);
    let report = validate_checkpoint(&dir);
    assert!(report.is_valid(), "{:#?}", report.problems);
    assert_eq!(report.shards_checked, 2);
    assert_eq!(report.models_checked, 3);
    // And --resume agrees it is fine.
    assert!(Checkpointer::new(&dir).recover().is_ok());
    cleanup(&dir);
}

/// The acceptance criterion: corruptions that `recover()` ACCEPTS but
/// the validator rejects.
#[test]
fn rejects_corruptions_that_resume_would_accept() {
    let (manifest, _) = pristine();

    // recover() ignores the version field entirely.
    let bumped = manifest.replace("\"version\": 1", "\"version\": 2");
    assert_ne!(&bumped, manifest);
    let dir = materialize("version", &bumped);
    assert!(Checkpointer::new(&dir).recover().is_ok(), "resume accepts");
    let report = validate_checkpoint(&dir);
    assert!(!report.is_valid());
    assert!(
        report.problems.iter().any(|p| p.contains("version")),
        "{:#?}",
        report.problems
    );
    cleanup(&dir);

    // recover() never looks at alarm thresholds.
    let hot = manifest.replace("\"system_threshold\": 0.6", "\"system_threshold\": 60.0");
    assert_ne!(&hot, manifest);
    let dir = materialize("threshold", &hot);
    assert!(Checkpointer::new(&dir).recover().is_ok(), "resume accepts");
    let report = validate_checkpoint(&dir);
    assert!(!report.is_valid());
    assert!(
        report
            .problems
            .iter()
            .any(|p| p.contains("system_threshold")),
        "{:#?}",
        report.problems
    );
    cleanup(&dir);

    // recover() never cross-checks cut_seq against source watermarks.
    let ahead = manifest.replace("\"cut_seq\": 7", "\"cut_seq\": 700");
    assert_ne!(&ahead, manifest);
    let dir = materialize("cutseq", &ahead);
    assert!(Checkpointer::new(&dir).recover().is_ok(), "resume accepts");
    let report = validate_checkpoint(&dir);
    assert!(!report.is_valid());
    assert!(
        report.problems.iter().any(|p| p.contains("cut_seq")),
        "{:#?}",
        report.problems
    );
    cleanup(&dir);

    // serde silently drops unknown keys, so a typo'd field deserializes
    // to the default and resume proceeds on the wrong state.
    let typo = manifest.replacen("\"cut_seq\"", "\"cut_sq\": 7,\n  \"cut_seq\"", 1);
    assert_ne!(&typo, manifest);
    let dir = materialize("typo", &typo);
    assert!(Checkpointer::new(&dir).recover().is_ok(), "resume accepts");
    let report = validate_checkpoint(&dir);
    assert!(!report.is_valid());
    assert!(
        report.problems.iter().any(|p| p.contains("cut_sq")),
        "{:#?}",
        report.problems
    );
    cleanup(&dir);
}

/// What older code wrote before knobs were removed: the same documents
/// plus, from `train --row-format quantized` before the compact row
/// formats and `EngineConfig::parallel` went, a `row_format` key in
/// every `ModelConfig` and `TransitionMatrix` and a `parallel` key in
/// every `EngineConfig`; and, from before count forgetting went,
/// `forgetting_factor`/`forgetting_period` in every `ModelConfig` and
/// `since_forgetting` in every `TransitionModel`; and, from before the
/// sketch layer went, a `sketch` config in every `EngineConfig`, a
/// `candidates` list in every `EngineSnapshot` and three counters in
/// every manifest.
fn with_removed_knobs(json: &str) -> String {
    let mk = |m: u32, t: u16| MeasurementId::new(MachineId::new(m), MetricKind::Custom(t));
    let candidate = MeasurementPair::new(mk(2, 0), mk(2, 1)).unwrap();
    let candidates = format!(
        "\"candidates\":[{}],\"models\"",
        serde_json::to_string(&candidate).unwrap()
    );
    // `kernel` is a key of exactly the two structs that carried
    // `row_format`; `alarm` is a key of `EngineConfig` alone;
    // `update_threshold` of `ModelConfig` alone; `updates_skipped` of
    // `TransitionModel` alone; `models` of `EngineSnapshot` alone;
    // `fabric_epoch` of `CheckpointManifest` alone.
    json.replace("\"kernel\"", "\"row_format\":\"Quantized\",\"kernel\"")
        .replace(
            "\"alarm\"",
            "\"parallel\":true,\"sketch\":{\"depth\":16,\"admit_score\":0.6,\
             \"demote_score\":0.25,\"max_materialized\":0},\"alarm\"",
        )
        .replace("\"models\"", &candidates)
        .replace(
            "\"fabric_epoch\"",
            "\"candidate_pairs\":41,\"sketch_promotions\":3,\"sketch_demotions\":1,\
             \"fabric_epoch\"",
        )
        .replace(
            "\"update_threshold\"",
            "\"forgetting_factor\":1.0,\"forgetting_period\":240,\"update_threshold\"",
        )
        .replace(
            "\"updates_skipped\"",
            "\"since_forgetting\":17,\"updates_skipped\"",
        )
}

/// Steps an engine over a fixed stream that walks on and off the
/// trained manifold, so alarms and online updates both happen.
fn report_stream(snapshot: EngineSnapshot) -> Vec<StepReport> {
    let ids = measurement_ids();
    let mut engine = DetectionEngine::from_snapshot(snapshot);
    (0..60u64)
        .map(|k| {
            let x = (k % 40) as f64;
            let mut snap = Snapshot::new(Timestamp::from_secs((300 + k) * 360));
            snap.insert(ids[0], x);
            snap.insert(ids[1], if k % 7 == 3 { 95.0 - x } else { 2.0 * x });
            snap.insert(ids[2], 3.0 * x);
            engine.step(&snap)
        })
        .collect()
}

/// Snapshots and checkpoints that still carry the removed `row_format`,
/// `parallel`, forgetting and sketch keys load (serde ignores them),
/// pass `gridwatch audit --checkpoint`, and score exactly as the same
/// state without the keys: the first two selected an in-memory row
/// representation and a threading mode, no front ever set the
/// forgetting factor below its no-op `1.0`, and a sketch candidate
/// never owned a model, so dropping it leaves the model set as it was.
/// What this code writes carries none of the keys. The committed
/// compat checkpoint carries the forgetting and sketch keys as
/// written.
#[test]
fn removed_config_keys_are_ignored() {
    let fixture = fs::read_to_string(compat("checkpoint/shard-0.json")).unwrap();
    assert!(
        fixture.contains("\"forgetting_factor\":1.0") && fixture.contains("\"since_forgetting\"")
    );
    let original = trained();
    let models = original.models.len();
    let json = serde_json::to_string(&original).unwrap();
    assert!(!json.contains("row_format") && !json.contains("parallel"));
    assert!(!json.contains("forgetting"));
    assert!(!json.contains("sketch") && !json.contains("candidates"));
    let injected = with_removed_knobs(&json);
    // One ModelConfig in the engine config, then a ModelConfig and a
    // TransitionMatrix per model; one EngineConfig.
    assert_eq!(injected.matches("\"row_format\"").count(), 1 + 2 * models);
    assert_eq!(injected.matches("\"parallel\"").count(), 1);
    assert_eq!(injected.matches("\"sketch\"").count(), 1);
    assert_eq!(injected.matches("\"candidates\"").count(), 1);
    assert_eq!(injected.matches("\"candidate_pairs\"").count(), 0);
    assert_eq!(
        injected.matches("\"forgetting_period\"").count(),
        1 + models
    );
    assert_eq!(injected.matches("\"since_forgetting\"").count(), models);
    let loaded: EngineSnapshot = serde_json::from_str(&injected).unwrap();
    assert_eq!(loaded, original);
    let expected = report_stream(original);
    assert!(expected.iter().any(|r| !r.alarms.is_empty()));
    assert_eq!(report_stream(loaded), expected);

    let (manifest, shards) = pristine();
    assert!(!manifest.contains("sketch") && !manifest.contains("candidate"));
    let dir = materialize("removed-knobs", &with_removed_knobs(manifest));
    let mut shard_keys = 0;
    for (name, shard) in shards {
        assert!(!shard.contains("sketch") && !shard.contains("candidates"));
        let injected = with_removed_knobs(shard);
        shard_keys += injected.matches("\"row_format\"").count();
        assert_eq!(injected.matches("\"parallel\"").count(), 1);
        assert_eq!(injected.matches("\"sketch\"").count(), 1);
        assert_eq!(injected.matches("\"candidates\"").count(), 1);
        fs::write(dir.join(name), injected).unwrap();
    }
    assert_eq!(shard_keys, shards.len() + 2 * models);
    let manifest_text = fs::read_to_string(dir.join("manifest.json")).unwrap();
    assert_eq!(manifest_text.matches("\"row_format\"").count(), 1);
    assert_eq!(manifest_text.matches("\"parallel\"").count(), 1);
    assert_eq!(manifest_text.matches("\"sketch\"").count(), 1);
    assert_eq!(manifest_text.matches("\"candidates\"").count(), 0);
    for key in ["candidate_pairs", "sketch_promotions", "sketch_demotions"] {
        assert_eq!(manifest_text.matches(&format!("\"{key}\"")).count(), 1);
    }
    // validate_checkpoint is exactly what `gridwatch audit --checkpoint`
    // runs.
    let report = validate_checkpoint(&dir);
    assert!(report.is_valid(), "{:#?}", report.problems);
    assert_eq!(report.models_checked, models);
    let (recovered, _manifest) = Checkpointer::new(&dir).recover().unwrap();
    cleanup(&dir);
    let clean = materialize("removed-knobs-clean", manifest);
    let (reference, _manifest) = Checkpointer::new(&clean).recover().unwrap();
    cleanup(&clean);
    assert_eq!(recovered, reference);
    assert_eq!(report_stream(recovered), report_stream(reference));
}

/// Remote-table corruptions a fabric coordinator's `--resume` would
/// accept: `recover()` only reassembles models and never reads the
/// ownership table, so fencing-critical damage sails through it.
#[test]
fn remote_ownership_table_is_validated() {
    let (manifest, _) = pristine();
    let promote = |remote: &str| {
        manifest
            .replace("\"fabric_epoch\": 0", "\"fabric_epoch\": 5")
            .replace("\"remote\": []", &format!("\"remote\": {remote}"))
    };
    let entry = |shard: usize, epoch: u64, source: &str| {
        format!("{{\"shard\": {shard}, \"epoch\": {epoch}, \"source\": \"{source}\"}}")
    };

    // A coherent table passes both the validator and recover().
    let good = promote(&format!(
        "[{}, {}]",
        entry(0, 3, "127.0.0.1:7801"),
        entry(1, 5, "127.0.0.1:7802")
    ));
    assert_ne!(&good, manifest, "fixture must actually change");
    let dir = materialize("remote-ok", &good);
    assert!(Checkpointer::new(&dir).recover().is_ok());
    let report = validate_checkpoint(&dir);
    assert!(report.is_valid(), "{:#?}", report.problems);
    cleanup(&dir);

    // Stale/incoherent epoch: a worker admitted above the manifest's
    // own fabric epoch could never be fenced on resume.
    let stale = promote(&format!(
        "[{}, {}]",
        entry(0, 9, "127.0.0.1:7801"),
        entry(1, 5, "127.0.0.1:7802")
    ));
    let dir = materialize("remote-stale", &stale);
    assert!(Checkpointer::new(&dir).recover().is_ok(), "resume accepts");
    let report = validate_checkpoint(&dir);
    assert!(!report.is_valid());
    assert!(
        report
            .problems
            .iter()
            .any(|p| p.contains("fabric epoch is only")),
        "{:#?}",
        report.problems
    );
    cleanup(&dir);

    // Epoch 0 is reserved for "never owned remotely".
    let zero = promote(&format!(
        "[{}, {}]",
        entry(0, 0, "127.0.0.1:7801"),
        entry(1, 5, "127.0.0.1:7802")
    ));
    let dir = materialize("remote-zero", &zero);
    assert!(Checkpointer::new(&dir).recover().is_ok(), "resume accepts");
    let report = validate_checkpoint(&dir);
    assert!(!report.is_valid());
    assert!(
        report.problems.iter().any(|p| p.contains("epoch 0")),
        "{:#?}",
        report.problems
    );
    cleanup(&dir);

    // Orphaned worker: assigned to a shard the manifest doesn't have
    // (which also leaves shard 1 with no owner).
    let orphan = promote(&format!(
        "[{}, {}]",
        entry(0, 3, "127.0.0.1:7801"),
        entry(7, 5, "127.0.0.1:7802")
    ));
    let dir = materialize("remote-orphan", &orphan);
    assert!(Checkpointer::new(&dir).recover().is_ok(), "resume accepts");
    let report = validate_checkpoint(&dir);
    assert!(!report.is_valid());
    assert!(
        report
            .problems
            .iter()
            .any(|p| p.contains("orphaned worker")),
        "{:#?}",
        report.problems
    );
    assert!(
        report
            .problems
            .iter()
            .any(|p| p.contains("no remote owner")),
        "{:#?}",
        report.problems
    );
    cleanup(&dir);

    // Duplicate ownership: two workers both claim shard 0.
    let dup = promote(&format!(
        "[{}, {}]",
        entry(0, 3, "127.0.0.1:7801"),
        entry(0, 5, "127.0.0.1:7802")
    ));
    let dir = materialize("remote-dup", &dup);
    assert!(Checkpointer::new(&dir).recover().is_ok(), "resume accepts");
    let report = validate_checkpoint(&dir);
    assert!(!report.is_valid());
    assert!(
        report
            .problems
            .iter()
            .any(|p| p.contains("more than one remote owner")),
        "{:#?}",
        report.problems
    );
    cleanup(&dir);
}

#[test]
fn rejects_tampered_shard_models() {
    // A decay rate w <= 1 breaks the paper's spatial-closeness prior
    // (Section 4.2); recover() parses it happily.
    let (manifest, shards) = pristine();
    let dir = materialize("decay", manifest);
    let tampered = shards[0]
        .1
        .replace("\"decay_rate\":2.0", "\"decay_rate\":0.5");
    assert_ne!(tampered, shards[0].1, "fixture must actually change");
    fs::write(dir.join(&shards[0].0), tampered).unwrap();
    assert!(Checkpointer::new(&dir).recover().is_ok(), "resume accepts");
    let report = validate_checkpoint(&dir);
    assert!(!report.is_valid());
    assert!(
        report.problems.iter().any(|p| p.contains("decay rate")),
        "{:#?}",
        report.problems
    );
    cleanup(&dir);
}

#[test]
fn rejects_structural_damage() {
    let (manifest, _) = pristine();

    // Missing shard file.
    let dir = materialize("missing-shard", manifest);
    fs::remove_file(dir.join("shard-1.json")).unwrap();
    let report = validate_checkpoint(&dir);
    assert!(!report.is_valid());
    cleanup(&dir);

    // Duplicate pair: both shard entries point at the same file.
    let dup = manifest.replace("shard-1.json", "shard-0.json");
    let dir = materialize("dup-pair", &dup);
    let report = validate_checkpoint(&dir);
    assert!(!report.is_valid());
    assert!(
        report
            .problems
            .iter()
            .any(|p| p.contains("more than one shard") || p.contains("listed more than once")),
        "{:#?}",
        report.problems
    );
    cleanup(&dir);

    // Path traversal in a shard name.
    let traversal = manifest.replace("shard-1.json", "../shard-1.json");
    let dir = materialize("traversal", &traversal);
    let report = validate_checkpoint(&dir);
    assert!(!report.is_valid());
    assert!(
        report.problems.iter().any(|p| p.contains("path separator")),
        "{:#?}",
        report.problems
    );
    cleanup(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict truncation of the manifest is rejected, and never
    /// panics: a torn write must not resume.
    #[test]
    fn truncated_manifests_always_rejected(frac in 0.0f64..1.0) {
        let (manifest, _) = pristine();
        let cut = ((manifest.len() as f64) * frac) as usize;
        let cut = cut.min(manifest.len().saturating_sub(1));
        let truncated = String::from_utf8_lossy(&manifest.as_bytes()[..cut]).into_owned();
        let dir = materialize("trunc", &truncated);
        let report = validate_checkpoint(&dir);
        cleanup(&dir);
        prop_assert!(!report.is_valid(), "truncation at {cut} accepted");
    }

    /// Arbitrary byte splices never panic the validator. (A splice can
    /// land in whitespace and leave the manifest semantically intact,
    /// so rejection is only asserted when the JSON actually changed.)
    #[test]
    fn spliced_manifests_never_panic(
        offset in 0usize..4096,
        garbage in prop::collection::vec(any::<u8>(), 1usize..16),
    ) {
        let (manifest, _) = pristine();
        let bytes = manifest.as_bytes();
        let at = offset % bytes.len();
        let mut corrupted = Vec::with_capacity(bytes.len() + garbage.len());
        corrupted.extend_from_slice(&bytes[..at]);
        corrupted.extend_from_slice(&garbage);
        corrupted.extend_from_slice(&bytes[at..]);
        let text = String::from_utf8_lossy(&corrupted).into_owned();
        let dir = materialize("splice", &text);
        let report = validate_checkpoint(&dir);
        cleanup(&dir);
        // Must complete without panicking; the report itself must stay
        // internally consistent.
        prop_assert!(report.problems.len() < 10_000);
    }
}
