//! Offline checkpoint validation — deeper than `--resume`'s own checks.
//!
//! [`Checkpointer::recover`] verifies just enough to reassemble an
//! engine: manifest parses, shard count matches, shard files parse, no
//! duplicate pairs. It deliberately skips semantic checks that would
//! slow every restart. This validator runs them all, offline, and
//! **collects every problem** instead of stopping at the first, so an
//! operator sees the complete damage report for a suspect directory:
//!
//! * manifest schema: no unknown keys (typos silently ignored by serde),
//!   supported `version`;
//! * shard file hygiene: unique names, no path separators or `..`;
//! * config coherence: every shard snapshot's config equals the
//!   manifest's (the manifest is the single source of truth on resume);
//! * alarm policy sanity: thresholds finite in `[0, 1]`,
//!   `min_consecutive >= 1`;
//! * model invariants per shard (paper §3–§4): well-formed grid, decay
//!   rate `w > 1`, in-range transition counts, sampled rows
//!   row-stochastic — via [`gridwatch_detect::invariants::verify_model`];
//! * no pair owned by two shards;
//! * sequencing coherence: when per-source watermarks are recorded,
//!   their sum must cover `cut_seq` (the cut cannot have accepted more
//!   frames than its sources delivered);
//! * remote ownership coherence: when a fabric coordinator recorded a
//!   remote table, every shard has exactly one owner, no owner points
//!   at a shard outside the manifest, and every admission epoch is in
//!   `1..=fabric_epoch` (stale epochs would defeat board fencing on
//!   resume).
//!
//! The validator never panics on any input — corrupt bytes, truncated
//! files, and hostile manifests all come back as problems in the report
//! (property-tested in `tests/checkpoint_validate.rs`).

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

use gridwatch_detect::invariants::{verify_model, DEFAULT_ROW_SAMPLE};
use gridwatch_detect::{AlarmPolicy, EngineSnapshot};
use gridwatch_serve::checkpoint::MANIFEST_FILE;
use gridwatch_serve::CheckpointManifest;

/// The manifest layout version this validator understands.
pub const SUPPORTED_VERSION: u32 = 1;

/// Top-level manifest keys; anything else is a typo or tampering.
const MANIFEST_KEYS: &[&str] = &[
    "version",
    "shards",
    "cut_seq",
    "config",
    "tracker",
    "shard_files",
    "sources",
    "fabric_epoch",
    "remote",
    // Written by older builds' sketch layer; accepted and ignored.
    "candidate_pairs",
    "sketch_promotions",
    "sketch_demotions",
];

/// The outcome of validating one checkpoint directory.
#[derive(Debug, Default)]
pub struct CheckpointReport {
    /// Every problem found, in discovery order. Empty means valid.
    pub problems: Vec<String>,
    /// Shard files successfully opened and parsed.
    pub shards_checked: usize,
    /// Models whose invariants were verified.
    pub models_checked: usize,
}

impl CheckpointReport {
    /// Whether the checkpoint passed every check.
    pub fn is_valid(&self) -> bool {
        self.problems.is_empty()
    }

    fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }
}

/// Validates the checkpoint directory at `dir`. Never panics; every
/// failure mode — missing files, corrupt JSON, semantic violations —
/// lands in [`CheckpointReport::problems`].
pub fn validate_checkpoint(dir: &Path) -> CheckpointReport {
    let mut report = CheckpointReport::default();

    let manifest_path = dir.join(MANIFEST_FILE);
    let text = match fs::read_to_string(&manifest_path) {
        Ok(text) => text,
        Err(e) => {
            report.problem(format!("cannot read {}: {e}", manifest_path.display()));
            return report;
        }
    };

    // Schema pass over the raw JSON first: serde ignores unknown keys,
    // so a typo'd field (`cut_sq`) would silently deserialize to the
    // default and `--resume` would replay from the wrong offset. (The
    // vendored serde_json stand-in has no `Value`, so a minimal
    // top-level scanner does the job.)
    match top_level_entries(&text) {
        Some(entries) => {
            for (key, _) in &entries {
                if !MANIFEST_KEYS.contains(&key.as_str()) {
                    report.problem(format!("manifest has unknown key {key:?}"));
                }
            }
            let version = entries
                .iter()
                .find(|(key, _)| key == "version")
                .and_then(|(_, raw)| raw.trim().parse::<u64>().ok());
            match version {
                Some(v) if v == u64::from(SUPPORTED_VERSION) => {}
                Some(v) => report.problem(format!(
                    "manifest version {v} is not supported (expected {SUPPORTED_VERSION})"
                )),
                None => report.problem("manifest version is missing or not an integer"),
            }
        }
        None => {
            report.problem("manifest is not a JSON object");
            return report;
        }
    }

    let manifest: CheckpointManifest = match serde_json::from_str(&text) {
        Ok(m) => m,
        Err(e) => {
            report.problem(format!("manifest does not match the expected schema: {e}"));
            return report;
        }
    };

    validate_manifest_semantics(&manifest, &mut report);
    validate_shards(dir, &manifest, &mut report);
    report
}

/// Scans the top level of a JSON object, returning each key with the
/// raw text of its value. Returns `None` when `text` is not a JSON
/// object. Total on any input: garbage never panics, it just fails to
/// scan (and the typed parse afterwards reports the real error).
fn top_level_entries(text: &str) -> Option<Vec<(String, String)>> {
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < chars.len() && chars[*i].is_whitespace() {
            *i += 1;
        }
    };
    skip_ws(&mut i);
    if chars.get(i) != Some(&'{') {
        return None;
    }
    i += 1;
    let mut entries = Vec::new();
    loop {
        skip_ws(&mut i);
        match chars.get(i) {
            Some('}') => return Some(entries),
            Some('"') => {}
            _ => return None,
        }
        // Key string, honoring escapes.
        i += 1;
        let mut key = String::new();
        loop {
            match chars.get(i) {
                Some('\\') => {
                    if let Some(&c) = chars.get(i + 1) {
                        key.push(c);
                    }
                    i += 2;
                }
                Some('"') => {
                    i += 1;
                    break;
                }
                Some(&c) => {
                    key.push(c);
                    i += 1;
                }
                None => return None,
            }
        }
        skip_ws(&mut i);
        if chars.get(i) != Some(&':') {
            return None;
        }
        i += 1;
        // Raw value: everything up to the comma or brace that closes it
        // at nesting depth zero.
        let start = i;
        let mut depth = 0i64;
        let mut in_string = false;
        loop {
            let &c = chars.get(i)?;
            if in_string {
                match c {
                    '\\' => i += 1,
                    '"' => in_string = false,
                    _ => {}
                }
            } else {
                match c {
                    '"' => in_string = true,
                    '{' | '[' => depth += 1,
                    '}' | ']' if depth > 0 => depth -= 1,
                    ',' if depth == 0 => break,
                    '}' if depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        let value: String = chars[start..i].iter().collect();
        entries.push((key, value.trim().to_string()));
        if chars.get(i) == Some(&',') {
            i += 1;
        }
    }
}

/// Checks that need only the manifest.
fn validate_manifest_semantics(manifest: &CheckpointManifest, report: &mut CheckpointReport) {
    if manifest.shard_files.len() != manifest.shards {
        report.problem(format!(
            "manifest names {} shard files but claims {} shards",
            manifest.shard_files.len(),
            manifest.shards
        ));
    }

    let mut seen = BTreeSet::new();
    for name in &manifest.shard_files {
        if name.contains('/') || name.contains('\\') || name.contains("..") {
            report.problem(format!(
                "shard file name {name:?} contains a path separator or `..` \
                 (checkpoint files must live flat inside the directory)"
            ));
        }
        if !seen.insert(name) {
            report.problem(format!("shard file {name:?} is listed more than once"));
        }
    }

    validate_alarm_policy(&manifest.config.alarm, report);
    validate_remote_ownership(manifest, report);

    // A checkpoint cut at `cut_seq` reflects that many accepted frames;
    // the recorded source watermarks must account for at least as many
    // deliveries, or resume would re-admit frames the models already saw.
    if !manifest.sources.is_empty() {
        let delivered: u64 = manifest
            .sources
            .values()
            .fold(0u64, |acc, &v| acc.saturating_add(v));
        if delivered < manifest.cut_seq {
            report.problem(format!(
                "cut_seq {} exceeds the {} frames accounted for by source watermarks",
                manifest.cut_seq, delivered
            ));
        }
    }
}

/// Checks the remote shard ownership table written by a fabric
/// coordinator. Empty tables (single-process checkpoints) are always
/// fine; a non-empty table must name every shard exactly once, under a
/// coherent epoch, so `coordinator --resume` can fence every pre-crash
/// assignment and re-dial the recorded workers.
fn validate_remote_ownership(manifest: &CheckpointManifest, report: &mut CheckpointReport) {
    if manifest.remote.is_empty() {
        return;
    }
    if manifest.remote.len() != manifest.shards {
        report.problem(format!(
            "remote table records {} shard owners but the manifest claims {} shards",
            manifest.remote.len(),
            manifest.shards
        ));
    }
    let mut owned = BTreeSet::new();
    for entry in &manifest.remote {
        if entry.shard >= manifest.shards {
            report.problem(format!(
                "remote table assigns worker {:?} to shard {} but the manifest \
                 has only {} shards (orphaned worker)",
                entry.source, entry.shard, manifest.shards
            ));
        } else if !owned.insert(entry.shard) {
            report.problem(format!(
                "shard {} has more than one remote owner (duplicate ownership \
                 would double-score every snapshot on resume)",
                entry.shard
            ));
        }
        if entry.epoch == 0 {
            report.problem(format!(
                "remote shard {} records epoch 0, which is reserved for \
                 \"never owned remotely\" — the table is incoherent",
                entry.shard
            ));
        } else if entry.epoch > manifest.fabric_epoch {
            report.problem(format!(
                "remote shard {} was admitted under epoch {} but the manifest's \
                 fabric epoch is only {} (stale or tampered epoch: resume would \
                 fail to fence this worker's pre-crash boards)",
                entry.shard, entry.epoch, manifest.fabric_epoch
            ));
        }
        if entry.source.is_empty() {
            report.problem(format!(
                "remote shard {} records an empty worker address",
                entry.shard
            ));
        }
    }
    for shard in 0..manifest.shards {
        if !owned.contains(&shard) {
            report.problem(format!(
                "shard {shard} has no remote owner in a non-empty remote table \
                 (resume could not place it)"
            ));
        }
    }
}

fn validate_alarm_policy(alarm: &AlarmPolicy, report: &mut CheckpointReport) {
    for (name, value) in [
        ("system_threshold", alarm.system_threshold),
        ("measurement_threshold", alarm.measurement_threshold),
    ] {
        if !value.is_finite() || !(0.0..=1.0).contains(&value) {
            report.problem(format!(
                "alarm {name} must be a finite score in [0, 1], got {value}"
            ));
        }
    }
    if alarm.min_consecutive == 0 {
        report.problem("alarm min_consecutive must be >= 1 (0 can never fire)");
    }
}

/// Opens every shard file, checks config coherence, pair ownership, and
/// per-model invariants.
fn validate_shards(dir: &Path, manifest: &CheckpointManifest, report: &mut CheckpointReport) {
    let mut owners = BTreeSet::new();
    for name in &manifest.shard_files {
        // Don't follow hostile names out of the directory; the naming
        // problem was already reported above.
        if name.contains('/') || name.contains('\\') || name.contains("..") {
            continue;
        }
        let path = dir.join(name);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                report.problem(format!("cannot read shard file {name}: {e}"));
                continue;
            }
        };
        let snapshot: EngineSnapshot = match serde_json::from_str(&text) {
            Ok(s) => s,
            Err(e) => {
                report.problem(format!("shard file {name} does not parse: {e}"));
                continue;
            }
        };
        report.shards_checked += 1;

        if snapshot.config != manifest.config {
            report.problem(format!(
                "shard file {name} was written under a different engine config \
                 than the manifest records"
            ));
        }

        for (pair, model) in &snapshot.models {
            if !owners.insert(*pair) {
                report.problem(format!(
                    "pair {pair} is owned by more than one shard ({name})"
                ));
            }
            if let Err(why) = verify_model(model, DEFAULT_ROW_SAMPLE) {
                report.problem(format!("model for {pair} in {name}: {why}"));
            }
            report.models_checked += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_directory_is_a_problem_not_a_panic() {
        let report = validate_checkpoint(Path::new("/nonexistent/gridwatch-audit-test"));
        assert!(!report.is_valid());
        assert_eq!(report.problems.len(), 1);
    }

    #[test]
    fn alarm_policy_bounds() {
        let mut report = CheckpointReport::default();
        validate_alarm_policy(&AlarmPolicy::default(), &mut report);
        assert!(report.is_valid(), "{:?}", report.problems);

        let mut report = CheckpointReport::default();
        validate_alarm_policy(
            &AlarmPolicy {
                system_threshold: 1.5,
                measurement_threshold: -0.1,
                min_consecutive: 0,
            },
            &mut report,
        );
        assert_eq!(report.problems.len(), 3, "{:?}", report.problems);
    }
}
