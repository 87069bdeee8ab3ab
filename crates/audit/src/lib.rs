//! gridwatch-audit: in-repo static analysis for the gridwatch workspace.
//!
//! Four pieces, all driven by the `gridwatch audit` subcommand (the
//! crate's one front-end):
//!
//! * a **lint pass** ([`lints`]) over workspace sources using a
//!   self-contained lexer ([`lexer`]) — no rustc or syn dependency, so
//!   it runs anywhere the repo checks out;
//! * an **allowlist** ledger ([`allowlist`]) that makes existing
//!   violations visible and burn-downable while failing CI on new ones;
//! * an offline **checkpoint validator** ([`checkpoint`]) that checks a
//!   checkpoint directory's semantic invariants more deeply than
//!   `--resume` itself does;
//! * a cross-file **concurrency pass** ([`concurrency`]) that builds a
//!   global lock-order graph and reports deadlock cycles, blocking
//!   calls under held guards, and loopless condvar waits
//!   (`gridwatch audit --concurrency`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allowlist;
pub mod checkpoint;
pub mod concurrency;
pub mod lexer;
pub mod lints;

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lints::{Rule, Violation};

/// Crates whose library sources are linted for panics, float
/// comparisons, and unbounded channels: the serving path, where a panic
/// kills client streams and an unbounded queue defeats backpressure.
pub const RUNTIME_LINT_CRATES: &[&str] = &[
    "serve",
    "grid",
    "detect",
    "timeseries",
    "obs",
    "store",
    "sync",
];

/// Crates additionally scanned for the `serde-default` rule — anywhere
/// a checkpointed struct is defined.
pub const SERDE_LINT_CRATES: &[&str] = &[
    "serve",
    "grid",
    "detect",
    "timeseries",
    "core",
    "obs",
    "store",
    "sync",
];

/// Finds the workspace root by walking up from `start` looking for a
/// `Cargo.toml` containing `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = if start.is_dir() {
        start.to_path_buf()
    } else {
        start.parent()?.to_path_buf()
    };
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for stable
/// output; `tests/`, `benches/`, and `examples/` directories are skipped
/// (the lints target library code reachable in production).
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "tests" | "benches" | "examples" | "target") {
                continue;
            }
            rust_sources(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The repo-relative, forward-slash form of `path` under `root` (used in
/// reports and allowlist entries so they are stable across machines).
fn relative_name(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}

/// Lints the gridwatch workspace rooted at `root`. Returns violations
/// sorted by file and line.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for krate in SERDE_LINT_CRATES {
        let src = root.join("crates").join(krate).join("src");
        if !src.is_dir() {
            continue;
        }
        let runtime_rules = RUNTIME_LINT_CRATES.contains(krate);
        let rules: &[Rule] = if runtime_rules {
            Rule::ALL
        } else {
            &[Rule::SerdeDefault]
        };
        let mut files = Vec::new();
        rust_sources(&src, &mut files)?;
        for path in files {
            let source = fs::read_to_string(&path)?;
            let name = relative_name(root, &path);
            violations.extend(lints::lint_source(&name, &source, rules));
        }
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(violations)
}

/// Lints every `.rs` file under `dir` with **all** rules — fixture mode,
/// used by the self-tests and CI to prove the rules fire.
pub fn scan_paths(dir: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    if dir.is_dir() {
        rust_sources(dir, &mut files)?;
    } else {
        files.push(dir.to_path_buf());
    }
    let mut violations = Vec::new();
    for path in files {
        let source = fs::read_to_string(&path)?;
        let name = relative_name(dir, &path);
        violations.extend(lints::lint_source(&name, &source, Rule::ALL));
    }
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(violations)
}

/// Renders one violation as a `file:line: [rule] message: excerpt` line.
pub fn render_violation(v: &Violation) -> String {
    format!(
        "{}:{}: [{}] {}\n    {}",
        v.file,
        v.line,
        v.rule.name(),
        v.message,
        v.excerpt
    )
}

/// Renders the allowlist burn-down trend line CI prints on every run.
///
/// `serde-default` entries are reported separately: they freeze the
/// *existing* checkpoint schema (so only newly added fields without
/// `#[serde(default)]` fail the audit) and are not technical debt to
/// burn down, unlike the panic/float/channel sites.
pub fn render_trend(entries: &[allowlist::Entry]) -> String {
    let (schema, debt): (Vec<_>, Vec<_>) = entries
        .iter()
        // Concurrency entries have their own trend line
        // ([`render_concurrency_trend`]); keep them out of this one.
        .filter(|e| !e.rule.is_concurrency())
        .partition(|e| e.rule == Rule::SerdeDefault);
    let sites: usize = debt.iter().map(|e| e.count).sum();
    let mut files: Vec<&str> = debt.iter().map(|e| e.file.as_str()).collect();
    files.sort_unstable();
    files.dedup();
    let frozen_fields: usize = schema.iter().map(|e| e.count).sum();
    let mut line = String::new();
    let _ = write!(
        line,
        "allowlist burn-down: {sites} allowlisted sites across {} files (goal: 0); \
         checkpoint schema baseline: {frozen_fields} frozen fields",
        files.len()
    );
    line
}

/// Renders the concurrency trend line CI prints alongside the lint
/// trend: graph size plus how many concurrency findings are currently
/// justified in the ledger.
pub fn render_concurrency_trend(
    report: &concurrency::ConcurrencyReport,
    entries: &[allowlist::Entry],
) -> String {
    let allowlisted: usize = entries
        .iter()
        .filter(|e| e.rule.is_concurrency())
        .map(|e| e.count)
        .sum();
    format!(
        "concurrency: {} lock acquisition sites across {} classes, {} order edges; \
         {allowlisted} allowlisted concurrency site(s) (goal: 0)",
        report.lock_sites, report.classes, report.edges
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_found_from_nested_dir() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("Cargo.toml").is_file());
        assert!(root.join("crates/serve/src/net.rs").is_file());
    }

    #[test]
    fn scan_workspace_runs_clean_rule_set() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let violations = scan_workspace(&root).expect("scan");
        // The workspace may carry allowlisted sites, but scanning itself
        // must succeed and produce stable, sorted output.
        for pair in violations.windows(2) {
            assert!((&pair[0].file, pair[0].line) <= (&pair[1].file, pair[1].line));
        }
    }

    #[test]
    fn trend_line_counts_sites_and_files() {
        let entries = allowlist::parse(
            "no-panic\ta.rs\t3\tx.unwrap()\nno-panic\tb.rs\t1\ty.unwrap()\nfloat-cmp\ta.rs\t1\tq == 1.0\n",
        )
        .unwrap();
        assert_eq!(
            render_trend(&entries),
            "allowlist burn-down: 5 allowlisted sites across 2 files (goal: 0); \
             checkpoint schema baseline: 0 frozen fields"
        );
    }
}
