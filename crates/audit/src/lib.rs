//! gridwatch-audit: in-repo analysis for the gridwatch workspace.
//!
//! Two pieces, both driven by the `gridwatch audit` subcommand (the
//! crate's one front-end):
//!
//! * a **concurrency pass** ([`concurrency`]) over a self-contained
//!   lexer ([`lexer`]) that reports every lock taken and every blocking
//!   call made under a held guard (locks are leaves);
//! * an offline **checkpoint validator** ([`checkpoint`]) that checks a
//!   checkpoint directory's semantic invariants more deeply than
//!   `--resume` itself does.
//!
//! The per-file rules (no panics, no naked float comparisons, no
//! unbounded channels in the runtime crates) are compiler lints set at
//! each runtime crate's root, and the persisted formats are pinned by
//! the compat fixtures under `tests/fixtures/compat`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod concurrency;
pub mod lexer;

use std::fs;
use std::path::{Path, PathBuf};

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
}
