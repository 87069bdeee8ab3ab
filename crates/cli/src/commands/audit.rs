//! `gridwatch audit` — static analysis and checkpoint validation.
//!
//! The one front-end over the `gridwatch-audit` crate: the concurrency
//! pass and fixture self-check CI runs, plus the offline checkpoint and
//! store validators for use before `gridwatch serve --resume`.

use std::path::{Path, PathBuf};

use gridwatch_audit::concurrency::{self, render_trend, render_violation, ConcurrencyReport};
use gridwatch_audit::{checkpoint, find_workspace_root};

use crate::flags::Flags;

const HELP: &str = "\
gridwatch audit [--root DIR]
gridwatch audit --paths DIR
gridwatch audit --checkpoint DIR
gridwatch audit --store DIR

  (no flag)         run the concurrency pass over the workspace:
                    report every lock taken, and every blocking call
                    made, while a guard is held (locks are leaves);
                    fails on any finding
  --root DIR        workspace root (default: walk up from the cwd)
  --paths DIR       fixture mode: the same pass over every file under
                    DIR
  --checkpoint DIR  validate a checkpoint directory instead;
                    run this before `gridwatch serve --resume` on a
                    directory you do not trust
  --store DIR       validate a history store offline (read-only): torn
                    or truncated WAL tails, frame and block checksum
                    mismatches, overlapping or misaligned partitions,
                    unknown block versions";

pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let flags = Flags::parse(
        "audit",
        args,
        &[],
        &[&["root", "paths", "checkpoint", "store"]],
    )?;

    if let Some(dir) = flags.get::<String>("paths")? {
        let report = concurrency::scan_concurrency_paths(Path::new(&dir))
            .map_err(|e| format!("scanning {dir}: {e}"))?;
        return finish(&report, &dir);
    }

    if let Some(dir) = flags.get::<String>("store")? {
        let report = gridwatch_store::validate_store(Path::new(&dir))
            .map_err(|e| format!("cannot validate store {dir}: {e}"))?;
        for problem in &report.problems {
            println!("store problem: {problem}");
        }
        for note in &report.notes {
            println!("store note: {note}");
        }
        println!(
            "store {dir}: {} partition(s), {} block(s), {} sealed row(s), \
             {} WAL record(s), {} problem(s), {} note(s)",
            report.partitions,
            report.blocks,
            report.sealed_rows,
            report.wal_records,
            report.problems.len(),
            report.notes.len()
        );
        return if report.is_healthy() {
            Ok(())
        } else {
            Err(format!(
                "store {dir} failed validation with {} problem(s)",
                report.problems.len()
            ))
        };
    }

    if let Some(dir) = flags.get::<String>("checkpoint")? {
        let report = checkpoint::validate_checkpoint(Path::new(&dir));
        for problem in &report.problems {
            println!("checkpoint: {problem}");
        }
        println!(
            "checkpoint {dir}: {} shard files, {} models checked, {} problems",
            report.shards_checked,
            report.models_checked,
            report.problems.len()
        );
        return if report.is_valid() {
            Ok(())
        } else {
            Err(format!(
                "checkpoint {dir} failed validation with {} problem(s)",
                report.problems.len()
            ))
        };
    }

    let root = match flags.get::<String>("root")? {
        Some(r) => PathBuf::from(r),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("getting cwd: {e}"))?;
            find_workspace_root(&cwd)
                .ok_or("no workspace Cargo.toml above the current directory; pass --root")?
        }
    };
    let report = concurrency::scan_concurrency(&root)
        .map_err(|e| format!("scanning {}: {e}", root.display()))?;
    println!("{}", render_trend(&report));
    finish(&report, &root.display().to_string())
}

/// Prints every finding; any finding fails the audit.
fn finish(report: &ConcurrencyReport, scanned: &str) -> Result<(), String> {
    for v in &report.violations {
        println!("{}", render_violation(v));
    }
    println!("{} violation(s) in {scanned}", report.violations.len());
    if report.violations.is_empty() {
        Ok(())
    } else {
        Err(format!("{scanned} failed the concurrency pass"))
    }
}
