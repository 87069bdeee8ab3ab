//! `gridwatch audit` — static analysis and checkpoint validation.
//!
//! The one front-end over the `gridwatch-audit` crate: the lint pass
//! and fixture self-check CI runs, plus the offline checkpoint
//! validator for use before `gridwatch serve --resume`.

use std::path::{Path, PathBuf};

use gridwatch_audit::{
    allowlist, checkpoint, concurrency, find_workspace_root, render_concurrency_trend,
    render_trend, render_violation, scan_paths, scan_workspace,
};

use crate::flags::Flags;

const HELP: &str = "\
gridwatch audit [--concurrency] [--root DIR] [--allowlist FILE]
gridwatch audit --paths DIR
gridwatch audit --checkpoint DIR
gridwatch audit --store DIR

  --concurrency     also run the cross-file lock-order pass: build the
                    global lock-order graph, report cycles (potential
                    deadlocks), guards held across blocking calls, and
                    condvar waits without a predicate loop
  --root DIR        workspace root (default: walk up from the cwd)
  --allowlist FILE  allowlist ledger (default: <root>/audit/allowlist.txt)
  --paths DIR       fixture mode: lint every file under DIR with every
                    rule, the concurrency pass included, and no
                    allowlist; fails on any violation
  --checkpoint DIR  validate a checkpoint directory instead of linting;
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
        &["concurrency"],
        &[&["root", "allowlist", "paths", "checkpoint", "store"]],
    )?;

    if let Some(dir) = flags.get::<String>("paths")? {
        let scan_err = |e| format!("scanning {dir}: {e}");
        let mut violations = scan_paths(Path::new(&dir)).map_err(scan_err)?;
        let conc = concurrency::scan_concurrency_paths(Path::new(&dir)).map_err(scan_err)?;
        violations.extend(conc.violations);
        violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        for v in &violations {
            println!("{}", render_violation(v));
        }
        println!("{} violation(s) in {dir}", violations.len());
        return if violations.is_empty() {
            Ok(())
        } else {
            Err(format!("{dir} failed the lints"))
        };
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
    let allowlist_path = match flags.get::<String>("allowlist")? {
        Some(f) => PathBuf::from(f),
        None => root.join("audit/allowlist.txt"),
    };

    let mut violations =
        scan_workspace(&root).map_err(|e| format!("scanning {}: {e}", root.display()))?;
    let conc = if flags.has("concurrency") {
        let report = concurrency::scan_concurrency(&root)
            .map_err(|e| format!("scanning {}: {e}", root.display()))?;
        violations.extend(report.violations.iter().cloned());
        violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        Some(report)
    } else {
        None
    };
    let mut entries = match std::fs::read_to_string(&allowlist_path) {
        Ok(text) => allowlist::parse(&text).map_err(|e| e.to_string())?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("reading {}: {e}", allowlist_path.display())),
    };
    // Without the concurrency pass, its ledger entries have no
    // violations to match — keep them out of the two-sided check so
    // they are not reported stale.
    if conc.is_none() {
        entries.retain(|e| !e.rule.is_concurrency());
    }

    let rec = allowlist::reconcile(&violations, &entries);
    for v in &rec.new_violations {
        println!("{}", render_violation(v));
    }
    for (entry, surplus) in &rec.stale_entries {
        println!(
            "stale allowlist entry (line {}): [{}] {} x{} {:?} — {} site(s) no longer found",
            entry.source_line,
            entry.rule.name(),
            entry.file,
            entry.count,
            entry.fingerprint,
            surplus
        );
    }
    println!("{}", render_trend(&entries));
    if let Some(report) = &conc {
        println!("{}", render_concurrency_trend(report, &entries));
    }
    if rec.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "audit failed: {} new violation(s), {} stale allowlist entr(ies)",
            rec.new_violations.len(),
            rec.stale_entries.len()
        ))
    }
}
