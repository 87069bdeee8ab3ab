//! `gridwatch audit` — offline checkpoint and history-store validation,
//! for use before `gridwatch serve --resume`.

use std::path::Path;

use gridwatch_audit::checkpoint;

use crate::flags::Flags;

const HELP: &str = "\
gridwatch audit --checkpoint DIR
gridwatch audit --store DIR

  --checkpoint DIR  validate a checkpoint directory; run this before
                    `gridwatch serve --resume` on a directory you do
                    not trust
  --store DIR       validate a history store offline (read-only): torn
                    or truncated WAL tails, frame and block checksum
                    mismatches, overlapping or misaligned partitions,
                    unknown block versions";

pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let flags = Flags::parse("audit", args, &[], &[&["checkpoint", "store"]])?;

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

    Err(format!("--checkpoint or --store is required\n{HELP}"))
}
