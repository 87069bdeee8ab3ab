//! `gridwatch` — the operator CLI.
//!
//! ```text
//! gridwatch simulate --group A --machines 4 --days 30 --fault --out trace.csv
//! gridwatch train    --trace trace.csv --train-days 8 --out engine.json
//! gridwatch monitor  --trace trace.csv --engine engine.json --from-day 15 --days 1
//! gridwatch serve    --trace trace.csv --engine engine.json --shards 4
//! gridwatch serve    --listen 127.0.0.1:7700 --engine engine.json
//! gridwatch inspect  --engine engine.json
//! ```
//!
//! `simulate` generates monitoring data (or bring your own CSV in the
//! same format); `train` learns one transition-probability model per
//! screened measurement pair and persists the engine; `monitor` streams
//! a time range through the engine, printing alarms and incident
//! drill-downs; `inspect` summarizes a persisted engine.

mod commands;
mod flags;

use std::process::ExitCode;

const USAGE: &str = "\
usage: gridwatch <command> [flags]

commands:
  simulate   generate monitoring data as CSV
             --out FILE [--group A|B|C] [--machines N] [--days N]
             [--seed N] [--fault | --chaos REGIME]
  train      train a detection engine from a CSV trace
             --trace FILE --out FILE [--train-days N] [--max-pairs N]
             [--min-cv X] [--delta X] [--frozen] [--drift]
  monitor    stream a time range through a persisted engine
             --trace FILE --engine FILE [--from-day N] [--days N]
             [--system-threshold X] [--measurement-threshold X]
             [--consecutive N] [--incidents] [--save FILE]
             [--store DIR [--store-depth D] [--store-retention-secs N]]
  serve      feed the sharded concurrent engine: replay a trace, or
             ingest live snapshot frames over TCP
             (--trace FILE | --listen ADDR) --engine FILE [--shards N]
             [--backpressure P] [--queue-capacity N] [--rate X]
             [--protocol auto|json|csv] [--read-timeout SECS]
             [--max-frame-bytes N] [--max-snapshots N] [--checkpoint DIR]
             [--checkpoint-every N] [--resume] [--stats FILE]
             [--metrics ADDR] [--store DIR [--store-depth D]]
  shard-worker
             serve one shard of a multi-node fabric over TCP
             --listen ADDR [--metrics ADDR]
  coordinator
             replay a trace through remote shard workers and merge
             their boards into one report stream
             --trace FILE --engine FILE --workers ADDR[,ADDR...]
             [--from-day N] [--days N] [--rate X] [--checkpoint DIR]
             [--checkpoint-every N] [--resume] [--reattach-secs N]
             [--halt-workers] [--stats FILE] [--metrics ADDR]
             [--store DIR [--store-depth D]]
  eval       run the scored chaos evaluation: hostile regimes vs
             typed ground truth, with per-regime detection latency,
             precision/recall, and drift-rebuild counts
             --chaos [--regime R] [--machines N] [--seed N]
             [--max-pairs N] [--threshold X] [--days N] [--out DIR]
  history    query the history store written by --store: time-range
             scans, per-key filters, top-k lowest-fitness ranking
             --store DIR [--kind scores|stats|events|traces] [--from-day N]
             [--days N] [--system | --measurement M | --pair A~B]
             [--event-kind K] [--top-k N] [--format json|csv] [--limit N]
  trace      query the exemplar traces captured by serving runs with
             --trace-* flags: per-snapshot stage waterfalls with
             shard/worker attribution
             --store DIR [--from-day N] [--days N] [--source S]
             [--alarmed] [--slowest K] [--format text|json] [--limit N]
  inspect    summarize a persisted engine
             --engine FILE [--verbose]
  audit      validate a checkpoint directory offline before
             `serve --resume`, or validate a history store
             --checkpoint DIR | --store DIR

run `gridwatch <command> --help` for details";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let command = args.remove(0);
    let result = match command.as_str() {
        "simulate" => commands::simulate::run(&args),
        "train" => commands::train::run(&args),
        "monitor" => commands::monitor::run(&args),
        "serve" => commands::serve::run(&args),
        "shard-worker" => commands::shard_worker::run(&args),
        "coordinator" => commands::coordinator::run(&args),
        "eval" => commands::eval::run(&args),
        "history" => commands::history::run(&args),
        "trace" => commands::trace::run(&args),
        "inspect" => commands::inspect::run(&args),
        "audit" => commands::audit::run(&args),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gridwatch {command}: {msg}");
            ExitCode::FAILURE
        }
    }
}
