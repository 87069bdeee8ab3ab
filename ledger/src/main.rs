//! `ledger` — gridwatch's performance ledger, measured from outside.
//!
//! ```text
//! ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! ledger diff A.json[,A2.json…] B.json[,B2.json…]
//! ```
//!
//! With `--workload`, runs that workload once and prints, as the last
//! line of standard output, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Without it,
//! runs all four workloads both ways. Either way every metric is printed
//! by name with its unit and the run is written to `--out`. See the
//! README beside `Cargo.toml`.

mod diff;
mod json;
mod loadgen;
mod metrics;
mod run;
mod spans;
mod stats;
mod sut;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Value;
use metrics::Measured;
use run::Outcome;
use workload::{Sizes, Spec, WORKLOADS};

/// The default seed: the first day of the paper's trace (2008-05-29).
const DEFAULT_SEED: u64 = 20080529;
/// The default measuring time, as `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "\
usage: ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       ledger diff A.json[,A2.json...] B.json[,B2.json...]

workloads: score-adaptive, score-frozen, ingest-wide, fabric-frozen";

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(workload::find(value).ok_or_else(bad)?),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// The metrics a run reports: end-to-end for a plain run, per-layer for
/// a traced one. Missing names have already made the run incorrect.
fn reported(outcome: &Outcome) -> Vec<Measured> {
    let rows = if outcome.traced {
        outcome.sheet.per_layer()
    } else {
        outcome.sheet.end_to_end()
    };
    rows.unwrap_or_default()
}

fn metrics_json(rows: &[Measured]) -> Value {
    Value::obj(rows.iter().map(|m| {
        (
            m.name,
            Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
        )
    }))
}

/// The result line the benchmark contract asks for.
fn result_line(outcome: &Outcome) -> String {
    Value::obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&reported(outcome))),
    ])
    .to_line()
}

fn run_json(outcome: &Outcome, seconds: f64) -> Value {
    let stages = outcome.stages.iter().map(|h| {
        Value::obj([
            ("stage", Value::str(h.stage)),
            ("count", Value::Num(h.count as f64)),
            ("sum_ns", Value::Num(h.sum_ns as f64)),
            ("min_ns", Value::Num(h.min_ns as f64)),
            ("max_ns", Value::Num(h.max_ns as f64)),
            (
                "buckets",
                Value::Arr(h.buckets.iter().map(|&n| Value::Num(n as f64)).collect()),
            ),
        ])
    });
    Value::obj([
        ("workload", Value::str(outcome.workload)),
        ("seed", Value::Num(outcome.seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("trace", Value::Bool(outcome.traced)),
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&reported(outcome))),
        (
            "notes",
            Value::Arr(outcome.notes.iter().map(Value::str).collect()),
        ),
        ("stage_histograms", Value::Arr(stages.collect())),
        ("trace_spans", outcome.spans.to_json()),
    ])
}

fn print_outcome(outcome: &Outcome) {
    println!(
        "{} seed {} ({}): {} — {} of {} frames failed",
        outcome.workload,
        outcome.seed,
        if outcome.traced {
            "traced, per layer"
        } else {
            "end to end"
        },
        if outcome.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        outcome.failed,
        outcome.attempted,
    );
    for m in reported(outcome) {
        println!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for note in &outcome.notes {
        println!("  ! {note}");
    }
}

fn run_command(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let plan: Vec<(&Spec, bool)> = match args.workload {
        Some(spec) => vec![(spec, args.traced)],
        None => WORKLOADS
            .iter()
            .flat_map(|spec| [(spec, false), (spec, true)])
            .collect(),
    };
    let mut all_correct = true;
    let mut runs = Vec::new();
    let mut last_line = None;
    for (spec, traced) in plan {
        let sizes = Sizes::for_run(spec, args.seconds, traced);
        let outcome = run::run(spec, &sizes, args.seed, traced)
            .map_err(|e| format!("{}: cannot start the system under test: {e}", spec.name))?;
        print_outcome(&outcome);
        all_correct &= outcome.correct;
        last_line = Some(result_line(&outcome));
        runs.push(run_json(&outcome, args.seconds));
    }

    let out = args.out.clone().unwrap_or_else(|| {
        run::out_dir().join(match args.workload {
            Some(spec) => format!("{}-trace{}.json", spec.name, u8::from(args.traced)),
            None => "ledger.json".to_string(),
        })
    });
    let doc = Value::obj([
        ("schema", Value::Num(1.0)),
        ("nproc", Value::Num(nproc as f64)),
        ("runs", Value::Arr(runs)),
    ]);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.to_pretty()).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("nproc {nproc}; run written to {}", out.display());
    if let (Some(_), Some(line)) = (args.workload, last_line) {
        // The contract's result: the last line of standard output.
        println!("{line}");
    }
    Ok(all_correct)
}

fn diff_command(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let read_side = |list: &String| -> Result<diff::Side, String> {
        let texts = list
            .split(',')
            .map(|path| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        diff::collect(&texts)
    };
    let (text, any_worse) = diff::render(&read_side(a)?, &read_side(b)?);
    print!("{text}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((first, rest)) if first == "diff" => diff_command(rest),
        Some((first, _)) if first == "--help" || first == "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&args).and_then(|args| run_command(&args)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}
