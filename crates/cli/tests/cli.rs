//! End-to-end CLI tests: simulate → train → monitor → inspect through
//! the real binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gridwatch"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridwatch_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("binary runs");
    assert!(
        out.status.success(),
        "command failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn full_workflow_detects_the_injected_fault() {
    let dir = tmp_dir("workflow");
    let trace = dir.join("trace.csv").to_string_lossy().to_string();
    let engine = dir.join("engine.json").to_string_lossy().to_string();
    let updated = dir.join("engine2.json").to_string_lossy().to_string();

    // Simulate 16 days with the Figure-12 fault on day 15.
    let out = run_ok(bin().args([
        "simulate",
        "--out",
        &trace,
        "--group",
        "A",
        "--machines",
        "3",
        "--days",
        "16",
        "--seed",
        "7",
        "--fault",
    ]));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("ground-truth fault window"), "{text}");

    // Train on the first 8 days.
    let out = run_ok(bin().args([
        "train",
        "--trace",
        &trace,
        "--out",
        &engine,
        "--train-days",
        "8",
    ]));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("trained"), "{text}");

    // Monitor the fault day; the injected break must alarm.
    let out = run_ok(bin().args([
        "monitor",
        "--trace",
        &trace,
        "--engine",
        &engine,
        "--from-day",
        "15",
        "--days",
        "1",
        "--system-threshold",
        "0.0",
        "--measurement-threshold",
        "0.55",
        "--incidents",
        "--save",
        &updated,
    ]));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    // Pinned for this seed with ranks taken on the exact log rows: a
    // scorer that flattens the low-probability tail (quantised rows, or
    // normalised rows whose `exp` underflows to tied zeros) still raises
    // *an* alarm, but fewer.
    let alarm_lines = text.lines().filter(|l| l.starts_with("ALARM")).count();
    assert_eq!(alarm_lines, 13, "{text}");
    assert!(
        text.contains("lowest system fitness: 0.6367 at d15+12:06:00"),
        "{text}"
    );
    assert!(text.contains("incident report"), "{text}");
    assert!(text.contains("updated engine snapshot"), "{text}");

    // Inspect both snapshots.
    let out = run_ok(bin().args(["inspect", "--engine", &engine]));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("pair models"), "{text}");
    let out = run_ok(bin().args(["inspect", "--engine", &updated, "--verbose"]));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("grid "), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_and_errors() {
    // Top-level help.
    let out = run_ok(bin().arg("--help"));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: gridwatch"));
    // Per-command help.
    let out = run_ok(bin().args(["simulate", "--help"]));
    assert!(String::from_utf8_lossy(&out.stdout).contains("--out FILE"));
    // Unknown command fails.
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    // Missing required flag fails.
    let out = bin().arg("train").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace is required"));
    // Unreadable trace fails cleanly.
    let out = bin()
        .args([
            "train",
            "--trace",
            "/no/such/file.csv",
            "--out",
            "/tmp/x.json",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));
}

#[test]
fn clean_monitoring_is_quiet() {
    let dir = tmp_dir("quiet");
    let trace = dir.join("trace.csv").to_string_lossy().to_string();
    let engine = dir.join("engine.json").to_string_lossy().to_string();
    run_ok(bin().args([
        "simulate",
        "--out",
        &trace,
        "--group",
        "B",
        "--machines",
        "2",
        "--days",
        "16",
        "--seed",
        "11",
    ]));
    run_ok(bin().args([
        "train",
        "--trace",
        &trace,
        "--out",
        &engine,
        "--train-days",
        "8",
    ]));
    let out = run_ok(bin().args([
        "monitor",
        "--trace",
        &trace,
        "--engine",
        &engine,
        "--from-day",
        "15",
        "--days",
        "1",
        "--system-threshold",
        "0.6",
        "--measurement-threshold",
        "0.3",
        "--consecutive",
        "2",
    ]));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("0 alarms"),
        "clean day must stay quiet:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_replays_the_fault_day_through_shards() {
    let dir = tmp_dir("serve");
    let trace = dir.join("trace.csv").to_string_lossy().to_string();
    let engine = dir.join("engine.json").to_string_lossy().to_string();
    let stats = dir.join("stats.json").to_string_lossy().to_string();
    let ckpt = dir.join("ckpt").to_string_lossy().to_string();

    run_ok(bin().args([
        "simulate",
        "--out",
        &trace,
        "--group",
        "A",
        "--machines",
        "3",
        "--days",
        "16",
        "--seed",
        "7",
        "--fault",
    ]));
    run_ok(bin().args([
        "train",
        "--trace",
        &trace,
        "--out",
        &engine,
        "--train-days",
        "8",
    ]));

    // Serve the fault day on 4 shards; the injected break must alarm
    // exactly as under `monitor`.
    let out = run_ok(bin().args([
        "serve",
        "--trace",
        &trace,
        "--engine",
        &engine,
        "--from-day",
        "15",
        "--days",
        "1",
        "--shards",
        "4",
        "--backpressure",
        "block",
        "--system-threshold",
        "0.0",
        "--measurement-threshold",
        "0.55",
        "--stats",
        &stats,
        "--checkpoint",
        &ckpt,
    ]));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("ALARM"), "no alarm raised:\n{text}");
    assert!(text.contains("across 4 shards (block)"), "{text}");
    assert!(text.contains("final checkpoint written"), "{text}");
    assert!(text.contains("serving stats written"), "{text}");

    // The stats dump is valid JSON with one entry per shard.
    let json = std::fs::read_to_string(&stats).unwrap();
    let parsed: gridwatch_serve::ServeStats = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed.shards.len(), 4);
    assert!(parsed.submitted > 0);
    assert_eq!(parsed.checkpoints, 1);

    // Resume from the checkpoint (no --engine needed) and serve the
    // next day on a different shard count.
    let out = run_ok(bin().args([
        "serve",
        "--trace",
        &trace,
        "--from-day",
        "15",
        "--days",
        "1",
        "--shards",
        "2",
        "--checkpoint",
        &ckpt,
        "--resume",
    ]));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("resumed from checkpoint"), "{text}");
    assert!(text.contains("across 2 shards"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Prepares a simulated trace plus a trained engine and returns their
/// paths. `fault` injects the Figure-12 break on day 15.
fn sim_and_train(dir: &std::path::Path, seed: &str, fault: bool) -> (String, String) {
    let trace = dir.join("trace.csv").to_string_lossy().to_string();
    let engine = dir.join("engine.json").to_string_lossy().to_string();
    let mut args = vec![
        "simulate",
        "--out",
        &trace,
        "--group",
        "A",
        "--machines",
        "3",
        "--days",
        "16",
        "--seed",
        seed,
    ];
    if fault {
        args.push("--fault");
    }
    run_ok(bin().args(&args));
    run_ok(bin().args([
        "train",
        "--trace",
        &trace,
        "--out",
        &engine,
        "--train-days",
        "8",
    ]));
    (trace, engine)
}

#[test]
fn monitor_output_is_pinned_and_incidents_carry_flight_events() {
    let dir = tmp_dir("monitor_golden");
    let (trace, engine) = sim_and_train(&dir, "7", true);

    let out = run_ok(bin().args([
        "monitor",
        "--trace",
        &trace,
        "--engine",
        &engine,
        "--from-day",
        "15",
        "--days",
        "1",
        "--system-threshold",
        "0.0",
        "--measurement-threshold",
        "0.55",
        "--incidents",
    ]));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    // The summary lines tooling parses.
    assert!(
        text.contains("monitored 240 snapshots over day 15..16;"),
        "{text}"
    );
    assert!(text.contains("lowest system fitness: "), "{text}");
    // The incident drill-down carries the engine's flight-recorder
    // ring: the alarm that triggered it is already in the run-up.
    assert!(text.contains("incident report @"), "{text}");
    assert!(text.contains("recent pipeline events:"), "{text}");
    assert!(text.contains("alarm event(s) at t="), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn monitor_flag_validation() {
    let out = run_ok(bin().args(["monitor", "--help"]));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("--incidents"), "{text}");

    // Missing required flags, named in order of declaration.
    let out = bin().arg("monitor").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace is required"));
    let out = bin()
        .args(["monitor", "--trace", "x.csv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--engine is required"));

    // A malformed numeric flag names the offending flag.
    let out = bin()
        .args([
            "monitor", "--trace", "x.csv", "--engine", "x.json", "--days", "banana",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad value for --days"));

    // Positional arguments are rejected, not silently ignored.
    let out = bin()
        .args(["monitor", "trace.csv", "--engine", "x.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected positional argument"));

    // So is a flag the command never reads — a typo, or one that was
    // removed — anywhere along simulate → train → monitor, before any
    // required flag is asked for.
    assert_unknown_flag(&["simulate", "--day", "3"], "--day");
    assert_unknown_flag(&["train", "--row-format", "quantized"], "--row-format");
    assert_unknown_flag(&["train", "--sketch"], "--sketch");
    assert_unknown_flag(&["monitor", "--incident"], "--incident");
    assert_unknown_flag(&["serve", "--sample-watermark", "75"], "--sample-watermark");
    assert_unknown_flag(&["serve", "--sample-stride", "2"], "--sample-stride");

    // Two backpressure policies remain; the removed one is a bad value.
    let out = bin()
        .args([
            "serve",
            "--trace",
            "x.csv",
            "--engine",
            "x.json",
            "--backpressure",
            "drop-oldest",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains(
        "bad value for --backpressure: unknown backpressure policy \"drop-oldest\" \
         (expected block or reject)"
    ));
}

/// Asserts `gridwatch <args>` fails naming the flag it does not know
/// and the subcommand (`args[0]`) that does not know it.
fn assert_unknown_flag(args: &[&str], flag: &str) {
    let out = bin().args(args).output().unwrap();
    assert!(!out.status.success(), "{args:?} must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("unknown flag {flag} for gridwatch {}", args[0])),
        "{args:?}: {stderr}"
    );
}

#[test]
fn inspect_output_is_pinned() {
    let dir = tmp_dir("inspect_golden");
    let (_, engine) = sim_and_train(&dir, "11", false);

    let out = run_ok(bin().args(["inspect", "--engine", &engine]));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains(&format!("engine snapshot: {engine}")),
        "{text}"
    );
    assert!(text.contains("  pair models: "), "{text}");
    assert!(text.contains("  model config: kernel "), "{text}");
    assert!(text.contains("  alarm policy: system < "), "{text}");
    assert!(text.contains("  total cells: "), "{text}");
    assert!(
        !text.contains("grid "),
        "terse mode must skip per-pair lines"
    );

    // Verbose adds one grid line per pair model.
    let out = run_ok(bin().args(["inspect", "--engine", &engine, "--verbose"]));
    let verbose = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(verbose.contains("grid "), "{verbose}");
    assert!(verbose.contains(" transitions, "), "{verbose}");
    assert!(
        verbose.lines().count() > text.lines().count(),
        "--verbose must add lines"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_flag_validation() {
    let out = run_ok(bin().args(["inspect", "--help"]));
    assert!(String::from_utf8_lossy(&out.stdout).contains("--verbose"));

    let out = bin().arg("inspect").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--engine is required"));

    // A missing snapshot file fails cleanly.
    let out = bin()
        .args(["inspect", "--engine", "/no/such/engine.json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // A file that is not an engine snapshot names the parse failure.
    let dir = tmp_dir("inspect_bad");
    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "{\"not\": \"an engine\"}").unwrap();
    let out = bin()
        .args(["inspect", "--engine", &bogus.to_string_lossy()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));
    std::fs::remove_dir_all(&dir).ok();

    // The offline readers reject flags they never read.
    assert_unknown_flag(&["inspect", "--verbos"], "--verbos");
    assert_unknown_flag(&["history", "--topk", "3"], "--topk");
    assert_unknown_flag(&["trace", "--slow", "3"], "--slow");
    assert_unknown_flag(&["audit", "--checkpoints", "x"], "--checkpoints");
    assert_unknown_flag(&["audit", "--concurrency"], "--concurrency");
    assert_unknown_flag(&["audit", "--allowlist", "x"], "--allowlist");
    assert_unknown_flag(&["audit", "--root", "."], "--root");
    assert_unknown_flag(&["audit", "--paths", "."], "--paths");
}

#[test]
fn stats_dumps_are_atomic_and_observed_replay_matches() {
    let dir = tmp_dir("stats_atomic");
    let (trace, engine) = sim_and_train(&dir, "7", true);
    let stats = dir.join("out").join("stats.json");
    let stats_arg = stats.to_string_lossy().to_string();

    let serve = |extra: &[&str]| {
        let mut args = vec![
            "serve",
            "--trace",
            &trace,
            "--engine",
            &engine,
            "--from-day",
            "15",
            "--days",
            "1",
            "--shards",
            "2",
            "--system-threshold",
            "0.0",
            "--measurement-threshold",
            "0.55",
        ];
        args.extend_from_slice(extra);
        let out = run_ok(bin().args(&args));
        String::from_utf8_lossy(&out.stdout).to_string()
    };

    let ckpt = dir.join("ckpt").to_string_lossy().to_string();
    let ckpt2 = dir.join("ckpt2").to_string_lossy().to_string();
    let plain = serve(&[
        "--stats",
        &stats_arg,
        "--checkpoint",
        &ckpt,
        "--checkpoint-every",
        "50",
    ]);
    assert!(plain.contains("serving stats written"), "{plain}");

    // The periodic flushes and the final write all went through the
    // atomic temp-file path: the dump parses and no temp file remains.
    let parsed: gridwatch_serve::ServeStats =
        serde_json::from_str(&std::fs::read_to_string(&stats).unwrap()).unwrap();
    assert!(parsed.submitted > 0);
    let leftovers: Vec<_> = std::fs::read_dir(stats.parent().unwrap())
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().to_string())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "torn temp files left: {leftovers:?}");

    // The alarm stream with the metrics endpoint live is identical to
    // the unobserved run, and the flight recorder dumped on alarm.
    let observed = serve(&["--metrics", "127.0.0.1:0", "--checkpoint", &ckpt2]);
    assert!(observed.contains("metrics on http://"), "{observed}");
    let alarms = |text: &str| {
        text.lines()
            .filter(|l| l.starts_with("ALARM "))
            .map(String::from)
            .collect::<Vec<_>>()
    };
    assert_eq!(
        alarms(&plain),
        alarms(&observed),
        "observability changed the alarm stream"
    );
    let flight = dir.join("ckpt2").join("flight.jsonl");
    let ring = std::fs::read_to_string(&flight).unwrap();
    assert!(
        ring.lines()
            .any(|l| l.contains("\"kind\":\"alarm\"") || l.contains("alarm")),
        "flight dump missing alarm events: {ring}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_flag_validation() {
    let out = run_ok(bin().args(["serve", "--help"]));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("--backpressure"), "{text}");
    assert!(text.contains("--shards"), "{text}");

    // Bad backpressure policy names the offender.
    let out = bin()
        .args([
            "serve",
            "--trace",
            "x.csv",
            "--engine",
            "x.json",
            "--backpressure",
            "flood",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("flood"));

    // Zero shards rejected before any work happens.
    let out = bin()
        .args([
            "serve", "--trace", "x.csv", "--engine", "x.json", "--shards", "0",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--shards must be positive"));

    // --resume without --checkpoint is an error.
    let out = bin()
        .args(["serve", "--trace", "x.csv", "--resume"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--resume requires --checkpoint"));

    // The serving commands reject flags they never read.
    assert_unknown_flag(&["serve", "--shard", "4"], "--shard");
    for (flag, value) in [
        ("--sketch-depth", "16"),
        ("--sketch-admit", "0.6"),
        ("--sketch-demote", "0.25"),
        ("--sketch-admit-rounds", "3"),
        ("--sketch-demote-rounds", "6"),
        ("--sketch-cooldown", "120"),
        ("--sketch-rescore-every", "8"),
        ("--sketch-max-materialized", "19"),
    ] {
        assert_unknown_flag(&["serve", flag, value], flag);
    }
    assert_unknown_flag(&["coordinator", "--worker", "a:1"], "--worker");
    assert_unknown_flag(&["shard-worker", "--shards", "2"], "--shards");
}

#[test]
fn bare_audit_fails_with_its_usage() {
    let out = bin().arg("audit").output().expect("run bare audit");
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--checkpoint or --store is required"),
        "{stderr}"
    );
    assert!(
        stderr.contains("gridwatch audit --checkpoint DIR"),
        "{stderr}"
    );
}
