//! End-to-end chaos coverage through the real binary: per-regime
//! scored evaluation with pinned golden reports, the full sweep's
//! shape checks, and the drift pipeline surfacing rebuild events into
//! the history store where `--event-kind` can find them.
//!
//! Everything here is seeded and replayed deterministically, so the
//! golden strings are exact: a diff means scoring, simulation, or
//! report formatting changed, and the pin should only move with a
//! deliberate review of the new numbers.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gridwatch"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridwatch_chaos_{tag}_{}", std::process::id()));
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

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// The fast deterministic settings every test here evaluates under.
const FAST: [&str; 6] = ["--machines", "2", "--max-pairs", "10", "--days", "1"];

fn eval_regime(regime: &str) -> String {
    let out = run_ok(
        bin()
            .args(["eval", "--chaos", "--regime", regime])
            .args(FAST),
    );
    stdout_of(&out)
}

#[test]
fn per_regime_reports_are_pinned() {
    // One golden block per regime. drift is the only regime allowed
    // (and required) to rebuild; cascade is the fault-detection
    // regime; skew/flapping/overload must stay silent on both fronts.
    assert_eq!(
        eval_regime("drift"),
        "regime          drift\n\
         samples         240\n\
         delay_s         46080\n\
         precision       1.000\n\
         recall          0.009\n\
         rebuilds        2\n\
         false_rebuilds  0\n\
         min_Q           0.331\n"
    );
    assert_eq!(
        eval_regime("skew"),
        "regime          skew\n\
         samples         240\n\
         delay_s         -\n\
         precision       0.000\n\
         recall          -\n\
         rebuilds        0\n\
         false_rebuilds  0\n\
         min_Q           0.433\n"
    );
    assert_eq!(
        eval_regime("flapping"),
        "regime          flapping\n\
         samples         150\n\
         delay_s         -\n\
         precision       -\n\
         recall          -\n\
         rebuilds        0\n\
         false_rebuilds  0\n\
         min_Q           0.715\n"
    );
    assert_eq!(
        eval_regime("overload"),
        "regime          overload\n\
         samples         240\n\
         delay_s         -\n\
         precision       0.000\n\
         recall          -\n\
         rebuilds        0\n\
         false_rebuilds  0\n\
         min_Q           0.362\n"
    );
    assert_eq!(
        eval_regime("cascade"),
        "regime          cascade\n\
         samples         240\n\
         delay_s         3960\n\
         precision       0.778\n\
         recall          0.175\n\
         rebuilds        0\n\
         false_rebuilds  0\n\
         min_Q           0.244\n"
    );
}

#[test]
fn full_sweep_passes_every_shape_check_and_the_table_is_pinned() {
    let dir = tmp_dir("sweep");
    let out = run_ok(
        bin()
            .args(["eval", "--chaos"])
            .args(FAST)
            .args(["--out", dir.to_str().unwrap()]),
    );
    let stdout = stdout_of(&out);
    assert!(!stdout.contains("[FAIL]"), "shape check failed:\n{stdout}");
    assert_eq!(stdout.matches("[PASS]").count(), 4, "{stdout}");
    // The scored table, one row per regime, pinned verbatim.
    let table = "\
  regime  samples  delay_s  precision  recall  rebuilds  false_rebuilds  min_Q
------------------------------------------------------------------------------
   drift      240    46080      1.000   0.009         2               0  0.331
    skew      240        -      0.000       -         0               0  0.433
flapping      150        -          -       -         0               0  0.715
overload      240        -      0.000       -         0               0  0.362
 cascade      240     3960      0.778   0.175         0               0  0.244";
    assert!(
        stdout.contains(table),
        "pinned table missing from:\n{stdout}"
    );
    // --out exported the table as CSV alongside the ASCII report.
    let csv = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.path().extension().is_some_and(|x| x == "csv"))
        .expect("a CSV table was written");
    let body = std::fs::read_to_string(csv.path()).unwrap();
    assert!(body.starts_with("regime,samples,delay_s"), "{body}");
    assert!(body.contains("drift,240,46080"), "{body}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_flag_validation() {
    // --chaos is required.
    let out = bin().args(["eval"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--chaos"));
    // Unknown regimes are named in the error.
    let out = bin()
        .args(["eval", "--chaos", "--regime", "mayhem"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mayhem"));
    // A flag eval never reads is an error, not a default run.
    let out = bin()
        .args(["eval", "--chaos", "--regimes", "drift"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown flag --regimes for gridwatch eval")
    );
    // --help mentions every regime.
    let help = stdout_of(&run_ok(bin().args(["eval", "--help"])));
    for regime in ["drift", "skew", "flapping", "overload", "cascade"] {
        assert!(help.contains(regime), "help missing {regime}");
    }
}

/// The whole drift story through the binary: a chaos trace from
/// `simulate`, a frozen+drift engine from `train`, rebuild events from
/// `monitor --store`, and `history --event-kind` pulling exactly them
/// back out — with the events landing inside the scenario's published
/// expected-rebuild window.
#[test]
fn drift_pipeline_persists_rebuild_events_matching_ground_truth() {
    let dir = tmp_dir("pipeline");
    let trace = dir.join("t.csv");
    let engine = dir.join("e.json");
    let store = dir.join("hist");

    let sim_out = stdout_of(&run_ok(bin().args([
        "simulate",
        "--chaos",
        "drift",
        "--machines",
        "2",
        "--days",
        "17",
        "--out",
        trace.to_str().unwrap(),
    ])));
    // The scenario publishes its ground truth: an alarm window and an
    // expected-rebuild window, both opening two hours into day 15.
    assert!(
        sim_out.contains("ground-truth fault window: [d15+02:00:00,"),
        "{sim_out}"
    );
    assert!(
        sim_out.contains("expected-rebuild window: [d15+02:00:00,"),
        "{sim_out}"
    );

    run_ok(bin().args([
        "train",
        "--trace",
        trace.to_str().unwrap(),
        "--train-days",
        "15",
        "--max-pairs",
        "10",
        "--frozen",
        "--drift",
        "--out",
        engine.to_str().unwrap(),
    ]));

    let monitor_out = stdout_of(&run_ok(bin().args([
        "monitor",
        "--trace",
        trace.to_str().unwrap(),
        "--engine",
        engine.to_str().unwrap(),
        "--from-day",
        "15",
        "--days",
        "2",
        "--store",
        store.to_str().unwrap(),
    ])));
    assert!(monitor_out.contains("ALARM"), "{monitor_out}");

    // --event-kind rebuild returns only rebuild events, and at least
    // one fired — on the drifted machine-000 out-traffic pair, at a
    // logical instant inside the expected-rebuild window (>= d15+2h).
    let rebuilds = stdout_of(&run_ok(bin().args([
        "history",
        "--store",
        store.to_str().unwrap(),
        "--kind",
        "events",
        "--event-kind",
        "rebuild",
    ])));
    let rows: Vec<&str> = rebuilds.lines().skip(1).collect();
    assert!(!rows.is_empty(), "no rebuild events:\n{rebuilds}");
    for row in &rows {
        assert!(row.contains(",rebuild,"), "non-rebuild row: {row}");
        assert!(
            row.contains("machine-000/IfOutOctetsRate_IF"),
            "rebuild off the drifted measurement: {row}"
        );
        assert!(row.contains("ok=true"), "rebuild did not refit: {row}");
        let day15 = row.contains("at=d15+") || row.contains("at=d16+");
        assert!(day15, "rebuild outside the replayed window: {row}");
        assert!(
            !row.contains("at=d15+00:") && !row.contains("at=d15+01:"),
            "rebuild before the drift onset at d15+02:00: {row}"
        );
    }

    // The unfiltered event scan also holds alarms; the alarm filter
    // must exclude every rebuild.
    let alarms = stdout_of(&run_ok(bin().args([
        "history",
        "--store",
        store.to_str().unwrap(),
        "--kind",
        "events",
        "--event-kind",
        "alarm",
    ])));
    assert!(alarms.lines().count() > 1, "no alarms:\n{alarms}");
    assert!(!alarms.contains("rebuild"), "{alarms}");

    // The filter is events-only.
    let out = bin()
        .args([
            "history",
            "--store",
            store.to_str().unwrap(),
            "--event-kind",
            "rebuild",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--kind events"));
    std::fs::remove_dir_all(&dir).ok();
}
