//! End-to-end tests of the multi-node shard fabric CLI: `gridwatch
//! shard-worker` + `gridwatch coordinator` against a `gridwatch serve`
//! reference, worker kill + same-port restart with `--reattach-secs`,
//! and coordinator kill + `--resume` validated by `gridwatch audit
//! --checkpoint`.
//!
//! Every test spawns real OS processes over localhost TCP, so the suite
//! runs single-threaded in CI (see `ci.sh`).

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gridwatch"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gridwatch_fabric_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs a subcommand to completion, asserting success, and returns its
/// stdout.
fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "gridwatch {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// Simulates a faulty trace and trains an engine on its healthy prefix,
/// returning `(trace_path, engine_path)`. Shared CLI plumbing exercised
/// the same way an operator would.
fn fixture(dir: &Path) -> (String, String) {
    let trace = dir.join("trace.csv").to_string_lossy().to_string();
    let engine = dir.join("engine.json").to_string_lossy().to_string();
    run_ok(&[
        "simulate",
        "--out",
        &trace,
        "--group",
        "A",
        "--machines",
        "2",
        "--days",
        "17",
        "--fault",
    ]);
    run_ok(&[
        "train",
        "--trace",
        &trace,
        "--out",
        &engine,
        "--train-days",
        "8",
        "--max-pairs",
        "6",
    ]);
    (trace, engine)
}

/// A spawned child whose stdout is read line by line.
struct Proc {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Proc {
    /// Spawns the binary and blocks until a stdout line starts with
    /// `announce`, returning the rest of that line. `None` if the child
    /// exits first (e.g. the port is still held by a dying process).
    //
    // The escaping child is not a zombie: it leaves inside a `Proc`,
    // and every test path ends in `Proc::wait` or `Proc::kill`.
    #[allow(clippy::zombie_processes)]
    fn spawn(args: &[&str], announce: &str) -> Option<(Proc, String)> {
        let mut child = bin()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("read child stdout");
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
            if let Some(rest) = line.trim().strip_prefix(announce) {
                let rest = rest.to_string();
                return Some((Proc { child, stdout }, rest));
            }
        }
    }

    /// Blocks until the next stdout line starting with `announce`,
    /// returning the rest of that line.
    fn next_announce(&mut self, announce: &str) -> String {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.stdout.read_line(&mut line).expect("read child stdout");
            assert!(n > 0, "child exited before announcing {announce:?}");
            if let Some(rest) = line.trim().strip_prefix(announce) {
                return rest.to_string();
            }
        }
    }

    /// Waits for a clean exit and returns the remaining stdout.
    fn wait(mut self) -> String {
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("drain child stdout");
        let status = self.child.wait().expect("child waits");
        assert!(status.success(), "child failed; stdout:\n{rest}");
        rest
    }

    fn kill(mut self) {
        self.child.kill().expect("kill child");
        self.child.wait().expect("reap child");
    }
}

/// Spawns a `shard-worker` and parses its bound address.
fn spawn_worker(listen: &str) -> (Proc, String) {
    Proc::spawn(
        &["shard-worker", "--listen", listen],
        "worker listening on ",
    )
    .expect("worker spawns")
}

/// Restarts a worker on the address a killed one just vacated. The OS
/// may briefly refuse the rebind, so retry until a deadline.
fn respawn_worker(listen: &str) -> (Proc, String) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Some(got) = Proc::spawn(
            &["shard-worker", "--listen", listen],
            "worker listening on ",
        ) {
            return got;
        }
        assert!(
            Instant::now() < deadline,
            "could not rebind a worker on {listen}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// The signal the fabric must reproduce bit-for-bit: every ALARM line
/// in order, plus the lowest-system-fitness floor.
fn essence(out: &str) -> (Vec<String>, String) {
    let alarms = out
        .lines()
        .filter(|l| l.starts_with("ALARM "))
        .map(str::to_string)
        .collect();
    let floor = out
        .lines()
        .find(|l| l.starts_with("lowest system fitness"))
        .unwrap_or("")
        .to_string();
    (alarms, floor)
}

/// The single-process reference output for the default replay window.
fn serve_reference(trace: &str, engine: &str) -> String {
    run_ok(&[
        "serve", "--trace", trace, "--engine", engine, "--shards", "2",
    ])
}

#[test]
fn coordinator_matches_the_serve_reference() {
    let dir = tmp_dir("equiv");
    let (trace, engine) = fixture(&dir);
    let reference = serve_reference(&trace, &engine);
    let (ref_alarms, ref_floor) = essence(&reference);
    assert!(!ref_floor.is_empty(), "reference run produced no reports");

    let (w0, a0) = spawn_worker("127.0.0.1:0");
    let (w1, a1) = spawn_worker("127.0.0.1:0");
    let workers = format!("{a0},{a1}");
    let stats = dir.join("stats.json");
    let out = run_ok(&[
        "coordinator",
        "--trace",
        &trace,
        "--engine",
        &engine,
        "--workers",
        &workers,
        "--halt-workers",
        "--stats",
        stats.to_str().unwrap(),
    ]);
    assert!(out.contains("coordinating 2 remote shards"), "{out}");
    assert_eq!(essence(&out), (ref_alarms, ref_floor), "{out}");
    assert!(stats.exists(), "stats file written");

    // --halt-workers shut both workers down cleanly.
    for w in [w0, w1] {
        let summary = w.wait();
        assert!(summary.contains("worker served 1 sessions"), "{summary}");
        assert!(summary.contains("0 protocol errors"), "{summary}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_is_reattached_on_its_old_port() {
    let dir = tmp_dir("reattach");
    let (trace, engine) = fixture(&dir);
    let reference = serve_reference(&trace, &engine);

    let (w0, a0) = spawn_worker("127.0.0.1:0");
    let (w1, a1) = spawn_worker("127.0.0.1:0");
    let workers = format!("{a0},{a1}");
    // ~240 snapshots at 60/s leaves ~4s of replay to interfere with.
    let (coord, _) = Proc::spawn(
        &[
            "coordinator",
            "--trace",
            &trace,
            "--engine",
            &engine,
            "--workers",
            &workers,
            "--rate",
            "60",
            "--reattach-secs",
            "15",
            "--halt-workers",
        ],
        "coordinating ",
    )
    .expect("coordinator spawns");

    // Kill shard 1's worker mid-stream, then restart one on the same
    // port; the coordinator must migrate the shard onto it and finish.
    std::thread::sleep(Duration::from_millis(500));
    w1.kill();
    let (w1b, _) = respawn_worker(&a1);

    let out = coord.wait();
    assert!(out.contains("reattached shard 1"), "{out}");
    assert!(out.contains("1 migrations"), "{out}");
    // The migrated fabric still reproduces the reference stream.
    assert_eq!(essence(&out), essence(&reference), "{out}");

    for w in [w0, w1b] {
        w.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_coordinator_resumes_from_an_audited_checkpoint() {
    let dir = tmp_dir("resume");
    let (trace, engine) = fixture(&dir);
    let ckpt = dir.join("ckpt").to_string_lossy().to_string();
    let stats = dir.join("stats.json");

    let (w0, a0) = spawn_worker("127.0.0.1:0");
    let (w1, a1) = spawn_worker("127.0.0.1:0");
    let workers = format!("{a0},{a1}");
    let (coord, _) = Proc::spawn(
        &[
            "coordinator",
            "--trace",
            &trace,
            "--engine",
            &engine,
            "--workers",
            &workers,
            "--rate",
            "60",
            "--checkpoint",
            &ckpt,
            "--checkpoint-every",
            "60",
            "--stats",
            stats.to_str().unwrap(),
        ],
        "coordinating ",
    )
    .expect("coordinator spawns");

    // Wait for a periodic checkpoint to land, then kill the coordinator
    // without ceremony. The workers keep listening.
    let manifest = Path::new(&ckpt).join("manifest.json");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let cut = std::fs::read_to_string(&manifest)
            .ok()
            .and_then(|text| {
                text.split("\"cut_seq\":").nth(1).and_then(|rest| {
                    rest.trim()
                        .split(|c: char| !c.is_ascii_digit())
                        .next()?
                        .parse::<u64>()
                        .ok()
                })
            })
            .unwrap_or(0);
        if cut >= 60 {
            break;
        }
        assert!(Instant::now() < deadline, "no checkpoint landed");
        std::thread::sleep(Duration::from_millis(50));
    }
    // `--stats` is flushed at every cut, not only at exit: the file is
    // there mid-run, whole, counting the cut it rode with and fewer
    // snapshots than the ~240 the window holds.
    let field = |text: &str, name: &str| -> Option<u64> {
        let rest = text.split(&format!("\"{name}\":")).nth(1)?;
        let digits = rest.trim().split(|c: char| !c.is_ascii_digit()).next()?;
        digits.parse().ok()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let flushed = std::fs::read_to_string(&stats).unwrap_or_default();
        if !flushed.is_empty() {
            assert!(flushed.trim_end().ends_with('}'), "torn stats: {flushed}");
            assert!(field(&flushed, "checkpoints") >= Some(1), "{flushed}");
            let submitted = field(&flushed, "submitted").expect("submitted counter");
            assert!(
                (60..240).contains(&submitted),
                "not a mid-run flush: {flushed}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no stats flush rode the mid-run checkpoint"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    coord.kill();

    // The checkpoint the crash left behind passes offline validation,
    // including the remote ownership table.
    let audit = run_ok(&["audit", "--checkpoint", &ckpt]);
    assert!(audit.contains("2 shard files"), "{audit}");
    assert!(audit.contains("0 problems"), "{audit}");

    // Resume without --engine or --workers: both come from the
    // manifest. The final checkpoint at exit must validate too.
    let out = run_ok(&[
        "coordinator",
        "--trace",
        &trace,
        "--resume",
        "--checkpoint",
        &ckpt,
        "--halt-workers",
    ]);
    assert!(out.contains("resumed from checkpoint"), "{out}");
    assert!(out.contains("coordinating 2 remote shards"), "{out}");
    let audit = run_ok(&["audit", "--checkpoint", &ckpt]);
    assert!(audit.contains("0 problems"), "{audit}");

    for w in [w0, w1] {
        let summary = w.wait();
        assert!(summary.contains("worker served 2 sessions"), "{summary}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parses the `SocketAddr` out of a `metrics on http://HOST:PORT/metrics`
/// announcement tail.
fn metrics_addr(announce: &str) -> std::net::SocketAddr {
    announce
        .trim_start_matches("http://")
        .trim_end_matches("/metrics")
        .parse()
        .unwrap_or_else(|e| panic!("bad metrics address {announce:?}: {e}"))
}

#[test]
fn observed_fabric_matches_reference_and_serves_live_metrics() {
    let dir = tmp_dir("metrics");
    let (trace, engine) = fixture(&dir);
    let reference = serve_reference(&trace, &engine);

    // Workers expose their own endpoints; the coordinator's handshake
    // (sent because it runs with --metrics) lights their tracers up.
    let (mut w0, a0) = spawn_worker_with_metrics("127.0.0.1:0");
    let (mut w1, a1) = spawn_worker_with_metrics("127.0.0.1:0");
    let m0 = metrics_addr(&w0.next_announce("metrics on "));
    let m1 = metrics_addr(&w1.next_announce("metrics on "));
    let workers = format!("{a0},{a1}");
    let out = run_ok(&[
        "coordinator",
        "--trace",
        &trace,
        "--engine",
        &engine,
        "--workers",
        &workers,
        "--metrics",
        "127.0.0.1:0",
    ]);
    assert!(out.contains("metrics on http://"), "{out}");
    assert_eq!(essence(&out), essence(&reference), "{out}");
    let served: u64 = out
        .lines()
        .find_map(|l| l.strip_prefix("served ")?.split(' ').next()?.parse().ok())
        .expect("served summary line");
    assert!(served > 0, "{out}");

    // The workers outlive the run (no --halt-workers), so their
    // endpoints are scrapable with the final counts: every snapshot
    // fanned out to both shards, and the handshake-propagated tracer
    // recorded spans on each.
    for addr in [m0, m1] {
        let (status, body) = gridwatch_obs::scrape(addr, "/metrics").expect("scrape worker");
        assert!(status.contains("200"), "bad status {status}");
        let samples = gridwatch_obs::parse_exposition(&body).expect("parseable exposition");
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name}:\n{body}"))
                .value
        };
        assert_eq!(get("gridwatch_worker_snapshots_total"), served as f64);
        assert_eq!(get("gridwatch_worker_boards_total"), served as f64);
        assert_eq!(get("gridwatch_worker_sessions_total"), 1.0);
        assert_eq!(get("gridwatch_worker_protocol_errors_total"), 0.0);
        let score_count = samples
            .iter()
            .find(|s| {
                s.name == "gridwatch_stage_ns_count"
                    && s.labels.iter().any(|(k, v)| k == "stage" && v == "score")
            })
            .unwrap_or_else(|| panic!("no score spans:\n{body}"));
        assert_eq!(score_count.value, served as f64);
    }

    w0.kill();
    w1.kill();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns a `shard-worker` with a metrics endpoint and parses its bound
/// listen address (the metrics address is announced on the next line).
fn spawn_worker_with_metrics(listen: &str) -> (Proc, String) {
    Proc::spawn(
        &[
            "shard-worker",
            "--listen",
            listen,
            "--metrics",
            "127.0.0.1:0",
        ],
        "worker listening on ",
    )
    .expect("worker spawns")
}
