//! `gridwatch serve` — feed the sharded concurrent detection engine,
//! either by replaying a trace file or by listening on a TCP socket for
//! live snapshot frames, with backpressure, checkpointing, and stats.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gridwatch_detect::{EngineSnapshot, Snapshot, StepReport};
use gridwatch_serve::{
    BackpressurePolicy, Checkpointer, HistorySink, NetConfig, NetServer, ServeConfig, ServeStats,
    ShardedEngine, StatsProbe, WireProtocol,
};

use crate::commands::replay::{pipeline_obs, replay, ReplayFront, ReportPump, REPLAY_FLAGS};
use crate::commands::{
    apply_alarm_flags, load_engine, load_trace, open_history_sink, ALARM_FLAGS, EXEMPLAR_FLAGS,
    STORE_FLAGS,
};
use crate::flags::Flags;

const HELP: &str = "\
gridwatch serve (--trace FILE | --listen ADDR) --engine FILE [flags]

input (exactly one):
  --trace FILE              CSV monitoring data to replay
  --listen ADDR             accept snapshot frames over TCP (e.g.
                            127.0.0.1:7700; port 0 picks a free port)

engine:
  --engine FILE             engine snapshot from `gridwatch train`
  --shards N                shard worker threads          (default 4)
  --queue-capacity N        per-shard queue capacity      (default 64)
  --backpressure P          block | reject                (default block)
  --system-threshold X      alarm when Q_t < X            (engine default)
  --measurement-threshold X alarm when Q^a_t < X          (engine default)
  --consecutive N           debounce: N consecutive lows  (engine default)

  --checkpoint DIR          checkpoint into DIR (at the end, and every
                            --checkpoint-every snapshots when given)
  --checkpoint-every N      checkpoint period in snapshots (default: end only)
  --resume                  recover engine state from --checkpoint DIR
                            instead of --engine
  --stats FILE              write serving stats as JSON (flushed at every
                            checkpoint, and again at exit)

history store:
  --store DIR               append score history, stats samples, and
                            events to the embedded store at DIR (sealed
                            and retention-pruned at checkpoint cadence;
                            query with `gridwatch history`)
  --store-depth D           system | measurements | full  (default measurements)
  --store-partition-secs N  time-partition width          (default 86400)
  --store-retention-secs N  drop partitions older than N trace seconds
  --store-max-partitions N  keep at most N partitions

observability:
  --metrics ADDR            serve Prometheus metrics (plus burn-rate
                            gauges, GET /healthz, and GET /readyz) over
                            HTTP on ADDR (e.g. 127.0.0.1:0; port 0
                            picks a free port) and enable pipeline span
                            tracing; flight recorder dumps land in
                            --checkpoint DIR

replay mode:
  --from-day N              first day to stream (default 15 = June 13)
  --days N                  days to stream      (default 1)
  --rate X                  replay rate in snapshots/sec  (default: unthrottled)

listen mode:
  --protocol P              auto | json | csv             (default auto)
  --read-timeout SECS       close silent connections after SECS; 0 disables
                            (default 30)
  --max-frame-bytes N       largest accepted frame        (default 1048576)
  --ingest-capacity N       socket-boundary frame queue   (default 256)
  --reorder-capacity N      per-source reorder window     (default 64)
  --max-snapshots N         stop after N applied snapshots; 0 runs until
                            killed (default 0)";

pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}\n\n{}", crate::commands::TRACE_HELP);
        return Ok(());
    }
    let flags = Flags::parse(
        "serve",
        args,
        &["resume"],
        &[
            &["trace", "listen", "engine", "max-snapshots"],
            &["shards", "queue-capacity", "backpressure"],
            &["protocol", "read-timeout", "max-frame-bytes"],
            &["ingest-capacity", "reorder-capacity"],
            ALARM_FLAGS,
            STORE_FLAGS,
            EXEMPLAR_FLAGS,
            REPLAY_FLAGS,
        ],
    )?;
    if flags.has("resume") && flags.get::<String>("checkpoint")?.is_none() {
        return Err("--resume requires --checkpoint DIR".to_string());
    }
    let listen: Option<String> = flags.get("listen")?;
    match listen {
        Some(addr) => {
            if flags.get::<String>("trace")?.is_some() {
                return Err("--listen and --trace are mutually exclusive".to_string());
            }
            run_listen(&flags, &addr)
        }
        None => run_replay(&flags),
    }
}

/// Engine tuning shared by both modes.
fn serve_config(flags: &Flags) -> Result<ServeConfig, String> {
    let config = ServeConfig {
        shards: flags.get_or("shards", 4)?,
        queue_capacity: flags.get_or("queue-capacity", 64)?,
        backpressure: flags.get_or("backpressure", BackpressurePolicy::Block)?,
    };
    if config.shards == 0 {
        return Err("--shards must be positive".to_string());
    }
    if config.queue_capacity == 0 {
        return Err("--queue-capacity must be positive".to_string());
    }
    Ok(config)
}

/// Loads the starting engine state: a fresh `--engine` snapshot, or a
/// recovered checkpoint under `--resume` (with the per-source frame
/// progress the manifest recorded at the cut).
fn load_snapshot(
    flags: &Flags,
    checkpoint_dir: Option<&str>,
) -> Result<(EngineSnapshot, BTreeMap<String, u64>), String> {
    let mut sources = BTreeMap::new();
    let mut snapshot: EngineSnapshot = if flags.has("resume") {
        let dir = checkpoint_dir.ok_or_else(|| "--resume requires --checkpoint DIR".to_string())?;
        let (snapshot, manifest) = Checkpointer::new(dir)
            .recover()
            .map_err(|e| format!("cannot resume from {dir}: {e}"))?;
        println!(
            "resumed from checkpoint at {dir} (cut seq {}, {} shard files)",
            manifest.cut_seq, manifest.shards
        );
        sources = manifest.sources;
        snapshot
    } else {
        load_engine(&flags.require::<String>("engine")?)?
    };
    apply_alarm_flags(flags, &mut snapshot)?;
    Ok((snapshot, sources))
}

/// The in-process ingestion front as the replay driver sees it.
struct LocalFront(ShardedEngine);

impl ReplayFront for LocalFront {
    type Stats = ServeStats;
    const STATS_NAME: &'static str = "serving";

    fn submit(&mut self, snapshot: Snapshot) -> Result<(), String> {
        self.0.submit(snapshot);
        Ok(())
    }

    fn checkpoint(&mut self, dir: &str, last: bool) -> Result<(), String> {
        let manifest = self
            .0
            .checkpoint(dir)
            .map_err(|e| format!("checkpoint failed: {e}"))?;
        let which = if last {
            "final checkpoint"
        } else {
            "checkpoint"
        };
        println!("{which} written to {dir} (cut seq {})", manifest.cut_seq);
        Ok(())
    }

    fn try_recv_report(&mut self) -> Option<StepReport> {
        self.0.try_recv_report()
    }

    fn stats(&self) -> ServeStats {
        self.0.stats()
    }

    fn stats_json(stats: &ServeStats) -> String {
        stats.to_json()
    }

    fn shutdown(self) -> (Vec<StepReport>, ServeStats) {
        self.0.shutdown()
    }
}

/// The report pump over the probe of the engine (or of the listener in
/// front of it).
fn start_pump(
    flags: &Flags,
    obs: gridwatch_obs::PipelineObs,
    sink: Option<HistorySink>,
    probe: StatsProbe,
) -> Result<ReportPump, String> {
    let (sample_probe, health_probe) = (probe.clone(), probe.clone());
    ReportPump::start(
        flags,
        obs,
        sink,
        move || probe.to_prometheus(),
        move || sample_probe.burn_sample(),
        move || health_probe.health_report(),
    )
}

/// Replays a trace file through the engine.
fn run_replay(flags: &Flags) -> Result<(), String> {
    let trace_path: String = flags.require("trace")?;
    let from_day: u64 = flags.get_or("from-day", 15)?;
    let days: u64 = flags.get_or("days", 1)?;
    let checkpoint_dir: Option<String> = flags.get("checkpoint")?;
    let serve_config = serve_config(flags)?;

    let trace = load_trace(&trace_path)?;
    let (snapshot, _) = load_snapshot(flags, checkpoint_dir.as_deref())?;
    let sink = open_history_sink(flags)?;
    let obs = pipeline_obs(flags)?;
    let engine = ShardedEngine::start_with_obs(snapshot, serve_config, obs.clone());
    let pump = start_pump(flags, obs, sink, engine.stats_probe())?;
    replay(
        flags,
        &trace,
        LocalFront(engine),
        pump,
        0,
        |stats, ticks, pump| {
            if let Some(sink) = pump.sink.as_ref() {
                println!(
                    "history store {}: sealed through seq {}",
                    sink.store().dir().display(),
                    sink.store().next_seq()
                );
            }
            println!(
                "served {ticks} snapshots over day {from_day}..{} across {} shards ({}): \
                 {} reports, {} alarms, {} rejected",
                from_day + days,
                stats.shards.len(),
                serve_config.backpressure,
                stats.reports,
                pump.tally.alarms,
                stats.rejected,
            );
        },
    )
}

/// Listens on a TCP socket and feeds live frames to the engine.
fn run_listen(flags: &Flags, addr: &str) -> Result<(), String> {
    let checkpoint_dir: Option<String> = flags.get("checkpoint")?;
    let stats_path: Option<String> = flags.get("stats")?;
    let max_snapshots: u64 = flags.get_or("max-snapshots", 0)?;
    let checkpoint_every: u64 = flags.get_or("checkpoint-every", 0)?;
    let serve_config = serve_config(flags)?;
    let net_config = NetConfig {
        protocol: flags.get_or("protocol", WireProtocol::Auto)?,
        read_timeout: Duration::from_secs(flags.get_or("read-timeout", 30)?),
        max_frame_bytes: flags.get_or("max-frame-bytes", 1 << 20)?,
        ingest_capacity: flags.get_or("ingest-capacity", 256)?,
        reorder_capacity: flags.get_or("reorder-capacity", 64)?,
        checkpoint_dir: checkpoint_dir.as_deref().map(PathBuf::from),
        checkpoint_every,
        stats_path: stats_path.as_deref().map(PathBuf::from),
    };
    if net_config.max_frame_bytes == 0 {
        return Err("--max-frame-bytes must be positive".to_string());
    }
    if net_config.ingest_capacity == 0 {
        return Err("--ingest-capacity must be positive".to_string());
    }
    if net_config.reorder_capacity == 0 {
        return Err("--reorder-capacity must be positive".to_string());
    }

    let (snapshot, sources) = load_snapshot(flags, checkpoint_dir.as_deref())?;
    let sink = open_history_sink(flags)?;
    let obs = pipeline_obs(flags)?;
    let server = NetServer::bind_with_obs(
        addr,
        snapshot,
        serve_config,
        net_config,
        sources,
        obs.clone(),
    )
    .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    // Tooling (and the integration tests) parse the bound port from this
    // line, so it must hit the pipe before the first client connects.
    println!(
        "listening on {} ({})",
        server.local_addr(),
        serve_config.backpressure
    );
    std::io::stdout()
        .flush()
        .map_err(|e| format!("stdout: {e}"))?;
    let mut pump = start_pump(flags, obs, sink, server.metrics_probe())?;

    let began = Instant::now();
    let mut seen = 0u64;
    let mut last_at = 0u64;
    while max_snapshots == 0 || seen < max_snapshots {
        if let Some(report) = server.recv_report_timeout(Duration::from_millis(500)) {
            seen += 1;
            last_at = report.scores.at().as_secs();
            pump.pump(&report)?;
            if checkpoint_every > 0 && seen.is_multiple_of(checkpoint_every) {
                pump.upkeep(last_at, || server.stats().to_json())?;
            }
        }
    }
    let (rest, stats) = server.shutdown();
    let json = stats.to_json();
    pump.finish(&rest, last_at, &json)?;
    let elapsed = began.elapsed();

    println!(
        "ingested {} frames over {} connections ({} decode errors, {} timeouts, \
         {} duplicates, {} out-of-order, {} gap skips)",
        stats.net.frames,
        stats.net.accepted,
        stats.net.decode_errors,
        stats.net.timeouts,
        stats.net.duplicates,
        stats.net.out_of_order,
        stats.net.gap_skips,
    );
    println!(
        "served {} snapshots across {} shards ({}): {} reports, {} alarms, \
         {} rejected (wall {:.2}s)",
        stats.submitted,
        stats.shards.len(),
        serve_config.backpressure,
        stats.reports,
        pump.tally.alarms,
        stats.rejected,
        elapsed.as_secs_f64(),
    );
    pump.close(flags, LocalFront::STATS_NAME, &json)
}
