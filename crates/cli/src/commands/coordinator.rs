//! `gridwatch coordinator` — drive a multi-node shard fabric: replay a
//! trace through remote `shard-worker` processes, merge their partial
//! boards into the same in-order report stream `gridwatch serve`
//! produces, checkpoint the fabric, and migrate shards when a worker
//! dies.

use std::time::{Duration, Instant};

use gridwatch_detect::{EngineSnapshot, Snapshot, StepReport};
use gridwatch_serve::{Checkpointer, Coordinator, FabricConfig, FabricError, FabricStats};

use crate::commands::replay::{pipeline_obs, replay, ReplayFront, ReportPump, REPLAY_FLAGS};
use crate::commands::{
    apply_alarm_flags, load_engine, load_trace, open_history_sink, ALARM_FLAGS, EXEMPLAR_FLAGS,
    STORE_FLAGS,
};
use crate::flags::Flags;

const HELP: &str = "\
gridwatch coordinator --trace FILE --engine FILE --workers ADDR[,ADDR...] [flags]

input:
  --trace FILE              CSV monitoring data to replay
  --workers A[,B,...]       shard-worker addresses, one shard per worker
                            (resume default: the checkpoint's recorded
                            workers)

engine:
  --engine FILE             engine snapshot from `gridwatch train`
  --system-threshold X      alarm when Q_t < X            (engine default)
  --measurement-threshold X alarm when Q^a_t < X          (engine default)
  --consecutive N           debounce: N consecutive lows  (engine default)

replay:
  --from-day N              first day to stream (default 15 = June 13)
  --days N                  days to stream      (default 1)
  --rate X                  replay rate in snapshots/sec  (default: unthrottled)

durability:
  --checkpoint DIR          checkpoint into DIR (at the end, and every
                            --checkpoint-every snapshots when given)
  --checkpoint-every N      checkpoint period in snapshots (default: end only)
  --resume                  recover fabric state from --checkpoint DIR
                            instead of --engine; skips the already-served
                            prefix and fences all pre-crash assignments
  --reattach-secs N         when a worker dies, retry its address for up
                            to N seconds before giving up (default 0:
                            fail fast)
  --halt-workers            send workers a shutdown control at exit
                            (default: leave them listening)
  --stats FILE              write fabric stats as JSON (flushed at every
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
                            picks a free port) and enable span tracing
                            across the fabric (workers are told to
                            trace in the handshake); flight recorder
                            dumps land in --checkpoint DIR

Causal tracing flags (--trace-exemplars, --trace-budget-ns,
--trace-head-every) also ride the handshake: workers ship their
ingest/decode/score span slices inside each board frame.";

pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}\n\n{}", crate::commands::TRACE_HELP);
        return Ok(());
    }
    let flags = Flags::parse(
        "coordinator",
        args,
        &["resume", "halt-workers"],
        &[
            &["trace", "engine", "workers", "reattach-secs"],
            ALARM_FLAGS,
            STORE_FLAGS,
            EXEMPLAR_FLAGS,
            REPLAY_FLAGS,
        ],
    )?;
    let trace_path: String = flags.require("trace")?;
    let from_day: u64 = flags.get_or("from-day", 15)?;
    let days: u64 = flags.get_or("days", 1)?;
    let checkpoint_dir: Option<String> = flags.get("checkpoint")?;
    if flags.has("resume") && checkpoint_dir.is_none() {
        return Err("--resume requires --checkpoint DIR".to_string());
    }

    let mut addrs: Vec<String> = flags
        .get::<String>("workers")?
        .map(|list| {
            list.split(',')
                .map(|a| a.trim().to_string())
                .filter(|a| !a.is_empty())
                .collect()
        })
        .unwrap_or_default();

    // Starting state: a fresh engine snapshot, or a recovered fabric
    // checkpoint (which also pins the resume cut and the epoch base).
    let (mut snapshot, fabric): (EngineSnapshot, FabricConfig) = if flags.has("resume") {
        let dir = checkpoint_dir.as_deref().expect("checked above");
        let (snapshot, manifest) = Checkpointer::new(dir)
            .recover()
            .map_err(|e| format!("cannot resume from {dir}: {e}"))?;
        if addrs.is_empty() {
            addrs = manifest.remote.iter().map(|r| r.source.clone()).collect();
        }
        println!(
            "resumed from checkpoint at {dir} (cut seq {}, fabric epoch {}, {} remote shards)",
            manifest.cut_seq,
            manifest.fabric_epoch,
            manifest.remote.len()
        );
        let fabric = FabricConfig {
            start_seq: manifest.cut_seq,
            epoch_base: manifest.fabric_epoch,
            ..FabricConfig::default()
        };
        (snapshot, fabric)
    } else {
        let engine_path: String = flags.require("engine")?;
        (load_engine(&engine_path)?, FabricConfig::default())
    };
    if addrs.is_empty() {
        return Err(
            "--workers is required (or resume a checkpoint that recorded them)".to_string(),
        );
    }
    apply_alarm_flags(&flags, &mut snapshot)?;
    // A resumed coordinator has already served (and checkpointed) the
    // window's snapshots below its start sequence number.
    let skip = fabric.start_seq;

    let trace = load_trace(&trace_path)?;
    let sink = open_history_sink(&flags)?;
    let pairs = snapshot.models.len();
    let obs = pipeline_obs(&flags)?;
    let coordinator = Coordinator::connect_with_obs(snapshot, &addrs, fabric, obs.clone())
        .map_err(|e| format!("cannot connect the fabric: {e}"))?;
    println!(
        "coordinating {} remote shards ({} pairs) over {:?}",
        addrs.len(),
        pairs,
        addrs
    );
    let (probe, sample_probe, health_probe) = (
        coordinator.metrics_probe(),
        coordinator.metrics_probe(),
        coordinator.metrics_probe(),
    );
    let pump = ReportPump::start(
        &flags,
        obs,
        sink,
        move || probe.to_prometheus(),
        move || sample_probe.burn_sample(),
        move || health_probe.health_report(),
    )?;
    let front = FabricFront {
        coordinator,
        addrs,
        reattach_secs: flags.get_or("reattach-secs", 0)?,
        halt_workers: flags.has("halt-workers"),
    };
    replay(&flags, &trace, front, pump, skip, |stats, ticks, pump| {
        println!(
            "served {ticks} snapshots over day {from_day}..{} across {} remote shards: \
             {} reports, {} alarms, {} disconnects, {} migrations, {} boards fenced",
            from_day + days,
            stats.shards,
            stats.reports,
            pump.tally.alarms,
            stats.disconnects,
            stats.migrations,
            stats.stale_boards + stats.duplicate_boards + stats.replayed_boards + stats.bad_boards,
        );
    })
}

/// The fabric ingestion front as the replay driver sees it: a
/// coordinator plus the reattach policy that keeps it whole.
struct FabricFront {
    coordinator: Coordinator,
    addrs: Vec<String>,
    reattach_secs: u64,
    halt_workers: bool,
}

impl ReplayFront for FabricFront {
    type Stats = FabricStats;
    const STATS_NAME: &'static str = "fabric";

    fn submit(&mut self, snapshot: Snapshot) -> Result<(), String> {
        self.coordinator
            .submit(snapshot)
            .map_err(|e| format!("submit failed: {e}"))?;
        self.reattach_dead()
    }

    /// Checkpoints the fabric, reattaching first if a worker died
    /// between the dead-shard check and the cut.
    fn checkpoint(&mut self, dir: &str, last: bool) -> Result<(), String> {
        if last {
            self.reattach_dead()?;
        }
        let id = match self.coordinator.checkpoint(dir) {
            Ok(id) => id,
            Err(FabricError::Degraded { .. }) if self.reattach_secs > 0 => {
                self.reattach()?;
                self.coordinator
                    .checkpoint(dir)
                    .map_err(|e| format!("checkpoint failed after reattach: {e}"))?
            }
            Err(e) => return Err(format!("checkpoint failed: {e}")),
        };
        println!("checkpoint {id} written to {dir}");
        Ok(())
    }

    fn try_recv_report(&mut self) -> Option<StepReport> {
        self.coordinator.try_recv_report()
    }

    fn stats(&self) -> FabricStats {
        self.coordinator.stats()
    }

    fn stats_json(stats: &FabricStats) -> String {
        serde_json::to_string_pretty(stats).unwrap_or_default()
    }

    fn shutdown(self) -> (Vec<StepReport>, FabricStats) {
        self.coordinator.shutdown(self.halt_workers)
    }
}

impl FabricFront {
    fn reattach_dead(&mut self) -> Result<(), String> {
        if self.coordinator.dead_shards().is_empty() {
            return Ok(());
        }
        self.reattach()
    }

    /// Re-dials dead shards at their original addresses until every shard
    /// is live again or the budget runs out.
    fn reattach(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(self.reattach_secs);
        loop {
            for shard in self.coordinator.dead_shards() {
                let addr = &self.addrs[shard];
                match self.coordinator.attach_worker(shard, addr) {
                    Ok(()) => println!("reattached shard {shard} to {addr}"),
                    Err(_) if self.reattach_secs > 0 => {}
                    Err(e) => return Err(format!("shard {shard} is dead: {e}")),
                }
            }
            if self.coordinator.dead_shards().is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "shards {:?} still dead after {}s of reattach attempts",
                    self.coordinator.dead_shards(),
                    self.reattach_secs
                ));
            }
            std::thread::sleep(Duration::from_millis(200));
        }
    }
}
