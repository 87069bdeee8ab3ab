//! The CLI subcommands.

pub mod audit;
pub mod coordinator;
pub mod eval;
pub mod history;
pub mod inspect;
pub mod monitor;
pub mod replay;
pub mod serve;
pub mod shard_worker;
pub mod simulate;
pub mod trace;
pub mod train;

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gridwatch_detect::{EngineSnapshot, Snapshot};
use gridwatch_serve::{HistoryDepth, HistorySink};
use gridwatch_sim::Trace;
use gridwatch_store::StoreConfig;
use gridwatch_timeseries::{MeasurementId, TimeSeries, Timestamp};

use crate::flags::Flags;

/// The store flag block shared by `serve`, `coordinator`, and
/// `monitor` help texts.
pub const STORE_HELP: &str = "\
history store:
  --store DIR               append scores, stats samples, and events to
                            the embedded history store at DIR (query it
                            with `gridwatch history`); flight-recorder
                            dumps go here instead of flight.jsonl
  --store-depth D           system | measurements | full   (default
                            measurements; full adds per-pair scores)
  --store-partition-secs N  time-partition width           (default 86400)
  --store-retention-secs N  drop partitions older than N seconds of
                            trace time                     (default: keep all)
  --store-max-partitions N  keep at most N partitions      (default: keep all)";

/// The causal-tracing flag block shared by `serve` and `coordinator`
/// help texts.
pub const TRACE_HELP: &str = "\
causal tracing (tail-based exemplars; off — and free — unless a
--trace-* flag is given; alarmed snapshots are always retained while
tracing is on, and with --store the retained exemplars persist as
trace records, queryable with `gridwatch trace`):
  --trace-exemplars N       retain up to N exemplar traces (default 64)
  --trace-budget-ns N       also retain any snapshot whose slowest
                            stage span exceeds N nanoseconds
  --trace-head-every N      also retain every N-th snapshot regardless
                            of outcome (1-in-N head sample)";

/// The flags [`exemplar_config`] reads.
pub const EXEMPLAR_FLAGS: &[&str] = &["trace-exemplars", "trace-budget-ns", "trace-head-every"];

/// The exemplar tail-sampling config from the `--trace-*` flags;
/// `None` (tracing stays disabled and zero-cost) when no flag was
/// given.
pub fn exemplar_config(flags: &Flags) -> Result<Option<gridwatch_obs::ExemplarConfig>, String> {
    let ring: Option<usize> = flags.get("trace-exemplars")?;
    let budget: Option<u64> = flags.get("trace-budget-ns")?;
    let head: Option<u64> = flags.get("trace-head-every")?;
    if ring.is_none() && budget.is_none() && head.is_none() {
        return Ok(None);
    }
    let base = gridwatch_obs::ExemplarConfig::default();
    let config = gridwatch_obs::ExemplarConfig {
        ring_capacity: ring.unwrap_or(base.ring_capacity),
        stage_budget_ns: budget.unwrap_or(base.stage_budget_ns),
        head_sample_every: head.unwrap_or(base.head_sample_every),
        ..base
    };
    if config.ring_capacity == 0 {
        return Err("--trace-exemplars must be positive".to_string());
    }
    Ok(Some(config))
}

/// Wall-clock Unix seconds (0 if the clock is before the epoch).
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Shared wall-clock health inputs: the serving loop stamps these at
/// checkpoint cadence, the metrics thread folds them into `/healthz`.
#[derive(Debug, Default)]
pub struct HealthState {
    /// Unix seconds of the last completed checkpoint; 0 = never.
    checkpoint_unix: AtomicU64,
    /// History-store WAL records not yet sealed at the last stamp.
    wal_lag: AtomicU64,
    /// Alarm total at the previous `/healthz` poll, for the
    /// alarms-since-last-poll degrade.
    polled_alarms: AtomicU64,
}

impl HealthState {
    /// Stamps a completed checkpoint and the store's residual WAL lag.
    pub fn note_checkpoint(&self, wal_lag: u64) {
        self.checkpoint_unix.store(unix_now(), Ordering::Relaxed);
        self.wal_lag.store(wal_lag, Ordering::Relaxed);
    }
}

/// Builds the `/healthz` closure: structural shard health from the
/// probe, layered with checkpoint age, WAL lag, and an
/// alarms-since-last-poll degrade. The delta form matters: a
/// cumulative alarm count would pin the node degraded forever, while
/// the delta clears — and `/healthz` flips back to ok — once the
/// pipeline goes quiet after a fault window.
pub fn health_closure<P>(
    probe: P,
    state: Arc<HealthState>,
) -> impl Fn() -> (bool, String) + Send + 'static
where
    P: Fn() -> gridwatch_obs::HealthReport + Send + 'static,
{
    move || {
        let mut report = probe();
        let checkpoint_unix = state.checkpoint_unix.load(Ordering::Relaxed);
        if checkpoint_unix > 0 {
            report.checkpoint_age_secs = Some(unix_now().saturating_sub(checkpoint_unix) as i64);
        }
        report.store_wal_lag = state.wal_lag.load(Ordering::Relaxed);
        let before = state.polled_alarms.swap(report.alarms, Ordering::Relaxed);
        if report.alarms > before {
            report.degrade(format!(
                "{} new alarm(s) since last poll",
                report.alarms - before
            ));
        }
        (report.is_ok(), report.to_json())
    }
}

/// Wraps a Prometheus render closure so every scrape also files a
/// burn sample and appends the rolling multi-window burn-rate gauges
/// to the exposition.
pub fn with_burn_gauges<R, S>(render: R, sample: S) -> impl Fn() -> String + Send + 'static
where
    R: Fn() -> String + Send + 'static,
    S: Fn() -> gridwatch_obs::BurnSample + Send + 'static,
{
    let gauges = gridwatch_obs::BurnGauges::new();
    move || {
        let now = unix_now();
        gauges.observe(now, sample());
        let mut text = render();
        let mut expo = gridwatch_obs::Exposition::new();
        gauges.render_into(now, &mut expo);
        text.push_str(&expo.finish());
        text
    }
}

/// The flags [`open_history_sink`] reads.
pub const STORE_FLAGS: &[&str] = &[
    "store",
    "store-depth",
    "store-partition-secs",
    "store-retention-secs",
    "store-max-partitions",
];

/// Opens the history sink when `--store DIR` was given, printing what
/// recovery found if it found anything.
pub fn open_history_sink(flags: &Flags) -> Result<Option<HistorySink>, String> {
    let Some(dir) = flags.get::<String>("store")? else {
        return Ok(None);
    };
    let config = StoreConfig {
        partition_secs: flags.get_or(
            "store-partition-secs",
            gridwatch_store::DEFAULT_PARTITION_SECS,
        )?,
        retention_secs: flags.get::<u64>("store-retention-secs")?,
        max_partitions: flags.get::<u64>("store-max-partitions")?,
    };
    let depth: HistoryDepth = flags.get_or("store-depth", HistoryDepth::default())?;
    let (sink, report) = HistorySink::open(Path::new(&dir), config, depth)
        .map_err(|e| format!("cannot open history store {dir}: {e}"))?;
    if report.replayed_records > 0
        || report.already_sealed_records > 0
        || report.truncated_bytes > 0
    {
        println!(
            "history store {dir}: recovered {} unsealed records ({} already sealed, \
             {} torn bytes truncated)",
            report.replayed_records, report.already_sealed_records, report.truncated_bytes
        );
    }
    Ok(Some(sink))
}

/// Loads a CSV trace from a file.
pub fn load_trace(path: &str) -> Result<Trace, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    Trace::read_csv(std::io::BufReader::new(file)).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Loads an engine snapshot `gridwatch train` wrote.
pub fn load_engine(path: &str) -> Result<EngineSnapshot, String> {
    let json = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&json).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// The flags [`apply_alarm_flags`] reads.
pub const ALARM_FLAGS: &[&str] = &["system-threshold", "measurement-threshold", "consecutive"];

/// Applies the alarm-policy overrides (`--system-threshold`,
/// `--measurement-threshold`, `--consecutive`) onto a loaded snapshot;
/// an omitted flag keeps the snapshot's own value.
pub fn apply_alarm_flags(flags: &Flags, snapshot: &mut EngineSnapshot) -> Result<(), String> {
    let alarm = &mut snapshot.config.alarm;
    alarm.system_threshold = flags.get_or("system-threshold", alarm.system_threshold)?;
    alarm.measurement_threshold =
        flags.get_or("measurement-threshold", alarm.measurement_threshold)?;
    alarm.min_consecutive = flags.get_or("consecutive", alarm.min_consecutive)?;
    Ok(())
}

/// The non-empty snapshots of a trace over `[start, end)`, one per
/// sampling tick, each holding every measurement that has a value then.
pub fn trace_snapshots(
    trace: &Trace,
    start: Timestamp,
    end: Timestamp,
) -> impl Iterator<Item = Snapshot> + '_ {
    trace.interval().ticks(start, end).filter_map(move |t| {
        let mut snap = Snapshot::new(t);
        for id in trace.measurement_ids() {
            if let Some(v) = trace.series(id).expect("id from trace").value_at(t) {
                snap.insert(id, v);
            }
        }
        (!snap.is_empty()).then_some(snap)
    })
}

/// Writes a string to a file, creating parent directories.
pub fn write_file(path: &str, contents: &str) -> Result<(), String> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create directory for {path}: {e}"))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Writes stats JSON through the checkpoint layer's torn-write-proof
/// path (temp file, fsync, rename), creating parent directories. A
/// reader polling the file mid-write sees either the old stats or the
/// new stats, never a prefix.
pub fn write_stats_atomic(path: &str, contents: &str) -> Result<(), String> {
    if let Some(parent) = Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create directory for {path}: {e}"))?;
        }
    }
    gridwatch_serve::write_atomic(Path::new(path), contents)
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Starts the `--metrics ADDR` endpoint when the flag was given,
/// printing the bound address (port 0 picks a free port; tests parse
/// this line to find it). `bind` chooses what it serves:
/// `MetricsServer::bind` for `/metrics` alone, `bind_with_health` to
/// also answer `GET /healthz` (always 200) and `GET /readyz` (503 when
/// degraded). The returned guard keeps the endpoint alive; dropping it
/// stops serving.
pub fn start_metrics(
    addr: Option<&str>,
    bind: impl FnOnce(&str) -> std::io::Result<gridwatch_obs::MetricsServer>,
) -> Result<Option<gridwatch_obs::MetricsServer>, String> {
    let Some(addr) = addr else {
        return Ok(None);
    };
    let server = bind(addr).map_err(|e| format!("cannot serve metrics on {addr}: {e}"))?;
    println!("metrics on http://{}/metrics", server.local_addr());
    std::io::Write::flush(&mut std::io::stdout()).map_err(|e| format!("stdout: {e}"))?;
    Ok(Some(server))
}

/// Checkpoint-cadence store maintenance: drain the flight recorder
/// and any retained exemplar traces, sample the stats document, then
/// seal and apply retention. A no-op without `--store`.
pub fn store_checkpoint<F: FnOnce() -> String>(
    sink: &mut Option<HistorySink>,
    recorder: &gridwatch_obs::FlightRecorder,
    exemplars: &gridwatch_obs::ExemplarTracer,
    at: u64,
    stats_json: F,
) -> Result<(), String> {
    let Some(sink) = sink.as_mut() else {
        return Ok(());
    };
    sink.drain_recorder(recorder, at)
        .map_err(|e| format!("history store event drain failed: {e}"))?;
    if exemplars.is_enabled() {
        sink.drain_exemplars(exemplars)
            .map_err(|e| format!("history store exemplar drain failed: {e}"))?;
    }
    sink.append_stats(at, stats_json())
        .map_err(|e| format!("history store stats sample failed: {e}"))?;
    let dropped = sink
        .checkpoint()
        .map_err(|e| format!("history store checkpoint failed: {e}"))?;
    if !dropped.is_empty() {
        println!(
            "history store: retention dropped {} expired partition(s)",
            dropped.len()
        );
    }
    Ok(())
}

/// Installs a panic hook that dumps the flight recorder before the
/// default hook prints the backtrace, so a crash leaves the pipeline's
/// run-up behind in the checkpoint directory.
pub fn install_flight_panic_hook(recorder: gridwatch_obs::FlightRecorder, dir: String) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let _ = recorder.dump(&Path::new(&dir).join("flight.jsonl"));
        prev(info);
    }));
}

/// A trace's series truncated to `[start, end)` per measurement.
pub fn trace_window(
    trace: &Trace,
    start: Timestamp,
    end: Timestamp,
) -> BTreeMap<MeasurementId, TimeSeries> {
    trace
        .measurement_ids()
        .map(|id| {
            (
                id,
                trace
                    .series(id)
                    .expect("id from this trace")
                    .slice(start, end),
            )
        })
        .collect()
}
