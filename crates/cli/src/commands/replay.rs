//! The one replay driver behind `gridwatch serve --trace` and
//! `gridwatch coordinator`, plus the report pump and shutdown tail it
//! shares with `gridwatch serve --listen`.
//!
//! The two ingestion fronts (`ShardedEngine`'s queue-policy front and
//! `Coordinator`'s socket/epoch/journal front) stay separate types; the
//! driver sees them through [`ReplayFront`] and owns everything around
//! them.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridwatch_detect::{Snapshot, StepReport};
use gridwatch_obs::{BurnSample, HealthReport, MetricsServer, PipelineObs};
use gridwatch_serve::HistorySink;
use gridwatch_sim::Trace;
use gridwatch_timeseries::Timestamp;

use crate::commands::{
    exemplar_config, health_closure, install_flight_panic_hook, start_metrics, store_checkpoint,
    trace_snapshots, with_burn_gauges, write_stats_atomic, HealthState,
};
use crate::flags::Flags;

/// The flags this module reads; [`pipeline_obs`] also reads
/// [`crate::commands::EXEMPLAR_FLAGS`].
pub(crate) const REPLAY_FLAGS: &[&str] = &[
    "from-day",
    "days",
    "rate",
    "checkpoint",
    "checkpoint-every",
    "stats",
    "metrics",
];

/// The observability handles a serving command runs with, from its
/// flags.
pub(crate) fn pipeline_obs(flags: &Flags) -> Result<PipelineObs, String> {
    let obs = PipelineObs::default();
    if flags.get::<String>("metrics")?.is_some() {
        // Tracing costs nothing while disabled; the metrics endpoint
        // is its only consumer, so the flag doubles as the switch. On
        // the fabric the Hello handshake propagates it (and exemplar
        // capture) to every worker, so one flag lights up all of it.
        obs.tracer.enable();
    }
    if let Some(config) = exemplar_config(flags)? {
        obs.exemplar.enable(config);
    }
    if let Some(dir) = flags.get::<String>("checkpoint")? {
        install_flight_panic_hook(obs.recorder.clone(), dir);
    }
    Ok(obs)
}

/// Tracks alarms and the lowest system fitness across a report stream.
#[derive(Default)]
pub(crate) struct ReportTally {
    pub(crate) alarms: usize,
    q_min: Option<(Timestamp, f64)>,
}

impl ReportTally {
    pub(crate) fn note(&mut self, report: &StepReport) {
        if let Some(q) = report.scores.system_score() {
            if self.q_min.is_none_or(|(_, min)| q < min) {
                self.q_min = Some((report.scores.at(), q));
            }
        }
        for alarm in &report.alarms {
            self.alarms += 1;
            println!("ALARM {alarm}");
        }
    }

    pub(crate) fn print_floor(&self) {
        if let Some((t, q)) = self.q_min {
            println!("lowest system fitness: {q:.4} at {t}");
        }
    }
}

/// Where every report of a serving command goes — alarm dump, history
/// append, tally — with the store and health upkeep that rides along
/// at checkpoint cadence and at shutdown.
pub(crate) struct ReportPump {
    obs: PipelineObs,
    pub(crate) sink: Option<HistorySink>,
    checkpoint_dir: Option<String>,
    health: Arc<HealthState>,
    pub(crate) tally: ReportTally,
    /// Keeps the `--metrics` endpoint alive.
    _metrics: Option<MetricsServer>,
}

impl ReportPump {
    /// Builds the pump and starts `--metrics ADDR` (Prometheus text
    /// plus burn-rate gauges, `/healthz`, `/readyz`) over the front's
    /// probe closures.
    pub(crate) fn start(
        flags: &Flags,
        obs: PipelineObs,
        sink: Option<HistorySink>,
        render: impl Fn() -> String + Send + 'static,
        sample: impl Fn() -> BurnSample + Send + 'static,
        health_report: impl Fn() -> HealthReport + Send + 'static,
    ) -> Result<ReportPump, String> {
        let health = Arc::new(HealthState::default());
        let metrics = start_metrics(flags.get::<String>("metrics")?.as_deref(), |addr| {
            MetricsServer::bind_with_health(
                addr,
                with_burn_gauges(render, sample),
                health_closure(health_report, Arc::clone(&health)),
            )
        })?;
        Ok(ReportPump {
            obs,
            sink,
            checkpoint_dir: flags.get("checkpoint")?,
            health,
            tally: ReportTally::default(),
            _metrics: metrics,
        })
    }

    /// Dumps the flight recorder, best-effort: a failed dump must never
    /// take down the serving path it documents.
    ///
    /// With a history sink, new events drain into the store (incremental
    /// by global index, then fsynced) and the store's retention bounds
    /// them — the unbounded `flight.jsonl` rewrite is the fallback for
    /// runs without `--store`.
    fn dump_flight(&mut self, at: u64, why: &str) {
        let (recorder, exemplars) = (&self.obs.recorder, &self.obs.exemplar);
        if let Some(sink) = self.sink.as_mut() {
            // Alarm-time dumps also flush the retained exemplar traces,
            // so the causal record of the alarmed snapshot is durable the
            // moment the operator goes looking for it.
            let drained = sink
                .drain_recorder(recorder, at)
                .and_then(|n| {
                    if exemplars.is_enabled() {
                        sink.drain_exemplars(exemplars).map(|_| n)
                    } else {
                        Ok(n)
                    }
                })
                .and_then(|n| sink.sync().map(|()| n));
            match drained {
                Ok(n) => {
                    gridwatch_obs::info!(
                        "obs",
                        "flight recorder drained into {} ({n} new events, {why})",
                        sink.store().dir().display()
                    );
                }
                Err(e) => {
                    gridwatch_obs::warn!("obs", "cannot drain flight recorder into the store: {e}");
                }
            }
            return;
        }
        let Some(dir) = self.checkpoint_dir.as_deref() else {
            return;
        };
        let path = Path::new(dir).join("flight.jsonl");
        match recorder.dump(&path) {
            Ok(()) => {
                gridwatch_obs::info!(
                    "obs",
                    "flight recorder dumped to {} ({why})",
                    path.display()
                );
            }
            Err(e) => {
                gridwatch_obs::warn!(
                    "obs",
                    "cannot dump flight recorder to {}: {e}",
                    path.display()
                );
            }
        }
    }

    /// One live report: flight dump if it alarms, then history append
    /// and tally.
    pub(crate) fn pump(&mut self, report: &StepReport) -> Result<(), String> {
        if !report.alarms.is_empty() {
            self.dump_flight(report.scores.at().as_secs(), "alarm");
        }
        self.note(report)
    }

    fn note(&mut self, report: &StepReport) -> Result<(), String> {
        if let Some(sink) = self.sink.as_mut() {
            sink.append_report(report)
                .map_err(|e| format!("history store append failed: {e}"))?;
        }
        self.tally.note(report);
        Ok(())
    }

    /// Checkpoint-cadence upkeep: store maintenance, then the health
    /// plane's checkpoint stamp with the store's residual WAL lag.
    pub(crate) fn upkeep(
        &mut self,
        at: u64,
        stats_json: impl FnOnce() -> String,
    ) -> Result<(), String> {
        let obs = &self.obs;
        store_checkpoint(&mut self.sink, &obs.recorder, &obs.exemplar, at, stats_json)?;
        let wal_lag = self.sink.as_ref().map(|s| s.store().unsealed_records());
        self.health.note_checkpoint(wal_lag.unwrap_or(0));
        Ok(())
    }

    /// The shutdown tail: the reports the front drained on its way
    /// down (the shutdown dump covers any alarm among them), the final
    /// flight dump, one last round of store maintenance.
    pub(crate) fn finish(
        &mut self,
        rest: &[StepReport],
        at: u64,
        json: &str,
    ) -> Result<(), String> {
        for report in rest {
            self.note(report)?;
        }
        self.dump_flight(at, "shutdown");
        let obs = &self.obs;
        store_checkpoint(&mut self.sink, &obs.recorder, &obs.exemplar, at, || {
            json.to_string()
        })
    }

    /// The closing lines every mode shares: the fitness floor, then
    /// the final `--stats` dump of the `name` stats document.
    pub(crate) fn close(&self, flags: &Flags, name: &str, json: &str) -> Result<(), String> {
        self.tally.print_floor();
        if let Some(path) = flags.get::<String>("stats")? {
            write_stats_atomic(&path, json)?;
            println!("{name} stats written to {path}");
        }
        Ok(())
    }
}

/// What the replay driver needs from an ingestion front.
pub(crate) trait ReplayFront {
    /// The front's stats document.
    type Stats;
    /// What the closing "NAME stats written to" line calls it.
    const STATS_NAME: &'static str;
    /// Feeds one snapshot, recovering the front first if it can.
    fn submit(&mut self, snapshot: Snapshot) -> Result<(), String>;
    /// Checkpoints into `dir` and announces it; `last` marks the final
    /// checkpoint before shutdown.
    fn checkpoint(&mut self, dir: &str, last: bool) -> Result<(), String>;
    /// A merged report, if one is ready.
    fn try_recv_report(&mut self) -> Option<StepReport>;
    /// The live stats document.
    fn stats(&self) -> Self::Stats;
    /// A stats document as the JSON `--stats` and the store record.
    fn stats_json(stats: &Self::Stats) -> String;
    /// Stops the front, returning the unread reports and final stats.
    fn shutdown(self) -> (Vec<StepReport>, Self::Stats);
}

/// Replays `--from-day`/`--days` of `trace` through `front` at `--rate`
/// — submit, checkpoint cadence with stats flush and store upkeep,
/// report pump, shutdown tail — skipping the first `skip` snapshots of
/// the window (a resumed run has already served and checkpointed
/// them). `served` prints the front's own summary line from the final
/// stats and the number of snapshots submitted.
pub(crate) fn replay<F: ReplayFront>(
    flags: &Flags,
    trace: &Trace,
    mut front: F,
    mut pump: ReportPump,
    skip: u64,
    served: impl FnOnce(&F::Stats, u64, &ReportPump),
) -> Result<(), String> {
    let from_day: u64 = flags.get_or("from-day", 15)?;
    let days: u64 = flags.get_or("days", 1)?;
    let rate: f64 = flags.get_or("rate", 0.0)?;
    let checkpoint_every: u64 = flags.get_or("checkpoint-every", 0)?;
    let stats_path: Option<String> = flags.get("stats")?;
    let checkpoint_dir = pump.checkpoint_dir.clone();
    let start = Timestamp::from_days(from_day);
    let tick_budget = (rate > 0.0).then(|| Duration::from_secs_f64(1.0 / rate));

    let began = Instant::now();
    let mut ticks = 0u64;
    let mut last_at = start.as_secs();
    let window = trace_snapshots(trace, start, Timestamp::from_days(from_day + days));
    for snapshot in window.skip(skip as usize) {
        let deadline = tick_budget.map(|budget| Instant::now() + budget);
        last_at = snapshot.at().as_secs();
        front.submit(snapshot)?;
        ticks += 1;
        if checkpoint_every > 0 && ticks.is_multiple_of(checkpoint_every) {
            if let Some(dir) = checkpoint_dir.as_deref() {
                front.checkpoint(dir, false)?;
                // Flush stats alongside every checkpoint, not only at exit,
                // so an operator watching a long replay (or recovering from
                // a crash) sees rejection counts from the same cut.
                if let Some(path) = stats_path.as_deref() {
                    write_stats_atomic(path, &F::stats_json(&front.stats()))?;
                }
            }
            pump.upkeep(last_at, || F::stats_json(&front.stats()))?;
        }
        while let Some(report) = front.try_recv_report() {
            pump.pump(&report)?;
        }
        if let Some(deadline) = deadline {
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
        }
    }

    if let Some(dir) = checkpoint_dir.as_deref() {
        front.checkpoint(dir, true)?;
    }
    let (rest, stats) = front.shutdown();
    let json = F::stats_json(&stats);
    pump.finish(&rest, last_at, &json)?;
    let wall = began.elapsed().as_secs_f64();

    served(&stats, ticks, &pump);
    if wall > 0.0 {
        println!(
            "throughput: {:.1} snapshots/sec (wall {wall:.2}s)",
            ticks as f64 / wall
        );
    }
    pump.close(flags, F::STATS_NAME, &json)
}
