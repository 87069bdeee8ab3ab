//! Serving observability: per-shard and engine-wide counters, with
//! log-bucketed latency/queue distributions and Prometheus rendering.
//!
//! Every field of every struct here carries `#[serde(default)]`: stats
//! dumps are persisted next to checkpoints and re-read on `--resume`
//! tooling paths, so yesterday's dump — including pre-histogram dumps
//! whose `latency` key held a `{min_ns, mean_ns, max_ns}` summary —
//! must keep parsing after a field is added. The committed `--stats`
//! fixture in `crates/audit/tests/fixtures/compat` enforces this.

use gridwatch_obs::{Exposition, HistogramMetric, Labelled, LogHistogram, Metric, Tracer};
use serde::{Deserialize, Serialize};

/// Counters and distributions for one shard.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ShardStats {
    /// Shard index.
    #[serde(default)]
    pub shard: usize,
    /// Pair models owned by this shard.
    #[serde(default)]
    pub pairs: usize,
    /// Snapshots scored by this shard.
    #[serde(default)]
    pub processed: u64,
    /// Messages currently waiting in this shard's queue.
    #[serde(default)]
    pub queue_depth: usize,
    /// Step-latency distribution in nanoseconds (empty until the first
    /// snapshot). Replaces the old min/mean/max summary; old dumps
    /// parse to an empty histogram.
    #[serde(default)]
    pub latency: LogHistogram,
    /// Queue-depth distribution, sampled at every submit.
    #[serde(default)]
    pub queue_depths: LogHistogram,
    /// Nanoseconds the ingestion front spent blocked on this shard's
    /// full queue (one sample per blocking submit; instant sends are
    /// not sampled, so `count` is the number of times backpressure
    /// actually engaged).
    #[serde(default)]
    pub backpressure_wait_ns: LogHistogram,
}

/// Wire-path counters for one network connection.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnStats {
    /// Connection id, assigned in accept order.
    #[serde(default)]
    pub conn: u64,
    /// The peer's socket address.
    #[serde(default)]
    pub peer: String,
    /// The detected encoding (`json`, `csv`, or `unknown` before the
    /// first byte arrives).
    #[serde(default)]
    pub protocol: String,
    /// Frames decoded from this connection.
    #[serde(default)]
    pub frames: u64,
    /// Frames lost to framing/parse failures (each also closes the
    /// connection).
    #[serde(default)]
    pub decode_errors: u64,
    /// Reads that hit the idle/slow-client deadline (closes the
    /// connection).
    #[serde(default)]
    pub timeouts: u64,
    /// Frames refused at the socket boundary under `Reject`.
    #[serde(default)]
    pub rejected: u64,
    /// Whether the connection is still open.
    #[serde(default)]
    pub open: bool,
}

/// Wire-path counters for the whole listener.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Connections accepted.
    #[serde(default)]
    pub accepted: u64,
    /// Connections fully closed.
    #[serde(default)]
    pub closed: u64,
    /// Frames decoded across all connections.
    #[serde(default)]
    pub frames: u64,
    /// Decode failures across all connections.
    #[serde(default)]
    pub decode_errors: u64,
    /// Read-deadline kills across all connections.
    #[serde(default)]
    pub timeouts: u64,
    /// Connections closed because the read deadline could not be armed
    /// (`set_read_timeout` failed — the socket would otherwise run
    /// without slow-client protection). Absent in pre-fix dumps.
    #[serde(default)]
    pub deadline_failures: u64,
    /// Frames refused at the socket boundary under `Reject`.
    #[serde(default)]
    pub rejected: u64,
    /// Frames absorbed as duplicates (reconnect replay, resumed
    /// checkpoints).
    #[serde(default)]
    pub duplicates: u64,
    /// Frames that arrived ahead of a sequence gap and were buffered.
    #[serde(default)]
    pub out_of_order: u64,
    /// Sequence numbers abandoned when a reorder window overflowed.
    #[serde(default)]
    pub gap_skips: u64,
    /// Periodic checkpoints that failed (the stream keeps flowing).
    #[serde(default)]
    pub checkpoint_failures: u64,
    /// Per-connection counters, in accept order.
    #[serde(default)]
    pub connections: Vec<ConnStats>,
}

/// Engine-wide serving statistics, dumpable as JSON.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Per-shard counters, in shard order.
    #[serde(default)]
    pub shards: Vec<ShardStats>,
    /// Snapshots accepted at the ingestion front.
    #[serde(default)]
    pub submitted: u64,
    /// Snapshots refused under `Reject`.
    #[serde(default)]
    pub rejected: u64,
    /// Merged step reports emitted.
    #[serde(default)]
    pub reports: u64,
    /// Alarm events fired by the merged-board tracker.
    #[serde(default)]
    pub alarms: u64,
    /// Checkpoints completed.
    #[serde(default)]
    pub checkpoints: u64,
    /// Fraction of offered snapshots the ingestion front accepted:
    /// `submitted / (submitted + rejected)`, or `1.0` before anything
    /// was offered. Dumps that predate the field parse to `0.0` here
    /// (field default), which readers should treat as "unknown".
    #[serde(default)]
    pub coverage_fraction: f64,
    /// Pair-model rebuilds fired by the shards' drift layers.
    #[serde(default)]
    pub rebuilds: u64,
    /// Flight-recorder events overwritten before any drain could ship
    /// them (ring overflow). Absent in pre-trace dumps.
    #[serde(default)]
    pub flight_dropped: u64,
    /// Wire-path counters (all zero when serving a local replay).
    #[serde(default)]
    pub net: NetStats,
}

/// The engine-wide counters of the `/metrics` document, in scrape
/// order. Renaming a row is a deliberate act: the format is pinned by a
/// golden test (and scraped by dashboards).
const SERVE_METRICS: &[Metric<ServeStats>] = &[
    (
        "gridwatch_submitted_total",
        "counter",
        "Snapshots accepted at the ingestion front.",
        |s| s.submitted,
    ),
    (
        "gridwatch_rejected_total",
        "counter",
        "Snapshots refused under the Reject backpressure policy.",
        |s| s.rejected,
    ),
    (
        "gridwatch_reports_total",
        "counter",
        "Merged step reports emitted.",
        |s| s.reports,
    ),
    (
        "gridwatch_alarms_total",
        "counter",
        "Alarm events fired by the merged-board tracker.",
        |s| s.alarms,
    ),
    (
        "gridwatch_checkpoints_total",
        "counter",
        "Checkpoints completed.",
        |s| s.checkpoints,
    ),
    (
        "gridwatch_rebuilds_total",
        "counter",
        "Pair-model rebuilds fired by the shards' drift layers.",
        |s| s.rebuilds,
    ),
    (
        "gridwatch_flight_dropped_total",
        "counter",
        "Flight-recorder events overwritten before they could be drained.",
        |s| s.flight_dropped,
    ),
];

/// The per-shard scalars, each rendered once per shard under a
/// `shard` label.
const SHARD_METRICS: &[Metric<ShardStats>] = &[
    (
        "gridwatch_shard_pairs",
        "gauge",
        "Pair models owned by each shard.",
        |s| s.pairs as u64,
    ),
    (
        "gridwatch_shard_processed_total",
        "counter",
        "Snapshots scored by each shard.",
        |s| s.processed,
    ),
    (
        "gridwatch_shard_queue_depth",
        "gauge",
        "Messages currently waiting in each shard's queue.",
        |s| s.queue_depth as u64,
    ),
];

/// The per-shard distributions.
const SHARD_HISTOGRAMS: &[HistogramMetric<ShardStats>] = &[
    (
        "gridwatch_shard_step_latency_ns",
        "Per-shard step_scores latency in nanoseconds.",
        |s| &s.latency,
    ),
    (
        "gridwatch_shard_queue_depth_samples",
        "Queue depth observed at each submit, per shard.",
        |s| &s.queue_depths,
    ),
    (
        "gridwatch_shard_backpressure_wait_ns",
        "Nanoseconds the ingestion front blocked on each shard's full queue.",
        |s| &s.backpressure_wait_ns,
    ),
];

/// The wire-path counters (a subset of [`NetStats`]: the rest is in
/// the JSON dump only).
const NET_METRICS: &[Metric<NetStats>] = &[
    (
        "gridwatch_net_frames_total",
        "counter",
        "Frames decoded across all connections.",
        |n| n.frames,
    ),
    (
        "gridwatch_net_decode_errors_total",
        "counter",
        "Decode failures across all connections.",
        |n| n.decode_errors,
    ),
    (
        "gridwatch_net_timeouts_total",
        "counter",
        "Read-deadline kills across all connections.",
        |n| n.timeouts,
    ),
    (
        "gridwatch_net_connections_accepted_total",
        "counter",
        "Connections accepted.",
        |n| n.accepted,
    ),
    (
        "gridwatch_net_connections_open",
        "gauge",
        "Connections currently open.",
        |n| n.accepted.saturating_sub(n.closed),
    ),
    (
        "gridwatch_net_duplicates_total",
        "counter",
        "Frames absorbed as duplicates.",
        |n| n.duplicates,
    ),
    (
        "gridwatch_net_gap_skips_total",
        "counter",
        "Sequence numbers abandoned to reorder-window overflow.",
        |n| n.gap_skips,
    ),
];

impl ShardStats {
    /// One scored snapshot that took `elapsed_ns`.
    pub(crate) fn observe_latency(&mut self, elapsed_ns: u64) {
        self.processed += 1;
        self.latency.record(elapsed_ns);
    }
}

impl ServeStats {
    /// The live document an engine with `shards` shards counts into,
    /// shared between its ingestion front and its aggregator thread.
    /// Readers take a [`ServeStats::snapshot`], never the live document:
    /// `queue_depth`, `coverage_fraction`, `flight_dropped` and `net`
    /// are only filled in there.
    pub(crate) fn new(shards: usize) -> Self {
        ServeStats {
            shards: (0..shards)
                .map(|shard| ShardStats {
                    shard,
                    ..ShardStats::default()
                })
                .collect(),
            ..ServeStats::default()
        }
    }

    /// A reader's copy of the live document: the counters, plus the
    /// per-shard queue lengths right now, the admission coverage so
    /// far, and the flight recorder's overflow count.
    pub(crate) fn snapshot(&self, queue_depths: &[usize], flight_dropped: u64) -> ServeStats {
        let mut stats = self.clone();
        for (shard, &depth) in stats.shards.iter_mut().zip(queue_depths) {
            shard.queue_depth = depth;
        }
        let offered = stats.submitted + stats.rejected;
        stats.coverage_fraction = if offered == 0 {
            1.0
        } else {
            stats.submitted as f64 / offered as f64
        };
        stats.flight_dropped = flight_dropped;
        stats
    }

    /// The stats as a JSON document. Plain-old-data cannot fail to
    /// serialize, but a stats report is never worth a panic either way.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self)
            .unwrap_or_else(|e| format!("{{\"error\":\"stats serialize: {e}\"}}"))
    }

    /// Renders the stats — plus the tracer's per-stage span
    /// histograms, when it has recorded anything — as Prometheus text
    /// exposition v0.
    pub fn to_prometheus(&self, tracer: &Tracer) -> String {
        let names: Vec<String> = self.shards.iter().map(|s| s.shard.to_string()).collect();
        let shards: Vec<Labelled<'_, ShardStats>> = names
            .iter()
            .zip(&self.shards)
            .map(|(name, shard)| (Some(("shard", name.as_str())), shard))
            .collect();
        let mut expo = Exposition::new();
        expo.scalars(SERVE_METRICS, &[(None, self)]);
        expo.scalars(SHARD_METRICS, &shards);
        expo.histograms(SHARD_HISTOGRAMS, &shards);
        expo.scalars(NET_METRICS, &[(None, &self.net)]);
        tracer.render_into(&mut expo);
        expo.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_obs::Stage;

    #[test]
    fn latency_histogram_tracks_distribution() {
        let mut live = ServeStats::new(1);
        for ns in [300, 100, 200] {
            live.shards[0].observe_latency(ns);
        }
        let stats = live.snapshot(&[5], 0);
        let lat = &stats.shards[0].latency;
        assert_eq!(lat.min, 100);
        assert_eq!(lat.mean(), 200);
        assert_eq!(lat.max, 300);
        assert_eq!(lat.count, stats.shards[0].processed);
        assert!(lat.p50() >= 100 && lat.p50() <= 300);
        assert_eq!(stats.shards[0].queue_depth, 5);
    }

    #[test]
    fn queue_and_backpressure_distributions_accumulate() {
        let mut live = ServeStats::new(1);
        live.shards[0].queue_depths.record(0);
        live.shards[0].queue_depths.record(7);
        live.shards[0].backpressure_wait_ns.record(1500);
        let stats = live.snapshot(&[0], 0);
        assert_eq!(stats.shards[0].queue_depths.count, 2);
        assert_eq!(stats.shards[0].queue_depths.max, 7);
        assert_eq!(stats.shards[0].backpressure_wait_ns.count, 1);
        assert_eq!(stats.shards[0].backpressure_wait_ns.sum, 1500);
    }

    #[test]
    fn stats_json_roundtrips() {
        let mut live = ServeStats::new(2);
        live.submitted = 10;
        live.rejected = 3;
        live.shards[0].observe_latency(420);
        let mut stats = live.snapshot(&[0, 1], 2);
        stats.net.frames = 7;
        stats.net.connections.push(ConnStats {
            conn: 0,
            peer: "127.0.0.1:9".to_string(),
            protocol: "json".to_string(),
            frames: 7,
            ..ConnStats::default()
        });
        let json = stats.to_json();
        let back: ServeStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
        assert_eq!(back.rejected, 3);
        assert_eq!(back.shards[0].latency.count, 1);
    }

    #[test]
    fn dumps_without_a_net_section_still_parse() {
        // Stats files written before the network ingestion layer landed
        // have no "net" key; they must keep deserializing.
        let old = concat!(
            "{\"shards\":[],\"submitted\":4,\"rejected\":0,\"reports\":0,",
            "\"alarms\":0,\"checkpoints\":0}"
        );
        let back: ServeStats = serde_json::from_str(old).unwrap();
        assert_eq!(back.submitted, 4);
        assert_eq!(back.net, NetStats::default());
    }

    #[test]
    fn pre_histogram_dumps_still_parse() {
        // Before the histogram rework, "latency" held a min/mean/max
        // summary and the distribution fields did not exist. Such dumps
        // must parse: unknown keys are ignored and every new field
        // defaults, so the old latency summary reads as an empty
        // histogram.
        let old = concat!(
            "{\"shards\":[{\"shard\":0,\"pairs\":3,\"processed\":9,\"evicted\":0,",
            "\"queue_depth\":2,\"latency\":{\"min_ns\":10,\"mean_ns\":20,\"max_ns\":30}}],",
            "\"submitted\":9,\"rejected\":0,\"reports\":9,",
            "\"alarms\":1,\"checkpoints\":1}"
        );
        let back: ServeStats = serde_json::from_str(old).unwrap();
        assert_eq!(back.shards[0].processed, 9);
        assert_eq!(back.shards[0].latency, LogHistogram::default());
        assert_eq!(back.shards[0].queue_depths, LogHistogram::default());
        assert_eq!(back.shards[0].backpressure_wait_ns, LogHistogram::default());
    }

    /// Pins the JSON schema of the stats dump: adding, renaming,
    /// reordering, or dropping a key is a deliberate act that must
    /// update this golden string (and any dashboards scraping the dump).
    #[test]
    fn stats_dump_schema_is_pinned() {
        let mut stats = ServeStats::new(1).snapshot(&[0], 0);
        stats.net.connections.push(ConnStats::default());
        let json = serde_json::to_string(&stats).unwrap();
        let golden = concat!(
            "{\"shards\":[{\"shard\":0,\"pairs\":0,\"processed\":0,",
            "\"queue_depth\":0,",
            "\"latency\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]},",
            "\"queue_depths\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]},",
            "\"backpressure_wait_ns\":{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"buckets\":[]}}],",
            "\"submitted\":0,\"rejected\":0,\"reports\":0,",
            "\"alarms\":0,\"checkpoints\":0,",
            "\"coverage_fraction\":1.0,\"rebuilds\":0,",
            "\"flight_dropped\":0,",
            "\"net\":{\"accepted\":0,\"closed\":0,",
            "\"frames\":0,\"decode_errors\":0,\"timeouts\":0,\"deadline_failures\":0,",
            "\"rejected\":0,",
            "\"duplicates\":0,\"out_of_order\":0,\"gap_skips\":0,",
            "\"checkpoint_failures\":0,\"connections\":[{\"conn\":0,\"peer\":\"\",",
            "\"protocol\":\"\",\"frames\":0,\"decode_errors\":0,\"timeouts\":0,",
            "\"rejected\":0,\"open\":false}]}}"
        );
        assert_eq!(json, golden);
    }

    /// Pins the Prometheus exposition format. The full document for a
    /// one-shard engine with a deterministic little workload: every
    /// metric name, label, bucket bound, and help string is part of
    /// the scrape contract.
    #[test]
    fn prometheus_exposition_is_pinned() {
        let mut live = ServeStats::new(1);
        live.submitted = 3;
        live.reports = 3;
        live.alarms = 1;
        live.shards[0].pairs = 2;
        for ns in [3, 900, 1000] {
            live.shards[0].observe_latency(ns);
        }
        live.shards[0].queue_depths.record(1);
        let stats = live.snapshot(&[1], 0);
        let text = stats.to_prometheus(&Tracer::disabled());
        let golden = "\
# HELP gridwatch_submitted_total Snapshots accepted at the ingestion front.
# TYPE gridwatch_submitted_total counter
gridwatch_submitted_total 3
# HELP gridwatch_rejected_total Snapshots refused under the Reject backpressure policy.
# TYPE gridwatch_rejected_total counter
gridwatch_rejected_total 0
# HELP gridwatch_reports_total Merged step reports emitted.
# TYPE gridwatch_reports_total counter
gridwatch_reports_total 3
# HELP gridwatch_alarms_total Alarm events fired by the merged-board tracker.
# TYPE gridwatch_alarms_total counter
gridwatch_alarms_total 1
# HELP gridwatch_checkpoints_total Checkpoints completed.
# TYPE gridwatch_checkpoints_total counter
gridwatch_checkpoints_total 0
# HELP gridwatch_rebuilds_total Pair-model rebuilds fired by the shards' drift layers.
# TYPE gridwatch_rebuilds_total counter
gridwatch_rebuilds_total 0
# HELP gridwatch_flight_dropped_total Flight-recorder events overwritten before they could be drained.
# TYPE gridwatch_flight_dropped_total counter
gridwatch_flight_dropped_total 0
# HELP gridwatch_shard_pairs Pair models owned by each shard.
# TYPE gridwatch_shard_pairs gauge
gridwatch_shard_pairs{shard=\"0\"} 2
# HELP gridwatch_shard_processed_total Snapshots scored by each shard.
# TYPE gridwatch_shard_processed_total counter
gridwatch_shard_processed_total{shard=\"0\"} 3
# HELP gridwatch_shard_queue_depth Messages currently waiting in each shard's queue.
# TYPE gridwatch_shard_queue_depth gauge
gridwatch_shard_queue_depth{shard=\"0\"} 1
# HELP gridwatch_shard_step_latency_ns Per-shard step_scores latency in nanoseconds.
# TYPE gridwatch_shard_step_latency_ns histogram
gridwatch_shard_step_latency_ns_bucket{shard=\"0\",le=\"0\"} 0
gridwatch_shard_step_latency_ns_bucket{shard=\"0\",le=\"1\"} 0
gridwatch_shard_step_latency_ns_bucket{shard=\"0\",le=\"3\"} 1
gridwatch_shard_step_latency_ns_bucket{shard=\"0\",le=\"7\"} 1
gridwatch_shard_step_latency_ns_bucket{shard=\"0\",le=\"15\"} 1
gridwatch_shard_step_latency_ns_bucket{shard=\"0\",le=\"31\"} 1
gridwatch_shard_step_latency_ns_bucket{shard=\"0\",le=\"63\"} 1
gridwatch_shard_step_latency_ns_bucket{shard=\"0\",le=\"127\"} 1
gridwatch_shard_step_latency_ns_bucket{shard=\"0\",le=\"255\"} 1
gridwatch_shard_step_latency_ns_bucket{shard=\"0\",le=\"511\"} 1
gridwatch_shard_step_latency_ns_bucket{shard=\"0\",le=\"1023\"} 3
gridwatch_shard_step_latency_ns_bucket{shard=\"0\",le=\"+Inf\"} 3
gridwatch_shard_step_latency_ns_sum{shard=\"0\"} 1903
gridwatch_shard_step_latency_ns_count{shard=\"0\"} 3
# HELP gridwatch_shard_queue_depth_samples Queue depth observed at each submit, per shard.
# TYPE gridwatch_shard_queue_depth_samples histogram
gridwatch_shard_queue_depth_samples_bucket{shard=\"0\",le=\"0\"} 0
gridwatch_shard_queue_depth_samples_bucket{shard=\"0\",le=\"1\"} 1
gridwatch_shard_queue_depth_samples_bucket{shard=\"0\",le=\"+Inf\"} 1
gridwatch_shard_queue_depth_samples_sum{shard=\"0\"} 1
gridwatch_shard_queue_depth_samples_count{shard=\"0\"} 1
# HELP gridwatch_shard_backpressure_wait_ns Nanoseconds the ingestion front blocked on each shard's full queue.
# TYPE gridwatch_shard_backpressure_wait_ns histogram
gridwatch_shard_backpressure_wait_ns_bucket{shard=\"0\",le=\"+Inf\"} 0
gridwatch_shard_backpressure_wait_ns_sum{shard=\"0\"} 0
gridwatch_shard_backpressure_wait_ns_count{shard=\"0\"} 0
# HELP gridwatch_net_frames_total Frames decoded across all connections.
# TYPE gridwatch_net_frames_total counter
gridwatch_net_frames_total 0
# HELP gridwatch_net_decode_errors_total Decode failures across all connections.
# TYPE gridwatch_net_decode_errors_total counter
gridwatch_net_decode_errors_total 0
# HELP gridwatch_net_timeouts_total Read-deadline kills across all connections.
# TYPE gridwatch_net_timeouts_total counter
gridwatch_net_timeouts_total 0
# HELP gridwatch_net_connections_accepted_total Connections accepted.
# TYPE gridwatch_net_connections_accepted_total counter
gridwatch_net_connections_accepted_total 0
# HELP gridwatch_net_connections_open Connections currently open.
# TYPE gridwatch_net_connections_open gauge
gridwatch_net_connections_open 0
# HELP gridwatch_net_duplicates_total Frames absorbed as duplicates.
# TYPE gridwatch_net_duplicates_total counter
gridwatch_net_duplicates_total 0
# HELP gridwatch_net_gap_skips_total Sequence numbers abandoned to reorder-window overflow.
# TYPE gridwatch_net_gap_skips_total counter
gridwatch_net_gap_skips_total 0
";
        assert_eq!(text, golden);
    }

    /// Every metric is declared once, as a table row, so checking the
    /// tables checks every name a scrape can carry.
    #[test]
    fn metric_tables_are_well_formed() {
        fn rows<T>(table: &[Metric<T>]) -> Vec<(&'static str, &'static str)> {
            table.iter().map(|row| (row.0, row.1)).collect()
        }
        let mut all = rows(SERVE_METRICS);
        all.extend(rows(SHARD_METRICS));
        all.extend(SHARD_HISTOGRAMS.iter().map(|row| (row.0, "histogram")));
        all.extend(rows(NET_METRICS));
        all.extend(rows(crate::coordinator::FABRIC_METRICS));
        all.extend(rows(crate::remote::WORKER_METRICS));
        all.extend(gridwatch_obs::health::BURN_METRICS.map(|row| (row.0, row.1)));
        let mut seen = std::collections::BTreeSet::new();
        for (name, kind) in all {
            assert!(seen.insert(name), "{name} is declared twice");
            let rest = name.strip_prefix("gridwatch_").unwrap_or("");
            let legal = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_';
            assert!(!rest.is_empty() && rest.bytes().all(legal), "{name}");
            assert_eq!(
                kind == "counter",
                name.ends_with("_total"),
                "{name} is a {kind}"
            );
        }
    }

    #[test]
    fn enabled_tracer_adds_stage_histograms() {
        let stats = ServeStats::new(1).snapshot(&[0], 0);
        let tracer = Tracer::enabled();
        tracer.record_ns(Stage::Score, 100);
        tracer.record_ns(Stage::Merge, 50);
        let text = stats.to_prometheus(&tracer);
        assert!(
            text.contains("# TYPE gridwatch_stage_ns histogram"),
            "{text}"
        );
        assert!(
            text.contains("gridwatch_stage_ns_count{stage=\"score\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("gridwatch_stage_ns_count{stage=\"merge\"} 1"),
            "{text}"
        );
        assert!(
            !text.contains("stage=\"ingest\""),
            "empty stages are skipped: {text}"
        );
        // The scrape parses.
        assert!(gridwatch_obs::parse_exposition(&text).is_some());
    }
}
