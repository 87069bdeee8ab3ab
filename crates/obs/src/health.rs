//! Health/SLO introspection: the pinned `/healthz` report schema and
//! rolling multi-window burn-rate gauges.
//!
//! The paper's operators ask two questions of a serving node before
//! drilling into correlations: "is it healthy right now" and "is it
//! burning its error budget". The first is answered by
//! [`HealthReport`] — a pinned-schema JSON document served on
//! `GET /healthz` that machine probes (and the fault-injection suites)
//! can assert against. The second is answered by [`BurnGauges`]:
//! cumulative pipeline counters and stage histograms are sampled at
//! each scrape, and deltas over rolling 60s/300s windows turn them
//! into rate gauges (decode/sequence error ppm, admission coverage ppm,
//! windowed per-stage p99) in the Prometheus exposition — the
//! two-window burn-rate idiom from SLO alerting practice.
//!
//! Everything here takes explicit timestamps so tests are
//! deterministic; callers feed wall-clock (or trace-clock) seconds.

use std::collections::VecDeque;
use std::sync::Arc;

use gridwatch_sync::LeafMutex;
use serde::{Deserialize, Serialize};

use crate::expo::Exposition;
use crate::hist::{bucket_upper_bound, LogHistogram};
use crate::trace::Stage;

/// The rolling burn-rate windows, in seconds (short for paging, long
/// for trend confirmation).
pub const BURN_WINDOWS_SECS: [u64; 2] = [60, 300];

/// Retained scrape samples; at one sample per scrape this covers the
/// long window many times over.
const MAX_SAMPLES: usize = 1024;

/// The burn-gauge families as `(name, kind, help)`, in header order:
/// the three per-window rates (decode, sequence, coverage — the order
/// [`BurnGauges::render_into`] computes them in), then the per-stage
/// windowed p99.
pub const BURN_METRICS: [(&str, &str, &str); 4] = [
    (
        "gridwatch_burn_decode_error_ppm",
        "gauge",
        "Decode failures per million frames over the window.",
    ),
    (
        "gridwatch_burn_sequence_error_ppm",
        "gauge",
        "Sequencing rejections per million frames over the window.",
    ),
    (
        "gridwatch_burn_coverage_ppm",
        "gauge",
        "Accepted snapshots per million offered over the window.",
    ),
    (
        "gridwatch_burn_stage_p99_ns",
        "gauge",
        "Windowed p99 stage latency in nanoseconds.",
    ),
];

/// One shard's liveness and queue pressure inside a [`HealthReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardHealth {
    /// Shard index.
    #[serde(default)]
    pub shard: u64,
    /// Whether the shard's worker is alive (thread running or fabric
    /// session attached).
    #[serde(default)]
    pub live: bool,
    /// Queued snapshots awaiting scoring.
    #[serde(default)]
    pub queue_depth: u64,
    /// The queue's capacity.
    #[serde(default)]
    pub queue_capacity: u64,
}

/// The `/healthz` document. Every field defaults so older probes keep
/// parsing newer reports and vice versa; the serialized field order is
/// pinned by a golden test.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HealthReport {
    /// `ok` or `degraded`.
    #[serde(default)]
    pub status: String,
    /// Per-shard liveness and queue depth vs capacity.
    #[serde(default)]
    pub shards: Vec<ShardHealth>,
    /// Admission coverage in parts-per-million: accepted snapshots per
    /// million offered to the ingestion front (1_000_000 = nothing
    /// refused).
    #[serde(default)]
    pub coverage_ppm: u64,
    /// Seconds since the last checkpoint; `None` when no checkpoint
    /// has happened (or no store is attached).
    #[serde(default)]
    pub checkpoint_age_secs: Option<i64>,
    /// Records sitting in the history store's WAL, not yet sealed into
    /// a block.
    #[serde(default)]
    pub store_wal_lag: u64,
    /// Alarms raised so far.
    #[serde(default)]
    pub alarms: u64,
    /// Why the report is degraded; empty when `ok`.
    #[serde(default)]
    pub reasons: Vec<String>,
}

impl Default for HealthReport {
    fn default() -> HealthReport {
        HealthReport {
            status: "ok".to_string(),
            shards: Vec::new(),
            coverage_ppm: 1_000_000,
            checkpoint_age_secs: None,
            store_wal_lag: 0,
            alarms: 0,
            reasons: Vec::new(),
        }
    }
}

impl HealthReport {
    /// Marks the report degraded with a reason. Idempotent on status;
    /// reasons accumulate.
    pub fn degrade(&mut self, reason: impl Into<String>) {
        self.status = "degraded".to_string();
        self.reasons.push(reason.into());
    }

    /// Whether the report is healthy.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// The JSON served on `/healthz` (single line, pinned field
    /// order).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).unwrap_or_else(|_| "{\"status\":\"degraded\"}".to_string())
    }
}

/// One scrape-time snapshot of the cumulative pipeline counters the
/// burn gauges are computed from. All counters are running totals;
/// [`BurnGauges`] turns them into rates by differencing.
#[derive(Debug, Clone, Default)]
pub struct BurnSample {
    /// Frames that failed to decode, cumulative.
    pub decode_errors: u64,
    /// Sequencing rejections (stale/duplicate/gap skips), cumulative.
    pub sequence_errors: u64,
    /// Snapshots admitted into the pipeline, cumulative.
    pub submitted: u64,
    /// Snapshots the ingestion front refused under `Reject`,
    /// cumulative.
    pub rejected: u64,
    /// Per-stage latency histograms, as [`crate::Tracer::snapshot`]
    /// returns them (in [`Stage::ALL`] order).
    pub stages: Vec<(Stage, LogHistogram)>,
}

struct WindowState {
    samples: VecDeque<(u64, BurnSample)>,
}

/// Rolling burn-rate gauges over the pipeline counters. Cloning
/// shares the window; one `observe` + `render_into` pair per scrape.
#[derive(Clone)]
pub struct BurnGauges {
    window: Arc<LeafMutex<WindowState>>,
}

impl Default for BurnGauges {
    fn default() -> BurnGauges {
        BurnGauges::new()
    }
}

impl std::fmt::Debug for BurnGauges {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BurnGauges({} samples)",
            self.window.lock().samples.len()
        )
    }
}

/// `num / den` in parts-per-million, 0 when the denominator is 0.
fn ppm(num: u64, den: u64) -> u64 {
    if den == 0 {
        0
    } else {
        ((num as u128 * 1_000_000) / den as u128) as u64
    }
}

/// The histogram of samples recorded between `old` and `new`:
/// bucket-count differences, with extrema widened so `quantile` reads
/// straight off the bucket walk.
fn delta_histogram(new: &LogHistogram, old: &LogHistogram) -> LogHistogram {
    let mut delta = LogHistogram::new();
    delta.count = new.count.saturating_sub(old.count);
    delta.sum = new.sum.saturating_sub(old.sum);
    delta.buckets = new
        .buckets
        .iter()
        .enumerate()
        .map(|(idx, n)| n.saturating_sub(old.buckets.get(idx).copied().unwrap_or(0)))
        .collect();
    let top = delta
        .buckets
        .iter()
        .rposition(|&n| n > 0)
        .map(bucket_upper_bound)
        .unwrap_or(0);
    delta.min = 0;
    delta.max = top;
    delta
}

impl BurnGauges {
    /// An empty window.
    pub fn new() -> BurnGauges {
        BurnGauges {
            window: Arc::new(LeafMutex::new(WindowState {
                samples: VecDeque::new(),
            })),
        }
    }

    /// Files a scrape-time sample at `now_secs`. Samples older than
    /// the longest window are trimmed, keeping one sample beyond the
    /// boundary so the delta always spans the full window.
    pub fn observe(&self, now_secs: u64, sample: BurnSample) {
        let horizon = BURN_WINDOWS_SECS[BURN_WINDOWS_SECS.len() - 1];
        let mut state = self.window.lock();
        state.samples.push_back((now_secs, sample));
        while state.samples.len() > 2 {
            let second_ts = state.samples[1].0;
            if second_ts + horizon <= now_secs {
                state.samples.pop_front();
            } else {
                break;
            }
        }
        while state.samples.len() > MAX_SAMPLES {
            state.samples.pop_front();
        }
    }

    /// Renders the burn-rate gauges into `expo`. For each window, the
    /// baseline is the newest sample at least that old (falling back
    /// to the oldest available — at cold start the "window" is however
    /// much history exists). No samples → all gauges read 0 with full
    /// coverage.
    pub fn render_into(&self, now_secs: u64, expo: &mut Exposition) {
        let state = self.window.lock();
        for (name, kind, help) in BURN_METRICS {
            expo.header(name, kind, help);
        }
        let mut rates: Vec<(String, [u64; 3])> = Vec::new();
        for window_secs in BURN_WINDOWS_SECS {
            let label = format!("{window_secs}s");
            let (window_rates, stage_p99) = match state.samples.back() {
                None => ([0, 0, 1_000_000], vec![0u64; Stage::ALL.len()]),
                Some((_, newest)) => {
                    let cutoff = now_secs.saturating_sub(window_secs);
                    let baseline = state
                        .samples
                        .iter()
                        .rev()
                        .find(|(ts, _)| *ts <= cutoff)
                        .or_else(|| state.samples.front())
                        .map_or(newest, |(_, s)| s);
                    let decode_d = newest.decode_errors.saturating_sub(baseline.decode_errors);
                    let seq_d = newest
                        .sequence_errors
                        .saturating_sub(baseline.sequence_errors);
                    let submitted_d = newest.submitted.saturating_sub(baseline.submitted);
                    let rejected_d = newest.rejected.saturating_sub(baseline.rejected);
                    let frames = decode_d + seq_d + submitted_d + rejected_d;
                    let offered = submitted_d + rejected_d;
                    let coverage = if offered == 0 {
                        1_000_000
                    } else {
                        ppm(submitted_d, offered)
                    };
                    let empty = LogHistogram::new();
                    let p99s: Vec<u64> = (0..Stage::ALL.len())
                        .map(|idx| {
                            let new = newest.stages.get(idx).map_or(&empty, |(_, h)| h);
                            let old = baseline.stages.get(idx).map_or(&empty, |(_, h)| h);
                            delta_histogram(new, old).p99()
                        })
                        .collect();
                    ([ppm(decode_d, frames), ppm(seq_d, frames), coverage], p99s)
                }
            };
            for (stage, p99) in Stage::ALL.iter().zip(stage_p99) {
                expo.sample(
                    BURN_METRICS[3].0,
                    &[("stage", stage.name()), ("window", &label)],
                    p99,
                );
            }
            rates.push((label, window_rates));
        }
        for (label, window_rates) in &rates {
            for ((name, ..), value) in BURN_METRICS[..3].iter().zip(window_rates) {
                expo.sample(name, &[("window", label)], *value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expo::parse as parse_exposition;

    fn sample(
        decode: u64,
        sequence: u64,
        submitted: u64,
        rejected: u64,
        score_ns: &[u64],
    ) -> BurnSample {
        let mut stages = Stage::ALL.map(|s| (s, LogHistogram::new())).to_vec();
        for &ns in score_ns {
            stages[4].1.record(ns); // Stage::Score
        }
        BurnSample {
            decode_errors: decode,
            sequence_errors: sequence,
            submitted,
            rejected,
            stages,
        }
    }

    fn gauge(text: &str, name: &str, labels: &[(&str, &str)]) -> u64 {
        let samples = parse_exposition(text).expect("well-formed");
        samples
            .iter()
            .find(|s| {
                s.name == name
                    && labels
                        .iter()
                        .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .unwrap_or_else(|| panic!("missing {name} {labels:?}"))
            .value as u64
    }

    /// The serialized `/healthz` schema is pinned: probes and the
    /// fault-injection suites assert against these exact field names.
    #[test]
    fn healthz_json_schema_is_pinned() {
        let mut report = HealthReport::default();
        report.shards.push(ShardHealth {
            shard: 0,
            live: true,
            queue_depth: 1,
            queue_capacity: 64,
        });
        assert_eq!(
            report.to_json(),
            concat!(
                "{\"status\":\"ok\",",
                "\"shards\":[{\"shard\":0,\"live\":true,",
                "\"queue_depth\":1,\"queue_capacity\":64}],",
                "\"coverage_ppm\":1000000,",
                "\"checkpoint_age_secs\":null,",
                "\"store_wal_lag\":0,",
                "\"alarms\":0,",
                "\"reasons\":[]}"
            )
        );
        report.degrade("queue 3 full");
        assert!(!report.is_ok());
        assert!(report.to_json().contains("\"status\":\"degraded\""));
        assert!(report.to_json().contains("\"reasons\":[\"queue 3 full\"]"));
        // Forward/backward compat: an empty object parses to defaults.
        let bare: HealthReport = serde_json::from_str("{}").unwrap();
        assert_eq!(bare.status, "");
        assert_eq!(bare.checkpoint_age_secs, None);
    }

    /// Pins the burn-gauge block appended to every `/metrics` scrape:
    /// family names, help strings, and the line order (all four
    /// headers, then the stage gauges per window, then the ppm gauges).
    #[test]
    fn burn_exposition_is_pinned() {
        let gauges = BurnGauges::new();
        gauges.observe(0, sample(0, 0, 0, 0, &[]));
        gauges.observe(30, sample(1, 2, 90, 7, &[400, 400, 9000]));
        let mut expo = Exposition::new();
        gauges.render_into(30, &mut expo);
        let golden = "\
# HELP gridwatch_burn_decode_error_ppm Decode failures per million frames over the window.
# TYPE gridwatch_burn_decode_error_ppm gauge
# HELP gridwatch_burn_sequence_error_ppm Sequencing rejections per million frames over the window.
# TYPE gridwatch_burn_sequence_error_ppm gauge
# HELP gridwatch_burn_coverage_ppm Accepted snapshots per million offered over the window.
# TYPE gridwatch_burn_coverage_ppm gauge
# HELP gridwatch_burn_stage_p99_ns Windowed p99 stage latency in nanoseconds.
# TYPE gridwatch_burn_stage_p99_ns gauge
gridwatch_burn_stage_p99_ns{stage=\"ingest\",window=\"60s\"} 0
gridwatch_burn_stage_p99_ns{stage=\"decode\",window=\"60s\"} 0
gridwatch_burn_stage_p99_ns{stage=\"sequence\",window=\"60s\"} 0
gridwatch_burn_stage_p99_ns{stage=\"route\",window=\"60s\"} 0
gridwatch_burn_stage_p99_ns{stage=\"score\",window=\"60s\"} 16383
gridwatch_burn_stage_p99_ns{stage=\"merge\",window=\"60s\"} 0
gridwatch_burn_stage_p99_ns{stage=\"report\",window=\"60s\"} 0
gridwatch_burn_stage_p99_ns{stage=\"ingest\",window=\"300s\"} 0
gridwatch_burn_stage_p99_ns{stage=\"decode\",window=\"300s\"} 0
gridwatch_burn_stage_p99_ns{stage=\"sequence\",window=\"300s\"} 0
gridwatch_burn_stage_p99_ns{stage=\"route\",window=\"300s\"} 0
gridwatch_burn_stage_p99_ns{stage=\"score\",window=\"300s\"} 16383
gridwatch_burn_stage_p99_ns{stage=\"merge\",window=\"300s\"} 0
gridwatch_burn_stage_p99_ns{stage=\"report\",window=\"300s\"} 0
gridwatch_burn_decode_error_ppm{window=\"60s\"} 10000
gridwatch_burn_sequence_error_ppm{window=\"60s\"} 20000
gridwatch_burn_coverage_ppm{window=\"60s\"} 927835
gridwatch_burn_decode_error_ppm{window=\"300s\"} 10000
gridwatch_burn_sequence_error_ppm{window=\"300s\"} 20000
gridwatch_burn_coverage_ppm{window=\"300s\"} 927835
";
        assert_eq!(expo.finish(), golden);
    }

    #[test]
    fn empty_window_reads_zero_errors_full_coverage() {
        let gauges = BurnGauges::new();
        let mut expo = Exposition::new();
        gauges.render_into(1_000, &mut expo);
        let text = expo.finish();
        for window in ["60s", "300s"] {
            assert_eq!(
                gauge(
                    &text,
                    "gridwatch_burn_decode_error_ppm",
                    &[("window", window)]
                ),
                0
            );
            assert_eq!(
                gauge(&text, "gridwatch_burn_coverage_ppm", &[("window", window)]),
                1_000_000
            );
        }
        assert_eq!(
            gauge(
                &text,
                "gridwatch_burn_stage_p99_ns",
                &[("stage", "score"), ("window", "60s")]
            ),
            0
        );
    }

    #[test]
    fn windows_pick_their_own_baselines() {
        let gauges = BurnGauges::new();
        // t=0: clean history. t=250: 100 decode errors have happened.
        // t=300: 10 more. The 60s window sees only the last 10; the
        // 300s window sees all 110.
        gauges.observe(0, sample(0, 0, 0, 0, &[]));
        gauges.observe(250, sample(100, 0, 900, 0, &[]));
        gauges.observe(300, sample(110, 0, 990, 0, &[]));
        let mut expo = Exposition::new();
        gauges.render_into(300, &mut expo);
        let text = expo.finish();
        // 60s window: baseline t=250 ⇒ 10 errors / 100 frames.
        assert_eq!(
            gauge(
                &text,
                "gridwatch_burn_decode_error_ppm",
                &[("window", "60s")]
            ),
            100_000
        );
        // 300s window: baseline t=0 ⇒ 110 errors / 1100 frames.
        assert_eq!(
            gauge(
                &text,
                "gridwatch_burn_decode_error_ppm",
                &[("window", "300s")]
            ),
            100_000
        );
        // Coverage: nothing refused, both windows full.
        assert_eq!(
            gauge(&text, "gridwatch_burn_coverage_ppm", &[("window", "300s")]),
            1_000_000
        );
    }

    #[test]
    fn coverage_and_stage_p99_are_windowed() {
        let gauges = BurnGauges::new();
        let mut early = sample(0, 0, 1_000, 0, &[100, 100, 100]);
        gauges.observe(0, early.clone());
        // Between t=0 and t=290: refuses half, and the score stage slows
        // from ~100ns to ~8000ns.
        early.submitted = 1_500;
        early.rejected = 500;
        for _ in 0..100 {
            early.stages[4].1.record(8_000);
        }
        gauges.observe(290, early);
        let mut expo = Exposition::new();
        gauges.render_into(290, &mut expo);
        let text = expo.finish();
        assert_eq!(
            gauge(&text, "gridwatch_burn_coverage_ppm", &[("window", "300s")]),
            500_000
        );
        let p99 = gauge(
            &text,
            "gridwatch_burn_stage_p99_ns",
            &[("stage", "score"), ("window", "300s")],
        );
        assert!((8_000..=16_383).contains(&p99), "windowed p99 = {p99}");
        // A stage with no samples in the window reads 0.
        assert_eq!(
            gauge(
                &text,
                "gridwatch_burn_stage_p99_ns",
                &[("stage", "merge"), ("window", "300s")]
            ),
            0
        );
    }

    #[test]
    fn old_samples_are_trimmed_but_the_window_stays_spanned() {
        let gauges = BurnGauges::new();
        for t in 0..50u64 {
            gauges.observe(t * 100, sample(t, 0, t * 10, 0, &[]));
        }
        let len = gauges.window.lock().samples.len();
        // 300s horizon at 100s cadence keeps only a handful.
        assert!(len <= 6, "retained {len} samples");
        let oldest = gauges.window.lock().samples[0].0;
        assert!(oldest + 300 <= 4_900, "oldest sample spans the window");
    }
}
