//! gridwatch-obs: self-contained observability for the serving
//! pipeline.
//!
//! The paper's thesis is that operators diagnose distributed systems
//! by watching measurement streams; this crate gives gridwatch's own
//! pipeline the same treatment, with zero external dependencies:
//!
//! * [`trace`] — span tracing over the snapshot lifecycle
//!   (`ingest → decode → sequence → route → score → merge → report`)
//!   with a branch-only disabled path;
//! * [`hist`] — log-bucketed, exactly-mergeable latency histograms
//!   (p50/p90/p99/p99.9) for per-shard and cross-process roll-ups;
//! * [`expo`] + [`http`] — Prometheus text exposition served live
//!   over a minimal `GET /metrics` responder;
//! * [`recorder`] — a flight recorder ring of recent pipeline events,
//!   dumped on alarm, panic, or shutdown;
//! * [`exemplar`] — tail-based trace exemplars: full per-snapshot span
//!   trees retained only for alarmed/slow/head-sampled snapshots;
//! * [`health`] — the pinned `/healthz` report schema and rolling
//!   burn-rate gauges;
//! * [`log`] — the leveled, rate-limited structured logger behind the
//!   [`error!`], [`warn!`], [`info!`], and [`debug!`] macros
//!   (filtered by `GRIDWATCH_LOG`).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::float_cmp_const,
        clippy::disallowed_methods,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod exemplar;
pub mod expo;
pub mod health;
pub mod hist;
pub mod http;
pub mod log;
pub mod recorder;
pub mod trace;

pub use exemplar::{
    ExemplarConfig, ExemplarPosture, ExemplarTracer, SpanSlice, TraceExemplar, MAX_SPANS_PER_TRACE,
};
pub use expo::{
    parse as parse_exposition, Exposition, HistogramMetric, Labelled, Metric, ParsedSample,
};
pub use health::{BurnGauges, BurnSample, HealthReport, ShardHealth, BURN_WINDOWS_SECS};
pub use hist::{bucket_index, bucket_upper_bound, LogHistogram, MAX_BUCKETS};
pub use http::{scrape, scrape_method, MetricsServer};
pub use log::Level;
pub use recorder::{FlightEvent, FlightRecorder};
pub use trace::{Stage, Tracer};

use std::time::Instant;

/// The observability handles one pipeline component carries: a tracer
/// (disabled by default), a tail-sampling exemplar collector (also
/// disabled by default), and a flight recorder (always on — events
/// are rare and the ring is bounded). Cloning shares all three.
#[derive(Debug, Clone, Default)]
pub struct PipelineObs {
    /// Span tracing over the pipeline stages.
    pub tracer: Tracer,
    /// Tail-based per-snapshot trace exemplars.
    pub exemplar: ExemplarTracer,
    /// The recent-event ring.
    pub recorder: FlightRecorder,
}

impl PipelineObs {
    /// Tracing disabled, recorder on. Identical to `default()`.
    pub fn disabled() -> PipelineObs {
        PipelineObs::default()
    }

    /// Tracing enabled from the start (exemplar capture stays off
    /// until explicitly enabled with a config).
    pub fn enabled() -> PipelineObs {
        PipelineObs {
            tracer: Tracer::enabled(),
            exemplar: ExemplarTracer::disabled(),
            recorder: FlightRecorder::default(),
        }
    }

    /// Starts the one clock a pipeline stage is timed by. The guard
    /// reads the clock only if the tracer or exemplar capture is on —
    /// otherwise it costs two relaxed loads and a branch — and on
    /// [`StageSpan::finish`] / [`StageSpan::into_slice`] (or drop)
    /// feeds the same measurement to the stage histogram and to the
    /// snapshot's exemplar trace.
    #[inline]
    pub fn span(&self, stage: Stage) -> StageSpan<'_> {
        let on = self.tracer.is_enabled() || self.exemplar.is_enabled();
        StageSpan {
            obs: self,
            stage,
            start: on.then(Instant::now),
        }
    }
}

/// A live stage span (see [`PipelineObs::span`]). Dropping it unfinished
/// still records the stage histogram: a stage that ran for no sequence
/// number (a rejected snapshot, a failed read) took time all the same.
pub struct StageSpan<'a> {
    obs: &'a PipelineObs,
    stage: Stage,
    start: Option<Instant>,
}

impl StageSpan<'_> {
    /// When the span started on the exemplar timeline (0 when off), for
    /// anchoring zero-width slices of stages a front does not run.
    pub fn start_ns(&self) -> u64 {
        self.start.map_or(0, |at| self.obs.exemplar.offset_ns(at))
    }

    /// Stops the clock, feeds the stage histogram, and returns
    /// `(start_ns, dur_ns)` when exemplar capture wants the slice too.
    fn stop(&mut self) -> Option<(u64, u64)> {
        let start = self.start.take()?;
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.obs.tracer.record_ns(self.stage, dur_ns);
        let exemplar = &self.obs.exemplar;
        exemplar
            .is_enabled()
            .then(|| (exemplar.offset_ns(start), dur_ns))
    }

    /// Ends the span as snapshot `seq`'s slice of this stage, run by
    /// `worker`.
    pub fn finish(self, seq: u64, worker: &str) {
        let exemplar = &self.obs.exemplar;
        if let Some(slice) = self.into_slice(worker) {
            exemplar.record(seq, slice);
        }
    }

    /// Ends the span and hands back its slice (`None` while exemplar
    /// capture is off) for a caller that files it later: under a
    /// sequence number not assigned yet, or upstream on a board frame.
    pub fn into_slice(mut self, worker: &str) -> Option<SpanSlice> {
        let (start_ns, dur_ns) = self.stop()?;
        Some(SpanSlice::new(self.stage, start_ns, dur_ns, worker))
    }
}

impl Drop for StageSpan<'_> {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_obs_traces_nothing_but_records_events() {
        let obs = PipelineObs::default();
        assert!(!obs.tracer.is_enabled());
        drop(obs.span(Stage::Score));
        assert_eq!(obs.tracer.stage(Stage::Score).count, 0);
        obs.recorder.record("checkpoint", "id 0");
        assert_eq!(obs.recorder.snapshot().len(), 1);
    }

    #[test]
    fn enabled_obs_shares_state_across_clones() {
        let obs = PipelineObs::enabled();
        let clone = obs.clone();
        drop(clone.span(Stage::Merge));
        assert_eq!(obs.tracer.stage(Stage::Merge).count, 1);
        clone.recorder.record("conn-open", "peer x");
        assert_eq!(obs.recorder.snapshot().len(), 1);
    }

    #[test]
    fn a_disabled_span_reads_no_clock_and_yields_nothing() {
        let obs = PipelineObs::disabled();
        let span = obs.span(Stage::Route);
        assert_eq!(span.start_ns(), 0);
        assert!(span.into_slice("w").is_none());
        obs.span(Stage::Route).finish(7, "w");
        assert_eq!(obs.tracer.stage(Stage::Route).count, 0);
    }

    #[test]
    fn one_span_feeds_histogram_and_trace_the_same_measurement() {
        let obs = PipelineObs {
            tracer: Tracer::enabled(),
            exemplar: ExemplarTracer::enabled(ExemplarConfig {
                head_sample_every: 1,
                ..ExemplarConfig::default()
            }),
            ..PipelineObs::default()
        };
        obs.exemplar.open(3, "test", 0);
        obs.span(Stage::Merge).finish(3, "merger");
        let shipped = obs.span(Stage::Decode).into_slice("worker-0").unwrap();
        // Dropped unfinished: the histogram still counts the stage.
        drop(obs.span(Stage::Route));
        assert!(obs.exemplar.finalize(3, false));

        let (_, traces) = obs.exemplar.snapshot_indexed();
        let [merge] = &traces[0].spans[..] else {
            panic!("one slice filed under seq 3: {:?}", traces[0].spans);
        };
        assert_eq!(
            (merge.stage.as_str(), merge.worker.as_str()),
            ("merge", "merger")
        );
        // One clock: the slice's duration *is* the histogram's sample.
        assert_eq!(obs.tracer.stage(Stage::Merge).sum, merge.dur_ns);
        assert_eq!(obs.tracer.stage(Stage::Decode).sum, shipped.dur_ns);
        assert_eq!(obs.tracer.stage(Stage::Route).count, 1);
    }

    #[test]
    fn either_sink_alone_still_gets_its_measurement() {
        let histogram_only = PipelineObs::enabled();
        assert!(histogram_only.span(Stage::Score).into_slice("w").is_none());
        assert_eq!(histogram_only.tracer.stage(Stage::Score).count, 1);

        let trace_only = PipelineObs {
            exemplar: ExemplarTracer::enabled(ExemplarConfig::default()),
            ..PipelineObs::default()
        };
        assert!(trace_only.span(Stage::Score).into_slice("w").is_some());
        assert_eq!(trace_only.tracer.stage(Stage::Score).count, 0);
    }
}
