//! Span tracing of the snapshot pipeline.
//!
//! The lifecycle of one snapshot crosses seven stages —
//! `ingest → decode → sequence → route → score → merge → report` —
//! spread over several threads and, in a fabric, several processes. A
//! [`Tracer`] collects one lock-free [`LogHistogram`] per stage, fed by
//! the pipeline's one span guard ([`crate::PipelineObs::span`]) and, for
//! durations measured elsewhere, by [`Tracer::record_ns`].
//!
//! The disabled path is built to vanish: one relaxed atomic load and a
//! branch — no allocation, no clock read, no lock. Handles are cheap
//! clones of one shared core and can be enabled after the fact
//! ([`Tracer::enable`]), which is how a `shard-worker` turns tracing
//! on when the coordinator's `Hello` asks for it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crate::expo::Exposition;
use crate::hist::{bucket_index, LogHistogram, MAX_BUCKETS};

/// One stage of the snapshot pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// Bytes read off a client socket.
    Ingest,
    /// Wire frames decoded into snapshots.
    Decode,
    /// Per-source sequencing (dedup, reorder, gap handling).
    Sequence,
    /// Admission of one snapshot for fan-out to the shard queues
    /// (the backpressure check, its sequence number). Time
    /// blocked on a full queue is the backpressure-wait histogram's.
    Route,
    /// One shard scoring one snapshot against its pair models.
    Score,
    /// Partial boards merged into one full board.
    Merge,
    /// Alarm evaluation and report emission.
    Report,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 7] = [
        Stage::Ingest,
        Stage::Decode,
        Stage::Sequence,
        Stage::Route,
        Stage::Score,
        Stage::Merge,
        Stage::Report,
    ];

    /// The stage's stable name (used as a metric label).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Decode => "decode",
            Stage::Sequence => "sequence",
            Stage::Route => "route",
            Stage::Score => "score",
            Stage::Merge => "merge",
            Stage::Report => "report",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A lock-free histogram: the recording side of [`LogHistogram`], safe
/// to hammer from many threads with relaxed atomics (per-stage totals
/// need no cross-field consistency).
struct AtomicHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; MAX_BUCKETS],
}

impl AtomicHistogram {
    fn new() -> AtomicHistogram {
        AtomicHistogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> LogHistogram {
        let count = self.count.load(Ordering::Relaxed);
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        LogHistogram {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

struct TracerCore {
    enabled: AtomicBool,
    stages: [AtomicHistogram; 7],
}

/// A handle onto one process's pipeline-stage histograms. Clones share
/// the same core; the default handle is disabled.
#[derive(Clone)]
pub struct Tracer {
    core: Arc<TracerCore>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Tracer({})",
            if self.is_enabled() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Tracer {
    fn with_enabled(enabled: bool) -> Tracer {
        Tracer {
            core: Arc::new(TracerCore {
                enabled: AtomicBool::new(enabled),
                stages: std::array::from_fn(|_| AtomicHistogram::new()),
            }),
        }
    }

    /// A disabled tracer: spans cost one load and a branch.
    pub fn disabled() -> Tracer {
        Tracer::with_enabled(false)
    }

    /// An enabled tracer.
    pub fn enabled() -> Tracer {
        Tracer::with_enabled(true)
    }

    /// Whether spans currently record.
    pub fn is_enabled(&self) -> bool {
        self.core.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on for every clone of this handle.
    pub fn enable(&self) {
        self.core.enabled.store(true, Ordering::Relaxed);
    }

    /// Records a measured duration against `stage`: a finished span,
    /// or a timing that crossed the wire (a worker's `score_ns` riding
    /// home on its board frame). A no-op while disabled.
    pub fn record_ns(&self, stage: Stage, ns: u64) {
        if self.is_enabled() {
            self.core.stages[stage.index()].record(ns);
        }
    }

    /// A snapshot of one stage's histogram.
    pub fn stage(&self, stage: Stage) -> LogHistogram {
        self.core.stages[stage.index()].snapshot()
    }

    /// Snapshots of every stage histogram, in pipeline order.
    pub fn snapshot(&self) -> Vec<(Stage, LogHistogram)> {
        Stage::ALL.iter().map(|&s| (s, self.stage(s))).collect()
    }

    /// Appends the per-stage span histograms to a scrape (skipped
    /// entirely when no stage has recorded — a disabled tracer adds
    /// nothing to the exposition).
    pub fn render_into(&self, expo: &mut Exposition) {
        let stages = self.snapshot();
        if stages.iter().all(|(_, hist)| hist.count == 0) {
            return;
        }
        expo.header(
            "gridwatch_stage_ns",
            "histogram",
            "Span timing of each pipeline stage in nanoseconds.",
        );
        for (stage, hist) in stages.iter().filter(|(_, hist)| hist.count > 0) {
            expo.histogram("gridwatch_stage_ns", &[("stage", stage.name())], hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let tracer = Tracer::disabled();
        for stage in Stage::ALL {
            tracer.record_ns(stage, 123);
        }
        for (_, hist) in tracer.snapshot() {
            assert_eq!(hist, LogHistogram::new());
        }
    }

    #[test]
    fn enabled_spans_land_in_their_stage() {
        let tracer = Tracer::enabled();
        tracer.record_ns(Stage::Score, 7);
        tracer.record_ns(Stage::Score, 9);
        tracer.record_ns(Stage::Merge, 512);
        assert_eq!(tracer.stage(Stage::Score).count, 2);
        let merge = tracer.stage(Stage::Merge);
        assert_eq!(merge.count, 1);
        assert_eq!(merge.sum, 512);
        assert_eq!(tracer.stage(Stage::Ingest).count, 0);
    }

    #[test]
    fn clones_share_state_and_late_enable_works() {
        let tracer = Tracer::disabled();
        let clone = tracer.clone();
        clone.record_ns(Stage::Route, 5);
        assert_eq!(tracer.stage(Stage::Route).count, 0);
        tracer.enable();
        assert!(clone.is_enabled());
        clone.record_ns(Stage::Route, 5);
        assert_eq!(tracer.stage(Stage::Route).count, 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let tracer = Tracer::enabled();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    for k in 0..1000u64 {
                        tracer.record_ns(Stage::Score, t * 1000 + k);
                    }
                });
            }
        });
        let hist = tracer.stage(Stage::Score);
        assert_eq!(hist.count, 4000);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 4000);
    }

    #[test]
    fn stage_names_are_stable_and_ordered() {
        let names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            ["ingest", "decode", "sequence", "route", "score", "merge", "report"]
        );
        for (k, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), k);
        }
    }
}
