//! Tail-based trace exemplars: full per-snapshot span trees for the
//! interesting tail of the pipeline.
//!
//! The [`crate::trace::Tracer`] aggregates stage latencies into
//! histograms, which answers "how slow is the merge stage" but not
//! "why was *this* alarmed snapshot slow". An [`ExemplarTracer`] keeps
//! the causal record for exactly the snapshots worth keeping: a trace
//! context keyed by `(source, seq)` is opened at admission, stage
//! [`SpanSlice`]s accumulate as the snapshot crosses the pipeline
//! (including slices that rode home on a fabric board frame), and
//! `finalize` retains the assembled [`TraceExemplar`] in a bounded
//! ring only when the snapshot alarmed, breached a per-stage latency
//! budget, or matched a 1-in-N head sample — Dapper-style tail
//! sampling, sized for drill-down rather than statistics.
//!
//! The disabled path follows the same hard-gated discipline as the
//! tracer: one relaxed load and a branch, no clock read, no lock, no
//! allocation (`obs_overhead` bench-gates it at ≤15ns/step).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gridwatch_sync::LeafMutex;
use serde::{Deserialize, Serialize};

use crate::trace::Stage;

/// Spans kept per trace, bounding the memory of one pending entry.
pub const MAX_SPANS_PER_TRACE: usize = 64;

/// One stage span inside an exemplar trace. All fields default so the
/// struct can ride fabric frames and persisted records without
/// breaking older readers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanSlice {
    /// Stage name (`ingest` ... `report`).
    #[serde(default)]
    pub stage: String,
    /// Span start, in nanoseconds from the recording process's trace
    /// epoch. Offsets are per-process: slices recorded by a remote
    /// worker keep the worker's own timeline.
    #[serde(default)]
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    #[serde(default)]
    pub dur_ns: u64,
    /// Owning shard; `None` when the stage is not shard-bound.
    #[serde(default)]
    pub shard: Option<u64>,
    /// Thread/process attribution (`aggregator`, `worker-2`, ...).
    #[serde(default)]
    pub worker: String,
}

impl SpanSlice {
    /// A slice for `stage` with no shard attribution.
    pub fn new(stage: Stage, start_ns: u64, dur_ns: u64, worker: &str) -> SpanSlice {
        SpanSlice {
            stage: stage.name().to_string(),
            start_ns,
            dur_ns,
            shard: None,
            worker: worker.to_string(),
        }
    }

    /// A slice attributed to one shard.
    pub fn sharded(
        stage: Stage,
        start_ns: u64,
        dur_ns: u64,
        shard: u64,
        worker: &str,
    ) -> SpanSlice {
        SpanSlice {
            shard: Some(shard),
            ..SpanSlice::new(stage, start_ns, dur_ns, worker)
        }
    }
}

/// One retained trace: the full causal record of one snapshot's trip
/// through the pipeline. All fields default (persisted as a history
/// store record; older readers must keep parsing).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceExemplar {
    /// The snapshot's origin (`local`, `coordinator`, or a wire source).
    #[serde(default)]
    pub source: String,
    /// The snapshot's sequence number at the merge point.
    #[serde(default)]
    pub seq: u64,
    /// The snapshot's trace instant, in seconds.
    #[serde(default)]
    pub at: u64,
    /// Whether this snapshot raised at least one alarm.
    #[serde(default)]
    pub alarmed: bool,
    /// Whether any stage exceeded the per-stage latency budget.
    #[serde(default)]
    pub breached: bool,
    /// Whether the 1-in-N head sample selected this snapshot.
    #[serde(default)]
    pub head_sampled: bool,
    /// Sum of all span durations, in nanoseconds.
    #[serde(default)]
    pub total_ns: u64,
    /// The stage spans, in recording order.
    #[serde(default)]
    pub spans: Vec<SpanSlice>,
}

impl TraceExemplar {
    /// Approximate heap + inline footprint, for the posture gauge.
    pub fn approx_bytes(&self) -> u64 {
        let fixed = std::mem::size_of::<TraceExemplar>() as u64;
        let spans: u64 = self
            .spans
            .iter()
            .map(|s| {
                std::mem::size_of::<SpanSlice>() as u64
                    + s.stage.len() as u64
                    + s.worker.len() as u64
            })
            .sum();
        fixed + self.source.len() as u64 + spans
    }
}

/// Tail-sampling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExemplarConfig {
    /// Retain every `head_sample_every`-th sequence regardless of
    /// outcome; 0 disables head sampling.
    pub head_sample_every: u64,
    /// Retain any trace with a stage span longer than this; 0 disables
    /// the budget rule.
    pub stage_budget_ns: u64,
    /// Retained-exemplar ring capacity.
    pub ring_capacity: usize,
    /// In-flight trace table capacity; admissions past it evict the
    /// oldest pending trace.
    pub pending_capacity: usize,
}

impl Default for ExemplarConfig {
    fn default() -> ExemplarConfig {
        ExemplarConfig {
            head_sample_every: 0,
            stage_budget_ns: 0,
            ring_capacity: 64,
            pending_capacity: 256,
        }
    }
}

/// Capture counters for the CI posture trend line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExemplarPosture {
    /// Traces ever retained into the ring.
    pub retained: u64,
    /// Retained traces since evicted by ring overflow.
    pub dropped: u64,
    /// Approximate bytes currently held by the ring.
    pub bytes: u64,
}

#[derive(Debug)]
struct PendingTrace {
    source: String,
    at: u64,
    spans: Vec<SpanSlice>,
}

#[derive(Debug, Default)]
struct Ring {
    entries: std::collections::VecDeque<TraceExemplar>,
    /// Global index of `entries[0]`; advances on eviction so every
    /// retained trace keeps a stable index for incremental drains.
    base: u64,
    bytes: u64,
}

#[derive(Debug)]
struct Core {
    enabled: AtomicBool,
    head_sample_every: AtomicU64,
    stage_budget_ns: AtomicU64,
    ring_capacity: usize,
    pending_capacity: usize,
    epoch: Instant,
    /// Traces opened but not yet finalized, keyed by sequence number.
    pending: LeafMutex<BTreeMap<u64, PendingTrace>>,
    ring: LeafMutex<Ring>,
    /// Pending traces evicted before finalize (admission outran the
    /// table) — visible so silent capture loss never looks like "no
    /// interesting traces".
    pending_evicted: AtomicU64,
}

/// A shareable tail-sampling trace collector. Clones share one core;
/// the default handle is disabled and stays free.
#[derive(Clone)]
pub struct ExemplarTracer {
    core: Arc<Core>,
}

impl Default for ExemplarTracer {
    fn default() -> ExemplarTracer {
        ExemplarTracer::disabled()
    }
}

impl std::fmt::Debug for ExemplarTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ExemplarTracer({})",
            if self.is_enabled() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl ExemplarTracer {
    fn with_enabled(enabled: bool, config: ExemplarConfig) -> ExemplarTracer {
        ExemplarTracer {
            core: Arc::new(Core {
                enabled: AtomicBool::new(enabled),
                head_sample_every: AtomicU64::new(config.head_sample_every),
                stage_budget_ns: AtomicU64::new(config.stage_budget_ns),
                ring_capacity: config.ring_capacity.max(1),
                pending_capacity: config.pending_capacity.max(1),
                epoch: Instant::now(),
                pending: LeafMutex::new(BTreeMap::new()),
                ring: LeafMutex::new(Ring::default()),
                pending_evicted: AtomicU64::new(0),
            }),
        }
    }

    /// A disabled collector: every call is one relaxed load + branch.
    pub fn disabled() -> ExemplarTracer {
        ExemplarTracer::with_enabled(false, ExemplarConfig::default())
    }

    /// An enabled collector with the given tail-sampling rules.
    pub fn enabled(config: ExemplarConfig) -> ExemplarTracer {
        ExemplarTracer::with_enabled(true, config)
    }

    /// Whether capture is on.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.enabled.load(Ordering::Relaxed)
    }

    /// Turns capture on for every clone, adopting `config`'s sampling
    /// rules (ring/pending capacities stay as constructed) — how a
    /// `shard-worker` lights up when the coordinator's `Hello` asks.
    pub fn enable(&self, config: ExemplarConfig) {
        self.core
            .head_sample_every
            .store(config.head_sample_every, Ordering::Relaxed);
        self.core
            .stage_budget_ns
            .store(config.stage_budget_ns, Ordering::Relaxed);
        self.core.enabled.store(true, Ordering::Relaxed);
    }

    /// `at` in nanoseconds since this collector's trace epoch — the
    /// timeline `SpanSlice::start_ns` offsets are measured on.
    pub(crate) fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.core.epoch).as_nanos() as u64
    }

    /// The slice for `stage` work on `shard` that ended just now and
    /// took `dur_ns` by the caller's own timer (a shard's step clock
    /// runs whether or not anything traces). `None` while capture is
    /// off, before `worker` is even formatted.
    pub fn ended_now(
        &self,
        stage: Stage,
        dur_ns: u64,
        shard: u64,
        worker: impl std::fmt::Display,
    ) -> Option<SpanSlice> {
        self.is_enabled().then(|| {
            let start_ns = self.offset_ns(Instant::now()).saturating_sub(dur_ns);
            SpanSlice {
                shard: Some(shard),
                worker: worker.to_string(),
                ..SpanSlice::new(stage, start_ns, dur_ns, "")
            }
        })
    }

    /// Opens the trace context for sequence `seq` from `source`, filed
    /// at trace-second `at`. When the pending table is full, the
    /// oldest in-flight trace is evicted (and counted) — admission
    /// must never block on capture.
    pub fn open(&self, seq: u64, source: &str, at: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut pending = self.core.pending.lock();
        if pending.len() >= self.core.pending_capacity {
            let oldest = pending.keys().next().copied();
            if let Some(oldest) = oldest {
                pending.remove(&oldest);
                self.core.pending_evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        pending.insert(
            seq,
            PendingTrace {
                source: source.to_string(),
                at,
                spans: Vec::new(),
            },
        );
    }

    /// Appends one span to sequence `seq`'s trace. A miss (never
    /// opened, already finalized, or evicted) is a silent no-op.
    pub fn record(&self, seq: u64, slice: SpanSlice) {
        if !self.is_enabled() {
            return;
        }
        let mut pending = self.core.pending.lock();
        if let Some(trace) = pending.get_mut(&seq) {
            if trace.spans.len() < MAX_SPANS_PER_TRACE {
                trace.spans.push(slice);
            }
        }
    }

    /// Appends several spans at once — the propagation path for slices
    /// that crossed the fabric wire on a board frame.
    pub fn record_slices(&self, seq: u64, slices: &[SpanSlice]) {
        if !self.is_enabled() || slices.is_empty() {
            return;
        }
        let mut pending = self.core.pending.lock();
        if let Some(trace) = pending.get_mut(&seq) {
            for slice in slices {
                if trace.spans.len() >= MAX_SPANS_PER_TRACE {
                    break;
                }
                trace.spans.push(slice.clone());
            }
        }
    }

    /// Closes sequence `seq`'s trace and applies the tail-sampling
    /// decision: the trace is retained iff it alarmed, any span
    /// breached the stage budget, or the head sample selected it.
    /// Returns whether it was retained.
    pub fn finalize(&self, seq: u64, alarmed: bool) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let trace = self.core.pending.lock().remove(&seq);
        let Some(trace) = trace else { return false };
        let budget = self.core.stage_budget_ns.load(Ordering::Relaxed);
        let head_every = self.core.head_sample_every.load(Ordering::Relaxed);
        let breached = budget > 0 && trace.spans.iter().any(|s| s.dur_ns > budget);
        let head_sampled = head_every > 0 && seq.is_multiple_of(head_every);
        if !(alarmed || breached || head_sampled) {
            return false;
        }
        let exemplar = TraceExemplar {
            source: trace.source,
            seq,
            at: trace.at,
            alarmed,
            breached,
            head_sampled,
            total_ns: trace.spans.iter().map(|s| s.dur_ns).sum(),
            spans: trace.spans,
        };
        let bytes = exemplar.approx_bytes();
        let mut ring = self.core.ring.lock();
        if ring.entries.len() >= self.core.ring_capacity {
            if let Some(evicted) = ring.entries.pop_front() {
                ring.bytes = ring.bytes.saturating_sub(evicted.approx_bytes());
                ring.base += 1;
            }
        }
        ring.bytes += bytes;
        ring.entries.push_back(exemplar);
        true
    }

    /// The retained traces plus the global index of the first one,
    /// read under one lock — the incremental-drain contract mirrors
    /// [`crate::recorder::FlightRecorder::snapshot_indexed`].
    pub fn snapshot_indexed(&self) -> (u64, Vec<TraceExemplar>) {
        let ring = self.core.ring.lock();
        (ring.base, ring.entries.iter().cloned().collect())
    }

    /// Capture counters: traces retained, traces evicted from the
    /// ring, and the ring's approximate byte footprint.
    pub fn posture(&self) -> ExemplarPosture {
        let ring = self.core.ring.lock();
        ExemplarPosture {
            retained: ring.base + ring.entries.len() as u64,
            dropped: ring.base,
            bytes: ring.bytes,
        }
    }

    /// Traces opened and not yet finalized or evicted.
    pub fn pending(&self) -> usize {
        self.core.pending.lock().len()
    }

    /// In-flight traces evicted before finalize (admission outran the
    /// pending table).
    pub fn pending_evicted(&self) -> u64 {
        self.core.pending_evicted.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ExemplarConfig {
        ExemplarConfig {
            head_sample_every: 0,
            stage_budget_ns: 0,
            ring_capacity: 4,
            pending_capacity: 8,
        }
    }

    #[test]
    fn disabled_collector_captures_nothing() {
        let tracer = ExemplarTracer::disabled();
        tracer.open(1, "local", 360);
        tracer.record(1, SpanSlice::new(Stage::Route, 0, 10, "submit"));
        assert!(!tracer.finalize(1, true));
        assert_eq!(tracer.snapshot_indexed(), (0, Vec::new()));
        assert_eq!(tracer.posture(), ExemplarPosture::default());
    }

    #[test]
    fn alarmed_traces_are_retained_quiet_ones_are_not() {
        let tracer = ExemplarTracer::enabled(config());
        for seq in 0..4u64 {
            tracer.open(seq, "local", 360 * seq);
            tracer.record(seq, SpanSlice::sharded(Stage::Score, 5, 100, seq, "shard"));
            assert_eq!(tracer.finalize(seq, seq == 2), seq == 2);
        }
        let (base, traces) = tracer.snapshot_indexed();
        assert_eq!(base, 0);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].seq, 2);
        assert!(traces[0].alarmed);
        assert!(!traces[0].breached);
        assert_eq!(traces[0].total_ns, 100);
        assert_eq!(traces[0].spans[0].shard, Some(2));
    }

    #[test]
    fn budget_breaches_and_head_samples_are_retained() {
        let tracer = ExemplarTracer::enabled(ExemplarConfig {
            head_sample_every: 10,
            stage_budget_ns: 1_000,
            ..config()
        });
        // seq 1: under budget, off the head stride — dropped.
        tracer.open(1, "local", 0);
        tracer.record(1, SpanSlice::new(Stage::Merge, 0, 999, "agg"));
        assert!(!tracer.finalize(1, false));
        // seq 2: one span over budget — retained as a breach.
        tracer.open(2, "local", 0);
        tracer.record(2, SpanSlice::new(Stage::Merge, 0, 1_001, "agg"));
        assert!(tracer.finalize(2, false));
        // seq 10: head sample (1-in-10) — retained.
        tracer.open(10, "local", 0);
        assert!(tracer.finalize(10, false));
        let (_, traces) = tracer.snapshot_indexed();
        assert_eq!(traces.len(), 2);
        assert!(traces[0].breached && !traces[0].head_sampled);
        assert!(traces[1].head_sampled && !traces[1].breached);
    }

    #[test]
    fn ring_bound_evicts_oldest_and_advances_the_base() {
        let tracer = ExemplarTracer::enabled(config());
        for seq in 0..6u64 {
            tracer.open(seq, "local", seq);
            tracer.finalize(seq, true);
        }
        let (base, traces) = tracer.snapshot_indexed();
        assert_eq!(base, 2);
        assert_eq!(
            traces.iter().map(|t| t.seq).collect::<Vec<_>>(),
            vec![2, 3, 4, 5]
        );
        let posture = tracer.posture();
        assert_eq!(posture.retained, 6);
        assert_eq!(posture.dropped, 2);
        assert!(posture.bytes > 0);
    }

    #[test]
    fn pending_table_is_bounded_and_eviction_is_counted() {
        let tracer = ExemplarTracer::enabled(config());
        for seq in 0..10u64 {
            tracer.open(seq, "local", seq);
        }
        assert_eq!(tracer.pending_evicted(), 2);
        // The evicted traces (0 and 1) are gone: finalizing them
        // retains nothing even though they would have alarmed.
        assert!(!tracer.finalize(0, true));
        assert!(tracer.finalize(2, true));
    }

    #[test]
    fn span_count_per_trace_is_bounded() {
        let tracer = ExemplarTracer::enabled(config());
        tracer.open(1, "local", 0);
        for k in 0..(MAX_SPANS_PER_TRACE as u64 + 10) {
            tracer.record(1, SpanSlice::new(Stage::Score, k, 1, "w"));
        }
        assert!(tracer.finalize(1, true));
        let (_, traces) = tracer.snapshot_indexed();
        assert_eq!(traces[0].spans.len(), MAX_SPANS_PER_TRACE);
    }

    #[test]
    fn late_enable_lights_up_every_clone() {
        let tracer = ExemplarTracer::disabled();
        let clone = tracer.clone();
        clone.open(1, "local", 0);
        assert!(!clone.finalize(1, true));
        tracer.enable(ExemplarConfig {
            head_sample_every: 1,
            ..ExemplarConfig::default()
        });
        assert!(clone.is_enabled());
        clone.open(2, "local", 0);
        assert!(clone.finalize(2, false), "head stride 1 keeps everything");
    }

    /// The persisted exemplar schema is pinned: this exact JSON is what
    /// `gridwatch trace` reads back out of the history store, so field
    /// names and order only change deliberately.
    #[test]
    fn exemplar_json_schema_is_pinned() {
        let exemplar = TraceExemplar {
            source: "local".to_string(),
            seq: 42,
            at: 5_184_000,
            alarmed: true,
            breached: false,
            head_sampled: false,
            total_ns: 1_500,
            spans: vec![SpanSlice {
                stage: "score".to_string(),
                start_ns: 10,
                dur_ns: 1_500,
                shard: Some(1),
                worker: "shard-1".to_string(),
            }],
        };
        let json = serde_json::to_string(&exemplar).unwrap();
        assert_eq!(
            json,
            concat!(
                "{\"source\":\"local\",\"seq\":42,\"at\":5184000,",
                "\"alarmed\":true,\"breached\":false,\"head_sampled\":false,",
                "\"total_ns\":1500,\"spans\":[{\"stage\":\"score\",",
                "\"start_ns\":10,\"dur_ns\":1500,\"shard\":1,",
                "\"worker\":\"shard-1\"}]}"
            )
        );
        let back: TraceExemplar = serde_json::from_str(&json).unwrap();
        assert_eq!(back, exemplar);
        // Older payloads parse to defaults; a missing shard is None.
        let empty: TraceExemplar = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, TraceExemplar::default());
        let bare: SpanSlice = serde_json::from_str("{\"stage\":\"merge\"}").unwrap();
        assert_eq!(bare.shard, None);
    }
}
