//! Observability overhead: the disabled tracing path must be free.
//!
//! The pipeline takes one span guard around every stage of every
//! snapshot, feeding both the stage histograms and the exemplar traces,
//! so its disabled path (two relaxed atomic loads, no clock read, no
//! allocation) is on the hottest loop in the system. Besides the usual
//! Criterion numbers this bench opens with a hard gate: a disabled span
//! costing more than `DISABLED_SPAN_CEILING_NS` per call fails the run
//! outright, so a regression cannot hide in a report nobody reads.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use gridwatch_obs::{
    ExemplarConfig, ExemplarTracer, FlightRecorder, PipelineObs, SpanSlice, Stage, Tracer,
};

/// Generous ceiling for one disabled span (two loads + branch, no
/// clock read). An order of magnitude above the expected cost so slow or
/// heavily shared CI hosts do not flake, while an accidental clock read
/// (~20-60ns) or allocation still trips it.
const DISABLED_SPAN_CEILING_NS: f64 = 15.0;

/// Hard-asserts the disabled-span cost before any benchmarks run.
fn assert_disabled_path_is_free() {
    // Tracer and exemplar capture both off: the guard every stage
    // takes, started and dropped.
    let obs = PipelineObs::disabled();
    // Warm up, then time a tight loop long enough to drown out timer
    // granularity (~10ms at the ceiling).
    for _ in 0..100_000 {
        black_box(obs.span(black_box(Stage::Score)));
    }
    let iters = 1_000_000u32;
    let started = Instant::now();
    for _ in 0..iters {
        black_box(obs.span(black_box(Stage::Score)));
    }
    let per_iter_ns = started.elapsed().as_secs_f64() * 1e9 / f64::from(iters);
    assert!(
        per_iter_ns <= DISABLED_SPAN_CEILING_NS,
        "disabled span costs {per_iter_ns:.1}ns/call (ceiling {DISABLED_SPAN_CEILING_NS}ns): \
         the disabled tracing path is no longer free"
    );
    println!("disabled span: {per_iter_ns:.2}ns/call (ceiling {DISABLED_SPAN_CEILING_NS}ns)");
}

/// The exemplar layer rides the same hot loop (an `open`/`record`/
/// `finalize` attempt per snapshot), so its disabled path is held to
/// the same ceiling: one relaxed load and a branch, nothing else.
fn assert_disabled_exemplar_path_is_free() {
    let exemplar = ExemplarTracer::disabled();
    let slice = SpanSlice::new(Stage::Score, 0, 1_250, "bench");
    for _ in 0..100_000 {
        exemplar.record(black_box(7), black_box(slice.clone()));
    }
    let iters = 1_000_000u32;
    let started = Instant::now();
    for _ in 0..iters {
        // `is_enabled` is the guard every call site takes first; the
        // timed step is guard + the short-circuited record call.
        if black_box(exemplar.is_enabled()) {
            exemplar.record(black_box(7), black_box(slice.clone()));
        }
    }
    let per_iter_ns = started.elapsed().as_secs_f64() * 1e9 / f64::from(iters);
    assert!(
        per_iter_ns <= DISABLED_SPAN_CEILING_NS,
        "disabled exemplar step costs {per_iter_ns:.1}ns/call (ceiling \
         {DISABLED_SPAN_CEILING_NS}ns): the disabled exemplar path is no longer free"
    );
    println!(
        "disabled exemplar step: {per_iter_ns:.2}ns/call (ceiling {DISABLED_SPAN_CEILING_NS}ns)"
    );
}

/// Prints the exemplar capture posture after a representative burst,
/// for the CI trend line.
fn print_exemplar_posture() {
    let exemplar = ExemplarTracer::enabled(ExemplarConfig {
        head_sample_every: 4,
        ring_capacity: 64,
        ..ExemplarConfig::default()
    });
    for seq in 0..1_024u64 {
        exemplar.open(seq, "bench", seq);
        exemplar.record(seq, SpanSlice::new(Stage::Score, 0, 1_250, "bench"));
        exemplar.finalize(seq, seq.is_multiple_of(97));
    }
    let posture = exemplar.posture();
    println!(
        "exemplar posture: retained={} dropped={} bytes={}",
        posture.retained, posture.dropped, posture.bytes
    );
}

fn bench_obs_overhead(c: &mut Criterion) {
    assert_disabled_path_is_free();
    assert_disabled_exemplar_path_is_free();
    print_exemplar_posture();

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(20);

    group.bench_function("disabled_span", |b| {
        let obs = PipelineObs::disabled();
        b.iter(|| black_box(obs.span(black_box(Stage::Score))));
    });
    group.bench_function("enabled_span", |b| {
        let obs = PipelineObs::enabled();
        b.iter(|| black_box(obs.span(black_box(Stage::Score))));
    });
    group.bench_function("record_ns_enabled", |b| {
        let tracer = Tracer::enabled();
        b.iter(|| tracer.record_ns(black_box(Stage::Score), black_box(1_250)));
    });
    group.bench_function("flight_recorder_event", |b| {
        let recorder = FlightRecorder::default();
        b.iter(|| recorder.record("bench", format_args!("event {}", black_box(7u64))));
    });
    group.bench_function("exemplar_full_trace_enabled", |b| {
        let exemplar = ExemplarTracer::enabled(ExemplarConfig {
            head_sample_every: 1,
            ..ExemplarConfig::default()
        });
        let mut seq = 0u64;
        b.iter(|| {
            exemplar.open(seq, "bench", seq);
            exemplar.record(
                seq,
                SpanSlice::new(Stage::Score, 0, black_box(1_250), "bench"),
            );
            exemplar.finalize(seq, false);
            seq += 1;
        });
    });
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
