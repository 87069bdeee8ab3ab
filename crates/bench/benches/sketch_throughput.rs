//! Sketch-gate overhead: the disabled sketch path must be free, and
//! the enabled path must stay cheap per tracked pair.
//!
//! Every `step_scores` call crosses the sketch gate — when
//! `EngineConfig::sketch` is unset that gate is a single `Option`
//! discriminant check, and it must stay that cheap: deployments that
//! never outgrow explicit pair lists must not pay for the gate. Like
//! `chaos_step`, this bench opens with a hard gate — a disabled sketch
//! gate costing more than `DISABLED_SKETCH_GATE_CEILING_NS` per call
//! fails the run outright — then measures the real per-step cost with
//! the sketch off and on, with the screen's overflow pairs tracked as
//! sketch-only candidates.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use gridwatch_bench::{trace, trained_sketch_engine};
use gridwatch_detect::{SketchConfig, Snapshot};
use gridwatch_timeseries::Timestamp;

/// Generous ceiling for one disabled sketch gate (an `Option` check on
/// a field already in cache). An order of magnitude above the expected
/// cost so shared CI hosts do not flake, while an accidental candidate
/// scan or allocation on the disabled path still trips it.
const DISABLED_SKETCH_GATE_CEILING_NS: f64 = 15.0;

/// Hard-asserts the disabled sketch gate's cost before any benchmarks.
fn assert_disabled_sketch_gate_is_free() {
    let trace = trace(2);
    let mut engine = trained_sketch_engine(&trace, 10, None);
    for _ in 0..100_000 {
        black_box(engine.sketch_gate_probe());
    }
    let iters = 1_000_000u32;
    let started = Instant::now();
    for _ in 0..iters {
        black_box(engine.sketch_gate_probe());
    }
    let per_iter_ns = started.elapsed().as_secs_f64() * 1e9 / f64::from(iters);
    assert!(
        per_iter_ns <= DISABLED_SKETCH_GATE_CEILING_NS,
        "disabled sketch gate costs {per_iter_ns:.1}ns/call (ceiling \
         {DISABLED_SKETCH_GATE_CEILING_NS}ns): the disabled sketch path is no longer free"
    );
    println!(
        "disabled sketch gate: {per_iter_ns:.2}ns/call \
         (ceiling {DISABLED_SKETCH_GATE_CEILING_NS}ns)"
    );
}

fn bench_sketch_throughput(c: &mut Criterion) {
    assert_disabled_sketch_gate_is_free();

    let trace = trace(4);
    // A representative mid-day snapshot on the test day; an admission
    // threshold above 1.0 keeps every candidate a candidate, so the
    // bench measures steady gated tracking, not one-off promotions.
    let t = Timestamp::from_secs(15 * 86_400 + 12 * 3600);
    let mut snapshot = Snapshot::new(t);
    for id in trace.measurement_ids() {
        if let Some(v) = trace.series(id).expect("measurement exists").value_at(t) {
            snapshot.insert(id, v);
        }
    }
    let tracking_only = SketchConfig {
        admit_score: 2.0,
        rescore_every: 1,
        ..SketchConfig::default()
    };

    // The sketch posture trend line CI prints alongside the lint and
    // line-count trend lines: the tracked/materialized split and sketch footprint of
    // the benchmark engine after one scored step, so drift in the
    // gate's selectivity or the sketch's memory cost shows up in CI
    // logs over time.
    {
        let mut engine = trained_sketch_engine(&trace, 10, Some(tracking_only));
        black_box(engine.step_scores(&snapshot));
        let tracked = engine.tracked_pair_count();
        let materialized = engine.model_count();
        println!(
            "sketch posture: {tracked} tracked pairs, {materialized} materialized \
             models ({:.1}% of tracked), sketch bytes {}",
            materialized as f64 / tracked as f64 * 100.0,
            engine.sketch_bytes(),
        );
    }

    let mut group = c.benchmark_group("sketch_throughput");
    group.sample_size(20);
    for (label, sketch) in [
        ("step_scores_sketch_off", None),
        ("step_scores_sketch_on", Some(tracking_only)),
    ] {
        group.bench_function(label, |b| {
            b.iter_batched(
                || trained_sketch_engine(&trace, 10, sketch),
                |mut engine| {
                    black_box(engine.step_scores(black_box(&snapshot)));
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sketch_throughput);
criterion_main!(benches);
