//! Detection-engine throughput: cost of one snapshot step as the number
//! of watched pairs grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use gridwatch_bench::{trace, trained_engine};
use gridwatch_detect::Snapshot;
use gridwatch_timeseries::Timestamp;

fn bench_engine_throughput(c: &mut Criterion) {
    let trace = trace(4);
    // A representative mid-day snapshot on the test day.
    let t = Timestamp::from_secs(15 * 86_400 + 12 * 3600);
    let mut snapshot = Snapshot::new(t);
    for id in trace.measurement_ids() {
        if let Some(v) = trace.series(id).expect("measurement exists").value_at(t) {
            snapshot.insert(id, v);
        }
    }

    let mut group = c.benchmark_group("engine_step");
    group.sample_size(20);
    for pairs in [10usize, 45, 120] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{pairs}pairs")),
            &pairs,
            |b, &pairs| {
                b.iter_batched(
                    || trained_engine(&trace, pairs),
                    |mut engine| {
                        // Two steps so every model has a trajectory
                        // and the second step exercises scoring.
                        black_box(engine.step(&snapshot));
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_engine_throughput);
criterion_main!(benches);
