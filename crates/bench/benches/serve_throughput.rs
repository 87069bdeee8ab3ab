//! Sharded serving throughput: wall-clock cost of streaming one test
//! day through `ShardedEngine` as the shard count sweeps 1/2/4/8.
//!
//! On a multi-core host the 4-shard configuration should beat the
//! single shard by well over 1.8x once the pair count is large enough
//! to amortize the per-snapshot fan-out; on a single-core host the
//! sweep degenerates to measuring the coordination overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use gridwatch_bench::{trace, trained_engine};
use gridwatch_detect::Snapshot;
use gridwatch_serve::{BackpressurePolicy, ServeConfig, ShardedEngine};
use gridwatch_timeseries::Timestamp;

/// Every snapshot of the test day (day 15), at the trace's native
/// sampling interval.
fn test_day_snapshots(trace: &gridwatch_sim::Trace) -> Vec<Snapshot> {
    let start = Timestamp::from_days(15);
    let end = Timestamp::from_days(16);
    trace
        .interval()
        .ticks(start, end)
        .map(|t| {
            let mut snap = Snapshot::new(t);
            for id in trace.measurement_ids() {
                if let Some(v) = trace.series(id).expect("measurement exists").value_at(t) {
                    snap.insert(id, v);
                }
            }
            snap
        })
        .filter(|s| !s.is_empty())
        .collect()
}

fn bench_serve_throughput(c: &mut Criterion) {
    let trace = trace(4);
    let engine = trained_engine(&trace, 120);
    let snapshot = engine.snapshot();
    let stream = test_day_snapshots(&trace);
    assert!(!stream.is_empty(), "test day must have snapshots");

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{shards}shards")),
            &shards,
            |b, &shards| {
                b.iter_batched(
                    || {
                        ShardedEngine::start(
                            snapshot.clone(),
                            ServeConfig {
                                shards,
                                queue_capacity: 64,
                                backpressure: BackpressurePolicy::Block,
                                sampling: None,
                            },
                        )
                    },
                    |mut engine| {
                        for snap in &stream {
                            engine.submit(snap.clone());
                        }
                        let (reports, stats) = engine.shutdown();
                        assert_eq!(stats.reports as usize, stream.len());
                        black_box(reports)
                    },
                    criterion::BatchSize::PerIteration,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_serve_throughput);
criterion_main!(benches);
