//! Leaf-check overhead: the release-build `LeafMutex` must be free.
//!
//! `LeafMutex` sits on the fabric merge path, the engine's stats
//! accumulator, the TCP accept/ingest tier, and the flight-recorder
//! ring — all hot. Its nesting check exists only under
//! `debug_assertions`; in a release build (how `cargo bench` builds it)
//! the wrapper must compile down to a bare `parking_lot::Mutex`: no
//! thread-local touch, no branch. Besides the Criterion numbers this
//! bench opens with a hard gate, so a stray cfg that leaks the check
//! into release builds fails the run outright instead of hiding in a
//! report nobody reads.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use gridwatch_sync::LeafMutex;

/// Generous ceiling for one uncontended lock/unlock round trip through
/// the release wrapper. An uncontended `parking_lot` lock+unlock is a
/// pair of atomics (~5-15ns on shared CI hosts); the ceiling leaves
/// headroom for slow machines while a thread-local lookup and store
/// (~30-80ns) still trips it.
const RELEASE_LOCK_CEILING_NS: f64 = 40.0;

/// Hard-asserts the release-build cost before any benchmarks run.
fn assert_release_path_is_free() {
    let leaf = LeafMutex::new(0u64);
    for _ in 0..100_000 {
        *black_box(&leaf).lock() += 1;
    }
    let iters = 1_000_000u32;
    let started = Instant::now();
    for _ in 0..iters {
        *black_box(&leaf).lock() += 1;
    }
    let per_iter_ns = started.elapsed().as_secs_f64() * 1e9 / f64::from(iters);
    assert!(
        per_iter_ns <= RELEASE_LOCK_CEILING_NS,
        "release LeafMutex lock+unlock costs {per_iter_ns:.1}ns \
         (ceiling {RELEASE_LOCK_CEILING_NS}ns): the release path \
         is no longer zero-cost"
    );
    println!(
        "release LeafMutex lock+unlock: {per_iter_ns:.2}ns \
         (ceiling {RELEASE_LOCK_CEILING_NS}ns)"
    );
}

fn bench_lockdep_overhead(c: &mut Criterion) {
    assert_release_path_is_free();

    let mut group = c.benchmark_group("lockdep_overhead");
    group.sample_size(20);

    group.bench_function("raw_parking_lot_mutex", |b| {
        let raw = parking_lot::Mutex::new(0u64);
        b.iter(|| *black_box(&raw).lock() += 1);
    });
    group.bench_function("leaf_mutex_release", |b| {
        let leaf = LeafMutex::new(0u64);
        b.iter(|| *black_box(&leaf).lock() += 1);
    });
    group.finish();
}

criterion_group!(benches, bench_lockdep_overhead);
criterion_main!(benches);
