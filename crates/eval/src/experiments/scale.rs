//! The paper's deployment scale: "For each group, there are roughly 3000
//! measurements. We select 100 … and conduct the experiments on the
//! 3 × C(100, 2) pairs of measurements", processing "more than 4,000
//! monitoring data points" per model well within the 6-minute sampling
//! budget.
//!
//! This experiment trains a full-scale group (~100 screened
//! measurements, all pairs) and measures training time, per-snapshot
//! stepping cost, and memory — the sparse counts, the derived row state
//! (memoized rows, kernel tables, scoring buffers) and the process's peak
//! resident set — the claims behind the paper's "the method is fast and
//! can be embedded in online monitoring tools".

use std::time::Instant;

use gridwatch_core::ModelConfig;
use gridwatch_detect::{DetectionEngine, EngineConfig, PairScreen};
use gridwatch_sim::scenario::{clean_scenario, TEST_DAY};
use gridwatch_timeseries::{AlignmentPolicy, GroupId, PairSeries, Timestamp};

use crate::harness::{snapshot_at, training_map, RunOptions};
use crate::report::{Check, ExperimentResult, Table};

/// Machines needed for ~100 high-variance measurements (6 metrics per
/// machine, one of which the variance screen drops).
const SCALE_MACHINES: usize = 20;

/// Regenerates the scale/efficiency measurements.
pub fn run(options: RunOptions) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "scale",
        "paper-scale efficiency: ~100 measurements, all pairs, timed",
    );
    let scenario = clean_scenario(GroupId::A, SCALE_MACHINES, options.seed);
    let train_end = Timestamp::from_days(8);
    let training = training_map(&scenario.trace, train_end);
    let screen = PairScreen {
        min_cv: 0.05,
        ..PairScreen::default()
    };
    let measurements = {
        // Count distinct measurements the screen keeps.
        let pairs = screen.select(&training);
        let mut set = std::collections::BTreeSet::new();
        for p in &pairs {
            set.insert(p.first());
            set.insert(p.second());
        }
        (set.len(), pairs)
    };
    let (kept, pairs) = measurements;
    result.notes.push(format!(
        "{SCALE_MACHINES} machines -> {kept} screened measurements -> {} pairs \
         (paper: 100 measurements, 4950 pairs per group)",
        pairs.len()
    ));

    let histories: Vec<_> = pairs
        .iter()
        .filter_map(|&p| {
            PairSeries::align(
                &training[&p.first()],
                &training[&p.second()],
                AlignmentPolicy::Intersect,
            )
            .ok()
            .map(|h| (p, h))
        })
        .collect();

    let model = ModelConfig::builder()
        .update_threshold(0.005)
        .build()
        .expect("valid config");

    // Train once, timed.
    let started = Instant::now();
    let mut engine = DetectionEngine::train(
        histories,
        EngineConfig {
            model,
            ..EngineConfig::default()
        },
    )
    .expect("scale training succeeds");
    let train_secs = started.elapsed().as_secs_f64();

    // Step the test day's first two hours.
    let step_range: Vec<_> = scenario
        .trace
        .interval()
        .ticks(
            Timestamp::from_days(TEST_DAY),
            Timestamp::from_secs(TEST_DAY * 86_400 + 2 * 3600),
        )
        .collect();
    let started = Instant::now();
    for &t in &step_range {
        engine.step(&snapshot_at(&scenario.trace, t));
    }
    let serial_ms = started.elapsed().as_secs_f64() * 1e3 / step_range.len() as f64;

    // Memory economy: what the process holds vs dense `f64` matrices.
    let mut stored = 0u64;
    let mut memo_bytes = 0u64;
    let mut dense_cells = 0u64;
    for p in engine.pairs().collect::<Vec<_>>() {
        let m = engine.model(p).expect("pair is live");
        stored += m.matrix().distinct_entries() as u64;
        memo_bytes += m.matrix().approx_row_cache_bytes() as u64;
        let s = m.grid().cell_count() as u64;
        dense_cells += s * s;
    }
    let dense_bytes = dense_cells * std::mem::size_of::<f64>() as u64;
    let peak_rss = peak_rss_bytes();
    let mb = |bytes: u64| format!("{:.1} MB", bytes as f64 / 1e6);

    let mut table = Table::new("scale metrics", vec!["metric".into(), "value".into()]);
    table.push_row(vec!["pair models".into(), engine.model_count().to_string()]);
    table.push_row(vec!["training time".into(), format!("{train_secs:.2} s")]);
    table.push_row(vec![
        "per-snapshot step (serial)".into(),
        format!("{serial_ms:.2} ms"),
    ]);
    table.push_row(vec![
        "per-model update (serial)".into(),
        format!("{:.1} us", serial_ms * 1e3 / engine.model_count() as f64),
    ]);
    table.push_row(vec!["distinct sparse entries".into(), stored.to_string()]);
    table.push_row(vec![
        "dense-matrix cells avoided".into(),
        dense_cells.to_string(),
    ]);
    table.push_row(vec!["derived row state (memo)".into(), mb(memo_bytes)]);
    table.push_row(vec![
        "peak resident set".into(),
        peak_rss.map_or_else(|| "unavailable".into(), mb),
    ]);
    table.push_row(vec!["dense f64 matrices".into(), mb(dense_bytes)]);
    result.tables.push(table);

    result.checks.push(Check::new(
        "the engine reaches the paper's scale (thousands of pairs)",
        engine.model_count() >= 1000,
        format!("{} pair models", engine.model_count()),
    ));
    result.checks.push(Check::new(
        "a full snapshot across all pairs costs far less than the 6-minute budget",
        serial_ms < 360_000.0 / 10.0,
        format!("{serial_ms:.2} ms per snapshot (budget 360 000 ms)"),
    ));
    result.checks.push(Check::new(
        "per-model update cost is in the paper's reported regime (< 23 ms)",
        serial_ms / (engine.model_count() as f64) < 23.0,
        format!(
            "{:.3} ms per model per sample",
            serial_ms / engine.model_count() as f64
        ),
    ));
    result.checks.push(Check::new(
        "the whole process (trace, histories, models, memo) peaks under a \
         quarter of what dense f64 matrices alone would take",
        peak_rss.is_some_and(|rss| rss * 4 < dense_bytes),
        format!(
            "peak RSS {} (memo {}) vs {} dense",
            peak_rss.map_or_else(|| "unavailable".into(), mb),
            mb(memo_bytes),
            mb(dense_bytes)
        ),
    ));
    result
}

/// The process's peak resident set size (`VmHWM`), on Linux.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "runs the full paper-scale training; invoke with --ignored"]
    fn scale_checks_hold() {
        let r = run(RunOptions::default());
        assert!(r.all_checks_passed(), "{}", r.to_ascii());
    }
}
