//! A paper-literal oracle for the detection engine.
//!
//! PAPER.md §1 written out densely: each pair's counts in an `s × s`
//! table, every row recomputed from `DecayKernel::log_weight` at every
//! step, ranked in log space, and learned only when `P ≥ δ`. No kernel
//! table, no memo, no sharding. The grid (Section 4.1), the score board
//! and the alarm tracker are shared with the engine; everything between
//! a point and its fitness is the oracle's own. `DetectionEngine::step`
//! must produce the oracle's report stream exactly.

use std::collections::BTreeMap;

use gridwatch::detect::{
    AlarmTracker, DetectionEngine, EngineConfig, ScoreBoard, Snapshot, StepReport,
};
use gridwatch::eval::experiments::{fig11, fig5};
use gridwatch::grid::{CellId, Extension, GridBuilder, GridStructure};
use gridwatch::model::ModelConfig;
use gridwatch::timeseries::{
    MachineId, MeasurementId, MeasurementPair, MetricKind, PairSeries, Point2, Timestamp,
};

/// `ln P(from → ·)` up to a constant: the prior `−ln K(from, ·)` plus one
/// `−n · ln K(h, ·)` term per observed destination `h` (Eq. 1 and 2).
fn log_row(grid: &GridStructure, config: &ModelConfig, counts: &[u64], from: CellId) -> Vec<f64> {
    let s = grid.cell_count();
    let lw = |a: CellId, b: CellId| {
        let (dx, dy) = grid.offset(a, b);
        config.kernel.log_weight(config.decay_rate, dx, dy)
    };
    let mut row: Vec<f64> = grid.cells().map(|j| -lw(from, j)).collect();
    for h in grid.cells() {
        let n = counts[from.index() * s + h.index()];
        if n > 0 {
            for j in grid.cells() {
                row[j.index()] -= n as f64 * lw(h, j);
            }
        }
    }
    row
}

/// Competition rank in log space: `1 + #{l_j > l_h}`.
fn rank(row: &[f64], h: usize) -> usize {
    1 + row.iter().filter(|&&l| l > row[h]).count()
}

/// `Q = 1 − (π(c_h) − 1)/s`.
fn fitness(rank: usize, s: usize) -> f64 {
    1.0 - (rank - 1) as f64 / s as f64
}

/// `P(c_i → c_h)` from the log row by log-sum-exp.
fn probability(row: &[f64], h: usize) -> f64 {
    let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let log_z = max + row.iter().map(|&l| (l - max).exp()).sum::<f64>().ln();
    (row[h] - log_z).exp()
}

/// One pair's model `M = (G, V)` with `V` as dense counts.
struct DenseModel {
    grid: GridStructure,
    /// `counts[i * s + h]`: observed transitions `c_i → c_h`.
    counts: Vec<u64>,
    last: Option<CellId>,
}

impl DenseModel {
    fn fit(history: &PairSeries, config: &ModelConfig) -> DenseModel {
        let grid = GridBuilder::new(config.grid)
            .build(history.points())
            .unwrap();
        let s = grid.cell_count();
        let mut model = DenseModel {
            counts: vec![0; s * s],
            grid,
            last: None,
        };
        for (_, a, b) in history.transitions() {
            let (i, h) = (model.grid.locate(a).unwrap(), model.grid.locate(b).unwrap());
            model.counts[i.index() * s + h.index()] += 1;
            model.last = Some(h);
        }
        model
    }

    /// Scores the transition to `p` (Figure 6), then learns it.
    fn observe(&mut self, p: Point2, config: &ModelConfig) -> Option<f64> {
        let dest = if config.adaptive {
            let (old_cols, old_cells) = (self.grid.columns(), self.grid.cell_count());
            match self.grid.locate_or_extend(p, config.growth) {
                Extension::Contained(c) => Some(c),
                Extension::Extended {
                    cell,
                    prepended_cols,
                    prepended_rows,
                    ..
                } => {
                    let (cols, s) = (self.grid.columns(), self.grid.cell_count());
                    let moved = |c: usize| {
                        (c / old_cols + prepended_rows) * cols + c % old_cols + prepended_cols
                    };
                    let mut counts = vec![0; s * s];
                    for i in 0..old_cells {
                        for h in 0..old_cells {
                            counts[moved(i) * s + moved(h)] = self.counts[i * old_cells + h];
                        }
                    }
                    self.counts = counts;
                    self.last = self.last.map(|c| CellId(moved(c.index())));
                    Some(cell)
                }
                Extension::Outlier => None,
            }
        } else {
            self.grid.locate(p)
        };
        let s = self.grid.cell_count();
        let score = match (self.last, dest) {
            (Some(from), Some(to)) => {
                let row = log_row(&self.grid, config, &self.counts, from);
                if config.adaptive && probability(&row, to.index()) >= config.update_threshold {
                    self.counts[from.index() * s + to.index()] += 1;
                }
                Some(fitness(rank(&row, to.index()), s))
            }
            (Some(_), None) => Some(0.0),
            (None, _) => None,
        };
        self.last = dest.or(self.last);
        score
    }
}

fn ids() -> [MeasurementId; 4] {
    let mk = |m: u32, t: u16| MeasurementId::new(MachineId::new(m), MetricKind::Custom(t));
    [mk(0, 0), mk(0, 1), mk(1, 0), mk(1, 1)]
}

/// SplitMix64 noise in `[-1, 1)`.
fn noise(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as f64 / u64::MAX as f64 * 2.0 - 1.0
}

/// Four measurements driven by one load. Online, measurement 2 breaks
/// away for a stretch (alarms), measurement 3 goes missing now and then,
/// one sample spikes off the grid, and with `grow` the load climbs past
/// its training range so adaptive grids extend.
fn values(k: u64, online: bool, grow: bool, rng: &mut u64) -> [Option<f64>; 4] {
    let mut load = 50.0 + 30.0 * (k as f64 * 0.07).sin() + 4.0 * noise(rng);
    if grow && k > 60 {
        load += (k - 60) as f64 * 0.4;
    }
    let mut v = [0.0f64; 4];
    for (a, slot) in v.iter_mut().enumerate() {
        *slot = (a as f64 + 1.0) * load + 10.0 * a as f64 + 2.0 * noise(rng);
    }
    if online && (90..110).contains(&k) {
        v[2] = 200.0 - v[2];
    }
    if online && k == 130 {
        v[1] = 1e7;
    }
    let missing = online && k % 37 == 5;
    [
        Some(v[0]),
        Some(v[1]),
        Some(v[2]),
        (!missing).then_some(v[3]),
    ]
}

fn run(config: EngineConfig, seed: u64, grow: bool) {
    let ids = ids();
    let mut rng = seed;
    let rows: Vec<_> = (0..300u64)
        .map(|k| values(k, false, false, &mut rng))
        .collect();
    let mut pairs = Vec::new();
    for a in 0..4 {
        for b in (a + 1)..4 {
            let history = PairSeries::from_samples(
                rows.iter()
                    .enumerate()
                    .map(|(k, r)| (k as u64 * 360, r[a].unwrap(), r[b].unwrap())),
            )
            .unwrap();
            pairs.push((MeasurementPair::new(ids[a], ids[b]).unwrap(), history));
        }
    }
    let mut oracle: BTreeMap<MeasurementPair, DenseModel> = pairs
        .iter()
        .map(|(pair, h)| (*pair, DenseModel::fit(h, &config.model)))
        .collect();
    let cells_before: usize = oracle.values().map(|m| m.grid.cell_count()).sum();
    let mut engine = DetectionEngine::train(pairs, config).unwrap();
    let mut tracker = AlarmTracker::new();
    let mut alarms = 0;
    for k in 0..200u64 {
        let mut snap = Snapshot::new(Timestamp::from_secs((300 + k) * 360));
        for (id, v) in ids.iter().zip(values(k, true, grow, &mut rng)) {
            if let Some(v) = v {
                snap.insert(*id, v);
            }
        }
        let mut board = ScoreBoard::new(snap.at());
        for (pair, model) in &mut oracle {
            if let (Some(x), Some(y)) = (snap.value(pair.first()), snap.value(pair.second())) {
                if let Some(q) = model.observe(Point2::new(x, y), &config.model) {
                    board.record(*pair, q);
                }
            }
        }
        let want = StepReport {
            alarms: tracker.evaluate(&board, &config.alarm),
            scores: board,
        };
        assert_eq!(
            engine.step(&snap),
            want,
            "seed {seed} step {k} {:?}",
            config.model
        );
        alarms += want.alarms.len();
    }
    assert!(alarms > 0, "the broken stretch must alarm");
    for (pair, model) in &oracle {
        assert_eq!(engine.model(*pair).unwrap().grid(), &model.grid);
    }
    let cells_after: usize = oracle.values().map(|m| m.grid.cell_count()).sum();
    if !config.model.adaptive {
        assert_eq!(cells_after, cells_before);
    } else if grow {
        assert!(
            cells_after > cells_before,
            "the climbing load must grow grids"
        );
    }
    if config.model.update_threshold > 0.0 {
        assert!(engine
            .pairs()
            .any(|p| engine.model(p).unwrap().updates_skipped() > 0));
    }
}

#[test]
fn oracle_reproduces_figure5_prior_and_figure11_ranks() {
    let grid = GridStructure::uniform((0.0, 3.0), (0.0, 3.0), 3, 3);
    let config = ModelConfig::default();
    for from in grid.cells() {
        let row = log_row(&grid, &config, &[0; 81], from);
        for to in grid.cells() {
            let want = fig5::PAPER_MATRIX[from.index()][to.index()] / 100.0;
            assert!(
                (probability(&row, to.index()) - want).abs() < 5e-5,
                "V[{from}][{to}]"
            );
        }
    }
    let logs = fig11::PAPER_PROBABILITIES.map(f64::ln);
    for j in 0..6 {
        assert_eq!(rank(&logs, j), fig11::PAPER_RANKS[j]);
        assert!((fitness(rank(&logs, j), 6) - fig11::PAPER_FITNESS[j]).abs() < 5e-5);
    }
}

#[test]
fn engine_report_stream_equals_the_oracle() {
    for seed in [11, 12, 13] {
        for grow in [false, true] {
            for (adaptive, delta) in [(true, 0.0), (true, 0.005), (false, 0.0)] {
                let model = ModelConfig {
                    adaptive,
                    update_threshold: delta,
                    ..Default::default()
                };
                run(
                    EngineConfig {
                        model,
                        ..Default::default()
                    },
                    seed,
                    grow,
                );
            }
        }
    }
}

#[test]
fn oracle_ranks_do_not_tie_underflowed_cells() {
    let grid = GridStructure::uniform((0.0, 20.0), (0.0, 20.0), 20, 20);
    let s = grid.cell_count();
    let mut counts = vec![0; s * s];
    counts[0] = 2_000;
    let row = log_row(&grid, &ModelConfig::default(), &counts, CellId(0));
    assert!(row.iter().filter(|&&l| (l - row[0]).exp() == 0.0).count() >= 2);
    assert_eq!(rank(&row, s - 1), s);
}
