//! The scorer ranks log rows built from a kernel table.
//!
//! Two properties pin it: the table-built log rows are bit-identical to
//! rows summed from `DecayKernel::log_weight` directly (the paper's Eq. 1
//! in log space, same operands, same order), and ranking in log space
//! gives the least probable destination the worst rank even where
//! normalising would underflow it to a tie at `0.0`.

use gridwatch_core::prior::normalize_log_row;
use gridwatch_core::{fitness_from_rank, DecayKernel, TransitionMatrix};
use gridwatch_grid::{CellId, GridStructure};

fn uniform(cols: usize, rows: usize) -> GridStructure {
    GridStructure::uniform((0.0, cols as f64), (0.0, rows as f64), cols, rows)
}

/// The log row of `from` straight from `log_weight`: the prior, then one
/// term per observed destination in increasing cell order.
fn direct_log_row(v: &TransitionMatrix, grid: &GridStructure, from: CellId) -> Vec<f64> {
    let (kernel, w) = (v.kernel(), v.decay_rate());
    let mut row: Vec<f64> = grid
        .cells()
        .map(|j| {
            let (dx, dy) = grid.offset(from, j);
            -kernel.log_weight(w, dx, dy)
        })
        .collect();
    for h in grid.cells() {
        let n = v.count(from, h);
        if n == 0 {
            continue;
        }
        for (j, l) in grid.cells().zip(row.iter_mut()) {
            let (dx, dy) = grid.offset(h, j);
            *l -= n as f64 * kernel.log_weight(w, dx, dy);
        }
    }
    row
}

fn assert_bit_identical(v: &mut TransitionMatrix, grid: &GridStructure, what: &str) {
    for from in grid.cells() {
        let want: Vec<u64> = direct_log_row(v, grid, from)
            .iter()
            .map(|l| l.to_bits())
            .collect();
        let fresh: Vec<u64> = v
            .compute_row(grid, from)
            .iter()
            .map(|l| l.to_bits())
            .collect();
        assert_eq!(fresh, want, "{what}: compute_row of {from}");
        let memo: Vec<u64> = v.log_row(grid, from).iter().map(|l| l.to_bits()).collect();
        assert_eq!(memo, want, "{what}: log_row of {from}");
    }
}

/// A deterministic spread of observations over an `s`-cell grid: a few
/// heavy rows, repeated destinations, and far jumps.
fn observe_spread(v: &mut TransitionMatrix, s: usize) {
    for k in 0..(3 * s) {
        v.observe(CellId((k * 7) % s), CellId((k * k + 3) % s));
    }
}

#[test]
fn table_rows_equal_direct_log_weight_rows_bit_for_bit() {
    for kernel in DecayKernel::ALL {
        for w in [1.5, 2.0, 3.7] {
            for cols in 1..=8 {
                for rows in 1..=8 {
                    let what = format!("{kernel:?} w={w} {cols}x{rows}");
                    let grid = uniform(cols, rows);
                    let mut v = TransitionMatrix::new(kernel, w);
                    assert_bit_identical(&mut v, &grid, &what);
                    observe_spread(&mut v, grid.cell_count());
                    assert_bit_identical(&mut v, &grid, &what);
                }
            }
        }
    }
}

#[test]
fn table_rows_stay_bit_identical_after_growth() {
    for kernel in DecayKernel::ALL {
        for w in [1.5, 2.0, 3.7] {
            // Every mix of prepended/appended columns and rows, from a
            // 3×2 grid.
            for grow in 0..16usize {
                let (pre_c, app_c, pre_r, app_r) =
                    (grow & 1, (grow >> 1) & 1, (grow >> 2) & 1, grow >> 3);
                let grid = uniform(3, 2);
                let mut v = TransitionMatrix::new(kernel, w);
                observe_spread(&mut v, grid.cell_count());
                // Score once so the table and memo hold the old shape.
                assert_bit_identical(&mut v, &grid, "before growth");
                v.remap_after_growth(3, pre_c, app_c, pre_r);
                let grown = uniform(3 + pre_c + app_c, 2 + pre_r + app_r);
                assert_bit_identical(
                    &mut v,
                    &grown,
                    &format!("{kernel:?} w={w} growth {grow:04b}"),
                );
            }
        }
    }
}

/// A trained row whose tail underflows to `0.0` when normalised: the
/// least probable destination still gets rank `s` and fitness `1/s`,
/// instead of sharing the best rank among the underflowed cells.
#[test]
fn underflowed_tail_still_ranks_least_probable_last() {
    let grid = uniform(20, 20);
    let s = grid.cell_count();
    let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
    for _ in 0..2_000 {
        v.observe(CellId(0), CellId(0));
    }
    let from = CellId(0);
    let far_corner = CellId(s - 1);
    let zeros = normalize_log_row(&v.compute_row(&grid, from))
        .iter()
        .filter(|&&p| p == 0.0)
        .count();
    assert!(zeros >= 2, "the premise: {zeros} cells underflow");
    let want = fitness_from_rank(s, s);
    for score in [
        v.score_fresh(&grid, from, far_corner, false),
        v.score_fresh(&grid, from, far_corner, true),
        v.score(&grid, from, far_corner),
    ] {
        assert_eq!(score.rank(), Some(s));
        assert_eq!(score.fitness(), want);
    }
    assert_eq!(
        v.score_fresh(&grid, from, far_corner, true).probability(),
        Some(0.0)
    );
}
