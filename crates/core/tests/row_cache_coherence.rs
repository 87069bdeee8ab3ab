//! The one property the memoized rows owe the scorer: whatever was done
//! to the matrix, `score` (memoized) and `score_fresh` (rebuilt into a
//! reused buffer) answer from the posterior the counts define *now* — a
//! cached row or a stale buffer is never read.
//!
//! The reference is the log-space rank computed from scratch every time
//! (`compute_row` then `score_row`, no cache).

use gridwatch_core::{score_row, DecayKernel, TransitionMatrix};
use gridwatch_grid::{CellId, GridStructure};
use proptest::prelude::*;

/// Grids stay at or below this many columns/rows so every row can be
/// checked after every operation.
const MAX_SIDE: usize = 6;

fn uniform(cols: usize, rows: usize) -> GridStructure {
    GridStructure::uniform((0.0, cols as f64), (0.0, rows as f64), cols, rows)
}

/// `score` and `score_fresh` against the uncached definition, bit for bit, for every
/// `(from, to)`. Leaves every row memoized, so the next operation runs
/// against a fully warm cache.
fn assert_coherent(v: &mut TransitionMatrix, grid: &GridStructure) -> Result<(), TestCaseError> {
    for from in grid.cells() {
        let fresh = v.compute_row(grid, from);
        for to in grid.cells() {
            let want = score_row(&fresh, to);
            prop_assert_eq!(v.score(grid, from, to), want);
            prop_assert_eq!(v.score_fresh(grid, from, to, false), want);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn cached_rows_are_never_stale(
        cols in 1usize..4,
        rows in 1usize..4,
        ops in prop::collection::vec((0u8..5, 0usize..64, 0usize..64), 1..24),
    ) {
        let (mut cols, mut rows) = (cols, rows);
        let mut grid = uniform(cols, rows);
        let mut v = TransitionMatrix::new(DecayKernel::MeanAxis, 2.0);
        assert_coherent(&mut v, &grid)?;
        for (kind, a, b) in ops {
            let s = grid.cell_count();
            match kind {
                // Observing is the common case: twice as likely.
                0 | 1 => v.observe(CellId(a % s), CellId(b % s)),
                2 => {
                    // Grow by 0 or 1 on each of the four sides, all-zero
                    // included (a remap that moves nothing).
                    let (pre_c, app_c) = (a & 1, (a >> 1) & 1);
                    let (pre_r, app_r) = (b & 1, (b >> 1) & 1);
                    if cols + pre_c + app_c > MAX_SIDE || rows + pre_r + app_r > MAX_SIDE {
                        continue;
                    }
                    v.remap_after_growth(cols, pre_c, app_c, pre_r);
                    cols += pre_c + app_c;
                    rows += pre_r + app_r;
                    grid = uniform(cols, rows);
                }
                3 => v.clear_cache(),
                _ => {
                    let json = serde_json::to_string(&v).unwrap();
                    let back: TransitionMatrix = serde_json::from_str(&json).unwrap();
                    prop_assert_eq!(&back, &v);
                    v = back;
                }
            }
            assert_coherent(&mut v, &grid)?;
        }
    }
}
