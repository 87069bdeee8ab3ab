use std::fmt;

use gridwatch_grid::{CellId, GridStructure, Interval};
use serde::{Deserialize, Serialize};

/// The human-readable value ranges of one grid cell.
///
/// The paper emphasizes that "the model can output the problematic
/// measurement ranges, which are useful for human debugging" — its Group B
/// walkthrough reports an anomalous jump to the cell
/// `[22588, 45128] & [102940, 137220]`. This type renders exactly that
/// notation.
///
/// # Example
///
/// ```
/// use gridwatch_core::CellRanges;
/// use gridwatch_grid::{CellId, GridStructure};
///
/// let grid = GridStructure::uniform((0.0, 30.0), (0.0, 300.0), 3, 3);
/// let ranges = CellRanges::new(&grid, CellId(4));
/// assert_eq!(ranges.to_string(), "[10, 20) & [100, 200)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellRanges {
    cell: CellId,
    x: Interval,
    y: Interval,
}

impl CellRanges {
    /// Extracts the ranges of `cell` from `grid`.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range for `grid`.
    pub fn new(grid: &GridStructure, cell: CellId) -> Self {
        let (x, y) = grid.cell_bounds(cell);
        CellRanges { cell, x, y }
    }

    /// The cell these ranges describe.
    pub fn cell(&self) -> CellId {
        self.cell
    }

    /// The first measurement's value range.
    pub fn x_range(&self) -> Interval {
        self.x
    }

    /// The second measurement's value range.
    pub fn y_range(&self) -> Interval {
        self.y
    }
}

/// Formats a bound compactly (integers without decimals, otherwise up to
/// four significant decimals).
fn fmt_bound(v: f64) -> String {
    // Comparing v to its own truncation is the standard exact test for
    // "is an integer"; a tolerance would misprint near-integers.
    #[expect(clippy::float_cmp, reason = "the exact test for an integer")]
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        let s = format!("{v:.4}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

impl fmt::Display for CellRanges {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}, {}) & [{}, {})",
            fmt_bound(self.x.lower()),
            fmt_bound(self.x.upper()),
            fmt_bound(self.y.lower()),
            fmt_bound(self.y.upper())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_paper_style_ranges() {
        let grid = GridStructure::uniform((0.0, 30.0), (0.0, 300.0), 3, 3);
        let r = CellRanges::new(&grid, CellId(0));
        assert_eq!(r.to_string(), "[0, 10) & [0, 100)");
        assert_eq!(r.cell(), CellId(0));
        assert_eq!(r.x_range().width(), 10.0);
    }

    #[test]
    fn fractional_bounds_are_trimmed() {
        let grid = GridStructure::uniform((0.0, 1.0), (0.0, 1.0), 4, 4);
        let r = CellRanges::new(&grid, CellId(5));
        assert_eq!(r.to_string(), "[0.25, 0.5) & [0.25, 0.5)");
    }
}
