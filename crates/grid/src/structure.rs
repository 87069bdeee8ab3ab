use std::fmt;

use gridwatch_timeseries::Point2;
use serde::{Deserialize, Serialize};

use crate::{DimensionPartition, Interval};

/// Identifier of one grid cell, as a flat index in row-major order
/// (`row * columns + column`, where columns index the x dimension and rows
/// the y dimension).
///
/// The paper numbers cells `c_1 … c_s`; a [`CellId`] is the zero-based
/// equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId(pub usize);

impl CellId {
    /// The flat index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Cells are 1-based in the paper's notation.
        write!(f, "c{}", self.0 + 1)
    }
}

/// A cell's two-dimensional location: column along x, row along y.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Location {
    /// Index into the x-dimension partition.
    pub col: usize,
    /// Index into the y-dimension partition.
    pub row: usize,
}

/// Controls online grid extension (Section 4.1, "Update").
///
/// When an observation falls outside the grid but within
/// `lambda · r_avg` of the boundary on every violated dimension, the grid
/// is extended to contain it; otherwise the observation is an outlier and
/// the grid is left unchanged. `lambda` is the paper's `λ^a`, "the maximum
/// number of intervals to be added".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GrowthPolicy {
    /// Maximum number of average-width intervals the boundary may move per
    /// extension. `0.0` disables growth entirely.
    pub lambda: f64,
}

impl Default for GrowthPolicy {
    fn default() -> Self {
        GrowthPolicy { lambda: 2.0 }
    }
}

impl GrowthPolicy {
    /// A policy that never extends the grid (pure offline mode).
    pub const FROZEN: GrowthPolicy = GrowthPolicy { lambda: 0.0 };
}

/// The outcome of offering a point to [`GridStructure::locate_or_extend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Extension {
    /// The point was already inside the grid.
    Contained(CellId),
    /// The grid was extended to contain the point. Existing cell ids are
    /// remapped: a cell formerly at `(col, row)` is now at
    /// `(col + prepended_cols, row + prepended_rows)` in a grid with the
    /// new column count.
    Extended {
        /// The cell now containing the point.
        cell: CellId,
        /// Columns added below the old x lower bound.
        prepended_cols: usize,
        /// Columns added above the old x upper bound.
        appended_cols: usize,
        /// Rows added below the old y lower bound.
        prepended_rows: usize,
        /// Rows added above the old y upper bound.
        appended_rows: usize,
    },
    /// The point was too far outside the boundary; the grid is unchanged.
    Outlier,
}

/// The grid structure `G = {c_1, …, c_s}`: the cross product of two
/// dimension partitions.
///
/// # Example
///
/// ```
/// use gridwatch_grid::{DimensionPartition, GridStructure};
/// use gridwatch_timeseries::Point2;
///
/// let grid = GridStructure::new(
///     DimensionPartition::equal_width(0.0, 3.0, 3),
///     DimensionPartition::equal_width(0.0, 3.0, 3),
/// );
/// assert_eq!(grid.cell_count(), 9);
/// // Centre cell of the 3×3 grid is c5 (flat index 4).
/// let c = grid.locate(Point2::new(1.5, 1.5)).unwrap();
/// assert_eq!(c.index(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridStructure {
    x: DimensionPartition,
    y: DimensionPartition,
}

impl GridStructure {
    /// Creates a grid from two dimension partitions.
    pub fn new(x: DimensionPartition, y: DimensionPartition) -> Self {
        GridStructure { x, y }
    }

    /// Convenience constructor: a uniform `cols × rows` grid over the
    /// given ranges.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero or a range is empty.
    pub fn uniform(x_range: (f64, f64), y_range: (f64, f64), cols: usize, rows: usize) -> Self {
        GridStructure {
            x: DimensionPartition::equal_width(x_range.0, x_range.1, cols),
            y: DimensionPartition::equal_width(y_range.0, y_range.1, rows),
        }
    }

    /// The x-dimension partition.
    pub fn x_partition(&self) -> &DimensionPartition {
        &self.x
    }

    /// The y-dimension partition.
    pub fn y_partition(&self) -> &DimensionPartition {
        &self.y
    }

    /// Number of columns (x intervals).
    pub fn columns(&self) -> usize {
        self.x.len()
    }

    /// Number of rows (y intervals).
    pub fn rows(&self) -> usize {
        self.y.len()
    }

    /// Total number of cells `s = s_1 × s_2`.
    pub fn cell_count(&self) -> usize {
        self.columns() * self.rows()
    }

    /// Converts a location to its flat cell id.
    ///
    /// # Panics
    ///
    /// Panics if the location is out of range.
    pub fn cell_at(&self, loc: Location) -> CellId {
        assert!(loc.col < self.columns() && loc.row < self.rows());
        CellId(loc.row * self.columns() + loc.col)
    }

    /// Converts a flat cell id back to its location.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn location_of(&self, cell: CellId) -> Location {
        assert!(cell.0 < self.cell_count(), "cell id out of range");
        Location {
            col: cell.0 % self.columns(),
            row: cell.0 / self.columns(),
        }
    }

    /// The `(x, y)` interval bounds of a cell.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn cell_bounds(&self, cell: CellId) -> (Interval, Interval) {
        let loc = self.location_of(cell);
        (self.x.intervals()[loc.col], self.y.intervals()[loc.row])
    }

    /// The cell containing a point, or `None` if outside the grid.
    pub fn locate(&self, p: Point2) -> Option<CellId> {
        let col = self.x.locate(p.x)?;
        let row = self.y.locate(p.y)?;
        Some(self.cell_at(Location { col, row }))
    }

    /// Per-axis offset `(dcol, drow)` between two cells.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn offset(&self, a: CellId, b: CellId) -> (i64, i64) {
        let la = self.location_of(a);
        let lb = self.location_of(b);
        (lb.col as i64 - la.col as i64, lb.row as i64 - la.row as i64)
    }

    /// Locates `p`, extending the grid if `p` lies within the growth
    /// policy's reach of the boundary.
    ///
    /// Implements the paper's update rule: on dimension `a`, a point
    /// beyond the bound is accepted when it is within
    /// `λ · r_avg^a` of it ("we first judge if x ≤ u + λ·r_avg"); then
    /// intervals are appended until the point is contained. Cells are
    /// never deleted.
    pub fn locate_or_extend(&mut self, p: Point2, policy: GrowthPolicy) -> Extension {
        if let Some(cell) = self.locate(p) {
            return Extension::Contained(cell);
        }
        if !p.is_finite() {
            return Extension::Outlier;
        }
        // Check reach on each dimension before mutating anything.
        let reach_x = policy.lambda * self.x.average_width();
        let reach_y = policy.lambda * self.y.average_width();
        let x_ok = p.x >= self.x.lower() - reach_x && p.x < self.x.upper() + reach_x;
        let y_ok = p.y >= self.y.lower() - reach_y && p.y < self.y.upper() + reach_y;
        if !(x_ok && y_ok) {
            return Extension::Outlier;
        }
        let (pre_c, app_c) = self.x.extend_to(p.x);
        let (pre_r, app_r) = self.y.extend_to(p.y);
        crate::invariants::check_grid(self);
        #[expect(clippy::expect_used, reason = "`check_grid` just proved the extension")]
        let cell = self.locate(p).expect("point is contained after extension");
        Extension::Extended {
            cell,
            prepended_cols: pre_c,
            appended_cols: app_c,
            prepended_rows: pre_r,
            appended_rows: app_r,
        }
    }

    /// Iterates over all cell ids in flat order.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = CellId> {
        (0..self.cell_count()).map(CellId)
    }
}

impl fmt::Display for GridStructure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid {}x{} over [{}, {}) x [{}, {})",
            self.columns(),
            self.rows(),
            self.x.lower(),
            self.x.upper(),
            self.y.lower(),
            self.y.upper()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid3x3() -> GridStructure {
        GridStructure::uniform((0.0, 3.0), (0.0, 3.0), 3, 3)
    }

    #[test]
    fn flat_index_roundtrip() {
        let g = grid3x3();
        for cell in g.cells() {
            let loc = g.location_of(cell);
            assert_eq!(g.cell_at(loc), cell);
        }
        assert_eq!(g.cells().len(), 9);
    }

    #[test]
    fn paper_cell_numbering() {
        // Figure 3 lays out c1..c9 row-major; the centre is c5.
        let g = grid3x3();
        let c = g.locate(Point2::new(1.5, 1.5)).unwrap();
        assert_eq!(c.to_string(), "c5");
        let corner = g.locate(Point2::new(0.1, 0.1)).unwrap();
        assert_eq!(corner.to_string(), "c1");
    }

    #[test]
    fn locate_boundaries() {
        let g = grid3x3();
        assert!(g.locate(Point2::new(0.0, 0.0)).is_some());
        assert!(g.locate(Point2::new(3.0, 1.0)).is_none()); // upper bound exclusive
        assert!(g.locate(Point2::new(-0.001, 1.0)).is_none());
        assert!(g.locate(Point2::new(2.999, 2.999)).is_some());
    }

    #[test]
    fn offsets_are_antisymmetric() {
        let g = grid3x3();
        let a = g.locate(Point2::new(0.5, 0.5)).unwrap();
        let b = g.locate(Point2::new(2.5, 1.5)).unwrap();
        assert_eq!(g.offset(a, b), (2, 1));
        assert_eq!(g.offset(b, a), (-2, -1));
        assert_eq!(g.offset(a, a), (0, 0));
    }

    #[test]
    fn extension_within_reach_grows_grid() {
        let mut g = grid3x3(); // r_avg = 1 on both dims
        let policy = GrowthPolicy { lambda: 2.0 };
        // 4.5 is 1.5 beyond the upper bound 3.0: within 2 * r_avg.
        let ext = g.locate_or_extend(Point2::new(4.5, 1.5), policy);
        match ext {
            Extension::Extended {
                cell,
                prepended_cols,
                appended_cols,
                prepended_rows,
                appended_rows,
            } => {
                assert_eq!(prepended_cols, 0);
                assert_eq!(appended_cols, 2);
                assert_eq!(prepended_rows, 0);
                assert_eq!(appended_rows, 0);
                assert_eq!(g.columns(), 5);
                assert_eq!(g.rows(), 3);
                assert_eq!(g.locate(Point2::new(4.5, 1.5)), Some(cell));
            }
            other => panic!("expected extension, got {other:?}"),
        }
    }

    #[test]
    fn extension_beyond_reach_is_outlier() {
        let mut g = grid3x3();
        let before = g.clone();
        let ext = g.locate_or_extend(Point2::new(10.0, 1.5), GrowthPolicy { lambda: 2.0 });
        assert_eq!(ext, Extension::Outlier);
        assert_eq!(g, before, "outliers must not modify the grid");
    }

    #[test]
    fn frozen_policy_never_extends() {
        let mut g = grid3x3();
        let ext = g.locate_or_extend(Point2::new(3.0001, 1.0), GrowthPolicy::FROZEN);
        assert_eq!(ext, Extension::Outlier);
        assert_eq!(g.columns(), 3);
    }

    #[test]
    fn extension_below_lower_bound_prepends() {
        let mut g = grid3x3();
        let ext = g.locate_or_extend(Point2::new(-0.5, -0.5), GrowthPolicy { lambda: 1.0 });
        match ext {
            Extension::Extended {
                prepended_cols,
                prepended_rows,
                appended_cols,
                appended_rows,
                cell,
            } => {
                assert_eq!((prepended_cols, prepended_rows), (1, 1));
                assert_eq!((appended_cols, appended_rows), (0, 0));
                assert_eq!(g.locate(Point2::new(-0.5, -0.5)), Some(cell));
                assert_eq!(cell.index(), 0, "new bottom-left cell is c1");
            }
            other => panic!("expected extension, got {other:?}"),
        }
        // Old cells shifted by one column and one row.
        let old_origin = g.locate(Point2::new(0.5, 0.5)).unwrap();
        assert_eq!(g.location_of(old_origin), Location { col: 1, row: 1 });
    }

    #[test]
    fn contained_point_reports_contained() {
        let mut g = grid3x3();
        let ext = g.locate_or_extend(Point2::new(1.0, 1.0), GrowthPolicy::default());
        assert!(matches!(ext, Extension::Contained(_)));
    }

    #[test]
    fn non_finite_point_is_outlier() {
        let mut g = grid3x3();
        let ext = g.locate_or_extend(Point2::new(f64::NAN, 1.0), GrowthPolicy::default());
        assert_eq!(ext, Extension::Outlier);
    }

    #[test]
    fn display_mentions_shape() {
        let g = grid3x3();
        assert!(g.to_string().contains("3x3"));
    }

    #[test]
    fn serde_roundtrip() {
        let g = grid3x3();
        let json = serde_json::to_string(&g).unwrap();
        let back: GridStructure = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
