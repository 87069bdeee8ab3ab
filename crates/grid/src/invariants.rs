//! Runtime invariant checks for grid structures.
//!
//! The paper's grid (Section 4.1) is only meaningful if the cells tile
//! the value space: every dimension partition must be a non-empty run of
//! finite, non-degenerate, contiguous half-open intervals, so that no two
//! cells overlap and every in-bounds point lands in exactly one cell.
//! The type system cannot see this, so this module provides
//!
//! * pure verifiers ([`verify_partition`], [`verify_grid`]) that return a
//!   description of the first violated invariant — reusable by
//!   `gridwatch-audit` for offline checkpoint validation; and
//! * assertion wrappers ([`check_partition`], [`check_grid`]) invoked at
//!   mutation sites, active under `debug_assertions` and free otherwise.

use crate::{DimensionPartition, GridStructure};

/// Whether the assertion wrappers are active in this build: true under
/// `debug_assertions`.
pub const fn enabled() -> bool {
    cfg!(debug_assertions)
}

/// Verifies that a dimension partition tiles an interval of the real
/// line: non-empty, every bound finite, every interval non-degenerate,
/// and adjacent intervals sharing their boundary exactly.
///
/// Returns a description of the first violated invariant.
pub fn verify_partition(partition: &DimensionPartition) -> Result<(), String> {
    let intervals = partition.intervals();
    if intervals.is_empty() {
        return Err("partition has no intervals".to_owned());
    }
    for (k, iv) in intervals.iter().enumerate() {
        if !iv.lower().is_finite() || !iv.upper().is_finite() {
            return Err(format!("interval {k} has a non-finite bound: {iv}"));
        }
        if iv.lower() >= iv.upper() {
            return Err(format!("interval {k} is empty or inverted: {iv}"));
        }
    }
    // Exact equality *is* the invariant here: extension copies the
    // previous bound bit-for-bit, so any gap or overlap — however small —
    // is a defect, not rounding noise.
    #[expect(clippy::float_cmp, reason = "exact equality is the invariant")]
    for (k, w) in intervals.windows(2).enumerate() {
        if w[0].upper() != w[1].lower() {
            return Err(format!(
                "intervals {k} and {} do not tile the dimension: {} then {}",
                k + 1,
                w[0],
                w[1]
            ));
        }
    }
    Ok(())
}

/// Verifies both dimension partitions of a grid, so that the cross
/// product is a tiling of the plane by non-overlapping cells.
pub fn verify_grid(grid: &GridStructure) -> Result<(), String> {
    if let Err(why) = verify_partition(grid.x_partition()) {
        return Err(format!("x dimension: {why}"));
    }
    if let Err(why) = verify_partition(grid.y_partition()) {
        return Err(format!("y dimension: {why}"));
    }
    Ok(())
}

/// Asserts [`verify_partition`] when checks are [`enabled`].
pub fn check_partition(partition: &DimensionPartition) {
    if enabled() {
        let checked = verify_partition(partition);
        assert!(checked.is_ok(), "grid invariant violated: {checked:?}");
    }
}

/// Asserts [`verify_grid`] when checks are [`enabled`].
pub fn check_grid(grid: &GridStructure) {
    if enabled() {
        let checked = verify_grid(grid);
        assert!(checked.is_ok(), "grid invariant violated: {checked:?}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_partition_passes() {
        let p = DimensionPartition::equal_width(0.0, 10.0, 7);
        assert!(verify_partition(&p).is_ok());
        check_partition(&p);
    }

    #[test]
    fn extension_preserves_the_tiling() {
        let mut p = DimensionPartition::equal_width(0.0, 4.0, 2);
        p.extend_to(11.0);
        p.extend_to(-7.0);
        assert!(verify_partition(&p).is_ok());
    }

    #[test]
    fn gap_is_reported() {
        // Construct the gap through serde, since `DimensionPartition::new`
        // asserts contiguity — this is exactly the checkpoint-tampering
        // path the verifier exists for.
        let json = r#"{
            "intervals": [
                {"lower": 0.0, "upper": 1.0},
                {"lower": 1.5, "upper": 2.0}
            ],
            "initial_avg_width": 1.0
        }"#;
        let p: DimensionPartition = serde_json::from_str(json).unwrap();
        let err = verify_partition(&p).unwrap_err();
        assert!(err.contains("do not tile"), "{err}");
    }

    #[test]
    fn non_finite_bound_is_reported() {
        // serde_json round-trips non-finite floats as `null`, which
        // deserializes back to NaN — precisely the tampered-checkpoint
        // shape the verifier must reject.
        let json = r#"{
            "intervals": [{"lower": 0.0, "upper": null}],
            "initial_avg_width": 1.0
        }"#;
        let p: DimensionPartition = serde_json::from_str(json).unwrap();
        let err = verify_partition(&p).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");

        let json = r#"{
            "intervals": [{"lower": 0.0, "upper": 1e999}],
            "initial_avg_width": 1.0
        }"#;
        let p: DimensionPartition = serde_json::from_str(json).unwrap();
        let err = verify_partition(&p).unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn empty_interval_is_reported() {
        let json = r#"{
            "intervals": [{"lower": 2.0, "upper": 2.0}],
            "initial_avg_width": 1.0
        }"#;
        let p: DimensionPartition = serde_json::from_str(json).unwrap();
        let err = verify_partition(&p).unwrap_err();
        assert!(err.contains("empty or inverted"), "{err}");
    }
}
