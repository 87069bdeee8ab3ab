//! Per-source frame sequencing: duplicate suppression, bounded
//! reordering, and replay-idempotent resume.
//!
//! Every agent stamps its frames with a monotonically increasing
//! sequence number starting at 0. The [`SourceTable`] tracks, per
//! source, the next expected number: duplicates (from
//! reconnect-with-replay) are absorbed, frames that arrive early are
//! held in a bounded reorder buffer until the gap fills, and the
//! per-source progress map is persisted inside the checkpoint manifest
//! so a restarted listener keeps deduplicating across the crash —
//! replaying an entire stream after recovery never double-applies a
//! snapshot.

#![cfg_attr(
    not(test),
    forbid(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::BTreeMap;

use gridwatch_detect::Snapshot;

/// What happened to one admitted frame.
#[derive(Debug, PartialEq)]
pub enum Admission {
    /// The frame (and possibly buffered successors it unblocked) is
    /// ready to apply, in sequence order.
    Ready(Vec<Snapshot>),
    /// The frame arrived ahead of a gap and is buffered.
    Buffered,
    /// The frame was already applied or already buffered; dropped.
    Duplicate,
    /// Buffering the frame overflowed the reorder window, so the gap
    /// was abandoned: `skipped` sequence numbers are given up as lost
    /// and the oldest buffered run is released.
    GapAbandoned {
        /// Sequence numbers skipped over (lost frames), saturated at
        /// [`MAX_COUNTED_GAP`] so a skewed client jumping to an absurd
        /// sequence number cannot inflate loss accounting.
        skipped: u64,
        /// The frames released by jumping the gap, in order.
        released: Vec<Snapshot>,
    },
}

/// Ceiling on the `skipped` count a single abandoned gap reports.
///
/// The jump itself is unbounded — `next` always moves to the oldest
/// buffered frame, whatever its number — but the *counted* loss is
/// capped. A client with a skewed clock (or a corrupted counter) that
/// leaps from sequence 10 to 10^15 has lost at most its reorder window
/// of real frames, not a quadrillion; feeding the raw difference into
/// loss metrics would swamp them with a number that measures the skew,
/// not the loss.
pub const MAX_COUNTED_GAP: u64 = 65_536;

/// Sequencing state for one source.
#[derive(Debug, Default)]
struct SourceState {
    /// The next sequence number this source is expected to send.
    next: u64,
    /// Early frames, keyed by sequence number.
    pending: BTreeMap<u64, Snapshot>,
}

impl SourceState {
    /// Pops the contiguous run starting at `self.next` out of `pending`.
    fn drain_ready(&mut self, out: &mut Vec<Snapshot>) {
        while let Some(snap) = self.pending.remove(&self.next) {
            out.push(snap);
            self.next += 1;
        }
    }
}

/// Sequencing state across all sources.
#[derive(Debug)]
pub struct SourceTable {
    reorder_capacity: usize,
    sources: BTreeMap<String, SourceState>,
}

impl SourceTable {
    /// A table buffering at most `reorder_capacity` early frames per
    /// source before it abandons a gap.
    ///
    /// # Panics
    ///
    /// Panics when `reorder_capacity` is zero.
    pub fn new(reorder_capacity: usize) -> Self {
        assert!(reorder_capacity > 0, "reorder capacity must be positive");
        SourceTable {
            reorder_capacity,
            sources: BTreeMap::new(),
        }
    }

    /// A table resumed from persisted progress (see
    /// [`SourceTable::progress`]): each source continues at its saved
    /// next-expected sequence number, so replayed frames below it are
    /// reported as [`Admission::Duplicate`].
    pub fn resume(reorder_capacity: usize, progress: BTreeMap<String, u64>) -> Self {
        let mut table = SourceTable::new(reorder_capacity);
        table.sources = progress
            .into_iter()
            .map(|(source, next)| {
                (
                    source,
                    SourceState {
                        next,
                        pending: BTreeMap::new(),
                    },
                )
            })
            .collect();
        table
    }

    /// Admits one frame from `source` with the source's own sequence
    /// number, returning what to do with it.
    pub fn admit(&mut self, source: &str, seq: u64, snapshot: Snapshot) -> Admission {
        let state = self.sources.entry(source.to_string()).or_default();
        if seq < state.next || state.pending.contains_key(&seq) {
            return Admission::Duplicate;
        }
        if seq == state.next {
            state.next += 1;
            let mut ready = vec![snapshot];
            state.drain_ready(&mut ready);
            return Admission::Ready(ready);
        }
        state.pending.insert(seq, snapshot);
        if state.pending.len() <= self.reorder_capacity {
            return Admission::Buffered;
        }
        // The window is full and the gap never filled: the missing
        // frames are lost (refused at a lossy boundary, or a client
        // skipped numbers). Jump to the oldest buffered frame so the
        // source can never wedge the stream.
        let Some(&oldest) = state.pending.keys().next() else {
            // Unreachable — the frame was just inserted above — but a
            // sequencing hiccup must never take down a listener thread.
            return Admission::Buffered;
        };
        let skipped = (oldest - state.next).min(MAX_COUNTED_GAP);
        state.next = oldest;
        let mut released = Vec::new();
        state.drain_ready(&mut released);
        debug_assert!(state.pending.len() <= self.reorder_capacity);
        Admission::GapAbandoned { skipped, released }
    }

    /// Invariant check: no source's reorder buffer exceeds the
    /// configured window. Active under `debug_assertions`; a no-op
    /// otherwise.
    pub fn check_window_bound(&self) {
        #[cfg(debug_assertions)]
        for (source, state) in &self.sources {
            assert!(
                state.pending.len() <= self.reorder_capacity,
                "sequencing invariant violated: source {source} buffers {} frames \
                 but the reorder window holds {}",
                state.pending.len(),
                self.reorder_capacity
            );
        }
    }

    /// Per-source progress: the next expected sequence number of every
    /// source (pending reorder buffers are *not* part of progress — an
    /// unapplied frame must be re-sent after a crash).
    pub fn progress(&self) -> BTreeMap<String, u64> {
        self.sources
            .iter()
            .map(|(source, state)| (source.clone(), state.next))
            .collect()
    }

    /// Number of sources seen.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Whether no source has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_timeseries::Timestamp;

    fn snap(k: u64) -> Snapshot {
        Snapshot::new(Timestamp::from_secs(k * 360))
    }

    fn ready_times(admission: Admission) -> Vec<u64> {
        match admission {
            Admission::Ready(snaps) => snaps.iter().map(|s| s.at().as_secs() / 360).collect(),
            other => panic!("expected Ready, got {other:?}"),
        }
    }

    #[test]
    fn in_order_frames_flow_straight_through() {
        let mut table = SourceTable::new(4);
        for k in 0..5 {
            assert_eq!(ready_times(table.admit("a", k, snap(k))), vec![k]);
        }
        assert_eq!(table.progress()["a"], 5);
    }

    #[test]
    fn out_of_order_frames_are_released_in_order() {
        let mut table = SourceTable::new(4);
        assert_eq!(table.admit("a", 1, snap(1)), Admission::Buffered);
        assert_eq!(table.admit("a", 2, snap(2)), Admission::Buffered);
        assert_eq!(ready_times(table.admit("a", 0, snap(0))), vec![0, 1, 2]);
    }

    #[test]
    fn duplicates_are_absorbed_applied_or_buffered() {
        let mut table = SourceTable::new(4);
        table.admit("a", 0, snap(0));
        assert_eq!(table.admit("a", 0, snap(0)), Admission::Duplicate);
        assert_eq!(table.admit("a", 2, snap(2)), Admission::Buffered);
        assert_eq!(table.admit("a", 2, snap(2)), Admission::Duplicate);
    }

    #[test]
    fn sources_sequence_independently() {
        let mut table = SourceTable::new(4);
        assert_eq!(ready_times(table.admit("a", 0, snap(0))), vec![0]);
        assert_eq!(table.admit("b", 1, snap(1)), Admission::Buffered);
        assert_eq!(ready_times(table.admit("a", 1, snap(1))), vec![1]);
    }

    #[test]
    fn overflowing_the_window_abandons_the_gap() {
        let mut table = SourceTable::new(2);
        // seq 0 never arrives; 2, 3 fill the window, 4 overflows it.
        assert_eq!(table.admit("a", 2, snap(2)), Admission::Buffered);
        assert_eq!(table.admit("a", 3, snap(3)), Admission::Buffered);
        match table.admit("a", 4, snap(4)) {
            Admission::GapAbandoned { skipped, released } => {
                assert_eq!(skipped, 2, "seqs 0 and 1 were given up");
                assert_eq!(released.len(), 3);
            }
            other => panic!("expected GapAbandoned, got {other:?}"),
        }
        // The late originals are now duplicates, not regressions.
        assert_eq!(table.admit("a", 0, snap(0)), Admission::Duplicate);
        assert_eq!(ready_times(table.admit("a", 5, snap(5))), vec![5]);
    }

    #[test]
    fn absurd_sequence_jump_saturates_the_counted_gap() {
        let mut table = SourceTable::new(2);
        table.admit("a", 0, snap(0));
        // A skewed client leaps forward by ~10^15: the stream recovers
        // (next follows the jump) but the reported loss saturates.
        let far = 1 << 50;
        assert_eq!(table.admit("a", far, snap(1)), Admission::Buffered);
        assert_eq!(table.admit("a", far + 1, snap(2)), Admission::Buffered);
        match table.admit("a", far + 2, snap(3)) {
            Admission::GapAbandoned { skipped, released } => {
                assert_eq!(skipped, MAX_COUNTED_GAP, "counted loss is capped");
                assert_eq!(released.len(), 3);
            }
            other => panic!("expected GapAbandoned, got {other:?}"),
        }
        // Progress really did jump: the stream continues after the leap.
        assert_eq!(table.progress()["a"], far + 3);
        assert_eq!(ready_times(table.admit("a", far + 3, snap(4))), vec![4]);
    }

    #[test]
    fn modest_gaps_still_report_their_exact_size() {
        let mut table = SourceTable::new(1);
        assert_eq!(table.admit("a", 7, snap(7)), Admission::Buffered);
        match table.admit("a", 9, snap(9)) {
            Admission::GapAbandoned { skipped, .. } => {
                assert_eq!(skipped, 7, "real gaps below the cap are exact");
            }
            other => panic!("expected GapAbandoned, got {other:?}"),
        }
    }

    #[test]
    fn resume_deduplicates_replayed_history() {
        let mut table = SourceTable::new(4);
        for k in 0..10 {
            table.admit("a", k, snap(k));
        }
        let progress = table.progress();

        let mut resumed = SourceTable::resume(4, progress);
        for k in 0..10 {
            assert_eq!(resumed.admit("a", k, snap(k)), Admission::Duplicate);
        }
        assert_eq!(ready_times(resumed.admit("a", 10, snap(10))), vec![10]);
        assert!(!resumed.is_empty());
        assert_eq!(resumed.len(), 1);
    }
}
