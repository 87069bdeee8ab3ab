//! The one merge core behind both pipelines.
//!
//! The paper's three-level aggregation is a pure function of the
//! pair-score map, so "collect one partial [`ScoreBoard`] per shard per
//! step, emit in-order [`StepReport`]s, cut a checkpoint" has exactly
//! one correct implementation: the [`StepMerger`] here. The in-process
//! aggregator (`engine.rs`) and the fabric merge thread
//! (`coordinator.rs`) are message adapters over it. Each keeps only
//! what is genuinely its own — per-shard stats and gauges locally;
//! epoch/liveness fencing, the migration state cache and disconnect
//! handling on the fabric — and feeds it boards and shard checkpoint
//! files. Every shard scores every sequenced step, so a step finalizes
//! only once each shard's board is in, and every report is a complete
//! board. The merger is single-threaded and holds no locks:
//! everything it counts leaves through the adapter's [`Tally`] sink.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::PathBuf;

use gridwatch_sync::channel::Sender;

use gridwatch_detect::{AlarmTracker, EngineConfig, ScoreBoard, StepReport};
use gridwatch_obs::{PipelineObs, SpanSlice, Stage};

use crate::checkpoint::{CheckpointError, CheckpointManifest, Checkpointer, RemoteShard};

/// One thing the merger counted. The adapter's sink folds it into its
/// own stats document (`ServeStats` or `FabricStats`) under that
/// type's lock, so every board that reaches the merger is classified —
/// merged, duplicate, replayed or bad — in exactly one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tally {
    /// A step finalized into a report carrying this many alarm events.
    /// Delivered before the report is sent, so a consumer holding the
    /// report never reads stats that predate it.
    Report {
        /// Alarm events on the report.
        alarms: usize,
    },
    /// A reply dropped because its (seq, shard) slot was already filled.
    Duplicate,
    /// A reply dropped for a step already emitted (migration replay
    /// overlap).
    Replayed,
    /// A board dropped as malformed (bad shard index, mismatched
    /// instant, overlapping pairs).
    Bad,
    /// A checkpoint's manifest landed. Delivered before the ack.
    Checkpoint,
}

/// A checkpoint cut announced by an ingestion front. The front pushes
/// it down the same FIFO channel as the boards, then a marker through
/// every shard, so the merger sees every pre-cut reply before the last
/// shard file.
pub(crate) struct Cut<E> {
    /// Front-assigned id, echoed by every shard file.
    pub(crate) id: u64,
    /// Every step with `seq < cut_seq` is reflected, none after.
    pub(crate) cut_seq: u64,
    /// The checkpoint directory (already prepared by the front).
    pub(crate) dir: PathBuf,
    /// Per-source frame progress at the cut (network listener only).
    pub(crate) sources: BTreeMap<String, u64>,
    /// The coordinator's fabric epoch at the cut; 0 in-process.
    pub(crate) fabric_epoch: u64,
    /// Remote shard ownership at the cut; empty in-process.
    pub(crate) remote: Vec<RemoteShard>,
    /// Where the outcome goes: the manifest, or why there is none.
    pub(crate) ack: Sender<Result<CheckpointManifest, E>>,
}

/// A cut in flight: the request plus the shard files reported so far.
struct CutOp<E> {
    cut: Cut<E>,
    /// One slot per shard: the file name it wrote, or why it could not.
    files: Vec<Option<Result<String, E>>>,
}

/// One in-flight sequence number: the partial merge so far and which
/// shards have answered.
struct PendingStep {
    board: ScoreBoard,
    replied: Vec<bool>,
    replies: usize,
}

/// Merges per-shard replies into in-order reports and completes
/// checkpoint cuts. Alone owns the pending-step map, the alarm
/// tracker, report emission and manifest assembly.
pub(crate) struct StepMerger<E, T> {
    shards: usize,
    config: EngineConfig,
    tracker: AlarmTracker,
    pending: BTreeMap<u64, PendingStep>,
    /// The next sequence number to finalize; replies below it are
    /// replay overlap.
    next_emit: u64,
    /// Cleared `replied` sets of finalized steps, reused so the steady
    /// state allocates nothing per step.
    spare: Vec<Vec<bool>>,
    cut: Option<CutOp<E>>,
    reports_tx: Sender<StepReport>,
    obs: PipelineObs,
    /// The worker label on this merger's Merge/Report exemplar slices.
    label: &'static str,
    tally: T,
}

impl<E, T> StepMerger<E, T>
where
    E: From<CheckpointError> + Display,
    T: FnMut(Tally),
{
    /// A merger for `shards` shards whose first step is `start_seq`,
    /// continuing `tracker`'s debounce state.
    #[expect(clippy::too_many_arguments, reason = "each front supplies every part")]
    pub(crate) fn new(
        shards: usize,
        config: EngineConfig,
        tracker: AlarmTracker,
        start_seq: u64,
        reports_tx: Sender<StepReport>,
        obs: PipelineObs,
        label: &'static str,
        tally: T,
    ) -> Self {
        StepMerger {
            shards,
            config,
            tracker,
            pending: BTreeMap::new(),
            next_emit: start_seq,
            spare: Vec::new(),
            cut: None,
            reports_tx,
            obs,
            label,
            tally,
        }
    }

    /// Whether a reply from `shard` for `seq` can still matter; tallies
    /// why when it cannot.
    fn expects(&mut self, shard: usize, seq: u64) -> bool {
        let why = if shard >= self.shards {
            Tally::Bad
        } else if seq < self.next_emit {
            Tally::Replayed
        } else {
            return true;
        };
        (self.tally)(why);
        false
    }

    /// One shard's partial board for `seq`. `score_ns` is the shard's
    /// measured `step_scores` wall time and `spans` its exemplar slices;
    /// only an accepted board contributes them — a duplicate or
    /// replayed board scored nothing new.
    pub(crate) fn offer(
        &mut self,
        shard: usize,
        seq: u64,
        board: ScoreBoard,
        score_ns: u64,
        spans: &[SpanSlice],
    ) {
        if !self.expects(shard, seq) {
            return;
        }
        let StepMerger {
            shards,
            pending,
            spare,
            obs,
            label,
            tally,
            ..
        } = self;
        let merge = obs.span(Stage::Merge);
        let slot = pending.entry(seq);
        if let Entry::Occupied(entry) = &slot {
            if entry.get().replied[shard] {
                tally(Tally::Duplicate);
                return;
            }
        }
        obs.tracer.record_ns(Stage::Score, score_ns);
        obs.exemplar.record_slices(seq, spans);
        match slot {
            Entry::Vacant(slot) => {
                slot.insert(PendingStep::new(spare, *shards, shard, board));
            }
            Entry::Occupied(entry) => {
                let entry = entry.into_mut();
                // `try_merge`, not `merge`: a mismatched instant or a
                // pair two shards both claim is a violation to count,
                // not a panic.
                if entry.board.try_merge(board).is_ok() {
                    entry.replied[shard] = true;
                    entry.replies += 1;
                } else {
                    tally(Tally::Bad);
                }
            }
        }
        merge.finish(seq, label);
    }

    /// Finalizes every fully-replied step at the head of the queue,
    /// strictly in sequence order, then completes the in-flight cut if
    /// nothing it waits for is outstanding. Call after every message.
    pub(crate) fn advance(&mut self) {
        while self
            .pending
            .first_key_value()
            .is_some_and(|(&seq, entry)| seq == self.next_emit && entry.replies == self.shards)
        {
            let Some((seq, mut entry)) = self.pending.pop_first() else {
                break;
            };
            self.next_emit = seq + 1;
            self.emit(seq, entry.board);
            entry.replied.fill(false);
            self.spare.push(entry.replied);
        }
        self.complete_cut();
    }

    /// Runs the single alarm tracker over one finalized step and sends
    /// its report.
    fn emit(&mut self, seq: u64, board: ScoreBoard) {
        let obs = &self.obs;
        let report = obs.span(Stage::Report);
        let alarms = self.tracker.evaluate(&board, &self.config.alarm);
        (self.tally)(Tally::Report {
            alarms: alarms.len(),
        });
        let alarmed = !alarms.is_empty();
        if alarmed {
            obs.recorder.record(
                "alarm",
                format_args!(
                    "{} alarm event(s) at t={} (seq {seq})",
                    alarms.len(),
                    board.at()
                ),
            );
        }
        // A gone receiver means shutdown is under way; keep merging so
        // checkpoints still complete.
        let _ = self.reports_tx.send(StepReport {
            scores: board,
            alarms,
        });
        report.finish(seq, self.label);
        obs.exemplar.finalize(seq, alarmed);
    }

    /// Starts collecting shard files for `cut`. A cut still in flight
    /// is superseded: its waiter gets an error, never a manifest.
    pub(crate) fn begin_cut(&mut self, cut: Cut<E>) {
        if let Some(stale) = self.cut.take() {
            let why = CheckpointError::Corrupt("superseded by a newer checkpoint".to_string());
            let _ = stale.cut.ack.send(Err(why.into()));
        }
        self.cut = Some(CutOp {
            cut,
            files: (0..self.shards).map(|_| None).collect(),
        });
    }

    /// Where to write `shard`'s file, and the cut point, when cut `id`
    /// is in flight and still waits for it.
    pub(crate) fn cut_awaiting(&self, shard: usize, id: u64) -> Option<(Checkpointer, u64)> {
        let op = self.cut.as_ref().filter(|op| op.cut.id == id)?;
        matches!(op.files.get(shard), Some(None))
            .then(|| (Checkpointer::new(&op.cut.dir), op.cut.cut_seq))
    }

    /// One shard's checkpoint file for cut `id` landed (or failed).
    /// Ignored unless that cut is in flight and still waits for this
    /// shard.
    pub(crate) fn shard_file(&mut self, shard: usize, id: u64, result: Result<String, E>) {
        let Some(op) = self.cut.as_mut().filter(|op| op.cut.id == id) else {
            return;
        };
        if let Some(slot @ None) = op.files.get_mut(shard) {
            *slot = Some(result);
        }
    }

    /// Fails the in-flight cut with `why` if it still waits for
    /// `shard`'s file — a file that can no longer arrive.
    pub(crate) fn fail_cut_awaiting(&mut self, shard: usize, why: E) {
        let waits = |op: &mut CutOp<E>| matches!(op.files.get(shard), Some(None));
        if let Some(op) = self.cut.take_if(waits) {
            let _ = op.cut.ack.send(Err(why));
        }
    }

    /// Completes the in-flight cut once every pre-cut step has
    /// finalized (so the manifest's tracker is exactly the tracker at
    /// the cut) and every shard has reported its file. Any failed file
    /// fails the cut without a manifest, so the previous complete
    /// checkpoint stays recoverable.
    fn complete_cut(&mut self) {
        let next_emit = self.next_emit;
        let ready =
            |op: &mut CutOp<E>| next_emit >= op.cut.cut_seq && op.files.iter().all(Option::is_some);
        let Some(CutOp { cut, files }) = self.cut.take_if(ready) else {
            return;
        };
        let outcome = files
            .into_iter()
            .flatten()
            .collect::<Result<Vec<String>, E>>()
            .and_then(|shard_files| {
                let manifest = CheckpointManifest {
                    version: 1,
                    shards: self.shards,
                    cut_seq: cut.cut_seq,
                    config: self.config,
                    tracker: self.tracker.clone(),
                    shard_files,
                    sources: cut.sources,
                    fabric_epoch: cut.fabric_epoch,
                    remote: cut.remote,
                };
                Checkpointer::new(&cut.dir).write_manifest(&manifest)?;
                Ok(manifest)
            });
        match &outcome {
            Ok(manifest) => {
                (self.tally)(Tally::Checkpoint);
                self.obs.recorder.record(
                    "checkpoint",
                    format_args!("id {} cut_seq {}", cut.id, manifest.cut_seq),
                );
            }
            Err(e) => self
                .obs
                .recorder
                .record("checkpoint-error", format_args!("id {}: {e}", cut.id)),
        }
        let _ = cut.ack.send(outcome);
    }
}

impl PendingStep {
    /// A step opened by `shard`'s board, the first to arrive.
    fn new(spare: &mut Vec<Vec<bool>>, shards: usize, shard: usize, board: ScoreBoard) -> Self {
        let mut replied = spare.pop().unwrap_or_else(|| vec![false; shards]);
        replied[shard] = true;
        PendingStep {
            board,
            replied,
            replies: 1,
        }
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "a test collects every report")]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use gridwatch_detect::AlarmPolicy;
    use gridwatch_sync::channel::{self, Receiver};
    use gridwatch_timeseries::{MachineId, MeasurementId, MeasurementPair, MetricKind, Timestamp};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;

    type Tallies = Rc<RefCell<Vec<Tally>>>;
    type Merger = StepMerger<CheckpointError, Box<dyn FnMut(Tally)>>;
    type Ack = Receiver<Result<CheckpointManifest, CheckpointError>>;

    fn config() -> EngineConfig {
        EngineConfig {
            alarm: AlarmPolicy {
                system_threshold: 0.7,
                measurement_threshold: 0.4,
                min_consecutive: 2,
            },
            ..EngineConfig::default()
        }
    }

    fn merger(shards: usize, start_seq: u64) -> (Merger, Receiver<StepReport>, Tallies) {
        let tallies = Tallies::default();
        let sink = Rc::clone(&tallies);
        let (tx, rx) = channel::unbounded();
        let merger = StepMerger::new(
            shards,
            config(),
            AlarmTracker::new(),
            start_seq,
            tx,
            PipelineObs::default(),
            "test",
            Box::new(move |t| sink.borrow_mut().push(t)) as Box<dyn FnMut(Tally)>,
        );
        (merger, rx, tallies)
    }

    /// The `k`-th pair owned by `shard`: shards own disjoint pairs.
    fn pair(shard: usize, k: u16) -> MeasurementPair {
        let id = |tag| MeasurementId::new(MachineId::new(shard as u32), MetricKind::Custom(tag));
        MeasurementPair::new(id(2 * k), id(2 * k + 1)).unwrap()
    }

    /// Shard `shard`'s partial board for `seq`. Scores dip below both
    /// thresholds on three seqs in every eight, so the reference
    /// stream raises (debounced) alarms.
    fn board(shard: usize, seq: u64) -> ScoreBoard {
        let mut board = ScoreBoard::new(Timestamp::from_secs(360 * (seq + 1)));
        for k in 0..2u16 {
            let healthy = 0.9 - 0.01 * f64::from(k) - 0.02 * shard as f64;
            let score = if (1..4).contains(&(seq % 8)) {
                0.1
            } else {
                healthy
            };
            board.record(pair(shard, k), score);
        }
        board
    }

    /// What one tracker says when fed the merged boards in order.
    fn reference(shards: usize, seqs: std::ops::Range<u64>) -> (Vec<StepReport>, AlarmTracker) {
        let mut tracker = AlarmTracker::new();
        let reports = seqs
            .map(|seq| {
                let mut scores = board(0, seq);
                for shard in 1..shards {
                    scores.merge(board(shard, seq));
                }
                let alarms = tracker.evaluate(&scores, &config().alarm);
                StepReport { scores, alarms }
            })
            .collect();
        (reports, tracker)
    }

    fn feed(merger: &mut Merger, arrivals: &[(usize, u64)]) {
        for &(shard, seq) in arrivals {
            merger.offer(shard, seq, board(shard, seq), 0, &[]);
            merger.advance();
        }
    }

    fn drain(reports: &Receiver<StepReport>) -> Vec<StepReport> {
        std::iter::from_fn(|| reports.try_recv().ok()).collect()
    }

    fn count(tallies: &Tallies, want: Tally) -> usize {
        tallies.borrow().iter().filter(|&&t| t == want).count()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gridwatch-merge-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Checkpointer::new(&dir).prepare().unwrap();
        dir
    }

    fn cut(id: u64, cut_seq: u64, dir: &std::path::Path) -> (Cut<CheckpointError>, Ack) {
        let (ack, acked) = channel::bounded(1);
        let cut = Cut {
            id,
            cut_seq,
            dir: dir.to_path_buf(),
            sources: BTreeMap::new(),
            fabric_epoch: 0,
            remote: Vec::new(),
            ack,
        };
        (cut, acked)
    }

    #[test]
    fn any_arrival_order_yields_the_reference_stream() {
        let orders: [(&str, &[(usize, u64)]); 4] = [
            (
                "in order",
                &[(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)],
            ),
            (
                "reversed",
                &[(1, 2), (0, 2), (1, 1), (0, 1), (1, 0), (0, 0)],
            ),
            (
                "shard by shard",
                &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)],
            ),
            (
                "one shard runs ahead",
                &[(1, 0), (1, 1), (0, 0), (1, 2), (0, 2), (0, 1)],
            ),
        ];
        let (want, _) = reference(2, 0..3);
        assert!(want.iter().any(|r| !r.alarms.is_empty()), "must alarm");
        for (name, arrivals) in orders {
            let (mut merger, reports, tallies) = merger(2, 0);
            feed(&mut merger, arrivals);
            assert_eq!(drain(&reports), want, "{name}");
            assert_eq!(
                tallies.borrow().len(),
                3,
                "{name}: one Report tally per step"
            );
        }
    }

    proptest! {
        /// Any permutation of board arrivals across shards and seqs, with
        /// any boards delivered twice, yields the stream one tracker
        /// produces from the merged boards in order.
        #[test]
        fn permuted_and_repeated_arrivals_match_one_tracker(
            shards in 1usize..=4,
            steps in 1u64..=8,
            start in 0u64..1000,
            shuffle in any::<u64>(),
            repeats in prop::collection::vec((any::<u16>(), any::<u16>()), 0..4),
        ) {
            let mut arrivals: Vec<(usize, u64)> = (0..shards)
                .flat_map(|shard| (start..start + steps).map(move |seq| (shard, seq)))
                .collect();
            let mut rng = StdRng::seed_from_u64(shuffle);
            for k in (1..arrivals.len()).rev() {
                arrivals.swap(k, rng.random_range(0..k + 1));
            }
            // A repeat re-delivers some arrival at a later position, so
            // it is a duplicate or a replay, never the first copy.
            let mut script = arrivals.clone();
            for &(which, at) in &repeats {
                let again = arrivals[usize::from(which) % arrivals.len()];
                let first = script.iter().position(|a| *a == again).unwrap_or(0);
                let slack = script.len() - first;
                script.insert(first + 1 + usize::from(at) % slack, again);
            }
            let (mut merger, reports, tallies) = merger(shards, start);
            feed(&mut merger, &script);
            let (want, _) = reference(shards, start..start + steps);
            prop_assert_eq!(drain(&reports), want);
            prop_assert_eq!(
                count(&tallies, Tally::Duplicate) + count(&tallies, Tally::Replayed),
                repeats.len()
            );
            prop_assert_eq!(count(&tallies, Tally::Bad), 0);
        }
    }

    #[test]
    fn duplicate_replayed_and_bad_boards_are_classified_and_never_merged() {
        let (mut merger, reports, tallies) = merger(2, 0);
        // Shard 0 answers seq 0 twice: the second copy is a duplicate.
        feed(&mut merger, &[(0, 0), (0, 0)]);
        assert_eq!(*tallies.borrow(), [Tally::Duplicate]);
        // Shard 1 claims a pair shard 0 already scored, then answers for
        // the wrong instant, then from a shard that does not exist: all
        // bad, and seq 0 keeps waiting for shard 1's real board.
        merger.offer(1, 0, board(0, 0), 0, &[]);
        merger.offer(1, 0, board(1, 7), 0, &[]);
        merger.offer(2, 0, board(1, 0), 0, &[]);
        merger.advance();
        assert_eq!(count(&tallies, Tally::Bad), 3);
        assert!(reports.try_recv().is_err(), "seq 0 is still incomplete");
        // The real board completes the step; a late copy is a replay.
        feed(&mut merger, &[(1, 0), (1, 0), (0, 0)]);
        assert_eq!(count(&tallies, Tally::Replayed), 2);
        let (want, _) = reference(2, 0..1);
        assert_eq!(drain(&reports), want);
    }

    #[test]
    fn a_cut_acks_only_after_every_pre_cut_step_has_finalized() {
        let dir = scratch_dir("order");
        let (mut merger, reports, tallies) = merger(2, 0);
        let (cut, acked) = cut(1, 2, &dir);
        merger.begin_cut(cut);
        // Both shard files land before any board does.
        merger.shard_file(0, 1, Ok("shard-0.json".to_string()));
        merger.shard_file(1, 1, Ok("shard-1.json".to_string()));
        // A file for some other cut, and a second file from shard 0,
        // change nothing.
        merger.shard_file(1, 9, Err(CheckpointError::Corrupt("other cut".to_string())));
        merger.shard_file(0, 1, Err(CheckpointError::Corrupt("again".to_string())));
        feed(&mut merger, &[(0, 0), (1, 0), (0, 1), (0, 2), (1, 2)]);
        assert!(acked.try_recv().is_err(), "seq 1 has not finalized");
        assert!(!dir.join("manifest.json").exists());
        feed(&mut merger, &[(1, 1)]);

        let manifest = acked.try_recv().expect("acked").expect("manifest");
        let (want, _) = reference(2, 0..3);
        assert_eq!(drain(&reports), want);
        // Seq 2 finalized in the same advance, before the cut completed:
        // the manifest's tracker is the tracker at that moment.
        let (_, tracker) = reference(2, 0..3);
        assert_eq!(manifest.tracker, tracker);
        assert_eq!(manifest.cut_seq, 2);
        assert_eq!(manifest.shard_files, ["shard-0.json", "shard-1.json"]);
        assert_eq!(Checkpointer::new(&dir).read_manifest().unwrap(), manifest);
        assert_eq!(tallies.borrow().last(), Some(&Tally::Checkpoint));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_shard_file_fails_the_cut_without_a_manifest() {
        let dir = scratch_dir("failed");
        let (mut merger, _reports, tallies) = merger(2, 0);
        let (cut, acked) = cut(1, 0, &dir);
        merger.begin_cut(cut);
        assert!(merger.cut_awaiting(1, 1).is_some());
        assert!(merger.cut_awaiting(1, 2).is_none(), "not that cut");
        merger.shard_file(1, 1, Err(CheckpointError::Corrupt("disk full".to_string())));
        assert!(merger.cut_awaiting(1, 1).is_none(), "already reported");
        merger.advance();
        assert!(acked.try_recv().is_err(), "shard 0 has not reported");
        merger.shard_file(0, 1, Ok("shard-0.json".to_string()));
        merger.advance();
        let err = acked
            .try_recv()
            .expect("acked")
            .expect_err("the cut failed");
        assert!(err.to_string().contains("disk full"), "{err}");
        assert!(!dir.join("manifest.json").exists());
        assert_eq!(count(&tallies, Tally::Checkpoint), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_superseded_or_abandoned_cut_acks_an_error_to_its_waiter() {
        let dir = scratch_dir("superseded");
        let (mut merger, _reports, _tallies) = merger(2, 0);
        let (first, first_acked) = cut(1, 0, &dir);
        let (second, second_acked) = cut(2, 0, &dir);
        merger.begin_cut(first);
        merger.begin_cut(second);
        let err = first_acked
            .try_recv()
            .expect("acked")
            .expect_err("superseded");
        assert!(err.to_string().contains("superseded"), "{err}");
        // Shard 0 reports, then shard 1 is lost: the cut can never
        // complete, and only a shard still awaited can fail it.
        merger.shard_file(0, 2, Ok("shard-0.json".to_string()));
        merger.fail_cut_awaiting(0, CheckpointError::Corrupt("shard 0 lost".to_string()));
        assert!(second_acked.try_recv().is_err());
        merger.fail_cut_awaiting(1, CheckpointError::Corrupt("shard 1 lost".to_string()));
        let err = second_acked
            .try_recv()
            .expect("acked")
            .expect_err("abandoned");
        assert!(err.to_string().contains("shard 1 lost"), "{err}");
        merger.advance();
        assert!(!dir.join("manifest.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
