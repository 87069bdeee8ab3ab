//! One workload run: set-up, warm-up, saturate, paced, verification, and
//! for a traced run the second traced pass and the layer probes.

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::loadgen::{drive_inline, drive_split, Phase, PhaseLog};
use crate::metrics::{Sheet, STAGES};
use crate::spans::SpanLog;
use crate::stats::{median, quantile, relative_range, tail, window_rates};
use crate::sut::{
    self, FabricTarget, Fixture, Frames, NetTarget, Oracle, Reference, StageHist, SutStats,
};
use crate::workload::{Path, Sizes, Spec};

/// Equal-count windows the closed loop is cut into.
const WINDOWS: usize = 15;
/// Throughput is the window at this quantile, not the median window. A
/// saturated two-core box can only be slowed by what else the host is
/// doing, and it is, in spells of seconds at about four fifths of its
/// speed that may cover more or less than half a loop: the median flips
/// between the two speeds from run to run. Over ten seeds in such a
/// spell the quartile distance of the median window was 25 % of the
/// median, of the upper-quartile window 19 %, of the best-but-one 14 %;
/// in a calm spell all three were 9 to 12 %. The upper quartile takes
/// the undisturbed speed when a quarter of the loop saw it, and still
/// ignores the best windows (the last one includes the drain).
const THROUGHPUT_QUANTILE: f64 = 0.75;
/// In-flight snapshots allowed on the fabric path. The coordinator's
/// report channel holds 1024; staying well under it means `submit` can
/// never block against a full report channel.
const FABRIC_WINDOW: usize = 256;
/// Batches per timed probe; the median batch is reported.
const PROBE_BATCHES: usize = 5;
/// One paced report in this many becomes an `e2e` span.
const E2E_SAMPLE: usize = 100;
/// An open-loop round is void when most of its frames went out over an
/// interval late, or when more than this share of the whole open loop
/// was still outstanding at its last due time (a backlog means the rate
/// is past what the system sustains).
const MAX_BACKLOG_SHARE: f64 = 0.01;

/// Everything one run of one workload produced.
pub struct Outcome {
    /// The workload's name.
    pub workload: &'static str,
    /// The seed the inputs were made from.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// The metrics, by name.
    pub sheet: Sheet,
    /// Unique frames sent.
    pub attempted: u64,
    /// Frames whose report was missing, wrong, or void.
    pub failed: u64,
    /// Whether every check passed.
    pub correct: bool,
    /// What went wrong, for people.
    pub notes: Vec<String>,
    /// The program's stage histograms (traced run only).
    pub stages: Vec<StageHist>,
    /// The harness's spans.
    pub spans: SpanLog,
}

/// A started system under test with the inputs it will be fed.
enum Target {
    Net { target: NetTarget, frames: Frames },
    Fabric(FabricTarget),
}

impl Target {
    fn start(
        spec: &Spec,
        fixture: &Fixture,
        count: usize,
        verify: usize,
        traced: bool,
    ) -> io::Result<Target> {
        Ok(match spec.path {
            Path::Net => Target::Net {
                frames: Frames::encode(fixture, count),
                target: NetTarget::start(fixture, verify, traced)?,
            },
            Path::Fabric => Target::Fabric(FabricTarget::start(fixture, count, verify, traced)?),
        })
    }

    fn drive(&mut self, phase: &Phase) -> io::Result<PhaseLog> {
        Ok(match self {
            Target::Net { target, frames } => {
                let (mut sink, mut source) = target.split(frames)?;
                drive_split(&mut sink, &mut source, phase)
            }
            Target::Fabric(target) => drive_inline(target, phase, FABRIC_WINDOW),
        })
    }

    fn finish(self) -> (Oracle, SutStats, Option<Frames>) {
        match self {
            Target::Net { target, frames } => {
                let (oracle, stats) = target.finish();
                (oracle, stats, Some(frames))
            }
            Target::Fabric(target) => {
                let (oracle, stats) = target.finish();
                (oracle, stats, None)
            }
        }
    }
}

fn phase_of(spec: &Spec, first: usize, unique: usize, rate: Option<f64>, seed: u64) -> Phase {
    match spec.disorder {
        Some((swaps, dups)) => Phase::disordered(first, unique, rate, seed, swaps, dups),
        None => Phase::in_order(first, unique, rate),
    }
}

/// Seconds of CPU (user + system) this process has used. Zero where
/// `/proc` is not available.
fn cpu_seconds() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the command
    // name (which may itself contain spaces), in ticks of 1/100 s.
    const TICKS_PER_SECOND: f64 = 100.0;
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let rest = stat.rsplit_once(')')?.1.to_string();
            let mut fields = rest.split_whitespace().skip(11);
            let utime: f64 = fields.next()?.parse().ok()?;
            let stime: f64 = fields.next()?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_SECOND)
        })
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Where the checkpoint and history probes write: inside the package's
/// own `out/` directory, so nothing leaves the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One driven phase and what happened in it.
struct Driven {
    phase: Phase,
    log: PhaseLog,
    /// The harness span that covers the phase.
    span: usize,
}

impl Driven {
    /// Open loop: whether the generator lost its schedule or the system
    /// fell behind, so that this round's latencies mean nothing. The
    /// backlog is judged against the whole open loop of `loop_frames`,
    /// not the round: a round of sixty frames at a latency of one
    /// interval always has one or two in flight.
    fn void(&self, loop_frames: usize) -> bool {
        let backlog = self.log.backlog_at_last_due(&self.phase) as f64;
        self.log.mostly_late(&self.phase) || backlog > MAX_BACKLOG_SHARE * loop_frames as f64 + 1.0
    }
}

/// One system's measurement: warm-up, one closed loop, then the open
/// loop in rounds. The warm-up is a closed loop itself and long enough
/// for the machine to reach full clock speed, so the measured closed
/// loop starts hot and its first window is like its last.
struct Measurement {
    warm: Driven,
    saturate: Driven,
    paced: Vec<Driven>,
    /// CPU seconds the process used during the closed loop.
    saturate_cpu_s: f64,
}

impl Measurement {
    fn drive(
        target: &mut Target,
        spans: &mut SpanLog,
        spec: &Spec,
        sizes: &Sizes,
        seed: u64,
        paced_rounds: usize,
    ) -> io::Result<Measurement> {
        let mut drive = |name: &str, phase: Phase| -> io::Result<Driven> {
            let span = spans.open(name, Some(SpanLog::ROOT));
            let log = target.drive(&phase)?;
            spans.close(span, log.arrivals.len() as u64);
            Ok(Driven { phase, log, span })
        };
        let warm = drive("warm-up", phase_of(spec, 0, sizes.warm, None, seed))?;
        let cpu_before = cpu_seconds();
        let saturate = drive(
            "saturate",
            phase_of(spec, sizes.warm, sizes.saturate, None, seed),
        )?;
        let saturate_cpu_s = cpu_seconds() - cpu_before;
        let rate = Some(spec.paced_rate);
        let paced = (0..paced_rounds)
            .map(|round| {
                let first = sizes.warm + sizes.saturate + round * sizes.paced;
                drive("paced", phase_of(spec, first, sizes.paced, rate, seed))
            })
            .collect::<io::Result<_>>()?;
        Ok(Measurement {
            warm,
            saturate,
            paced,
            saturate_cpu_s,
        })
    }

    fn all(&self) -> impl Iterator<Item = &Driven> {
        [&self.warm, &self.saturate].into_iter().chain(&self.paced)
    }

    /// Unique frames sent.
    fn frames(&self) -> usize {
        self.all().map(|d| d.phase.unique).sum()
    }

    /// Upper-quartile-window throughput of the closed loop: snapshots
    /// per second, pair scores per second, and how far apart the windows
    /// were.
    fn throughput(&self) -> (f64, f64, f64) {
        let log = &self.saturate.log;
        let ones = vec![1.0; log.arrivals.len()];
        let snaps = window_rates(&log.arrivals, &ones, WINDOWS);
        let pairs = window_rates(&log.arrivals, &log.pairs, WINDOWS);
        (
            quantile(&snaps, THROUGHPUT_QUANTILE),
            quantile(&pairs, THROUGHPUT_QUANTILE),
            relative_range(&snaps),
        )
    }

    fn note_incomplete(&self, notes: &mut Vec<String>) {
        for d in self.all().filter(|d| !d.log.complete(&d.phase)) {
            notes.push(format!(
                "frames {}..: {} of {} reports ({})",
                d.phase.first,
                d.log.arrivals.len(),
                d.phase.unique,
                d.log.error.as_deref().unwrap_or("incomplete")
            ));
        }
    }
}

/// Runs `spec` once.
///
/// # Errors
///
/// Fails only when the system could not be started at all; everything
/// that goes wrong afterwards is a failed frame or a note in the
/// [`Outcome`].
pub fn run(spec: &Spec, sizes: &Sizes, seed: u64, traced: bool) -> io::Result<Outcome> {
    let mut spans = SpanLog::begin(format!("{}-{seed}-trace{}", spec.name, u8::from(traced)));
    let mut sheet = Sheet::default();
    let mut notes = Vec::new();
    let total = sizes.warm + sizes.saturate + sizes.rounds * sizes.paced;

    // Set-up, several times over: build inputs, start the system. Only
    // the last one is kept and driven.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..sizes.setups.max(1) {
        if let Some((_, target)) = kept.take() {
            Target::finish(target);
        }
        let span = spans.open("setup", Some(SpanLog::ROOT));
        let began = Instant::now();
        let fixture = Fixture::build(spec.fixture, sizes.frames(), seed);
        let target = Target::start(spec, &fixture, total, sizes.verify, false)?;
        setup_s.push(began.elapsed().as_secs_f64());
        spans.close(span, 1);
        kept = Some((fixture, target));
    }
    let (fixture, mut target) = kept.expect("at least one set-up");
    sheet.set("setup_s", median(&setup_s));

    let measured = Measurement::drive(&mut target, &mut spans, spec, sizes, seed, sizes.rounds)?;
    let (oracle, sut, frames) = target.finish();
    measured.note_incomplete(&mut notes);

    let (snaps_per_s, pairs_per_s, window_spread) = measured.throughput();
    sheet.set("snaps_per_s", snaps_per_s);
    sheet.set("pairs_scored_per_s", pairs_per_s);

    // Latency: the tenth percentile of all rounds together, which is the
    // latency of frames the host left alone. What else the host runs
    // takes the cores away a few milliseconds at a time, and a frame hit
    // by that waits it out: in a bad minute half the frames of the
    // adaptive workload are hit and the median moves by a third, while
    // the fastest tenth still were not (see the README). The percentiles
    // above it are reported by the traced run and are not gated.
    let mut pooled = Vec::new();
    for round in &measured.paced {
        let latencies = round.log.latencies_ms(&round.phase);
        for (k, arrival) in round.log.arrivals.iter().enumerate().step_by(E2E_SAMPLE) {
            let due = arrival.saturating_sub(Duration::from_secs_f64(latencies[k] / 1e3));
            spans.record("e2e", round.span, due, *arrival);
        }
        pooled.extend(latencies);
    }
    pooled.sort_by(f64::total_cmp);
    match tail(&pooled, 0.10) {
        Some(p10) => sheet.set("latency_p10_ms", p10.value),
        None => notes.push(format!(
            "paced: {} latencies are too few for a percentile",
            pooled.len()
        )),
    }
    // A disturbed round may be void without voiding the run; when most
    // are, the rate is past what the system sustains.
    let paced_frames: usize = measured.paced.iter().map(|d| d.phase.unique).sum();
    let void_rounds = measured
        .paced
        .iter()
        .filter(|d| d.void(paced_frames))
        .count();
    let paced_void = 2 * void_rounds > measured.paced.len();
    if void_rounds > 0 {
        notes.push(format!(
            "paced: {void_rounds} of {} rounds void (generator late or backlog left)",
            measured.paced.len()
        ));
    }

    // Correctness: every report in order with the right timestamp and
    // sane scores, the verify prefix bit-equal to the reference, and the
    // program's own counters agreeing with what was sent.
    let verify_span = spans.open("reference", Some(SpanLog::ROOT));
    let reference = Reference::run(&fixture, sizes.verify);
    spans.close(verify_span, reference.len() as u64);
    let mismatches = oracle.mismatches(&reference);
    if mismatches > 0 {
        notes.push(format!(
            "{mismatches} of the first {} reports differ from the single-threaded reference",
            sizes.verify
        ));
    }
    if oracle.bad() > 0 {
        notes.push(format!(
            "{} reports out of order, mistimed or out of range",
            oracle.bad()
        ));
    }
    let mut attempted = measured.frames();
    let mut reports_ok = oracle.seen().saturating_sub(oracle.bad() + mismatches);
    let mut counters_ok = sut.reports == attempted as u64
        && sut.net_decode_errors == 0
        && sut.stale_boards == 0
        && sut.disconnects == 0;
    if spec.path == Path::Net {
        let swaps: usize = measured.all().map(|d| d.phase.swaps).sum();
        let dups: usize = measured.all().map(|d| d.phase.duplicates).sum();
        // Exactly what was injected, and nothing the generator did not do.
        counters_ok &= sut.net_out_of_order == swaps as u64
            && sut.net_duplicates == dups as u64
            && sut.net_frames == (attempted + dups) as u64;
    }
    if !counters_ok {
        notes.push(format!(
            "the program's counters disagree with the load sent: {sut:?}"
        ));
    }

    let mut traced_stats = None;
    if traced {
        // The traced pass: a fresh system with stage tracing on, warm-up
        // and closed loop only.
        let span = spans.open("traced-setup", Some(SpanLog::ROOT));
        let count = sizes.warm + sizes.saturate;
        let mut target = Target::start(spec, &fixture, count, 0, true)?;
        spans.close(span, 1);
        let traced_pass = Measurement::drive(&mut target, &mut spans, spec, sizes, seed, 0)?;
        let (traced_oracle, stats, _) = target.finish();
        traced_pass.note_incomplete(&mut notes);
        attempted += count;
        reports_ok += traced_oracle.seen().saturating_sub(traced_oracle.bad());
        if traced_oracle.bad() > 0 {
            notes.push(format!("traced pass: {} bad reports", traced_oracle.bad()));
        }
        traced_stats = Some((traced_pass.throughput().0, count, stats));
    }

    let mut failed = attempted.saturating_sub(reports_ok);
    if paced_void {
        // A void open loop measured nothing: its frames missed any limit.
        failed = (failed + paced_frames).min(attempted);
    }
    let mut stages = Vec::new();
    if let Some((traced_rate, traced_snaps, traced_sut)) = traced_stats {
        let sent: usize = measured.all().map(|d| d.log.sent).sum();
        sheet.set("loadgen.frames_sent", sent as f64);
        sheet.set("loadgen.reports_ok", reports_ok as f64);
        let mut late: Vec<f64> = measured
            .paced
            .iter()
            .flat_map(|d| d.log.late.iter().map(|l| l.as_secs_f64() * 1e3))
            .collect();
        late.sort_by(f64::total_cmp);
        let backlogs: Vec<f64> = measured
            .paced
            .iter()
            .map(|d| d.log.backlog_at_last_due(&d.phase) as f64)
            .collect();
        let (p50, p90, p99) = (
            tail(&pooled, 0.50),
            tail(&pooled, 0.90),
            tail(&pooled, 0.99),
        );
        sheet.set(
            "loadgen.late_p99_ms",
            tail(&late, 0.99).map_or(0.0, |t| t.value),
        );
        sheet.set("loadgen.late_max_ms", late.last().copied().unwrap_or(0.0));
        sheet.set("loadgen.backlog_end_frames", median(&backlogs));
        sheet.set("loadgen.latency_p50_ms", p50.map_or(0.0, |t| t.value));
        sheet.set("loadgen.latency_p90_ms", p90.map_or(0.0, |t| t.value));
        sheet.set("loadgen.latency_p99_ms", p99.map_or(0.0, |t| t.value));
        sheet.set(
            "loadgen.latency_tail_pct",
            p99.map_or(0.0, |t| t.percentile * 100.0),
        );
        sheet.set(
            "loadgen.latency_max_ms",
            pooled.last().copied().unwrap_or(0.0),
        );
        sheet.set("loadgen.window_spread", window_spread);
        sheet.set(
            "proc.cpu_us_per_snap",
            measured.saturate_cpu_s * 1e6 / measured.saturate.log.arrivals.len().max(1) as f64,
        );
        sheet.set("sim.generate_s", fixture.generate_s);
        sheet.set("detect.train_s", fixture.train_s);

        sheet.set(
            "serve.engine.backpressure_engaged_share",
            sut.backpressure_engaged_share,
        );
        sheet.set("serve.engine.queue_depth_p50", sut.queue_depth_p50);
        sheet.set("serve.engine.shard_step_p50_us", sut.shard_step_p50_us);
        sheet.set("serve.engine.shard_step_p99_us", sut.shard_step_p99_us);
        sheet.set("serve.engine.shard_skew", sut.shard_skew);
        sheet.set("serve.net.frames", sut.net_frames as f64);
        sheet.set("serve.net.duplicates", sut.net_duplicates as f64);
        sheet.set("serve.net.out_of_order", sut.net_out_of_order as f64);
        sheet.set("serve.net.decode_errors", sut.net_decode_errors as f64);
        sheet.set("serve.coordinator.stale_boards", sut.stale_boards as f64);
        sheet.set("serve.coordinator.disconnects", sut.disconnects as f64);

        for stage in STAGES {
            let hist = traced_sut.stages.iter().find(|h| h.stage == stage);
            let (sum_ns, p99_ns) = hist.map_or((0, 0), |h| (h.sum_ns, h.p99_ns));
            sheet.set(
                &format!("stage.{stage}.us_per_snap"),
                sum_ns as f64 / 1e3 / traced_snaps as f64,
            );
            sheet.set(&format!("stage.{stage}.p99_us"), p99_ns as f64 / 1e3);
        }
        sheet.set(
            "obs.trace_overhead_share",
            if snaps_per_s > 0.0 {
                1.0 - traced_rate / snaps_per_s
            } else {
                0.0
            },
        );
        stages = traced_sut.stages;

        let frames = frames
            .unwrap_or_else(|| Frames::encode(&fixture, sut::PROBE_FRAMES.min(fixture.frames())));
        probe_layers(
            &fixture, &frames, &reference, sizes, &mut sheet, &mut spans, &mut notes,
        );
        sheet.set("proc.rss_peak_mb", rss_peak_mb());
    }

    let complete = if traced {
        sheet.per_layer().is_ok()
    } else {
        sheet.end_to_end().is_ok()
    };
    let correct = failed == 0 && counters_ok && complete && snaps_per_s > 0.0;
    Ok(Outcome {
        workload: spec.name,
        seed,
        traced,
        sheet,
        attempted: attempted as u64,
        failed: failed as u64,
        correct,
        notes,
        stages,
        spans,
    })
}

/// The layer probes: single-threaded, on the workload's own engine and
/// frames, each the median of [`PROBE_BATCHES`] batches.
fn probe_layers(
    fixture: &Fixture,
    frames: &Frames,
    reference: &Reference,
    sizes: &Sizes,
    sheet: &mut Sheet,
    spans: &mut SpanLog,
    notes: &mut Vec<String>,
) {
    let probes = spans.open("probes", Some(SpanLog::ROOT));
    // The reference pass is itself the single-threaded baseline.
    let step_ns = reference.elapsed.as_secs_f64() * 1e9;
    sheet.set(
        "detect.step_us_per_snap",
        step_ns / 1e3 / reference.len().max(1) as f64,
    );
    sheet.set(
        "detect.step_ns_per_pair",
        step_ns / reference.pairs_scored.max(1) as f64,
    );
    sheet.set(
        "core.row_cache_bytes_per_model",
        reference.row_cache_bytes_per_model(),
    );
    sheet.set(
        "serve.wire.bytes_per_frame",
        frames.total_bytes() as f64 / frames.len().max(1) as f64,
    );
    sheet.set(
        "serve.remote.board_bytes",
        sut::board_bytes(reference) as f64,
    );

    for mut probe in sut::timed_probes(fixture, frames, reference) {
        let mut per_op_ns = Vec::with_capacity(PROBE_BATCHES);
        for _ in 0..PROBE_BATCHES {
            let span = spans.open(probe.metric, Some(probes));
            let (mut ops, mut elapsed) = (0usize, Duration::ZERO);
            while elapsed < sizes.probe_batch || ops == 0 {
                let (n, took) = (probe.run)();
                if n == 0 {
                    break;
                }
                ops += n;
                elapsed += took;
            }
            spans.close(span, ops as u64);
            per_op_ns.push(elapsed.as_secs_f64() * 1e9 / ops.max(1) as f64);
        }
        sheet.set(probe.metric, median(&per_op_ns) / probe.unit_ns);
    }

    // The engine without TCP in front, one shard and two; the two-shard
    // engine is then checkpointed and recovered.
    let scratch = out_dir().join(format!("tmp-{}", std::process::id()));
    let span = spans.open("inproc", Some(probes));
    let one = sut::inproc(fixture, 1, sizes.warm, sizes.inproc, None);
    let two = sut::inproc(
        fixture,
        sut::SHARDS,
        sizes.warm,
        sizes.inproc,
        Some(&scratch.join("checkpoint")),
    );
    spans.close(span, 2 * sizes.inproc as u64);
    let (one_rate, two_rate, checkpoint) = match (one, two) {
        (Ok((one, _)), Ok((two, cost))) => (one, two, cost.unwrap_or_default()),
        (one, two) => {
            notes.push(format!(
                "in-process engine probe failed: {:?} {:?}",
                one.err(),
                two.err()
            ));
            (0.0, 0.0, Default::default())
        }
    };
    sheet.set("serve.engine.inproc_snaps_per_s_1shard", one_rate);
    sheet.set("serve.engine.inproc_snaps_per_s_2shard", two_rate);
    sheet.set(
        "serve.engine.shard_scaling",
        if one_rate > 0.0 {
            two_rate / one_rate
        } else {
            0.0
        },
    );
    sheet.set("serve.checkpoint.write_ms", checkpoint.write_ms);
    sheet.set("serve.checkpoint.bytes", checkpoint.bytes as f64);
    sheet.set("serve.checkpoint.recover_ms", checkpoint.recover_ms);

    let span = spans.open("history", Some(probes));
    let history = sut::history_cost(reference, &scratch.join("history")).unwrap_or_else(|e| {
        notes.push(format!("history store probe failed: {e}"));
        Default::default()
    });
    spans.close(span, reference.len() as u64);
    sheet.set(
        "serve.history.append_us_per_report",
        history.append_us_per_report,
    );
    sheet.set(
        "store.seal_ms_per_1k_reports",
        history.seal_ms_per_1k_reports,
    );
    sheet.set("store.bytes_per_report", history.bytes_per_report);
    let _ = std::fs::remove_dir_all(&scratch);
    spans.close(probes, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// All four workloads, both ways, at about a fiftieth of the size,
    /// through the code path the real runs take.
    #[test]
    fn every_workload_runs_small_and_comes_out_correct() {
        for spec in &WORKLOADS {
            for traced in [false, true] {
                let sizes = Sizes {
                    warm: spec.warm / 50 + 10,
                    rounds: 2,
                    verify: 50,
                    setups: 1,
                    ..Sizes::for_run(spec, 15.0 / 50.0, traced)
                };
                let outcome = run(spec, &sizes, 7, traced).expect("the system starts");
                let what = format!("{} traced={traced}: {:?}", spec.name, outcome.notes);
                // Tests share the machine with each other, so the open
                // loop may be void; nothing else may go wrong.
                if outcome.notes.iter().all(|note| !note.starts_with("paced:")) {
                    assert!(outcome.correct, "{what}");
                    assert_eq!(outcome.failed, 0, "{what}");
                }
                let expected = sizes.warm + sizes.saturate + sizes.rounds * sizes.paced;
                let traced_frames = if traced {
                    sizes.warm + sizes.saturate
                } else {
                    0
                };
                assert_eq!(
                    outcome.attempted,
                    (expected + traced_frames) as u64,
                    "{what}"
                );
                let rows = if traced {
                    outcome.sheet.per_layer()
                } else {
                    outcome.sheet.end_to_end()
                };
                let rows = rows.unwrap_or_else(|missing| panic!("{what}: missing {missing:?}"));
                assert!(rows.iter().all(|m| m.value.is_finite()), "{what}");
                if traced {
                    assert_eq!(outcome.stages.len(), 7, "{what}");
                    assert!(outcome.sheet.get("stage.score.us_per_snap").unwrap() > 0.0);
                    assert!(outcome.spans.spans().iter().any(|s| s.name == "e2e"));
                    if spec.disorder.is_some() {
                        assert!(outcome.sheet.get("serve.net.out_of_order").unwrap() > 0.0);
                        assert!(outcome.sheet.get("serve.net.duplicates").unwrap() > 0.0);
                    }
                } else {
                    assert!(rows.iter().all(|m| m.value > 0.0), "{what}");
                }
            }
        }
    }

    #[test]
    fn process_counters_read_something_on_linux() {
        if std::path::Path::new("/proc/self/stat").exists() {
            let before = cpu_seconds();
            let mut x = 0u64;
            while cpu_seconds() - before < 0.02 {
                x = std::hint::black_box(x.wrapping_add(1));
            }
            assert!(rss_peak_mb() > 1.0);
        }
    }
}
