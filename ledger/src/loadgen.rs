//! The load generator: what is sent when, and when each report came
//! back. It knows nothing about gridwatch — the system under test is a
//! [`Sink`] that takes frame numbers and a [`Source`] that yields checked
//! reports — so the tests can put a deliberately slow fake behind it.
//!
//! Two loops, both over one connection:
//!
//! * **saturate** — a closed loop: frames go out back to back and the
//!   sender blocks when the system stops reading, so the window is the
//!   socket buffer plus the system's bounded queues (or, on the inline
//!   path, an explicit in-flight window);
//! * **paced** — an open loop at a fixed rate: each frame has a due time,
//!   it is sent no earlier, and its latency is timed *from the due time*,
//!   so a stall in the system (or in the generator) is charged to every
//!   frame that was due during it.

use std::io;
use std::time::{Duration, Instant};

/// A report the [`Source`] has already checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Got {
    /// Pair scores the report recorded.
    pub pairs: usize,
    /// Whether it was the expected report (order, timestamp, score range).
    pub ok: bool,
}

/// Where frames go.
pub trait Sink {
    /// Hands frame `frame` to the system; may block while the system
    /// exerts backpressure. `flush` forces buffered bytes out now.
    fn send(&mut self, frame: usize, flush: bool) -> io::Result<()>;
}

/// Where reports come from, in the order the system emits them.
pub trait Source {
    /// Waits up to `timeout` (zero: do not wait) for the next report.
    fn recv(&mut self, timeout: Duration) -> Option<Got>;
}

/// How long a receive waits before the run is declared wedged.
const STALL: Duration = Duration::from_secs(20);
/// How often the closed loop's receiver looks for reports. Arrival times
/// are late by at most this much, against windows of about a second.
const POLL: Duration = Duration::from_millis(1);

/// One transmission: `frame` goes out in the send slot that in-order
/// frame `slot` would have used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// The frame to send.
    pub frame: usize,
    /// The in-order position whose due time this transmission takes.
    pub slot: usize,
}

/// A contiguous run of unique frames and the order they are sent in.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// First unique frame of the phase.
    pub first: usize,
    /// Unique frames, hence reports expected.
    pub unique: usize,
    /// What is transmitted, in order (longer than `unique` by the
    /// duplicates).
    pub sends: Vec<Transmission>,
    /// Frames per second of the open loop; `None` sends back to back.
    pub rate: Option<f64>,
    /// Adjacent pairs sent in swapped order.
    pub swaps: usize,
    /// Frames sent twice.
    pub duplicates: usize,
}

impl Phase {
    /// Frames `first..first + unique`, each once, in order.
    pub fn in_order(first: usize, unique: usize, rate: Option<f64>) -> Phase {
        Phase::disordered(first, unique, rate, 0, 0.0, 0.0)
    }

    /// As [`Phase::in_order`], but with exactly `round(unique ×
    /// swap_share)` adjacent pairs swapped and `round(unique ×
    /// dup_share)` frames sent twice, at seeded positions that do not
    /// overlap (the phase is cut into blocks of two frames and each
    /// block is disturbed at most once).
    pub fn disordered(
        first: usize,
        unique: usize,
        rate: Option<f64>,
        seed: u64,
        swap_share: f64,
        dup_share: f64,
    ) -> Phase {
        let blocks = unique / 2;
        let swaps = ((unique as f64 * swap_share).round() as usize).min(blocks);
        let duplicates = ((unique as f64 * dup_share).round() as usize).min(blocks - swaps);
        // Partial Fisher–Yates: the first `swaps + duplicates` entries
        // are a uniform sample of distinct blocks.
        let mut order: Vec<usize> = (0..blocks).collect();
        let mut rng = SplitMix64(seed ^ (first as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut fate = vec![Fate::InOrder; blocks];
        for i in 0..swaps + duplicates {
            let j = i + (rng.next() % (blocks - i) as u64) as usize;
            order.swap(i, j);
            fate[order[i]] = if i < swaps {
                Fate::Swap
            } else {
                Fate::Duplicate
            };
        }
        let mut sends = Vec::with_capacity(unique + duplicates);
        let at = |k: usize, slot: usize| Transmission {
            frame: first + k,
            slot: first + slot,
        };
        for (block, fate) in fate.iter().enumerate() {
            let k = 2 * block;
            match fate {
                Fate::InOrder => sends.extend([at(k, k), at(k + 1, k + 1)]),
                Fate::Swap => sends.extend([at(k + 1, k), at(k, k + 1)]),
                Fate::Duplicate => sends.extend([at(k, k), at(k, k), at(k + 1, k + 1)]),
            }
        }
        if unique % 2 == 1 {
            sends.push(at(unique - 1, unique - 1));
        }
        Phase {
            first,
            unique,
            sends,
            rate,
            swaps,
            duplicates,
        }
    }

    /// Seconds between due times of the open loop.
    pub fn interval(&self) -> Option<Duration> {
        self.rate.map(|rate| Duration::from_secs_f64(1.0 / rate))
    }

    /// When in-order position `slot` is due, from the phase's start.
    fn due(&self, slot: usize) -> Option<Duration> {
        self.rate
            .map(|rate| Duration::from_secs_f64((slot - self.first) as f64 / rate))
    }
}

#[derive(Clone, Copy)]
enum Fate {
    InOrder,
    Swap,
    Duplicate,
}

/// The generator's seeded randomness (no dependency, fixed algorithm:
/// the same seed must place the same swaps on every machine).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// What happened in one phase. Times are offsets from the phase's start.
#[derive(Debug, Clone, Default)]
pub struct PhaseLog {
    /// When report `k` of the phase arrived.
    pub arrivals: Vec<Duration>,
    /// Pair scores report `k` recorded.
    pub pairs: Vec<f64>,
    /// Reports the source flagged as not the expected one.
    pub bad: usize,
    /// Open loop only: how long after its due time each transmission
    /// actually went out.
    pub late: Vec<Duration>,
    /// Transmissions made.
    pub sent: usize,
    /// Why the phase stopped early, if it did.
    pub error: Option<String>,
}

impl PhaseLog {
    fn record(&mut self, began: Instant, got: Got) {
        self.arrivals.push(began.elapsed());
        self.pairs.push(got.pairs as f64);
        if !got.ok {
            self.bad += 1;
        }
    }

    /// Whether every expected report arrived and nothing failed.
    pub fn complete(&self, phase: &Phase) -> bool {
        self.error.is_none() && self.arrivals.len() == phase.unique
    }

    /// Open loop: report latency in milliseconds, each from the instant
    /// its frame was due (not from when it was actually sent).
    pub fn latencies_ms(&self, phase: &Phase) -> Vec<f64> {
        self.arrivals
            .iter()
            .enumerate()
            .filter_map(|(k, arrival)| {
                let due = phase.due(phase.first + k)?;
                Some(arrival.saturating_sub(due).as_secs_f64() * 1e3)
            })
            .collect()
    }

    /// Open loop: whether most transmissions went out more than one
    /// interval after they were due — the generator, not the system, set
    /// the pace. Every late send is already charged to its frame's
    /// latency (which runs from the due time), and on a box that stalls
    /// for a tenth of a second now and then a fixed small share of late
    /// frames is ordinary, so only a generator that is behind for most
    /// of the phase voids it.
    pub fn mostly_late(&self, phase: &Phase) -> bool {
        let Some(interval) = phase.interval() else {
            return false;
        };
        let late = self.late.iter().filter(|&&l| l > interval).count();
        2 * late > self.late.len()
    }

    /// Open loop: reports still outstanding at the last due time.
    pub fn backlog_at_last_due(&self, phase: &Phase) -> usize {
        let Some(last_due) = phase.due(phase.first + phase.unique.saturating_sub(1)) else {
            return 0;
        };
        phase.unique - self.arrivals.iter().filter(|&&a| a <= last_due).count()
    }
}

fn sleep_until(began: Instant, due: Duration) {
    let now = began.elapsed();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// The sending loop of [`drive_split`].
fn transmit(sink: &mut impl Sink, phase: &Phase, began: Instant, log: &mut PhaseLog) {
    for (n, t) in phase.sends.iter().enumerate() {
        let flush = match phase.due(t.slot) {
            Some(due) => {
                sleep_until(began, due);
                log.late.push(began.elapsed().saturating_sub(due));
                true
            }
            None => n + 1 == phase.sends.len(),
        };
        if let Err(e) = sink.send(t.frame, flush) {
            log.error = Some(format!("send of frame {} failed: {e}", t.frame));
            return;
        }
        log.sent += 1;
    }
}

/// Drives one phase from two threads: a sender that owns the sink and
/// this thread, which receives. Returns when every report has arrived
/// or the system has been silent for [`STALL`].
pub fn drive_split<K, R>(sink: &mut K, source: &mut R, phase: &Phase) -> PhaseLog
where
    K: Sink + Send,
    R: Source,
{
    let began = Instant::now();
    let mut log = PhaseLog::default();
    let mut sender_log = PhaseLog::default();
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| transmit(sink, phase, began, &mut sender_log));
        let mut last = Instant::now();
        while log.arrivals.len() < phase.unique {
            // Closed loop: poll, so that this thread is not woken once
            // per report on the cores the system needs. Open loop: block,
            // because every arrival time is a latency sample.
            let got = if phase.rate.is_none() {
                source.recv(Duration::ZERO).or_else(|| {
                    std::thread::sleep(POLL);
                    None
                })
            } else {
                source.recv(STALL)
            };
            match got {
                Some(got) => {
                    log.record(began, got);
                    last = Instant::now();
                }
                None if last.elapsed() < STALL => {}
                None => {
                    log.error = Some(format!(
                        "no report for {STALL:?} after {} of {}",
                        log.arrivals.len(),
                        phase.unique
                    ));
                    break;
                }
            }
        }
        // A sender blocked on a wedged system ends on its write timeout.
        sender.join().expect("sender thread panicked");
    });
    log.late = sender_log.late;
    log.sent = sender_log.sent;
    log.error = sender_log.error.or(log.error);
    log
}

/// Drives one phase from this thread alone, for a system whose send and
/// receive sides are one object: receive while waiting for the next due
/// time (open loop) or while more than `window` frames are in flight
/// (closed loop), and drain after every send.
pub fn drive_inline<P>(port: &mut P, phase: &Phase, window: usize) -> PhaseLog
where
    P: Sink + Source,
{
    let began = Instant::now();
    let mut log = PhaseLog::default();
    'sends: for t in &phase.sends {
        match phase.due(t.slot) {
            Some(due) => {
                loop {
                    let now = began.elapsed();
                    if now >= due {
                        break;
                    }
                    if let Some(got) = port.recv(due - now) {
                        log.record(began, got);
                    }
                }
                log.late.push(began.elapsed().saturating_sub(due));
            }
            None => {
                while log.sent - log.arrivals.len() >= window {
                    match port.recv(STALL) {
                        Some(got) => log.record(began, got),
                        None => {
                            log.error = Some(format!("no report for {STALL:?} with a full window"));
                            break 'sends;
                        }
                    }
                }
            }
        }
        if let Err(e) = port.send(t.frame, true) {
            log.error = Some(format!("send of frame {} failed: {e}", t.frame));
            break;
        }
        log.sent += 1;
        while let Some(got) = port.recv(Duration::ZERO) {
            log.record(began, got);
        }
    }
    while log.error.is_none() && log.arrivals.len() < phase.unique {
        match port.recv(STALL) {
            Some(got) => log.record(began, got),
            None => log.error = Some(format!("no report for {STALL:?} while draining")),
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::mpsc;

    #[test]
    fn disorder_injects_exact_counts_without_losing_or_inventing_frames() {
        for (unique, seed) in [(1000, 1u64), (1001, 2), (40_000, 3), (7, 4), (2, 5)] {
            let phase = Phase::disordered(500, unique, None, seed, 0.02, 0.01);
            assert_eq!(phase.swaps, (unique as f64 * 0.02).round() as usize);
            assert_eq!(phase.duplicates, (unique as f64 * 0.01).round() as usize);
            assert_eq!(phase.sends.len(), unique + phase.duplicates);

            // Every frame is sent, duplicates exactly twice.
            let mut times = vec![0usize; unique];
            for t in &phase.sends {
                times[t.frame - 500] += 1;
            }
            assert!(times.iter().all(|&n| n == 1 || n == 2));
            assert_eq!(times.iter().filter(|&&n| n == 2).count(), phase.duplicates);

            // A sequencer sees exactly `swaps` frames ahead of a gap and
            // `duplicates` repeats, and releases everything in order.
            let (mut next, mut early, mut repeats) = (500, 0, 0);
            let mut held: Option<usize> = None;
            for t in &phase.sends {
                if t.frame < next || held == Some(t.frame) {
                    repeats += 1;
                } else if t.frame == next {
                    next += 1;
                    if held == Some(next) {
                        held = None;
                        next += 1;
                    }
                } else {
                    assert_eq!(t.frame, next + 1, "only adjacent swaps");
                    assert!(held.is_none());
                    held = Some(t.frame);
                    early += 1;
                }
            }
            assert_eq!(next, 500 + unique);
            assert_eq!(early, phase.swaps);
            assert_eq!(repeats, phase.duplicates);
        }
    }

    #[test]
    fn disorder_is_a_function_of_the_seed() {
        let a = Phase::disordered(0, 5000, None, 9, 0.02, 0.01);
        let b = Phase::disordered(0, 5000, None, 9, 0.02, 0.01);
        let c = Phase::disordered(0, 5000, None, 10, 0.02, 0.01);
        assert_eq!(a, b);
        assert_ne!(a.sends, c.sends);
        let plain = Phase::in_order(3, 4, Some(10.0));
        let frames: Vec<usize> = plain.sends.iter().map(|t| t.frame).collect();
        assert_eq!(frames, [3, 4, 5, 6]);
        assert_eq!((plain.swaps, plain.duplicates), (0, 0));
    }

    /// A fake system: reports each frame `service` after it was sent,
    /// except that it freezes for `stall` when frame `stall_at` arrives.
    struct FakePort {
        began: Instant,
        service: Duration,
        stall_at: usize,
        stall: Duration,
        ready_at: VecDeque<Duration>,
        frozen_until: Duration,
    }

    impl Sink for FakePort {
        fn send(&mut self, frame: usize, _flush: bool) -> io::Result<()> {
            let now = self.began.elapsed();
            if frame == self.stall_at {
                self.frozen_until = now + self.stall;
            }
            let free = self.ready_at.back().copied().unwrap_or_default();
            let start = now.max(self.frozen_until).max(free);
            self.ready_at.push_back(start + self.service);
            Ok(())
        }
    }

    impl Source for FakePort {
        fn recv(&mut self, timeout: Duration) -> Option<Got> {
            let ready = *self.ready_at.front()?;
            let now = self.began.elapsed();
            if ready > now {
                if ready - now > timeout {
                    std::thread::sleep(timeout);
                    return None;
                }
                std::thread::sleep(ready - now);
            }
            self.ready_at.pop_front();
            Some(Got { pairs: 3, ok: true })
        }
    }

    #[test]
    fn latency_is_timed_from_the_due_time_under_a_stalled_server() {
        // 200 frames at 1000/s; the fake freezes for 50 ms at frame 60.
        let phase = Phase::in_order(0, 200, Some(1000.0));
        let mut port = FakePort {
            began: Instant::now(),
            service: Duration::from_micros(100),
            stall_at: 60,
            stall: Duration::from_millis(50),
            ready_at: VecDeque::new(),
            frozen_until: Duration::ZERO,
        };
        let log = drive_inline(&mut port, &phase, usize::MAX);
        assert!(log.complete(&phase), "{:?}", log.error);
        assert_eq!(log.sent, 200);
        let latencies = log.latencies_ms(&phase);
        // The frame that hit the stall waited the whole stall …
        assert!(latencies[60] >= 50.0, "{}", latencies[60]);
        // … and so did the frames that were due during it, each a
        // millisecond less: send-time latency would call them fast.
        assert!(latencies[70] >= 39.0, "{}", latencies[70]);
        assert!(latencies[100] >= 9.0, "{}", latencies[100]);
        // Before the stall, and once the queue has drained, latency is
        // the service time plus scheduling noise.
        let before = crate::stats::median(&latencies[..60]);
        let after = crate::stats::median(&latencies[150..]);
        assert!(before < 5.0, "{before}");
        assert!(after < 5.0, "{after}");
        assert_eq!(log.backlog_at_last_due(&phase), 1);
        assert!(!log.mostly_late(&phase), "the generator kept its schedule");
        assert!(log.pairs.iter().all(|&p| p == 3.0));
    }

    /// A fake system behind a channel, for the two-thread driver.
    struct ChannelSink(mpsc::Sender<usize>);
    struct ChannelSource(mpsc::Receiver<usize>, usize);

    impl Sink for ChannelSink {
        fn send(&mut self, frame: usize, _flush: bool) -> io::Result<()> {
            self.0.send(frame).map_err(io::Error::other)
        }
    }

    impl Source for ChannelSource {
        fn recv(&mut self, timeout: Duration) -> Option<Got> {
            let frame = self.0.recv_timeout(timeout).ok()?;
            let ok = frame == self.1;
            self.1 += 1;
            Some(Got { pairs: 1, ok })
        }
    }

    #[test]
    fn split_driver_sends_everything_and_counts_misordered_reports() {
        let (tx, rx) = mpsc::channel();
        // The fake echoes transmissions, so the swapped pair arrives
        // misordered and the source flags both of its reports.
        let phase = Phase::disordered(0, 100, None, 1, 0.01, 0.0);
        let log = drive_split(&mut ChannelSink(tx), &mut ChannelSource(rx, 0), &phase);
        assert!(log.complete(&phase), "{:?}", log.error);
        assert_eq!(log.sent, 100);
        assert_eq!(log.bad, 2);
        assert!(log.late.is_empty(), "closed loop has no due times");
        assert!(!log.mostly_late(&phase));
    }
}
