//! The four named workloads and how large a run of each is.
//!
//! A workload is a fixture (how many machines, how many pairs, adaptive
//! or frozen models), a serving path, and two rates. Both rates are
//! constants: `nominal_rate` only sizes the closed-loop phase so that it
//! lasts about its share of `--seconds` on this class of machine, and
//! `paced_rate` (about a third of what the path sustained when the workload
//! was defined) is the open loop's offered load. Neither is derived at
//! run time, so two commits are always offered the same work.

use std::time::Duration;

use crate::sut::FixtureSpec;

/// Which serving path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `NetServer` over loopback TCP, two local shards.
    Net,
    /// `Coordinator` and two `ShardWorker`s over loopback TCP.
    Fabric,
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Permanent name.
    pub name: &'static str,
    /// Why the workload exists, in one line (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// The serving path under test.
    pub path: Path,
    /// What the engine and snapshots are made from.
    pub fixture: FixtureSpec,
    /// Share of frames sent in swapped adjacent pairs, and sent twice.
    pub disorder: Option<(f64, f64)>,
    /// Snapshots per second the closed loop is sized for.
    pub nominal_rate: f64,
    /// Snapshots per second the open loop offers.
    pub paced_rate: f64,
    /// Closed-loop snapshots sent before anything is measured: they fill
    /// row caches, start lazy threads, and keep both cores busy for the
    /// two seconds this machine takes to reach full clock speed.
    pub warm: usize,
    /// Most snapshots in the closed loop, however long the run.
    pub max_saturate: usize,
    /// Leading reports compared bit for bit with the single-threaded
    /// reference. The reference costs as much as serving them on one
    /// core, which is what caps it on the adaptive workload.
    pub verify: usize,
}

/// The ledger's workloads. Names are permanent.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "score-adaptive",
        why: "paper-default adaptive models: every step recomputes a row, so scoring is nearly all busy time",
        path: Path::Net,
        fixture: FixtureSpec {
            machines: 4,
            max_pairs: 120,
            frozen: false,
        },
        disorder: None,
        nominal_rate: 200.0,
        paced_rate: 60.0,
        warm: 300,
        // Adaptive models keep learning, and what they learn depends on
        // the seed: the longer the trace, the further apart two seeds'
        // grids and row costs drift. Two and a half trace days keep runs
        // with different seeds within a few percent of each other.
        max_saturate: 600,
        verify: 120,
    },
    Spec {
        name: "score-frozen",
        why: "frozen models: cached-row rank per pair, so scoring shares the time with merge and report",
        path: Path::Net,
        fixture: FixtureSpec {
            machines: 8,
            max_pairs: 400,
            frozen: true,
        },
        disorder: None,
        nominal_rate: 7000.0,
        paced_rate: 2000.0,
        warm: 12_000,
        max_saturate: MAX_SATURATE,
        verify: 1000,
    },
    Spec {
        name: "ingest-wide",
        why: "wide frames, few pairs, swapped and duplicated frames: JSON decode and sequencing dominate, scoring is bypassed",
        path: Path::Net,
        fixture: FixtureSpec {
            machines: 16,
            max_pairs: 40,
            frozen: true,
        },
        disorder: Some((0.02, 0.01)),
        nominal_rate: 9500.0,
        paced_rate: 2000.0,
        warm: 14_000,
        max_saturate: MAX_SATURATE,
        verify: 1000,
    },
    Spec {
        name: "fabric-frozen",
        why: "the score-frozen engine through coordinator and two workers: board encode, decode and merge dominate",
        path: Path::Fabric,
        fixture: FixtureSpec {
            machines: 8,
            max_pairs: 400,
            frozen: true,
        },
        disorder: None,
        nominal_rate: 1250.0,
        paced_rate: 400.0,
        warm: 2500,
        max_saturate: MAX_SATURATE,
        verify: 1000,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

/// Open-loop rounds of an end-to-end run. Latency is taken over all of
/// them together; a round is the unit that a disturbance can void.
const ROUNDS: usize = 9;
/// Fewest snapshots in an open-loop round: the nine rounds of an
/// end-to-end run then leave well over ten samples below their tenth
/// percentile.
const MIN_ROUND: usize = 30;
/// Open-loop rounds of a traced run, whose time also pays for the traced
/// pass and the probes.
const TRACED_ROUNDS: usize = 3;
/// Most snapshots in the closed loop. This many already last three
/// seconds on the fastest workload; beyond it, frames cost set-up time
/// and memory (5 KB each on `ingest-wide`) and buy no steadiness.
const MAX_SATURATE: usize = 30_000;

/// How many snapshots each part of a run handles. Built from `--seconds`
/// by [`Sizes::for_run`]; the smoke test builds one a fiftieth the size
/// and runs the same code.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Warm-up snapshots (excluded).
    pub warm: usize,
    /// Closed-loop snapshots.
    pub saturate: usize,
    /// Open-loop rounds.
    pub rounds: usize,
    /// Snapshots per open-loop round.
    pub paced: usize,
    /// Leading reports verified against the reference.
    pub verify: usize,
    /// Traced run only: snapshots per in-process engine run.
    pub inproc: usize,
    /// Traced run only: how long one probe batch lasts at least.
    pub probe_batch: Duration,
    /// Set-ups timed; their median is `setup_s`.
    pub setups: usize,
}

impl Sizes {
    /// The sizes of a run that measures for about `seconds`.
    ///
    /// An end-to-end run spends 45 % of the time in each loop (less in
    /// the closed one where the workload's cap ends it sooner). A traced
    /// run drives shorter loops, the closed one twice (tracing off, then
    /// on), then the in-process engine runs and the probes.
    pub fn for_run(spec: &Spec, seconds: f64, traced: bool) -> Sizes {
        let (rounds, share) = if traced {
            (TRACED_ROUNDS, 0.15)
        } else {
            (ROUNDS, 0.45)
        };
        let count = |rate: f64, share: f64| (rate * seconds * share) as usize;
        Sizes {
            warm: spec.warm,
            saturate: count(spec.nominal_rate, share).clamp(100, spec.max_saturate),
            rounds,
            paced: (count(spec.paced_rate, share) / rounds).max(MIN_ROUND),
            verify: spec.verify,
            inproc: if traced {
                count(spec.nominal_rate, 0.05).clamp(100, spec.max_saturate)
            } else {
                0
            },
            probe_batch: Duration::from_secs_f64(seconds * 0.004),
            setups: if traced { 1 } else { 3 },
        }
    }

    /// Snapshots the fixture must hold.
    pub fn frames(&self) -> usize {
        (self.warm + self.saturate + self.rounds * self.paced)
            .max(self.warm + self.inproc)
            .max(self.verify)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_unique_and_findable() {
        for spec in &WORKLOADS {
            assert_eq!(find(spec.name), Some(spec));
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
            assert!(spec.paced_rate < spec.nominal_rate * 0.5);
        }
        assert_eq!(find("score"), None);
    }

    #[test]
    fn sizes_follow_seconds_and_cover_every_part() {
        let spec = find("fabric-frozen").unwrap();
        let short = Sizes::for_run(spec, 4.0, false);
        let long = Sizes::for_run(spec, 8.0, false);
        assert_eq!(long.rounds, ROUNDS);
        assert_eq!(long.saturate, 2 * short.saturate);
        assert_eq!(long.paced, 160);
        assert_eq!(long.frames(), long.warm + long.saturate + 9 * long.paced);
        let traced = Sizes::for_run(spec, 8.0, true);
        assert!(traced.rounds < long.rounds && traced.inproc > 0);
        assert_eq!(traced.setups, 1);
        // Every open-loop round can report a median, and no closed loop
        // outgrows its cap.
        for spec in &WORKLOADS {
            for traced in [false, true] {
                let sizes = Sizes::for_run(spec, 15.0, traced);
                assert!(sizes.paced >= MIN_ROUND, "{}", spec.name);
                assert!(sizes.saturate <= spec.max_saturate, "{}", spec.name);
            }
        }
    }
}
