//! The flight recorder: a bounded ring of recent pipeline events.
//!
//! Counters say *how much*; the flight recorder says *what, in what
//! order* — the last few hundred notable events (connections, decode
//! failures, checkpoints, migrations, alarms) with monotonic
//! timestamps. It is always on: events are rare compared to
//! snapshots, the ring is fixed-size, and recording is one short
//! mutex-protected push. The ring is dumped to disk on alarm, panic,
//! or shutdown, and attached to incident reports so an operator sees
//! what the pipeline did in the run-up.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use gridwatch_sync::LeafMutex;
use serde::{Deserialize, Serialize};

/// Default ring capacity.
pub const DEFAULT_CAPACITY: usize = 256;

/// One recorded event. All fields default so the struct can ride
/// inside persisted reports without breaking older readers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Monotonic nanoseconds since the recorder was created.
    #[serde(default)]
    pub at_ns: u64,
    /// Event class (`conn-open`, `decode-error`, `checkpoint`,
    /// `migration`, `alarm`, ...).
    #[serde(default)]
    pub kind: String,
    /// Free-form detail.
    #[serde(default)]
    pub detail: String,
}

struct Ring {
    events: std::collections::VecDeque<FlightEvent>,
    capacity: usize,
    dropped: u64,
}

/// A shareable, bounded event recorder. Clones share the same ring.
#[derive(Clone)]
pub struct FlightRecorder {
    ring: Arc<LeafMutex<Ring>>,
    start: Instant,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_CAPACITY)
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ring = self.ring.lock();
        write!(
            f,
            "FlightRecorder({}/{} events, {} dropped)",
            ring.events.len(),
            ring.capacity,
            ring.dropped
        )
    }
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (at least
    /// one).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Arc::new(LeafMutex::new(Ring {
                events: std::collections::VecDeque::with_capacity(capacity.max(1)),
                capacity: capacity.max(1),
                dropped: 0,
            })),
            start: Instant::now(),
        }
    }

    /// Records one event, evicting the oldest when full.
    pub fn record(&self, kind: &str, detail: impl std::fmt::Display) {
        let event = FlightEvent {
            at_ns: self.start.elapsed().as_nanos() as u64,
            kind: kind.to_string(),
            detail: detail.to_string(),
        };
        let mut ring = self.ring.lock();
        if ring.events.len() >= ring.capacity {
            ring.events.pop_front();
            ring.dropped += 1;
        }
        ring.events.push_back(event);
    }

    /// The recorded events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.ring.lock().events.iter().cloned().collect()
    }

    /// The recorded events plus the global index of the first one,
    /// read under one lock. Every event ever recorded has a stable
    /// global index (evictions advance the base); incremental sinks use
    /// it to ship each event exactly once across repeated snapshots.
    pub fn snapshot_indexed(&self) -> (u64, Vec<FlightEvent>) {
        let ring = self.ring.lock();
        (ring.dropped, ring.events.iter().cloned().collect())
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().dropped
    }

    /// The ring as JSON lines (one event per line, oldest first).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for event in self.snapshot() {
            match serde_json::to_string(&event) {
                Ok(line) => {
                    out.push_str(&line);
                    out.push('\n');
                }
                // Plain-old-data cannot fail to serialize; a dump is
                // never worth a panic regardless.
                Err(_) => out.push_str("{}\n"),
            }
        }
        out
    }

    /// Dumps the ring to `path` as JSON lines, creating parent
    /// directories as needed. Best-effort durability: this runs on
    /// alarms, panics, and shutdown, where a torn dump beats no dump.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json_lines())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let recorder = FlightRecorder::new(3);
        for k in 0..5 {
            recorder.record("tick", format_args!("event {k}"));
        }
        let events: Vec<String> = recorder.snapshot().into_iter().map(|e| e.detail).collect();
        assert_eq!(events, ["event 2", "event 3", "event 4"]);
        assert_eq!(recorder.dropped(), 2);
    }

    #[test]
    fn timestamps_are_monotonic() {
        let recorder = FlightRecorder::new(8);
        recorder.record("a", "first");
        recorder.record("b", "second");
        let events = recorder.snapshot();
        assert!(events[0].at_ns <= events[1].at_ns);
        assert_eq!(events[0].kind, "a");
    }

    #[test]
    fn clones_share_one_ring() {
        let recorder = FlightRecorder::new(4);
        recorder.clone().record("x", "from the clone");
        assert_eq!(recorder.snapshot().len(), 1);
    }

    #[test]
    fn dump_writes_parseable_json_lines() {
        let recorder = FlightRecorder::new(4);
        recorder.record("conn-open", "peer 127.0.0.1:9 conn 0");
        recorder.record("alarm", "system alarm at t=12");
        let dir = std::env::temp_dir().join(format!("gw-obs-rec-{}", std::process::id()));
        let path = dir.join("nested").join("flight.jsonl");
        recorder.dump(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let back: FlightEvent = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(back.kind, "alarm");
        assert_eq!(back.detail, "system alarm at t=12");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_roundtrip_and_default() {
        let event = FlightEvent {
            at_ns: 7,
            kind: "migration".to_string(),
            detail: "shard 2".to_string(),
        };
        let json = serde_json::to_string(&event).unwrap();
        let back: FlightEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
        // Older payloads without the fields parse to defaults.
        let empty: FlightEvent = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, FlightEvent::default());
    }
}
