//! The harness's own spans: one per phase, one per probe batch, and a
//! sample of per-snapshot `e2e` spans, kept in memory and written out
//! with the run. They are recorded around the calls into the program,
//! never inside it; the program's own stage histograms travel beside
//! them.

use std::time::{Duration, Instant};

use crate::json::Value;

/// One closed span. Times are microseconds since the run began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the log; what `parent` refers to.
    pub id: usize,
    /// The span that caused this one (`None` for the run itself).
    pub parent: Option<usize>,
    /// What was running.
    pub name: String,
    /// Start, microseconds since the run began.
    pub start_us: f64,
    /// End, microseconds since the run began.
    pub end_us: f64,
    /// Operations done inside (snapshots, probe iterations).
    pub ops: u64,
}

/// All spans of one workload run; they share `run_id`.
#[derive(Debug, Clone)]
pub struct SpanLog {
    /// The identifier every span of this run shares.
    pub run_id: String,
    began: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// Starts the log and its root span, `run`.
    pub fn begin(run_id: String) -> SpanLog {
        let mut log = SpanLog {
            run_id,
            began: Instant::now(),
            spans: Vec::new(),
        };
        log.open("run", None);
        log
    }

    /// The root span's id.
    pub const ROOT: usize = 0;

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        let now = self.began.elapsed().as_secs_f64() * 1e6;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_us: now,
            end_us: now,
            ops: 0,
        });
        id
    }

    /// Closes span `id` now, crediting it with `ops` operations.
    pub fn close(&mut self, id: usize, ops: u64) {
        let now = self.began.elapsed().as_secs_f64() * 1e6;
        let span = &mut self.spans[id];
        span.end_us = now;
        span.ops = ops;
    }

    /// Records a span that already happened, from offsets relative to
    /// the start of its parent.
    pub fn record(&mut self, name: &str, parent: usize, start: Duration, end: Duration) {
        let base = self.spans[parent].start_us;
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name: name.to_string(),
            start_us: base + start.as_secs_f64() * 1e6,
            end_us: base + end.as_secs_f64() * 1e6,
            ops: 1,
        });
    }

    /// The spans so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as JSON; the root span ends at the time of the call.
    pub fn to_json(&self) -> Value {
        let now = self.began.elapsed().as_secs_f64() * 1e6;
        let span_json = |s: &Span| {
            let end_us = if s.id == Self::ROOT { now } else { s.end_us };
            Value::obj([
                ("id", Value::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("name", Value::str(s.name.clone())),
                ("start_us", Value::Num(s.start_us)),
                ("end_us", Value::Num(end_us)),
                ("ops", Value::Num(s.ops as f64)),
            ])
        };
        Value::obj([
            ("run_id", Value::str(self.run_id.clone())),
            (
                "spans",
                Value::Arr(self.spans.iter().map(span_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_parents_and_share_the_run_id() {
        let mut log = SpanLog::begin("score-frozen-7".to_string());
        let phase = log.open("paced", Some(SpanLog::ROOT));
        log.record(
            "e2e",
            phase,
            Duration::from_micros(100),
            Duration::from_micros(400),
        );
        log.close(phase, 25);
        let json = log.to_json();
        assert_eq!(json.get("run_id").unwrap().as_str(), Some("score-frozen-7"));
        let spans = log.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].ops, 25);
        assert_eq!(spans[2].parent, Some(phase));
        assert!((spans[2].end_us - spans[2].start_us - 300.0).abs() < 1e-6);
        let written = json.get("spans").and_then(Value::as_arr).unwrap();
        let end = |k: usize| written[k].get("end_us").and_then(Value::as_f64).unwrap();
        assert!(end(0) >= end(1), "the root ends last");
    }
}
