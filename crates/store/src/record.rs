//! The three record families the history store holds, plus their wire
//! encoding (used verbatim as the WAL payload format).
//!
//! Scores carry their `f64` as raw IEEE-754 bits end to end, so a score
//! read back from the store is bit-identical to the score the engine
//! produced — including NaN payloads, infinities, and `-0.0`.

use crate::codec::{put_string, put_varint, CodecError, Reader};

/// One fitness-score sample: the paper's `Q_t`, `Q^a_t`, or `Q^{a,b}_t`
/// at one sampling instant, keyed by the canonical measurement key
/// (`system`, `m:<measurement>`, or `p:<pair>`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRow {
    /// Sampling instant, in trace seconds.
    pub at: u64,
    /// Canonical measurement key.
    pub key: String,
    /// The fitness score, preserved bit-exactly.
    pub score: f64,
}

/// One serving-stats sample: a `ServeStats` (or fabric stats) JSON
/// document captured at checkpoint cadence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSample {
    /// Capture instant, in trace seconds.
    pub at: u64,
    /// The stats document, verbatim JSON.
    pub payload: String,
}

/// One alarm/incident/pipeline event, mirroring the flight recorder's
/// `FlightEvent` plus the trace instant it was filed under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Filing instant, in trace seconds.
    pub at: u64,
    /// Monotonic nanoseconds from the originating recorder (orders
    /// events within one instant).
    pub at_ns: u64,
    /// Event class (`alarm`, `checkpoint`, `rebuild`, `conn-open`, ...).
    pub kind: String,
    /// Free-form detail.
    pub detail: String,
}

/// One retained trace exemplar: the tail-sampled causal record of a
/// snapshot's trip through the pipeline. The frequently-filtered
/// columns (`source`, `seq`, `alarmed`, `total_ns`) are first-class so
/// `gridwatch trace` can select without parsing; the full span tree
/// rides in `payload` as the exemplar's pinned JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Filing instant, in trace seconds.
    pub at: u64,
    /// The snapshot's sequence number.
    pub seq: u64,
    /// Whether the snapshot raised an alarm.
    pub alarmed: bool,
    /// Sum of all span durations, in nanoseconds.
    pub total_ns: u64,
    /// The snapshot's origin (`local`, `coordinator`, a wire source).
    pub source: String,
    /// The `TraceExemplar` document, verbatim JSON.
    pub payload: String,
}

/// Any record the store can hold.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A fitness-score sample.
    Score(ScoreRow),
    /// A serving-stats sample.
    Stats(StatsSample),
    /// An alarm/incident/pipeline event.
    Event(EventRecord),
    /// A tail-sampled trace exemplar.
    Trace(TraceRecord),
}

/// The record family, used to segregate columnar blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordKind {
    /// [`ScoreRow`] records.
    Score,
    /// [`StatsSample`] records.
    Stats,
    /// [`EventRecord`] records.
    Event,
    /// [`TraceRecord`] records.
    Trace,
}

impl RecordKind {
    /// The on-disk tag byte (pinned as part of the v1 format).
    pub fn tag(self) -> u8 {
        match self {
            RecordKind::Score => 1,
            RecordKind::Stats => 2,
            RecordKind::Event => 3,
            RecordKind::Trace => 4,
        }
    }

    /// Inverse of [`RecordKind::tag`].
    pub fn from_tag(tag: u8) -> Option<RecordKind> {
        match tag {
            1 => Some(RecordKind::Score),
            2 => Some(RecordKind::Stats),
            3 => Some(RecordKind::Event),
            4 => Some(RecordKind::Trace),
            _ => None,
        }
    }

    /// The flag-friendly name (`scores`, `stats`, `events`, `traces`).
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::Score => "scores",
            RecordKind::Stats => "stats",
            RecordKind::Event => "events",
            RecordKind::Trace => "traces",
        }
    }
}

impl std::str::FromStr for RecordKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scores" | "score" => Ok(RecordKind::Score),
            "stats" => Ok(RecordKind::Stats),
            "events" | "event" => Ok(RecordKind::Event),
            "traces" | "trace" => Ok(RecordKind::Trace),
            other => Err(format!(
                "unknown record kind {other:?} (expected scores, stats, events, or traces)"
            )),
        }
    }
}

impl Record {
    /// The record's family.
    pub fn kind(&self) -> RecordKind {
        match self {
            Record::Score(_) => RecordKind::Score,
            Record::Stats(_) => RecordKind::Stats,
            Record::Event(_) => RecordKind::Event,
            Record::Trace(_) => RecordKind::Trace,
        }
    }

    /// The record's sampling instant, in trace seconds.
    pub fn at(&self) -> u64 {
        match self {
            Record::Score(r) => r.at,
            Record::Stats(r) => r.at,
            Record::Event(r) => r.at,
            Record::Trace(r) => r.at,
        }
    }

    /// Encodes the record into the WAL payload format: a tag byte
    /// followed by the family's fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        out.push(self.kind().tag());
        match self {
            Record::Score(r) => {
                put_varint(&mut out, r.at);
                put_string(&mut out, &r.key);
                put_varint(&mut out, r.score.to_bits());
            }
            Record::Stats(r) => {
                put_varint(&mut out, r.at);
                put_string(&mut out, &r.payload);
            }
            Record::Event(r) => {
                put_varint(&mut out, r.at);
                put_varint(&mut out, r.at_ns);
                put_string(&mut out, &r.kind);
                put_string(&mut out, &r.detail);
            }
            Record::Trace(r) => {
                put_varint(&mut out, r.at);
                put_varint(&mut out, r.seq);
                put_varint(&mut out, u64::from(r.alarmed));
                put_varint(&mut out, r.total_ns);
                put_string(&mut out, &r.source);
                put_string(&mut out, &r.payload);
            }
        }
        out
    }

    /// Decodes one WAL payload. The payload must be consumed exactly —
    /// trailing bytes mean a framing bug or corruption.
    pub fn decode(payload: &[u8]) -> Result<Record, CodecError> {
        let mut r = Reader::new(payload);
        let tag = *r
            .take(1)?
            .first()
            .ok_or_else(|| CodecError::new("empty record payload"))?;
        let kind = RecordKind::from_tag(tag)
            .ok_or_else(|| CodecError::new(format!("unknown record tag {tag}")))?;
        let record = match kind {
            RecordKind::Score => Record::Score(ScoreRow {
                at: r.varint()?,
                key: r.string()?,
                score: f64::from_bits(r.varint()?),
            }),
            RecordKind::Stats => Record::Stats(StatsSample {
                at: r.varint()?,
                payload: r.string()?,
            }),
            RecordKind::Event => Record::Event(EventRecord {
                at: r.varint()?,
                at_ns: r.varint()?,
                kind: r.string()?,
                detail: r.string()?,
            }),
            RecordKind::Trace => Record::Trace(TraceRecord {
                at: r.varint()?,
                seq: r.varint()?,
                alarmed: r.varint()? != 0,
                total_ns: r.varint()?,
                source: r.string()?,
                payload: r.string()?,
            }),
        };
        if !r.is_empty() {
            return Err(CodecError::new(format!(
                "{} trailing bytes after a {} record",
                r.remaining(),
                kind.name()
            )));
        }
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_families_roundtrip() {
        let records = [
            Record::Score(ScoreRow {
                at: 5_184_000,
                key: "m:machine-003/CpuUtilization".to_string(),
                score: 0.8173,
            }),
            Record::Stats(StatsSample {
                at: 5_184_360,
                payload: "{\"submitted\":9}".to_string(),
            }),
            Record::Event(EventRecord {
                at: 5_184_720,
                at_ns: 123_456_789,
                kind: "alarm".to_string(),
                detail: "system alarm at t=12".to_string(),
            }),
            Record::Trace(TraceRecord {
                at: 5_185_080,
                seq: 14,
                alarmed: true,
                total_ns: 42_000,
                source: "coordinator".to_string(),
                payload: "{\"seq\":14,\"spans\":[]}".to_string(),
            }),
        ];
        for record in records {
            let bytes = record.encode();
            assert_eq!(Record::decode(&bytes).unwrap(), record);
        }
    }

    #[test]
    fn scores_roundtrip_bit_exactly() {
        for bits in [
            f64::NAN.to_bits() | 0xDEAD, // NaN with a payload
            (-0.0f64).to_bits(),
            f64::NEG_INFINITY.to_bits(),
            0.1f64.to_bits(),
        ] {
            let record = Record::Score(ScoreRow {
                at: 1,
                key: "system".to_string(),
                score: f64::from_bits(bits),
            });
            let back = Record::decode(&record.encode()).unwrap();
            let Record::Score(row) = back else {
                panic!("wrong family");
            };
            assert_eq!(row.score.to_bits(), bits);
        }
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_errors() {
        assert!(Record::decode(&[9, 0]).is_err());
        assert!(Record::decode(&[]).is_err());
        let mut bytes = Record::Stats(StatsSample {
            at: 0,
            payload: "{}".to_string(),
        })
        .encode();
        bytes.push(0);
        assert!(Record::decode(&bytes).is_err());
    }

    #[test]
    fn kind_names_parse_back() {
        for kind in [
            RecordKind::Score,
            RecordKind::Stats,
            RecordKind::Event,
            RecordKind::Trace,
        ] {
            assert_eq!(kind.name().parse::<RecordKind>().unwrap(), kind);
            assert_eq!(RecordKind::from_tag(kind.tag()), Some(kind));
        }
        assert!("bogus".parse::<RecordKind>().is_err());
    }
}
