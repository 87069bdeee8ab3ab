//! The snapshot wire protocol: framing and codecs for network ingestion.
//!
//! Two encodings carry the same logical frame — a `(source, seq,
//! snapshot)` triple:
//!
//! * **Length-prefixed JSON**: a 4-byte big-endian payload length
//!   followed by that many bytes of JSON
//!   (`{"source":..,"seq":..,"at_secs":..,"values":[[machine,metric,value],..]}`).
//! * **Newline-delimited CSV**: one line per snapshot,
//!   `source,seq,at_secs[,machine,metric,value]...`, `nc`-friendly.
//!
//! A connection speaks exactly one encoding. Under
//! [`WireProtocol::Auto`] the listener detects it from the first byte:
//! `0x00` means a length prefix (every JSON frame shorter than 16 MiB
//! starts with a zero byte), anything else starts a CSV line (sources
//! are printable and never begin with NUL). Auto-detection therefore
//! requires the *first* JSON frame of a connection to be under 16 MiB;
//! pin the protocol explicitly to go larger.
//!
//! [`FrameDecoder`] is an incremental per-connection state machine: feed
//! it whatever byte chunks the socket yields ([`FrameDecoder::push`])
//! and pop complete frames ([`FrameDecoder::next_frame`]). It never
//! panics on hostile input — truncated prefixes, interleaved partial
//! writes, garbage bytes, and oversized claims all surface as typed
//! [`DecodeError`]s or as patient `Ok(None)` waits for more bytes.

#![cfg_attr(
    not(test),
    forbid(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use gridwatch_detect::Snapshot;
use gridwatch_timeseries::{MachineId, MeasurementId, MetricKind, Timestamp};

/// Frames larger than this cannot be auto-detected as JSON (their length
/// prefix would not start with a zero byte).
pub const AUTO_DETECT_FRAME_LIMIT: usize = 1 << 24;

/// Which encoding a listener accepts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WireProtocol {
    /// Detect per connection from the first byte.
    #[default]
    Auto,
    /// Length-prefixed JSON frames only.
    Json,
    /// Newline-delimited CSV lines only.
    Csv,
}

impl fmt::Display for WireProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireProtocol::Auto => write!(f, "auto"),
            WireProtocol::Json => write!(f, "json"),
            WireProtocol::Csv => write!(f, "csv"),
        }
    }
}

/// Error parsing a [`WireProtocol`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProtocolError {
    offered: String,
}

impl fmt::Display for ParseProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown wire protocol {:?} (expected auto, json, or csv)",
            self.offered
        )
    }
}

impl std::error::Error for ParseProtocolError {}

impl FromStr for WireProtocol {
    type Err = ParseProtocolError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(WireProtocol::Auto),
            "json" => Ok(WireProtocol::Json),
            "csv" => Ok(WireProtocol::Csv),
            other => Err(ParseProtocolError {
                offered: other.to_string(),
            }),
        }
    }
}

/// One decoded wire message: a snapshot stamped with its origin and the
/// origin's own sequence number (used for duplicate suppression and
/// reordering, see [`crate::SourceTable`]).
#[derive(Debug, Clone, PartialEq)]
pub struct WireFrame {
    /// Stable identity of the sending agent; sequencing state survives
    /// reconnects because it is keyed by this, not by the connection.
    pub source: String,
    /// The source's frame counter, starting at 0 and incremented per
    /// snapshot.
    pub seq: u64,
    /// The measurements.
    pub snapshot: Snapshot,
}

/// Why a frame could not be encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The source name is empty or contains a delimiter/control byte.
    BadSource(String),
    /// The snapshot could not be serialized. Frames hold plain data, so
    /// this indicates a serializer defect rather than bad input — but a
    /// listener must report it, not panic on it.
    Payload(String),
    /// The encoded payload exceeds the wire format's frame limit.
    Oversized {
        /// Encoded payload size in bytes.
        len: usize,
        /// The wire format's limit in bytes.
        max: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::BadSource(s) => write!(
                f,
                "source {s:?} must be non-empty printable text without commas"
            ),
            EncodeError::Payload(why) => write!(f, "frame payload failed to serialize: {why}"),
            EncodeError::Oversized { len, max } => {
                write!(
                    f,
                    "frame payload of {len} bytes exceeds the {max}-byte limit"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Why bytes could not be decoded into a frame.
#[derive(Debug)]
pub enum DecodeError {
    /// A JSON length prefix (or an unterminated CSV line) exceeds the
    /// configured frame limit.
    Oversized {
        /// Claimed (or buffered) byte count.
        len: usize,
        /// The configured limit.
        max: usize,
    },
    /// The connection ended mid-frame.
    Truncated {
        /// Bytes left undecodable in the buffer.
        buffered: usize,
    },
    /// A frame payload or CSV line was not valid UTF-8.
    BadUtf8,
    /// A JSON payload did not parse into a frame.
    BadJson(String),
    /// A CSV line did not parse into a frame.
    BadCsv(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            DecodeError::Truncated { buffered } => {
                write!(f, "connection ended mid-frame ({buffered} bytes pending)")
            }
            DecodeError::BadUtf8 => write!(f, "frame is not valid UTF-8"),
            DecodeError::BadJson(why) => write!(f, "bad JSON frame: {why}"),
            DecodeError::BadCsv(why) => write!(f, "bad CSV line: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The JSON payload layout. Measurement identifiers travel in their
/// display forms (`machine-003`, `CpuUtilization`) so frames stay
/// readable and survive schema-ignorant relays.
#[derive(Serialize, Deserialize)]
struct JsonFrame {
    source: String,
    seq: u64,
    at_secs: u64,
    values: Vec<(String, String, f64)>,
}

fn source_is_valid(source: &str) -> bool {
    !source.is_empty()
        && source
            .chars()
            .all(|c| !c.is_control() && c != ',' && c != '\u{0}')
}

fn check_source(source: &str) -> Result<(), EncodeError> {
    if source_is_valid(source) {
        Ok(())
    } else {
        Err(EncodeError::BadSource(source.to_string()))
    }
}

/// Encodes a frame as a length-prefixed JSON message.
///
/// # Errors
///
/// Fails when the source name is invalid, the payload cannot be
/// serialized, or the payload exceeds [`AUTO_DETECT_FRAME_LIMIT`] (real
/// snapshots are orders of magnitude smaller); see [`EncodeError`].
pub fn encode_json(frame: &WireFrame) -> Result<Vec<u8>, EncodeError> {
    check_source(&frame.source)?;
    let payload = serde_json::to_vec(&JsonFrame {
        source: frame.source.clone(),
        seq: frame.seq,
        at_secs: frame.snapshot.at().as_secs(),
        values: frame
            .snapshot
            .iter()
            .map(|(id, v)| (id.machine().to_string(), id.metric().to_string(), v))
            .collect(),
    })
    .map_err(|e| EncodeError::Payload(e.to_string()))?;
    if payload.len() >= AUTO_DETECT_FRAME_LIMIT {
        return Err(EncodeError::Oversized {
            len: payload.len(),
            max: AUTO_DETECT_FRAME_LIMIT,
        });
    }
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// Encodes a frame as one newline-terminated CSV line.
///
/// Values print in Rust's shortest round-trip form, so decode is
/// bit-exact.
///
/// # Errors
///
/// Fails when the source name is invalid (see [`EncodeError`]).
pub fn encode_csv(frame: &WireFrame) -> Result<String, EncodeError> {
    check_source(&frame.source)?;
    let mut line = format!(
        "{},{},{}",
        frame.source,
        frame.seq,
        frame.snapshot.at().as_secs()
    );
    for (id, v) in frame.snapshot.iter() {
        use std::fmt::Write;
        // `fmt::Write` to a String is infallible.
        let _ = write!(line, ",{},{},{v}", id.machine(), id.metric());
    }
    line.push('\n');
    Ok(line)
}

fn parse_measurement(machine: &str, metric: &str) -> Result<MeasurementId, String> {
    let machine: MachineId = machine.trim().parse().map_err(|e| format!("{e}"))?;
    let metric: MetricKind = metric.trim().parse().map_err(|e| format!("{e}"))?;
    Ok(MeasurementId::new(machine, metric))
}

pub(crate) fn decode_json_payload(payload: &[u8]) -> Result<WireFrame, DecodeError> {
    let parsed: JsonFrame =
        serde_json::from_slice(payload).map_err(|e| DecodeError::BadJson(e.to_string()))?;
    if !source_is_valid(&parsed.source) {
        return Err(DecodeError::BadJson(format!(
            "invalid source {:?}",
            parsed.source
        )));
    }
    let mut snapshot = Snapshot::new(Timestamp::from_secs(parsed.at_secs));
    for (machine, metric, value) in &parsed.values {
        let id = parse_measurement(machine, metric).map_err(DecodeError::BadJson)?;
        snapshot.insert(id, *value);
    }
    Ok(WireFrame {
        source: parsed.source,
        seq: parsed.seq,
        snapshot,
    })
}

fn decode_csv_line(line: &str) -> Result<WireFrame, DecodeError> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    let bad = |why: String| DecodeError::BadCsv(why);
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() < 3 {
        return Err(bad(format!(
            "expected source,seq,at_secs[,machine,metric,value]..., found {} fields",
            fields.len()
        )));
    }
    let source = fields[0].trim();
    if !source_is_valid(source) {
        return Err(bad(format!("invalid source {source:?}")));
    }
    let seq: u64 = fields[1]
        .trim()
        .parse()
        .map_err(|e| bad(format!("bad seq: {e}")))?;
    let at_secs: u64 = fields[2]
        .trim()
        .parse()
        .map_err(|e| bad(format!("bad at_secs: {e}")))?;
    let rest = &fields[3..];
    if !rest.len().is_multiple_of(3) {
        return Err(bad(format!(
            "trailing fields must come in machine,metric,value triplets, found {}",
            rest.len()
        )));
    }
    let mut snapshot = Snapshot::new(Timestamp::from_secs(at_secs));
    for triplet in rest.chunks_exact(3) {
        let id = parse_measurement(triplet[0], triplet[1]).map_err(bad)?;
        let value: f64 = triplet[2]
            .trim()
            .parse()
            .map_err(|e| bad(format!("bad value: {e}")))?;
        snapshot.insert(id, value);
    }
    Ok(WireFrame {
        source: source.to_string(),
        seq,
        snapshot,
    })
}

/// The per-connection encoding, once known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Detected {
    Json,
    Csv,
}

/// Incremental frame decoder: one per connection.
///
/// Push raw socket bytes in any chunking; pop frames until `Ok(None)`.
/// After any `Err`, the connection's byte stream is unsynchronized and
/// should be closed — the decoder makes no attempt to resync.
#[derive(Debug)]
pub struct FrameDecoder {
    detected: Option<Detected>,
    max_frame: usize,
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// A decoder accepting frames (or lines) up to `max_frame` bytes.
    ///
    /// # Panics
    ///
    /// Panics when `max_frame` is zero.
    pub fn new(protocol: WireProtocol, max_frame: usize) -> Self {
        assert!(max_frame > 0, "frame limit must be positive");
        FrameDecoder {
            detected: match protocol {
                WireProtocol::Auto => None,
                WireProtocol::Json => Some(Detected::Json),
                WireProtocol::Csv => Some(Detected::Csv),
            },
            max_frame,
            buf: Vec::new(),
        }
    }

    /// Appends raw bytes from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether a partial frame is pending (an EOF now would truncate it).
    pub fn has_partial(&self) -> bool {
        !self.buf.is_empty()
    }

    /// The encoding this connection speaks, once known.
    pub fn protocol_name(&self) -> Option<&'static str> {
        self.detected.map(|d| match d {
            Detected::Json => "json",
            Detected::Csv => "csv",
        })
    }

    /// The [`DecodeError`] for an EOF at the current state, if the EOF
    /// would abandon a partial frame.
    pub fn eof_error(&self) -> Option<DecodeError> {
        self.has_partial().then_some(DecodeError::Truncated {
            buffered: self.buf.len(),
        })
    }

    /// Decodes the next complete frame, or reports that more bytes are
    /// needed (`Ok(None)`).
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`]; the stream is unsynchronized afterwards.
    pub fn next_frame(&mut self) -> Result<Option<WireFrame>, DecodeError> {
        let Some(&first) = self.buf.first() else {
            return Ok(None);
        };
        // A JSON frame under 16 MiB always leads with a zero length
        // byte; CSV sources are printable and never start with NUL.
        let detected = *self.detected.get_or_insert(if first == 0 {
            Detected::Json
        } else {
            Detected::Csv
        });
        match detected {
            Detected::Json => self.next_json_frame(),
            Detected::Csv => self.next_csv_frame(),
        }
    }

    fn next_json_frame(&mut self) -> Result<Option<WireFrame>, DecodeError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len > self.max_frame {
            return Err(DecodeError::Oversized {
                len,
                max: self.max_frame,
            });
        }
        if len == 0 {
            return Err(DecodeError::BadJson("empty frame payload".to_string()));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = decode_json_payload(&self.buf[4..4 + len])?;
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }

    fn next_csv_frame(&mut self) -> Result<Option<WireFrame>, DecodeError> {
        let Some(newline) = self.buf.iter().position(|&b| b == b'\n') else {
            // A line that never ends is a slow-loris or garbage stream.
            if self.buf.len() > self.max_frame {
                return Err(DecodeError::Oversized {
                    len: self.buf.len(),
                    max: self.max_frame,
                });
            }
            return Ok(None);
        };
        if newline > self.max_frame {
            return Err(DecodeError::Oversized {
                len: newline,
                max: self.max_frame,
            });
        }
        let line = std::str::from_utf8(&self.buf[..newline])
            .map_err(|_| DecodeError::BadUtf8)?
            .to_string();
        self.buf.drain(..=newline);
        if line.trim().is_empty() {
            // Blank lines are keep-alive noise, not frames.
            return self.next_frame();
        }
        decode_csv_line(&line).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_timeseries::{MachineId, MetricKind};

    fn sample_frame(seq: u64) -> WireFrame {
        let mut snapshot = Snapshot::new(Timestamp::from_secs(5400));
        snapshot.insert(
            MeasurementId::new(MachineId::new(0), MetricKind::CpuUtilization),
            13.25,
        );
        snapshot.insert(
            MeasurementId::new(MachineId::new(1), MetricKind::Custom(7)),
            -0.875,
        );
        WireFrame {
            source: "agent-1".to_string(),
            seq,
            snapshot,
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let frame = sample_frame(3);
        let bytes = encode_json(&frame).unwrap();
        assert_eq!(bytes[0], 0, "length prefix starts with the detect byte");
        let mut dec = FrameDecoder::new(WireProtocol::Auto, 1 << 20);
        dec.push(&bytes);
        let back = dec.next_frame().unwrap().unwrap();
        assert_eq!(back, frame);
        assert_eq!(dec.protocol_name(), Some("json"));
        assert!(!dec.has_partial());
    }

    #[test]
    fn csv_roundtrip_is_exact() {
        let frame = sample_frame(9);
        let line = encode_csv(&frame).unwrap();
        assert!(line.ends_with('\n'));
        let mut dec = FrameDecoder::new(WireProtocol::Auto, 1 << 20);
        dec.push(line.as_bytes());
        let back = dec.next_frame().unwrap().unwrap();
        assert_eq!(back, frame);
        assert_eq!(dec.protocol_name(), Some("csv"));
    }

    #[test]
    fn byte_at_a_time_chunking_decodes_identically() {
        let frames = [sample_frame(0), sample_frame(1), sample_frame(2)];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_json(f).unwrap());
        }
        let mut dec = FrameDecoder::new(WireProtocol::Auto, 1 << 20);
        let mut got = Vec::new();
        for &b in &stream {
            dec.push(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn oversized_prefix_is_rejected_before_buffering() {
        let mut dec = FrameDecoder::new(WireProtocol::Json, 256);
        dec.push(&u32::to_be_bytes(300));
        let err = dec.next_frame().unwrap_err();
        assert!(matches!(err, DecodeError::Oversized { len: 300, max: 256 }));
    }

    #[test]
    fn endless_csv_line_is_oversized() {
        let mut dec = FrameDecoder::new(WireProtocol::Csv, 16);
        dec.push(b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        let err = dec.next_frame().unwrap_err();
        assert!(matches!(err, DecodeError::Oversized { .. }));
    }

    #[test]
    fn garbage_is_a_typed_error_not_a_panic() {
        for garbage in [
            &b"\x00\x00\x00\x04junk"[..],
            b"not,a,frame\n",
            b"a,b,c\n",
            b"x,1,2,machine-0,Bogus,1.0\n",
            b"x,1,2,machine-0,CpuUtilization\n",
            b"\xff\xfe\xfd\n",
        ] {
            let mut dec = FrameDecoder::new(WireProtocol::Auto, 1 << 20);
            dec.push(garbage);
            assert!(dec.next_frame().is_err(), "{garbage:?} must be rejected");
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let frame = sample_frame(0);
        let mut dec = FrameDecoder::new(WireProtocol::Csv, 1 << 20);
        dec.push(b"\r\n\n");
        dec.push(encode_csv(&frame).unwrap().as_bytes());
        assert_eq!(dec.next_frame().unwrap().unwrap(), frame);
    }

    #[test]
    fn eof_mid_frame_reports_truncation() {
        let frame = sample_frame(0);
        let bytes = encode_json(&frame).unwrap();
        let mut dec = FrameDecoder::new(WireProtocol::Auto, 1 << 20);
        dec.push(&bytes[..bytes.len() - 3]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(matches!(
            dec.eof_error(),
            Some(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn invalid_sources_cannot_be_encoded() {
        let mut frame = sample_frame(0);
        for bad in ["", "a,b", "tab\there", "nul\0"] {
            frame.source = bad.to_string();
            assert!(encode_json(&frame).is_err(), "{bad:?}");
            assert!(encode_csv(&frame).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn protocol_parses_its_display_form() {
        for p in [WireProtocol::Auto, WireProtocol::Json, WireProtocol::Csv] {
            assert_eq!(p.to_string().parse::<WireProtocol>().unwrap(), p);
        }
        assert!("tcp".parse::<WireProtocol>().is_err());
    }
}
