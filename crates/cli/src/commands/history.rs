//! `gridwatch history` — query the embedded history store written by
//! `serve --store`, `coordinator --store`, and `monitor --store`:
//! time-range scans over scores, stats samples, and events; per-key
//! filters; and the paper's problem-determination ranking (top-k
//! lowest-mean fitness keys) — as JSON or CSV.

use std::io::Write;
use std::path::Path;

use gridwatch_store::{
    measurement_key, pair_key, query, HistoryStore, KeySummary, Record, RecordKind, ScoreRow,
    SYSTEM_KEY,
};

use crate::flags::Flags;

const HELP: &str = "\
gridwatch history --store DIR [--kind scores|stats|events|traces] [flags]

  --store DIR          the store directory to query (required)
  --kind K             scores | stats | events | traces (default scores;
                       traces prints raw exemplar records — `gridwatch
                       trace` renders them as waterfalls)

time range (trace time; default: everything):
  --from-day N         window start in days           (86400 s/day)
  --days N             window length in days          (default 1, with --from-day)
  --from-secs N        window start in seconds        (overrides --from-day)
  --to-secs N          window end in seconds, exclusive

score filters (with --kind scores):
  --system             only the system score Q_t
  --measurement M      only Q^a_t for measurement M
                       (display form, e.g. machine-003/CpuUtilization)
  --pair A~B           only Q^{a,b}_t for the pair A~B
  --key K              only the exact canonical key K
  --top-k N            aggregate per key and print the N keys with the
                       lowest mean fitness (the problem-determination
                       ranking) instead of raw rows

event filters (with --kind events):
  --event-kind K       only events of kind K (e.g. alarm, rebuild,
                       checkpoint)

output:
  --format F           json | csv                     (default csv)
  --limit N            print at most N rows           (default: all)

examples:
  gridwatch history --store hist --system --format csv
  gridwatch history --store hist --from-day 15 --days 1 --top-k 5
  gridwatch history --store hist --kind events --format json
  gridwatch history --store hist --kind events --event-kind rebuild";

const SECS_PER_DAY: u64 = 86_400;

pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let flags = Flags::parse(
        "history",
        args,
        &["system"],
        &[
            &["store", "kind", "event-kind", "format", "limit", "top-k"],
            &["measurement", "pair", "key"],
            WINDOW_FLAGS,
        ],
    )?;
    let dir: String = flags.require("store")?;
    let kind: RecordKind = flags.get_or("kind", RecordKind::Score)?;
    if flags.get::<String>("event-kind")?.is_some() && kind != RecordKind::Event {
        return Err("--event-kind only applies to --kind events".to_string());
    }
    let format: OutputFormat = flags.get_or("format", OutputFormat::Csv)?;
    let limit: Option<usize> = flags.get("limit")?;
    let (from_at, to_at) = window(&flags)?;

    let (store, report) = HistoryStore::open_existing(Path::new(&dir))
        .map_err(|e| format!("cannot open history store {dir}: {e}"))?;
    if report.truncated_bytes > 0 {
        eprintln!(
            "history store {dir}: truncated {} torn WAL bytes on open",
            report.truncated_bytes
        );
    }
    let records = store
        .scan(kind, from_at, to_at)
        .map_err(|e| format!("scan failed: {e}"))?;

    // Queries are made to be piped into `head`/`grep`; a closed pipe
    // ends the output early, it is not an error.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let printed = match kind {
        RecordKind::Score => {
            let rows = apply_filters(&flags, query::score_rows(records))?;
            if let Some(k) = flags.get::<usize>("top-k")? {
                let top = gridwatch_store::top_k_lowest_mean(&rows, k);
                print_summaries(&mut out, &top, format)
            } else {
                print_scores(&mut out, &rows, format, limit)
            }
        }
        RecordKind::Stats | RecordKind::Event | RecordKind::Trace => {
            if flags.get::<usize>("top-k")?.is_some() {
                return Err("--top-k only applies to --kind scores".to_string());
            }
            let records = match flags.get::<String>("event-kind")? {
                Some(wanted) => records
                    .into_iter()
                    .filter(|(_, r)| matches!(r, Record::Event(e) if e.kind == wanted))
                    .collect(),
                None => records,
            };
            print_records(&mut out, &records, format, limit)
        }
    };
    match printed.and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("writing output: {e}")),
    }
}

/// The time-range flags [`window`] reads.
pub(crate) const WINDOW_FLAGS: &[&str] = &["from-day", "days", "from-secs", "to-secs"];

/// The scan window from the time-range flags (shared with `gridwatch
/// trace`, which takes the same range).
pub(crate) fn window(flags: &Flags) -> Result<(u64, u64), String> {
    let mut from_at = 0u64;
    let mut to_at = u64::MAX;
    if let Some(day) = flags.get::<u64>("from-day")? {
        let days: u64 = flags.get_or("days", 1)?;
        from_at = day.saturating_mul(SECS_PER_DAY);
        to_at = day.saturating_add(days).saturating_mul(SECS_PER_DAY);
    }
    if let Some(secs) = flags.get::<u64>("from-secs")? {
        from_at = secs;
    }
    if let Some(secs) = flags.get::<u64>("to-secs")? {
        to_at = secs;
    }
    if from_at >= to_at {
        return Err(format!("empty time range [{from_at}, {to_at})"));
    }
    Ok((from_at, to_at))
}

/// Applies the score-key filters. The filters compose with "last one
/// wins" semantics kept simple: they are mutually exclusive.
fn apply_filters(flags: &Flags, rows: Vec<ScoreRow>) -> Result<Vec<ScoreRow>, String> {
    let mut selected = 0;
    let mut key: Option<String> = None;
    if flags.has("system") {
        selected += 1;
        key = Some(SYSTEM_KEY.to_string());
    }
    if let Some(m) = flags.get::<String>("measurement")? {
        selected += 1;
        key = Some(measurement_key(&m));
    }
    if let Some(pair) = flags.get::<String>("pair")? {
        selected += 1;
        let (first, second) = pair
            .split_once('~')
            .ok_or_else(|| format!("--pair wants A~B, got {pair:?}"))?;
        key = Some(pair_key(first, second));
    }
    if let Some(k) = flags.get::<String>("key")? {
        selected += 1;
        key = Some(k);
    }
    if selected > 1 {
        return Err(
            "--system, --measurement, --pair, and --key are mutually exclusive".to_string(),
        );
    }
    Ok(match key {
        Some(key) => query::filter_key(rows, &key),
        None => rows,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Json,
    Csv,
}

impl std::str::FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "json" => Ok(OutputFormat::Json),
            "csv" => Ok(OutputFormat::Csv),
            other => Err(format!("unknown format {other:?} (expected json or csv)")),
        }
    }
}

/// Quotes a CSV field, doubling embedded quotes.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Quotes and escapes a JSON string. (The vendored `serde_json` has no
/// `Value` type, so the output objects are assembled by hand.)
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A score as a JSON number; non-finite values (unrepresentable in
/// JSON) become null.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Writes a JSON array of pre-rendered objects, one per line.
fn print_json_array(out: &mut impl Write, items: &[String]) -> std::io::Result<()> {
    writeln!(out, "[")?;
    for (i, item) in items.iter().enumerate() {
        let comma = if i + 1 < items.len() { "," } else { "" };
        writeln!(out, "  {item}{comma}")?;
    }
    writeln!(out, "]")
}

fn print_scores(
    out: &mut impl Write,
    rows: &[ScoreRow],
    format: OutputFormat,
    limit: Option<usize>,
) -> std::io::Result<()> {
    let shown = limit.unwrap_or(rows.len()).min(rows.len());
    match format {
        OutputFormat::Csv => {
            writeln!(out, "at,key,score")?;
            for row in &rows[..shown] {
                // Ryu-style shortest round-trip formatting: parsing the
                // printed score recovers the exact stored bits.
                writeln!(out, "{},{},{}", row.at, csv_field(&row.key), row.score)?;
            }
        }
        OutputFormat::Json => {
            let items: Vec<String> = rows[..shown]
                .iter()
                .map(|row| {
                    format!(
                        "{{\"at\":{},\"key\":{},\"score\":{}}}",
                        row.at,
                        json_string(&row.key),
                        json_f64(row.score)
                    )
                })
                .collect();
            print_json_array(out, &items)?;
        }
    }
    if shown < rows.len() {
        eprintln!("({} more rows truncated by --limit)", rows.len() - shown);
    }
    Ok(())
}

fn print_summaries(
    out: &mut impl Write,
    top: &[KeySummary],
    format: OutputFormat,
) -> std::io::Result<()> {
    match format {
        OutputFormat::Csv => {
            writeln!(out, "key,count,mean,min,max")?;
            for s in top {
                writeln!(
                    out,
                    "{},{},{},{},{}",
                    csv_field(&s.key),
                    s.count,
                    s.mean,
                    s.min,
                    s.max
                )?;
            }
            Ok(())
        }
        OutputFormat::Json => {
            let items: Vec<String> = top
                .iter()
                .map(|s| {
                    format!(
                        "{{\"key\":{},\"count\":{},\"mean\":{},\"min\":{},\"max\":{}}}",
                        json_string(&s.key),
                        s.count,
                        json_f64(s.mean),
                        json_f64(s.min),
                        json_f64(s.max)
                    )
                })
                .collect();
            print_json_array(out, &items)
        }
    }
}

fn print_records(
    out: &mut impl Write,
    records: &[(u64, Record)],
    format: OutputFormat,
    limit: Option<usize>,
) -> std::io::Result<()> {
    let shown = limit.unwrap_or(records.len()).min(records.len());
    match format {
        OutputFormat::Csv => {
            writeln!(out, "at,seq,kind,detail")?;
            for (seq, record) in &records[..shown] {
                match record {
                    Record::Stats(s) => {
                        writeln!(out, "{},{seq},stats,{}", s.at, csv_field(&s.payload))?;
                    }
                    Record::Event(e) => {
                        writeln!(
                            out,
                            "{},{seq},{},{}",
                            e.at,
                            csv_field(&e.kind),
                            csv_field(&e.detail)
                        )?;
                    }
                    Record::Score(row) => {
                        writeln!(out, "{},{seq},score,{}", row.at, csv_field(&row.key))?;
                    }
                    Record::Trace(t) => {
                        writeln!(
                            out,
                            "{},{seq},trace,{}",
                            t.at,
                            csv_field(&format!(
                                "seq {} source {} alarmed {} total {}ns",
                                t.seq, t.source, t.alarmed, t.total_ns
                            ))
                        )?;
                    }
                }
            }
        }
        OutputFormat::Json => {
            let items: Vec<String> = records[..shown]
                .iter()
                .map(|(seq, record)| match record {
                    Record::Stats(s) => format!(
                        "{{\"at\":{},\"seq\":{seq},\"kind\":\"stats\",\"payload\":{}}}",
                        s.at,
                        json_string(&s.payload)
                    ),
                    Record::Event(e) => format!(
                        "{{\"at\":{},\"seq\":{seq},\"kind\":{},\"at_ns\":{},\"detail\":{}}}",
                        e.at,
                        json_string(&e.kind),
                        e.at_ns,
                        json_string(&e.detail)
                    ),
                    Record::Score(row) => format!(
                        "{{\"at\":{},\"seq\":{seq},\"kind\":\"score\",\"key\":{},\"score\":{}}}",
                        row.at,
                        json_string(&row.key),
                        json_f64(row.score)
                    ),
                    // The payload is already the exemplar's JSON
                    // document; embed it unescaped.
                    Record::Trace(t) => format!(
                        "{{\"at\":{},\"seq\":{seq},\"kind\":\"trace\",\"exemplar\":{}}}",
                        t.at, t.payload
                    ),
                })
                .collect();
            print_json_array(out, &items)?;
        }
    }
    if shown < records.len() {
        eprintln!(
            "({} more records truncated by --limit)",
            records.len() - shown
        );
    }
    Ok(())
}
