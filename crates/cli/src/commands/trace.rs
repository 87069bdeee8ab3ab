//! `gridwatch trace` — query the exemplar traces persisted by a
//! serving run with `--store` and `--trace-*` flags: time-range scans,
//! source and alarm filters, slowest-K ranking, and a text waterfall
//! per trace showing each stage span with its shard/worker
//! attribution.

use std::io::Write;
use std::path::Path;

use gridwatch_obs::TraceExemplar;
use gridwatch_store::{HistoryStore, Record, RecordKind};

use crate::commands::history::{window, WINDOW_FLAGS};
use crate::flags::Flags;

const HELP: &str = "\
gridwatch trace --store DIR [flags]

  --store DIR          the store directory to query (required)

time range (trace time; default: everything):
  --from-day N         window start in days           (86400 s/day)
  --days N             window length in days          (default 1, with --from-day)
  --from-secs N        window start in seconds        (overrides --from-day)
  --to-secs N          window end in seconds, exclusive

filters:
  --source S           only traces from source S (e.g. coordinator,
                       local, or a wire source name)
  --alarmed            only traces whose snapshot raised an alarm
  --slowest K          the K largest total latencies, slowest first
                       (default order: trace time)

output:
  --format F           text | json                    (default text:
                       one waterfall per trace)
  --limit N            print at most N traces         (default: all)

examples:
  gridwatch trace --store hist --alarmed
  gridwatch trace --store hist --from-day 15 --days 1 --slowest 5
  gridwatch trace --store hist --source coordinator --format json";

pub fn run(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let flags = Flags::parse(
        "trace",
        args,
        &["alarmed"],
        &[
            &["store", "format", "limit", "slowest", "source"],
            WINDOW_FLAGS,
        ],
    )?;
    let dir: String = flags.require("store")?;
    let format: String = flags.get_or("format", "text".to_string())?;
    if format != "text" && format != "json" {
        return Err(format!("unknown format {format:?} (expected text or json)"));
    }
    let limit: Option<usize> = flags.get("limit")?;
    let slowest: Option<usize> = flags.get("slowest")?;
    let source: Option<String> = flags.get("source")?;
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
        .scan(RecordKind::Trace, from_at, to_at)
        .map_err(|e| format!("scan failed: {e}"))?;

    let mut traces: Vec<TraceExemplar> = Vec::new();
    for (seq, record) in records {
        let Record::Trace(row) = record else { continue };
        if let Some(wanted) = source.as_deref() {
            if row.source != wanted {
                continue;
            }
        }
        if flags.has("alarmed") && !row.alarmed {
            continue;
        }
        let trace: TraceExemplar = serde_json::from_str(&row.payload)
            .map_err(|e| format!("corrupt exemplar payload at store seq {seq}: {e}"))?;
        traces.push(trace);
    }
    if let Some(k) = slowest {
        traces.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.seq.cmp(&b.seq)));
        traces.truncate(k);
    }
    let shown = limit.unwrap_or(traces.len()).min(traces.len());

    // Queries are made to be piped into `head`/`grep`; a closed pipe
    // ends the output early, it is not an error.
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let printed = match format.as_str() {
        "json" => print_json(&mut out, &traces[..shown]),
        _ => print_text(&mut out, &traces[..shown]),
    };
    if shown < traces.len() {
        eprintln!(
            "({} more traces truncated by --limit)",
            traces.len() - shown
        );
    }
    match printed.and_then(|()| out.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
        Err(e) => Err(format!("writing output: {e}")),
    }
}

fn print_text(out: &mut impl Write, traces: &[TraceExemplar]) -> std::io::Result<()> {
    for trace in traces {
        out.write_all(render_text(trace).as_bytes())?;
    }
    if traces.is_empty() {
        writeln!(out, "(no matching traces)")?;
    }
    Ok(())
}

fn print_json(out: &mut impl Write, traces: &[TraceExemplar]) -> std::io::Result<()> {
    writeln!(out, "[")?;
    for (i, trace) in traces.iter().enumerate() {
        let comma = if i + 1 < traces.len() { "," } else { "" };
        let doc = serde_json::to_string(trace)
            .map_err(|e| std::io::Error::other(format!("serialize: {e}")))?;
        writeln!(out, "  {doc}{comma}")?;
    }
    writeln!(out, "]")
}

/// One trace as a text waterfall: a header line, then one row per
/// span with a `#` bar scaled against the trace's slowest span. Start
/// offsets are per-process clocks, so rows show durations, not a
/// cross-process timeline. The exact layout is pinned by a golden
/// test.
pub(crate) fn render_text(trace: &TraceExemplar) -> String {
    let mut out = format!(
        "seq {}  at {}s  source {}",
        trace.seq, trace.at, trace.source
    );
    if trace.alarmed {
        out.push_str("  alarmed");
    }
    if trace.breached {
        out.push_str("  breached");
    }
    if trace.head_sampled {
        out.push_str("  head-sampled");
    }
    out.push_str(&format!("  total {}ns\n", trace.total_ns));
    let max = trace.spans.iter().map(|s| s.dur_ns).max().unwrap_or(0);
    for span in &trace.spans {
        let width = span.dur_ns.saturating_mul(20).checked_div(max).unwrap_or(0) as usize;
        let shard = span
            .shard
            .map_or_else(|| "-".to_string(), |k| k.to_string());
        out.push_str(&format!(
            "  {:<8} {:<12} {:>5} {:>10}ns |{:<20}|\n",
            span.stage,
            span.worker,
            shard,
            span.dur_ns,
            "#".repeat(width)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_obs::{SpanSlice, Stage};

    /// The waterfall layout is an operator interface: column widths,
    /// the marker order, and the bar scaling are all pinned.
    #[test]
    fn waterfall_text_layout_is_pinned() {
        let trace = TraceExemplar {
            source: "coordinator".to_string(),
            seq: 12,
            at: 1_296_000,
            alarmed: true,
            breached: false,
            head_sampled: true,
            total_ns: 2_500,
            spans: vec![
                SpanSlice::new(Stage::Ingest, 0, 2_000, "worker-0"),
                SpanSlice::sharded(Stage::Score, 100, 500, 1, "worker-1"),
                SpanSlice::new(Stage::Merge, 900, 0, "merge"),
            ],
        };
        assert_eq!(
            render_text(&trace),
            concat!(
                "seq 12  at 1296000s  source coordinator  alarmed  head-sampled  total 2500ns\n",
                "  ingest   worker-0         -       2000ns |####################|\n",
                "  score    worker-1         1        500ns |#####               |\n",
                "  merge    merge            -          0ns |                    |\n",
            )
        );
    }

    /// A span-less trace renders just its header; the bar scale
    /// divides by the max duration, which must not panic at zero.
    #[test]
    fn empty_and_zero_duration_traces_render() {
        let trace = TraceExemplar {
            source: "local".to_string(),
            ..TraceExemplar::default()
        };
        assert_eq!(
            render_text(&trace),
            "seq 0  at 0s  source local  total 0ns\n"
        );
    }
}
