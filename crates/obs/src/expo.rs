//! Prometheus text exposition (version 0.0.4) rendering.
//!
//! A tiny builder for the subset of the format gridwatch exposes:
//! `counter` and `gauge` samples with optional labels, plus
//! `histogram` families rendered from a [`LogHistogram`] — cumulative
//! `_bucket{le="..."}` lines over the power-of-two bucket bounds, then
//! `_sum` and `_count`. Everything is plain `u64` arithmetic; the
//! output is deterministic for a given input, which is what lets a
//! golden test pin the format.
//!
//! A stats document declares its metrics once, as a `const` table of
//! [`Metric`] (or [`HistogramMetric`]) rows, and
//! [`Exposition::scalars`] / [`Exposition::histograms`] walk the table:
//! the text format is known here and nowhere else.

use crate::hist::{bucket_upper_bound, LogHistogram};

/// One scalar metric of a stats document `T`, as data: name, kind
/// (`counter` or `gauge`), help text, and how to read it.
pub type Metric<T> = (&'static str, &'static str, &'static str, fn(&T) -> u64);

/// One histogram metric of a stats document `T`: name, help text, and
/// the distribution to render.
pub type HistogramMetric<T> = (&'static str, &'static str, fn(&T) -> &LogHistogram);

/// One document to render through a metric table, under an optional
/// `(key, value)` label.
pub type Labelled<'a, T> = (Option<(&'a str, &'a str)>, &'a T);

/// An exposition document under construction.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

/// Escapes a label value: backslash, double quote, and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Joins a base label set with the `le` label of a histogram bucket.
fn bucket_labels(labels: &[(&str, &str)], le: &str) -> String {
    render_labels(&[labels, &[("le", le)]].concat())
}

impl Exposition {
    /// An empty document.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// Writes the `# HELP` / `# TYPE` header for a metric family.
    /// `kind` is one of `counter`, `gauge`, or `histogram`.
    pub fn header(&mut self, name: &str, kind: &str, help: &str) {
        self.out.push_str(&format!("# HELP {name} {help}\n"));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    /// Writes one sample line.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out
            .push_str(&format!("{name}{} {value}\n", render_labels(labels)));
    }

    /// Renders a [`LogHistogram`] as a Prometheus histogram: one
    /// cumulative `_bucket` line per stored bucket bound, a closing
    /// `+Inf` bucket, then `_sum` and `_count`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], hist: &LogHistogram) {
        let mut cumulative = 0u64;
        for (idx, n) in hist.buckets.iter().enumerate() {
            cumulative += n;
            let le = bucket_upper_bound(idx).to_string();
            self.out.push_str(&format!(
                "{name}_bucket{} {cumulative}\n",
                bucket_labels(labels, &le)
            ));
        }
        self.out.push_str(&format!(
            "{name}_bucket{} {}\n",
            bucket_labels(labels, "+Inf"),
            hist.count
        ));
        let suffix = render_labels(labels);
        self.out
            .push_str(&format!("{name}_sum{suffix} {}\n", hist.sum));
        self.out
            .push_str(&format!("{name}_count{suffix} {}\n", hist.count));
    }

    /// Walks a scalar metric table: one family per row, and under its
    /// header one sample per document.
    pub fn scalars<T>(&mut self, table: &[Metric<T>], docs: &[Labelled<'_, T>]) {
        for &(name, kind, help, read) in table {
            self.header(name, kind, help);
            for (label, doc) in docs {
                self.sample(name, label.as_slice(), read(doc));
            }
        }
    }

    /// Walks a histogram metric table, like [`Exposition::scalars`].
    pub fn histograms<T>(&mut self, table: &[HistogramMetric<T>], docs: &[Labelled<'_, T>]) {
        for &(name, help, read) in table {
            self.header(name, "histogram", help);
            for (label, doc) in docs {
                self.histogram(name, label.as_slice(), read(doc));
            }
        }
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// A parsed exposition sample, for tests and scrape validation.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Metric name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in document order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Parses exposition text back into samples, skipping comments.
/// Returns `None` if any non-comment line is malformed — the
/// validation half of the scrape acceptance test.
pub fn parse(text: &str) -> Option<Vec<ParsedSample>> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line.rsplit_once(' ')?;
        let value: f64 = value.parse().ok()?;
        let (name, labels) = match series.split_once('{') {
            None => (series.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}')?;
                let mut labels = Vec::new();
                for piece in body.split(',') {
                    let (k, v) = piece.split_once('=')?;
                    let v = v.strip_prefix('"')?.strip_suffix('"')?;
                    labels.push((k.to_string(), v.replace("\\\"", "\"").replace("\\\\", "\\")));
                }
                (name.to_string(), labels)
            }
        };
        out.push(ParsedSample {
            name,
            labels,
            value,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render_plainly() {
        let mut expo = Exposition::new();
        expo.header(
            "gw_reports_total",
            "counter",
            "Merged step reports emitted.",
        );
        expo.sample("gw_reports_total", &[], 42);
        expo.sample("gw_queue_depth", &[("shard", "1")], 7);
        let text = expo.finish();
        assert!(text.contains("# HELP gw_reports_total Merged step reports emitted.\n"));
        assert!(text.contains("# TYPE gw_reports_total counter\n"));
        assert!(text.contains("gw_reports_total 42\n"));
        assert!(text.contains("gw_queue_depth{shard=\"1\"} 7\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_closed() {
        let mut hist = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 900] {
            hist.record(v);
        }
        let mut expo = Exposition::new();
        expo.histogram("gw_lat", &[("shard", "0")], &hist);
        let text = expo.finish();
        let expected = "\
gw_lat_bucket{shard=\"0\",le=\"0\"} 1
gw_lat_bucket{shard=\"0\",le=\"1\"} 2
gw_lat_bucket{shard=\"0\",le=\"3\"} 4
gw_lat_bucket{shard=\"0\",le=\"7\"} 4
gw_lat_bucket{shard=\"0\",le=\"15\"} 4
gw_lat_bucket{shard=\"0\",le=\"31\"} 4
gw_lat_bucket{shard=\"0\",le=\"63\"} 4
gw_lat_bucket{shard=\"0\",le=\"127\"} 4
gw_lat_bucket{shard=\"0\",le=\"255\"} 4
gw_lat_bucket{shard=\"0\",le=\"511\"} 4
gw_lat_bucket{shard=\"0\",le=\"1023\"} 5
gw_lat_bucket{shard=\"0\",le=\"+Inf\"} 5
gw_lat_sum{shard=\"0\"} 906
gw_lat_count{shard=\"0\"} 5
";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut expo = Exposition::new();
        expo.sample("gw_conn", &[("peer", "a\"b\\c")], 1);
        assert_eq!(expo.finish(), "gw_conn{peer=\"a\\\"b\\\\c\"} 1\n");
    }

    #[test]
    fn rendered_text_parses_back() {
        let mut hist = LogHistogram::new();
        hist.record(5);
        hist.record(1000);
        let mut expo = Exposition::new();
        expo.header("gw_lat", "histogram", "latency");
        expo.histogram("gw_lat", &[("shard", "2")], &hist);
        expo.sample("gw_up", &[], 1);
        let text = expo.finish();
        let samples = parse(&text).expect("well-formed exposition");
        let count = samples
            .iter()
            .find(|s| s.name == "gw_lat_count")
            .expect("count sample");
        assert_eq!(count.value, 2.0);
        assert_eq!(count.labels, vec![("shard".to_string(), "2".to_string())]);
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "gw_lat_bucket" && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            })
            .expect("+Inf bucket");
        assert_eq!(inf.value, 2.0);
        assert!(samples.iter().any(|s| s.name == "gw_up" && s.value == 1.0));
    }

    #[test]
    fn malformed_lines_fail_parsing() {
        assert!(parse("gw_x{broken 1").is_none());
        assert!(parse("gw_x notanumber").is_none());
        assert!(parse("# just a comment\n")
            .map(|s| s.is_empty())
            .unwrap_or(false));
    }
}
