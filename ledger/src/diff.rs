//! `ledger diff A B`: the comparison view. Each side is one or more
//! `--out` files of the same commit; per workload and metric the sides'
//! medians are compared against the metric's bound.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::json::{parse, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles};

/// What a comparison of one metric on one workload says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better than A by more than the bound.
    Better,
    /// B is worse than A by more than the bound and more than the spread.
    Worse,
    /// The medians are within the bound of each other.
    WithinBound,
    /// The run-to-run spread of a side is wider than the bound, so a
    /// change of the bound's size could not have been seen.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `workload → metric → values`, one value per run in the side's files.
pub type Side = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Collects the metrics of every run in the `--out` documents `texts`.
///
/// # Errors
///
/// Fails on a document that is not a ledger `--out` file.
pub fn collect(texts: &[String]) -> Result<Side, String> {
    let mut side = Side::new();
    for text in texts {
        let doc = parse(text)?;
        let runs = doc
            .get("runs")
            .and_then(Value::as_arr)
            .ok_or("not a ledger file: no \"runs\" array")?;
        for run in runs {
            let workload = run
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("a run has no \"workload\"")?;
            let metrics = run
                .get("metrics")
                .and_then(Value::as_obj)
                .ok_or("a run has no \"metrics\"")?;
            let by_metric = side.entry(workload.to_string()).or_default();
            for (name, metric) in metrics {
                if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                    by_metric.entry(name.clone()).or_default().push(value);
                }
            }
        }
    }
    Ok(side)
}

/// Distance between the quartiles (the range, with fewer than four
/// values) as a share of the median.
fn spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let (low, high) = match quartiles(values) {
        Some(q) if values.len() >= 4 => q,
        _ => (
            values.iter().copied().fold(f64::MAX, f64::min),
            values.iter().copied().fold(f64::MIN, f64::max),
        ),
    };
    (high - low) / mid.abs()
}

/// Compares one gated metric: `a` and `b` are each side's values.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    if ma == 0.0 {
        return Verdict::Unresolved;
    }
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let spread = spread(a).max(spread(b));
    if worse_by > bound && worse_by > spread {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// Renders the comparison and says whether any metric came out worse.
pub fn render(a: &Side, b: &Side) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    for (workload, a_metrics) in a {
        let Some(b_metrics) = b.get(workload) else {
            let _ = writeln!(out, "{workload}: only in A");
            continue;
        };
        let _ = writeln!(out, "{workload}");
        let _ = writeln!(
            out,
            "  {:<44} {:>14} {:>14} {:>8} {:>6}  verdict",
            "metric", "A", "B", "change", "bound"
        );
        let gated = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, Some((m.better, m.bound))));
        let layers = PER_LAYER.iter().map(|m| (m.name, m.unit, None));
        for (name, unit, gate) in gated.chain(layers) {
            let (Some(va), Some(vb)) = (a_metrics.get(name), b_metrics.get(name)) else {
                continue;
            };
            let (ma, mb) = (median(va), median(vb));
            let change = if ma == 0.0 {
                0.0
            } else {
                (mb - ma) / ma.abs() * 100.0
            };
            let (bound, verdict) = match gate {
                Some((better, bound)) => {
                    let verdict = judge(va, vb, better, bound);
                    any_worse |= verdict == Verdict::Worse;
                    (format!("{:.0}%", bound * 100.0), verdict.name())
                }
                None => ("-".to_string(), "-"),
            };
            let _ = writeln!(
                out,
                "  {:<44} {:>14} {:>14} {:>+7.1}% {:>6}  {verdict}",
                format!("{name} [{unit}]"),
                format!("{ma:.4}"),
                format!("{mb:.4}"),
                change,
                bound
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        let _ = writeln!(out, "{workload}: only in B");
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        use Better::{Higher, Lower};
        // Throughput (higher is better), bound 10 %.
        assert_eq!(judge(&[100.0], &[95.0], Higher, 0.10), Verdict::WithinBound);
        assert_eq!(judge(&[100.0], &[85.0], Higher, 0.10), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[120.0], Higher, 0.10), Verdict::Better);
        // Latency (lower is better).
        assert_eq!(judge(&[1.0], &[1.2], Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&[1.0], &[0.8], Lower, 0.10), Verdict::Better);
        // A side that scatters by more than the bound resolves nothing …
        let noisy = [80.0, 100.0, 120.0];
        assert_eq!(
            judge(&noisy, &[98.0, 100.0, 102.0], Higher, 0.10),
            Verdict::Unresolved
        );
        // … unless the other side is worse by more than even that.
        assert_eq!(
            judge(&noisy, &[40.0, 41.0, 42.0], Higher, 0.10),
            Verdict::Worse
        );
        assert_eq!(judge(&[0.0], &[1.0], Lower, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn renders_both_sides_and_flags_a_regression() {
        let file = |snaps: f64, p10: f64| {
            format!(
                "{{\"runs\":[{{\"workload\":\"score-frozen\",\"metrics\":{{\
                 \"snaps_per_s\":{{\"value\":{snaps},\"unit\":\"1/s\"}},\
                 \"latency_p10_ms\":{{\"value\":{p10},\"unit\":\"ms\"}},\
                 \"stage.score.us_per_snap\":{{\"value\":90,\"unit\":\"us\"}}}}}}]}}"
            )
        };
        let a = collect(&[file(5000.0, 0.30), file(5100.0, 0.31), file(4900.0, 0.29)]).unwrap();
        let same = collect(&[file(5050.0, 0.30), file(4950.0, 0.31), file(5000.0, 0.30)]).unwrap();
        let slow = collect(&[file(3000.0, 0.30), file(3100.0, 0.31), file(2900.0, 0.30)]).unwrap();
        let (text, worse) = render(&a, &same);
        assert!(!worse, "{text}");
        assert!(text.contains("snaps_per_s [1/s]"));
        assert!(text.contains("within-bound"));
        assert!(text.contains("stage.score.us_per_snap"));
        let (text, worse) = render(&a, &slow);
        assert!(worse, "{text}");
        assert!(text.contains("worse"));
        assert!(collect(&["{}".to_string()]).is_err());
    }
}
