use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use gridwatch_core::ModelConfig;
use gridwatch_timeseries::stats::pearson;
use gridwatch_timeseries::{
    AlignmentPolicy, MeasurementId, MeasurementPair, PairSeries, TimeSeries,
};

/// When and at which level alarms fire.
///
/// The paper flags an alarm "once the fitness score drops below a
/// threshold"; real deployments additionally debounce to suppress
/// single-sample flickers, which we expose as `min_consecutive`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlarmPolicy {
    /// System-level alarm threshold on `Q_t`.
    pub system_threshold: f64,
    /// Measurement-level alarm threshold on `Q^a_t`.
    pub measurement_threshold: f64,
    /// Number of consecutive below-threshold samples required before an
    /// alarm fires (1 = immediate).
    pub min_consecutive: u32,
}

impl Default for AlarmPolicy {
    fn default() -> Self {
        AlarmPolicy {
            system_threshold: 0.6,
            measurement_threshold: 0.5,
            min_consecutive: 1,
        }
    }
}

/// Configuration of a [`crate::DetectionEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EngineConfig {
    /// The per-pair model configuration.
    pub model: ModelConfig,
    /// Alarm thresholds and debouncing.
    pub alarm: AlarmPolicy,
    /// If set, a gap between consecutive snapshots larger than this many
    /// seconds resets every model's trajectory: the first sample after a
    /// monitoring outage must not be scored as a "transition" from the
    /// pre-outage state (the Markov assumption only holds at the sampling
    /// cadence). `None` disables gap detection.
    #[serde(default)]
    pub max_gap_secs: Option<u64>,
    /// Online drift adaptation: when set, a sustained-fitness-decay
    /// detector watches every pair and refits its grid from recent
    /// observations once decay persists (the paper's MAFIA-style
    /// adaptivity; see [`crate::DriftConfig`]). `None` disables the
    /// drift layer entirely — the per-step cost is then one branch.
    #[serde(default)]
    pub drift: Option<crate::DriftConfig>,
}

/// Pair-selection criteria mirroring Section 6 of the paper: "1) the
/// sampling rate should be reasonably high …; 2) the measurements do not
/// have any linear relationships with other measurements; and 3) the
/// measurement should have high variance during the monitoring period."
///
/// [`PairScreen::select`] applies the criteria to training series and
/// returns the canonical pair list to model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairScreen {
    /// Minimum number of samples a measurement needs (criterion 1).
    pub min_samples: usize,
    /// Minimum coefficient of variation (criterion 3); `0.0` disables.
    pub min_cv: f64,
    /// If set, drop measurements that have an |r| above this with any
    /// other measurement (criterion 2 — the paper's "difficult cases"
    /// focus on non-linear pairs). `None` keeps everything.
    pub exclude_linear_above: Option<f64>,
    /// Hard cap on the number of pairs (keeps experiments tractable);
    /// pairs are kept in canonical order.
    pub max_pairs: Option<usize>,
}

impl Default for PairScreen {
    fn default() -> Self {
        PairScreen {
            min_samples: 10,
            min_cv: 0.0,
            exclude_linear_above: None,
            max_pairs: None,
        }
    }
}

impl PairScreen {
    /// A screen reproducing the paper's selection: high variance, no
    /// linear relationships.
    pub fn paper_difficult_cases() -> Self {
        PairScreen {
            min_samples: 10,
            min_cv: 0.10,
            exclude_linear_above: Some(0.95),
            max_pairs: None,
        }
    }

    /// Applies the screen to training series and returns the pairs to
    /// model, in canonical order.
    pub fn select(&self, series: &BTreeMap<MeasurementId, TimeSeries>) -> Vec<MeasurementPair> {
        // Criterion 1 + 3: per-measurement filters.
        let mut kept: Vec<MeasurementId> = series
            .iter()
            .filter(|(_, s)| s.len() >= self.min_samples)
            .filter(|(_, s)| {
                gridwatch_grid::float::approx_zero(self.min_cv)
                    || s.coefficient_of_variation()
                        .is_some_and(|cv| cv >= self.min_cv)
            })
            .map(|(&id, _)| id)
            .collect();

        // Criterion 2: drop measurements with a strong linear partner.
        if let Some(limit) = self.exclude_linear_above {
            let mut linear: Vec<MeasurementId> = Vec::new();
            for (i, &a) in kept.iter().enumerate() {
                for &b in kept.iter().skip(i + 1) {
                    let (sa, sb) = (&series[&a], &series[&b]);
                    if let Ok(pair) = PairSeries::align(sa, sb, AlignmentPolicy::Intersect) {
                        let (xs, ys) = pair.columns();
                        if let Some(r) = pearson(&xs, &ys) {
                            if r.abs() >= limit {
                                linear.push(a);
                                linear.push(b);
                            }
                        }
                    }
                }
            }
            kept.retain(|id| !linear.contains(id));
        }

        let mut pairs = Vec::new();
        for (i, &a) in kept.iter().enumerate() {
            for &b in kept.iter().skip(i + 1) {
                if let Some(p) = MeasurementPair::new(a, b) {
                    pairs.push(p);
                }
            }
        }
        if let Some(max) = self.max_pairs {
            pairs.truncate(max);
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_timeseries::{MachineId, MetricKind};

    fn id(k: u32) -> MeasurementId {
        MeasurementId::new(MachineId::new(k), MetricKind::Custom(0))
    }

    fn series_from(values: &[f64]) -> TimeSeries {
        TimeSeries::from_samples(values.iter().enumerate().map(|(k, &v)| (k as u64, v))).unwrap()
    }

    #[test]
    fn all_pairs_without_filters() {
        let mut m = BTreeMap::new();
        for k in 0..4u32 {
            m.insert(
                id(k),
                series_from(
                    &(0..20)
                        .map(|i| (i + i64::from(k)) as f64)
                        .collect::<Vec<_>>(),
                ),
            );
        }
        let pairs = PairScreen::default().select(&m);
        assert_eq!(pairs.len(), 6); // C(4,2)
    }

    #[test]
    fn min_samples_filters_short_series() {
        let mut m = BTreeMap::new();
        m.insert(id(0), series_from(&[1.0, 2.0]));
        m.insert(
            id(1),
            series_from(&(0..20).map(|i| i as f64).collect::<Vec<_>>()),
        );
        m.insert(
            id(2),
            series_from(&(0..20).map(|i| (i * i) as f64).collect::<Vec<_>>()),
        );
        let pairs = PairScreen::default().select(&m);
        assert_eq!(pairs.len(), 1);
        assert!(!pairs[0].contains(id(0)));
    }

    #[test]
    fn linear_screen_drops_perfectly_correlated() {
        let mut m = BTreeMap::new();
        let base: Vec<f64> = (0..50).map(|i| i as f64 + 1.0).collect();
        m.insert(id(0), series_from(&base));
        m.insert(
            id(1),
            series_from(&base.iter().map(|v| 2.0 * v).collect::<Vec<_>>()),
        );
        // A non-linear, high-variance partner.
        m.insert(
            id(2),
            series_from(
                &base
                    .iter()
                    .map(|v| (v * 0.5).sin() * 100.0 + 200.0)
                    .collect::<Vec<_>>(),
            ),
        );
        let screen = PairScreen {
            exclude_linear_above: Some(0.95),
            ..PairScreen::default()
        };
        let pairs = screen.select(&m);
        // 0 and 1 are linearly related and both dropped; only 2 remains,
        // with nobody to pair with.
        assert!(pairs.is_empty());
    }

    #[test]
    fn max_pairs_truncates() {
        let mut m = BTreeMap::new();
        for k in 0..6u32 {
            let vals: Vec<f64> = (0..30)
                .map(|i| ((i * (k as i64 + 2)) as f64).sin() * 10.0 + 20.0)
                .collect();
            m.insert(id(k), series_from(&vals));
        }
        let screen = PairScreen {
            max_pairs: Some(5),
            ..PairScreen::default()
        };
        assert_eq!(screen.select(&m).len(), 5);
    }

    #[test]
    fn default_policy_is_sane() {
        let p = AlarmPolicy::default();
        assert!(p.system_threshold > 0.0 && p.system_threshold < 1.0);
        assert!(p.min_consecutive >= 1);
    }
}
