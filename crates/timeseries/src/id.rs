use std::fmt;

use serde::{Deserialize, Serialize};

/// One of the monitored infrastructures (the paper's anonymized companies
/// A, B, and C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum GroupId {
    /// Infrastructure group A.
    A,
    /// Infrastructure group B.
    B,
    /// Infrastructure group C.
    C,
}

impl GroupId {
    /// All three groups, in order.
    pub const ALL: [GroupId; 3] = [GroupId::A, GroupId::B, GroupId::C];
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupId::A => write!(f, "A"),
            GroupId::B => write!(f, "B"),
            GroupId::C => write!(f, "C"),
        }
    }
}

/// A machine (server) within an infrastructure group.
///
/// The paper's measurements are identified by `(machine, metric)`; machine
/// identity is what problem *localization* reports (Figure 14 plots
/// per-machine fitness scores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MachineId(u32);

impl MachineId {
    /// Creates a machine identifier from its index within the group.
    pub fn new(index: u32) -> Self {
        MachineId(index)
    }

    /// The machine's index.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for MachineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "machine-{:03}", self.0)
    }
}

/// The kind of system metric a measurement samples.
///
/// The variants mirror the metric names that appear in the paper's figures
/// (`IfOutOctetsRate_IF`, `CurrentUtilization_PORT`, CPU and memory usage,
/// …) plus a catch-all [`MetricKind::Custom`] for extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MetricKind {
    /// CPU utilization (fraction or percent).
    CpuUtilization,
    /// Memory usage.
    MemoryUsage,
    /// Free disk space.
    FreeDiskSpace,
    /// Disk or network I/O throughput.
    IoThroughput,
    /// Inbound traffic rate on an interface (`IfInOctetsRate_IF`).
    IfInOctetsRate,
    /// Outbound traffic rate on an interface (`IfOutOctetsRate_IF`).
    IfOutOctetsRate,
    /// Inbound traffic rate on a switch port (`ifInOctetsRate_PORT`).
    PortInOctetsRate,
    /// Outbound traffic rate on a switch port (`ifOutOctetsRate_PORT`).
    PortOutOctetsRate,
    /// Port utilization (`CurrentUtilization_PORT`).
    PortUtilization,
    /// Any other metric, identified by a small integer tag.
    Custom(u16),
}

impl MetricKind {
    /// A compact numeric code: the nine named kinds are `0..=8` in
    /// declaration order, `Custom(t)` is `9 + t`. Codes sort like the
    /// kinds themselves, so ordering by code is ordering by kind.
    pub fn code(self) -> u32 {
        match self {
            MetricKind::CpuUtilization => 0,
            MetricKind::MemoryUsage => 1,
            MetricKind::FreeDiskSpace => 2,
            MetricKind::IoThroughput => 3,
            MetricKind::IfInOctetsRate => 4,
            MetricKind::IfOutOctetsRate => 5,
            MetricKind::PortInOctetsRate => 6,
            MetricKind::PortOutOctetsRate => 7,
            MetricKind::PortUtilization => 8,
            MetricKind::Custom(tag) => 9 + u32::from(tag),
        }
    }

    /// Inverse of [`MetricKind::code`]; `None` for a code no kind has.
    pub fn from_code(code: u32) -> Option<MetricKind> {
        Some(match code {
            0 => MetricKind::CpuUtilization,
            1 => MetricKind::MemoryUsage,
            2 => MetricKind::FreeDiskSpace,
            3 => MetricKind::IoThroughput,
            4 => MetricKind::IfInOctetsRate,
            5 => MetricKind::IfOutOctetsRate,
            6 => MetricKind::PortInOctetsRate,
            7 => MetricKind::PortOutOctetsRate,
            8 => MetricKind::PortUtilization,
            custom => MetricKind::Custom(u16::try_from(custom - 9).ok()?),
        })
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricKind::CpuUtilization => write!(f, "CpuUtilization"),
            MetricKind::MemoryUsage => write!(f, "MemoryUsage"),
            MetricKind::FreeDiskSpace => write!(f, "FreeDiskSpace"),
            MetricKind::IoThroughput => write!(f, "IoThroughput"),
            MetricKind::IfInOctetsRate => write!(f, "IfInOctetsRate_IF"),
            MetricKind::IfOutOctetsRate => write!(f, "IfOutOctetsRate_IF"),
            MetricKind::PortInOctetsRate => write!(f, "ifInOctetsRate_PORT"),
            MetricKind::PortOutOctetsRate => write!(f, "ifOutOctetsRate_PORT"),
            MetricKind::PortUtilization => write!(f, "CurrentUtilization_PORT"),
            MetricKind::Custom(tag) => write!(f, "Custom_{tag}"),
        }
    }
}

/// Error parsing a [`MetricKind`], [`GroupId`], or [`MachineId`] from
/// text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIdError {
    offered: String,
    kind: &'static str,
}

impl fmt::Display for ParseIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot parse {} from {:?}", self.kind, self.offered)
    }
}

impl std::error::Error for ParseIdError {}

impl std::str::FromStr for MetricKind {
    type Err = ParseIdError;

    /// Parses the [`fmt::Display`] form back into a metric kind.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "CpuUtilization" => MetricKind::CpuUtilization,
            "MemoryUsage" => MetricKind::MemoryUsage,
            "FreeDiskSpace" => MetricKind::FreeDiskSpace,
            "IoThroughput" => MetricKind::IoThroughput,
            "IfInOctetsRate_IF" => MetricKind::IfInOctetsRate,
            "IfOutOctetsRate_IF" => MetricKind::IfOutOctetsRate,
            "ifInOctetsRate_PORT" => MetricKind::PortInOctetsRate,
            "ifOutOctetsRate_PORT" => MetricKind::PortOutOctetsRate,
            "CurrentUtilization_PORT" => MetricKind::PortUtilization,
            other => {
                let tag = other
                    .strip_prefix("Custom_")
                    .and_then(|t| t.parse::<u16>().ok())
                    .ok_or_else(|| ParseIdError {
                        offered: other.to_string(),
                        kind: "metric kind",
                    })?;
                MetricKind::Custom(tag)
            }
        })
    }
}

impl std::str::FromStr for GroupId {
    type Err = ParseIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "A" | "a" => Ok(GroupId::A),
            "B" | "b" => Ok(GroupId::B),
            "C" | "c" => Ok(GroupId::C),
            other => Err(ParseIdError {
                offered: other.to_string(),
                kind: "group id",
            }),
        }
    }
}

impl std::str::FromStr for MachineId {
    type Err = ParseIdError;

    /// Parses either the [`fmt::Display`] form (`machine-003`) or a bare
    /// index (`3`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s.strip_prefix("machine-").unwrap_or(s);
        digits
            .parse::<u32>()
            .map(MachineId::new)
            .map_err(|_| ParseIdError {
                offered: s.to_string(),
                kind: "machine id",
            })
    }
}

/// A measurement: one metric on one machine.
///
/// "A metric obtained from a machine represents a unique measurement"
/// (paper, Section 6). Measurements are the nodes of the correlation graph;
/// pairwise models are built between measurements.
///
/// # Example
///
/// ```
/// use gridwatch_timeseries::{MachineId, MeasurementId, MetricKind};
///
/// let m = MeasurementId::new(MachineId::new(3), MetricKind::CpuUtilization);
/// assert_eq!(m.machine(), MachineId::new(3));
/// assert_eq!(m.to_string(), "machine-003/CpuUtilization");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MeasurementId {
    machine: MachineId,
    metric: MetricKind,
}

impl MeasurementId {
    /// Creates a measurement identifier.
    pub fn new(machine: MachineId, metric: MetricKind) -> Self {
        MeasurementId { machine, metric }
    }

    /// The machine this measurement is collected on.
    pub fn machine(self) -> MachineId {
        self.machine
    }

    /// The metric this measurement samples.
    pub fn metric(self) -> MetricKind {
        self.metric
    }
}

impl fmt::Display for MeasurementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.machine, self.metric)
    }
}

/// An unordered pair of distinct measurements, normalized so the smaller
/// identifier always comes first.
///
/// Pairwise models are symmetric in the sense that one model is kept per
/// unordered pair (the paper tracks `l(l-1)/2` models); this type makes
/// pair keys canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MeasurementPair {
    first: MeasurementId,
    second: MeasurementId,
}

impl MeasurementPair {
    /// Creates a canonical pair from two distinct measurements.
    ///
    /// Returns `None` if `a == b` (a measurement is never paired with
    /// itself).
    pub fn new(a: MeasurementId, b: MeasurementId) -> Option<Self> {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => Some(MeasurementPair {
                first: a,
                second: b,
            }),
            std::cmp::Ordering::Greater => Some(MeasurementPair {
                first: b,
                second: a,
            }),
            std::cmp::Ordering::Equal => None,
        }
    }

    /// The lexicographically smaller measurement.
    pub fn first(self) -> MeasurementId {
        self.first
    }

    /// The lexicographically larger measurement.
    pub fn second(self) -> MeasurementId {
        self.second
    }

    /// Whether this pair involves the given measurement.
    pub fn contains(self, m: MeasurementId) -> bool {
        self.first == m || self.second == m
    }

    /// The other endpoint, if `m` is one of the pair's endpoints.
    pub fn partner_of(self, m: MeasurementId) -> Option<MeasurementId> {
        if self.first == m {
            Some(self.second)
        } else if self.second == m {
            Some(self.first)
        } else {
            None
        }
    }
}

impl fmt::Display for MeasurementPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} ~ {})", self.first, self.second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(machine: u32, tag: u16) -> MeasurementId {
        MeasurementId::new(MachineId::new(machine), MetricKind::Custom(tag))
    }

    #[test]
    fn pair_is_canonical() {
        let a = m(0, 0);
        let b = m(1, 0);
        let p1 = MeasurementPair::new(a, b).unwrap();
        let p2 = MeasurementPair::new(b, a).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.first(), a);
        assert_eq!(p1.second(), b);
    }

    #[test]
    fn self_pair_rejected() {
        let a = m(0, 0);
        assert!(MeasurementPair::new(a, a).is_none());
    }

    #[test]
    fn partner_lookup() {
        let a = m(0, 0);
        let b = m(1, 0);
        let c = m(2, 0);
        let p = MeasurementPair::new(a, b).unwrap();
        assert_eq!(p.partner_of(a), Some(b));
        assert_eq!(p.partner_of(b), Some(a));
        assert_eq!(p.partner_of(c), None);
        assert!(p.contains(a) && p.contains(b) && !p.contains(c));
    }

    #[test]
    fn display_formats() {
        let id = m(7, 3);
        assert_eq!(id.to_string(), "machine-007/Custom_3");
        assert_eq!(GroupId::A.to_string(), "A");
        assert_eq!(
            MetricKind::PortUtilization.to_string(),
            "CurrentUtilization_PORT"
        );
    }

    #[test]
    fn serde_roundtrip() {
        let p = MeasurementPair::new(m(1, 2), m(0, 9)).unwrap();
        let json = serde_json::to_string(&p).unwrap();
        let back: MeasurementPair = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn groups_all() {
        assert_eq!(GroupId::ALL.len(), 3);
    }

    #[test]
    fn metric_kind_display_roundtrips_through_from_str() {
        let kinds = [
            MetricKind::CpuUtilization,
            MetricKind::MemoryUsage,
            MetricKind::FreeDiskSpace,
            MetricKind::IoThroughput,
            MetricKind::IfInOctetsRate,
            MetricKind::IfOutOctetsRate,
            MetricKind::PortInOctetsRate,
            MetricKind::PortOutOctetsRate,
            MetricKind::PortUtilization,
            MetricKind::Custom(42),
        ];
        for k in kinds {
            let parsed: MetricKind = k.to_string().parse().unwrap();
            assert_eq!(parsed, k);
        }
        assert!("NotAMetric".parse::<MetricKind>().is_err());
        assert!("Custom_notanumber".parse::<MetricKind>().is_err());
    }

    #[test]
    fn metric_kind_code_roundtrips_and_sorts_like_the_kind() {
        let kinds = [
            MetricKind::CpuUtilization,
            MetricKind::MemoryUsage,
            MetricKind::FreeDiskSpace,
            MetricKind::IoThroughput,
            MetricKind::IfInOctetsRate,
            MetricKind::IfOutOctetsRate,
            MetricKind::PortInOctetsRate,
            MetricKind::PortOutOctetsRate,
            MetricKind::PortUtilization,
            MetricKind::Custom(0),
            MetricKind::Custom(42),
            MetricKind::Custom(u16::MAX),
        ];
        for (k, kind) in kinds.iter().enumerate() {
            assert_eq!(MetricKind::from_code(kind.code()), Some(*kind));
            if k < 10 {
                assert_eq!(
                    kind.code(),
                    k as u32,
                    "named kinds are 0..=8, Custom(0) is 9"
                );
            }
        }
        for pair in kinds.windows(2) {
            assert!(pair[0] < pair[1] && pair[0].code() < pair[1].code());
        }
        assert_eq!(MetricKind::Custom(u16::MAX).code(), 9 + 65_535);
        assert_eq!(MetricKind::from_code(9 + 65_536), None);
        assert_eq!(MetricKind::from_code(u32::MAX), None);
    }

    #[test]
    fn group_and_machine_from_str() {
        assert_eq!("A".parse::<GroupId>().unwrap(), GroupId::A);
        assert_eq!("b".parse::<GroupId>().unwrap(), GroupId::B);
        assert!("Z".parse::<GroupId>().is_err());
        assert_eq!(
            "machine-007".parse::<MachineId>().unwrap(),
            MachineId::new(7)
        );
        assert_eq!("12".parse::<MachineId>().unwrap(), MachineId::new(12));
        assert!("machine-x".parse::<MachineId>().is_err());
        let err = "Z".parse::<GroupId>().unwrap_err();
        assert!(err.to_string().contains("group id"));
    }
}
