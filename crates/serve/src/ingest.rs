//! Ingestion-side backpressure policy.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// What the ingestion front does when a shard queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackpressurePolicy {
    /// Block the submitter until every shard has room. Lossless: the
    /// sharded engine stays bit-identical to an unsharded one.
    #[default]
    Block,
    /// Refuse the new snapshot outright when any shard queue is full.
    /// Lossy but consistent: a rejected snapshot reaches no shard, so
    /// all shards always see the same (sub)stream.
    Reject,
}

impl fmt::Display for BackpressurePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackpressurePolicy::Block => write!(f, "block"),
            BackpressurePolicy::Reject => write!(f, "reject"),
        }
    }
}

/// Error parsing a [`BackpressurePolicy`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    offered: String,
}

impl fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown backpressure policy {:?} (expected block or reject)",
            self.offered
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl FromStr for BackpressurePolicy {
    type Err = ParsePolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "block" => Ok(BackpressurePolicy::Block),
            "reject" => Ok(BackpressurePolicy::Reject),
            other => Err(ParsePolicyError {
                offered: other.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_its_display_form() {
        for policy in [BackpressurePolicy::Block, BackpressurePolicy::Reject] {
            assert_eq!(
                policy.to_string().parse::<BackpressurePolicy>().unwrap(),
                policy
            );
        }
        let err = "flood".parse::<BackpressurePolicy>().unwrap_err();
        assert!(err.to_string().contains("flood"));
    }

    #[test]
    fn default_policy_is_lossless() {
        assert_eq!(BackpressurePolicy::default(), BackpressurePolicy::Block);
    }
}
