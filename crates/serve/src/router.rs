//! Deterministic pair-to-shard routing.

use gridwatch_core::TransitionModel;
use gridwatch_timeseries::MeasurementPair;

/// Routes measurement pairs to shards by hashing the pair's canonical
/// display form (FNV-1a), so the assignment is a pure function of the
/// pair and the shard count — stable across processes and restarts.
///
/// Routing only runs at startup (models are partitioned once and stay
/// pinned to their shard); snapshots themselves are broadcast to every
/// shard, since each shard must see every instant to keep its pair
/// trajectories and gap-reset behaviour identical to an unsharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        ShardRouter { shards }
    }

    /// The shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard that owns this pair.
    pub fn route(&self, pair: MeasurementPair) -> usize {
        (fnv1a(&pair.to_string()) % self.shards as u64) as usize
    }

    /// Splits a model list into per-shard lists, preserving canonical
    /// pair order inside each shard.
    pub fn partition(
        &self,
        models: Vec<(MeasurementPair, TransitionModel)>,
    ) -> Vec<Vec<(MeasurementPair, TransitionModel)>> {
        let mut shards: Vec<Vec<(MeasurementPair, TransitionModel)>> =
            (0..self.shards).map(|_| Vec::new()).collect();
        for (pair, model) in models {
            shards[self.route(pair)].push((pair, model));
        }
        shards
    }
}

fn fnv1a(text: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwatch_timeseries::{MachineId, MeasurementId, MetricKind};

    fn pair(m1: u32, t1: u16, m2: u32, t2: u16) -> MeasurementPair {
        MeasurementPair::new(
            MeasurementId::new(MachineId::new(m1), MetricKind::Custom(t1)),
            MeasurementId::new(MachineId::new(m2), MetricKind::Custom(t2)),
        )
        .unwrap()
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        let router = ShardRouter::new(4);
        for m in 0..8 {
            for t in 0..8 {
                let p = pair(m, t, m + 1, t);
                let shard = router.route(p);
                assert!(shard < 4);
                assert_eq!(shard, router.route(p), "route must be stable");
            }
        }
    }

    #[test]
    fn single_shard_takes_everything() {
        let router = ShardRouter::new(1);
        assert_eq!(router.route(pair(0, 0, 1, 0)), 0);
        assert_eq!(router.route(pair(7, 3, 9, 5)), 0);
    }

    #[test]
    fn routing_spreads_across_shards() {
        let router = ShardRouter::new(4);
        let mut seen = [false; 4];
        for m in 0..16 {
            for t in 0..16 {
                seen[router.route(pair(m, t, m + 1, t))] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "256 pairs must hit all 4 shards");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shards_rejected() {
        ShardRouter::new(0);
    }
}
