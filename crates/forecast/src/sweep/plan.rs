//! The planner layer: canonical grid enumeration and deterministic
//! sharding.
//!
//! A [`SweepPlan`] is the authoritative statement of *what* a sweep
//! computes: every `(model, t, h, w)` cell, in one canonical order,
//! bound to the config fingerprint. Executors consume a plan (or one
//! shard of it); the collector uses the same plan to check
//! completeness and restore canonical order after a merge.
//!
//! Shard assignment hashes the **stable cell key** — the model name
//! and the `t`/`h`/`w` coordinates, via FNV-1a — rather than the
//! cell's position in the enumeration. Two consequences the merge
//! invariant rests on: a cell lands in the same shard no matter how
//! the grid axes were ordered when the config was written down, and
//! partitioning is a pure function of `(key, shard count)` with no
//! dependence on thread scheduling or enumeration order.

use super::SweepConfig;
use crate::checkpoint::config_fingerprint;
use crate::models::ModelSpec;
use hotspot_core::error::{CoreError, Result as CoreResult};
use std::collections::HashMap;

/// A cell's grid coordinate — the stable identity the planner shards
/// by and the collector keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Model.
    pub model: ModelSpec,
    /// Evaluation day.
    pub t: usize,
    /// Horizon.
    pub h: usize,
    /// Window.
    pub w: usize,
}

impl CellKey {
    /// FNV-1a over the rendered key. Deliberately *not*
    /// [`std::hash::Hash`] (whose output is unspecified across
    /// releases): shard membership is part of the on-disk contract,
    /// so the hash must be stable forever.
    pub fn stable_hash(&self) -> u64 {
        let rendered = format!("{}\t{}\t{}\t{}", self.model.name(), self.t, self.h, self.w);
        hotspot_obs::fnv1a(rendered.as_bytes())
    }

    /// Which of `count` shards owns this cell.
    pub fn shard_of(&self, count: u64) -> u64 {
        debug_assert!(count >= 1);
        self.stable_hash() % count.max(1)
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} t={} h={} w={}", self.model.name(), self.t, self.h, self.w)
    }
}

/// One shard of a partitioned sweep: `index` of `count`.
///
/// [`ShardSpec::FULL`] (`0/1`) is the unsharded whole — the identity
/// element every single-process path runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// Zero-based shard index.
    pub index: u64,
    /// Total number of shards (≥ 1).
    pub count: u64,
}

impl ShardSpec {
    /// The unsharded whole: shard `0/1`.
    pub const FULL: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// Whether this spec describes the unsharded whole.
    pub fn is_full(&self) -> bool {
        self.count <= 1
    }

    /// Reject impossible specs (`count == 0` or `index ≥ count`).
    pub fn validate(&self) -> CoreResult<()> {
        if self.count == 0 || self.index >= self.count {
            return Err(CoreError::InvalidConfig(format!(
                "invalid shard spec {self}: index must be < count and count ≥ 1"
            )));
        }
        Ok(())
    }

    /// Whether this shard owns `key` under the stable-hash partition.
    pub fn owns(&self, key: &CellKey) -> bool {
        self.is_full() || key.shard_of(self.count) == self.index
    }

    /// Parse `"i/n"` (as the `--shard i/n` flag and checkpoint
    /// headers spell it).
    pub fn parse(s: &str) -> Option<ShardSpec> {
        let (i, n) = s.split_once('/')?;
        let spec = ShardSpec { index: i.parse().ok()?, count: n.parse().ok()? };
        spec.validate().ok()?;
        Some(spec)
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The planned sweep: every cell in canonical order (models × ts × hs
/// × ws, as configured) plus the config fingerprint that binds
/// checkpoints, manifests, and merges to this exact grid.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    cells: Vec<CellKey>,
    fingerprint: u64,
}

impl SweepPlan {
    /// Enumerate `config`'s grid.
    pub fn new(config: &SweepConfig) -> Self {
        let mut cells =
            Vec::with_capacity(config.models.len() * config.ts.len() * config.hs.len() * config.ws.len());
        for &model in &config.models {
            for &t in &config.ts {
                for &h in &config.hs {
                    for &w in &config.ws {
                        cells.push(CellKey { model, t, h, w });
                    }
                }
            }
        }
        SweepPlan { cells, fingerprint: config_fingerprint(config) }
    }

    /// Every cell, in canonical order.
    pub fn cells(&self) -> &[CellKey] {
        &self.cells
    }

    /// Total cell count — the grid shape checkpoints must agree with.
    pub fn n_cells(&self) -> usize {
        self.cells.len()
    }

    /// The config fingerprint this plan was built from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The subset of cells `shard` owns, in canonical order.
    pub fn shard_cells(&self, shard: ShardSpec) -> Vec<CellKey> {
        self.cells.iter().filter(|k| shard.owns(k)).copied().collect()
    }

    /// Canonical position of each cell — the sort key the collector
    /// uses to restore plan order after a merge.
    pub fn order_index(&self) -> HashMap<CellKey, usize> {
        self.cells.iter().enumerate().map(|(i, k)| (*k, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ResiliencePolicy;
    use hotspot_trees::SplitStrategy;

    fn config() -> SweepConfig {
        SweepConfig {
            models: vec![ModelSpec::Average, ModelSpec::RfF1],
            ts: vec![20, 24, 28],
            hs: vec![1, 3],
            ws: vec![3, 7],
            n_trees: 8,
            train_days: 4,
            random_repeats: 10,
            seed: 3,
            n_threads: Some(2),
            resilience: ResiliencePolicy::default(),
            split: SplitStrategy::default(),
        }
    }

    #[test]
    fn plan_enumerates_canonical_grid() {
        let plan = SweepPlan::new(&config());
        assert_eq!(plan.n_cells(), 2 * 3 * 2 * 2);
        assert_eq!(plan.cells()[0], CellKey { model: ModelSpec::Average, t: 20, h: 1, w: 3 });
        // Innermost axis is w.
        assert_eq!(plan.cells()[1], CellKey { model: ModelSpec::Average, t: 20, h: 1, w: 7 });
        let order = plan.order_index();
        assert_eq!(order.len(), plan.n_cells());
        assert_eq!(order[&plan.cells()[5]], 5);
    }

    #[test]
    fn sharding_is_a_partition() {
        let plan = SweepPlan::new(&config());
        for n in [1u64, 2, 3, 5, 24, 100] {
            let mut total = 0;
            for i in 0..n {
                let shard = ShardSpec { index: i, count: n };
                let owned = plan.shard_cells(shard);
                total += owned.len();
                for key in &owned {
                    assert!(shard.owns(key));
                    for j in 0..n {
                        if j != i {
                            assert!(!ShardSpec { index: j, count: n }.owns(key), "{key} in 2 shards");
                        }
                    }
                }
            }
            assert_eq!(total, plan.n_cells(), "n={n} must cover every cell exactly once");
        }
    }

    #[test]
    fn shard_assignment_ignores_enumeration_order() {
        let cfg = config();
        let mut permuted = config();
        permuted.ts.reverse();
        permuted.ws.reverse();
        let key = CellKey { model: ModelSpec::RfF1, t: 24, h: 3, w: 7 };
        // Different plans (different fingerprints, different canonical
        // order) — yet the same key lands in the same shard.
        let a = SweepPlan::new(&cfg);
        let b = SweepPlan::new(&permuted);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.cells(), b.cells());
        for n in [2u64, 3, 7] {
            assert_eq!(key.shard_of(n), key.shard_of(n));
            let in_a: Vec<u64> =
                a.cells().iter().filter(|k| **k == key).map(|k| k.shard_of(n)).collect();
            let in_b: Vec<u64> =
                b.cells().iter().filter(|k| **k == key).map(|k| k.shard_of(n)).collect();
            assert_eq!(in_a, in_b);
        }
    }

    #[test]
    fn stable_hash_is_pinned() {
        // Shard membership is an on-disk contract: if this constant
        // moves, old shard checkpoints silently change owners.
        let key = CellKey { model: ModelSpec::Average, t: 52, h: 1, w: 7 };
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for b in "Average\t52\t1\t7".bytes() {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(key.stable_hash(), hash);
    }

    #[test]
    fn shard_spec_validates_and_parses() {
        assert!(ShardSpec::FULL.validate().is_ok());
        assert!(ShardSpec::FULL.is_full());
        assert!(ShardSpec { index: 3, count: 3 }.validate().is_err());
        assert!(ShardSpec { index: 0, count: 0 }.validate().is_err());
        assert_eq!(ShardSpec::parse("1/3"), Some(ShardSpec { index: 1, count: 3 }));
        assert_eq!(ShardSpec::parse("3/3"), None);
        assert_eq!(ShardSpec::parse("x/3"), None);
        assert_eq!(ShardSpec::parse("2"), None);
        assert_eq!(ShardSpec { index: 1, count: 3 }.to_string(), "1/3");
    }
}
