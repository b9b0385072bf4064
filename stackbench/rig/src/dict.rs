//! One view over the three structure handles the rig drives, and the
//! snapshot deltas it reads from their layers.

use std::hash::Hash;

use lf_core::SkipListHandle;
use lf_map::{BucketMapHandle, BucketMapSnapshot};
use lf_metrics::Histogram;
use lf_shard::{ShardedHandle, ShardedSnapshot};

/// The point ops every rung and workload issues.
pub trait Dict<K, V> {
    fn get(&self, k: &K) -> Option<V>;
    /// Insert-if-absent; `false` when the key was present.
    fn insert(&self, k: K, v: V) -> bool;
    fn remove(&self, k: &K) -> Option<V>;

    /// Insert or replace, the way the async tier serves `SET`: remove
    /// and retry until an insert wins (bounded; a lone writer wins in
    /// at most two rounds).
    fn upsert(&self, k: K, v: V) -> bool
    where
        K: Clone,
        V: Clone,
    {
        for _ in 0..8 {
            if self.insert(k.clone(), v.clone()) {
                return true;
            }
            let _ = self.remove(&k);
        }
        false
    }
}

macro_rules! impl_dict {
    ($handle:ident) => {
        impl<K, V> Dict<K, V> for $handle<'_, K, V>
        where
            K: Ord + Hash + Clone + Send + Sync + 'static,
            V: Clone + Send + Sync + 'static,
        {
            fn get(&self, k: &K) -> Option<V> {
                $handle::get(self, k)
            }
            fn insert(&self, k: K, v: V) -> bool {
                $handle::insert(self, k, v).is_ok()
            }
            fn remove(&self, k: &K) -> Option<V> {
                $handle::remove(self, k)
            }
        }
    };
}

impl_dict!(SkipListHandle);
impl_dict!(ShardedHandle);
impl_dict!(BucketMapHandle);

/// Per-partition (shard or bucket) op counts plus the merged hop and
/// CAS-retry histograms: the statistics `lf-shard` and `lf-map` export.
#[derive(Clone)]
pub struct PartStats {
    pub ops: Vec<u64>,
    pub hops: Histogram,
    pub cas_retries: Histogram,
}

impl PartStats {
    pub fn of_shards(s: &ShardedSnapshot) -> PartStats {
        let m = s.merged();
        PartStats {
            ops: s.per_shard.iter().map(|p| p.ops).collect(),
            hops: m.hops,
            cas_retries: m.cas_retries,
        }
    }

    pub fn of_buckets(s: &BucketMapSnapshot) -> PartStats {
        let m = s.merged();
        PartStats {
            ops: s.per_bucket.iter().map(|p| p.ops).collect(),
            hops: m.hops,
            cas_retries: m.cas_retries,
        }
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &PartStats) -> PartStats {
        PartStats {
            ops: self
                .ops
                .iter()
                .zip(&before.ops)
                .map(|(a, b)| a - b)
                .collect(),
            hops: self.hops.clone() - before.hops.clone(),
            cas_retries: self.cas_retries.clone() - before.cas_retries.clone(),
        }
    }

    /// Largest partition's share of the ops.
    pub fn max_ops_share(&self) -> f64 {
        let total: u64 = self.ops.iter().sum();
        let max = self.ops.iter().copied().max().unwrap_or(0);
        if total == 0 {
            0.0
        } else {
            max as f64 / total as f64
        }
    }
}
