//! `lf-map`: a Michael-style lock-free hash map over FR-list buckets.
//!
//! Routes each key to one of `B` (power of two) Fomitchev–Ruppert
//! [`FrList`] buckets, the shape of Michael's lock-free hash map
//! (PODC 2002) with the paper's backlink/flag list as the bucket
//! structure. A point operation touches exactly one short chain, so
//! its expected cost is `O(n/B + c(bucket))` — the paper's amortized
//! list bound evaluated at the bucket's occupancy, with the contention
//! term `c` a *per-bucket* quantity. Where the skip list (and
//! `lf-shard`'s partitioning of it) serves ordered traffic in
//! `O(log n)`, the bucketed map is the serving tier for pure key-value
//! traffic: O(1) expected point ops, no ordering, no level-1 sentinel
//! hot spot.
//!
//! The buckets are siblings ([`FrList::new_sibling`]): they share one
//! reclamation domain **and one node pool**, so a thread registers
//! once ([`BucketMap::handle`]) and a single guard covers whichever
//! bucket an operation routes to. Pool sharing means a block retired
//! from one bucket can be re-tenanted into another; pin-free readers
//! stay sound because birth-stamp validation rejects re-tenanted
//! blocks no matter which bucket's chain they resurface on (see
//! `lf-core`'s sibling read). The unordered
//! [`iter`](BucketMapHandle::iter) walks every bucket under **one** amortized
//! pin via [`ChainIter`].
//!
//! Like the rest of the stack, the map is generic over the reclamation
//! backend (`R`, default [`Ebr`]): construct with
//! [`BucketMap::with_backend`] to run the buckets over hazard pointers
//! or VBR. On a pin-free backend (VBR), [`BucketMapHandle::try_read`]
//! serves point lookups without touching the shared reclamation
//! domain at all.
//!
//! Every operation is attributed to [`Structure::Map`] in the shared
//! `lf-metrics` histograms (so map and skip-list latencies never
//! alias in mixed deployments), tagged with its bucket index for
//! `lf-trace` causal traces, and credited to per-bucket occupancy /
//! contention statistics ([`BucketMap::snapshot`]). Those statistics
//! are owner-only per-handle cells ([`lf_metrics::partition`]), so a
//! Zipf-hot bucket costs its handles no shared-line RMWs. Occupancy
//! is the statistic that matters most for a hash map: a bucket's
//! expected search cost is linear in its chain length, so
//! [`BucketMapSnapshot::max_occupancy_share`] is the direct health
//! check for the hash spreading the keys.
//!
//! # Examples
//!
//! ```
//! use lf_map::BucketMap;
//!
//! let map: BucketMap<u64, &str> = BucketMap::new(16);
//! let h = map.handle();
//! assert!(h.insert(1, "one").is_ok());
//! assert!(h.insert(2, "two").is_ok());
//! assert_eq!(h.get(&1), Some("one"));
//! assert_eq!(h.get_with(&2, |v| v.len()), Some(3));
//!
//! // Unordered scan of every bucket under one pin.
//! let mut pairs: Vec<(u64, &str)> = h.iter().collect();
//! pairs.sort_unstable();
//! assert_eq!(pairs, vec![(1, "one"), (2, "two")]);
//!
//! assert_eq!(h.remove(&1), Some("one"));
//! assert_eq!(map.len(), 1);
//! ```

mod router;

use std::fmt;
use std::hash::Hash;

use lf_core::{ChainIter, FrList, ListHandle};
use lf_metrics::partition::{self, OpHistograms, PartTotals, PartitionRecorder, PartitionStats};
use lf_metrics::Structure;
use lf_reclaim::{Ebr, Pod, Publish, Reclaim};
use lf_tagged::CachePadded;

/// Point-in-time statistics of one bucket: its op count and occupancy.
pub type BucketSnapshot = partition::PartSnapshot;

/// Statistics of every bucket of a [`BucketMap`], one entry per bucket
/// in index order, plus the map's hop and CAS-retry histograms.
#[derive(Clone, Debug)]
pub struct BucketMapSnapshot {
    /// Per-bucket snapshots, indexed by bucket.
    pub per_bucket: Vec<BucketSnapshot>,
    hists: OpHistograms,
}

impl BucketMapSnapshot {
    /// Fold all buckets into one map-wide total: counts and
    /// occupancies sum; the histograms cover every op on the map.
    #[must_use]
    pub fn merged(&self) -> PartTotals {
        self.hists.merged(&self.per_bucket)
    }

    /// Largest per-bucket share of total resident keys, in
    /// `[1/B, 1.0]` — the chain-length balance check (a share near 1.0
    /// means one chain holds most of the map and point ops have
    /// degraded toward the single-list cost).
    #[must_use]
    pub fn max_occupancy_share(&self) -> f64 {
        partition::max_occupancy_share(&self.per_bucket)
    }

    /// Largest per-bucket share of total routed ops, in `[1/B, 1.0]`
    /// — the contention balance check.
    #[must_use]
    pub fn max_ops_share(&self) -> f64 {
        partition::max_ops_share(&self.per_bucket)
    }
}

/// Default bucket count: deep enough that benchmark-scale key spaces
/// keep expected chain length in the single digits, shallow enough
/// that the bucket array stays cache-resident.
pub const DEFAULT_BUCKETS: usize = 64;

/// A lock-free hash map over `B` sibling [`FrList`] buckets.
///
/// Obtain a per-thread [`BucketMapHandle`] with
/// [`handle`](BucketMap::handle) and operate through it; the
/// convenience methods on the map itself register a fresh handle per
/// call. See the [crate docs](crate) for the design rationale.
///
/// `R` selects the safe-memory-reclamation backend shared by every
/// bucket (default epoch-based; see
/// [`with_backend`](BucketMap::with_backend)).
pub struct BucketMap<K, V, R = Ebr>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// The buckets. Each is `CachePadded` so one bucket's hot head
    /// sentinel and length counter never share a line with its
    /// neighbor.
    buckets: Box<[CachePadded<FrList<K, V, R>>]>,
    /// Per-bucket op counts and the map's hop / retry histograms.
    stats: PartitionStats,
    /// Bucket count − 1 (bucket count is a power of two).
    mask: usize,
}

impl<K, V> BucketMap<K, V>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// A map with `buckets` chains (power of two) over the default EBR
    /// backend.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or not a power of two.
    #[must_use]
    pub fn new(buckets: usize) -> Self {
        Self::with_backend(buckets)
    }
}

impl<K, V, R> BucketMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// A map with `buckets` chains over the reclamation backend `R`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero or not a power of two.
    #[must_use]
    pub fn with_backend(buckets: usize) -> Self {
        assert!(
            buckets.is_power_of_two(),
            "bucket count must be a nonzero power of two, got {buckets}"
        );
        let first = FrList::with_backend();
        let mut vec = Vec::with_capacity(buckets);
        for _ in 1..buckets {
            vec.push(CachePadded::new(first.new_sibling()));
        }
        vec.insert(0, CachePadded::new(first));
        BucketMap {
            buckets: vec.into_boxed_slice(),
            stats: PartitionStats::new(buckets),
            mask: buckets - 1,
        }
    }

    /// Register the calling thread and return an operation handle.
    ///
    /// One registration covers every bucket: the handle holds a single
    /// [`ListHandle`] (on bucket 0) and runs each routed operation on
    /// its key's bucket via the sibling ops — so unlike a
    /// handle-per-partition design, the pin-amortization cadence
    /// advances once per *map* operation, not once per `B` operations
    /// landing on the same partition.
    #[must_use]
    pub fn handle(&self) -> BucketMapHandle<'_, K, V, R> {
        BucketMapHandle {
            map: self,
            handle: self.buckets[0].handle(),
            stats: self.stats.recorder(),
        }
    }

    /// Insert through a temporary handle. See
    /// [`BucketMapHandle::insert`].
    ///
    /// # Errors
    ///
    /// Returns the rejected pair if `key` is already present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        self.handle().insert(key, value)
    }

    /// Remove through a temporary handle. See
    /// [`BucketMapHandle::remove`].
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.handle().remove(key)
    }

    /// Lookup through a temporary handle. See [`BucketMapHandle::get`].
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.handle().get(key)
    }

    /// Membership test through a temporary handle.
    pub fn contains(&self, key: &K) -> bool {
        self.handle().contains(key)
    }
}

impl<K, V, R> BucketMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Number of buckets.
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.mask + 1
    }

    /// The bucket index `key` routes to — stable for the map's
    /// lifetime and across maps with the same bucket count.
    #[must_use]
    pub fn bucket_of(&self, key: &K) -> usize {
        router::bucket_of(key, self.mask)
    }

    /// Total number of keys, summed across buckets (each bucket's
    /// count is maintained as in [`FrList::len`]; the sum is
    /// racy-fresh under concurrency).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    /// Whether every bucket is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|b| b.is_empty())
    }

    /// The reclamation domain shared by every bucket.
    #[must_use]
    pub fn domain(&self) -> &R::Domain {
        self.buckets[0].domain()
    }

    /// Per-bucket statistics plus occupancy; see [`BucketMapSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> BucketMapSnapshot {
        let (per_bucket, hists) = self.stats.snapshot(|i| self.buckets[i].len());
        BucketMapSnapshot { per_bucket, hists }
    }

    /// Validate every bucket's structural invariants; quiescent only.
    ///
    /// # Panics
    ///
    /// Panics (with a description) if any bucket's invariant is
    /// violated.
    pub fn validate_quiescent(&self)
    where
        K: Ord,
    {
        for b in self.buckets.iter() {
            b.validate_quiescent();
        }
    }
}

impl<K, V, R> Default for BucketMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn default() -> Self {
        Self::with_backend(DEFAULT_BUCKETS)
    }
}

impl<K, V, R> fmt::Debug for BucketMap<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BucketMap")
            .field("backend", &R::NAME)
            .field("buckets", &self.bucket_count())
            .field("len", &self.len())
            .finish()
    }
}

/// A registered per-thread handle to a [`BucketMap`].
///
/// Holds **one** [`ListHandle`] registration (one epoch slot, one
/// local pool cache, one pin-amortization counter) and routes each
/// operation to its key's bucket through the sibling ops. Every
/// operation records an [`lf_metrics`] op boundary attributed to
/// [`Structure::Map`], carries its bucket index as the `lf-trace`
/// shard tag, and credits its step delta to the bucket through the
/// handle's own statistics recorder.
pub struct BucketMapHandle<'m, K, V, R = Ebr>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    map: &'m BucketMap<K, V, R>,
    handle: ListHandle<'m, K, V, R>,
    stats: PartitionRecorder<'m>,
}

impl<'m, K, V, R> BucketMapHandle<'m, K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    #[inline]
    fn route(&self, key: &K) -> usize {
        router::bucket_of(key, self.map.mask)
    }

    /// Insert `(key, value)` into the key's bucket. Returns the
    /// rejected pair if `key` is already present.
    ///
    /// # Errors
    ///
    /// Returns the rejected pair if `key` is already present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        let i = self.route(&key);
        // Causal-trace tag: events the bucket op records (search,
        // cas-fail, ...) carry the bucket index; free when tracing is
        // off. Same pattern in every routed op below.
        let _t = lf_trace::shard_scope(i as u16);
        let op = lf_metrics::op_begin_for(Structure::Map);
        let before = lf_metrics::local_steps();
        let res = self.handle.insert_in(&self.map.buckets[i], key, value);
        self.stats
            .record(i, lf_metrics::local_steps().delta_since(before));
        lf_metrics::op_end(op);
        res
    }

    /// Remove `key` from its bucket, returning its value.
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let i = self.route(key);
        let _t = lf_trace::shard_scope(i as u16);
        let op = lf_metrics::op_begin_for(Structure::Map);
        let before = lf_metrics::local_steps();
        let res = self.handle.remove_in(&self.map.buckets[i], key);
        self.stats
            .record(i, lf_metrics::local_steps().delta_since(before));
        lf_metrics::op_end(op);
        res
    }

    /// Look up `key` in its bucket, returning a clone of its value.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let i = self.route(key);
        let _t = lf_trace::shard_scope(i as u16);
        let op = lf_metrics::op_begin_for(Structure::Map);
        let before = lf_metrics::local_steps();
        let res = self.handle.get_in(&self.map.buckets[i], key);
        self.stats
            .record(i, lf_metrics::local_steps().delta_since(before));
        lf_metrics::op_end(op);
        res
    }

    /// Look up `key` in its bucket without pinning the reclamation
    /// domain, when the backend supports it; see
    /// [`ListHandle::try_read_in`]. Falls back to the pinned
    /// [`get`](Self::get) path on pinned backends or after repeated
    /// validation races (pool sharing makes those validations reject
    /// blocks re-tenanted into *any* sibling bucket, not just this
    /// one).
    pub fn try_read(&self, key: &K) -> Option<V>
    where
        K: Pod,
        V: Pod,
    {
        let i = self.route(key);
        let _t = lf_trace::shard_scope(i as u16);
        let op = lf_metrics::op_begin_for(Structure::Map);
        let before = lf_metrics::local_steps();
        let res = self.handle.try_read_in(&self.map.buckets[i], key);
        self.stats
            .record(i, lf_metrics::local_steps().delta_since(before));
        lf_metrics::op_end(op);
        res
    }

    /// Zero-copy lookup: run `f` over the value in place (under the
    /// bucket's epoch pin) instead of cloning it out. Keep `f` short —
    /// the pin delays reclamation for the whole shared domain.
    pub fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let i = self.route(key);
        let _t = lf_trace::shard_scope(i as u16);
        let op = lf_metrics::op_begin_for(Structure::Map);
        let before = lf_metrics::local_steps();
        let res = self.handle.get_with_in(&self.map.buckets[i], key, f);
        self.stats
            .record(i, lf_metrics::local_steps().delta_since(before));
        lf_metrics::op_end(op);
        res
    }

    /// Whether `key` is present in its bucket.
    pub fn contains(&self, key: &K) -> bool {
        let i = self.route(key);
        let _t = lf_trace::shard_scope(i as u16);
        let op = lf_metrics::op_begin_for(Structure::Map);
        let before = lf_metrics::local_steps();
        let res = self.handle.contains_in(&self.map.buckets[i], key);
        self.stats
            .record(i, lf_metrics::local_steps().delta_since(before));
        lf_metrics::op_end(op);
        res
    }

    /// Unordered iteration over every bucket under **one** amortized
    /// pin ([`ChainIter`]): each bucket's pairs come out in key order,
    /// buckets in index order — which is hash order, i.e. no order at
    /// all. Weakly consistent per bucket (pairs present for the whole
    /// scan appear exactly once) with no cross-bucket atomicity claim.
    /// Iteration work is not attributed to per-bucket statistics.
    pub fn iter(&self) -> ChainIter<'_, 'm, K, V, R>
    where
        K: Clone,
        V: Clone,
    {
        self.handle
            .iter_chain(self.map.buckets.iter().map(|b| &**b))
    }

    /// Total number of keys, summed across buckets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether every bucket is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The map this handle operates on.
    #[must_use]
    pub fn map(&self) -> &'m BucketMap<K, V, R> {
        self.map
    }

    /// Announce a quiescent point; see [`ListHandle::quiesce`]. One
    /// call covers every bucket (single registration).
    pub fn quiesce(&self) {
        self.handle.quiesce();
    }

    /// Drain deferred reclamation; see
    /// [`ListHandle::flush_reclamation`]. One call covers every bucket.
    pub fn flush_reclamation(&self) {
        self.handle.flush_reclamation();
    }

    /// Set pin amortization; see [`ListHandle::amortize_pins`]. The
    /// counter is per map handle, so it advances once per routed
    /// operation regardless of which bucket the key lands in.
    pub fn amortize_pins(&self, every: u32) {
        self.handle.amortize_pins(every);
    }
}

impl<K, V, R> fmt::Debug for BucketMapHandle<'_, K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BucketMapHandle")
            .field("buckets", &self.map.bucket_count())
            .finish()
    }
}

impl<K, V, R> lf_core::Dict for BucketMap<K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a> = BucketMapHandle<'a, K, V, R>;

    fn handle(&self) -> Self::Handle<'_> {
        BucketMap::handle(self)
    }

    fn len(&self) -> usize {
        BucketMap::len(self)
    }

    /// Bucket affinity: a key's bucket.
    fn partition_of(&self, key: &K) -> Option<usize> {
        Some(self.bucket_of(key))
    }
}

impl<K, V, R> lf_core::DictHandle<K, V> for BucketMapHandle<'_, K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn get(&self, key: &K) -> Option<V> {
        BucketMapHandle::get(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        BucketMapHandle::contains(self, key)
    }

    fn insert(&self, key: K, value: V) -> bool {
        BucketMapHandle::insert(self, key, value).is_ok()
    }

    fn remove(&self, key: &K) -> Option<V> {
        BucketMapHandle::remove(self, key)
    }

    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        BucketMapHandle::get_with(self, key, f)
    }

    fn try_read(&self, key: &K) -> Option<V>
    where
        K: Pod,
        V: Pod,
    {
        BucketMapHandle::try_read(self, key)
    }
    fn amortize_pins(&self, every: u32) {
        BucketMapHandle::amortize_pins(self, every);
    }

    fn quiesce(&self) {
        BucketMapHandle::quiesce(self);
    }

    fn flush_reclamation(&self) {
        BucketMapHandle::flush_reclamation(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_vbr::Vbr;

    #[test]
    fn buckets_share_one_domain() {
        let map: BucketMap<u64, u64> = BucketMap::new(8);
        for w in map.buckets.windows(2) {
            assert!(w[0].shares_domain_with(&w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn zero_buckets_rejected() {
        let _ = BucketMap::<u64, u64>::new(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = BucketMap::<u64, u64>::new(48);
    }

    #[test]
    fn point_ops_route_consistently() {
        let map: BucketMap<u64, u64> = BucketMap::new(16);
        let h = map.handle();
        for k in 0..500u64 {
            assert!(h.insert(k, k * 10).is_ok());
        }
        assert_eq!(map.len(), 500);
        for k in 0..500u64 {
            assert_eq!(h.get(&k), Some(k * 10));
            assert!(h.contains(&k));
            assert_eq!(h.get_with(&k, |v| v + 1), Some(k * 10 + 1));
        }
        assert!(h.insert(7, 0).is_err());
        for k in 0..500u64 {
            assert_eq!(h.remove(&k), Some(k * 10));
        }
        assert!(map.is_empty());
        map.validate_quiescent();
    }

    #[test]
    fn iter_covers_every_bucket_once() {
        let map: BucketMap<u64, u64> = BucketMap::new(8);
        let h = map.handle();
        for k in 0..300u64 {
            assert!(h.insert(k, k * 2).is_ok());
        }
        let mut pairs: Vec<(u64, u64)> = h.iter().collect();
        assert_eq!(pairs.len(), 300);
        pairs.sort_unstable();
        for (i, (k, v)) in pairs.into_iter().enumerate() {
            assert_eq!(k, i as u64);
            assert_eq!(v, k * 2);
        }
    }

    #[test]
    fn single_bucket_degenerates_to_plain_list() {
        let map: BucketMap<u64, u64> = BucketMap::new(1);
        let h = map.handle();
        for k in (0..100u64).rev() {
            assert!(h.insert(k, k).is_ok());
        }
        let keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
        // One bucket: chain order is key order.
        assert_eq!(keys, (0..100).collect::<Vec<_>>());
        let snap = map.snapshot();
        assert_eq!(snap.per_bucket[0].ops, 100);
    }

    #[test]
    fn snapshot_attributes_ops_and_occupancy_to_buckets() {
        const THREADS: u64 = if cfg!(miri) { 2 } else { 4 };
        const PER: u64 = if cfg!(miri) { 16 } else { 100 };
        let map: BucketMap<u64, u64> = BucketMap::new(4);
        // Each thread inserts its own keys on its own handle and tallies
        // how many ops it routed to each bucket.
        let mut routed = [0u64; 4];
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let map = &map;
                    s.spawn(move || {
                        let h = map.handle();
                        let mut mine = [0u64; 4];
                        for k in t * PER..(t + 1) * PER {
                            assert!(h.insert(k, k).is_ok());
                            mine[map.bucket_of(&k)] += 1;
                        }
                        mine
                    })
                })
                .collect();
            for w in workers {
                for (r, m) in routed.iter_mut().zip(w.join().unwrap()) {
                    *r += m;
                }
            }
        });
        let n = THREADS * PER;
        // The inserts alone: one op per resident key in every bucket.
        let snap = map.snapshot();
        assert_eq!(snap.per_bucket.len(), 4);
        for (i, b) in snap.per_bucket.iter().enumerate() {
            assert_eq!(b.ops, routed[i], "bucket {i}");
            assert_eq!(b.ops as usize, b.occupancy, "bucket {i}");
        }
        // Sequential keys must spread: no bucket may own >60% of keys.
        assert!(snap.max_occupancy_share() < 0.6, "{snap:?}");
        assert!(snap.max_ops_share() < 0.6, "{snap:?}");

        // A live handle's ops are counted while it lives, and dropping it
        // folds them exactly once.
        let h = map.handle();
        for k in 0..n {
            assert_eq!(h.get(&k), Some(k));
        }
        let live = map.snapshot();
        drop(h);
        let folded = map.snapshot();
        for (i, (a, b)) in live.per_bucket.iter().zip(&folded.per_bucket).enumerate() {
            assert_eq!(a.ops, 2 * routed[i], "bucket {i}");
            assert_eq!(a, b, "bucket {i}");
        }
        let (a, b) = (live.merged(), folded.merged());
        assert_eq!((a.ops, a.occupancy), (2 * n, n as usize));
        assert_eq!((b.ops, b.occupancy), (a.ops, a.occupancy));
        // One hop and one retry sample per op, whichever handle ran it.
        for m in [&a, &b] {
            assert_eq!(m.hops.count(), m.ops);
            assert_eq!(m.cas_retries.count(), m.ops);
        }
        assert_eq!(a.hops.sum(), b.hops.sum());
        assert_eq!(a.cas_retries.sum(), b.cas_retries.sum());

        // Convenience calls run through temporary handles and count too.
        let i = map.bucket_of(&0);
        assert!(map.contains(&0));
        assert_eq!(map.get(&0), Some(0));
        let snap = map.snapshot();
        assert_eq!(snap.per_bucket[i].ops, 2 * routed[i] + 2);
        assert_eq!(snap.merged().hops.count(), 2 * n + 2);
    }

    #[test]
    fn ops_attribute_to_map_structure_in_metrics() {
        let map: BucketMap<u64, u64> = BucketMap::new(4);
        let h = map.handle();
        let before = lf_metrics::snapshot();
        for k in 0..32u64 {
            assert!(h.insert(k, k).is_ok());
        }
        for k in 0..32u64 {
            assert_eq!(h.get(&k), Some(k));
        }
        let delta = lf_metrics::snapshot() - before;
        assert!(
            delta.ops_for(Structure::Map) >= 64,
            "map ops under-attributed: {}",
            delta.ops_for(Structure::Map)
        );
    }

    #[test]
    fn vbr_backend_end_to_end() {
        let map: BucketMap<u64, u64, Vbr> = BucketMap::with_backend(8);
        let h = map.handle();
        for k in 0..300u64 {
            assert!(h.insert(k, k * 3).is_ok());
        }
        for k in 0..300u64 {
            // Pin-free read path routes like the pinned ops.
            assert_eq!(h.try_read(&k), Some(k * 3));
        }
        assert_eq!(h.try_read(&1000), None);
        let mut keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..300).collect::<Vec<_>>());
        for k in 0..300u64 {
            assert_eq!(h.remove(&k), Some(k * 3));
            assert_eq!(h.try_read(&k), None);
        }
        assert!(map.is_empty());
        map.validate_quiescent();
    }

    #[test]
    fn hazard_backend_end_to_end() {
        let map: BucketMap<u64, u64, lf_hazard::Hp> = BucketMap::with_backend(4);
        let h = map.handle();
        for k in 0..100u64 {
            assert!(h.insert(k, k).is_ok());
        }
        for k in 0..100u64 {
            assert_eq!(h.get(&k), Some(k));
            // On a pinned backend try_read is the pinned get.
            assert_eq!(h.try_read(&k), Some(k));
        }
        for k in 0..100u64 {
            assert_eq!(h.remove(&k), Some(k));
        }
        assert!(map.is_empty());
        map.validate_quiescent();
    }
}
