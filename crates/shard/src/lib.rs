//! `lf-shard`: a hash-partitioned lock-free dictionary.
//!
//! Routes each key to one of `P` independent Fomitchev–Ruppert
//! [`SkipList`]s (`P` a power of two). Under write-heavy load a single
//! skip list funnels every operation through one head tower, so the
//! paper's `O(n(S) + c(S))` amortized bound is dominated by the
//! contention term `c(S)` at the shared entry point; partitioning
//! makes `c(S)` a *per-shard* quantity while each shard keeps the
//! paper's semantics and proofs unchanged.
//!
//! The shards are siblings ([`SkipList::new_sibling`]): they share one
//! epoch-reclamation domain and one tower-node pool, so a single pin
//! covers traversals of all of them. That is what makes the ordered
//! cross-shard [`range`](ShardedHandle::range) scan — a k-way merge of
//! per-shard level-1 traversals — possible under **one** amortized
//! epoch pin per scan, with each per-shard cursor helping physical
//! deletion exactly as a paper search does.
//!
//! Like the underlying skip list, the map is generic over the
//! reclamation backend (`R`, default [`Ebr`]): construct with
//! [`ShardedSkipList::with_backend`] to run all shards over hazard
//! pointers or VBR instead. On a pin-free backend (VBR),
//! [`ShardedHandle::try_read`] serves point lookups without touching
//! the shared reclamation domain at all.
//!
//! Per-shard telemetry (`ops`, occupancy, plus map-wide search-hop
//! and CAS-retry histograms) is re-bucketed from the thread-sharded
//! `lf-metrics` counters by differencing them around each routed
//! operation, into owner-only per-handle cells
//! ([`lf_metrics::partition`]); see [`ShardedSkipList::snapshot`].
//!
//! For pure key-value traffic with no ordered scans there is also the
//! bucketed-map flavor, [`ShardedMap`]: shards that are whole `lf-map`
//! [`BucketMap`](lf_map::BucketMap)s (O(1) expected point ops), each
//! with its own reclamation domain and node pool so retire and epoch
//! bookkeeping partition along with the keys. See
//! [`map_flavor`](ShardedMap) for the trade-offs.
//!
//! # Examples
//!
//! ```
//! use lf_shard::ShardedSkipList;
//!
//! let map: ShardedSkipList<u64, &str> = ShardedSkipList::new(8);
//! let h = map.handle();
//! assert!(h.insert(1, "one").is_ok());
//! assert!(h.insert(2, "two").is_ok());
//! assert_eq!(h.get(&1), Some("one"));
//! assert_eq!(h.get_with(&2, |v| v.len()), Some(3));
//!
//! // Ordered scan across every shard, zero-copy.
//! let mut keys = Vec::new();
//! h.range(.., |k, _v| {
//!     keys.push(*k);
//!     true
//! });
//! assert_eq!(keys, vec![1, 2]);
//!
//! assert_eq!(h.remove(&1), Some("one"));
//! assert_eq!(map.len(), 1);
//! ```

mod map_flavor;
mod router;

pub use map_flavor::{ShardedMap, ShardedMapHandle, ShardedMapIter};

use std::fmt;
use std::hash::Hash;
use std::ops::{Bound, RangeBounds};

use lf_core::skiplist::{merged_range, SkipList, SkipListHandle};
use lf_metrics::partition::{self, OpHistograms, PartTotals, PartitionRecorder, PartitionStats};
use lf_reclaim::{Ebr, Pod, Publish, Reclaim};
use lf_tagged::CachePadded;

/// Point-in-time statistics of one shard: its op count and occupancy.
pub type ShardSnapshot = partition::PartSnapshot;

/// Statistics of every shard of a [`ShardedSkipList`], one entry per
/// shard in index order, plus the map's hop and CAS-retry histograms.
#[derive(Clone, Debug)]
pub struct ShardedSnapshot {
    /// Per-shard snapshots, indexed by shard.
    pub per_shard: Vec<ShardSnapshot>,
    hists: OpHistograms,
}

impl ShardedSnapshot {
    /// Fold all shards into one map-wide total: counts and
    /// occupancies sum; the histograms cover every op on the map.
    #[must_use]
    pub fn merged(&self) -> PartTotals {
        self.hists.merged(&self.per_shard)
    }

    /// Largest per-shard share of total routed ops, in `[1/P, 1.0]` —
    /// a quick balance check (1/P is perfectly even).
    #[must_use]
    pub fn max_ops_share(&self) -> f64 {
        partition::max_ops_share(&self.per_shard)
    }
}

/// Default shard count: enough to split head-tower contention across a
/// typical benchmark machine's cores without diluting per-shard
/// occupancy at small map sizes.
pub const DEFAULT_SHARDS: usize = 8;

/// A hash-partitioned dictionary over `P` sibling [`SkipList`]s.
///
/// Obtain a per-thread [`ShardedHandle`] with
/// [`handle`](ShardedSkipList::handle) and operate through it; the
/// convenience methods on the map itself register a fresh handle per
/// call. See the [crate docs](crate) for the partitioning rationale
/// and the scan's consistency contract.
///
/// `R` selects the safe-memory-reclamation backend shared by every
/// shard (default epoch-based; see
/// [`with_backend`](ShardedSkipList::with_backend)).
pub struct ShardedSkipList<K, V, R = Ebr>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// The partitions. Each is `CachePadded` so one shard's hot head
    /// tower and length counter never share a line with its neighbor.
    shards: Box<[CachePadded<SkipList<K, V, R>>]>,
    /// Per-shard op counts and the map's hop / retry histograms.
    stats: PartitionStats,
    /// Shard count − 1 (shard count is a power of two).
    mask: usize,
}

impl<K, V> ShardedSkipList<K, V>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// A map with `shards` partitions (power of two) at the default
    /// per-shard level budget, over the default EBR backend.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or not a power of two.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self::with_backend(shards)
    }

    /// A map with `shards` partitions whose skip lists use
    /// `max_level` levels; see [`SkipList::with_max_level`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or not a power of two, or if
    /// `max_level < 2`.
    #[must_use]
    pub fn with_max_level(shards: usize, max_level: usize) -> Self {
        Self::with_backend_max_level(shards, max_level)
    }
}

impl<K, V, R> ShardedSkipList<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// A map with `shards` partitions over the reclamation backend
    /// `R`, at the default per-shard level budget.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or not a power of two.
    #[must_use]
    pub fn with_backend(shards: usize) -> Self {
        Self::build(shards, None)
    }

    /// A map with `shards` partitions over backend `R` whose skip
    /// lists use `max_level` levels.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or not a power of two, or if
    /// `max_level < 2`.
    #[must_use]
    pub fn with_backend_max_level(shards: usize, max_level: usize) -> Self {
        Self::build(shards, Some(max_level))
    }

    fn build(shards: usize, max_level: Option<usize>) -> Self {
        assert!(
            shards.is_power_of_two(),
            "shard count must be a nonzero power of two, got {shards}"
        );
        let first = match max_level {
            Some(ml) => SkipList::with_backend_max_level(ml),
            None => SkipList::with_backend(),
        };
        let mut vec = Vec::with_capacity(shards);
        for _ in 1..shards {
            vec.push(CachePadded::new(first.new_sibling()));
        }
        vec.insert(0, CachePadded::new(first));
        ShardedSkipList {
            shards: vec.into_boxed_slice(),
            stats: PartitionStats::new(shards),
            mask: shards - 1,
        }
    }

    /// Register a per-thread handle (one [`SkipListHandle`] per shard,
    /// all in the shared reclamation domain).
    #[must_use]
    pub fn handle(&self) -> ShardedHandle<'_, K, V, R> {
        ShardedHandle {
            map: self,
            handles: self.shards.iter().map(|s| s.handle()).collect(),
            stats: self.stats.recorder(),
        }
    }

    /// Insert through a temporary handle. See [`ShardedHandle::insert`].
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        self.handle().insert(key, value)
    }

    /// Remove through a temporary handle. See [`ShardedHandle::remove`].
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.handle().remove(key)
    }

    /// Lookup through a temporary handle. See [`ShardedHandle::get`].
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

impl<K, V, R> ShardedSkipList<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    /// Number of partitions.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.mask + 1
    }

    /// The shard index `key` routes to — stable for the map's lifetime
    /// and across maps with the same shard count.
    #[must_use]
    pub fn shard_of(&self, key: &K) -> usize {
        router::shard_of(key, self.mask)
    }

    /// Total number of keys, summed across shards (each shard's count
    /// is maintained as in [`SkipList::len`]; the sum is racy-fresh
    /// under concurrency).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// The reclamation domain shared by every shard.
    #[must_use]
    pub fn domain(&self) -> &R::Domain {
        self.shards[0].domain()
    }

    /// Per-shard statistics plus occupancy; see [`ShardedSnapshot`].
    #[must_use]
    pub fn snapshot(&self) -> ShardedSnapshot {
        let (per_shard, hists) = self.stats.snapshot(|i| self.shards[i].len());
        ShardedSnapshot { per_shard, hists }
    }

    /// Validate every shard's structural invariants; quiescent only.
    ///
    /// # Panics
    ///
    /// Panics (with a description) if any shard's invariant is
    /// violated.
    pub fn validate_quiescent(&self) {
        for s in self.shards.iter() {
            s.validate_quiescent();
        }
    }
}

impl<K, V, R> Default for ShardedSkipList<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn default() -> Self {
        Self::with_backend(DEFAULT_SHARDS)
    }
}

impl<K, V, R> fmt::Debug for ShardedSkipList<K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedSkipList")
            .field("backend", &R::NAME)
            .field("shards", &self.shard_count())
            .field("len", &self.len())
            .finish()
    }
}

/// A registered per-thread handle to a [`ShardedSkipList`].
///
/// Owns one [`SkipListHandle`] per shard; every operation routes the
/// key to its shard's handle, and the step counters are differenced
/// around the call to credit the work to that shard through the
/// handle's own statistics recorder (see [`ShardedSkipList::snapshot`]).
pub struct ShardedHandle<'s, K, V, R = Ebr>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    map: &'s ShardedSkipList<K, V, R>,
    handles: Box<[SkipListHandle<'s, K, V, R>]>,
    stats: PartitionRecorder<'s>,
}

impl<'s, K, V, R> ShardedHandle<'s, K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    #[inline]
    fn route(&self, key: &K) -> usize {
        router::shard_of(key, self.map.mask)
    }

    /// Insert `(key, value)` into the key's shard. Returns the
    /// rejected pair if `key` is already present.
    pub fn insert(&self, key: K, value: V) -> Result<(), (K, V)> {
        let i = self.route(&key);
        // Causal-trace tag: events the shard op records (search,
        // cas-fail, ...) carry the shard index; free when tracing is
        // off. Same pattern in every routed op below.
        let _t = lf_trace::shard_scope(i as u16);
        let before = lf_metrics::local_steps();
        let res = self.handles[i].insert(key, value);
        self.stats
            .record(i, lf_metrics::local_steps().delta_since(before));
        res
    }

    /// Remove `key` from its shard, returning its value.
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let i = self.route(key);
        let _t = lf_trace::shard_scope(i as u16);
        let before = lf_metrics::local_steps();
        let res = self.handles[i].remove(key);
        self.stats
            .record(i, lf_metrics::local_steps().delta_since(before));
        res
    }

    /// Look up `key` in its shard, returning a clone of its value.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let i = self.route(key);
        let _t = lf_trace::shard_scope(i as u16);
        let before = lf_metrics::local_steps();
        let res = self.handles[i].get(key);
        self.stats
            .record(i, lf_metrics::local_steps().delta_since(before));
        res
    }

    /// Look up `key` in its shard without pinning the reclamation
    /// domain, when the backend supports it; see
    /// [`SkipListHandle::try_read`]. Falls back to the pinned
    /// [`get`](Self::get) path on pinned backends or after repeated
    /// validation races.
    pub fn try_read(&self, key: &K) -> Option<V>
    where
        K: Pod,
        V: Pod,
    {
        let i = self.route(key);
        let _t = lf_trace::shard_scope(i as u16);
        let before = lf_metrics::local_steps();
        let res = self.handles[i].try_read(key);
        self.stats
            .record(i, lf_metrics::local_steps().delta_since(before));
        res
    }

    /// Zero-copy lookup: run `f` over the value in place (under the
    /// shard's epoch pin) instead of cloning it out. See
    /// [`SkipListHandle::get_with`].
    pub fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        let i = self.route(key);
        let _t = lf_trace::shard_scope(i as u16);
        let before = lf_metrics::local_steps();
        let res = self.handles[i].get_with(key, f);
        self.stats
            .record(i, lf_metrics::local_steps().delta_since(before));
        res
    }

    /// Whether `key` is present in its shard.
    pub fn contains(&self, key: &K) -> bool {
        let i = self.route(key);
        let _t = lf_trace::shard_scope(i as u16);
        let before = lf_metrics::local_steps();
        let res = self.handles[i].contains(key);
        self.stats
            .record(i, lf_metrics::local_steps().delta_since(before));
        res
    }

    /// Ordered scan over the union of all shards: calls
    /// `visitor(key, value)` for each pair of the range in strictly
    /// ascending key order and returns the number of pairs visited
    /// (the visitor returns `false` to stop early).
    ///
    /// Implemented as a k-way merge of per-shard level-1 traversals
    /// under a single amortized epoch pin
    /// ([`merged_range`]); each cursor helps
    /// physical deletion as a paper search does. **No atomic snapshot
    /// across (or within) shards**: keys present for the scan's whole
    /// duration appear exactly once, keys absent throughout never
    /// appear, and concurrent insertions/deletions may or may not be
    /// observed. Scan work is not attributed to per-shard statistics.
    pub fn range<B, F>(&self, range: B, visitor: F) -> usize
    where
        B: RangeBounds<K>,
        F: FnMut(&K, &V) -> bool,
    {
        let refs: Vec<&SkipListHandle<'_, K, V, R>> = self.handles.iter().collect();
        merged_range(&refs, range.start_bound(), range.end_bound(), visitor)
    }

    /// Total number of keys, summed across shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether every shard is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The map this handle operates on.
    #[must_use]
    pub fn map(&self) -> &'s ShardedSkipList<K, V, R> {
        self.map
    }

    /// Announce a quiescent point on every shard handle; see
    /// [`SkipListHandle::quiesce`].
    pub fn quiesce(&self) {
        for h in self.handles.iter() {
            h.quiesce();
        }
    }

    /// Drain deferred reclamation on every shard handle; see
    /// [`SkipListHandle::flush_reclamation`].
    pub fn flush_reclamation(&self) {
        for h in self.handles.iter() {
            h.flush_reclamation();
        }
    }

    /// Set pin amortization on every shard handle; see
    /// [`SkipListHandle::amortize_pins`]. Note the counter is
    /// per-shard-handle: with `P` shards a routed workload advances
    /// each counter `P`× slower, so epoch announcements are up to
    /// `P × every` operations apart.
    pub fn amortize_pins(&self, every: u32) {
        for h in self.handles.iter() {
            h.amortize_pins(every);
        }
    }
}

impl<K, V, R> fmt::Debug for ShardedHandle<'_, K, V, R>
where
    K: Ord + Hash + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedHandle")
            .field("shards", &self.handles.len())
            .finish()
    }
}

impl<K, V, R> lf_core::Dict for ShardedSkipList<K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    type Key = K;
    type Value = V;
    type Handle<'a> = ShardedHandle<'a, K, V, R>;

    fn handle(&self) -> Self::Handle<'_> {
        ShardedSkipList::handle(self)
    }

    fn len(&self) -> usize {
        ShardedSkipList::len(self)
    }

    fn ordered(&self) -> bool {
        true
    }

    /// Shard affinity: a key's shard.
    fn partition_of(&self, key: &K) -> Option<usize> {
        Some(self.shard_of(key))
    }
}

impl<K, V, R> lf_core::DictHandle<K, V> for ShardedHandle<'_, K, V, R>
where
    K: Ord + Hash + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    fn get(&self, key: &K) -> Option<V> {
        ShardedHandle::get(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        ShardedHandle::contains(self, key)
    }

    fn insert(&self, key: K, value: V) -> bool {
        ShardedHandle::insert(self, key, value).is_ok()
    }

    fn remove(&self, key: &K) -> Option<V> {
        ShardedHandle::remove(self, key)
    }

    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        ShardedHandle::get_with(self, key, f)
    }

    fn try_read(&self, key: &K) -> Option<V>
    where
        K: Pod,
        V: Pod,
    {
        ShardedHandle::try_read(self, key)
    }

    /// A k-way merged [`range`](ShardedHandle::range) across shards; the
    /// visitor stops the merge once the page is full.
    fn scan(&self, after: Option<&K>, limit: usize, out: &mut Vec<(K, V)>) {
        if limit == 0 {
            return;
        }
        let from = after.map_or(Bound::Unbounded, |k| Bound::Excluded(k.clone()));
        let start = out.len();
        self.range((from, Bound::Unbounded), |k, v| {
            out.push((k.clone(), v.clone()));
            out.len() - start < limit
        });
    }
    fn amortize_pins(&self, every: u32) {
        ShardedHandle::amortize_pins(self, every);
    }

    fn quiesce(&self) {
        ShardedHandle::quiesce(self);
    }

    fn flush_reclamation(&self) {
        ShardedHandle::flush_reclamation(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lf_vbr::Vbr;

    #[test]
    fn shards_share_one_domain() {
        let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(4);
        for w in map.shards.windows(2) {
            assert!(w[0].shares_domain_with(&w[1]));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn zero_shards_rejected() {
        let _ = ShardedSkipList::<u64, u64>::new(0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = ShardedSkipList::<u64, u64>::new(6);
    }

    #[test]
    fn point_ops_route_consistently() {
        let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(8);
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
    fn range_is_sorted_and_complete() {
        let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(8);
        let h = map.handle();
        for k in 0..300u64 {
            assert!(h.insert(k, k).is_ok());
        }
        let mut seen = Vec::new();
        let n = h.range(10..=20, |k, v| {
            assert_eq!(k, v);
            seen.push(*k);
            true
        });
        assert_eq!(n, 11);
        assert_eq!(seen, (10..=20).collect::<Vec<_>>());

        // Unbounded scan covers everything, in order, exactly once.
        let mut all = Vec::new();
        h.range(.., |k, _| {
            all.push(*k);
            true
        });
        assert_eq!(all, (0..300).collect::<Vec<_>>());

        // Early stop.
        let mut count = 0;
        let n = h.range(.., |_, _| {
            count += 1;
            count < 5
        });
        assert_eq!(n, 5);
    }

    #[test]
    fn snapshot_attributes_ops_to_shards() {
        const THREADS: u64 = if cfg!(miri) { 2 } else { 4 };
        const PER: u64 = if cfg!(miri) { 16 } else { 100 };
        let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(4);
        // Each thread inserts its own keys on its own handle and tallies
        // how many ops it routed to each shard.
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
                            mine[map.shard_of(&k)] += 1;
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
        // The inserts alone: one op per resident key in every shard.
        let snap = map.snapshot();
        assert_eq!(snap.per_shard.len(), 4);
        for (i, sh) in snap.per_shard.iter().enumerate() {
            assert_eq!(sh.ops, routed[i], "shard {i}");
            assert_eq!(sh.ops as usize, sh.occupancy, "shard {i}");
        }
        // Sequential keys must spread: no shard may own >60% of ops.
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
        for (i, (a, b)) in live.per_shard.iter().zip(&folded.per_shard).enumerate() {
            assert_eq!(a.ops, 2 * routed[i], "shard {i}");
            assert_eq!(a, b, "shard {i}");
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
        let i = map.shard_of(&0);
        assert!(map.contains(&0));
        assert_eq!(map.get(&0), Some(0));
        let snap = map.snapshot();
        assert_eq!(snap.per_shard[i].ops, 2 * routed[i] + 2);
        assert_eq!(snap.merged().hops.count(), 2 * n + 2);
    }

    #[test]
    fn single_shard_degenerates_to_plain_list() {
        let map: ShardedSkipList<u64, u64> = ShardedSkipList::new(1);
        let h = map.handle();
        for k in (0..100u64).rev() {
            assert!(h.insert(k, k).is_ok());
        }
        let mut seen = Vec::new();
        h.range(.., |k, _| {
            seen.push(*k);
            true
        });
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
        let snap = map.snapshot();
        assert_eq!(snap.per_shard[0].ops, 100);
    }

    #[test]
    fn vbr_backend_end_to_end() {
        let map: ShardedSkipList<u64, u64, Vbr> = ShardedSkipList::with_backend(4);
        let h = map.handle();
        for k in 0..300u64 {
            assert!(h.insert(k, k * 3).is_ok());
        }
        for k in 0..300u64 {
            // Pin-free read path routes like the pinned ops.
            assert_eq!(h.try_read(&k), Some(k * 3));
        }
        assert_eq!(h.try_read(&1000), None);
        let mut seen = Vec::new();
        h.range(.., |k, _| {
            seen.push(*k);
            true
        });
        assert_eq!(seen, (0..300).collect::<Vec<_>>());
        for k in 0..300u64 {
            assert_eq!(h.remove(&k), Some(k * 3));
            assert_eq!(h.try_read(&k), None);
        }
        assert!(map.is_empty());
        map.validate_quiescent();
    }
}
