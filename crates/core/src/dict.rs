//! The dictionary abstraction every structure of the workspace
//! implements once: the paper's abstract type (Search, Insert, Delete
//! over a key space) plus the handle lifecycle the serving layers need.
//!
//! A [`Dict`] is the shared structure; a [`DictHandle`] is a
//! per-thread registration with it. Handles of the lock-free
//! structures own an epoch-domain registration and are deliberately
//! not `Send`, so generic drivers (the benchmark runner, the async
//! service's lane workers, the conformance tests) create one handle per
//! thread through [`Dict::handle`] and never move it.
//!
//! The inherent APIs of the structures stay the primary interface; the
//! trait impls only forward to them, so a generic caller pays no more
//! than a direct one.

use lf_reclaim::Pod;

/// How many remove+insert rounds [`DictHandle::upsert`] tries before
/// reporting a lost race. A lone writer of the key wins in at most two
/// rounds; the budget only matters against concurrent writers of the
/// same key.
pub const UPSERT_RETRY_BUDGET: usize = 8;

/// A concurrent dictionary: a shared structure plus per-thread handles.
pub trait Dict: Send + Sync + 'static {
    /// Key type.
    type Key: Ord + Clone + Send + Sync + 'static;
    /// Value type.
    type Value: Clone + Send + Sync + 'static;
    /// The per-thread operation handle (not necessarily `Send`; it
    /// never leaves the thread that created it).
    type Handle<'a>: DictHandle<Self::Key, Self::Value>
    where
        Self: 'a;

    /// Register a handle for the calling thread.
    fn handle(&self) -> Self::Handle<'_>;

    /// Number of keys (racy-fresh under concurrency).
    fn len(&self) -> usize;

    /// Whether the dictionary is empty (racy-fresh).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether handles serve [`DictHandle::scan`] in ascending key
    /// order. Hash tiers iterate in bucket order and answer every scan
    /// with an empty page, so callers check this up front.
    fn ordered(&self) -> bool {
        false
    }

    /// The partition (shard or bucket) that owns `key`, for structures
    /// that route keys to independent partitions. A front end that
    /// spreads work across executors sends each partition's keys to one
    /// executor, so one thread serves each partition's CAS traffic.
    fn partition_of(&self, key: &Self::Key) -> Option<usize> {
        let _ = key;
        None
    }
}

/// Per-thread operations on a [`Dict`].
pub trait DictHandle<K, V> {
    /// Look up `key`, returning a clone of its value.
    fn get(&self, key: &K) -> Option<V>;

    /// Whether `key` is present.
    fn contains(&self, key: &K) -> bool;

    /// Insert `key → value` if `key` is absent; `false` on a duplicate
    /// key (the existing binding is kept).
    fn insert(&self, key: K, value: V) -> bool;

    /// Remove `key`, returning its value.
    fn remove(&self, key: &K) -> Option<V>;

    /// Look up `key` and apply `f` to its value (`None` if absent).
    /// Structures that can lend the value in place under their pin
    /// override this to skip the clone.
    fn get_with<T>(&self, key: &K, f: impl FnOnce(&V) -> T) -> Option<T> {
        self.get(key).map(|v| f(&v))
    }

    /// Insert `key → value`, replacing an existing binding: remove and
    /// retry until an insert round wins or [`UPSERT_RETRY_BUDGET`]
    /// rounds are spent racing other writers of the key (then `false`).
    fn upsert(&self, key: K, value: V) -> bool
    where
        K: Clone,
        V: Clone,
    {
        for _ in 0..UPSERT_RETRY_BUDGET {
            if self.insert(key.clone(), value.clone()) {
                return true;
            }
            let _ = self.remove(&key);
        }
        false
    }

    /// Look up `key` without pinning the reclamation domain where the
    /// structure supports it; otherwise the same as [`get`](Self::get).
    fn try_read(&self, key: &K) -> Option<V>
    where
        K: Pod,
        V: Pod,
    {
        self.get(key)
    }

    /// Append up to `limit` pairs with keys strictly greater than
    /// `after` (`None` = from the smallest key) to `out`, in ascending
    /// key order. Weakly consistent: keys present for the whole call
    /// appear exactly once. Unordered structures
    /// ([`Dict::ordered`] `false`) append nothing.
    fn scan(&self, after: Option<&K>, limit: usize, out: &mut Vec<(K, V)>) {
        let _ = (after, limit, out);
    }

    /// Share one epoch announcement across `every` consecutive
    /// operations (a batch executor sets its batch size).
    fn amortize_pins(&self, every: u32) {
        let _ = every;
    }

    /// Withdraw this handle's standing epoch announcement (idle
    /// thread), so it stops delaying reclamation.
    fn quiesce(&self) {}

    /// Quiesce and opportunistically advance reclamation.
    fn flush_reclamation(&self) {}
}
