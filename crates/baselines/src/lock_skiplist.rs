//! Pugh's skip list under a global `RwLock` — the lock-based skip list
//! comparator (readers run in parallel; any writer excludes everyone).

use std::fmt;

use parking_lot::RwLock;

use crate::SeqSkipList;

/// A reader-writer-locked skip list.
///
/// # Examples
///
/// ```
/// use lf_baselines::LockSkipList;
///
/// let sl = LockSkipList::new();
/// assert!(sl.insert(1, "one"));
/// assert_eq!(sl.get(&1), Some("one"));
/// assert_eq!(sl.remove(&1), Some("one"));
/// ```
pub struct LockSkipList<K, V> {
    inner: RwLock<SeqSkipList<K, V>>,
}

impl<K, V> fmt::Debug for LockSkipList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockSkipList")
            .field("len", &self.inner.read().len())
            .finish()
    }
}

impl<K: Ord + Send + Sync, V: Send + Sync> Default for LockSkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Send + Sync, V: Send + Sync> LockSkipList<K, V> {
    /// Create an empty skip list.
    pub fn new() -> Self {
        LockSkipList {
            inner: RwLock::new(SeqSkipList::new()),
        }
    }

    /// Create with a deterministic coin-flip seed.
    pub fn with_seed(seed: u64) -> Self {
        LockSkipList {
            inner: RwLock::new(SeqSkipList::with_seed(seed)),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// Whether the skip list is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Insert `key → value`; returns `false` on duplicate.
    pub fn insert(&self, key: K, value: V) -> bool {
        let op = lf_metrics::op_begin();
        let r = self.inner.write().insert(key, value);
        lf_metrics::op_end(op);
        r
    }

    /// Remove `key`, returning its value.
    pub fn remove(&self, key: &K) -> Option<V> {
        let op = lf_metrics::op_begin();
        let r = self.inner.write().remove(key);
        lf_metrics::op_end(op);
        r
    }

    /// Look up `key`, cloning its value.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let op = lf_metrics::op_begin();
        let r = self.inner.read().get(key).cloned();
        lf_metrics::op_end(op);
        r
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        let op = lf_metrics::op_begin();
        let r = self.inner.read().contains(key);
        lf_metrics::op_end(op);
        r
    }
}

/// The structure is its own handle: every operation takes the lock.
impl<K, V> lf_core::Dict for LockSkipList<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Handle<'a> = &'a LockSkipList<K, V>;

    fn handle(&self) -> Self::Handle<'_> {
        self
    }

    fn len(&self) -> usize {
        LockSkipList::len(self)
    }
}

impl<K, V> lf_core::DictHandle<K, V> for &LockSkipList<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn get(&self, key: &K) -> Option<V> {
        LockSkipList::get(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        LockSkipList::contains(self, key)
    }

    fn insert(&self, key: K, value: V) -> bool {
        LockSkipList::insert(self, key, value)
    }

    fn remove(&self, key: &K) -> Option<V> {
        LockSkipList::remove(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_roundtrip() {
        let sl = LockSkipList::with_seed(5);
        for k in 0..100u32 {
            assert!(sl.insert(k, k));
        }
        assert!(!sl.insert(50, 0));
        assert_eq!(sl.len(), 100);
        assert_eq!(sl.get(&99), Some(99));
        assert_eq!(sl.remove(&99), Some(99));
        assert!(!sl.contains(&99));
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let sl = Arc::new(LockSkipList::with_seed(9));
        for k in 0..64u32 {
            sl.insert(k, k);
        }
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let sl = sl.clone();
                s.spawn(move || {
                    for r in 0..300u32 {
                        let k = (r * (t + 1)) % 64;
                        match t {
                            0 => {
                                let _ = sl.insert(k + 64, r);
                            }
                            1 => {
                                let _ = sl.remove(&(k + 64));
                            }
                            _ => {
                                let _ = sl.contains(&k);
                            }
                        }
                    }
                });
            }
        });
        for k in 0..64u32 {
            assert!(sl.contains(&k));
        }
    }
}
