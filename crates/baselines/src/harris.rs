//! Harris's lock-free linked list (T. Harris, *A pragmatic
//! implementation of non-blocking linked-lists*, DISC 2001) — the
//! paper's reference \[3\] and its main comparator.
//!
//! Two-step deletion: mark the victim's successor field (logical
//! deletion), then unlink it. A search snips out whole chains of marked
//! nodes with one C&S. The crucial difference from the
//! Fomitchev–Ruppert list: **any failed C&S restarts the operation from
//! the head of the list** — there are no backlinks to recover through,
//! which is what lets an adversary force `Ω(n̄·c̄)` average cost (§3.1).

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use lf_metrics::CasType;
use lf_reclaim::{Collector, Guard, LocalHandle};
use lf_tagged::{AtomicTaggedPtr, TaggedPtr};

use crate::Bound;

#[repr(align(8))]
struct Node<K, V> {
    key: Bound<K>,
    element: Option<V>,
    /// Composite field: right pointer + mark bit (flag bit unused).
    succ: AtomicTaggedPtr<Node<K, V>>,
    /// Claimed by the single thread that retires this node. Two snips
    /// can overlap (a later snip walks *through* an already-unlinked
    /// frozen region), so retirement must be idempotent.
    retired: AtomicBool,
}

impl<K, V> Node<K, V> {
    fn alloc(key: Bound<K>, element: Option<V>, right: *mut Node<K, V>) -> *mut Self {
        Box::into_raw(Box::new(Node {
            key,
            element,
            succ: AtomicTaggedPtr::new(TaggedPtr::unmarked(right)),
            retired: AtomicBool::new(false),
        }))
    }
}

/// Harris's lock-free sorted linked list.
///
/// API mirrors the core crate's `FrList`: duplicate keys rejected, per-thread
/// handles, epoch reclamation.
///
/// # Examples
///
/// ```
/// use lf_baselines::HarrisList;
///
/// let list = HarrisList::new();
/// let h = list.handle();
/// assert!(h.insert(1, "one"));
/// assert!(!h.insert(1, "dup"));
/// assert!(h.contains(&1));
/// assert_eq!(h.remove(&1), Some("one"));
/// ```
pub struct HarrisList<K, V> {
    head: *mut Node<K, V>,
    tail: *mut Node<K, V>,
    collector: Collector,
    len: AtomicUsize,
}

// SAFETY: all shared mutation goes through atomics; reclamation is
// epoch-protected, so cross-thread frees are deferred past all pins.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for HarrisList<K, V> {}
// SAFETY: same argument as `Send` above.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for HarrisList<K, V> {}

impl<K, V> fmt::Debug for HarrisList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HarrisList")
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K, V> Default for HarrisList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> HarrisList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Create an empty list.
    pub fn new() -> Self {
        let tail = Node::alloc(Bound::PosInf, None, std::ptr::null_mut());
        let head = Node::alloc(Bound::NegInf, None, tail);
        HarrisList {
            head,
            tail,
            collector: Collector::new(),
            len: AtomicUsize::new(0),
        }
    }

    /// Register the calling thread and return an operation handle.
    pub fn handle(&self) -> HarrisHandle<'_, K, V> {
        HarrisHandle {
            list: self,
            reclaim: self.collector.register(),
        }
    }

    /// Number of elements (exact when quiescent).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Harris's `search`: returns `(left, right)` with `left.key < k <=
    /// right.key`, both unmarked at some point during the search, and
    /// `left.succ == right` (after snipping any marked chain between
    /// them). Restarts from the head whenever the snip C&S fails.
    ///
    /// # Safety
    ///
    /// `guard` must pin this list's collector; returned pointers are
    /// valid while it lives.
    unsafe fn search(&self, k: &K, guard: &Guard<'_>) -> (*mut Node<K, V>, *mut Node<K, V>) {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            'retry: loop {
                let mut left = self.head;
                let mut left_succ = (*left).succ.load(Ordering::SeqCst);
                let right;

                // Phase 1: locate left (last unmarked node with key < k) and
                // right (first unmarked node with key >= k).
                {
                    let mut t = self.head;
                    let mut t_succ = (*t).succ.load(Ordering::SeqCst);
                    loop {
                        if !t_succ.is_marked() {
                            left = t;
                            left_succ = t_succ;
                        }
                        t = t_succ.ptr();
                        if t.is_null() {
                            // Walked off the tail; can only happen transiently.
                            continue 'retry;
                        }
                        lf_metrics::record_curr_update();
                        t_succ = (*t).succ.load(Ordering::SeqCst);
                        let key_lt = match &(*t).key {
                            Bound::NegInf => true,
                            Bound::PosInf => false,
                            Bound::Key(nk) => nk < k,
                        };
                        if !(t_succ.is_marked() || key_lt) {
                            right = t;
                            break;
                        }
                    }
                }

                // Phase 2: already adjacent?
                if left_succ.ptr() == right {
                    if !right.is_null() && (*right).succ.load(Ordering::SeqCst).is_marked() {
                        continue 'retry;
                    }
                    return (left, right);
                }

                // Phase 3: snip the marked chain between left and right.
                let res = (*left).succ.compare_exchange(
                    left_succ,
                    TaggedPtr::unmarked(right),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Unlink, res.is_ok());
                if res.is_ok() {
                    // Retire the snipped chain. Chains from different snips
                    // can overlap (a later snip may walk through a region an
                    // earlier snip already removed, since marked successor
                    // pointers stay frozen), so each node is claimed with a
                    // CAS and retired exactly once.
                    let mut cur = left_succ.ptr();
                    while cur != right {
                        let next = (*cur).succ.load(Ordering::SeqCst).ptr();
                        if (*cur)
                            .retired
                            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                        {
                            let addr = cur as usize;
                            guard.defer_unchecked(move || {
                                drop(Box::from_raw(addr as *mut Node<K, V>))
                            });
                        }
                        cur = next;
                    }
                    if !(*right).succ.load(Ordering::SeqCst).is_marked() {
                        return (left, right);
                    }
                }
                // Failed C&S (or right got marked): restart from the head.
            }
        }
    }

    /// # Safety
    ///
    /// `guard` must pin this list's collector.
    unsafe fn insert_impl(&self, key: K, value: V, guard: &Guard<'_>) -> bool {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let new_node = Node::alloc(Bound::Key(key), Some(value), std::ptr::null_mut());
            loop {
                let key_ref = (*new_node).key.as_key().expect("user key");
                let (left, right) = self.search(key_ref, guard);
                if (*right).key.as_key() == Some(key_ref) {
                    drop(Box::from_raw(new_node));
                    return false;
                }
                (*new_node)
                    .succ
                    .store(TaggedPtr::unmarked(right), Ordering::SeqCst);
                let res = (*left).succ.compare_exchange(
                    TaggedPtr::unmarked(right),
                    TaggedPtr::unmarked(new_node),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Insert, res.is_ok());
                if res.is_ok() {
                    self.len.fetch_add(1, Ordering::SeqCst);
                    return true;
                }
                // Failure: restart (search starts from the head again).
            }
        }
    }

    /// # Safety
    ///
    /// `guard` must pin this list's collector.
    unsafe fn delete_impl(&self, k: &K, guard: &Guard<'_>) -> Option<V>
    where
        V: Clone,
    {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            loop {
                let (_left, right) = self.search(k, guard);
                if (*right).key.as_key() != Some(k) {
                    return None;
                }
                let right_succ = (*right).succ.load(Ordering::SeqCst);
                if right_succ.is_marked() {
                    // Another deleter got here first; restart to confirm.
                    continue;
                }
                let res = (*right).succ.compare_exchange(
                    right_succ,
                    right_succ.with_mark(),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
                lf_metrics::record_cas(CasType::Mark, res.is_ok());
                if res.is_ok() {
                    self.len.fetch_sub(1, Ordering::SeqCst);
                    let value = (*right).element.clone().expect("user node has element");
                    // Physical deletion: one more search snips it out.
                    let _ = self.search(k, guard);
                    return Some(value);
                }
                // Mark failed: restart from the head.
            }
        }
    }

    /// # Safety
    ///
    /// `guard` must pin this list's collector; the returned pointer is
    /// valid while it lives.
    unsafe fn search_value(&self, k: &K, guard: &Guard<'_>) -> Option<*mut Node<K, V>> {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            let (_left, right) = self.search(k, guard);
            ((*right).key.as_key() == Some(k)).then_some(right)
        }
    }
}

impl<K, V> Drop for HarrisList<K, V> {
    fn drop(&mut self) {
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: unique access (`&mut self`); nodes still linked
            // from the head were Box-allocated and are freed once here.
            let next = unsafe { (*cur).succ.load(Ordering::SeqCst).ptr() };
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(cur) });
            cur = next;
        }
        let _ = self.tail;
    }
}

/// Per-thread handle to a [`HarrisList`]. Not `Send`.
pub struct HarrisHandle<'l, K, V> {
    list: &'l HarrisList<K, V>,
    reclaim: LocalHandle,
}

impl<K, V> fmt::Debug for HarrisHandle<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("HarrisHandle")
    }
}

impl<K, V> HarrisHandle<'_, K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Insert `key → value`; returns `false` on duplicate.
    pub fn insert(&self, key: K, value: V) -> bool {
        let guard = self.reclaim.pin();
        let op = lf_metrics::op_begin();
        // SAFETY: the guard pins this list's collector.
        let r = unsafe { self.list.insert_impl(key, value, &guard) };
        lf_metrics::op_end(op);
        r
    }

    /// Remove `key`, returning its value.
    pub fn remove(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let guard = self.reclaim.pin();
        let op = lf_metrics::op_begin();
        // SAFETY: the guard pins this list's collector.
        let r = unsafe { self.list.delete_impl(key, &guard) };
        lf_metrics::op_end(op);
        r
    }

    /// Look up `key`, cloning its value.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        let guard = self.reclaim.pin();
        let op = lf_metrics::op_begin();
        // SAFETY: the guard pins this list's collector; the returned
        // node stays valid while the guard lives.
        let r = unsafe {
            self.list
                .search_value(key, &guard)
                .map(|n| (*n).element.clone().expect("user node has element"))
        };
        lf_metrics::op_end(op);
        r
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        let guard = self.reclaim.pin();
        let op = lf_metrics::op_begin();
        // SAFETY: the guard pins this list's collector.
        let r = unsafe { self.list.search_value(key, &guard).is_some() };
        lf_metrics::op_end(op);
        r
    }
}

impl<K, V> lf_core::Dict for HarrisList<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Key = K;
    type Value = V;
    type Handle<'a> = HarrisHandle<'a, K, V>;

    fn handle(&self) -> Self::Handle<'_> {
        HarrisList::handle(self)
    }

    fn len(&self) -> usize {
        HarrisList::len(self)
    }
}

impl<K, V> lf_core::DictHandle<K, V> for HarrisHandle<'_, K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn get(&self, key: &K) -> Option<V> {
        HarrisHandle::get(self, key)
    }

    fn contains(&self, key: &K) -> bool {
        HarrisHandle::contains(self, key)
    }

    fn insert(&self, key: K, value: V) -> bool {
        HarrisHandle::insert(self, key, value)
    }

    fn remove(&self, key: &K) -> Option<V> {
        HarrisHandle::remove(self, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_roundtrip() {
        let list = HarrisList::new();
        let h = list.handle();
        for k in [3, 1, 4, 1, 5, 9, 2, 6] {
            let _ = h.insert(k, k * 10);
        }
        assert_eq!(list.len(), 7); // one duplicate
        for k in [1, 2, 3, 4, 5, 6, 9] {
            assert!(h.contains(&k));
            assert_eq!(h.get(&k), Some(k * 10));
        }
        assert!(!h.contains(&7));
        assert_eq!(h.remove(&4), Some(40));
        assert_eq!(h.remove(&4), None);
        assert_eq!(list.len(), 6);
    }

    #[test]
    fn empty_and_sentinel_edges() {
        let list: HarrisList<i64, ()> = HarrisList::new();
        let h = list.handle();
        assert!(!h.contains(&0));
        assert_eq!(h.remove(&0), None);
        assert!(h.insert(i64::MIN, ()));
        assert!(h.insert(i64::MAX, ()));
        assert!(h.contains(&i64::MIN) && h.contains(&i64::MAX));
    }

    #[test]
    fn concurrent_mixed_churn() {
        let list = Arc::new(HarrisList::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let list = list.clone();
                s.spawn(move || {
                    let h = list.handle();
                    for r in 0..300u64 {
                        let k = (r * (t + 3)) % 32;
                        if t % 2 == 0 {
                            let _ = h.insert(k, r);
                        } else {
                            let _ = h.remove(&k);
                        }
                    }
                });
            }
        });
        // Quiesced sanity: every contained key readable exactly once.
        let h = list.handle();
        for k in 0..32u64 {
            if h.contains(&k) {
                assert!(h.get(&k).is_some());
            }
        }
        list.validate_quiescent();
    }

    #[test]
    fn concurrent_unique_winners() {
        let list = Arc::new(HarrisList::new());
        let wins = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let list = list.clone();
                let wins = wins.clone();
                s.spawn(move || {
                    let h = list.handle();
                    for k in 0..100u32 {
                        if h.insert(k, ()) {
                            wins.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                });
            }
        });
        assert_eq!(wins.load(Ordering::SeqCst), 100);
        assert_eq!(list.len(), 100);
    }
}

#[allow(clippy::items_after_test_module)]
impl<K, V> HarrisList<K, V>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
{
    /// Check structural invariants on a **quiescent** list: strictly
    /// sorted keys, no marked nodes, chain reaches the tail, count
    /// matches [`len`](Self::len).
    ///
    /// # Panics
    ///
    /// Panics with a description of the violated invariant.
    pub fn validate_quiescent(&self) {
        let mut count = 0usize;
        // SAFETY: quiescent-only walk — the caller guarantees no
        // concurrent operations, so every reachable node stays valid.
        unsafe {
            let mut cur = self.head;
            loop {
                let succ = (*cur).succ.load(Ordering::SeqCst);
                assert!(!succ.is_marked(), "quiescent list has a marked node");
                let next = succ.ptr();
                if next.is_null() {
                    assert_eq!(cur, self.tail, "chain ends before the tail");
                    break;
                }
                assert!((*cur).key < (*next).key, "keys not strictly sorted");
                if (*next).key.as_key().is_some() {
                    count += 1;
                }
                cur = next;
            }
        }
        assert_eq!(count, self.len(), "len counter disagrees with chain");
    }
}
