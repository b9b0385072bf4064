//! Sibling-list operations: run ops against *another* [`FrList`] under
//! **this** handle's registration.
//!
//! A composite structure built from many lists — `lf-map`'s bucket
//! array is the motivating case — wants one reclamation registration
//! (and one amortized pin cadence) per thread, not one per bucket.
//! [`FrList::new_sibling`] creates lists sharing a domain and a node
//! pool; the `*_in` methods here run a sibling's operation under the
//! handle's own guard, which is sound precisely because the domains
//! are shared (checked at runtime by [`ListHandle::check_sibling`]).
//!
//! Pool sharing adds one wrinkle the plain list never sees: a block
//! retired from bucket `i` can be re-tenanted into bucket `j`, so a
//! stale pin-free reader of bucket `i` may hold a stamped pointer whose
//! storage now carries another bucket's tenant. The validated sibling
//! read ([`try_read_in`](ListHandle::try_read_in)) rejects that case
//! exactly like in-bucket recycling: the new tenant's birth epoch is
//! strictly newer than the retire the recycle rode on, so the stamp
//! check fails and the attempt restarts. Sentinels are Box-allocated,
//! never pooled, and therefore never re-tenanted.
//!
//! These entry points record **no** op boundary themselves
//! (`lf_metrics::op_begin`/`op_end`); the composite structure brackets
//! each of its operations once, with its own
//! [`Structure`](lf_metrics::Structure) attribution.

use std::sync::atomic::{fence, Ordering};
use std::sync::Arc;

use lf_metrics::CasType;
use lf_reclaim::{Pod, Publish, Reclaim, BIRTH_BUILDING};

use super::{FrList, ListHandle, Mode, Node};

/// Optimistic sibling-read attempts before falling back to a pinned
/// lookup (mirrors `read.rs`).
const READ_ATTEMPTS: usize = 3;

/// A sibling read observed a recycled/rebuilding node and must restart.
struct ReadRace;

impl<K, V, R> FrList<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Bucket-facing search seam: locate `k` in this sibling list under
    /// a guard minted by a *different* sibling's handle.
    ///
    /// # Safety
    ///
    /// `guard` must pin a domain shared with this list's
    /// ([`FrList::shares_domain_with`]); the returned pointer is valid
    /// while `guard` lives.
    // escape: ESC.bucket-search: the returned bucket node is protected by the
    // caller's guard over the siblings' shared domain; the `# Safety`
    // contract bounds its life to that guard
    pub(crate) unsafe fn search_sibling(
        &self,
        k: &K,
        guard: &R::Guard<'_>,
    ) -> Option<*mut Node<K, V, R>> {
        // SAFETY: forwarded contract — a guard over the shared domain
        // protects this sibling's nodes exactly like its own would.
        // ord: Release/Acquire/Relaxed — LIST.flag-cas: search helps flagged deletions (wrapped C&S)
        unsafe { self.search_impl(k, guard) }
    }

    /// Bucket-facing `Delete(k)` (paper Fig. 4): the same driver as
    /// `delete_impl`, but deletion steps two and three are performed
    /// inline so the physical unlink — and the retire it licenses —
    /// lives on the bucket path (the map's own SMR obligation,
    /// DESIGN.md §9.8 `UNLINK.bucket-del`). Retiring here recycles the
    /// block into the *shared* pool, where any sibling may re-tenant it.
    ///
    /// # Safety
    ///
    /// `guard` must pin a domain shared with this list's.
    pub(crate) unsafe fn delete_sibling(&self, k: &K, guard: &R::Guard<'_>) -> Option<V>
    where
        V: Clone,
    {
        // SAFETY: the fn's `# Safety` contract covers the whole body.
        unsafe {
            // Line 1: SearchFrom(k − ε, head).
            let (prev, del) = self.search_from(k, self.head, Mode::Lt, guard);
            // Line 2–3: k is not in this bucket.
            if (*del).key.as_key() != Some(k) {
                return None;
            }
            // Line 4: first deletion step — flag the predecessor.
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: wrapped flagging C&S; pred is dereferenced
            let (prev, result) = self.try_flag(prev, del, guard);
            // Line 5–6: steps two (backlink + mark) and three (physical
            // delete), inlined from `HelpFlagged`/`HelpMarked` (Fig. 3/4)
            // so the unlink C&S and its retire are attributed here.
            if !prev.is_null() {
                // ord: Release — LIST.backlink-set: set before mark, read after mark
                (*del).backlink.store(prev, Ordering::Release);
                if !(*del).is_marked() {
                    self.try_mark(del, guard);
                }
                // Acquire (via `right`): `next` was frozen into del.succ
                // by the marking C&S.
                let next = (*del).right();
                // The unlink C&S (type 4). Exactly one unlink C&S
                // succeeds per node — its predecessor is unique and
                // flagged — whether it runs here or in a helper's
                // `help_marked`, so the retire below fires exactly once.
                // ord: Release/Relaxed — LIST.unlink-cas: republish next; failure discarded
                let res = (*prev).succ.compare_exchange(
                    Node::flagged_ptr(del),
                    Node::clean_ptr(next),
                    Ordering::Release,
                    Ordering::Relaxed,
                );
                lf_metrics::record_cas(CasType::Unlink, res.is_ok());
                if res.is_ok() {
                    // unlink: UNLINK.bucket-del: the type-4 C&S above unlinked the
                    // bucket node from its unique flagged predecessor, so it is
                    // unreachable from this sibling's head before this retire
                    self.retire(del, guard);
                }
            }
            // Line 7–8: another operation's deletion wins.
            if !result {
                return None;
            }
            // Line 9: success — this operation owns the deletion.
            // ord: Relaxed — STAT.len: pure statistic
            self.len.fetch_sub(1, Ordering::Relaxed);
            // Reading `del`'s element is safe: its initialization
            // happened-before the Acquire load that found it, and the
            // guard keeps it from being reclaimed.
            Some((*del).element.clone().expect("user node has element"))
        }
    }
}

impl<'l, K, V, R> ListHandle<'l, K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// Assert that `list` really is a sibling: same reclamation domain
    /// (so this handle's guards protect its nodes) and same node pool
    /// (so blocks this handle acquires or retires stay in one store).
    ///
    /// # Panics
    ///
    /// Panics if `list` was not created via [`FrList::new_sibling`]
    /// from the same family as this handle's list.
    fn check_sibling(&self, list: &FrList<K, V, R>) {
        assert!(
            self.list.shares_domain_with(list),
            "sibling op on a list from a foreign reclamation domain"
        );
        assert!(
            Arc::ptr_eq(&self.list.pool, &list.pool),
            "sibling op on a list with a foreign node pool"
        );
    }

    /// [`insert`](Self::insert) against the sibling `list`, under this
    /// handle's registration. Records no op boundary — composite
    /// callers bracket their own.
    ///
    /// # Errors
    ///
    /// Returns the rejected pair if `key` is already present.
    ///
    /// # Panics
    ///
    /// Panics if `list` is not a sibling of this handle's list.
    pub fn insert_in(&self, list: &FrList<K, V, R>, key: K, value: V) -> Result<(), (K, V)> {
        self.check_sibling(list);
        let guard = R::pin(&self.reclaim);
        // SAFETY: `guard` pins the shared domain (checked above) and
        // `pool` fronts the shared pool, so `insert_impl`'s contract
        // holds for the sibling exactly as for the handle's own list.
        let res = unsafe { list.insert_impl(key, value, &self.pool, &guard) };
        drop(guard);
        res
    }

    /// [`remove`](Self::remove) against the sibling `list` (see
    /// `FrList::delete_sibling` for the bucket-path deletion steps).
    ///
    /// # Panics
    ///
    /// Panics if `list` is not a sibling of this handle's list.
    pub fn remove_in(&self, list: &FrList<K, V, R>, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.check_sibling(list);
        let guard = R::pin(&self.reclaim);
        // SAFETY: `guard` pins the shared domain (checked above).
        let res = unsafe { list.delete_sibling(key, &guard) };
        drop(guard);
        res
    }

    /// [`get`](Self::get) against the sibling `list`.
    ///
    /// # Panics
    ///
    /// Panics if `list` is not a sibling of this handle's list.
    pub fn get_in(&self, list: &FrList<K, V, R>, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.check_sibling(list);
        let guard = R::pin(&self.reclaim);
        // SAFETY: `guard` pins the shared domain; the returned node
        // stays live while `guard` is held.
        let res = unsafe {
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: search helps flagged deletions (wrapped C&S)
            list.search_sibling(key, &guard)
                .map(|n| (*n).element.clone().expect("user node has element"))
        };
        drop(guard);
        res
    }

    /// [`get_with`](Self::get_with) against the sibling `list`: apply
    /// `f` to a borrow of the value without cloning. The borrow lives
    /// exactly as long as the call; keep `f` short — the pin delays
    /// reclamation domain-wide (that is, across *every* sibling).
    ///
    /// # Panics
    ///
    /// Panics if `list` is not a sibling of this handle's list.
    pub fn get_with_in<T>(
        &self,
        list: &FrList<K, V, R>,
        key: &K,
        f: impl FnOnce(&V) -> T,
    ) -> Option<T> {
        self.check_sibling(list);
        let guard = R::pin(&self.reclaim);
        // SAFETY: `guard` pins the shared domain; the node (and the
        // borrow handed to `f`) stays live while `guard` is held, which
        // spans the visitor call.
        let res = unsafe {
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: search helps flagged deletions (wrapped C&S)
            list.search_sibling(key, &guard)
                .map(|n| f((*n).element.as_ref().expect("user node has element")))
        };
        drop(guard);
        res
    }

    /// [`contains`](Self::contains) against the sibling `list`.
    ///
    /// # Panics
    ///
    /// Panics if `list` is not a sibling of this handle's list.
    pub fn contains_in(&self, list: &FrList<K, V, R>, key: &K) -> bool {
        self.check_sibling(list);
        let guard = R::pin(&self.reclaim);
        // SAFETY: `guard` pins the shared domain.
        // ord: Release/Acquire/Relaxed — LIST.flag-cas: search helps flagged deletions (wrapped C&S)
        let res = unsafe { list.search_sibling(key, &guard).is_some() };
        drop(guard);
        res
    }
}

impl<'l, K, V, R> ListHandle<'l, K, V, R>
where
    K: Pod + Ord,
    V: Pod,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// [`try_read`](Self::try_read) against the sibling `list`: a
    /// pin-free point lookup on `PIN_FREE_READS` backends, falling back
    /// to the pinned [`get_in`](Self::get_in) after `READ_ATTEMPTS`
    /// raced attempts (or always, on pinned backends).
    ///
    /// # Panics
    ///
    /// Panics if `list` is not a sibling of this handle's list.
    pub fn try_read_in(&self, list: &FrList<K, V, R>, key: &K) -> Option<V> {
        self.check_sibling(list);
        if !R::PIN_FREE_READS {
            return self.get_in(list, key);
        }
        for _ in 0..READ_ATTEMPTS {
            match list.read_sibling(key) {
                Ok(res) => return res,
                Err(ReadRace) => {
                    lf_metrics::record_try_read_restart();
                    continue;
                }
            }
        }
        // Persistent interference: take the pinned slow path.
        lf_metrics::record_try_read_fallback();
        self.get_in(list, key)
    }
}

impl<K, V, R> FrList<K, V, R>
where
    K: Pod + Ord,
    V: Pod,
    R: Reclaim + Publish<K> + Publish<V>,
{
    /// One optimistic pin-free traversal of a pool-sharing sibling
    /// (the bucket read of `lf-map`): structurally the twin of
    /// `read_impl`, re-stated here because pool sharing changes what a
    /// failed validation *means*. A stale pointer into this bucket may
    /// now resurface as a tenant of **another** bucket's chain; the
    /// birth-stamp bracket rejects it identically (the re-tenant's
    /// birth is strictly newer than the retire its recycle rode on),
    /// so a sibling read can never continue onto a foreign bucket.
    /// A *validated* hop's successor, by contrast, was loaded from a
    /// current tenant of this bucket and therefore targets this
    /// bucket's nodes or its own tail sentinel — sentinels are never
    /// pooled, hence never re-tenanted across buckets.
    fn read_sibling(&self, k: &K) -> Result<Option<V>, ReadRace> {
        // The head sentinel is trusted: never recycled, birth 0.
        let mut curr = self.head;
        let mut curr_stamp: u16 = 0;
        let mut curr_trusted = true;
        loop {
            // SAFETY: `curr` is the head sentinel or a pool block
            // (type-stable storage with initialized atomics); either
            // way the load itself is in-bounds. Whether the *value*
            // belongs to the tenant we meant is decided by the
            // validation below.
            // ord: Acquire — VBR.read-traverse: the hop target's fields are read next
            let succ = unsafe { &(*curr).succ }.load(Ordering::Acquire);
            if !curr_trusted {
                // Hop validation: the succ we just loaded is only our
                // tenant's if curr's birth still matches the stamp we
                // reached it with — even (especially) if the block was
                // re-tenanted into a different sibling meanwhile.
                // ord: Acquire — VBR.birth-validate: seqlock read fence
                fence(Ordering::Acquire);
                // SAFETY: type-stable storage, as above.
                // ord: Relaxed — VBR.birth-validate: ordered by the fence above
                let b = unsafe { &(*curr).birth }.load(Ordering::Relaxed);
                if b & BIRTH_BUILDING != 0 || (b & 0xffff) != u64::from(curr_stamp) {
                    return Err(ReadRace);
                }
            }
            let next = succ.ptr();
            if next == self.tail {
                return Ok(None);
            }
            if next.is_null() {
                // Mid-rebuild provisional successor; never follow it.
                return Err(ReadRace);
            }
            let next_stamp = succ.stamp();
            // Pre-validation: the shadow slots only hold `next_stamp`'s
            // tenant's bytes if that tenant is fully published and
            // still current.
            // SAFETY: type-stable storage, as above.
            // ord: Acquire — VBR.birth-validate: pre-snoop tenant check
            // validate: VAL.map-read: this load opens the birth-stamp bracket
            // that validates the bucket hop; a block recycled into any
            // pool-sharing sibling carries a newer birth and fails here
            let b1 = unsafe { &(*next).birth }.load(Ordering::Acquire);
            if b1 & BIRTH_BUILDING != 0 || (b1 & 0xffff) != u64::from(next_stamp) {
                return Err(ReadRace);
            }
            // SAFETY: the slots are type-stable and snoops are per-word
            // atomic copies; the bytes are validated before use.
            // validate: VAL.map-read: snoop inside the birth-stamp bracket;
            // bytes are discarded unless `b2 == b1` below
            let key_bytes = unsafe { <R as Publish<K>>::snoop(&(*next).skey) };
            // SAFETY: as above.
            // validate: VAL.map-read: as above — bracketed snoop
            let val_bytes = unsafe { <R as Publish<V>>::snoop(&(*next).sval) };
            // ord: Acquire — VBR.birth-validate: seqlock read fence
            fence(Ordering::Acquire);
            // SAFETY: type-stable storage, as above.
            // ord: Relaxed — VBR.birth-validate: ordered by the fence above
            // validate: VAL.map-read: this re-load closes the birth-stamp
            // bracket; a mismatch (in-bucket or cross-bucket re-tenant)
            // discards the snooped bytes
            let b2 = unsafe { &(*next).birth }.load(Ordering::Relaxed);
            if b2 != b1 {
                return Err(ReadRace);
            }
            // The two birth checks bracket the snoops: the bytes are one
            // complete, untorn publication by tenant `b1`, and `Pod`
            // makes any complete value valid.
            // SAFETY: validated complete publication, `K: Pod`.
            let key = unsafe { key_bytes.assume_init() };
            match key.cmp(k) {
                std::cmp::Ordering::Equal => {
                    // SAFETY: validated complete publication, `V: Pod`.
                    return Ok(Some(unsafe { val_bytes.assume_init() }));
                }
                std::cmp::Ordering::Less => {
                    curr = next;
                    curr_stamp = next_stamp;
                    curr_trusted = false;
                }
                std::cmp::Ordering::Greater => return Ok(None),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use lf_reclaim::Ebr;

    use super::super::FrList;

    #[test]
    fn sibling_ops_roundtrip_under_one_handle() {
        let a: FrList<u64, u64, Ebr> = FrList::new();
        let b = a.new_sibling();
        let h = a.handle();
        assert!(h.insert_in(&b, 7, 70).is_ok());
        assert!(h.insert_in(&b, 7, 71).is_err(), "duplicate rejected");
        assert_eq!(h.get_in(&b, &7), Some(70));
        assert!(h.contains_in(&b, &7));
        assert_eq!(h.get_with_in(&b, &7, |v| v + 1), Some(71));
        assert_eq!(h.try_read_in(&b, &7), Some(70));
        assert_eq!(h.remove_in(&b, &7), Some(70));
        assert_eq!(h.get_in(&b, &7), None);
        assert_eq!(b.len(), 0);
        assert_eq!(a.len(), 0, "sibling ops never touch the handle's list");
    }

    #[test]
    fn siblings_share_domain_and_pool() {
        let a: FrList<u32, u32, Ebr> = FrList::new();
        let b = a.new_sibling();
        let c = b.new_sibling();
        assert!(a.shares_domain_with(&b));
        assert!(a.shares_domain_with(&c));
        let other: FrList<u32, u32, Ebr> = FrList::new();
        assert!(!a.shares_domain_with(&other));
    }

    #[test]
    #[should_panic(expected = "foreign reclamation domain")]
    fn foreign_list_is_rejected() {
        let a: FrList<u32, u32, Ebr> = FrList::new();
        let other: FrList<u32, u32, Ebr> = FrList::new();
        let h = a.handle();
        let _ = h.get_in(&other, &1);
    }

    #[test]
    fn deleted_sibling_blocks_recycle_into_shared_pool() {
        let a: FrList<u64, u64, Ebr> = FrList::new();
        let b = a.new_sibling();
        let h = a.handle();
        for k in 0..32 {
            h.insert_in(&b, k, k).unwrap();
        }
        for k in 0..32 {
            assert_eq!(h.remove_in(&b, &k), Some(k));
        }
        // Drain reclamation so the retires recycle.
        for _ in 0..64 {
            h.flush_reclamation();
        }
        // New inserts into the *other* sibling may reuse those blocks —
        // either way both lists stay consistent.
        for k in 0..32 {
            h.insert(k, k).unwrap();
        }
        a.validate_quiescent();
        b.validate_quiescent();
    }
}
