//! Merged range scan over *sibling* skip lists: the ordered
//! cross-shard read path of `lf-shard`.
//!
//! [`merged_range`] walks the level-1 lists of several skip lists that
//! share one reclamation domain (see [`SkipList::new_sibling`]) and
//! emits their united key space in ascending order — a k-way merge of
//! per-shard traversals under a **single** amortized pin. Each
//! per-shard cursor honors marks and flags exactly as the paper's
//! `SearchRight` does: superfluous towers encountered on the way are
//! physically deleted (all three deletion steps), so a scan helps
//! rather than hinders concurrent deleters.
//!
//! # What the scan does *not* guarantee
//!
//! There is no atomic snapshot across shards (nor within one — see
//! [`SkipListHandle::range`]). The guarantees are per key: a key
//! present in the map for the scan's entire duration is visited
//! exactly once; a key absent for the entire duration is never
//! visited; keys inserted or deleted mid-scan may or may not appear.
//! Output order is strictly ascending when every key routes to exactly
//! one list (the sharding invariant), and non-decreasing otherwise.

use std::ops::Bound as RangeBound;
use std::ptr;

use lf_reclaim::{Publish, Reclaim};

use super::level::FlagStatus;
use super::node::SkipNode;
use super::{Bound, Mode, SkipList, SkipListHandle};

/// One per-list scan cursor of the k-way merge.
struct Cursor<'a, K, V, R: Reclaim> {
    list: &'a SkipList<K, V, R>,
    /// Last node this cursor consumed (or its start position); the
    /// monotonicity anchor after helping relocates us leftwards.
    anchor: *mut SkipNode<K, V, R>,
    /// Next in-range unmarked root to merge, null when exhausted.
    cand: *mut SkipNode<K, V, R>,
}

fn after_start<K: Ord>(key: &K, start: &RangeBound<&K>) -> bool {
    match start {
        RangeBound::Unbounded => true,
        RangeBound::Included(s) => key >= s,
        RangeBound::Excluded(s) => key > s,
    }
}

fn within_end<K: Ord>(key: &K, end: &RangeBound<&K>) -> bool {
    match end {
        RangeBound::Unbounded => true,
        RangeBound::Included(e) => key <= e,
        RangeBound::Excluded(e) => key < e,
    }
}

/// Advance one cursor: starting from `anchor`, find the next unmarked
/// level-1 root with key strictly greater than `anchor`'s that lies
/// within `[start, end]`, helping physical deletion of superfluous
/// towers on the way (the inner loop of `SearchRight`, §4). Returns
/// null when the cursor's list is exhausted for this range.
///
/// # Safety
///
/// `anchor` must be a node of `list` protected by `guard`.
// escape: ESC.node-search: the returned root is protected by the caller's
// `guard`; the `# Safety` contract bounds its life to it
unsafe fn advance<K, V, R>(
    list: &SkipList<K, V, R>,
    anchor: *mut SkipNode<K, V, R>,
    start: &RangeBound<&K>,
    end: &RangeBound<&K>,
    guard: &R::Guard<'_>,
) -> *mut SkipNode<K, V, R>
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
{
    // SAFETY: the fn's `# Safety` contract covers the whole body.
    unsafe {
        let mut curr = anchor;
        loop {
            let mut next = (*curr).right();
            if next.is_null() {
                return ptr::null_mut();
            }
            // Delete superfluous towers in our way, exactly as
            // `SearchRight` does (flag, then help with mark + unlink).
            while (*next).is_superfluous() {
                // ord: Release/Acquire/Relaxed — LIST.flag-cas: wrapped flagging C&S; pred is dereferenced
                let (new_curr, status, _) = list.try_flag_node(curr, next, guard);
                curr = new_curr;
                if status == FlagStatus::In {
                    list.help_flagged(curr, next, guard);
                }
                next = (*curr).right();
                lf_metrics::record_next_update();
            }
            match (*next).key_ref() {
                Bound::PosInf => return ptr::null_mut(),
                Bound::NegInf => unreachable!("head is never a successor"),
                Bound::Key(k) => {
                    if !within_end(k, end) {
                        return ptr::null_mut();
                    }
                    // Skip nodes at or before the anchor (helping may
                    // have walked us leftwards — never re-emit), nodes
                    // before the start bound, and roots already marked.
                    if (*next).key_ref() <= (*anchor).key_ref()
                        || !after_start(k, start)
                        || (*next).is_marked()
                    {
                        curr = next;
                        lf_metrics::record_curr_update();
                        continue;
                    }
                    return next;
                }
            }
        }
    }
}

/// Ordered scan over the union of several **sibling** skip lists.
///
/// Calls `visitor(key, value)` for each visited pair in ascending key
/// order across all lists; the visitor returns `true` to continue or
/// `false` to stop early. Returns the number of pairs visited.
///
/// The whole scan runs under one pin taken from `handles[0]`,
/// which is sound **only** because sibling lists share a reclamation
/// domain — the function asserts this via
/// [`SkipList::shares_domain_with`] and panics otherwise.
///
/// No atomic snapshot across lists (nor within one): a key present
/// for the scan's entire duration is visited exactly once, a key
/// absent throughout is never visited, and keys inserted or deleted
/// mid-scan may or may not appear.
///
/// # Examples
///
/// ```
/// use lf_core::skiplist::{merged_range, SkipList};
/// use std::ops::Bound;
///
/// let a: SkipList<u64, u64> = SkipList::new();
/// let b = a.new_sibling();
/// let (ha, hb) = (a.handle(), b.handle());
/// // Shard by parity: evens in `a`, odds in `b`.
/// for k in 0..10u64 {
///     if k % 2 == 0 { ha.insert(k, k) } else { hb.insert(k, k) };
/// }
/// let mut seen = Vec::new();
/// let n = merged_range(
///     &[&ha, &hb],
///     Bound::Included(&2),
///     Bound::Excluded(&7),
///     |k, _v| {
///         seen.push(*k);
///         true
///     },
/// );
/// assert_eq!(n, 5);
/// assert_eq!(seen, vec![2, 3, 4, 5, 6]);
/// ```
pub fn merged_range<K, V, R, F>(
    handles: &[&SkipListHandle<'_, K, V, R>],
    start: RangeBound<&K>,
    end: RangeBound<&K>,
    mut visitor: F,
) -> usize
where
    K: Ord + Send + Sync + 'static,
    V: Send + Sync + 'static,
    R: Reclaim + Publish<K> + Publish<V>,
    F: FnMut(&K, &V) -> bool,
{
    let Some(first) = handles.first() else {
        return 0;
    };
    for h in &handles[1..] {
        assert!(
            first.list.shares_domain_with(h.list),
            "merged_range requires sibling lists sharing one reclamation domain"
        );
    }
    let op = lf_metrics::op_begin_for(lf_metrics::Structure::SkipList);
    // One pin covers every sibling: their nodes are retired into the
    // shared domain, so this guard protects all traversals below.
    let guard = R::pin(&first.reclaim);

    // Position each cursor at the last node *before* the range (the
    // `RangeIter` convention), then pre-fill its first candidate.
    let mut cursors: Vec<Cursor<'_, K, V, R>> = handles
        .iter()
        .map(|h| {
            // SAFETY: the guard pins the shared domain; positioning
            // nodes stay valid while it lives.
            let anchor = unsafe {
                match start {
                    RangeBound::Unbounded => h.list.heads[0],
                    RangeBound::Included(k) => {
                        // ord: Release/Acquire/Relaxed — LIST.flag-cas: descent may help-delete (wrapped C&S)
                        h.list.search_to_level(k, 1, Mode::Lt, &guard).0
                    }
                    RangeBound::Excluded(k) => {
                        // ord: Release/Acquire/Relaxed — LIST.flag-cas: descent may help-delete (wrapped C&S)
                        h.list.search_to_level(k, 1, Mode::Le, &guard).0
                    }
                }
            };
            // SAFETY: `anchor` is a node of `h.list` under the guard.
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: cursor advance helps deletions (wrapped C&S)
            let cand = unsafe { advance(h.list, anchor, &start, &end, &guard) };
            Cursor {
                list: h.list,
                anchor,
                cand,
            }
        })
        .collect();

    let mut visited = 0usize;
    loop {
        // Linear min over the (small, = shard count) cursor set.
        let mut min_i: Option<usize> = None;
        for (i, c) in cursors.iter().enumerate() {
            if c.cand.is_null() {
                continue;
            }
            let better = match min_i {
                None => true,
                // SAFETY: candidates are live roots under the guard.
                Some(m) => unsafe { (*c.cand).key_ref() < (*cursors[m].cand).key_ref() },
            };
            if better {
                min_i = Some(i);
            }
        }
        let Some(m) = min_i else { break };
        let node = cursors[m].cand;
        let mut stop = false;
        // SAFETY: `node` is protected by the guard; the borrows of its
        // key and element handed to the visitor end before the cursor
        // advances, well inside the guard's lifetime.
        unsafe {
            // Re-check the mark at emission time, as `RangeIter` does:
            // a root marked since the cursor found it is already
            // logically deleted and must not be reported.
            if !(*node).is_marked() {
                let k = (*node).key_ref().as_key().expect("candidate has user key");
                let v = (*node).element.as_ref().expect("root node has element");
                visited += 1;
                stop = !visitor(k, v);
            }
            // escape: ESC.scan-cursor: the cursor set lives strictly inside
            // this fn's `guard` scope, so stored anchors stay protected
            cursors[m].anchor = node;
            // ord: Release/Acquire/Relaxed — LIST.flag-cas: cursor advance helps deletions (wrapped C&S)
            // escape: ESC.scan-cursor: as above — cursor outlived by the guard
            cursors[m].cand = advance(cursors[m].list, node, &start, &end, &guard);
        }
        if stop {
            break;
        }
    }
    drop(guard);
    lf_metrics::op_end(op);
    visited
}
