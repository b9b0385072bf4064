//! Property-based tests: every dictionary agrees with a `BTreeMap`
//! oracle over arbitrary operation sequences, and core invariants hold
//! after arbitrary histories.
//!
//! One sequential spec checks every `Dict` implementation through the
//! same trait surface: point ops, the zero-copy and pin-free lookups,
//! upsert, and paged scans (ordered structures must return the
//! oracle's page; unordered ones an empty page).

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use lf_shard::{ShardedMap, ShardedSkipList};
use lockfree_lists::baselines::{
    CoarseLockList, HarrisList, HohLockList, LockSkipList, MichaelList, NoFlagList,
    RestartSkipList, SeqSkipList,
};
use lockfree_lists::map::BucketMap;
use lockfree_lists::{Dict, DictHandle, FrList, SkipList};

#[derive(Clone, Debug)]
enum Op {
    Insert(u8, u16),
    Upsert(u8, u16),
    Remove(u8),
    Get(u8),
    Scan(Option<u8>, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Insert(k % 32, v)),
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Upsert(k % 32, v)),
        any::<u8>().prop_map(|k| Op::Remove(k % 32)),
        any::<u8>().prop_map(|k| Op::Get(k % 32)),
        (any::<u8>(), any::<u8>())
            .prop_map(|(k, n)| Op::Scan((k % 40 < 32).then_some(k % 32), n % 12)),
    ]
}

/// Replay `ops` on one handle of `map` and on the oracle, checking
/// every result, then the final size and a full scan.
fn matches_btreemap<D>(map: D, ops: Vec<Op>) -> Result<(), TestCaseError>
where
    D: Dict<Key = u64, Value = u64>,
{
    let h = map.handle();
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let page = |h: &D::Handle<'_>, after: Option<u64>, limit: usize| {
        let mut out = Vec::new();
        h.scan(after.as_ref(), limit, &mut out);
        out
    };
    let oracle_page = |o: &BTreeMap<u64, u64>, after: Option<u64>, limit: usize| {
        if !map.ordered() {
            return Vec::new();
        }
        let from = after.map_or(Bound::Unbounded, Bound::Excluded);
        o.range((from, Bound::Unbounded))
            .take(limit)
            .map(|(k, v)| (*k, *v))
            .collect::<Vec<_>>()
    };
    for op in ops {
        match op {
            Op::Insert(k, v) => {
                let (k, v) = (k as u64, v as u64);
                let theirs = !oracle.contains_key(&k);
                if theirs {
                    oracle.insert(k, v);
                }
                prop_assert_eq!(h.insert(k, v), theirs, "insert {}", k);
            }
            Op::Upsert(k, v) => {
                let (k, v) = (k as u64, v as u64);
                oracle.insert(k, v);
                prop_assert!(h.upsert(k, v), "upsert {} lost with no rival", k);
            }
            Op::Remove(k) => {
                let k = k as u64;
                prop_assert_eq!(h.remove(&k), oracle.remove(&k), "remove {}", k);
            }
            Op::Get(k) => {
                let k = k as u64;
                let theirs = oracle.get(&k).copied();
                prop_assert_eq!(h.get(&k), theirs, "get {}", k);
                prop_assert_eq!(h.try_read(&k), theirs, "try_read {}", k);
                prop_assert_eq!(h.get_with(&k, |v| *v), theirs, "get_with {}", k);
                prop_assert_eq!(h.contains(&k), theirs.is_some(), "contains {}", k);
            }
            Op::Scan(after, limit) => {
                let (after, limit) = (after.map(u64::from), limit as usize);
                let theirs = oracle_page(&oracle, after, limit);
                prop_assert_eq!(page(&h, after, limit), theirs, "scan {:?}", after);
            }
        }
    }
    prop_assert_eq!(map.len(), oracle.len());
    let theirs = oracle_page(&oracle, None, usize::MAX);
    prop_assert_eq!(page(&h, None, usize::MAX), theirs);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fr_list_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        matches_btreemap(FrList::new(), ops)?;
    }

    #[test]
    fn fr_skiplist_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        matches_btreemap(SkipList::new(), ops)?;
    }

    #[test]
    fn sharded_skiplist_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        matches_btreemap(ShardedSkipList::new(4), ops)?;
    }

    #[test]
    fn bucket_map_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        matches_btreemap(BucketMap::new(8), ops)?;
    }

    #[test]
    fn sharded_map_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        matches_btreemap(ShardedMap::new(4, 4), ops)?;
    }

    #[test]
    fn harris_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        matches_btreemap(HarrisList::new(), ops)?;
    }

    #[test]
    fn michael_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        matches_btreemap(MichaelList::new(), ops)?;
    }

    #[test]
    fn noflag_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        matches_btreemap(NoFlagList::new(), ops)?;
    }

    #[test]
    fn coarse_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        matches_btreemap(CoarseLockList::new(), ops)?;
    }

    #[test]
    fn hoh_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        matches_btreemap(HohLockList::new(), ops)?;
    }

    #[test]
    fn lock_skiplist_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        matches_btreemap(LockSkipList::new(), ops)?;
    }

    #[test]
    fn restart_skiplist_matches_btreemap(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        matches_btreemap(RestartSkipList::new(), ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sequential Pugh skip list vs oracle (mutable API).
    #[test]
    fn seq_skiplist_matches_btreemap(
        seed in any::<u64>(),
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut sl = SeqSkipList::with_seed(seed);
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let (k, v) = (k as u64, v as u64);
                    let theirs = !oracle.contains_key(&k);
                    if theirs {
                        oracle.insert(k, v);
                    }
                    prop_assert_eq!(sl.insert(k, v), theirs);
                }
                Op::Upsert(k, v) => {
                    let (k, v) = (k as u64, v as u64);
                    prop_assert_eq!(sl.remove(&k), oracle.insert(k, v));
                    prop_assert!(sl.insert(k, v));
                }
                Op::Remove(k) => {
                    let k = k as u64;
                    prop_assert_eq!(sl.remove(&k), oracle.remove(&k));
                }
                Op::Get(k) => {
                    let k = k as u64;
                    prop_assert_eq!(sl.get(&k).copied(), oracle.get(&k).copied());
                }
                Op::Scan(..) => {}
            }
            prop_assert_eq!(sl.len(), oracle.len());
        }
        let ours: Vec<u64> = sl.iter().map(|(k, _)| *k).collect();
        let theirs: Vec<u64> = oracle.keys().copied().collect();
        prop_assert_eq!(ours, theirs);
    }

    /// After any op sequence the FR list passes structural validation
    /// and iterates in strictly sorted order.
    #[test]
    fn fr_list_invariants_hold(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let list = FrList::<u64, u64>::new();
        let h = list.handle();
        for op in ops {
            match op {
                Op::Insert(k, v) => { let _ = h.insert(k as u64, v as u64); }
                Op::Remove(k) => { let _ = h.remove(&(k as u64)); }
                Op::Upsert(k, v) => { let _ = h.upsert(k as u64, v as u64); }
                Op::Get(k) => { let _ = h.get(&(k as u64)); }
                Op::Scan(..) => {}
            }
        }
        list.validate_quiescent();
        let keys: Vec<u64> = h.iter().map(|(k, _)| k).collect();
        for w in keys.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Same for the skip list, across all levels.
    #[test]
    fn fr_skiplist_invariants_hold(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let sl = SkipList::<u64, u64>::new();
        let h = sl.handle();
        for op in ops {
            match op {
                Op::Insert(k, v) => { let _ = h.insert(k as u64, v as u64); }
                Op::Remove(k) => { let _ = h.remove(&(k as u64)); }
                Op::Upsert(k, v) => { let _ = h.upsert(k as u64, v as u64); }
                Op::Get(k) => { let _ = h.get(&(k as u64)); }
                Op::Scan(..) => {}
            }
        }
        sl.validate_quiescent();
        let heights = sl.tower_heights();
        prop_assert_eq!(heights.len(), sl.len());
        for h in heights {
            prop_assert!((1..32).contains(&h));
        }
    }
}
