//! The service is a transparent front for any `Dict`: one op tape
//! replayed through `Service` and through a direct handle gives the
//! same results on all five FR tiers — point ops, `Upsert`, `GetWith`,
//! `Len`, and paged scans (ordered tiers return the pages; hash tiers
//! an empty page and `supports_scan() == false`).

use lf_async::{Dict, DictHandle, Request, Response, ServiceBuilder};
use lf_core::{FrList, SkipList};
use lf_map::BucketMap;
use lf_sched::rt;
use lf_shard::{ShardedMap, ShardedSkipList};

/// One tape step.
#[derive(Debug)]
enum Step {
    /// A point request or `Len`, compared by its `Response`.
    Op(Request<u64, u64>),
    /// Zero-copy lookup; the visitor copies the value out.
    GetWith(u64),
    /// One page strictly after the cursor.
    Scan(Option<u64>, usize),
    /// Page through everything, `PAGE` pairs at a time.
    ScanAll,
}

/// What a step returned.
#[derive(Debug, PartialEq)]
enum Out {
    Resp(Response<u64>),
    Visit(Option<u64>),
    Page(Vec<(u64, u64)>),
}

const PAGE: usize = 5;

/// A deterministic tape over a 24-key space.
fn tape() -> Vec<Step> {
    let mut x: u64 = 0x2004_f00d;
    let mut steps = Vec::new();
    for i in 0..600u64 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = (x >> 40) % 24;
        let step = match (x >> 20) % 10 {
            0 | 1 => Step::Op(Request::Insert(k, i)),
            2 => Step::Op(Request::Upsert(k, i)),
            3 => Step::Op(Request::Remove(k)),
            4 => Step::Op(Request::Get(k)),
            5 => Step::Op(Request::Contains(k)),
            6 => Step::GetWith(k),
            7 => Step::Op(Request::Len),
            8 => Step::Scan(
                (!(x >> 8).is_multiple_of(3)).then_some(k),
                (x >> 12) as usize % 8,
            ),
            _ => Step::ScanAll,
        };
        steps.push(step);
    }
    steps
}

/// Replay the tape through a two-lane service over `dict`.
fn through_service<D: Dict<Key = u64, Value = u64>>(dict: D, tape: &[Step]) -> (Vec<Out>, bool) {
    let service = ServiceBuilder::new().workers(2).build(dict);
    let outs = rt::block_on(async {
        let mut outs = Vec::new();
        for step in tape {
            let out = match step {
                Step::Op(req) => Out::Resp(service.op(copy(req)).await.expect("served")),
                Step::GetWith(k) => Out::Visit(service.get_with(*k, |v| *v).await.expect("served")),
                Step::Scan(after, limit) => {
                    Out::Page(service.scan(*after, *limit).await.expect("served"))
                }
                Step::ScanAll => {
                    let mut all = Vec::new();
                    let mut after = None;
                    loop {
                        let page = service.scan(after, PAGE).await.expect("served");
                        after = page.last().map(|(k, _)| *k);
                        all.extend(page);
                        if after.is_none() {
                            break;
                        }
                    }
                    Out::Page(all)
                }
            };
            outs.push(out);
        }
        outs
    });
    let supports_scan = service.supports_scan();
    service.shutdown();
    (outs, supports_scan)
}

/// Replay the tape on one direct handle of `dict`.
fn through_handle<D: Dict<Key = u64, Value = u64>>(dict: D, tape: &[Step]) -> Vec<Out> {
    let h = dict.handle();
    let page = |after: Option<u64>, limit: usize| {
        let mut out = Vec::new();
        h.scan(after.as_ref(), limit, &mut out);
        out
    };
    tape.iter()
        .map(|step| match step {
            Step::Op(req) => Out::Resp(match copy(req) {
                Request::Get(k) => Response::Value(h.get(&k)),
                Request::Contains(k) => Response::Found(h.contains(&k)),
                Request::Insert(k, v) => Response::Inserted(h.insert(k, v)),
                Request::Upsert(k, v) => Response::Inserted(h.upsert(k, v)),
                Request::Remove(k) => Response::Removed(h.remove(&k)),
                Request::Len => Response::Len(dict.len()),
                Request::GetWith(..) | Request::Scan(..) => unreachable!("not on the tape"),
            }),
            Step::GetWith(k) => Out::Visit(h.get_with(k, |v| *v)),
            Step::Scan(after, limit) => Out::Page(page(*after, *limit)),
            Step::ScanAll => {
                let mut all = Vec::new();
                let mut after = None;
                loop {
                    let p = page(after, PAGE);
                    after = p.last().map(|(k, _)| *k);
                    all.extend(p);
                    if after.is_none() {
                        break;
                    }
                }
                Out::Page(all)
            }
        })
        .collect()
}

/// A fresh copy of a tape request (the tape holds no `GetWith`/`Scan`
/// requests, whose payloads cannot be copied).
fn copy(req: &Request<u64, u64>) -> Request<u64, u64> {
    match req {
        Request::Get(k) => Request::Get(*k),
        Request::Contains(k) => Request::Contains(*k),
        Request::Insert(k, v) => Request::Insert(*k, *v),
        Request::Upsert(k, v) => Request::Upsert(*k, *v),
        Request::Remove(k) => Request::Remove(*k),
        Request::Len => Request::Len,
        Request::GetWith(..) | Request::Scan(..) => unreachable!("not on the tape"),
    }
}

/// Both replays agree step by step; scans are served exactly when the
/// tier is ordered.
fn same_results<D: Dict<Key = u64, Value = u64>>(make: impl Fn() -> D) {
    let tape = tape();
    let ordered = make().ordered();
    let direct = through_handle(make(), &tape);
    let (served, supports_scan) = through_service(make(), &tape);
    assert_eq!(supports_scan, ordered);
    for (i, (step, (a, b))) in tape.iter().zip(served.iter().zip(&direct)).enumerate() {
        assert_eq!(a, b, "step {i}: {step:?}");
    }
    let pages = direct.iter().filter_map(|o| match o {
        Out::Page(p) => Some(p.len()),
        _ => None,
    });
    if ordered {
        assert!(pages.sum::<usize>() > 0, "the tape never scanned a pair");
    } else {
        assert!(
            pages.into_iter().all(|n| n == 0),
            "a hash tier served a scan"
        );
    }
}

#[test]
fn list_service_matches_handle() {
    same_results(FrList::<u64, u64>::new);
}

#[test]
fn skiplist_service_matches_handle() {
    same_results(SkipList::<u64, u64>::new);
}

#[test]
fn sharded_skiplist_service_matches_handle() {
    same_results(|| ShardedSkipList::<u64, u64>::new(4));
}

#[test]
fn bucket_map_service_matches_handle() {
    same_results(|| BucketMap::<u64, u64>::new(16));
}

#[test]
fn sharded_map_service_matches_handle() {
    same_results(|| ShardedMap::<u64, u64>::new(4, 4));
}
