//! Criterion: single-threaded operation cost of every list, per size.
//!
//! Regenerates the E4 comparison as wall-clock numbers: batches of a
//! fixed churn+search mix against each list implementation at two
//! steady sizes. Complements the `experiments e4` table (which measures
//! multi-threaded throughput).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lf_baselines::{CoarseLockList, HarrisList, HohLockList, MichaelList, NoFlagList};
use lf_bench::{apply_op, Lookup};
use lf_core::{Dict, DictHandle, FrList};
use lf_workloads::{KeyDist, Mix, WorkloadIter};

const BATCH: u64 = 1_000;

fn batch<D: Dict<Key = u64, Value = u64>>(map: D, n: u64) -> impl FnMut() {
    {
        let h = map.handle();
        for k in (0..2 * n).step_by(2) {
            h.insert(k, k);
        }
    }
    let mut w = WorkloadIter::new(Mix::UPDATE_HEAVY, KeyDist::Uniform { space: 2 * n }, 7);
    move || {
        let h = map.handle();
        for _ in 0..BATCH {
            black_box(apply_op(&h, w.next_op(), Lookup::Contains));
        }
    }
}

fn bench_lists(c: &mut Criterion) {
    let mut g = c.benchmark_group("list_ops");
    g.sample_size(10);
    for n in [128u64, 512] {
        macro_rules! one {
            ($name:literal, $map:expr) => {{
                let mut f = batch($map, n);
                g.bench_function(BenchmarkId::new($name, n), |b| b.iter(&mut f));
            }};
        }
        one!("fr-list", FrList::new());
        one!("harris-list", HarrisList::new());
        one!("michael-list", MichaelList::new());
        one!("noflag-list", NoFlagList::new());
        one!("coarse-lock-list", CoarseLockList::new());
        one!("hoh-lock-list", HohLockList::new());
    }
    g.finish();
}

criterion_group!(benches, bench_lists);
criterion_main!(benches);
