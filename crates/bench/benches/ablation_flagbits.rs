//! Criterion: flag-bit ablation as wall clock — FR list vs the
//! backlinks-without-flags variant on a tail-hotspot churn (the E8
//! workload measured in time rather than steps).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use lf_baselines::NoFlagList;
use lf_bench::{apply_op, Lookup};
use lf_core::{Dict, DictHandle, FrList};
use lf_workloads::{KeyDist, Mix, WorkloadIter};

const BATCH: u64 = 1_000;

fn batch<D: Dict<Key = u64, Value = u64>>(map: D) -> impl FnMut() {
    {
        let h = map.handle();
        for k in (0..512).step_by(2) {
            h.insert(k, k);
        }
    }
    let mut w = WorkloadIter::new(
        Mix::CHURN,
        KeyDist::Tail {
            space: 512,
            width: 16,
        },
        13,
    );
    move || {
        let h = map.handle();
        for _ in 0..BATCH {
            black_box(apply_op(&h, w.next_op(), Lookup::Contains));
        }
    }
}

fn bench_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_flagbits");
    g.sample_size(10);
    let mut fr = batch(FrList::new());
    g.bench_function(BenchmarkId::new("fr-list", "tail-churn"), |b| {
        b.iter(&mut fr)
    });
    let mut nf = batch(NoFlagList::new());
    g.bench_function(BenchmarkId::new("noflag-list", "tail-churn"), |b| {
        b.iter(&mut nf)
    });
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
