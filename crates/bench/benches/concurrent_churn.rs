//! Criterion: multi-threaded churn wall time (4 threads), measured via
//! `iter_custom` so each sample is one complete multi-thread run.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lf_baselines::{CoarseLockList, HarrisList, LockSkipList, RestartSkipList};
use lf_bench::{apply_op, Lookup};
use lf_core::{Dict, DictHandle, FrList, SkipList};
use lf_workloads::{KeyDist, Mix, WorkloadIter};

const THREADS: usize = 4;
const OPS_PER_THREAD: u64 = 2_000;

fn timed_run<D: Dict<Key = u64, Value = u64>>(
    make: impl Fn() -> D,
    space: u64,
    iters: u64,
) -> Duration {
    let mut total = Duration::ZERO;
    for round in 0..iters {
        let map = make();
        {
            let h = map.handle();
            for k in (0..space).step_by(4) {
                h.insert(k, k);
            }
        }
        let barrier = std::sync::Barrier::new(THREADS + 1);
        let mut start = None;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let map = &map;
                let barrier = &barrier;
                let seed = round * 131 + t as u64;
                s.spawn(move || {
                    let h = map.handle();
                    let mut w = WorkloadIter::new(Mix::CHURN, KeyDist::Uniform { space }, seed);
                    barrier.wait();
                    for _ in 0..OPS_PER_THREAD {
                        apply_op(&h, w.next_op(), Lookup::Contains);
                    }
                });
            }
            start = Some(Instant::now());
            barrier.wait();
        });
        total += start.expect("started").elapsed();
    }
    total
}

fn bench_concurrent(c: &mut Criterion) {
    let mut g = c.benchmark_group("concurrent_churn_4t");
    g.sample_size(10);

    macro_rules! one {
        ($name:literal, $make:expr, $space:expr) => {{
            g.bench_function(BenchmarkId::new($name, $space), |b| {
                b.iter_custom(|iters| timed_run($make, $space, iters))
            });
        }};
    }
    one!("fr-list", FrList::new, 512u64);
    one!("harris-list", HarrisList::new, 512u64);
    one!("coarse-lock-list", CoarseLockList::new, 512u64);
    one!("fr-skiplist", SkipList::new, 8_192u64);
    one!("restart-skiplist", RestartSkipList::new, 8_192u64);
    one!("lock-skiplist", LockSkipList::new, 8_192u64);
    g.finish();
}

criterion_group!(benches, bench_concurrent);
criterion_main!(benches);
