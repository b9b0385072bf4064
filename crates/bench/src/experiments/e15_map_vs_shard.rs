//! E15 — serving-tier head-to-head: the bucketed hash map (`lf-map`)
//! vs the sharded skip-list map (`lf-shard`) on point-op workloads.
//!
//! Both tiers partition one key space across FR structures behind a
//! hash router, but the partition unit differs: the map's buckets are
//! *short unordered chains* (expected O(n/B) nodes per lookup, no
//! ordering maintained), the shard's partitions are *skip lists*
//! (O(log n) per lookup, ordered scans supported). For pure point ops
//! the map's shallower traversal should win; the skip list's ordering
//! machinery is pure overhead here. The sweep quantifies that premium
//! under a skewed (Zipfian) key distribution — the serving-tier shape,
//! where hot keys dominate and routing spreads them over
//! partitions — for a read-heavy and an update-heavy mix, over EBR and
//! VBR so the pin-free `try_read` path is measured on both tiers.
//!
//! Lookups route through `try_read` on both sides: pin-free validated
//! reads on VBR, the pinned `get` fallback on EBR — the same entry
//! point a serving front end would use.
//!
//! Emits `BENCH_e15.json` (advisory in `bench_gate.sh`: compared
//! against the committed baseline, but only warning on drift — shared
//! runners are too noisy for a hard cross-structure gate).

use lf_core::Dict;
use lf_map::BucketMap;
use lf_reclaim::{Ebr, Publish, Reclaim};
use lf_shard::ShardedSkipList;
use lf_vbr::Vbr;
use lf_workloads::{KeyDist, Mix};

use crate::runner::{run_mixed, Lookup, RunConfig, RunResult};
use crate::table::{fmt_f, Table};

/// Buckets for the hash-map tier. `DEFAULT_BUCKETS` (64) over the
/// 8192-key space leaves ~64 live keys per chain at 50% prefill —
/// short chains, but not so short that the chain walk vanishes from
/// the measurement entirely.
const BUCKETS: usize = lf_map::DEFAULT_BUCKETS;

/// Shards for the skip-list tier: e13's knee — beyond P=8 the residual
/// contention is same-key CAS races that more shards cannot split.
const SHARDS: usize = 8;

/// Repetitions per cell; the median-throughput run is reported.
/// Cross-structure ratios on an oversubscribed box are otherwise
/// dominated by scheduler noise.
const REPS: usize = 5;

/// The median-throughput run of `REPS`, each on a fresh structure from
/// `make`; `peak` reads its domain's peak-unreclaimed gauge.
fn measure<D: Dict<Key = u64, Value = u64>>(
    make: impl Fn() -> D,
    peak: impl Fn(&D) -> u64,
    threads: usize,
    ops: u64,
    mix: Mix,
) -> RunResult {
    let cfg = RunConfig {
        threads,
        ops_per_thread: ops,
        mix,
        dist: KeyDist::Zipfian {
            space: 8192,
            theta: 0.99,
        },
        seed: 0xE15,
        prefill: 2048,
    };
    let mut runs: Vec<RunResult> = (0..REPS)
        .map(|_| {
            let map = make();
            let res = run_mixed(&map, &cfg, Lookup::TryRead);
            RunResult {
                peak_unreclaimed: Some(peak(&map)),
                ..res
            }
        })
        .collect();
    runs.sort_by(|a, b| a.throughput().total_cmp(&b.throughput()));
    runs.swap_remove(REPS / 2)
}

/// One cell of the hash-map tier over backend `R`.
fn map_tier<R: Reclaim + Publish<u64> + 'static>(threads: usize, ops: u64, mix: Mix) -> RunResult {
    measure(
        || BucketMap::<u64, u64, R>::with_backend(BUCKETS),
        |m| R::gauge(m.domain()).peak_unreclaimed(),
        threads,
        ops,
        mix,
    )
}

/// One cell of the sharded skip-list tier over backend `R`.
fn shard_tier<R: Reclaim + Publish<u64> + 'static>(
    threads: usize,
    ops: u64,
    mix: Mix,
) -> RunResult {
    measure(
        || ShardedSkipList::<u64, u64, R>::with_backend(SHARDS),
        |m| R::gauge(m.domain()).peak_unreclaimed(),
        threads,
        ops,
        mix,
    )
}

/// Print the map-vs-shard tables and emit `BENCH_e15.json`.
pub fn run(quick: bool) {
    println!(
        "E15: serving tiers head-to-head (kops/s) — bucketed hash map\n\
         ({BUCKETS} buckets) vs sharded skip-list map ({SHARDS} shards),\n\
         zipfian(theta 0.99) keys, space 8192, prefill 2048; lookups via\n\
         the pin-free try_read entry point\n"
    );
    let ops: u64 = if quick { 5_000 } else { 30_000 };
    let threads: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };

    let mut rows: Vec<String> = Vec::new();
    // (threads, ebr ratio, vbr ratio) on the read-heavy mix.
    let mut map_vs_shard: Vec<(usize, f64, f64)> = Vec::new();
    for mix in [Mix::READ_HEAVY, Mix::UPDATE_HEAVY] {
        let label = mix.label();
        let mut table = Table::new([
            "threads",
            "fr-map-ebr",
            "fr-map-vbr",
            "fr-shard-skiplist-ebr",
            "fr-shard-skiplist-vbr",
        ]);
        for &t in threads {
            let results = [
                ("fr-map-ebr", map_tier::<Ebr>(t, ops, mix)),
                ("fr-map-vbr", map_tier::<Vbr>(t, ops, mix)),
                ("fr-shard-skiplist-ebr", shard_tier::<Ebr>(t, ops, mix)),
                ("fr-shard-skiplist-vbr", shard_tier::<Vbr>(t, ops, mix)),
            ];
            if mix.search == Mix::READ_HEAVY.search {
                map_vs_shard.push((
                    t,
                    results[0].1.throughput() / results[2].1.throughput().max(f64::MIN_POSITIVE),
                    results[1].1.throughput() / results[3].1.throughput().max(f64::MIN_POSITIVE),
                ));
            }
            let mut cells = vec![t.to_string()];
            for (name, res) in &results {
                cells.push(fmt_f(res.throughput() / 1.0e3));
                rows.push(super::artifact_row("e15", name, &label, t, res));
            }
            table.row(cells);
        }
        println!("mix {label}:");
        print!("{table}");
        println!();
    }

    super::write_bench_artifact("e15", quick, &rows);
    for (t, ebr, vbr) in &map_vs_shard {
        println!("map/shard read-heavy throughput at {t} threads: ebr {ebr:.2}x  vbr {vbr:.2}x");
    }
    println!(
        "expected shape: the hash map leads on every point-op cell — its\n\
         chains are a fraction of the skip list's O(log n) traversal and\n\
         it maintains no ordering — with the lead widest update-heavy\n\
         (no tower building/unlinking). The premium narrows as threads\n\
         grow on one core (both tiers serialize on the scheduler) but\n\
         the map stays >= 1x; same-backend comparisons isolate the\n\
         structure, the vbr columns add the pin-free read discount."
    );
}
