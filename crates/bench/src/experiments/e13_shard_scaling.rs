//! E13 — shard scaling: the partitioned skip list (`lf-shard`) vs the
//! single instance it wraps.
//!
//! The paper's structures serialize nothing, but hot towers still
//! collide: under a skewed update-heavy load every thread's flag/mark
//! C&S traffic lands on the same few predecessors. Partitioning by key
//! hash splits that traffic across `P` independent skip lists (one
//! router hash, per-shard heads, shared epoch domain), so the sweep
//! over `P ∈ {1, 2, 4, 8, 16}` isolates how much of the remaining
//! contention is structural (same-key CAS races, which sharding cannot
//! remove — zipfian hot keys stay hot inside their shard) versus
//! incidental (neighbouring-key interference, which it does).
//!
//! `P = 1` *is* the plain `SkipList` behind one `match` on the router,
//! so the column doubles as an overhead check for the routing layer.

use lf_shard::ShardedSkipList;
use lf_workloads::{KeyDist, Mix};

use crate::runner::{run_mixed, Lookup, RunConfig, RunResult};
use crate::table::{fmt_f, Table};

/// One run on a fresh `ShardedSkipList` of `shards` partitions.
fn measure(shards: usize, threads: usize, ops: u64) -> RunResult {
    let cfg = RunConfig {
        threads,
        ops_per_thread: ops,
        mix: Mix::UPDATE_HEAVY,
        dist: KeyDist::Zipfian {
            space: 8192,
            theta: 0.99,
        },
        seed: 0xE13,
        prefill: 2048,
    };
    run_mixed(&ShardedSkipList::new(shards), &cfg, Lookup::Contains)
}

/// Print the shard-scaling table and emit `BENCH_e13.json`.
pub fn run(quick: bool) {
    println!(
        "E13: shard scaling (kops/s), update-heavy zipfian(theta 0.99),\n\
         key space 8192, prefill 2048\n"
    );
    let ops: u64 = if quick { 5_000 } else { 30_000 };
    let threads: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let mix_label = Mix::UPDATE_HEAVY.label();

    let mut rows: Vec<String> = Vec::new();
    let mut table = Table::new([
        "threads",
        "fr-shard-p1",
        "fr-shard-p2",
        "fr-shard-p4",
        "fr-shard-p8",
        "fr-shard-p16",
    ]);
    let mut speedup_at_max: Option<f64> = None;
    for &t in threads {
        let results = [
            ("fr-shard-p1", measure(1, t, ops)),
            ("fr-shard-p2", measure(2, t, ops)),
            ("fr-shard-p4", measure(4, t, ops)),
            ("fr-shard-p8", measure(8, t, ops)),
            ("fr-shard-p16", measure(16, t, ops)),
        ];
        if t == *threads.last().expect("thread list is nonempty") {
            speedup_at_max =
                Some(results[3].1.throughput() / results[0].1.throughput().max(f64::MIN_POSITIVE));
        }
        let mut cells = vec![t.to_string()];
        for (name, res) in &results {
            cells.push(fmt_f(res.throughput() / 1.0e3));
            rows.push(super::artifact_row("e13", name, &mix_label, t, res));
        }
        table.row(cells);
    }
    println!("mix {mix_label}:");
    print!("{table}");
    println!();
    super::write_bench_artifact("e13", quick, &rows);
    if let Some(s) = speedup_at_max {
        println!(
            "P=8 vs P=1 at {} threads: {:.2}x",
            threads.last().expect("thread list is nonempty"),
            s
        );
    }
    println!(
        "expected shape: throughput grows with P while threads outnumber\n\
         shards (cross-key interference splits), then flattens — the\n\
         zipfian head keys keep their own CAS races regardless of P, and\n\
         P=1 tracks the plain skip list (router overhead is one hash)."
    );
}
