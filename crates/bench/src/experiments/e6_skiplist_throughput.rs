//! E6 — skip list throughput: FR vs restart-based vs lock-based.
//!
//! The skip list comparison the paper's §2 frames qualitatively:
//! backlink recovery (ours) vs Fraser/Harris-style restart-from-top vs
//! a reader-writer-locked Pugh skip list.

use lf_baselines::{LockSkipList, RestartSkipList};
use lf_core::{Dict, SkipList};
use lf_workloads::{KeyDist, Mix};

use crate::runner::{run_mixed, Lookup, RunConfig, RunResult};
use crate::table::{fmt_f, Table};

fn measure<D: Dict<Key = u64, Value = u64>>(
    map: D,
    threads: usize,
    ops: u64,
    mix: Mix,
) -> RunResult {
    let cfg = RunConfig {
        threads,
        ops_per_thread: ops,
        mix,
        dist: KeyDist::Uniform { space: 8192 },
        seed: 0xE6,
        prefill: 2048,
    };
    run_mixed(&map, &cfg, Lookup::Contains)
}

/// Print the throughput tables and emit `BENCH_e6.json`.
pub fn run(quick: bool) {
    println!("E6: skip list throughput (kops/s), key space 8192, prefill 2048\n");
    let ops: u64 = if quick { 5_000 } else { 30_000 };
    let threads: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    let mut rows: Vec<String> = Vec::new();
    for mix in [Mix::READ_HEAVY, Mix::UPDATE_HEAVY] {
        let mut table = Table::new([
            "threads",
            "fr-skiplist",
            "restart-skiplist",
            "lock-skiplist",
        ]);
        for &t in threads {
            let results = [
                ("fr-skiplist", measure(SkipList::new(), t, ops, mix)),
                (
                    "restart-skiplist",
                    measure(RestartSkipList::new(), t, ops, mix),
                ),
                ("lock-skiplist", measure(LockSkipList::new(), t, ops, mix)),
            ];
            let mut cells = vec![t.to_string()];
            for (name, res) in &results {
                cells.push(fmt_f(res.throughput() / 1.0e3));
                rows.push(super::artifact_row("e6", name, &mix.label(), t, res));
            }
            table.row(cells);
        }
        println!("mix {}:", mix.label());
        print!("{table}");
        println!();
    }
    super::write_bench_artifact("e6", quick, &rows);
    println!(
        "expected shape: both lock-free designs beat the global RwLock on\n\
         update-heavy mixes as threads grow; FR avoids restart penalties\n\
         under contention."
    );
}
