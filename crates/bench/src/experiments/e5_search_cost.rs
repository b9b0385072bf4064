//! E5 — skip list search cost grows as `log n` (paper §4 / Pugh).
//!
//! Metered searches on the Fomitchev–Ruppert skip list across sizes;
//! the `steps/op ÷ log2 n` column should be roughly flat while the
//! flat list's cost grows linearly.

use lf_core::{FrList, SkipList};
use lf_workloads::{KeyDist, Mix};

use crate::runner::{run_mixed, Lookup, RunConfig};
use crate::table::{fmt_f, Table};

/// Print the scaling series.
pub fn run(quick: bool) {
    println!("E5: search cost scaling — skip list O(log n) vs flat list O(n)\n");
    let search_only = Mix::READ_ONLY;
    let sizes: &[u64] = if quick {
        &[256, 1024, 4096]
    } else {
        &[256, 1024, 4096, 16384, 65536]
    };
    let ops: u64 = if quick { 2_000 } else { 10_000 };

    let mut table = Table::new([
        "n",
        "log2 n",
        "skiplist steps/op",
        "steps/op / log2 n",
        "flat list steps/op",
        "flat / n",
    ]);
    for &n in sizes {
        let cfg = RunConfig {
            threads: 2,
            ops_per_thread: ops,
            mix: search_only,
            dist: KeyDist::Uniform { space: 2 * n },
            seed: 0xE5,
            prefill: n,
        };
        let sl = run_mixed(&SkipList::<u64, u64>::new(), &cfg, Lookup::Contains);
        // The flat list at 64k would dominate the runtime; cap it.
        let flat_steps = if n <= 4096 {
            let flat_cfg = RunConfig {
                ops_per_thread: ops.min(2_000),
                ..cfg.clone()
            };
            let flat = run_mixed(&FrList::<u64, u64>::new(), &flat_cfg, Lookup::Contains);
            Some(flat.steps_per_op())
        } else {
            None
        };
        let log2 = (n as f64).log2();
        table.row([
            n.to_string(),
            fmt_f(log2),
            fmt_f(sl.steps_per_op()),
            fmt_f(sl.steps_per_op() / log2),
            flat_steps.map(fmt_f).unwrap_or_else(|| "-".into()),
            flat_steps
                .map(|s| fmt_f(s / n as f64))
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    print!("{table}");
    println!(
        "\nexpected shape: 'steps/op / log2 n' flat for the skip list,\n\
         'flat / n' flat for the linked list (i.e. linear growth)."
    );
}
