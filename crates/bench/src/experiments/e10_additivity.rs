//! E10 — the overhead separates **additively** (§1).
//!
//! The headline bound is `O(n̄ + c̄)`, not `O(n̄ · c̄)`: the concurrency
//! overhead adds to the traversal cost instead of multiplying it. We
//! measure steps/op over an (n, threads) grid on the FR list; the
//! contention penalty — steps/op at t threads minus steps/op at 1
//! thread — should stay roughly constant as n grows. A multiplicative
//! bound would make that penalty scale with n.

use lf_core::FrList;
use lf_workloads::{KeyDist, Mix};

use crate::runner::{run_mixed, Lookup, RunConfig};
use crate::table::{fmt_f, Table};

fn steps_per_op(n: u64, threads: usize, ops: u64) -> f64 {
    let cfg = RunConfig {
        threads,
        ops_per_thread: ops,
        mix: Mix::UPDATE_HEAVY,
        dist: KeyDist::Uniform { space: 2 * n },
        seed: 0xE10,
        prefill: n,
    };
    run_mixed(&FrList::<u64, u64>::new(), &cfg, Lookup::Contains).steps_per_op()
}

/// Print the grid.
pub fn run(quick: bool) {
    println!("E10: additive (not multiplicative) contention overhead on the FR list\n");
    let ops: u64 = if quick { 3_000 } else { 15_000 };
    let sizes: &[u64] = if quick {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512]
    };
    let threads: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    let mut header: Vec<String> = vec!["n".into()];
    header.extend(threads.iter().map(|t| format!("t={t}")));
    header.push("penalty (t_max - t=1)".into());
    header.push("penalty / n".into());
    let mut table = Table::new(header);

    for &n in sizes {
        let mut row: Vec<String> = vec![n.to_string()];
        let mut first = 0.0;
        let mut last = 0.0;
        for (i, &t) in threads.iter().enumerate() {
            let s = steps_per_op(n, t, ops);
            if i == 0 {
                first = s;
            }
            last = s;
            row.push(fmt_f(s));
        }
        let penalty = last - first;
        row.push(fmt_f(penalty));
        row.push(fmt_f(penalty / n as f64));
        table.row(row);
    }
    print!("{table}");
    println!(
        "\npaper claim: O(n + c) — the contention penalty column should not\n\
         grow proportionally to n (the 'penalty / n' column should shrink\n\
         as n grows). A Harris-style Ω(n·c) bound would keep it constant."
    );
}
