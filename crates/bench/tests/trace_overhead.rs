//! Causal-tracing overhead budget (DESIGN.md §12, normative):
//!
//! * **disabled** — the always-compiled hooks (one `Relaxed` load and a
//!   branch per emission site) must cost ≤ 1% against the committed
//!   `BENCH_e4.json`/`BENCH_e6.json` medians;
//! * **enabled** — full event capture into the per-thread rings must
//!   cost ≤ 10% against a disabled run on the same machine.
//!
//! Ignored by default — timing measurements, meaningful only in release
//! mode on an otherwise quiet machine:
//!
//! ```text
//! cargo test -p lf-bench --release -- --ignored trace_overhead --nocapture
//! ```
//!
//! The baselines are parsed with `lf_trace::json` — the same parser the
//! flight-recorder report tool uses, so the dependency costs nothing new.

use std::sync::Mutex;

use lf_bench::runner::{run_mixed, Lookup, RunConfig};
use lf_core::{FrList, SkipList};
use lf_workloads::{KeyDist, Mix};

/// Both tests flip the process-global trace toggle; never interleave.
static BUDGET_LOCK: Mutex<()> = Mutex::new(());

const THREADS: usize = 4;

/// E4 list configuration (key space 512, prefill 128, update-heavy).
fn list_throughput(trace: bool) -> f64 {
    if trace {
        lf_trace::enable();
    } else {
        lf_trace::disable();
    }
    let cfg = RunConfig {
        threads: THREADS,
        ops_per_thread: 40_000,
        mix: Mix::UPDATE_HEAVY,
        dist: KeyDist::Uniform { space: 512 },
        seed: 0xE4,
        prefill: 128,
    };
    run_mixed(&FrList::<u64, u64>::new(), &cfg, Lookup::Contains).throughput()
}

/// E6 skip-list configuration (key space 8192, prefill 2048, update-heavy).
fn skiplist_throughput(trace: bool) -> f64 {
    if trace {
        lf_trace::enable();
    } else {
        lf_trace::disable();
    }
    let cfg = RunConfig {
        threads: THREADS,
        ops_per_thread: 40_000,
        mix: Mix::UPDATE_HEAVY,
        dist: KeyDist::Uniform { space: 8192 },
        seed: 0xE6,
        prefill: 2048,
    };
    run_mixed(&SkipList::<u64, u64>::new(), &cfg, Lookup::Contains).throughput()
}

/// Best-of-9 with the variants interleaved: external noise only ever
/// subtracts throughput, so each variant's fastest run is its closest
/// look at the intrinsic cost (same estimator as `overhead.rs`).
fn best_of_9(f: fn(bool) -> f64) -> (f64, f64) {
    let _ = f(false);
    let _ = f(true);
    let (mut off, mut on): (f64, f64) = (0.0, 0.0);
    for _ in 0..9 {
        off = off.max(f(false));
        on = on.max(f(true));
    }
    lf_trace::disable();
    (off, on)
}

/// Median `throughput_ops_per_s` of the committed baseline's `fr-*`
/// rows for `mix_label`, parsed with the flight recorder's own JSON
/// parser.
fn baseline_median(file: &str, mix_label: &str) -> f64 {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("committed baseline {path} unreadable: {e}"));
    let doc = lf_trace::json::parse(&text).expect("baseline parses");
    let mut v: Vec<f64> = doc
        .get("rows")
        .and_then(|r| r.as_arr())
        .expect("baseline has rows")
        .iter()
        .filter(|r| {
            r.get("impl")
                .and_then(|i| i.as_str())
                .is_some_and(|i| i.starts_with("fr-"))
                && r.get("mix").and_then(|m| m.as_str()) == Some(mix_label)
        })
        .filter_map(|r| r.get("throughput_ops_per_s").and_then(|t| t.as_num()))
        .collect();
    assert!(!v.is_empty(), "no fr-* {mix_label} rows in {file}");
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

#[test]
#[ignore = "timing-sensitive: run alone, in release, on a quiet machine"]
fn trace_overhead_enabled_under_ten_percent() {
    let _g = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (name, f) in [
        ("e4/fr-list", list_throughput as fn(bool) -> f64),
        ("e6/fr-skiplist", skiplist_throughput),
    ] {
        let (off, on) = best_of_9(f);
        let overhead = (off - on) / off;
        eprintln!(
            "{name}: tracing off {off:.0} ops/s, on {on:.0} ops/s, overhead {:.2}%",
            overhead * 100.0
        );
        assert!(
            overhead < 0.10,
            "{name}: enabled tracing overhead {:.2}% exceeds the 10% budget \
             ({off:.0} ops/s -> {on:.0} ops/s)",
            overhead * 100.0
        );
    }
}

#[test]
#[ignore = "timing-sensitive: compares against the committed baseline medians, \
            so it is only meaningful on the machine that produced them"]
fn trace_overhead_disabled_within_one_percent_of_baselines() {
    let _g = BUDGET_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (file, f) in [
        ("BENCH_e4.json", list_throughput as fn(bool) -> f64),
        ("BENCH_e6.json", skiplist_throughput),
    ] {
        let median = baseline_median(file, &Mix::UPDATE_HEAVY.label());
        let _ = f(false); // warm-up
        let mut off: f64 = 0.0;
        for _ in 0..9 {
            off = off.max(f(false));
        }
        let delta = (off / median - 1.0) * 100.0;
        eprintln!(
            "{file}: committed fr-* median {median:.0} ops/s, \
             tracing-disabled now {off:.0} ops/s ({delta:+.2}%)"
        );
        assert!(
            off >= median * 0.99,
            "{file}: tracing-disabled throughput {off:.0} ops/s fell more than 1% \
             below the committed median {median:.0} ops/s ({delta:+.2}%)"
        );
    }
}
