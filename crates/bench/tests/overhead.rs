//! Telemetry overhead budget: histogram capture (op tokens + local
//! histogram records) must cost less than 5% throughput versus
//! counters-only instrumentation on the E4 list configuration at 4
//! threads.
//!
//! Ignored by default — it is a timing measurement, meaningful only in
//! release mode on an otherwise quiet machine:
//!
//! ```text
//! cargo test -p lf-bench --release -- --ignored overhead
//! ```

use lf_bench::runner::{run_mixed, Lookup, RunConfig};
use lf_core::FrList;
use lf_workloads::{KeyDist, Mix};

/// One throughput measurement with histogram capture toggled, on the
/// E4 configuration (uniform keys over 512, prefill 128, update-heavy).
fn throughput(histograms: bool) -> f64 {
    lf_metrics::set_histograms_enabled(histograms);
    let cfg = RunConfig {
        threads: 4,
        ops_per_thread: 40_000,
        mix: Mix::UPDATE_HEAVY,
        dist: KeyDist::Uniform { space: 512 },
        seed: 0xE4,
        prefill: 128,
    };
    run_mixed(&FrList::<u64, u64>::new(), &cfg, Lookup::Contains).throughput()
}

#[test]
#[ignore = "timing-sensitive: run alone, in release, on a quiet machine"]
fn histogram_overhead_under_five_percent() {
    // Warm-up pair (discarded) so neither variant pays first-touch
    // costs (TSC calibration, histogram allocation, fault-in).
    let _ = throughput(true);
    let _ = throughput(false);

    // Best-of-9, with the two variants interleaved so scheduler and
    // thermal drift on a shared machine perturbs both equally. Best-of
    // is the right estimator here: external noise only ever *subtracts*
    // throughput, so each variant's fastest run is its closest look at
    // the intrinsic cost.
    let mut with_hist: f64 = 0.0;
    let mut counters_only: f64 = 0.0;
    for _ in 0..9 {
        with_hist = with_hist.max(throughput(true));
        counters_only = counters_only.max(throughput(false));
    }
    lf_metrics::set_histograms_enabled(true);

    let overhead = (counters_only - with_hist) / counters_only;
    eprintln!(
        "counters-only {counters_only:.0} ops/s, with histograms {with_hist:.0} ops/s, \
         overhead {:.2}%",
        overhead * 100.0
    );
    assert!(
        overhead < 0.05,
        "histogram overhead {:.2}% exceeds the 5% budget \
         ({counters_only:.0} ops/s -> {with_hist:.0} ops/s)",
        overhead * 100.0
    );
}
