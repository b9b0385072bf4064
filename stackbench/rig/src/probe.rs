//! Per-layer figures read from outside the program: deltas of the
//! snapshots the layers export, named after the crate they describe.

use lf_metrics::Histogram;

use crate::dict::PartStats;
use crate::stats::{median, quantile, Report, Window};
use crate::Plan;

/// The process-wide counters of `lf-core` (via `lf-metrics`) and
/// `lf-reclaim` (via `lf-trace`).
#[derive(Clone, Copy)]
pub struct Global {
    steps: lf_metrics::Snapshot,
    retires: u64,
    epochs: u64,
}

impl Global {
    pub fn now() -> Global {
        Global {
            steps: lf_metrics::snapshot(),
            retires: lf_trace::retires(),
            epochs: lf_trace::epoch_advances(),
        }
    }

    /// Report `lf_core.*` step ratios and `lf_reclaim.*` for the span
    /// since `before`, in which the client issued `ops` operations on a
    /// structure whose reclamation domain peaked at `peak_unreclaimed`.
    pub fn report_since(
        &self,
        before: &Global,
        ops: u64,
        peak_unreclaimed: u64,
        source: &str,
        r: &mut Report,
    ) {
        let d = self.steps - before.steps;
        let attempts = d.cas_attempts();
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        r.layer(
            "lf_core.cas_success_ratio",
            ratio(d.cas_successes(), attempts),
            "ratio",
            source,
        );
        r.layer(
            "lf_core.backlinks_per_op",
            ratio(d.backlink_traversals, d.ops),
            "1/op",
            source,
        );
        r.layer("lf_core.steps_per_op", d.steps_per_op(), "1/op", source);
        r.layer(
            "lf_reclaim.retires_per_op",
            ratio(self.retires - before.retires, ops),
            "1/op",
            source,
        );
        r.layer(
            "lf_reclaim.epoch_advances",
            (self.epochs - before.epochs) as f64,
            "count",
            source,
        );
        r.layer(
            "lf_reclaim.peak_unreclaimed",
            peak_unreclaimed as f64,
            "count",
            source,
        );
    }
}

/// Report a partitioned layer's (`lf_shard` or `lf_map`) statistics
/// for the span between two snapshots.
pub fn report_parts(
    layer: &str,
    after: &PartStats,
    before: &PartStats,
    source: &str,
    r: &mut Report,
) {
    let d = after.since(before);
    if layer == "lf_shard" {
        r.layer("lf_shard.max_ops_share", d.max_ops_share(), "ratio", source);
    }
    r.layer(
        &format!("{layer}.hops_p50"),
        d.hops.p50() as f64,
        "count",
        source,
    );
    r.layer(
        &format!("{layer}.cas_retries_p99"),
        d.cas_retries.p99() as f64,
        "count",
        source,
    );
}

/// `lf_map.*` latencies from spans around map handle gets and updates.
pub fn report_map_spans(get_ns: &mut [u32], update_ns: &mut [u32], source: &str, r: &mut Report) {
    get_ns.sort_unstable();
    update_ns.sort_unstable();
    r.layer("lf_map.get_ns_p50", quantile(get_ns, 0.5), "ns", source);
    r.layer("lf_map.get_ns_p99", quantile(get_ns, 0.99), "ns", source);
    r.layer(
        "lf_map.update_ns_p50",
        quantile(update_ns, 0.5),
        "ns",
        source,
    );
}

/// `lf_async.*` from two `ServiceSnapshot`s.
pub fn report_service(
    after: &lf_async::ServiceSnapshot,
    before: &lf_async::ServiceSnapshot,
    source: &str,
    r: &mut Report,
) {
    let delta = |a: &Histogram, b: &Histogram| a.clone() - b.clone();
    let e2c = delta(
        &after.enqueue_to_complete_ns,
        &before.enqueue_to_complete_ns,
    );
    r.layer("lf_async.e2c_ns_p50", e2c.p50() as f64, "ns", source);
    r.layer("lf_async.e2c_ns_p99", e2c.p99() as f64, "ns", source);
    let batch = delta(&after.batch_size, &before.batch_size);
    r.layer(
        "lf_async.batch_size_p50",
        batch.p50() as f64,
        "count",
        source,
    );
    let depth = delta(&after.queue_depth, &before.queue_depth);
    r.layer(
        "lf_async.queue_depth_p99",
        depth.p99() as f64,
        "count",
        source,
    );
}

/// `lf_server.cmds_per_read_p50` from two `ServerSnapshot`s.
pub fn report_server(
    after: &lf_server::ServerSnapshot,
    before: &lf_server::ServerSnapshot,
    source: &str,
    r: &mut Report,
) {
    let depth = after.pipeline_depth.clone() - before.pipeline_depth.clone();
    r.layer(
        "lf_server.cmds_per_read_p50",
        depth.p50() as f64,
        "count",
        source,
    );
}

/// `bench.trace_overhead_pct`: how much slower the traced windows ran
/// than the untraced ones they alternate with.
pub fn trace_overhead(windows: &[Window], plan: &Plan, r: &mut Report) {
    let traced = plan
        .segments
        .iter()
        .filter(|s| s.measured)
        .map(|s| s.traced);
    let thr = |want: bool| {
        let v: Vec<f64> = windows
            .iter()
            .zip(traced.clone())
            .filter(|(_, t)| *t == want)
            .map(|(w, _)| w.throughput())
            .collect();
        median(&v)
    };
    let (plain, with) = (thr(false), thr(true));
    let pct = if plain > 0.0 {
        (plain - with) / plain * 100.0
    } else {
        0.0
    };
    r.layer("bench.trace_overhead_pct", pct, "%", "workload");
}

impl Report {
    /// Record a per-layer metric with where it was measured; a later
    /// record of the same name replaces an earlier one.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, source: &str) {
        self.metric(name, value, unit);
        self.sources.retain(|(n, _)| n != name);
        self.sources.push((name.to_string(), source.to_string()));
    }
}
