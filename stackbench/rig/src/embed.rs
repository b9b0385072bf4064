//! The in-process workloads: client threads each drive their own handle
//! on one shared structure, with no wire and no ring in between.

use std::time::{Duration, Instant};

use lf_map::BucketMap;
use lf_reclaim::{Ebr, Reclaim};
use lf_shard::ShardedSkipList;

use crate::dict::{Dict, PartStats};
use crate::gen::{value_of, Inputs, Kind, Op};
use crate::probe::{report_map_spans, report_parts, trace_overhead, Global};
use crate::stats::{median_setup, ns32, peak_rss_mb, summarize, Report, Window};
use crate::{Args, Plan};

/// Client threads of the in-process workloads.
pub const THREADS: usize = 2;
/// Untraced runs time one op in this many.
const SAMPLE_EVERY: u64 = 16;

/// A structure the in-process workloads can drive.
pub trait Store: Sync + Sized {
    type H<'a>: Dict<u64, u64>
    where
        Self: 'a;
    /// The crate whose statistics [`Store::parts`] reads.
    const LAYER: &'static str;
    fn handle(&self) -> Self::H<'_>;
    fn len(&self) -> usize;
    fn parts(&self) -> PartStats;
    fn peak_unreclaimed(&self) -> u64;
    /// Walk the final contents; the number of keys seen, or what is
    /// wrong with them.
    fn walk(&self) -> Result<usize, String>;
}

impl Store for ShardedSkipList<u64, u64> {
    type H<'a> = lf_shard::ShardedHandle<'a, u64, u64>;
    const LAYER: &'static str = "lf_shard";
    fn handle(&self) -> Self::H<'_> {
        ShardedSkipList::handle(self)
    }
    fn len(&self) -> usize {
        ShardedSkipList::len(self)
    }
    fn parts(&self) -> PartStats {
        PartStats::of_shards(&self.snapshot())
    }
    fn peak_unreclaimed(&self) -> u64 {
        Ebr::gauge(self.domain()).peak_unreclaimed()
    }
    fn walk(&self) -> Result<usize, String> {
        let mut prev: Option<u64> = None;
        let mut bad = None;
        let n = self.handle().range(.., |k, v| {
            if prev.is_some_and(|p| p >= *k) || *v != value_of(*k as u32) {
                bad = Some(format!(
                    "ordered scan: key {k} after {prev:?} (value ok: {})",
                    *v == value_of(*k as u32)
                ));
                return false;
            }
            prev = Some(*k);
            true
        });
        bad.map_or(Ok(n), Err)
    }
}

impl Store for BucketMap<u64, u64> {
    type H<'a> = lf_map::BucketMapHandle<'a, u64, u64>;
    const LAYER: &'static str = "lf_map";
    fn handle(&self) -> Self::H<'_> {
        BucketMap::handle(self)
    }
    fn len(&self) -> usize {
        BucketMap::len(self)
    }
    fn parts(&self) -> PartStats {
        PartStats::of_buckets(&self.snapshot())
    }
    fn peak_unreclaimed(&self) -> u64 {
        Ebr::gauge(self.domain()).peak_unreclaimed()
    }
    fn walk(&self) -> Result<usize, String> {
        let mut seen = std::collections::HashSet::new();
        for (k, v) in self.handle().iter() {
            if !seen.insert(k) || v != value_of(k as u32) {
                return Err(format!(
                    "chain walk: key {k} repeated or holds a wrong value"
                ));
            }
        }
        Ok(seen.len())
    }
}

/// One client thread's tallies.
struct Tally {
    windows: Vec<Window>,
    attempted: u64,
    failed: u64,
    ops: u64,
    inserted: u64,
    removed: u64,
    get_ns: Vec<u32>,
    update_ns: Vec<u32>,
}

impl Tally {
    fn new(plan: &Plan, thread: usize) -> Tally {
        Tally {
            windows: (0..plan.windows())
                .map(|i| Window::new((thread << 16 | i) as u64))
                .collect(),
            attempted: 0,
            failed: 0,
            ops: 0,
            inserted: 0,
            removed: 0,
            get_ns: Vec::new(),
            update_ns: Vec::new(),
        }
    }

    /// Fold in another client's tallies; window `i` joins window `i`.
    fn absorb(&mut self, t: Tally) {
        for (dst, w) in self.windows.iter_mut().zip(t.windows) {
            dst.absorb(w);
        }
        self.attempted += t.attempted;
        self.failed += t.failed;
        self.ops += t.ops;
        self.inserted += t.inserted;
        self.removed += t.removed;
        self.get_ns.extend(t.get_ns);
        self.update_ns.extend(t.update_ns);
    }
}

/// Apply one op, checking what it returns; `false` if the check failed.
fn apply<D: Dict<u64, u64>>(h: &D, op: Op, t: &mut Tally) -> bool {
    let k = u64::from(op.key);
    match op.kind {
        Kind::Get => h.get(&k).is_none_or(|v| v == value_of(op.key)),
        Kind::Put => {
            t.inserted += u64::from(h.insert(k, value_of(op.key)));
            true
        }
        Kind::Del => match h.remove(&k) {
            Some(v) => {
                t.removed += 1;
                v == value_of(op.key)
            }
            None => true,
        },
    }
}

fn client<D: Dict<u64, u64>>(h: &D, ops: &[Op], plan: &Plan, start: Instant, t: &mut Tally) {
    let mut i = 0usize;
    let mut seg_start = start;
    let mut wi = 0;
    for seg in &plan.segments {
        let end = start + seg.end;
        loop {
            let op = ops[i % ops.len()];
            i += 1;
            let timed = seg.traced || (i as u64).is_multiple_of(SAMPLE_EVERY);
            let t0 = timed.then(Instant::now);
            let ok = apply(h, op, t);
            t.ops += 1;
            if seg.measured {
                t.attempted += 1;
                t.failed += u64::from(!ok);
                t.windows[wi].ok += u64::from(ok);
            }
            if let Some(t0) = t0 {
                let now = Instant::now();
                let ns = ns32((now - t0).as_nanos());
                if seg.measured {
                    t.windows[wi].lat.push(ns);
                    if seg.traced {
                        match op.kind {
                            Kind::Get => t.get_ns.push(ns),
                            _ => t.update_ns.push(ns),
                        }
                    }
                }
                if now >= end {
                    if seg.measured {
                        t.windows[wi].secs = (now - seg_start).as_secs_f64();
                        wi += 1;
                    }
                    seg_start = now;
                    break;
                }
            }
        }
    }
}

/// Run an in-process workload over the structure `build` makes.
pub fn run<S: Store>(args: &Args, inputs: &Inputs, build: impl Fn() -> S) -> Report {
    let mut r = Report::default();
    let prefill = |s: &S| {
        let h = s.handle();
        for &k in &inputs.prefill {
            h.insert(u64::from(k), value_of(k));
        }
    };
    let (store, setup_s) = median_setup(|| {
        let s = build();
        prefill(&s);
        s
    });
    r.check(store.len() == inputs.prefill.len(), || {
        format!(
            "prefill: len {} != {} keys inserted",
            store.len(),
            inputs.prefill.len()
        )
    });

    let plan = Plan::new(args);
    let (parts0, g0) = (store.parts(), Global::now());
    let start = Instant::now() + Duration::from_millis(10);
    let mut steal = Vec::new();
    let tallies: Vec<Tally> = std::thread::scope(|sc| {
        let workers: Vec<_> = inputs
            .streams
            .iter()
            .enumerate()
            .map(|(thread, ops)| {
                let (store, plan) = (&store, &plan);
                sc.spawn(move || {
                    let h = store.handle();
                    let mut t = Tally::new(plan, thread);
                    lf_metrics::prewarm();
                    std::thread::sleep(start.saturating_duration_since(Instant::now()));
                    client(&h, ops, plan, start, &mut t);
                    t
                })
            })
            .collect();
        steal = plan.host_steal(start);
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });

    let peak_rss = peak_rss_mb();

    let mut tallies = tallies.into_iter();
    let mut t = tallies.next().expect("at least one client");
    tallies.for_each(|other| t.absorb(other));
    for (w, s) in t.windows.iter_mut().zip(steal) {
        w.steal = s;
    }
    let failed = t.failed;
    r.attempted = t.attempted;
    r.failed = failed;
    r.check(failed == 0, || {
        format!("{failed} ops returned a wrong value")
    });

    // The final contents must match the successful updates exactly.
    let (inserted, removed) = (t.inserted + u64::from(args.fault), t.removed);
    let expect = inputs.prefill.len() as u64 + inserted - removed;
    r.check(store.len() as u64 == expect, || {
        format!(
            "len {} != prefill {} + inserted {inserted} - removed {removed}",
            store.len(),
            inputs.prefill.len()
        )
    });
    match store.walk() {
        Ok(n) => r.check(n as u64 == expect, || {
            format!("walk saw {n} keys, expected {expect}")
        }),
        Err(e) => r.check(false, || e),
    }

    if args.trace {
        let source = "workload";
        Global::now().report_since(&g0, t.ops, store.peak_unreclaimed(), source, &mut r);
        report_parts(S::LAYER, &store.parts(), &parts0, source, &mut r);
        if S::LAYER == "lf_map" {
            report_map_spans(&mut t.get_ns, &mut t.update_ns, source, &mut r);
        }
        trace_overhead(&t.windows, &plan, &mut r);
    } else {
        let s = summarize(&mut t.windows);
        r.metric("throughput_ops_s", s.throughput, "1/s");
        r.metric("latency_p50_us", s.p50_us, "us");
        r.metric("latency_p99_us", s.p99_us, "us");
        r.samples = s.samples;
        r.size("windows_chosen", s.chosen);
        r.size("windows_ops_s/p50_us/p99_us/steal", s.per_window);
        r.metric("setup_s", setup_s, "s");
        r.metric("peak_rss_mb", peak_rss, "MB");
    }
    r.size("threads", THREADS);
    r
}
