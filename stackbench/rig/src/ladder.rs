//! The layer ladder: one seeded op stream replayed, in the workload's
//! shape, through each layer's public entry point in turn —
//!
//! 1. `core`: an `lf_core::SkipList` handle;
//! 2. `shard`: a `ShardedSkipList` handle;
//! 3. `map`: an `lf_map::BucketMap` handle (beside the skip-list rungs);
//! 4. `async`: `lf_async::Service` futures driven by `lf_sched::rt`;
//! 5. `socket`: `lf_server` over loopback.
//!
//! Each rung starts from the workload's prefill (rungs 2, 4 and 5 share
//! one structure, so each continues where the one before stopped), and
//! every outcome is checked against an exact model. The difference in
//! ns/op between adjacent skip-list rungs is the upper layer's self
//! time. Spans carry the op index and are written out at the end.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use lf_async::{LaneFuture, OpFuture, Request, Response};
use lf_core::SkipList;
use lf_map::BucketMap;
use lf_reclaim::{Ebr, Reclaim};
use lf_sched::rt;

use crate::dict::{Dict, PartStats};
use crate::gen::{key_bytes, value_bytes, Inputs, Kind, Op};
use crate::probe::{report_map_spans, report_parts, report_server, report_service, Global};
use crate::stats::{ns32, quantile, Report};
use crate::wire::{
    apply_dict, prefill, report_spans, Backend, Bytes, Client, Model, Outcome, Stack, Tallies,
};

/// Buckets of the map rung (the `embed-hashmap-read` structure).
pub const MAP_BUCKETS: usize = 2048;

const RUNGS: [&str; 5] = ["core", "shard", "map", "async", "socket"];

/// One timed call (or pipeline) on a rung.
struct Span {
    rung: u8,
    op: u32,
    count: u32,
    start_ns: u64,
    dur_ns: u32,
}

struct Ladder<'a> {
    ops: &'a [Op],
    batch: usize,
    epoch: Instant,
    spans: Vec<Span>,
    wrong: [u64; 5],
    ns_per_op: [f64; 5],
}

impl Ladder<'_> {
    fn span(&mut self, rung: usize, op: usize, count: usize, t0: Instant, t1: Instant) {
        self.spans.push(Span {
            rung: rung as u8,
            op: op as u32,
            count: count as u32,
            start_ns: (t0 - self.epoch).as_nanos() as u64,
            dur_ns: ns32((t1 - t0).as_nanos()),
        });
    }

    /// Replay through a synchronous handle, one span per call; returns
    /// the per-op durations.
    fn sync_rung<D: Dict<Bytes, Bytes>>(
        &mut self,
        rung: usize,
        h: &D,
        model: &mut Model,
    ) -> Vec<u32> {
        let mut durs = Vec::with_capacity(self.ops.len());
        let start = Instant::now();
        for (i, &op) in self.ops.iter().enumerate() {
            let t0 = Instant::now();
            let ok = apply_dict(h, op, model);
            let t1 = Instant::now();
            self.wrong[rung] += u64::from(!ok);
            self.span(rung, i, 1, t0, t1);
            durs.push(ns32((t1 - t0).as_nanos()));
        }
        self.ns_per_op[rung] = start.elapsed().as_nanos() as f64 / self.ops.len() as f64;
        durs
    }

    /// Replay through service futures in the workload's shape: every
    /// future of a batch is driven until its request is in its ring,
    /// then all are awaited in order — what a connection thread does
    /// with one pipelined read.
    fn async_rung(&mut self, stack: &Stack, model: &mut Model) {
        let rung = 3;
        let service = &stack.service;
        let start = Instant::now();
        for (c, chunk) in self.ops.chunks(self.batch).enumerate() {
            let t0 = Instant::now();
            let mut pending: Vec<(Result<_, OpFuture<Backend>>, Op, _)> =
                Vec::with_capacity(chunk.len());
            for &op in chunk {
                let (expect, seq) = model.step(op);
                let key = key_bytes(op.key).to_vec();
                let req = match op.kind {
                    Kind::Get => Request::Get(key),
                    Kind::Put => Request::Upsert(key, value_bytes(seq).to_vec()),
                    Kind::Del => Request::Remove(key),
                };
                let mut fut = service.op(req);
                let early = rt::block_on_until(&mut fut, LaneFuture::is_enqueued);
                pending.push((early.ok_or(fut), op, expect));
            }
            for (state, op, expect) in pending {
                let res = match state {
                    Ok(done) => done,
                    Err(fut) => rt::block_on(fut),
                };
                let ok = match (op.kind, &res) {
                    (Kind::Get, Ok(Response::Value(v))) => {
                        expect.admits(&Outcome::Value(v.as_deref()))
                    }
                    (Kind::Put, Ok(Response::Inserted(b))) => expect.admits(&Outcome::Stored(*b)),
                    (Kind::Del, Ok(Response::Removed(v))) => {
                        expect.admits(&Outcome::Removed(v.is_some()))
                    }
                    _ => false,
                };
                self.wrong[rung] += u64::from(!ok);
            }
            self.span(rung, c * self.batch, chunk.len(), t0, Instant::now());
        }
        self.ns_per_op[rung] = start.elapsed().as_nanos() as f64 / self.ops.len() as f64;
    }

    fn socket_rung(
        &mut self,
        stack: &Stack,
        model: &mut Model,
        r: &mut Report,
    ) -> Vec<crate::wire::PipeSpan> {
        let rung = 4;
        let mut client = Client::connect(stack.addr());
        let mut t = Tallies::default();
        let mut pipes = Vec::new();
        let srv0 = stack.server_snapshot();
        let start = Instant::now();
        for (c, chunk) in self.ops.chunks(self.batch).enumerate() {
            let t0 = Instant::now();
            match client.pipeline(chunk, model, &mut t, None) {
                Ok(span) => pipes.push(span),
                Err(e) => {
                    r.check(false, || format!("ladder socket rung: {e}"));
                    break;
                }
            }
            self.span(rung, c * self.batch, chunk.len(), t0, Instant::now());
        }
        self.ns_per_op[rung] = start.elapsed().as_nanos() as f64 / self.ops.len() as f64;
        self.wrong[rung] = t.wrong + (t.sent() - t.ok);
        for p in t.against(&stack.server_snapshot(), &srv0) {
            r.check(false, || format!("ladder socket rung: {p}"));
        }
        pipes
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "rung,op,count,start_ns,dur_ns")?;
        for s in &self.spans {
            writeln!(
                f,
                "{},{},{},{},{}",
                RUNGS[s.rung as usize], s.op, s.count, s.start_ns, s.dur_ns
            )?;
        }
        f.flush()
    }
}

/// Replay `n` ops of the first client's stream through every rung, in
/// pipelines of `batch`, and report per-layer figures with the source
/// `ladder:<rung>`. Spans go to `spans_out` when given.
pub fn run(inputs: &Inputs, batch: usize, n: usize, spans_out: Option<&Path>) -> Report {
    let mut r = Report::default();
    let ops = &inputs.streams[0][..n.min(inputs.streams[0].len())];
    let mut l = Ladder {
        ops,
        batch,
        epoch: Instant::now(),
        spans: Vec::with_capacity(ops.len() * 3 + 2 * ops.len() / batch + 2),
        wrong: [0; 5],
        ns_per_op: [0.0; 5],
    };
    let fresh = Model::prefilled(inputs.space, &inputs.prefill);

    // core: the raw skip list.
    {
        let list: SkipList<Bytes, Bytes> = SkipList::new();
        let h = list.handle();
        prefill(&h, &inputs.prefill);
        let g0 = Global::now();
        let mut durs = l.sync_rung(0, &h, &mut fresh.clone());
        let peak = Ebr::gauge(list.domain()).peak_unreclaimed();
        Global::now().report_since(&g0, ops.len() as u64, peak, "ladder:core", &mut r);
        durs.sort_unstable();
        r.layer(
            "lf_core.op_ns_p50",
            quantile(&durs, 0.5),
            "ns",
            "ladder:core",
        );
        r.layer(
            "lf_core.op_ns_p99",
            quantile(&durs, 0.99),
            "ns",
            "ladder:core",
        );
    }

    // map: the bucketed hash map.
    {
        let map: BucketMap<Bytes, Bytes> = BucketMap::new(MAP_BUCKETS);
        let h = map.handle();
        prefill(&h, &inputs.prefill);
        let p0 = PartStats::of_buckets(&map.snapshot());
        let durs = l.sync_rung(2, &h, &mut fresh.clone());
        report_parts(
            "lf_map",
            &PartStats::of_buckets(&map.snapshot()),
            &p0,
            "ladder:map",
            &mut r,
        );
        let durs_of = |gets: bool| -> Vec<u32> {
            let ops = durs.iter().zip(ops);
            ops.filter(|(_, op)| (op.kind == Kind::Get) == gets)
                .map(|(&d, _)| d)
                .collect()
        };
        report_map_spans(
            &mut durs_of(true),
            &mut durs_of(false),
            "ladder:map",
            &mut r,
        );
    }

    // shard → async → socket: one served structure, one model.
    {
        let stack = Stack::start(&inputs.prefill);
        let mut model = fresh;
        let p0 = PartStats::of_shards(&stack.service.backend().snapshot());
        l.sync_rung(1, &stack.service.backend().handle(), &mut model);
        report_parts(
            "lf_shard",
            &PartStats::of_shards(&stack.service.backend().snapshot()),
            &p0,
            "ladder:shard",
            &mut r,
        );
        l.async_rung(&stack, &mut model);
        let (srv0, svc0) = (stack.server_snapshot(), stack.service.metrics());
        let pipes = l.socket_rung(&stack, &mut model, &mut r);
        report_service(&stack.service.metrics(), &svc0, "ladder:socket", &mut r);
        report_server(&stack.server_snapshot(), &srv0, "ladder:socket", &mut r);
        report_spans(&pipes, "ladder:socket", &mut r);
    }

    let ns = l.ns_per_op;
    r.layer("lf_shard.self_ns", ns[1] - ns[0], "ns", "ladder:shard-core");
    r.layer(
        "lf_async.self_ns",
        ns[3] - ns[1],
        "ns",
        "ladder:async-shard",
    );
    r.layer(
        "lf_server.self_ns",
        ns[4] - ns[3],
        "ns",
        "ladder:socket-async",
    );
    for (rung, w) in RUNGS.iter().zip(l.wrong) {
        r.check(w == 0, || {
            format!("ladder {rung} rung: {w} outcomes disagree with the model")
        });
    }
    for (rung, v) in RUNGS.iter().zip(ns) {
        r.size(&format!("ladder_{rung}_ns_per_op"), format!("{v:.1}"));
    }
    r.size("ladder_ops", ops.len());
    r.size("ladder_batch", batch);
    if let Some(path) = spans_out {
        if let Err(e) = l.write(path) {
            r.check(false, || {
                format!("writing spans to {}: {e}", path.display())
            });
        }
    }
    r
}
