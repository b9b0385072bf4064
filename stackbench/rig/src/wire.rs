//! The served stack over loopback: `lf-server` in front of an `lf-async`
//! service over a `ShardedSkipList`, a RESP client that checks every
//! reply against an exact model, and the two wire workloads.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lf_async::{Service, ServiceBuilder};
use lf_reclaim::{Ebr, Reclaim};
use lf_server::resp::{self, Reply};
use lf_server::{Server, ServerBuilder};
use lf_shard::ShardedSkipList;

use crate::dict::{Dict, PartStats};
use crate::gen::{key_bytes, value_bytes, Inputs, Kind, Op};
use crate::probe::{report_parts, report_server, report_service, trace_overhead, Global};
use crate::stats::{
    median_setup, ns32, peak_rss_mb, quantile, summarize, Report, Reservoir, Window,
};
use crate::{Args, Plan};

pub type Bytes = Vec<u8>;
pub type Backend = ShardedSkipList<Bytes, Bytes>;

/// Shards under the service: `ShardedBuilder`'s default for its two
/// lane workers.
const SHARDS: usize = 2;

/// Model state of a key: absent, or the sequence number of its value.
const ABSENT: u64 = 0;
/// A key whose last write was refused, so its state is not known.
const UNKNOWN: u64 = u64::MAX;

/// The exact contents the served structure must hold. One connection
/// and per-key lane affinity make every reply predictable.
#[derive(Clone)]
pub struct Model {
    state: Vec<u64>,
    seq: u64,
}

impl Model {
    /// The prefill: the `i`-th key inserted holds sequence `i + 1`.
    pub fn prefilled(space: u32, prefill: &[u32]) -> Model {
        let mut state = vec![ABSENT; space as usize];
        for (i, &k) in prefill.iter().enumerate() {
            state[k as usize] = i as u64 + 1;
        }
        Model {
            state,
            seq: prefill.len() as u64,
        }
    }

    /// Keys present, or `None` if a refused write left one unknown.
    pub fn present(&self) -> Option<usize> {
        let mut n = 0;
        for &s in &self.state {
            if s == UNKNOWN {
                return None;
            }
            n += usize::from(s != ABSENT);
        }
        Some(n)
    }

    /// Advance the model past `op`; returns what its reply must be and,
    /// for a put, the value to write.
    pub fn step(&mut self, op: Op) -> (Expect, u64) {
        let s = &mut self.state[op.key as usize];
        match op.kind {
            Kind::Get => (
                if *s == UNKNOWN {
                    Expect::Any
                } else {
                    Expect::Value(*s)
                },
                0,
            ),
            Kind::Put => {
                self.seq += 1;
                *s = self.seq;
                (Expect::Stored, self.seq)
            }
            Kind::Del => {
                let e = if *s == UNKNOWN {
                    Expect::Any
                } else {
                    Expect::Removed(*s != ABSENT)
                };
                *s = ABSENT;
                (e, 0)
            }
        }
    }

    fn forget(&mut self, key: u32) {
        self.state[key as usize] = UNKNOWN;
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Expect {
    /// A get: the value's sequence number, or [`ABSENT`].
    Value(u64),
    Stored,
    Removed(bool),
    Any,
}

/// What an op returned, from whichever rung served it.
pub enum Outcome<'a> {
    Value(Option<&'a [u8]>),
    Stored(bool),
    Removed(bool),
}

impl Expect {
    pub fn admits(self, got: &Outcome<'_>) -> bool {
        match (self, got) {
            (Expect::Any, _) => true,
            (Expect::Value(ABSENT), Outcome::Value(v)) => v.is_none(),
            (Expect::Value(seq), Outcome::Value(v)) => *v == Some(&value_bytes(seq)[..]),
            (Expect::Stored, Outcome::Stored(ok)) => *ok,
            (Expect::Removed(was), Outcome::Removed(did)) => was == *did,
            _ => false,
        }
    }
}

/// Apply `op` to an in-process handle the way the server would serve
/// it, returning whether the outcome matched the model.
pub fn apply_dict<D: Dict<Bytes, Bytes>>(h: &D, op: Op, model: &mut Model) -> bool {
    let (expect, seq) = model.step(op);
    let key = key_bytes(op.key).to_vec();
    match op.kind {
        Kind::Get => expect.admits(&Outcome::Value(h.get(&key).as_deref())),
        Kind::Put => expect.admits(&Outcome::Stored(h.upsert(key, value_bytes(seq).to_vec()))),
        Kind::Del => expect.admits(&Outcome::Removed(h.remove(&key).is_some())),
    }
}

/// Insert the prefill keys into a byte-keyed structure, the `i`-th with
/// value sequence `i + 1` (see [`Model::prefilled`]).
pub fn prefill<D: Dict<Bytes, Bytes>>(h: &D, keys: &[u32]) {
    for (i, &k) in keys.iter().enumerate() {
        h.insert(key_bytes(k).to_vec(), value_bytes(i as u64 + 1).to_vec());
    }
}

/// The running stack: service and server over a prefilled structure.
pub struct Stack {
    pub service: Arc<Service<Backend>>,
    server: Option<Server<Backend>>,
}

impl Stack {
    /// Prefill a structure, then start `ServiceBuilder`'s defaults (2
    /// lane workers, `Block`, 1024-deep lanes, batch_max 64) and
    /// `ServerBuilder`'s defaults (fixed batch, no controller) on it —
    /// what `ShardedBuilder::new().build()` and `ServerBuilder::new()`
    /// give, with the prefill done before the workers start.
    pub fn start(keys: &[u32]) -> Stack {
        let backend = Backend::new(SHARDS);
        prefill(&backend.handle(), keys);
        let service = Arc::new(ServiceBuilder::new().build(backend));
        let server = ServerBuilder::new()
            .serve(Arc::clone(&service))
            .expect("bind a loopback port");
        Stack {
            service,
            server: Some(server),
        }
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").local_addr()
    }

    pub fn server_snapshot(&self) -> lf_server::ServerSnapshot {
        self.server
            .as_ref()
            .expect("server running")
            .metrics()
            .snapshot()
    }

    pub fn peak_unreclaimed(&self) -> u64 {
        Ebr::gauge(self.service.backend().domain()).peak_unreclaimed()
    }

    /// Walk the served structure in key order: the keys seen, or the
    /// first out-of-order key.
    pub fn ordered_walk(&self) -> Result<usize, String> {
        let mut prev: Option<Bytes> = None;
        let mut bad = None;
        let n = self.service.backend().handle().range(.., |k, _| {
            if prev.as_ref().is_some_and(|p| p >= k) {
                bad = Some(format!("ordered scan: {k:?} after {prev:?}"));
                return false;
            }
            prev = Some(k.clone());
            true
        });
        bad.map_or(Ok(n), Err)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.stop();
        }
        self.service.shutdown();
    }
}

/// Client-side reply counts, in the server's outcome classes.
#[derive(Default, Clone, Copy, Debug)]
pub struct Tallies {
    pub ok: u64,
    pub shed: u64,
    pub rejected: u64,
    pub errors: u64,
    /// Replies of the right class whose content the model refutes.
    pub wrong: u64,
}

impl Tallies {
    pub fn sent(&self) -> u64 {
        self.ok + self.shed + self.rejected + self.errors
    }

    /// Problems found comparing these tallies with the server's own
    /// counter deltas over the same commands.
    pub fn against(
        &self,
        after: &lf_server::ServerSnapshot,
        before: &lf_server::ServerSnapshot,
    ) -> Vec<String> {
        let d = |a: u64, b: u64| a - b;
        let server = [
            ("commands", d(after.commands, before.commands), self.sent()),
            ("ok", d(after.ok, before.ok), self.ok),
            ("shed", d(after.shed, before.shed), self.shed),
            (
                "rejected",
                d(after.rejected, before.rejected),
                self.rejected,
            ),
            ("errors", d(after.errors, before.errors), self.errors),
        ];
        let mut out: Vec<String> = server
            .iter()
            .filter(|(_, s, c)| s != c)
            .map(|(what, s, c)| format!("server {what} delta {s} != client tally {c}"))
            .collect();
        let parts = server[1].1 + server[2].1 + server[3].1 + server[4].1;
        if server[0].1 != parts {
            out.push(format!(
                "server commands {} != ok+shed+rejected+errors {parts}",
                server[0].1
            ));
        }
        out
    }
}

/// Client-side spans of one pipeline, in nanoseconds.
#[derive(Clone, Copy)]
pub struct PipeSpan {
    /// The `write` of the whole pipeline.
    pub write: u32,
    /// From the end of the write to the first reply parsed.
    pub first_reply: u32,
    /// From the first reply to the last.
    pub drain: u32,
}

/// One RESP connection that checks each reply against the model.
pub struct Client {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    chunk: Box<[u8]>,
    expect: Vec<(Expect, Op)>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        // A wedged server fails the run instead of hanging it.
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("set read timeout");
        Client {
            stream,
            out: Vec::with_capacity(4096),
            inbuf: Vec::with_capacity(64 << 10),
            chunk: vec![0u8; 64 << 10].into_boxed_slice(),
            expect: Vec::new(),
        }
    }

    /// Send `ops` as one write and read every reply. `lat` receives one
    /// sample per reply: from the start of the write to its parse.
    pub fn pipeline(
        &mut self,
        ops: &[Op],
        model: &mut Model,
        t: &mut Tallies,
        mut lat: Option<&mut Reservoir>,
    ) -> Result<PipeSpan, String> {
        self.out.clear();
        self.expect.clear();
        for &op in ops {
            let (e, seq) = model.step(op);
            let key = key_bytes(op.key);
            match op.kind {
                Kind::Get => resp::write_command(&mut self.out, &[b"GET", &key]),
                Kind::Put => resp::write_command(&mut self.out, &[b"SET", &key, &value_bytes(seq)]),
                Kind::Del => resp::write_command(&mut self.out, &[b"DEL", &key]),
            }
            self.expect.push((e, op));
        }
        let t0 = Instant::now();
        self.stream
            .write_all(&self.out)
            .map_err(|e| format!("write: {e}"))?;
        let t1 = Instant::now();
        let mut first = None;
        let mut pos = 0;
        let mut done = 0;
        while done < ops.len() {
            match resp::parse_reply(&self.inbuf[pos..]) {
                Ok(Some((reply, used))) => {
                    pos += used;
                    let now = Instant::now();
                    first.get_or_insert(now);
                    if let Some(l) = lat.as_deref_mut() {
                        l.push(ns32((now - t0).as_nanos()));
                    }
                    let (e, op) = self.expect[done];
                    classify(&reply, e, op, model, t);
                    done += 1;
                }
                Ok(None) => {
                    self.inbuf.drain(..pos);
                    pos = 0;
                    let n = self
                        .stream
                        .read(&mut self.chunk)
                        .map_err(|e| format!("read: {e}"))?;
                    if n == 0 {
                        return Err("server closed the connection".into());
                    }
                    self.inbuf.extend_from_slice(&self.chunk[..n]);
                }
                Err(e) => return Err(format!("reply: {e}")),
            }
        }
        self.inbuf.drain(..pos);
        let end = Instant::now();
        let first = first.unwrap_or(end);
        Ok(PipeSpan {
            write: ns32((t1 - t0).as_nanos()),
            first_reply: ns32(first.saturating_duration_since(t1).as_nanos()),
            drain: ns32((end - first).as_nanos()),
        })
    }
}

/// Count one reply in its outcome class and check its content.
fn classify(reply: &Reply, e: Expect, op: Op, model: &mut Model, t: &mut Tallies) {
    if let Reply::Error(msg) = reply {
        if msg.starts_with(b"BUSY shed") {
            t.shed += 1;
        } else if msg.starts_with(b"BUSY rejected") {
            t.rejected += 1;
        } else {
            t.errors += 1;
        }
        if op.kind != Kind::Get {
            model.forget(op.key);
        }
        return;
    }
    t.ok += 1;
    let got = match (op.kind, reply) {
        (Kind::Get, Reply::Bulk(v)) => Some(Outcome::Value(v.as_deref())),
        (Kind::Put, Reply::Simple(s)) => Some(Outcome::Stored(s == b"OK")),
        (Kind::Del, Reply::Int(n)) => Some(Outcome::Removed(*n == 1)),
        _ => None,
    };
    if !got.is_some_and(|g| e.admits(&g)) {
        t.wrong += 1;
        model.forget(op.key);
    }
}

/// Run a wire workload: `batch` commands per write (1 = one in flight).
pub fn run(args: &Args, inputs: &Inputs, batch: usize) -> Report {
    let mut r = Report::default();
    let ((mut client, mut model, stack), setup_s) = median_setup(|| {
        let stack = Stack::start(&inputs.prefill);
        let client = Client::connect(stack.addr());
        (
            client,
            Model::prefilled(inputs.space, &inputs.prefill),
            stack,
        )
    });

    let plan = Plan::new(args);
    let ops = &inputs.streams[0];
    let (srv0, svc0, parts0, g0) = (
        stack.server_snapshot(),
        stack.service.metrics(),
        PartStats::of_shards(&stack.service.backend().snapshot()),
        Global::now(),
    );
    let mut t = Tallies::default();
    let mut windows: Vec<Window> = (0..plan.windows()).map(|i| Window::new(i as u64)).collect();
    let mut spans: Vec<PipeSpan> = Vec::new();
    let start = Instant::now();
    let steal = std::thread::scope(|sc| {
        let sampler = sc.spawn(|| plan.host_steal(start));
        let mut next = 0usize;
        let mut seg_start = start;
        let mut wi = 0;
        'run: for seg in &plan.segments {
            let end = start + seg.end;
            loop {
                if next + batch > ops.len() {
                    next = 0;
                }
                let chunk = &ops[next..next + batch];
                next += batch;
                let before = t;
                let lat = seg.measured.then(|| &mut windows[wi].lat);
                match client.pipeline(chunk, &mut model, &mut t, lat) {
                    Ok(span) => {
                        if seg.traced {
                            spans.push(span);
                        }
                    }
                    Err(e) => {
                        r.check(false, || format!("connection failed: {e}"));
                        break 'run;
                    }
                }
                if seg.measured {
                    let ok = (t.ok - before.ok) - (t.wrong - before.wrong);
                    r.attempted += batch as u64;
                    r.failed += batch as u64 - ok;
                    windows[wi].ok += ok;
                }
                let now = Instant::now();
                if now >= end {
                    if seg.measured {
                        windows[wi].secs = (now - seg_start).as_secs_f64();
                        wi += 1;
                    }
                    seg_start = now;
                    break;
                }
            }
        }
        sampler.join().expect("steal sampler panicked")
    });
    let peak_rss = peak_rss_mb();
    for (w, s) in windows.iter_mut().zip(steal) {
        w.steal = s;
    }

    // Every reply is accounted for by the server's own counters.
    let srv1 = stack.server_snapshot();
    let mut client_tally = t;
    if args.fault {
        client_tally.ok += 1;
    }
    for p in client_tally.against(&srv1, &srv0) {
        r.check(false, || p);
    }
    r.check(t.wrong == 0, || {
        format!("{} replies disagree with the model", t.wrong)
    });
    r.check(t.sent() == t.ok, || {
        format!("{} commands refused or failed", t.sent() - t.ok)
    });
    if let Some(n) = model.present() {
        let len = stack.service.len();
        r.check(len == n, || format!("len {len} != model's {n} keys"));
        match stack.ordered_walk() {
            Ok(seen) => r.check(seen == n, || {
                format!("ordered scan saw {seen} keys, model has {n}")
            }),
            Err(e) => r.check(false, || e),
        }
    }

    if args.trace {
        let source = "workload";
        let sent = t.sent();
        Global::now().report_since(&g0, sent, stack.peak_unreclaimed(), source, &mut r);
        report_parts(
            "lf_shard",
            &PartStats::of_shards(&stack.service.backend().snapshot()),
            &parts0,
            source,
            &mut r,
        );
        report_service(&stack.service.metrics(), &svc0, source, &mut r);
        report_server(&srv1, &srv0, source, &mut r);
        report_spans(&spans, source, &mut r);
        trace_overhead(&windows, &plan, &mut r);
    } else {
        let s = summarize(&mut windows);
        r.metric("throughput_ops_s", s.throughput, "1/s");
        r.metric("latency_p50_us", s.p50_us, "us");
        r.metric("latency_p99_us", s.p99_us, "us");
        r.samples = s.samples;
        r.size("windows_chosen", s.chosen);
        r.size("windows_ops_s/p50_us/p99_us/steal", s.per_window);
        r.metric("setup_s", setup_s, "s");
        r.metric("peak_rss_mb", peak_rss, "MB");
    }
    r.size("pipeline", batch);
    r.size("connections", 1);
    drop(client);
    drop(stack);
    r
}

/// `lf_server.*` client-side span medians.
pub fn report_spans(spans: &[PipeSpan], source: &str, r: &mut Report) {
    let p50 = |f: fn(&PipeSpan) -> u32| {
        let mut v: Vec<u32> = spans.iter().map(f).collect();
        v.sort_unstable();
        quantile(&v, 0.5)
    };
    r.layer("lf_server.write_ns_p50", p50(|s| s.write), "ns", source);
    r.layer(
        "lf_server.first_reply_ns_p50",
        p50(|s| s.first_reply),
        "ns",
        source,
    );
    r.layer("lf_server.drain_ns_p50", p50(|s| s.drain), "ns", source);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(commands: u64, ok: u64, errors: u64) -> lf_server::ServerSnapshot {
        let mut s = lf_server::ServerMetrics::new().snapshot();
        (s.commands, s.ok, s.errors) = (commands, ok, errors);
        s
    }

    #[test]
    fn tallies_must_match_the_server_counters() {
        let before = snapshot(10, 9, 1);
        let after = snapshot(110, 108, 2);
        let good = Tallies {
            ok: 99,
            errors: 1,
            ..Tallies::default()
        };
        assert!(good.against(&after, &before).is_empty());
        let corrupt = Tallies { ok: 100, ..good };
        let found = corrupt.against(&after, &before);
        assert!(
            found
                .iter()
                .any(|p| p.contains("ok delta 99 != client tally 100")),
            "{found:?}"
        );
        let broken_identity = snapshot(111, 108, 2);
        assert!(good
            .against(&broken_identity, &before)
            .iter()
            .any(|p| p.contains("ok+shed+rejected+errors")));
    }

    #[test]
    fn model_predicts_replies_and_forgets_refused_writes() {
        let mut m = Model::prefilled(4, &[2]);
        let get = |key| Op {
            kind: Kind::Get,
            key,
        };
        assert!(matches!(m.step(get(2)).0, Expect::Value(1)));
        assert!(matches!(
            m.step(Op {
                kind: Kind::Put,
                key: 0
            }),
            (Expect::Stored, 2)
        ));
        assert!(m
            .step(get(0))
            .0
            .admits(&Outcome::Value(Some(&value_bytes(2)))));
        assert!(!m.step(get(0)).0.admits(&Outcome::Value(None)));
        assert!(matches!(
            m.step(Op {
                kind: Kind::Del,
                key: 2
            })
            .0,
            Expect::Removed(true)
        ));
        assert_eq!(m.present(), Some(1));
        m.forget(3);
        assert_eq!(m.present(), None);
        assert!(matches!(m.step(get(3)).0, Expect::Any));
    }
}
