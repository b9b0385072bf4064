//! Loopback end-to-end tests: a real TCP client (the same RESP codec,
//! used from the other side) against a running [`lf_server::Server`].
//!
//! Covers the full command surface in pipelined form, SCAN pagination
//! on the ordered tier and its refusal on the hash tier, backpressure
//! surfacing as `-BUSY` with *exact* accounting (every command sent
//! resolves as exactly one of ok / shed / rejected, client-side tallies
//! equal server-side counters), protocol errors closing the
//! connection, and the gated SHUTDOWN path.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use lf_async::{BackpressurePolicy, ServiceBuilder};
use lf_map::BucketMap;
use lf_server::resp::{self, Reply};
use lf_server::{Bytes, ServerBuilder};

/// A minimal synchronous RESP client over one TCP connection.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    /// Queue one command into the local write buffer (pipelining).
    fn push(&mut self, args: &[&[u8]]) {
        resp::write_command(&mut self.buf, args);
    }

    /// Flush every queued command in one write.
    fn flush(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        self.stream.write_all(&buf).expect("write");
    }

    /// Read exactly `n` replies, in order.
    fn read_replies(&mut self, n: usize) -> Vec<Reply> {
        let mut replies = Vec::with_capacity(n);
        let mut acc: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 8192];
        while replies.len() < n {
            match resp::parse_reply(&acc).expect("well-formed reply") {
                Some((reply, used)) => {
                    acc.drain(..used);
                    replies.push(reply);
                    continue;
                }
                None => {
                    let got = self.stream.read(&mut chunk).expect("read");
                    assert!(got > 0, "EOF after {} of {n} replies", replies.len());
                    acc.extend_from_slice(&chunk[..got]);
                }
            }
        }
        assert!(acc.is_empty(), "trailing bytes after {n} replies");
        replies
    }

    /// One command, one reply.
    fn roundtrip(&mut self, args: &[&[u8]]) -> Reply {
        self.push(args);
        self.flush();
        self.read_replies(1).remove(0)
    }
}

fn simple(s: &str) -> Reply {
    Reply::Simple(s.as_bytes().to_vec())
}

fn bulk(s: &[u8]) -> Reply {
    Reply::Bulk(Some(s.to_vec()))
}

#[test]
fn command_surface_on_ordered_tier() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .build_skiplist::<Bytes, Bytes>(),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    assert_eq!(c.roundtrip(&[b"PING"]), simple("PONG"));
    assert_eq!(c.roundtrip(&[b"PING", b"hello"]), bulk(b"hello"));
    assert_eq!(c.roundtrip(&[b"SET", b"a", b"1"]), simple("OK"));
    assert_eq!(c.roundtrip(&[b"GET", b"a"]), bulk(b"1"));
    // SET is an upsert: same key, new value.
    assert_eq!(c.roundtrip(&[b"SET", b"a", b"2"]), simple("OK"));
    assert_eq!(c.roundtrip(&[b"GET", b"a"]), bulk(b"2"));
    assert_eq!(c.roundtrip(&[b"SET", b"b", b"3"]), simple("OK"));
    assert_eq!(
        c.roundtrip(&[b"EXISTS", b"a", b"b", b"nope"]),
        Reply::Int(2)
    );
    assert_eq!(
        c.roundtrip(&[b"MGET", b"a", b"nope", b"b"]),
        Reply::Array(vec![bulk(b"2"), Reply::Bulk(None), bulk(b"3")])
    );
    assert_eq!(c.roundtrip(&[b"DEL", b"a", b"nope"]), Reply::Int(1));
    assert_eq!(c.roundtrip(&[b"GET", b"a"]), Reply::Bulk(None));
    match c.roundtrip(&[b"INFO"]) {
        Reply::Bulk(Some(text)) => {
            let text = String::from_utf8(text).unwrap();
            assert!(text.contains("# Server"), "{text}");
            assert!(text.contains("lane_batch_max:"), "{text}");
        }
        other => panic!("INFO gave {other:?}"),
    }
    // Unknown commands and bad arity are command errors, not
    // connection errors.
    assert!(matches!(c.roundtrip(&[b"FLUSHALL"]), Reply::Error(_)));
    assert!(matches!(c.roundtrip(&[b"GET"]), Reply::Error(_)));
    assert_eq!(c.roundtrip(&[b"GET", b"b"]), bulk(b"3"));

    // QUIT: +OK, then the server closes.
    assert_eq!(c.roundtrip(&[b"QUIT"]), simple("OK"));
    let mut rest = Vec::new();
    assert_eq!(c.stream.read_to_end(&mut rest).unwrap(), 0);

    server.stop();
    service.shutdown();
}

#[test]
fn scan_paginates_the_ordered_keyspace() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .build_skiplist::<Bytes, Bytes>(),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    let keys: Vec<String> = (0..10).map(|i| format!("k{i}")).collect();
    for k in &keys {
        assert_eq!(c.roundtrip(&[b"SET", k.as_bytes(), b"v"]), simple("OK"));
    }

    let mut cursor = b"0".to_vec();
    let mut seen: Vec<Vec<u8>> = Vec::new();
    let mut pages = 0;
    loop {
        let reply = c.roundtrip(&[b"SCAN", &cursor, b"COUNT", b"4"]);
        let Reply::Array(items) = reply else {
            panic!("SCAN gave {reply:?}");
        };
        assert_eq!(items.len(), 2);
        let Reply::Bulk(Some(next)) = &items[0] else {
            panic!("cursor not a bulk: {items:?}");
        };
        let Reply::Array(page) = &items[1] else {
            panic!("page not an array: {items:?}");
        };
        assert!(page.len() <= 4);
        for item in page {
            let Reply::Bulk(Some(k)) = item else {
                panic!("key not a bulk: {item:?}");
            };
            seen.push(k.clone());
        }
        pages += 1;
        assert!(pages <= 10, "cursor failed to terminate");
        if next == b"0" {
            break;
        }
        cursor = next.clone();
    }
    // Every key, exactly once, in key order (the ordered tier's whole
    // point on the wire).
    let want: Vec<Vec<u8>> = keys.iter().map(|k| k.as_bytes().to_vec()).collect();
    assert_eq!(seen, want);

    server.stop();
    service.shutdown();
}

#[test]
fn scan_refused_on_hash_tier() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .build(BucketMap::<Bytes, Bytes>::default()),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    assert_eq!(c.roundtrip(&[b"SET", b"a", b"1"]), simple("OK"));
    match c.roundtrip(&[b"SCAN", b"0"]) {
        Reply::Error(msg) => {
            let msg = String::from_utf8(msg).unwrap();
            assert!(msg.contains("ordered"), "{msg}");
        }
        other => panic!("SCAN on hash tier gave {other:?}"),
    }
    // The connection survives a refused command.
    assert_eq!(c.roundtrip(&[b"GET", b"a"]), bulk(b"1"));

    server.stop();
    service.shutdown();
}

#[test]
fn pipelined_replies_arrive_in_order() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .build(BucketMap::<Bytes, Bytes>::default()),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    const N: usize = 100;
    for i in 0..N {
        let k = format!("key{i:03}");
        let v = format!("val{i:03}");
        c.push(&[b"SET", k.as_bytes(), v.as_bytes()]);
    }
    for i in 0..N {
        let k = format!("key{i:03}");
        c.push(&[b"GET", k.as_bytes()]);
    }
    c.flush();
    let replies = c.read_replies(2 * N);
    for (i, reply) in replies[..N].iter().enumerate() {
        assert_eq!(*reply, simple("OK"), "SET #{i}");
    }
    for (i, reply) in replies[N..].iter().enumerate() {
        let want = format!("val{i:03}");
        assert_eq!(*reply, bulk(want.as_bytes()), "GET #{i}");
    }

    server.stop();
    service.shutdown();
}

/// Run `total` distinct-key SETs through one connection in pipelined
/// bursts against a deliberately tiny ring, and return the client-side
/// (ok, shed, rejected) tally.
fn hammer(addr: std::net::SocketAddr, total: usize, burst: usize) -> (u64, u64, u64) {
    let mut c = Client::connect(addr);
    let (mut ok, mut shed, mut rejected) = (0u64, 0u64, 0u64);
    let mut sent = 0;
    while sent < total {
        let n = burst.min(total - sent);
        for i in 0..n {
            let k = format!("key-{:06}", sent + i);
            c.push(&[b"SET", k.as_bytes(), b"v"]);
        }
        c.flush();
        for reply in c.read_replies(n) {
            match reply {
                Reply::Simple(s) if s == b"OK" => ok += 1,
                Reply::Error(msg) if msg == b"BUSY shed" => shed += 1,
                Reply::Error(msg) if msg == b"BUSY rejected" => rejected += 1,
                other => panic!("unexpected reply {other:?}"),
            }
        }
        sent += n;
    }
    (ok, shed, rejected)
}

#[test]
fn reject_policy_surfaces_busy_with_exact_accounting() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .queue_capacity(2)
            .batch_max(1)
            .policy(BackpressurePolicy::Reject)
            .build(BucketMap::<Bytes, Bytes>::default()),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();

    const TOTAL: usize = 1024;
    let (ok, shed, rejected) = hammer(server.local_addr(), TOTAL, 64);
    assert_eq!(
        ok + shed + rejected,
        TOTAL as u64,
        "a command went unaccounted"
    );
    assert_eq!(shed, 0, "Reject policy must never shed");
    assert!(
        rejected > 0,
        "64-deep pipelines into a 2-deep ring never rejected"
    );

    // Client-side tallies equal server-side counters: overload is
    // *accounted*, not inferred.
    let snap = server.metrics().snapshot();
    assert_eq!(snap.commands, TOTAL as u64);
    assert_eq!((snap.ok, snap.shed, snap.rejected), (ok, shed, rejected));
    assert!(snap.pipeline_depth.count() > 0);

    server.stop();
    service.shutdown();
}

#[test]
fn shed_policy_surfaces_busy_with_exact_accounting() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .queue_capacity(2)
            .batch_max(1)
            .policy(BackpressurePolicy::Shed)
            .build(BucketMap::<Bytes, Bytes>::default()),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();

    const TOTAL: usize = 1024;
    let (ok, shed, rejected) = hammer(server.local_addr(), TOTAL, 64);
    assert_eq!(
        ok + shed + rejected,
        TOTAL as u64,
        "a command went unaccounted"
    );
    assert_eq!(rejected, 0, "Shed policy must never reject");
    assert!(shed > 0, "64-deep pipelines into a 2-deep ring never shed");

    let snap = server.metrics().snapshot();
    assert_eq!(snap.commands, TOTAL as u64);
    assert_eq!((snap.ok, snap.shed, snap.rejected), (ok, shed, rejected));

    server.stop();
    service.shutdown();
}

/// Read-your-writes through one pipeline: interleaved `SET k i; GET k`
/// pairs on one hot key, where every GET must observe exactly the SET
/// dispatched right before it. The skip-list tier has no lane affinity
/// of its own, so with several workers this only holds if the server
/// pins same-key requests to one lane *and* enqueues them in parse
/// order — the two halves of the pipelining ordering contract.
fn assert_same_key_pipeline_ordered(
    service: Arc<lf_async::AsyncSkipList<Bytes, Bytes>>,
    rounds: usize,
) {
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    for i in 0..rounds {
        let v = format!("v{i:04}");
        c.push(&[b"SET", b"ctr", v.as_bytes()]);
        c.push(&[b"GET", b"ctr"]);
    }
    c.flush();
    let replies = c.read_replies(2 * rounds);
    for (i, pair) in replies.chunks(2).enumerate() {
        assert_eq!(pair[0], simple("OK"), "SET #{i}");
        let want = format!("v{i:04}");
        assert_eq!(pair[1], bulk(want.as_bytes()), "GET #{i} read a stale SET");
    }

    server.stop();
    service.shutdown();
}

#[test]
fn pipelined_same_key_ops_read_their_writes() {
    // Plenty of workers, roomy rings: catches round-robin lane
    // placement splitting a key's ops across lanes.
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(4)
            .build_skiplist::<Bytes, Bytes>(),
    );
    assert_same_key_pipeline_ordered(service, 200);
}

#[test]
fn pipelined_same_key_ops_read_their_writes_under_block() {
    // A 2-deep ring with Block policy forces submissions to bounce off
    // full rings constantly: catches a bounced op being re-submitted
    // *after* younger pipelined ops already enqueued.
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .queue_capacity(2)
            .batch_max(1)
            .policy(BackpressurePolicy::Block)
            .build_skiplist::<Bytes, Bytes>(),
    );
    assert_same_key_pipeline_ordered(service, 400);
}

#[test]
fn busy_multi_key_commands_keep_exact_accounting() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .queue_capacity(2)
            .batch_max(1)
            .policy(BackpressurePolicy::Reject)
            .build(BucketMap::<Bytes, Bytes>::default()),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    for i in 0..8 {
        let k = format!("mk{i}");
        assert!(matches!(
            c.roundtrip(&[b"SET", k.as_bytes(), b"v"]),
            Reply::Simple(_) | Reply::Error(_)
        ));
    }

    // Deep pipelines of multi-key commands into a 2-deep ring: some
    // commands go busy, every one gets exactly one reply, and the
    // connection always survives.
    const ROUNDS: usize = 64;
    let mut busy = 0u64;
    for _ in 0..ROUNDS {
        c.push(&[b"DEL", b"mk0", b"mk1", b"mk2", b"mk3"]);
        c.push(&[b"EXISTS", b"mk4", b"mk5", b"mk6", b"mk7"]);
        c.push(&[b"MGET", b"mk4", b"mk5", b"mk6", b"mk7"]);
        c.push(&[b"SET", b"mk0", b"v"]);
        c.flush();
        for reply in c.read_replies(4) {
            if let Reply::Error(msg) = reply {
                // Prefix, not equality: a busy DEL that still removed
                // some keys discloses it with a `; partial:` suffix.
                assert!(msg.starts_with(b"BUSY rejected"), "{msg:?}");
                busy += 1;
            }
        }
    }
    assert!(busy > 0, "2-deep ring never refused a 13-sub-op pipeline");
    // The connection is still fully usable after busy multi-key
    // replies (no sub-op left a stale reply queued).
    assert_eq!(c.roundtrip(&[b"PING"]), simple("PONG"));

    // DESIGN.md §9.9: every reply bumps exactly one outcome class.
    let snap = server.metrics().snapshot();
    assert_eq!(
        snap.commands,
        snap.ok + snap.shed + snap.rejected + snap.errors,
        "accounting identity broken"
    );
    assert_eq!(snap.commands, 8 + 4 * ROUNDS as u64 + 1);
    assert_eq!(snap.errors, 0);

    server.stop();
    service.shutdown();
}

#[test]
fn protocol_error_closes_the_connection() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .build(BucketMap::<Bytes, Bytes>::default()),
    );
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());

    // A valid command pipelined ahead of garbage still gets its reply;
    // then the error reply arrives and the server closes.
    c.push(&[b"PING"]);
    c.buf.extend_from_slice(b"*abc\r\n");
    c.flush();
    let replies = c.read_replies(2);
    assert_eq!(replies[0], simple("PONG"));
    match &replies[1] {
        Reply::Error(msg) => {
            let msg = String::from_utf8(msg.clone()).unwrap();
            assert!(msg.starts_with("ERR"), "{msg}");
        }
        other => panic!("expected protocol error, got {other:?}"),
    }
    let mut rest = Vec::new();
    assert_eq!(
        c.stream.read_to_end(&mut rest).unwrap(),
        0,
        "conn not closed"
    );
    assert_eq!(server.metrics().snapshot().protocol_errors, 1);

    server.stop();
    service.shutdown();
}

#[test]
fn shutdown_is_gated_and_stops_the_server_when_allowed() {
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(1)
            .build(BucketMap::<Bytes, Bytes>::default()),
    );

    // Default: SHUTDOWN refused, server keeps running.
    let server = ServerBuilder::new().serve(Arc::clone(&service)).unwrap();
    let mut c = Client::connect(server.local_addr());
    assert!(matches!(c.roundtrip(&[b"SHUTDOWN"]), Reply::Error(_)));
    assert_eq!(c.roundtrip(&[b"PING"]), simple("PONG"));
    assert!(!server.stop_requested());
    drop(c);
    server.stop();

    // Opted in: SHUTDOWN acks, then the whole server stops.
    let server = ServerBuilder::new()
        .allow_shutdown(true)
        .serve(Arc::clone(&service))
        .unwrap();
    let mut c = Client::connect(server.local_addr());
    assert_eq!(c.roundtrip(&[b"SHUTDOWN"]), simple("OK"));
    server.wait();
    assert!(server.stop_requested());
    server.stop();
    service.shutdown();
}
