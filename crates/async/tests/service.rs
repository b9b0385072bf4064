//! End-to-end service semantics: backpressure policies, graceful
//! shutdown, and waker delivery under concurrent load.
//!
//! Determinism trick: a `GatedMap` dictionary whose operations block
//! on a gate. With `batch_max(1)` the single worker pops exactly one
//! request and parks inside it, so tests control precisely which
//! requests are in-flight versus still queued when shutdown (or a
//! policy decision) happens.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll};

use lf_async::{
    BackpressurePolicy, Dict, DictHandle, Error, Request, Response, Service, ServiceBuilder,
};
use lf_core::FrList;
use lf_sched::rt;

struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
    waiting: AtomicUsize,
}

impl Gate {
    fn new() -> Self {
        Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
            waiting: AtomicUsize::new(0),
        }
    }

    fn pass(&self) {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        drop(open);
        self.waiting.fetch_sub(1, Ordering::SeqCst);
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait_for_waiter(&self) {
        while self.waiting.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
    }
}

/// An `FrList` whose operations block on a gate before executing.
struct GatedMap {
    inner: FrList<u64, u64>,
    gate: Arc<Gate>,
}

struct GatedHandle<'a> {
    inner: lf_core::ListHandle<'a, u64, u64>,
    gate: &'a Gate,
}

impl Dict for GatedMap {
    type Key = u64;
    type Value = u64;
    type Handle<'a> = GatedHandle<'a>;

    fn handle(&self) -> GatedHandle<'_> {
        GatedHandle {
            inner: self.inner.handle(),
            gate: &self.gate,
        }
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

impl DictHandle<u64, u64> for GatedHandle<'_> {
    fn get(&self, key: &u64) -> Option<u64> {
        self.gate.pass();
        self.inner.get(key)
    }

    fn contains(&self, key: &u64) -> bool {
        self.gate.pass();
        self.inner.contains(key)
    }

    fn insert(&self, key: u64, value: u64) -> bool {
        self.gate.pass();
        self.inner.insert(key, value).is_ok()
    }

    fn remove(&self, key: &u64) -> Option<u64> {
        self.gate.pass();
        self.inner.remove(key)
    }

    fn amortize_pins(&self, every: u32) {
        self.inner.amortize_pins(every);
    }

    fn quiesce(&self) {
        self.inner.quiesce();
    }

    fn flush_reclamation(&self) {
        self.inner.flush_reclamation();
    }
}

fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    let mut cx = Context::from_waker(std::task::Waker::noop());
    Pin::new(fut).poll(&mut cx)
}

fn gated_service(policy: BackpressurePolicy, capacity: usize) -> (Service<GatedMap>, Arc<Gate>) {
    let gate = Arc::new(Gate::new());
    let backend = GatedMap {
        inner: FrList::new(),
        gate: Arc::clone(&gate),
    };
    let service = ServiceBuilder::new()
        .workers(1)
        .batch_max(1)
        .queue_capacity(capacity)
        .policy(policy)
        .build(backend);
    (service, gate)
}

#[test]
fn basic_ops_round_trip() {
    let service = ServiceBuilder::new().workers(2).build_list::<u64, u64>();
    rt::block_on(async {
        assert_eq!(service.insert(1, 10).await, Ok(Response::Inserted(true)));
        assert_eq!(service.insert(1, 11).await, Ok(Response::Inserted(false)));
        assert_eq!(service.get(1).await, Ok(Response::Value(Some(10))));
        assert_eq!(service.contains(2).await, Ok(Response::Found(false)));
        assert_eq!(service.op(Request::Len).await, Ok(Response::Len(1)));
        assert_eq!(service.remove(1).await, Ok(Response::Removed(Some(10))));
        assert_eq!(service.get(1).await, Ok(Response::Value(None)));
    });
    let m = service.metrics();
    assert_eq!(m.enqueued, 7);
    assert_eq!(m.completed, 7);
    service.shutdown();
}

#[test]
fn upsert_overwrites_in_one_request() {
    let service = ServiceBuilder::new().workers(2).build_list::<u64, u64>();
    rt::block_on(async {
        // Fresh key and overwrite both report Inserted(true): the
        // worker-side remove+insert loop won an insert round.
        assert_eq!(service.upsert(1, 10).await, Ok(Response::Inserted(true)));
        assert_eq!(service.get(1).await, Ok(Response::Value(Some(10))));
        assert_eq!(service.upsert(1, 11).await, Ok(Response::Inserted(true)));
        assert_eq!(service.get(1).await, Ok(Response::Value(Some(11))));
    });
    let m = service.metrics();
    // One ring request per upsert — it must not cost extra FIFO slots.
    assert_eq!(m.enqueued, 4);
    service.shutdown();
}

#[test]
fn pin_lane_orders_a_pipelined_same_key_sequence() {
    use lf_async::LaneFuture;
    let service = ServiceBuilder::new()
        .workers(4)
        .build_skiplist::<u64, u64>();
    // Pipeline shape: enqueue the whole interleaved SET/GET sequence
    // on one key (first poll submits, by lazy submission) before
    // awaiting anything. The skip-list backend has no lane affinity,
    // so with 4 workers only the shared pin keeps every GET reading
    // the SET enqueued just before it.
    enum Slot<F: Future + Unpin> {
        Pending(F),
        Done(F::Output),
    }
    fn eager<F: Future + Unpin>(mut f: F) -> Slot<F> {
        match poll_once(&mut f) {
            Poll::Ready(v) => Slot::Done(v),
            Poll::Pending => Slot::Pending(f),
        }
    }
    fn finish<F: Future + Unpin>(s: Slot<F>) -> F::Output {
        match s {
            Slot::Done(v) => v,
            Slot::Pending(f) => rt::block_on(f),
        }
    }
    const N: u64 = 100;
    let mut ops = Vec::new();
    for i in 0..N {
        ops.push(eager(service.upsert(7, i).pin_lane(2)));
        ops.push(eager(service.get(7).pin_lane(2)));
    }
    let mut i = 0u64;
    let mut it = ops.into_iter();
    while let (Some(set), Some(get)) = (it.next(), it.next()) {
        assert_eq!(finish(set), Ok(Response::Inserted(true)), "SET #{i}");
        assert_eq!(
            finish(get),
            Ok(Response::Value(Some(i))),
            "GET #{i} read a stale SET"
        );
        i += 1;
    }
    assert_eq!(i, N);
    service.shutdown();
}

#[test]
fn skiplist_backend_round_trips() {
    let service = ServiceBuilder::new()
        .workers(2)
        .build_skiplist::<u64, u64>();
    rt::block_on(async {
        for k in 0..50u64 {
            assert_eq!(service.insert(k, k * 2).await, Ok(Response::Inserted(true)));
        }
        for k in 0..50u64 {
            assert_eq!(service.get(k).await, Ok(Response::Value(Some(k * 2))));
        }
    });
    assert_eq!(service.len(), 50);
    service.shutdown();
}

#[test]
fn shutdown_finishes_in_flight_and_fails_queued() {
    let (service, gate) = gated_service(BackpressurePolicy::Block, 64);
    let service = Arc::new(service);

    // op1 is popped by the worker, which parks inside apply().
    let mut op1 = service.insert(1, 100);
    assert!(poll_once(&mut op1).is_pending());
    gate.wait_for_waiter();

    // These stay queued behind the parked worker (batch_max = 1).
    let mut queued = Vec::new();
    for k in 2..5u64 {
        let mut f = service.insert(k, 100);
        assert!(poll_once(&mut f).is_pending());
        queued.push(f);
    }

    // Shut down from another thread (it blocks joining the worker).
    let s2 = Arc::clone(&service);
    let shut = std::thread::spawn(move || s2.shutdown());

    // Once the rings are closed, a fresh submission fails fast without
    // enqueueing. Submissions that still won the push race are just
    // more still-queued ops; track them with the rest.
    loop {
        let mut probe = service.insert(999, 1);
        match poll_once(&mut probe) {
            Poll::Ready(r) => {
                assert_eq!(r, Err(Error::Shutdown));
                break;
            }
            Poll::Pending => queued.push(probe),
        }
        std::thread::yield_now();
    }

    // Release the worker: it finishes op1 (its in-flight batch), then
    // resolves everything still queued with Shutdown.
    gate.open();
    shut.join().unwrap();

    assert_eq!(rt::block_on(op1), Ok(Response::Inserted(true)));
    for f in queued {
        assert_eq!(rt::block_on(f), Err(Error::Shutdown));
    }
    let m = service.metrics();
    assert_eq!(m.completed, 1);
    assert_eq!(m.enqueued, m.completed + m.shutdown_dropped);
    // The executed insert landed; the drained ones did not.
    assert_eq!(service.len(), 1);
}

#[test]
fn submissions_after_shutdown_fail() {
    let service = ServiceBuilder::new().workers(1).build_list::<u64, u64>();
    service.shutdown();
    assert_eq!(rt::block_on(service.get(1)), Err(Error::Shutdown));
    assert_eq!(service.metrics().enqueued, 0);
}

#[test]
fn reject_policy_fails_fast_when_full() {
    let (service, gate) = gated_service(BackpressurePolicy::Reject, 2);

    let mut in_flight = service.insert(1, 1);
    assert!(poll_once(&mut in_flight).is_pending());
    gate.wait_for_waiter();

    // Fill the lane (capacity 2), then overflow it.
    let mut q1 = service.insert(2, 1);
    let mut q2 = service.insert(3, 1);
    assert!(poll_once(&mut q1).is_pending());
    assert!(poll_once(&mut q2).is_pending());
    let mut over = service.insert(4, 1);
    assert_eq!(poll_once(&mut over), Poll::Ready(Err(Error::Rejected)));
    assert_eq!(service.metrics().rejected, 1);

    gate.open();
    assert_eq!(rt::block_on(in_flight), Ok(Response::Inserted(true)));
    assert_eq!(rt::block_on(q1), Ok(Response::Inserted(true)));
    assert_eq!(rt::block_on(q2), Ok(Response::Inserted(true)));
    service.shutdown();
}

#[test]
fn shed_policy_evicts_oldest_queued() {
    let (service, gate) = gated_service(BackpressurePolicy::Shed, 2);

    let mut in_flight = service.insert(1, 1);
    assert!(poll_once(&mut in_flight).is_pending());
    gate.wait_for_waiter();

    let mut oldest = service.insert(2, 1);
    let mut newer = service.insert(3, 1);
    assert!(poll_once(&mut oldest).is_pending());
    assert!(poll_once(&mut newer).is_pending());

    // Overflow: the oldest queued request (key 2) is shed to make room.
    let mut freshest = service.insert(4, 1);
    assert!(poll_once(&mut freshest).is_pending());

    assert_eq!(rt::block_on(oldest), Err(Error::Shed));
    assert_eq!(service.metrics().shed, 1);

    gate.open();
    assert_eq!(rt::block_on(in_flight), Ok(Response::Inserted(true)));
    assert_eq!(rt::block_on(newer), Ok(Response::Inserted(true)));
    assert_eq!(rt::block_on(freshest), Ok(Response::Inserted(true)));
    service.shutdown();
    assert_eq!(service.len(), 3); // keys 1, 3, 4 — never 2
}

#[test]
fn block_policy_suspends_and_resumes_producers() {
    let (service, gate) = gated_service(BackpressurePolicy::Block, 2);
    let service = Arc::new(service);

    let mut in_flight = service.insert(0, 0);
    assert!(poll_once(&mut in_flight).is_pending());
    gate.wait_for_waiter();

    // More submissions than lane capacity: the surplus must suspend,
    // then resume as the worker frees space — nobody is lost.
    type OpOut = Result<Response<u64>, Error>;
    let s2 = Arc::clone(&service);
    let driver = std::thread::spawn(move || {
        let futs: Vec<Pin<Box<dyn Future<Output = OpOut> + Send>>> = (1..20u64)
            .map(|k| -> Pin<Box<dyn Future<Output = OpOut> + Send>> { Box::pin(s2.insert(k, k)) })
            .collect();
        rt::run_all(futs)
    });

    gate.open();
    let results = driver.join().unwrap();
    assert!(results
        .iter()
        .all(|r| matches!(r, Ok(Response::Inserted(true)))));
    assert_eq!(rt::block_on(in_flight), Ok(Response::Inserted(true)));
    assert_eq!(service.len(), 20);
    let m = service.metrics();
    assert_eq!(m.enqueued, 20);
    assert_eq!(m.completed, 20);
    assert_eq!(m.rejected + m.shed + m.shutdown_dropped, 0);
    service.shutdown();
}

#[test]
fn concurrent_drivers_no_lost_wakers() {
    let drivers = 4;
    let tasks_per_driver = if cfg!(miri) { 8 } else { 200 };
    let ops_per_task = if cfg!(miri) { 2 } else { 5 };
    let service = Arc::new(
        ServiceBuilder::new()
            .workers(2)
            .queue_capacity(64)
            .batch_max(16)
            .policy(BackpressurePolicy::Block)
            .build_skiplist::<u64, u64>(),
    );
    let done = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..drivers)
        .map(|d| {
            let service = Arc::clone(&service);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let futs: Vec<Pin<Box<dyn Future<Output = ()> + Send>>> = (0..tasks_per_driver)
                    .map(|t| {
                        let service = Arc::clone(&service);
                        let done = Arc::clone(&done);
                        Box::pin(async move {
                            let base = (d * tasks_per_driver + t) as u64 * 100;
                            for i in 0..ops_per_task as u64 {
                                let k = base + i;
                                assert_eq!(
                                    service.insert(k, k).await,
                                    Ok(Response::Inserted(true))
                                );
                                assert_eq!(service.get(k).await, Ok(Response::Value(Some(k))));
                                done.fetch_add(2, Ordering::Relaxed);
                            }
                        }) as Pin<Box<dyn Future<Output = ()> + Send>>
                    })
                    .collect();
                rt::run_all(futs);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let total = drivers * tasks_per_driver * ops_per_task * 2;
    assert_eq!(done.load(Ordering::Relaxed), total);
    let m = service.metrics();
    assert_eq!(m.completed, total as u64);
    assert_eq!(m.enqueue_to_complete_ns.count(), total as u64);
    assert!(m.batch_size.count() > 0);
    service.shutdown();
}
