//! The service: sharded submission lanes, per-lane batch workers,
//! backpressure, and graceful shutdown.
//!
//! One lane per worker. A submitting task round-robins onto a lane,
//! parks an [`OpCell`] in the lane's ring, and suspends on the cell;
//! the lane's worker drains up to `batch_max` cells at a time, executes
//! them through its own (thread-local, non-`Send`) backend handle with
//! the epoch announcement amortized across the whole batch, and
//! completes each cell through its waker. Idle workers quiesce their
//! epoch announcement and park, so a drained service never delays
//! reclamation domain-wide.
//!
//! Shutdown closes every ring (freezing the claim counters), wakes
//! everyone, and joins the workers; each worker finishes the batch it
//! already popped, then resolves everything still queued with
//! [`Error::Shutdown`] and withdraws from its epoch domain.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll, Waker};
use std::thread::JoinHandle;
use std::time::Duration;

use lf_core::{Dict, DictHandle, FrList, SkipList};
use lf_map::BucketMap;
use lf_shard::ShardedSkipList;
use lf_tagged::Backoff;

use crate::metrics::{ServiceMetrics, ServiceSnapshot};
use crate::op::{apply, Error, GetWithVisitor, OpCell, Request, Response, ScanSlot};
use crate::ring::{Pop, PushError, Ring};

/// What a submission does when its lane's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Suspend the submitting task until the worker frees space. No
    /// request is lost; producers slow to the service rate.
    #[default]
    Block,
    /// Fail the new request immediately with [`Error::Rejected`].
    Reject,
    /// Evict the *oldest* queued request (resolving it with
    /// [`Error::Shed`]) to make room for the new one — freshest-first
    /// under overload.
    Shed,
}

/// How long an idle worker parks before re-checking its lane. The
/// wake flag is advisory (Relaxed), so a notification can be missed;
/// this bounds the resulting stall instead of paying for a SeqCst
/// flag handshake on every enqueue.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// One submission lane: the ring, its worker's parking station, and
/// the producers blocked on a full ring under [`BackpressurePolicy::Block`].
struct Lane<K, V> {
    ring: Ring<Arc<OpCell<K, V>>>,
    /// Maximum requests the worker drains per batch. Runtime-tunable:
    /// an admission controller (e.g. `lf-server`'s) grows it under
    /// sustained ring occupancy and shrinks it when the
    /// enqueue-to-complete tail drifts, while the worker re-reads it at
    /// every drain.
    batch_max: AtomicUsize,
    /// Worker is (about to be) parked; producers that see this take the
    /// parker lock and notify.
    sleeping: AtomicBool,
    parker: Mutex<()>,
    wake: Condvar,
    /// Wakers of tasks suspended on a full ring.
    blocked: Mutex<Vec<Waker>>,
}

impl<K, V> Lane<K, V> {
    fn new(capacity: usize, batch_max: usize) -> Self {
        Lane {
            ring: Ring::with_capacity(capacity),
            batch_max: AtomicUsize::new(batch_max.max(1)),
            sleeping: AtomicBool::new(false),
            parker: Mutex::new(()),
            wake: Condvar::new(),
            blocked: Mutex::new(Vec::new()),
        }
    }

    /// Nudge the worker if it is parked (or about to park).
    fn notify_worker(&self) {
        // ord: Relaxed — ASYNC.park: advisory flag; a missed notify is bounded by the park timeout
        if self.sleeping.load(Ordering::Relaxed) {
            let _guard = self.parker.lock().unwrap_or_else(|e| e.into_inner());
            self.wake.notify_one();
        }
    }

    /// Park the worker until notified or `IDLE_PARK` elapses.
    fn idle_park(&self) {
        let guard = self.parker.lock().unwrap_or_else(|e| e.into_inner());
        // ord: Relaxed — ASYNC.park: advisory flag; a missed notify is bounded by the park timeout
        self.sleeping.store(true, Ordering::Relaxed);
        // Re-check under the flag: items pushed (or a close issued)
        // just before we raised it would otherwise sleep a full tick.
        if self.ring.len() == 0 && !self.ring.is_closed() {
            let _ = self
                .wake
                .wait_timeout(guard, IDLE_PARK)
                .unwrap_or_else(|e| e.into_inner());
        }
        // ord: Relaxed — ASYNC.park: advisory flag; a missed notify is bounded by the park timeout
        self.sleeping.store(false, Ordering::Relaxed);
    }

    /// Wake every producer suspended on a full ring.
    fn wake_blocked(&self) {
        let wakers = std::mem::take(&mut *self.blocked.lock().unwrap_or_else(|e| e.into_inner()));
        for w in wakers {
            w.wake();
        }
    }
}

/// State shared by the service front, every future, and every worker.
struct Shared<D: Dict> {
    backend: D,
    lanes: Box<[Lane<D::Key, D::Value>]>,
    policy: BackpressurePolicy,
    /// Per-lane queue capacity (after power-of-two rounding), for
    /// occupancy math in admission controllers.
    queue_capacity: usize,
    metrics: ServiceMetrics,
    next_lane: AtomicUsize,
    /// One heartbeat per lane when the stall watchdog is enabled
    /// (empty otherwise): the worker pulses it per batch item so a
    /// wedged or runaway worker is detectable from outside.
    hearts: Vec<Arc<lf_trace::watchdog::Heartbeat>>,
}

/// Test-only stall injection: when installed, every lane worker calls
/// the hook (with its lane index) after dequeuing each request and
/// before executing it. A hook that sleeps simulates a wedged worker
/// for watchdog tests. Hidden from docs; not part of the public API
/// contract.
static STALL_HOOK: std::sync::OnceLock<Box<dyn Fn(usize) + Send + Sync>> =
    std::sync::OnceLock::new();

#[doc(hidden)]
pub fn install_stall_hook(hook: Box<dyn Fn(usize) + Send + Sync>) {
    let _ = STALL_HOOK.set(hook);
}

/// Outcome of one submission attempt.
enum Submit<K, V> {
    /// Queued; await the cell.
    Queued(Arc<OpCell<K, V>>),
    /// Ring full under `Block`; waker registered, caller returns
    /// `Pending` and retries with the handed-back request on re-poll.
    WouldBlock(Request<K, V>),
    /// Terminal failure.
    Failed(Error),
}

impl<D: Dict> Shared<D> {
    fn submit(
        &self,
        req: Request<D::Key, D::Value>,
        lane_hint: Option<usize>,
        cx: &mut Context<'_>,
    ) -> Submit<D::Key, D::Value> {
        // Affinity first: on a partitioned structure each keyed
        // request goes to the lane owning its partition (`partition mod
        // lanes`), so one worker serves each shard's or bucket's CAS
        // traffic. Then the caller's hint ([`OpFuture::pin_lane`]) — a
        // front end that needs FIFO between its own requests routes
        // them through one lane. Everything else (scans, `Len`, and
        // unpartitioned structures) round-robins.
        let affine = req.key().and_then(|k| self.backend.partition_of(k));
        let lane_idx = match affine {
            Some(p) => p % self.lanes.len(),
            None => match lane_hint {
                Some(i) => i % self.lanes.len(),
                // ord: Relaxed — ASYNC.stat: round-robin ticket, no ordering needed
                None => self.next_lane.fetch_add(1, Ordering::Relaxed) % self.lanes.len(),
            },
        };
        let lane = &self.lanes[lane_idx];
        let cell = Arc::new(OpCell::new(req));
        // The `enqueue` event goes out *before* the push: once the push
        // publishes the cell, the worker's `dequeue` can race ahead of
        // any producer-side bookkeeping, and a dump must never show an
        // op dequeued before it was enqueued. Failed submissions below
        // close the id with an error-coded `complete` instead of
        // leaving it dangling as a false stall.
        lf_trace::emit_for(cell.op_id(), lf_trace::Phase::Enqueue, lane_idx as u32);
        let mut entry = Arc::clone(&cell);
        let backoff = Backoff::new();
        loop {
            match lane.ring.push(entry) {
                Ok(depth) => {
                    self.metrics.record_enqueue(depth);
                    lane.notify_worker();
                    return Submit::Queued(cell);
                }
                Err(PushError::Closed(back)) => {
                    drop(back);
                    lf_trace::emit_for(cell.op_id(), lf_trace::Phase::Complete, 2);
                    return Submit::Failed(Error::Shutdown);
                }
                Err(PushError::Full(back)) => match self.policy {
                    BackpressurePolicy::Reject => {
                        self.metrics.record_reject();
                        drop(back);
                        lf_trace::emit_for(cell.op_id(), lf_trace::Phase::Complete, 3);
                        return Submit::Failed(Error::Rejected);
                    }
                    BackpressurePolicy::Shed => {
                        if let Pop::Item(old) = lane.ring.pop() {
                            drop(old.take_req());
                            self.metrics.record_shed();
                            old.complete(Err(Error::Shed));
                            lf_trace::emit_for(old.op_id(), lf_trace::Phase::Complete, 1);
                        } else {
                            // Racing pops emptied or stalled the head;
                            // back off and retry the push.
                            backoff.spin();
                        }
                        entry = back;
                    }
                    BackpressurePolicy::Block => {
                        lane.blocked
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(cx.waker().clone());
                        // Retry once after registering: the worker may
                        // have drained (and woken nobody) between our
                        // failed push and the registration.
                        match lane.ring.push(back) {
                            Ok(depth) => {
                                self.metrics.record_enqueue(depth);
                                lane.notify_worker();
                                return Submit::Queued(cell);
                            }
                            Err(PushError::Closed(back2)) => {
                                drop(back2);
                                lf_trace::emit_for(cell.op_id(), lf_trace::Phase::Complete, 2);
                                return Submit::Failed(Error::Shutdown);
                            }
                            Err(PushError::Full(back2)) => {
                                // Reclaim the request out of the cell we
                                // never queued; re-polls rebuild it.
                                drop(back2);
                                let req = cell.take_req().expect("unqueued cell keeps its request");
                                // Code 4: bounced, will re-enter under
                                // a fresh id on the next poll.
                                lf_trace::emit_for(cell.op_id(), lf_trace::Phase::Complete, 4);
                                return Submit::WouldBlock(req);
                            }
                        }
                    }
                },
            }
        }
    }
}

fn worker_loop<D: Dict>(shared: &Shared<D>, lane_idx: usize) {
    let lane = &shared.lanes[lane_idx];
    let hb = shared.hearts.get(lane_idx).cloned();
    // Every event this worker records carries its lane tag.
    lf_trace::set_thread_lane(lane_idx as u8);
    let handle = shared.backend.handle();
    // One epoch announcement covers a whole drained batch (§10 of
    // DESIGN.md: the pin-per-poll invariant lives with the worker, not
    // the futures). `batch_max` is runtime-tunable, so the amortization
    // window follows it batch by batch.
    // ord: Relaxed — ASYNC.batch: tuning knob; any observed value ≥ 1 is correct, staleness only sizes one drain
    let mut bmax = shared.lanes[lane_idx].batch_max.load(Ordering::Relaxed);
    handle.amortize_pins(bmax.max(1) as u32);
    let mut batch: Vec<Arc<OpCell<D::Key, D::Value>>> = Vec::with_capacity(bmax);
    loop {
        if lane.ring.is_closed() {
            shutdown_drain(shared, lane_idx);
            break;
        }
        // ord: Relaxed — ASYNC.batch: tuning knob; any observed value ≥ 1 is correct, staleness only sizes one drain
        let cur = lane.batch_max.load(Ordering::Relaxed).max(1);
        if cur != bmax {
            bmax = cur;
            handle.amortize_pins(bmax as u32);
        }
        batch.clear();
        while batch.len() < bmax {
            match lane.ring.pop() {
                Pop::Item(cell) => batch.push(cell),
                Pop::Empty | Pop::Pending => break,
            }
        }
        if batch.is_empty() {
            // Withdraw the standing announcement before parking so an
            // idle service never delays reclamation. A parked worker
            // is idle, not stalled: tell the watchdog.
            if let Some(h) = &hb {
                h.idle();
            }
            handle.quiesce();
            lane.idle_park();
            continue;
        }
        if let Some(h) = &hb {
            h.busy();
        }
        shared.metrics.record_batch(batch.len() as u64);
        let batch_len = batch.len() as u32;
        for cell in batch.drain(..) {
            if let Some(req) = cell.take_req() {
                // Adopt the op's identity before any structure access:
                // the lf-core hooks then attribute their events to the
                // submitting task's op, not to this worker.
                let trace_guard = lf_trace::enter_op(cell.op_id());
                lf_trace::emit_aux(lf_trace::Phase::Dequeue, batch_len);
                if let Some(hook) = STALL_HOOK.get() {
                    hook(lane_idx);
                }
                let resp = apply(&shared.backend, &handle, req);
                shared.metrics.record_complete(cell.elapsed_ns());
                cell.complete(Ok(resp));
                // The front door minted the id, so the async layer —
                // not the sync op boundary — closes it.
                lf_trace::emit_for(cell.op_id(), lf_trace::Phase::Complete, 0);
                drop(trace_guard);
            }
            if let Some(h) = &hb {
                h.beat();
            }
        }
        // Space was freed: release producers suspended on a full ring.
        lane.wake_blocked();
    }
    if let Some(h) = &hb {
        h.idle();
    }
    handle.flush_reclamation();
}

/// Resolve everything still queued on a closed lane with
/// [`Error::Shutdown`], spinning out in-flight publishers.
fn shutdown_drain<D: Dict>(shared: &Shared<D>, lane_idx: usize) {
    let lane = &shared.lanes[lane_idx];
    let backoff = Backoff::new();
    loop {
        match lane.ring.pop() {
            Pop::Item(cell) => {
                drop(cell.take_req());
                shared.metrics.record_shutdown_drop();
                cell.complete(Err(Error::Shutdown));
                lf_trace::emit_for(cell.op_id(), lf_trace::Phase::Complete, 2);
            }
            Pop::Pending => backoff.spin(),
            Pop::Empty => break,
        }
    }
    lane.wake_blocked();
}

/// Configuration surface for [`Service`].
///
/// ```
/// use lf_async::{BackpressurePolicy, ServiceBuilder};
///
/// let service = ServiceBuilder::new()
///     .workers(2)
///     .queue_capacity(256)
///     .batch_max(32)
///     .policy(BackpressurePolicy::Block)
///     .build_list::<u64, u64>();
/// service.shutdown();
/// ```
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    workers: usize,
    queue_capacity: usize,
    batch_max: usize,
    policy: BackpressurePolicy,
    watchdog_deadline: Option<Duration>,
    watchdog_dump: Option<std::path::PathBuf>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            workers: 2,
            queue_capacity: 1024,
            batch_max: 64,
            policy: BackpressurePolicy::Block,
            watchdog_deadline: None,
            watchdog_dump: None,
        }
    }
}

impl ServiceBuilder {
    /// Defaults: 2 workers, 1024-deep lanes, 64-op batches, `Block`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lane workers (≥ 1). One submission lane per worker.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Per-lane queue capacity (rounded up to a power of two, ≥ 2).
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap.max(2);
        self
    }

    /// Maximum requests a worker executes per drained batch (≥ 1).
    pub fn batch_max(mut self, n: usize) -> Self {
        self.batch_max = n.max(1);
        self
    }

    /// What submissions do when a lane is full.
    pub fn policy(mut self, p: BackpressurePolicy) -> Self {
        self.policy = p;
        self
    }

    /// Enable the `lf-trace` stall watchdog: each lane worker gets a
    /// heartbeat, and a busy worker that makes no progress for
    /// `deadline` (wedged, or spinning a runaway retry loop) trips a
    /// flight-recorder dump. The monitor also watches for reclamation
    /// stalls (retires mounting while the epoch sits still) and
    /// services `SIGUSR1` dump requests.
    pub fn watchdog(mut self, deadline: Duration) -> Self {
        self.watchdog_deadline = Some(deadline);
        self
    }

    /// Where the watchdog writes flight-recorder dumps. Defaults to
    /// the `LF_TRACE_DUMP` environment variable; with neither set,
    /// trips are still counted and reported, just not dumped.
    pub fn watchdog_dump(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.watchdog_dump = Some(path.into());
        self
    }

    /// Build a service fronting `backend` and start its workers. On a
    /// partitioned structure ([`Dict::partition_of`]) each keyed
    /// request goes to the lane owning its partition (`partition mod
    /// lanes`).
    ///
    /// ```
    /// use lf_async::ServiceBuilder;
    /// use lf_shard::ShardedSkipList;
    ///
    /// let service = ServiceBuilder::new()
    ///     .workers(2)
    ///     .build(ShardedSkipList::<u64, u64>::new(4));
    /// assert_eq!(service.backend().shard_count(), 4);
    /// service.shutdown();
    /// ```
    pub fn build<D: Dict>(self, backend: D) -> Service<D> {
        let queue_capacity = self.queue_capacity.max(2).next_power_of_two();
        let lanes: Vec<Lane<D::Key, D::Value>> = (0..self.workers)
            .map(|_| Lane::new(queue_capacity, self.batch_max))
            .collect();
        let (watchdog, hearts) = match self.watchdog_deadline {
            Some(deadline) => {
                let wd = lf_trace::watchdog::Watchdog::start(lf_trace::watchdog::Config {
                    deadline,
                    dump_path: self.watchdog_dump.clone(),
                    install_sigusr1: true,
                    ..lf_trace::watchdog::Config::default()
                });
                let hearts = (0..self.workers)
                    .map(|i| wd.register(&format!("lane-{i}")))
                    .collect();
                (Some(wd), hearts)
            }
            None => (None, Vec::new()),
        };
        let shared = Arc::new(Shared {
            backend,
            lanes: lanes.into_boxed_slice(),
            policy: self.policy,
            queue_capacity,
            metrics: ServiceMetrics::new(),
            next_lane: AtomicUsize::new(0),
            hearts,
        });
        let workers = (0..self.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lf-async-worker-{i}"))
                    .spawn(move || worker_loop(&*shared, i))
                    .expect("spawn lane worker")
            })
            .collect();
        Service {
            shared,
            workers: Mutex::new(workers),
            watchdog,
        }
    }

    /// Build a service over an empty [`FrList`].
    pub fn build_list<K, V>(self) -> AsyncList<K, V>
    where
        K: Ord + Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        self.build(FrList::new())
    }

    /// Build a service over an empty [`SkipList`].
    pub fn build_skiplist<K, V>(self) -> AsyncSkipList<K, V>
    where
        K: Ord + Clone + Send + Sync + 'static,
        V: Clone + Send + Sync + 'static,
    {
        self.build(SkipList::new())
    }
}

/// An async serving façade over one lock-free structure.
///
/// Operations return [`OpFuture`]s that are `Send` (tasks may migrate
/// executor threads between polls) and never hold an epoch guard across
/// an `.await`: all structure access happens on the lane workers.
pub struct Service<D: Dict> {
    shared: Arc<Shared<D>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Live while the service is, when enabled via
    /// [`ServiceBuilder::watchdog`]; its monitor thread stops on drop.
    watchdog: Option<lf_trace::watchdog::Watchdog>,
}

/// A [`Service`] over [`FrList`], generic over the reclamation
/// backend (default EBR); build non-default backends with
/// [`ServiceBuilder::build`] over a pre-constructed list.
pub type AsyncList<K, V, R = lf_reclaim::Ebr> = Service<FrList<K, V, R>>;
/// A [`Service`] over [`SkipList`] (backend-generic like
/// [`AsyncList`]).
pub type AsyncSkipList<K, V, R = lf_reclaim::Ebr> = Service<SkipList<K, V, R>>;
/// A [`Service`] over a [`ShardedSkipList`], lanes affine to shards
/// (backend-generic like [`AsyncList`]):
/// `ServiceBuilder::new().workers(2).build(ShardedSkipList::new(4))`.
pub type AsyncShardedMap<K, V, R = lf_reclaim::Ebr> = Service<ShardedSkipList<K, V, R>>;
/// A [`Service`] over an `lf-map` [`BucketMap`], lanes affine to
/// buckets (backend-generic like [`AsyncList`]):
/// `ServiceBuilder::new().build(BucketMap::default())`.
pub type AsyncHashMap<K, V, R = lf_reclaim::Ebr> = Service<BucketMap<K, V, R>>;

impl<D: Dict> Service<D> {
    /// Look up `key` (clone of the value).
    pub fn get(&self, key: D::Key) -> OpFuture<D> {
        self.op(Request::Get(key))
    }

    /// Membership test.
    pub fn contains(&self, key: D::Key) -> OpFuture<D> {
        self.op(Request::Contains(key))
    }

    /// Insert `key → value`; resolves to `Response::Inserted(false)` on
    /// a duplicate key.
    pub fn insert(&self, key: D::Key, value: D::Value) -> OpFuture<D> {
        self.op(Request::Insert(key, value))
    }

    /// Insert `key → value`, replacing an existing binding. The lane
    /// worker retries remove+insert inside **one** ring request, so
    /// the upsert holds a single slot in its lane's FIFO: a later
    /// same-lane request sees either the old binding or the new one,
    /// never the retry loop's gap. Resolves to
    /// `Response::Inserted(true)` once an insert round won, or
    /// `Inserted(false)` if the bounded budget ran out racing direct
    /// synchronous-handle writers of the same key.
    pub fn upsert(&self, key: D::Key, value: D::Value) -> OpFuture<D> {
        self.op(Request::Upsert(key, value))
    }

    /// Remove `key`, resolving to the removed value.
    pub fn remove(&self, key: D::Key) -> OpFuture<D> {
        self.op(Request::Remove(key))
    }

    /// Zero-copy lookup: `f` runs over the value **in place** on the
    /// lane worker, under the worker's batch-amortized epoch pin — the
    /// value is never cloned across the queue, only `f`'s result comes
    /// back. Resolves to `Ok(Some(r))` if the key was present,
    /// `Ok(None)` if absent. No epoch guard is held across any
    /// `.await`: the visitor runs synchronously inside the worker's
    /// `apply`, and the future owns only the result slot.
    pub fn get_with<R, F>(&self, key: D::Key, f: F) -> GetWithFuture<D, R>
    where
        R: Send + 'static,
        F: FnOnce(&D::Value) -> R + Send + 'static,
    {
        let slot: Arc<Mutex<Option<R>>> = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        let visitor: GetWithVisitor<D::Value> = Box::new(move |v| {
            if let Some(v) = v {
                *out.lock().unwrap_or_else(|e| e.into_inner()) = Some(f(v));
            }
        });
        GetWithFuture {
            inner: self.op(Request::GetWith(key, visitor)),
            slot,
        }
    }

    /// Ordered scan: resolve to up to `limit` `(key, value)` pairs with
    /// keys strictly greater than `after` (`None` = from the smallest
    /// key), in ascending key order. The page is collected on a lane
    /// worker under its batch-amortized pin — the caller never touches
    /// a guard — and cloned into the future's slot. Only meaningful
    /// when [`supports_scan`](Service::supports_scan) is true; hash
    /// tiers resolve to an empty page.
    pub fn scan(&self, after: Option<D::Key>, limit: usize) -> ScanFuture<D> {
        let slot: ScanSlot<D::Key, D::Value> = Arc::new(Mutex::new(Vec::new()));
        ScanFuture {
            inner: self.op(Request::Scan(after, limit, Arc::clone(&slot))),
            slot,
        }
    }

    /// Whether the structure serves ordered scans; see
    /// [`Dict::ordered`]. Hash tiers do not, so callers (the wire
    /// server) refuse SCAN up front instead of enqueueing a request
    /// the worker would answer with an empty page.
    pub fn supports_scan(&self) -> bool {
        self.shared.backend.ordered()
    }

    /// Submit any [`Request`].
    pub fn op(&self, req: Request<D::Key, D::Value>) -> OpFuture<D> {
        OpFuture {
            shared: Arc::clone(&self.shared),
            state: FutState::Unsubmitted(Some(req)),
            lane_hint: None,
        }
    }

    /// Racy-fresh size of the underlying structure (no queue round
    /// trip; reads the structure's own counter).
    pub fn len(&self) -> usize {
        self.shared.backend.len()
    }

    /// Whether the structure is empty (racy-fresh).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current service metrics.
    pub fn metrics(&self) -> ServiceSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Number of submission lanes (== workers).
    pub fn lane_count(&self) -> usize {
        self.shared.lanes.len()
    }

    /// Per-lane queue capacity (after power-of-two rounding): the
    /// denominator for ring-occupancy math in admission controllers.
    pub fn queue_capacity(&self) -> usize {
        self.shared.queue_capacity
    }

    /// Racy-fresh depth of `lane`'s submission ring.
    ///
    /// # Panics
    ///
    /// If `lane >= lane_count()`.
    pub fn lane_depth(&self, lane: usize) -> usize {
        self.shared.lanes[lane].ring.len() as usize
    }

    /// Current `batch_max` of `lane` (runtime-tunable; see
    /// [`set_batch_max`](Service::set_batch_max)).
    ///
    /// # Panics
    ///
    /// If `lane >= lane_count()`.
    pub fn batch_max(&self, lane: usize) -> usize {
        // ord: Relaxed — ASYNC.batch: tuning knob; any observed value ≥ 1 is correct, staleness only sizes one drain
        self.shared.lanes[lane].batch_max.load(Ordering::Relaxed)
    }

    /// Retune `lane`'s `batch_max` at runtime — the admission
    /// controller's knob. Clamped to `1 ..= queue_capacity()`; the lane
    /// worker re-reads it at every drain (and re-amortizes its epoch
    /// pin window to match), so the change takes effect within one
    /// batch. Returns the clamped value installed.
    ///
    /// # Panics
    ///
    /// If `lane >= lane_count()`.
    pub fn set_batch_max(&self, lane: usize, n: usize) -> usize {
        let n = n.clamp(1, self.shared.queue_capacity);
        // ord: Relaxed — ASYNC.batch: tuning knob; any observed value ≥ 1 is correct, staleness only sizes one drain
        self.shared.lanes[lane]
            .batch_max
            .store(n, Ordering::Relaxed);
        n
    }

    /// The backend structure this service fronts (e.g. for a
    /// [`ShardedSkipList`]'s per-shard snapshot).
    pub fn backend(&self) -> &D {
        &self.shared.backend
    }

    /// The stall watchdog, when enabled via
    /// [`ServiceBuilder::watchdog`] — e.g. to poll
    /// [`trips`](lf_trace::watchdog::Watchdog::trips) or pull the
    /// [`last_report`](lf_trace::watchdog::Watchdog::last_report).
    pub fn watchdog(&self) -> Option<&lf_trace::watchdog::Watchdog> {
        self.watchdog.as_ref()
    }

    /// Shut down gracefully: stop accepting, let workers finish the
    /// batches they already popped, resolve everything still queued
    /// with [`Error::Shutdown`], quiesce the epoch domain, and join
    /// the workers. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        for lane in self.shared.lanes.iter() {
            lane.ring.close();
        }
        for lane in self.shared.lanes.iter() {
            // Take the parker lock so a worker between its closed-check
            // and its park cannot miss the notification entirely.
            let _guard = lane.parker.lock().unwrap_or_else(|e| e.into_inner());
            lane.wake.notify_one();
            drop(_guard);
            lane.wake_blocked();
        }
        let handles = std::mem::take(&mut *self.workers.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl<D: Dict> Drop for Service<D> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<D: Dict> std::fmt::Debug for Service<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("lanes", &self.shared.lanes.len())
            .field(
                "batch_max",
                &(0..self.shared.lanes.len())
                    .map(|i| self.batch_max(i))
                    .collect::<Vec<_>>(),
            )
            .field("policy", &self.shared.policy)
            .finish()
    }
}

/// State of an in-flight operation future.
enum FutState<K, V> {
    /// Not yet queued (first poll, or bounced off a full ring under
    /// `Block`). Holds the request payload.
    Unsubmitted(Option<Request<K, V>>),
    /// Queued; waiting on the completion cell.
    Waiting(Arc<OpCell<K, V>>),
    /// Resolved; polling again is a contract violation.
    Done,
}

/// A submitted (or to-be-submitted) operation.
///
/// `Send` whenever the key/value types are: the future owns no epoch
/// guard, no handle, and no borrow of the structure — only the request
/// payload and a reference-counted completion cell. Submission happens
/// lazily on first poll; dropping the future at any point leaks
/// nothing (a queued request may still execute — it is simply
/// *detached*, and its result is discarded with the cell).
pub struct OpFuture<D: Dict> {
    shared: Arc<Shared<D>>,
    state: FutState<D::Key, D::Value>,
    /// Preferred lane when the backend expresses no affinity of its
    /// own; see [`LaneFuture::pin_lane`].
    lane_hint: Option<usize>,
}

// The future holds no self-references — pinning is structural only.
impl<D: Dict> Unpin for OpFuture<D> {}

/// The shared submission surface of the service's future types: route
/// a request to a chosen lane before it enqueues, and observe whether
/// it has entered its ring yet.
///
/// Both exist for pipelining front ends (the `lf-server` wire tier)
/// that need *effect order* to follow dispatch order: requests that
/// must stay FIFO relative to each other (e.g. every command touching
/// one key on one connection) are pinned to one lane, and each future
/// is polled until [`is_enqueued`](LaneFuture::is_enqueued) before the
/// next is dispatched — so ring order equals dispatch order even when
/// a full ring bounces a poll under [`BackpressurePolicy::Block`].
pub trait LaneFuture: Future {
    /// Prefer `lane` (modulo the lane count) for this request whenever
    /// the structure expresses no affinity of its own
    /// ([`Dict::partition_of`] returning `None`). Partition affinity
    /// always wins: on partitioned structures the hint is ignored for
    /// keyed requests, so pinning is safe to apply unconditionally.
    /// No effect once the request has enqueued.
    fn pin_lane(self, lane: usize) -> Self
    where
        Self: Sized;

    /// Whether the request has entered its lane ring (or already
    /// resolved). `false` only before the first poll, or after a poll
    /// that bounced off a full ring under
    /// [`BackpressurePolicy::Block`].
    fn is_enqueued(&self) -> bool;
}

impl<D: Dict> LaneFuture for OpFuture<D> {
    fn pin_lane(mut self, lane: usize) -> Self {
        self.lane_hint = Some(lane);
        self
    }

    fn is_enqueued(&self) -> bool {
        !matches!(self.state, FutState::Unsubmitted(_))
    }
}

impl<D: Dict> Future for OpFuture<D> {
    type Output = Result<Response<D::Value>, Error>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        loop {
            match &mut this.state {
                FutState::Unsubmitted(req) => {
                    let req = req.take().expect("request present while unsubmitted");
                    match this.shared.submit(req, this.lane_hint, cx) {
                        Submit::Queued(cell) => {
                            this.state = FutState::Waiting(cell);
                        }
                        Submit::WouldBlock(back) => {
                            this.state = FutState::Unsubmitted(Some(back));
                            return Poll::Pending;
                        }
                        Submit::Failed(e) => {
                            this.state = FutState::Done;
                            return Poll::Ready(Err(e));
                        }
                    }
                }
                FutState::Waiting(cell) => match cell.poll_result(cx) {
                    Poll::Ready(r) => {
                        this.state = FutState::Done;
                        return Poll::Ready(r);
                    }
                    Poll::Pending => return Poll::Pending,
                },
                FutState::Done => panic!("OpFuture polled after completion"),
            }
        }
    }
}

/// A zero-copy lookup in flight; see [`Service::get_with`].
///
/// Wraps an [`OpFuture`] plus the slot the worker-side visitor parks
/// its result in. Resolves to `Ok(Some(r))` when the key was present
/// (visitor ran, produced `r`), `Ok(None)` when absent. `Send` for the
/// same reason `OpFuture` is: no guard, no handle, no borrow — only
/// the cell and the slot.
pub struct GetWithFuture<D: Dict, R> {
    inner: OpFuture<D>,
    slot: Arc<Mutex<Option<R>>>,
}

// No self-references — pinning is structural only, as for `OpFuture`.
impl<D: Dict, R> Unpin for GetWithFuture<D, R> {}

impl<D: Dict, R> LaneFuture for GetWithFuture<D, R> {
    fn pin_lane(mut self, lane: usize) -> Self {
        self.inner = self.inner.pin_lane(lane);
        self
    }

    fn is_enqueued(&self) -> bool {
        self.inner.is_enqueued()
    }
}

impl<D: Dict, R> Future for GetWithFuture<D, R> {
    type Output = Result<Option<R>, Error>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match Pin::new(&mut this.inner).poll(cx) {
            // The worker wrote the slot before completing the cell;
            // the cell's Release/Acquire edge publishes it, and the
            // mutex makes the read race-free besides.
            Poll::Ready(Ok(_)) => Poll::Ready(Ok(this
                .slot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take())),
            Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// An ordered scan in flight; see [`Service::scan`].
///
/// Wraps an [`OpFuture`] plus the slot the lane worker fills with the
/// page of cloned pairs. Resolves to the pairs in ascending key order.
/// `Send` for the same reason `OpFuture` is: no guard, no handle, no
/// borrow — only the cell and the slot.
pub struct ScanFuture<D: Dict> {
    inner: OpFuture<D>,
    slot: ScanSlot<D::Key, D::Value>,
}

// No self-references — pinning is structural only, as for `OpFuture`.
impl<D: Dict> Unpin for ScanFuture<D> {}

impl<D: Dict> LaneFuture for ScanFuture<D> {
    fn pin_lane(mut self, lane: usize) -> Self {
        self.inner = self.inner.pin_lane(lane);
        self
    }

    fn is_enqueued(&self) -> bool {
        self.inner.is_enqueued()
    }
}

impl<D: Dict> Future for ScanFuture<D> {
    type Output = Result<Vec<(D::Key, D::Value)>, Error>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match Pin::new(&mut this.inner).poll(cx) {
            // Same publication argument as `GetWithFuture`: the worker
            // filled the slot before the cell's Release store.
            Poll::Ready(Ok(_)) => Poll::Ready(Ok(std::mem::take(
                &mut *this.slot.lock().unwrap_or_else(|e| e.into_inner()),
            ))),
            Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
            Poll::Pending => Poll::Pending,
        }
    }
}
