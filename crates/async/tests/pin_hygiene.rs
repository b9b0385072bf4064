//! Pin-per-poll hygiene: futures are `Send`, hold no epoch guard
//! across `.await`, and dropping them at any point — unsubmitted,
//! queued, or mid-flight — leaks neither pins nor nodes.
//!
//! The leak check is a drop-count audit: every live `Counted` value
//! (initial, plus every clone the structure or a `Get` hands out)
//! bumps a global counter that its `Drop` decrements. If a detached
//! future, a shed request, or a shutdown drain leaked a payload or a
//! node, the counter stays positive after the service (and with it the
//! backend and its epoch collector) is dropped.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::task::{Context, Poll};

use lf_async::{
    AsyncHashMap, AsyncList, AsyncShardedMap, BackpressurePolicy, Response, ServiceBuilder,
};
use lf_map::BucketMap;
use lf_sched::rt;
use lf_shard::ShardedSkipList;

/// A value whose population is counted against a per-test counter
/// (tests run in parallel; a shared counter would cross-talk).
#[derive(Debug)]
struct Counted(u64, &'static AtomicIsize);

impl Counted {
    fn new(v: u64, live: &'static AtomicIsize) -> Self {
        live.fetch_add(1, Ordering::SeqCst);
        Counted(v, live)
    }
}

impl PartialEq for Counted {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.1.fetch_add(1, Ordering::SeqCst);
        Counted(self.0, self.1)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.1.fetch_sub(1, Ordering::SeqCst);
    }
}

fn poll_once<F: Future + Unpin>(fut: &mut F) -> Poll<F::Output> {
    let mut cx = Context::from_waker(std::task::Waker::noop());
    Pin::new(fut).poll(&mut cx)
}

/// The structural core of the invariant: an `OpFuture` is `Send` even
/// though the backend's handles are not. If a future ever captured an
/// epoch guard (or a handle) across an `.await`, this stops compiling.
#[test]
fn futures_are_send() {
    fn assert_send<T: Send>(_: &T) {}
    let service: AsyncList<u64, String> = ServiceBuilder::new().workers(1).build_list();
    let fut = service.get(1);
    assert_send(&fut);
    assert_send(&service.insert(2, "x".into()));
    assert_send(&service.remove(2));
    drop(fut);
    service.shutdown();
}

#[test]
fn dropped_futures_leak_nothing() {
    static LIVE: AtomicIsize = AtomicIsize::new(0);
    let keys: u64 = if cfg!(miri) { 16 } else { 200 };
    {
        let service: AsyncList<u64, Counted> = ServiceBuilder::new()
            .workers(2)
            .queue_capacity(64)
            .batch_max(8)
            .policy(BackpressurePolicy::Block)
            .build_list();

        // Phase 1: the normal await path — clones handed out by `Get`
        // and `Remove` are dropped by the caller.
        rt::block_on(async {
            for k in 0..keys {
                assert_eq!(
                    service.insert(k, Counted::new(k, &LIVE)).await,
                    Ok(Response::Inserted(true))
                );
            }
            for k in 0..keys {
                let got = service.get(k).await.unwrap().into_value();
                assert_eq!(got, Some(Counted::new(k, &LIVE)));
            }
            for k in 0..keys / 2 {
                let gone = service.remove(k).await.unwrap().into_value();
                assert_eq!(gone, Some(Counted::new(k, &LIVE)));
            }
        });

        // Phase 2: futures dropped without ever being polled — the
        // request payload dies with the future.
        for k in 0..keys {
            drop(service.insert(1_000_000 + k, Counted::new(k, &LIVE)));
        }

        // Phase 3: futures dropped mid-flight, after the first poll
        // queued them. The op may still execute detached; its payload
        // (and any response clone) must be freed with the cell, and no
        // worker may be left holding a pin for it.
        for k in 0..keys {
            let mut f = service.insert(2_000_000 + k, Counted::new(k, &LIVE));
            let _ = poll_once(&mut f);
            drop(f);
            let mut g = service.get(2_000_000 + k);
            let _ = poll_once(&mut g);
            drop(g);
        }

        service.shutdown();
        // Post-shutdown: metrics are exact. Every request either
        // executed or was drained; nobody vanished.
        let m = service.metrics();
        assert_eq!(m.enqueued, m.completed + m.shed + m.shutdown_dropped);
        assert_eq!(m.rejected, 0);
    }
    // Service dropped: backend, nodes, and all deferred garbage freed.
    assert_eq!(LIVE.load(Ordering::SeqCst), 0, "leaked Counted values");
}

/// Idle workers must quiesce their epoch announcement: a service that
/// sits idle (workers parked between batches) cannot stall reclamation
/// for other users of the domain. Observable proxy: churn through the
/// service in waves with idle gaps, then verify everything is freed on
/// drop — a standing pin from an idle worker would have pinned whole
/// waves of garbage.
#[test]
fn idle_workers_do_not_pin_garbage() {
    static LIVE: AtomicIsize = AtomicIsize::new(0);
    let waves = if cfg!(miri) { 2 } else { 5 };
    let per_wave: u64 = if cfg!(miri) { 8 } else { 100 };
    {
        let service: AsyncList<u64, Counted> =
            ServiceBuilder::new().workers(2).batch_max(4).build_list();
        for _ in 0..waves {
            rt::block_on(async {
                for k in 0..per_wave {
                    service.insert(k, Counted::new(k, &LIVE)).await.unwrap();
                }
                for k in 0..per_wave {
                    service.remove(k).await.unwrap();
                }
            });
            // Let workers drain, quiesce, and park.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        service.shutdown();
    }
    assert_eq!(
        LIVE.load(Ordering::SeqCst),
        0,
        "idle pin kept garbage alive"
    );
}

/// The sharded service upholds the same structural invariant: its
/// futures — including the zero-copy `GetWithFuture` — are `Send` and
/// capture no guard or handle. The visitor closure runs on the worker,
/// inside `apply`, under the worker's pin; the future only ever holds
/// the result slot.
#[test]
fn sharded_futures_are_send() {
    fn assert_send<T: Send>(_: &T) {}
    let service: AsyncShardedMap<u64, String> = ServiceBuilder::new()
        .workers(2)
        .build(ShardedSkipList::new(4));
    let fut = service.get(1);
    assert_send(&fut);
    let gw = service.get_with(1, |v: &String| v.len());
    assert_send(&gw);
    assert_send(&service.insert(2, "x".into()));
    drop(fut);
    drop(gw);
    service.shutdown();
}

/// Drop-count audit over the sharded async path: point ops, zero-copy
/// `get_with` (which must hand out **no** clone at all), and futures
/// dropped unpolled or mid-flight. Anything leaked by a shard handle,
/// a detached visitor, or the shared reclamation domain shows up as a
/// nonzero count once the service (and with it every sibling shard) is
/// dropped.
#[test]
fn sharded_dropped_futures_leak_nothing() {
    static LIVE: AtomicIsize = AtomicIsize::new(0);
    let keys: u64 = if cfg!(miri) { 16 } else { 200 };
    {
        let service: AsyncShardedMap<u64, Counted> = ServiceBuilder::new()
            .workers(2)
            .queue_capacity(64)
            .batch_max(8)
            .policy(BackpressurePolicy::Block)
            .build(ShardedSkipList::new(8));

        rt::block_on(async {
            for k in 0..keys {
                assert_eq!(
                    service.insert(k, Counted::new(k, &LIVE)).await,
                    Ok(Response::Inserted(true))
                );
            }
            // Zero-copy reads: the visitor observes the value in place
            // and only its (plain) result crosses back. No clone is
            // created, so the live count cannot move here.
            let before = LIVE.load(Ordering::SeqCst);
            for k in 0..keys {
                let got = service.get_with(k, |v: &Counted| v.0).await.unwrap();
                assert_eq!(got, Some(k));
            }
            assert_eq!(
                LIVE.load(Ordering::SeqCst),
                before,
                "get_with must not clone values"
            );
            for k in 0..keys {
                let miss = service
                    .get_with(u64::MAX - k, |v: &Counted| v.0)
                    .await
                    .unwrap();
                assert_eq!(miss, None);
            }
            for k in 0..keys / 2 {
                let gone = service.remove(k).await.unwrap().into_value();
                assert_eq!(gone, Some(Counted::new(k, &LIVE)));
            }
        });

        // Futures dropped unpolled, then dropped mid-flight after the
        // first poll queued them (the detached visitor must die with
        // the cell, called or not).
        for k in 0..keys {
            drop(service.insert(1_000_000 + k, Counted::new(k, &LIVE)));
            drop(service.get_with(k, |v: &Counted| v.0));
        }
        for k in 0..keys {
            let mut f = service.insert(2_000_000 + k, Counted::new(k, &LIVE));
            let _ = poll_once(&mut f);
            drop(f);
            let mut g = service.get_with(2_000_000 + k, |v: &Counted| v.0);
            let _ = poll_once(&mut g);
            drop(g);
        }

        service.shutdown();
        let m = service.metrics();
        assert_eq!(m.enqueued, m.completed + m.shed + m.shutdown_dropped);
        assert_eq!(m.rejected, 0);
        // Per-shard attribution saw the routed ops (workers record
        // through their shard handles).
        let snap = service.backend().snapshot();
        assert!(snap.merged().ops > 0, "per-shard stats not recording");
    }
    assert_eq!(LIVE.load(Ordering::SeqCst), 0, "leaked Counted values");
}

/// The hash-map service upholds the same structural invariant as the
/// list/skip-list/sharded services: `Send` futures, no captured guard
/// or handle.
#[test]
fn hash_map_futures_are_send() {
    fn assert_send<T: Send>(_: &T) {}
    let service: AsyncHashMap<u64, String> =
        ServiceBuilder::new().workers(2).build(BucketMap::new(16));
    let fut = service.get(1);
    assert_send(&fut);
    let gw = service.get_with(1, |v: &String| v.len());
    assert_send(&gw);
    assert_send(&service.insert(2, "x".into()));
    drop(fut);
    drop(gw);
    service.shutdown();
}

/// Drop-count audit over the hash-map async path, mirroring the
/// sharded one: point ops, zero-copy `get_with`, futures dropped
/// unpolled and mid-flight. Bucket siblings share one reclamation
/// domain and one node pool, so a leak on *any* bucket's retire path
/// (or a block stranded in the shared pool holding a payload) shows up
/// once the service is dropped.
#[test]
fn hash_map_dropped_futures_leak_nothing() {
    static LIVE: AtomicIsize = AtomicIsize::new(0);
    let keys: u64 = if cfg!(miri) { 16 } else { 200 };
    {
        let service: AsyncHashMap<u64, Counted> = ServiceBuilder::new()
            .workers(2)
            .queue_capacity(64)
            .batch_max(8)
            .policy(BackpressurePolicy::Block)
            .build(BucketMap::new(16));

        rt::block_on(async {
            for k in 0..keys {
                assert_eq!(
                    service.insert(k, Counted::new(k, &LIVE)).await,
                    Ok(Response::Inserted(true))
                );
            }
            // Zero-copy reads hand out no clone at all.
            let before = LIVE.load(Ordering::SeqCst);
            for k in 0..keys {
                let got = service.get_with(k, |v: &Counted| v.0).await.unwrap();
                assert_eq!(got, Some(k));
            }
            assert_eq!(
                LIVE.load(Ordering::SeqCst),
                before,
                "get_with must not clone values"
            );
            for k in 0..keys / 2 {
                let gone = service.remove(k).await.unwrap().into_value();
                assert_eq!(gone, Some(Counted::new(k, &LIVE)));
            }
        });

        // Futures dropped unpolled, then dropped mid-flight.
        for k in 0..keys {
            drop(service.insert(1_000_000 + k, Counted::new(k, &LIVE)));
            drop(service.get_with(k, |v: &Counted| v.0));
        }
        for k in 0..keys {
            let mut f = service.insert(2_000_000 + k, Counted::new(k, &LIVE));
            let _ = poll_once(&mut f);
            drop(f);
            let mut g = service.get_with(2_000_000 + k, |v: &Counted| v.0);
            let _ = poll_once(&mut g);
            drop(g);
        }

        service.shutdown();
        let m = service.metrics();
        assert_eq!(m.enqueued, m.completed + m.shed + m.shutdown_dropped);
        assert_eq!(m.rejected, 0);
        // Per-bucket attribution saw the routed ops.
        let snap = service.backend().snapshot();
        assert!(snap.merged().ops > 0, "per-bucket stats not recording");
    }
    assert_eq!(LIVE.load(Ordering::SeqCst), 0, "leaked Counted values");
}
