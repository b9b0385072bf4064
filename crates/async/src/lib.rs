//! Async serving façade over the Fomitchev–Ruppert structures.
//!
//! `lf-core`'s handles are synchronous and deliberately not `Send`:
//! they own an epoch-collector registration whose amortized
//! announcement must stay on one thread. Request-per-task runtimes
//! want the opposite — cheap `Send` futures that can migrate executor
//! threads between polls. This crate bridges the two with a
//! *submission service*:
//!
//! * [`Service<D>`](Service) fronts any [`Dict`] — the FR list and skip
//!   list ([`AsyncList`] / [`AsyncSkipList`]), the partitioned tiers
//!   ([`AsyncShardedMap`] / [`AsyncHashMap`]), or a caller's own — and
//!   exposes `get`/`insert`/`remove`/`contains` as [`OpFuture`]s that
//!   are `Send` and hold **no epoch guard across any `.await`** — the
//!   pin-per-poll invariant (DESIGN.md §10). Futures are pure
//!   completion-waiters; all structure access happens on lane workers.
//! * Each worker owns one **sharded MPSC submission lane**: a
//!   `CachePadded`, sequence-numbered bounded ring. Workers drain up
//!   to `batch_max` requests at a time and execute them through a
//!   thread-local handle whose epoch announcement is amortized across
//!   the whole batch — one pin per drained batch, preserving the
//!   paper's amortized `O(n(S) + c(S))` per request. A partitioned
//!   structure ([`Dict::partition_of`]) pins each key to the lane that
//!   owns its partition.
//! * Full lanes apply a configurable [`BackpressurePolicy`]: `Block`
//!   (suspend the submitter), `Reject` (fail fast), or `Shed` (evict
//!   the oldest queued request).
//! * [`Service::shutdown`] drains in-flight batches, resolves
//!   everything still queued with [`Error::Shutdown`], quiesces the
//!   epoch domain, and joins the workers. It is idempotent and also
//!   runs on drop.
//! * [`Service::metrics`] exposes queue-depth, batch-size, and
//!   enqueue-to-complete latency histograms through `lf-metrics`'
//!   JSON/Prometheus exporters.
//!
//! The crate is runtime-agnostic: futures work under any executor
//! (`lf-sched`'s hand-rolled `rt::block_on` is enough — no tokio).
//!
//! # Example
//!
//! ```
//! use lf_async::{Response, ServiceBuilder};
//! use lf_sched::rt;
//!
//! let service = ServiceBuilder::new().workers(1).build_list::<u64, u64>();
//! rt::block_on(async {
//!     assert_eq!(service.insert(1, 10).await, Ok(Response::Inserted(true)));
//!     assert_eq!(service.get(1).await, Ok(Response::Value(Some(10))));
//!     assert_eq!(service.remove(1).await, Ok(Response::Removed(Some(10))));
//! });
//! service.shutdown();
//! ```

pub mod metrics;
mod op;
mod ring;
mod service;

pub use lf_core::{Dict, DictHandle};
pub use metrics::{ServiceMetrics, ServiceSnapshot};
pub use op::{Error, GetWithVisitor, Request, Response, ScanSlot};
pub use service::{
    install_stall_hook, AsyncHashMap, AsyncList, AsyncShardedMap, AsyncSkipList,
    BackpressurePolicy, GetWithFuture, LaneFuture, OpFuture, ScanFuture, Service, ServiceBuilder,
};
