//! Per-partition statistics for routed structures: `lf-map` credits
//! each op to its bucket, `lf-shard` to its shard.
//!
//! The cells are owner-only, the same registry idiom as the thread
//! shards in the crate root, but keyed by structure handle rather than
//! by thread. A [`PartitionStats`] lives in the structure; each handle
//! holds a [`PartitionRecorder`]. On its first [`record`] the recorder
//! registers one cell block in the structure's live list; every later
//! record is a relaxed load+store per counter, so hot partitions cost
//! no shared-line RMWs however many handles route to them. A dropping
//! recorder folds its block into the retired aggregate under the
//! registry mutex, and [`PartitionStats::snapshot`] sums the retired
//! aggregate and every live block under the same mutex, so each count
//! is seen exactly once.
//!
//! Only operation counts are kept per partition. The hop and CAS-retry
//! histograms are one pair per recorder, merged per structure instance:
//! nothing reads them per partition, and a ~58 KiB pair per partition
//! would cost hundreds of MiB on a map with thousands of buckets.
//!
//! [`record`]: PartitionRecorder::record

use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::{AtomicHistogram, Histogram, LocalSteps};

/// One recorder's cells. Cache-line aligned so two recorders' blocks
/// (each its own allocation) never share the line holding their
/// histogram totals.
#[repr(align(64))]
struct Cells {
    ops: Box<[AtomicU64]>,
    hops: AtomicHistogram,
    cas_retries: AtomicHistogram,
}

/// Every live recorder's block plus the folded counts of dropped ones.
struct Registry {
    live: Vec<Arc<Cells>>,
    retired_ops: Vec<u64>,
    retired: OpHistograms,
}

/// The statistics of one partitioned structure instance: `parts`
/// operation counters plus one hop and one CAS-retry histogram.
pub struct PartitionStats {
    parts: usize,
    reg: Mutex<Registry>,
}

impl PartitionStats {
    /// Statistics for a structure of `parts` partitions.
    #[must_use]
    pub fn new(parts: usize) -> Self {
        PartitionStats {
            parts,
            reg: Mutex::new(Registry {
                live: Vec::new(),
                retired_ops: vec![0; parts],
                retired: OpHistograms::default(),
            }),
        }
    }

    fn registry(&self) -> MutexGuard<'_, Registry> {
        // Critical sections only push, sum or fold; recover from a
        // poisoned lock rather than cascade it into every snapshot.
        self.reg.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A recorder for one handle. Registers nothing until its first
    /// [`record`](PartitionRecorder::record).
    #[must_use]
    pub fn recorder(&self) -> PartitionRecorder<'_> {
        PartitionRecorder {
            stats: self,
            cells: OnceCell::new(),
        }
    }

    fn register(&self) -> Arc<Cells> {
        let cells = Arc::new(Cells {
            ops: (0..self.parts).map(|_| AtomicU64::new(0)).collect(),
            hops: AtomicHistogram::new(),
            cas_retries: AtomicHistogram::new(),
        });
        self.registry().live.push(Arc::clone(&cells));
        cells
    }

    /// Per-partition op counts (with `occupancy(i)` filled in for
    /// partition `i`) and the instance's merged histograms. Racy-fresh
    /// while recorders run; exact once their owners are joined.
    pub fn snapshot(
        &self,
        mut occupancy: impl FnMut(usize) -> usize,
    ) -> (Vec<PartSnapshot>, OpHistograms) {
        let reg = self.registry();
        let mut ops = reg.retired_ops.clone();
        let mut hists = reg.retired.clone();
        for cells in &reg.live {
            for (sum, cell) in ops.iter_mut().zip(cells.ops.iter()) {
                // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
                *sum += cell.load(Ordering::Relaxed);
            }
            cells.hops.add_into(&mut hists.hops);
            cells.cas_retries.add_into(&mut hists.cas_retries);
        }
        drop(reg);
        let parts = ops
            .into_iter()
            .enumerate()
            .map(|(i, ops)| PartSnapshot {
                ops,
                occupancy: occupancy(i),
            })
            .collect();
        (parts, hists)
    }
}

/// One handle's writer into a [`PartitionStats`]. Owner-only: the
/// recorder is `!Sync`, so its cells have exactly one writer.
pub struct PartitionRecorder<'s> {
    stats: &'s PartitionStats,
    cells: OnceCell<Arc<Cells>>,
}

impl PartitionRecorder<'_> {
    /// Credit one routed operation, whose step delta is `steps`, to
    /// partition `part`.
    #[inline]
    pub fn record(&self, part: usize, steps: LocalSteps) {
        let cells = self.cells.get_or_init(|| self.stats.register());
        let ops = &cells.ops[part];
        // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
        ops.store(ops.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        cells.hops.record_owner(steps.curr_updates);
        cells.cas_retries.record_owner(steps.cas_failures);
    }
}

impl Drop for PartitionRecorder<'_> {
    fn drop(&mut self) {
        let Some(cells) = self.cells.take() else {
            return;
        };
        let mut reg = self.stats.registry();
        reg.live.retain(|c| !Arc::ptr_eq(c, &cells));
        let reg = &mut *reg;
        for (sum, cell) in reg.retired_ops.iter_mut().zip(cells.ops.iter()) {
            // ord: Relaxed — MET.shard: single-writer counter, snapshots racy-fresh
            *sum += cell.load(Ordering::Relaxed);
        }
        cells.hops.add_into(&mut reg.retired.hops);
        cells.cas_retries.add_into(&mut reg.retired.cas_retries);
    }
}

/// Point-in-time statistics of one partition: racy-fresh while writers
/// run, exact once they are joined.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PartSnapshot {
    /// Operations routed to this partition since creation.
    pub ops: u64,
    /// Keys resident in the partition when the snapshot was taken.
    pub occupancy: usize,
}

/// The hop and CAS-retry distributions of every op on one structure
/// instance.
#[derive(Clone, Debug, Default)]
pub struct OpHistograms {
    /// Search hops (`curr` advances) per routed operation.
    pub hops: Histogram,
    /// Failed C&S attempts per routed operation.
    pub cas_retries: Histogram,
}

impl OpHistograms {
    /// Fold `parts` into one structure-wide total carrying these
    /// histograms: counts and occupancies sum.
    #[must_use]
    pub fn merged(&self, parts: &[PartSnapshot]) -> PartTotals {
        PartTotals {
            ops: parts.iter().map(|p| p.ops).sum(),
            occupancy: parts.iter().map(|p| p.occupancy).sum(),
            hops: self.hops.clone(),
            cas_retries: self.cas_retries.clone(),
        }
    }
}

/// A whole structure's statistics: the sum over its partitions.
#[derive(Clone, Debug)]
pub struct PartTotals {
    /// Operations routed to any partition.
    pub ops: u64,
    /// Keys resident in all partitions.
    pub occupancy: usize,
    /// Search hops (`curr` advances) per routed operation.
    pub hops: Histogram,
    /// Failed C&S attempts per routed operation.
    pub cas_retries: Histogram,
}

/// Largest partition's share of the routed ops, in `[1/P, 1.0]` (0 if
/// no ops): the contention balance check, `1/P` being perfectly even.
#[must_use]
pub fn max_ops_share(parts: &[PartSnapshot]) -> f64 {
    max_share(parts.iter().map(|p| p.ops))
}

/// Largest partition's share of the resident keys, in `[1/P, 1.0]` (0
/// if empty): the chain-length balance check.
#[must_use]
pub fn max_occupancy_share(parts: &[PartSnapshot]) -> f64 {
    max_share(parts.iter().map(|p| p.occupancy as u64))
}

fn max_share(values: impl Iterator<Item = u64> + Clone) -> f64 {
    let total: u64 = values.clone().sum();
    if total == 0 {
        return 0.0;
    }
    values.max().unwrap_or(0) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps(hops: u64, retries: u64) -> LocalSteps {
        LocalSteps {
            curr_updates: hops,
            cas_failures: retries,
            ..LocalSteps::default()
        }
    }

    #[test]
    fn recorders_sum_across_live_and_dropped() {
        let stats = PartitionStats::new(3);
        let a = stats.recorder();
        let b = stats.recorder();
        a.record(0, steps(2, 0));
        a.record(2, steps(4, 1));
        b.record(2, steps(1, 0));
        let (parts, h) = stats.snapshot(|i| i * 10);
        assert_eq!(
            parts
                .iter()
                .map(|p| (p.ops, p.occupancy))
                .collect::<Vec<_>>(),
            [(1, 0), (0, 10), (2, 20)]
        );
        assert_eq!(h.hops.count(), 3);
        assert_eq!(h.hops.sum(), 7);
        assert_eq!(h.cas_retries.sum(), 1);
        // Dropping a recorder folds it exactly once.
        drop(a);
        let (after, h2) = stats.snapshot(|i| i * 10);
        assert_eq!(after, parts);
        assert_eq!((h2.hops.count(), h2.hops.sum()), (3, 7));
        assert_eq!(stats.registry().live.len(), 1);
    }

    #[test]
    fn unused_recorder_registers_nothing() {
        let stats = PartitionStats::new(2);
        drop(stats.recorder());
        assert!(stats.registry().live.is_empty());
        let (parts, h) = stats.snapshot(|_| 0);
        assert_eq!(parts, [PartSnapshot::default(); 2]);
        assert_eq!(h.hops.count(), 0);
    }

    #[test]
    fn merged_and_shares() {
        let parts = [
            PartSnapshot {
                ops: 3,
                occupancy: 1,
            },
            PartSnapshot {
                ops: 1,
                occupancy: 3,
            },
        ];
        let m = OpHistograms::default().merged(&parts);
        assert_eq!((m.ops, m.occupancy), (4, 4));
        assert_eq!(max_ops_share(&parts), 0.75);
        assert_eq!(max_occupancy_share(&parts), 0.75);
        assert_eq!(max_ops_share(&[]), 0.0);
    }
}
