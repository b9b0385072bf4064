//! Benchmark and experiment harness.
//!
//! Defines a multi-threaded workload [`runner`] that drives any
//! [`lf_core::Dict`] (the Fomitchev–Ruppert list and skip list, the
//! partitioned tiers, and every baseline), and one module per
//! experiment of `DESIGN.md` §5. The `experiments` binary
//! prints each experiment's table; the Criterion benches in `benches/`
//! cover the wall-clock comparisons.

pub mod experiments;
pub mod resp_client;
pub mod runner;
pub mod table;

pub use runner::{apply_op, run_mixed, Lookup, RunConfig, RunResult};
pub use table::Table;
