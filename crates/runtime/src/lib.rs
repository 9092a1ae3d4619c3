//! # tempstream-runtime
//!
//! The executor of the reproduction pipeline: it runs the pure stage
//! functions of `tempstream_core::stages` as a DAG of jobs on a pool of
//! worker threads, and it is the only code that composes those stages
//! into the paper's characterization.
//!
//! * [`pool`] — the work-stealing thread pool: per-worker deques
//!   (owner pops LIFO, thieves steal FIFO) plus a shared injector
//!   queue, built on `std::thread` only.
//! * [`deque`] — the work-stealing deque the pool is built from.
//! * [`metrics`] — per-stage wall-clock and queue-depth accounting.
//! * [`pipeline`] — the reproduction DAG itself and its ordinal-keyed
//!   deterministic reduction.
//! * [`sync`] — the synchronization shim every other module goes
//!   through: `std` delegation in normal builds, and (behind the
//!   `schedcheck` feature) the cooperative scheduler that lets
//!   `tempstream-schedcheck` model-check the executor's interleavings.
//!
//! The headline guarantee: [`pipeline::run_workloads`] returns results
//! **bit-identical** at any worker count. See the [`pipeline`] module
//! docs for the argument.

pub mod deque;
pub mod metrics;
pub mod pipeline;
pub mod pool;
pub mod sync;

pub use metrics::{RunMetrics, RunSummary, Stage};
pub use pipeline::{run_workloads, RuntimeConfig};

// The executor moves these across worker threads; keep the bounds
// checked at compile time (see `tempstream_trace::assert_send_sync!`).
tempstream_trace::assert_send_sync!(RuntimeConfig, RunMetrics, RunSummary);
