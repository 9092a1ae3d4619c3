//! Temporal-stream characterization of commercial server applications.
//!
//! This crate is the top of the reproduction stack for Wenisch et al.,
//! *Temporal Streams in Commercial Server Applications* (IISWC 2008). It
//! turns classified read-miss traces (produced by `tempstream-coherence`
//! from `tempstream-workloads` access streams) into the paper's analyses:
//!
//! - [`streams`] — SEQUITUR-based temporal-stream identification: which
//!   misses belong to the first (*New*) or a later (*Recurring*)
//!   occurrence of a repeated miss sequence, stream-length distributions,
//!   and reuse distances measured in intervening misses on the first
//!   processor;
//! - [`stride`] — constant-stride run detection, orthogonal to
//!   repetitiveness (Figure 3's joint breakdown);
//! - [`distribution`] — weighted CDF / log-binned PDF helpers used by
//!   Figure 4;
//! - [`origins`] — code-module attribution (Tables 3-5) and
//!   [`functions`] — the finer per-function view behind §5's narrative;
//! - [`spatial`] — spatial-pattern (SMS-style) predictability, the
//!   companion phenomenon the intro contrasts streams with;
//! - [`report`] — typed report structures with `Display` impls that print
//!   the paper's figures and tables;
//! - [`experiment`] — the experiment configuration and the result types
//!   of the full characterization (workload × system context);
//! - [`stages`] — the pure emit/simulate/analyze stage functions that
//!   the `tempstream-runtime` executor composes into that
//!   characterization;
//! - [`engine`] — the unified incremental [`AnalysisEngine`] all of the
//!   above analyze on: the batch stages feed it all-then-snapshot, the
//!   online server (`tempstream-serve`) feeds it record by record, and
//!   both read the same version-memoized snapshot accessors.
//!
//! # Quickstart
//!
//! ```no_run
//! use tempstream_core::ExperimentConfig;
//! use tempstream_runtime::{run_workloads, RuntimeConfig};
//! use tempstream_workloads::Workload;
//!
//! let cfg = ExperimentConfig::quick();
//! let rt = RuntimeConfig::with_workers(2);
//! let (results, _summary) = run_workloads(&cfg, rt, &[Workload::Apache]);
//! println!("{}", results[0].multi_chip.streams.stream_fraction);
//! ```

pub mod distribution;
pub mod engine;
pub mod experiment;
pub mod functions;
pub mod origins;
pub mod report;
pub mod spatial;
pub mod stages;
pub mod streams;
pub mod stride;

pub use engine::AnalysisEngine;
pub use experiment::{ExperimentConfig, WorkloadResults};
pub use streams::{StreamAnalysis, StreamLabel};
pub use stride::StrideDetector;
