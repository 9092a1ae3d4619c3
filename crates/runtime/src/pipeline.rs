//! The reproduction as a DAG of jobs on the work-stealing pool.
//!
//! Per workload × system context, the DAG is:
//!
//! ```text
//! Simulate(system) ──▶ Analyze(Streams) ──▶ Analyze(Origins)
//!        │                    └──────────▶ Analyze(Functions)
//!        └──────────────────▶ Analyze(Strides)
//! ```
//!
//! and a final ordinal-keyed **Reduce** merges every partial into
//! [`WorkloadResults`].
//!
//! Each simulate job runs its workload's emit stage fused into the
//! simulator (`tempstream_core::stages::collect_*`), one per system:
//! the multi-chip job yields one trace, the single-chip job two (its
//! off-chip and intra-chip misses). It banks the full-trace class
//! breakdown, truncates each trace to the analysis cap, and spawns that
//! context's analyses over one `Arc`-shared [`MissTrace`]; the trace is
//! freed when the last of them finishes. The concurrency is *across*
//! workloads and contexts; a job itself is single-threaded.
//!
//! **Determinism:** every job is a pure function of its inputs, which
//! come from the deterministic stages of `tempstream_core::stages`;
//! every partial lands in a write-once slot keyed by (workload ordinal,
//! context), and the reducer walks those keys in ascending order, never
//! arrival order. The assembled results are therefore bit-identical at
//! any worker count and under any scheduling order.

use crate::metrics::{RunMetrics, RunSummary, Stage};
use crate::pool::{self, Worker};
use crate::sync::{thread, Arc, Mutex};
use std::time::Instant;
use tempstream_core::experiment::{
    ExperimentConfig, IntraChipResults, OffChipResults, StreamResults, WorkloadResults,
};
use tempstream_core::report::{IntraClassBreakdown, MissClassBreakdown};
use tempstream_core::stages::{self, StreamsPartial};
use tempstream_core::streams::StreamLabel;
use tempstream_trace::{MissTrace, SymbolTable};
use tempstream_workloads::Workload;

/// Executor parameters.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Requested worker threads (clamped to at least 1). The pool never
    /// spawns more threads than the host's available parallelism —
    /// oversubscription only costs context switches — so this is an
    /// upper bound, reported as-is in the run summary.
    pub workers: usize,
}

impl RuntimeConfig {
    /// A configuration with `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig {
            workers: workers.max(1),
        }
    }

    /// The host's available parallelism (the `--jobs` default).
    pub fn default_workers() -> usize {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// A write-once slot for one partial result.
struct Cell<T>(Mutex<Option<T>>);

impl<T> Cell<T> {
    fn new() -> Self {
        Cell(Mutex::new(None))
    }

    fn set(&self, value: T) {
        let prev = self.0.lock().replace(value);
        assert!(prev.is_none(), "partial result produced twice");
    }

    fn take(&self) -> T {
        self.0
            .lock()
            .take()
            .expect("partial result missing at reduction")
    }
}

/// All partials for one (workload, context) pair, filled in by jobs and
/// drained by the reducer. `B` is the context's class breakdown.
struct ContextSlot<B> {
    /// The simulate stage's contribution: the full-trace class
    /// breakdown and the total miss count.
    collected: Cell<(B, usize)>,
    streams: Cell<StreamsPartial>,
    flags: Cell<Vec<bool>>,
    origins: Cell<tempstream_core::origins::OriginTable>,
    functions: Cell<tempstream_core::functions::FunctionTable>,
}

impl<B> ContextSlot<B> {
    fn new() -> Self {
        ContextSlot {
            collected: Cell::new(),
            streams: Cell::new(),
            flags: Cell::new(),
            origins: Cell::new(),
            functions: Cell::new(),
        }
    }

    /// Takes every partial: the breakdown, the total miss count, and the
    /// assembled stream results.
    fn take(&self) -> (B, usize, StreamResults) {
        let (breakdown, total_misses) = self.collected.take();
        let streams = self.streams.take();
        let analyzed = streams.labels.len();
        let results = stages::assemble_stream_results(
            streams,
            &self.flags.take(),
            self.origins.take(),
            self.functions.take(),
            analyzed,
        );
        (breakdown, total_misses, results)
    }
}

struct WorkloadSlots {
    multi_chip: ContextSlot<MissClassBreakdown>,
    single_chip: ContextSlot<MissClassBreakdown>,
    intra_chip: ContextSlot<IntraClassBreakdown>,
}

impl WorkloadSlots {
    fn new() -> Self {
        WorkloadSlots {
            multi_chip: ContextSlot::new(),
            single_chip: ContextSlot::new(),
            intra_chip: ContextSlot::new(),
        }
    }
}

/// Runs `workloads` through the full pipeline on up to `rt.workers`
/// threads (never more than the host's available parallelism).
///
/// Returns the per-workload results **in input order**, bit-identical
/// at any worker count, plus the run's per-stage summary.
///
/// # Panics
///
/// Re-raises the first panic of a workload, simulator or analysis job
/// after the pool drains.
pub fn run_workloads(
    cfg: &ExperimentConfig,
    rt: RuntimeConfig,
    workloads: &[Workload],
) -> (Vec<WorkloadResults>, RunSummary) {
    let start = Instant::now();
    let metrics = RunMetrics::new();
    let slots: Vec<WorkloadSlots> = workloads.iter().map(|_| WorkloadSlots::new()).collect();

    // Pipeline jobs are CPU-bound, so a worker thread beyond the core
    // count has nothing to overlap with and only adds context-switch
    // and cache-eviction cost. The pool gets at most one thread per
    // available core, whatever was requested; results are bit-identical
    // at any thread count either way.
    let threads = rt.workers.min(RuntimeConfig::default_workers());
    let (injector_depth, deque_depth) = pool::scope(threads, |p| {
        let cfg = *cfg;
        let (slots, metrics) = (&slots, &metrics);
        for (&workload, slots) in workloads.iter().zip(slots) {
            p.spawn(move |w| simulate_multi_chip(w, &cfg, workload, slots, metrics));
            p.spawn(move |w| simulate_single_chip(w, &cfg, workload, slots, metrics));
        }
        p.join();
        (p.injector_max_depth(), p.worker_max_depth())
    });

    // Ordinal-keyed reduction: every partial is taken from its slot in
    // workload order, never in arrival order.
    let results = metrics.time(Stage::Reduce, || {
        workloads
            .iter()
            .zip(&slots)
            .map(|(&workload, slots)| reduce_workload(workload, slots))
            .collect::<Vec<_>>()
    });

    let summary = metrics.summarize(rt.workers, start.elapsed(), injector_depth, deque_depth);
    (results, summary)
}

fn simulate_multi_chip<'env>(
    w: &Worker<'_, 'env>,
    cfg: &ExperimentConfig,
    workload: Workload,
    slots: &'env WorkloadSlots,
    metrics: &'env RunMetrics,
) {
    let t0 = Instant::now();
    let (mut trace, symbols) = stages::collect_multi_chip(cfg, workload);
    let slot = &slots.multi_chip;
    slot.collected
        .set((MissClassBreakdown::of_trace(&trace), trace.len()));
    // Everything downstream reads at most the analysis cap; dropping
    // the excess now (breakdown and total are already banked) shrinks
    // RSS while the analyses run.
    trace.truncate(cfg.max_analysis_misses);
    metrics.record(Stage::Simulate, t0.elapsed());
    spawn_analyses(
        w,
        slot,
        workload,
        Arc::new(trace),
        Arc::new(symbols),
        metrics,
    );
}

fn simulate_single_chip<'env>(
    w: &Worker<'_, 'env>,
    cfg: &ExperimentConfig,
    workload: Workload,
    slots: &'env WorkloadSlots,
    metrics: &'env RunMetrics,
) {
    let t0 = Instant::now();
    let (mut traces, symbols) = stages::collect_single_chip(cfg, workload);
    let symbols = Arc::new(symbols);

    let off = &traces.off_chip;
    slots
        .single_chip
        .collected
        .set((MissClassBreakdown::of_trace(off), off.len()));
    let intra = &traces.intra_chip;
    slots
        .intra_chip
        .collected
        .set((IntraClassBreakdown::of_trace(intra), intra.len()));

    // See `simulate_multi_chip`: downstream jobs only read the capped
    // prefix, so shed the excess first.
    traces.off_chip.truncate(cfg.max_analysis_misses);
    traces.intra_chip.truncate(cfg.max_analysis_misses);
    metrics.record(Stage::Simulate, t0.elapsed());

    let off = Arc::new(traces.off_chip);
    spawn_analyses(
        w,
        &slots.single_chip,
        workload,
        off,
        symbols.clone(),
        metrics,
    );
    let intra = Arc::new(traces.intra_chip);
    spawn_analyses(w, &slots.intra_chip, workload, intra, symbols, metrics);
}

/// Spawns the four analysis jobs for one collected context. `Streams`
/// spawns `Origins` and `Functions` the moment the labels exist;
/// `Strides` is independent.
fn spawn_analyses<'env, C, B: Send>(
    w: &Worker<'_, 'env>,
    slot: &'env ContextSlot<B>,
    workload: Workload,
    trace: Arc<MissTrace<C>>,
    symbols: Arc<SymbolTable>,
    metrics: &'env RunMetrics,
) where
    C: Copy + Send + Sync + 'static,
{
    {
        let trace = trace.clone();
        w.spawn(move |w2| {
            metrics.time(Stage::Analyze, || {
                let partial = stages::analyze_streams(trace.records(), trace.num_cpus());
                // The partial shares its label vector behind an Arc, so
                // handing labels to the origin/function jobs is a
                // refcount bump, not a copy of ~10⁶ entries.
                let labels: Arc<Vec<StreamLabel>> = partial.labels.clone();
                slot.streams.set(partial);

                let (tr, sy, lb) = (trace.clone(), symbols.clone(), labels.clone());
                w2.spawn(move |_| {
                    metrics.time(Stage::Analyze, || {
                        slot.origins
                            .set(stages::analyze_origins(tr.records(), &lb, &sy, workload));
                    });
                });
                w2.spawn(move |_| {
                    metrics.time(Stage::Analyze, || {
                        slot.functions.set(stages::analyze_functions(
                            trace.records(),
                            &labels,
                            &symbols,
                        ));
                    });
                });
            });
        });
    }

    w.spawn(move |_| {
        metrics.time(Stage::Analyze, || {
            slot.flags
                .set(stages::analyze_strides(trace.records(), trace.num_cpus()));
        });
    });
}

/// Merges one workload's partials, in ascending context order.
fn reduce_workload(workload: Workload, slots: &WorkloadSlots) -> WorkloadResults {
    let off = |slot: &ContextSlot<MissClassBreakdown>| {
        let (breakdown, total_misses, streams) = slot.take();
        OffChipResults {
            breakdown,
            total_misses,
            streams,
        }
    };
    let multi_chip = off(&slots.multi_chip);
    let single_chip = off(&slots.single_chip);
    let (breakdown, total_misses, streams) = slots.intra_chip.take();
    WorkloadResults {
        workload,
        multi_chip,
        single_chip,
        intra_chip: IntraChipResults {
            breakdown,
            total_misses,
            streams,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a over the results' `Debug` text, the fold `perfbench` uses:
    /// `Debug` prints every counter and every float exactly, so equal
    /// digests mean bit-identical results.
    fn digest(results: &[WorkloadResults]) -> u64 {
        format!("{results:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// `ExperimentConfig::quick()` results for `[Apache, DssQ2]`, recorded
    /// with the serial runner that preceded this executor as the only
    /// way to run the pipeline. A change that alters any result, or
    /// makes it depend on the schedule, moves the digest.
    const QUICK_APACHE_DSSQ2: u64 = 0xfb70_aec7_97a3_8958;

    #[test]
    fn results_match_pinned_digest_at_any_worker_count() {
        let cfg = ExperimentConfig::quick();
        let workloads = [Workload::Apache, Workload::DssQ2];
        for workers in [1, 2, 4] {
            let (got, summary) =
                run_workloads(&cfg, RuntimeConfig::with_workers(workers), &workloads);
            assert_eq!(
                digest(&got),
                QUICK_APACHE_DSSQ2,
                "results diverged with {workers} workers"
            );
            assert_eq!(summary.workers, workers);
            assert!(summary.stages[1].jobs > 0, "no analyze jobs recorded");
        }
    }

    #[test]
    fn summary_reports_pipeline_shape() {
        let cfg = ExperimentConfig::quick();
        let (_, summary) = run_workloads(&cfg, RuntimeConfig::with_workers(2), &[Workload::Zeus]);
        // 2 simulate jobs (mc + sc), 12 analyze jobs (3 contexts × 4
        // analyses), 1 reduce call.
        assert_eq!(summary.stages[0].jobs, 2, "simulate jobs");
        assert_eq!(summary.stages[1].jobs, 12, "analyze jobs");
        assert_eq!(summary.stages[2].jobs, 1, "reduce batches");
        assert!(summary.wall.as_nanos() > 0);
    }

    #[test]
    fn fused_emit_records_no_emit_jobs() {
        // Emit is fused into simulate: the stage table has no emit row,
        // and each simulated system is one simulate job.
        let cfg = ExperimentConfig::quick();
        let (_, summary) = run_workloads(&cfg, RuntimeConfig::with_workers(2), &[Workload::Zeus]);
        assert_eq!(summary.stages.map(|s| s.stage), Stage::ALL);
        assert_eq!(
            Stage::ALL.map(Stage::name),
            ["simulate", "analyze", "reduce"]
        );
        assert_eq!(summary.stages[0].jobs, 2, "one simulate job per system");
        assert!(!summary.stages[0].busy.is_zero(), "simulate busy time");
    }
}
