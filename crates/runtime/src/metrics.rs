//! Per-stage timing and queue-depth metrics for a pipeline run.
//!
//! Every job records its stage and busy time into a shared
//! [`RunMetrics`] — a thin facade over a per-run
//! [`tempstream_obsv::Registry`] whose span handles are atomics, so the
//! job completion path stays lock-free; at the end of a run the
//! executor folds in queue high-water marks and renders a
//! [`RunSummary`]. The summary goes to stderr so the
//! determinism gate can diff stdout byte-for-byte.

use std::fmt;
use std::time::Duration;
use tempstream_obsv::{fracf, Registry, SpanStat};

/// The pipeline stage a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Workload emission fused into memory-system simulation (trace
    /// collection).
    Simulate,
    /// Trace analyses (streams / strides / origins / functions).
    Analyze,
    /// Ordinal-keyed merge of analysis partials.
    Reduce,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 3] = [Stage::Simulate, Stage::Analyze, Stage::Reduce];

    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Simulate => "simulate",
            Stage::Analyze => "analyze",
            Stage::Reduce => "reduce",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Shared metric sinks for one pipeline run.
///
/// Internally a private [`Registry`] with one span per stage (keyed
/// `stage/<name>`) — per-run so concurrent pipelines never mix
/// counters, and snapshot-able for the metrics JSON export.
#[derive(Debug)]
pub struct RunMetrics {
    registry: Registry,
    stages: [SpanStat; 3],
}

impl Default for RunMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl RunMetrics {
    /// Creates a zeroed metrics sink.
    pub fn new() -> Self {
        let registry = Registry::new();
        let stages = Stage::ALL.map(|s| registry.span(&format!("stage/{}", s.name())));
        RunMetrics { registry, stages }
    }

    /// The per-run registry backing the stage spans; snapshot it for
    /// structured export.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one finished job of `stage` that ran for `busy`.
    pub fn record(&self, stage: Stage, busy: Duration) {
        self.stages[stage.index()].record(busy);
    }

    /// Runs `f` and records its wall time against `stage`.
    pub fn time<T>(&self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.record(stage, start.elapsed());
        out
    }

    /// Snapshots the per-stage counters into a summary.
    pub fn summarize(
        &self,
        workers: usize,
        wall: Duration,
        max_injector_depth: usize,
        max_deque_depth: usize,
    ) -> RunSummary {
        let stages = Stage::ALL.map(|s| {
            let span = &self.stages[s.index()];
            StageSummary {
                stage: s,
                jobs: span.count() as usize,
                busy: span.total(),
                max_job: span.max(),
            }
        });
        RunSummary {
            workers,
            wall,
            stages,
            max_injector_depth,
            max_deque_depth,
        }
    }
}

/// Aggregate timing for one stage.
#[derive(Debug, Clone, Copy)]
pub struct StageSummary {
    /// The stage.
    pub stage: Stage,
    /// Jobs that ran in this stage.
    pub jobs: usize,
    /// Total busy time across all jobs (can exceed wall time when the
    /// stage ran on several workers at once).
    pub busy: Duration,
    /// Longest single job.
    pub max_job: Duration,
}

/// Everything the executor reports about one run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Worker threads in the pool.
    pub workers: usize,
    /// End-to-end wall-clock time of the run.
    pub wall: Duration,
    /// Per-stage aggregates, in pipeline order.
    pub stages: [StageSummary; 3],
    /// Injector-queue depth high-water mark.
    pub max_injector_depth: usize,
    /// Worker-deque depth high-water mark.
    pub max_deque_depth: usize,
}

impl RunSummary {
    /// Total busy time across all stages.
    pub fn total_busy(&self) -> Duration {
        self.stages.iter().map(|s| s.busy).sum()
    }

    /// Busy-time / (wall × workers): 1.0 means every worker was busy
    /// for the whole run. Every job runs on a pool worker, so the ratio
    /// cannot exceed 1.0; `workers` is the requested count, so on a host
    /// with fewer cores than that the ratio reads low.
    pub fn utilization(&self) -> f64 {
        fracf(
            self.total_busy().as_secs_f64(),
            self.wall.as_secs_f64() * self.workers as f64,
        )
    }
}

impl fmt::Display for RunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline summary: {} workers, wall {:.2}s, utilization {:.2}",
            self.workers,
            self.wall.as_secs_f64(),
            self.utilization()
        )?;
        writeln!(
            f,
            "  {:<10} {:>6} {:>10} {:>10}",
            "stage", "jobs", "busy (s)", "max job(s)"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "  {:<10} {:>6} {:>10.2} {:>10.2}",
                s.stage.name(),
                s.jobs,
                s.busy.as_secs_f64(),
                s.max_job.as_secs_f64()
            )?;
        }
        write!(
            f,
            "  queue depth: injector max {}, worker deque max {}",
            self.max_injector_depth, self.max_deque_depth
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_stage() {
        let m = RunMetrics::new();
        m.record(Stage::Simulate, Duration::from_millis(5));
        m.record(Stage::Simulate, Duration::from_millis(7));
        m.record(Stage::Reduce, Duration::from_millis(11));
        let s = m.summarize(4, Duration::from_millis(20), 9, 5);
        assert_eq!(s.stages[0].jobs, 2);
        assert_eq!(s.stages[0].busy, Duration::from_millis(12));
        assert_eq!(s.stages[0].max_job, Duration::from_millis(7));
        assert_eq!(s.stages[2].jobs, 1);
        assert_eq!(s.stages[1].jobs, 0);
        assert_eq!((s.max_injector_depth, s.max_deque_depth), (9, 5));
        assert!(s.utilization() > 0.0);
    }

    #[test]
    fn summary_renders_every_stage() {
        let m = RunMetrics::new();
        m.time(Stage::Reduce, || {
            std::thread::sleep(Duration::from_millis(1));
        });
        let text = m.summarize(2, Duration::from_millis(2), 0, 0).to_string();
        for stage in Stage::ALL {
            assert!(text.contains(stage.name()), "missing {}", stage.name());
        }
        assert!(text.contains("queue depth"));
    }
}
