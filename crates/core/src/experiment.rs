//! Experiment configuration and the result types of the paper's full
//! characterization: workload × system context.
//!
//! For each workload the pipeline builds two independent simulations
//! (the 16-node multi-chip system and the 4-core single-chip system),
//! warms them without recording (the paper warms for thousands of
//! transactions before tracing), records the measured phase, and runs
//! the stream, stride, distribution, and origin analyses over the three
//! resulting traces (multi-chip off-chip, single-chip off-chip,
//! intra-chip).
//!
//! The stages themselves are the pure functions in [`crate::stages`];
//! `tempstream_runtime::run_workloads` composes them into a job DAG and
//! assembles a [`WorkloadResults`] per workload.

use crate::distribution::{LengthCdf, ReuseDistancePdf};
use crate::functions::FunctionTable;
use crate::origins::OriginTable;
use crate::report::{
    IntraClassBreakdown, MissClassBreakdown, StreamFractionReport, StrideJointReport,
};
use tempstream_coherence::{MultiChipConfig, SingleChipConfig};
use tempstream_workloads::{Scale, Workload};

/// Experiment parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Workload-generation seed.
    pub seed: u64,
    /// Multi-chip system geometry.
    pub multi_chip: MultiChipConfig,
    /// Single-chip system geometry.
    pub single_chip: SingleChipConfig,
    /// Overrides each workload's default scale when set.
    pub scale_override: Option<Scale>,
    /// Cap on the misses fed to the SEQUITUR analysis (memory bound);
    /// class breakdowns always use the full trace.
    pub max_analysis_misses: usize,
}

impl ExperimentConfig {
    /// The paper's systems at the default measurement scale.
    pub fn paper() -> Self {
        ExperimentConfig {
            seed: 0x715C_2008,
            multi_chip: MultiChipConfig::paper(),
            single_chip: SingleChipConfig::paper(),
            scale_override: None,
            max_analysis_misses: 1_500_000,
        }
    }

    /// A reduced configuration for tests and doc examples: small caches,
    /// fewer nodes, smoke-scale workloads.
    pub fn quick() -> Self {
        ExperimentConfig {
            seed: 7,
            multi_chip: MultiChipConfig::small(8),
            single_chip: SingleChipConfig::small(4),
            scale_override: Some(Scale {
                warmup_ops: 30,
                ops: 250,
            }),
            max_analysis_misses: 200_000,
        }
    }

    /// Returns `self` with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns `self` with a scale override.
    pub fn with_scale(mut self, scale: Scale) -> Self {
        self.scale_override = Some(scale);
        self
    }
}

/// Stream/stride/origin results shared by all three contexts.
#[derive(Debug, Clone)]
pub struct StreamResults {
    /// Figure 2 segments.
    pub stream_fraction: StreamFractionReport,
    /// Figure 3 joint breakdown.
    pub stride_joint: StrideJointReport,
    /// Figure 4 (left).
    pub length_cdf: LengthCdf,
    /// Figure 4 (right).
    pub reuse_pdf: ReuseDistancePdf,
    /// Tables 3-5 rows.
    pub origins: OriginTable,
    /// Per-function drill-down behind the origin table (§5 narrative).
    pub functions: FunctionTable,
    /// Distinct streams found by SEQUITUR.
    pub distinct_streams: usize,
    /// Misses fed to the stream analysis (may be capped).
    pub analyzed_misses: usize,
}

/// Results for one off-chip context (multi-chip or single-chip).
#[derive(Debug, Clone)]
pub struct OffChipResults {
    /// Figure 1 (left) bars.
    pub breakdown: MissClassBreakdown,
    /// Figure 2/3/4 and the origin table.
    pub streams: StreamResults,
    /// Total recorded misses (before any analysis cap).
    pub total_misses: usize,
}

/// Results for the intra-chip context.
#[derive(Debug, Clone)]
pub struct IntraChipResults {
    /// Figure 1 (right) bars.
    pub breakdown: IntraClassBreakdown,
    /// Figure 2/3/4 and the origin table.
    pub streams: StreamResults,
    /// Total recorded misses.
    pub total_misses: usize,
}

/// All three contexts for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadResults {
    /// The workload analyzed.
    pub workload: Workload,
    /// Off-chip misses of the 16-node DSM.
    pub multi_chip: OffChipResults,
    /// Off-chip misses of the 4-core CMP.
    pub single_chip: OffChipResults,
    /// On-chip-satisfied L1 misses of the CMP.
    pub intra_chip: IntraChipResults,
}
