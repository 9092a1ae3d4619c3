//! Quickstart: run one workload through both system organizations and
//! print the headline characterization.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tempstream_core::experiment::ExperimentConfig;
use tempstream_runtime::{run_workloads, RuntimeConfig};
use tempstream_trace::MissClass;
use tempstream_workloads::Workload;

fn main() {
    // `quick()` uses reduced caches and a smoke-scale run so this example
    // finishes in seconds; swap in `ExperimentConfig::paper()` for the
    // full 16-node / 4-core configuration.
    let config = ExperimentConfig::quick();

    let workload = Workload::Apache;
    println!("running {workload} ({})...", workload.spec().paper_config);
    let rt = RuntimeConfig::with_workers(RuntimeConfig::default_workers());
    let (mut results, _summary) = run_workloads(&config, rt, &[workload]);
    let results = results.remove(0);

    println!("\noff-chip miss classification (multi-chip):");
    println!("{}", results.multi_chip.breakdown);
    println!("\noff-chip miss classification (single-chip):");
    println!("{}", results.single_chip.breakdown);
    println!(
        "\nnote: single-chip off-chip coherence misses = {} (a CMP keeps \
         communication on chip)",
        results.single_chip.breakdown.count(MissClass::Coherence)
    );

    println!("\ntemporal streams (Figure 2 style):");
    for (ctx, s) in [
        ("multi-chip ", &results.multi_chip.streams),
        ("single-chip", &results.single_chip.streams),
        ("intra-chip ", &results.intra_chip.streams),
    ] {
        println!(
            "  {ctx}: {}  (distinct streams: {})",
            s.stream_fraction, s.distinct_streams
        );
    }

    let median = results
        .multi_chip
        .streams
        .length_cdf
        .median()
        .map_or("n/a".to_string(), |m| m.to_string());
    println!("\nmedian stream length (multi-chip): {median} misses");
}
