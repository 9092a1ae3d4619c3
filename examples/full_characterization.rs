//! Full single-workload characterization: every figure and table the
//! paper reports, for one workload.
//!
//! ```text
//! cargo run --release --example full_characterization [workload] [--paper]
//! ```
//!
//! `workload` is one of `apache`, `zeus`, `oltp`, `q1`, `q2`, `q17`
//! (default `oltp`). With `--paper` the full-scale systems are used
//! (tens of seconds); otherwise a reduced configuration runs in seconds.

use tempstream_core::experiment::ExperimentConfig;
use tempstream_core::report::{format_length_cdf, format_origin_table, format_reuse_pdf};
use tempstream_runtime::{run_workloads, RuntimeConfig};
use tempstream_workloads::Workload;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = match args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map_or("oltp", String::as_str)
    {
        "apache" => Workload::Apache,
        "zeus" => Workload::Zeus,
        "oltp" | "db2" => Workload::Oltp,
        "q1" => Workload::DssQ1,
        "q2" => Workload::DssQ2,
        "q17" => Workload::DssQ17,
        other => {
            eprintln!("unknown workload {other}; use apache|zeus|oltp|q1|q2|q17");
            std::process::exit(2);
        }
    };
    let config = if args.iter().any(|a| a == "--paper") {
        ExperimentConfig::paper()
    } else {
        ExperimentConfig::quick()
    };

    println!("== {workload}: {}", workload.spec().paper_config);
    println!("   modeled as: {}", workload.spec().model_config);
    let rt = RuntimeConfig::with_workers(RuntimeConfig::default_workers());
    let (mut results, _summary) = run_workloads(&config, rt, &[workload]);
    let results = results.remove(0);

    println!("\n-- Figure 1 (left): off-chip misses / 1000 instructions");
    println!("multi-chip:\n{}", results.multi_chip.breakdown);
    println!("single-chip:\n{}", results.single_chip.breakdown);
    println!("\n-- Figure 1 (right): intra-chip misses / 1000 instructions");
    println!("{}", results.intra_chip.breakdown);

    println!("\n-- Figure 2: fraction of misses in temporal streams");
    for (ctx, s) in [
        ("multi-chip ", &results.multi_chip.streams),
        ("single-chip", &results.single_chip.streams),
        ("intra-chip ", &results.intra_chip.streams),
    ] {
        println!("  {ctx}: {}", s.stream_fraction);
    }

    println!("\n-- Figure 3: strides and temporal streams");
    for (ctx, s) in [
        ("multi-chip", &results.multi_chip.streams),
        ("single-chip", &results.single_chip.streams),
        ("intra-chip", &results.intra_chip.streams),
    ] {
        println!("{ctx}:\n{}", s.stride_joint);
    }

    println!("\n-- Figure 4 (left): stream length CDF (multi-chip)");
    print!(
        "{}",
        format_length_cdf(&results.multi_chip.streams.length_cdf)
    );
    println!("-- Figure 4 (right): reuse distance PDF (multi-chip)");
    print!(
        "{}",
        format_reuse_pdf(&results.multi_chip.streams.reuse_pdf)
    );

    println!("\n-- Stream origins (Tables 3-5 layout), multi-chip:");
    print!(
        "{}",
        format_origin_table(&results.multi_chip.streams.origins)
    );
    println!("-- Stream origins, single-chip:");
    print!(
        "{}",
        format_origin_table(&results.single_chip.streams.origins)
    );
    println!("-- Stream origins, intra-chip:");
    print!(
        "{}",
        format_origin_table(&results.intra_chip.streams.origins)
    );
}
