//! Regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce [all|table1|table2|fig1|fig2|fig3|fig4|table3|table4|table5]
//!           [--quick] [--seed N] [--jobs N] [--metrics-json PATH]
//! ```
//!
//! `--quick` runs reduced systems and smoke-scale workloads (seconds);
//! the default runs the paper configuration (16-node DSM + 4-core CMP,
//! 64 KB L1 / 8 MB L2) at full measurement scale. Every command that
//! needs results runs its workloads as one batch through
//! `tempstream_runtime::run_workloads`; `--jobs N` sets its worker
//! threads (default: the host's available parallelism). Results are
//! bit-identical at any `--jobs`, and the per-stage summary goes to
//! stderr so stdout can be diffed across job counts. `--metrics-json
//! PATH` additionally writes the run's observability registry (stage
//! spans, simulator miss-class counters, SEQUITUR grammar stats) as
//! JSON to PATH — stdout stays byte-identical with or without the flag.

use std::collections::HashMap;
use tempstream_core::experiment::{ExperimentConfig, WorkloadResults};
use tempstream_core::functions::format_function_table;
use tempstream_core::report::{format_length_cdf, format_origin_table, format_reuse_pdf};
use tempstream_obsv::{frac, json::Json};
use tempstream_runtime::{run_workloads, RunSummary, RuntimeConfig};
use tempstream_trace::{IntraChipClass, MissCategory, MissClass};
use tempstream_workloads::{spec, Workload};

/// Parsed command line: flags first, then one positional command.
struct Options {
    quick: bool,
    seed: Option<u64>,
    jobs: usize,
    metrics_json: Option<String>,
    cmd: String,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut quick = false;
    let mut seed = None;
    let mut jobs = None;
    let mut metrics_json = None;
    let mut positionals = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                let v = it.next().ok_or("--seed requires a value")?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("invalid --seed value: {v}"))?,
                );
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs requires a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid --jobs value: {v}"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".into());
                }
                jobs = Some(n);
            }
            "--metrics-json" => {
                let v = it.next().ok_or("--metrics-json requires a path")?;
                metrics_json = Some(v.clone());
            }
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            other => positionals.push(other.to_string()),
        }
    }
    if positionals.len() > 1 {
        return Err(format!(
            "expected at most one command, got: {}",
            positionals.join(" ")
        ));
    }
    Ok(Options {
        quick,
        seed,
        jobs: jobs.unwrap_or_else(RuntimeConfig::default_workers),
        metrics_json,
        cmd: positionals.pop().unwrap_or_else(|| "all".to_string()),
    })
}

/// The workloads a command touches through the [`Runner`] cache, run
/// up front as one batch. `None` means the command runs no workloads (or
/// manages its own, like `spatial` and `stability`).
fn workload_set(cmd: &str) -> Option<Vec<Workload>> {
    match cmd {
        "all" | "fig1" | "fig2" | "fig3" | "fig4" | "stats" | "functions" => {
            Some(Workload::ALL.to_vec())
        }
        "table3" => Some(vec![Workload::Apache, Workload::Zeus]),
        "table4" => Some(vec![Workload::Oltp]),
        "table5" => Some(vec![Workload::DssQ1, Workload::DssQ2, Workload::DssQ17]),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: reproduce [command] [--quick] [--seed N] [--jobs N] [--metrics-json PATH]\n\
                 commands: all table1 table2 fig1 fig2 fig3 fig4 table3 table4 table5 stats functions spatial stability"
            );
            std::process::exit(2);
        }
    };

    let mut cfg = if opts.quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper()
    };
    if let Some(s) = opts.seed {
        cfg = cfg.with_seed(s);
    }

    let mut runner = Runner::new(cfg, opts.jobs);
    if let Some(set) = workload_set(&opts.cmd) {
        runner.prefetch(&set);
    }
    match opts.cmd.as_str() {
        "table1" => print_table1(),
        "table2" => print_table2(),
        "fig1" => print_fig1(&mut runner),
        "fig2" => print_fig2(&mut runner),
        "fig3" => print_fig3(&mut runner),
        "fig4" => print_fig4(&mut runner),
        "table3" => print_table3(&mut runner),
        "table4" => print_table4(&mut runner),
        "table5" => print_table5(&mut runner),
        "stats" => print_stats(&mut runner),
        "functions" => print_functions(&mut runner),
        "spatial" => print_spatial(&cfg),
        "stability" => print_stability(&cfg, opts.jobs),
        "all" => {
            print_table1();
            print_table2();
            print_fig1(&mut runner);
            print_fig2(&mut runner);
            print_fig3(&mut runner);
            print_fig4(&mut runner);
            print_table3(&mut runner);
            print_table4(&mut runner);
            print_table5(&mut runner);
            print_stats(&mut runner);
            print_functions(&mut runner);
        }
        other => {
            eprintln!("unknown command: {other}");
            eprintln!(
            "commands: all table1 table2 fig1 fig2 fig3 fig4 table3 table4 table5 stats functions spatial stability"
        );
            std::process::exit(2);
        }
    }

    if let Some(path) = &opts.metrics_json {
        if let Err(e) = write_metrics_json(path, &opts, runner.last_summary.as_ref()) {
            eprintln!("error: could not write metrics to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[reproduce] metrics written to {path}");
    }
}

/// Serializes the global observability registry (plus run metadata and
/// the last pipeline summary, if any workloads ran) to `path`.
fn write_metrics_json(
    path: &str,
    opts: &Options,
    summary: Option<&RunSummary>,
) -> std::io::Result<()> {
    let mut meta = Json::obj();
    meta.set("command", Json::Str(opts.cmd.clone()));
    meta.set("quick", Json::Bool(opts.quick));
    meta.set("jobs", Json::UInt(opts.jobs as u64));
    if let Some(s) = opts.seed {
        meta.set("seed", Json::UInt(s));
    }

    let mut doc = Json::obj();
    doc.set("meta", meta);
    doc.set("metrics", tempstream_obsv::global().snapshot());
    doc.set(
        "runtime",
        summary.map_or(Json::Null, |s| {
            let mut r = Json::obj();
            r.set("workers", Json::UInt(s.workers as u64));
            r.set("wall_secs", Json::Float(s.wall.as_secs_f64()));
            r.set("utilization", Json::Float(s.utilization()));
            let mut stages = Json::obj();
            for st in &s.stages {
                let mut o = Json::obj();
                o.set("jobs", Json::UInt(st.jobs as u64));
                o.set("busy_secs", Json::Float(st.busy.as_secs_f64()));
                o.set("max_job_secs", Json::Float(st.max_job.as_secs_f64()));
                stages.set(st.stage.name(), o);
            }
            r.set("stages", stages);
            r.set(
                "max_injector_depth",
                Json::UInt(s.max_injector_depth as u64),
            );
            r.set("max_deque_depth", Json::UInt(s.max_deque_depth as u64));
            r
        }),
    );
    std::fs::write(path, doc.render() + "\n")
}

/// Caches per-workload results so `all` runs each workload once.
struct Runner {
    cfg: ExperimentConfig,
    jobs: usize,
    cache: HashMap<Workload, WorkloadResults>,
    last_summary: Option<RunSummary>,
}

impl Runner {
    fn new(cfg: ExperimentConfig, jobs: usize) -> Self {
        Runner {
            cfg,
            jobs,
            cache: HashMap::new(),
            last_summary: None,
        }
    }

    /// Runs every uncached workload in `workloads` through the pipeline
    /// in one batch, so independent workloads overlap.
    fn prefetch(&mut self, workloads: &[Workload]) {
        let missing: Vec<Workload> = workloads
            .iter()
            .copied()
            .filter(|w| !self.cache.contains_key(w))
            .collect();
        if missing.is_empty() {
            return;
        }
        eprintln!(
            "[reproduce] running {} workloads on {} worker threads ...",
            missing.len(),
            self.jobs
        );
        let (results, summary) =
            run_workloads(&self.cfg, RuntimeConfig::with_workers(self.jobs), &missing);
        for r in results {
            eprintln!(
                "[reproduce] {}: mc={} sc={} intra={} misses",
                r.workload,
                r.multi_chip.total_misses,
                r.single_chip.total_misses,
                r.intra_chip.total_misses
            );
            self.cache.insert(r.workload, r);
        }
        eprintln!("{summary}");
        self.last_summary = Some(summary);
    }

    fn results(&mut self, w: Workload) -> &WorkloadResults {
        self.prefetch(&[w]);
        &self.cache[&w]
    }
}

fn rule(title: &str) {
    println!("\n==== {title} ====");
}

fn print_table1() {
    rule("Table 1: Application parameters");
    for s in spec::table1() {
        println!("{:<7} [{}]", s.name, s.app_class);
        println!("    paper: {}", s.paper_config);
        println!("    model: {}", s.model_config);
    }
}

fn print_table2() {
    rule("Table 2: Miss categories");
    for (title, cats) in [
        (
            "Cross-application categories",
            MissCategory::CROSS_APP.to_vec(),
        ),
        ("Web-specific categories", MissCategory::WEB.to_vec()),
        ("DB2-specific categories", MissCategory::DB2.to_vec()),
    ] {
        println!("-- {title}");
        for c in cats {
            println!("  {:<34} {}", c.label(), c.description());
        }
    }
}

fn print_fig1(r: &mut Runner) {
    rule("Figure 1 (left): off-chip read misses per 1000 instructions");
    println!(
        "{:<8} {:<12} {:>11} {:>13} {:>12} {:>11} {:>8}",
        "workload", "context", "Compulsory", "I/O Coherence", "Replacement", "Coherence", "total"
    );
    for w in Workload::ALL {
        let res = r.results(w);
        for (ctx, b) in [
            ("multi-chip", &res.multi_chip.breakdown),
            ("single-chip", &res.single_chip.breakdown),
        ] {
            println!(
                "{:<8} {:<12} {:>11.4} {:>13.4} {:>12.4} {:>11.4} {:>8.3}",
                w.name(),
                ctx,
                b.mpki(MissClass::Compulsory),
                b.mpki(MissClass::IoCoherence),
                b.mpki(MissClass::Replacement),
                b.mpki(MissClass::Coherence),
                b.total_mpki()
            );
        }
    }
    rule("Figure 1 (right): intra-chip (L1) read misses per 1000 instructions");
    println!(
        "{:<8} {:>9} {:>15} {:>14} {:>18}",
        "workload", "Off-chip", "Replacement:L2", "Coherence:L2", "Coherence:Peer-L1"
    );
    for w in Workload::ALL {
        let b = &r.results(w).intra_chip.breakdown;
        println!(
            "{:<8} {:>9.4} {:>15.4} {:>14.4} {:>18.4}",
            w.name(),
            b.mpki(IntraChipClass::OffChip),
            b.mpki(IntraChipClass::ReplacementL2),
            b.mpki(IntraChipClass::CoherenceL2),
            b.mpki(IntraChipClass::CoherencePeerL1)
        );
    }
}

fn for_each_context(
    r: &mut Runner,
    mut f: impl FnMut(Workload, &'static str, &tempstream_core::experiment::StreamResults),
) {
    for w in Workload::ALL {
        let res = r.results(w);
        f(w, "multi-chip", &res.multi_chip.streams);
        f(w, "single-chip", &res.single_chip.streams);
        f(w, "intra-chip", &res.intra_chip.streams);
    }
}

fn print_fig2(r: &mut Runner) {
    rule("Figure 2: fraction of misses in temporal streams");
    println!(
        "{:<8} {:<12} {:>15} {:>12} {:>18}",
        "workload", "context", "non-repetitive", "new stream", "recurring stream"
    );
    for_each_context(r, |w, ctx, s| {
        let t = s.stream_fraction.total();
        println!(
            "{:<8} {:<12} {:>14.1}% {:>11.1}% {:>17.1}%",
            w.name(),
            ctx,
            frac(s.stream_fraction.non_repetitive * 100, t),
            frac(s.stream_fraction.new_stream * 100, t),
            frac(s.stream_fraction.recurring_stream * 100, t)
        );
    });
}

fn print_fig3(r: &mut Runner) {
    rule("Figure 3: strides and temporal streams (joint breakdown)");
    println!(
        "{:<8} {:<12} {:>13} {:>13} {:>13} {:>13}",
        "workload", "context", "rep+strided", "rep+nonstr", "nonrep+strided", "nonrep+nonstr"
    );
    for_each_context(r, |w, ctx, s| {
        let j = &s.stride_joint;
        let t = j.total();
        println!(
            "{:<8} {:<12} {:>12.1}% {:>12.1}% {:>12.1}% {:>12.1}%",
            w.name(),
            ctx,
            frac(j.repetitive_strided * 100, t),
            frac(j.repetitive_non_strided * 100, t),
            frac(j.non_repetitive_strided * 100, t),
            frac(j.non_repetitive_non_strided * 100, t)
        );
    });
}

fn print_fig4(r: &mut Runner) {
    rule("Figure 4 (left): temporal stream length CDFs");
    for_each_context(r, |w, ctx, s| {
        println!("{} / {ctx}:", w.name());
        print!("{}", format_length_cdf(&s.length_cdf));
    });
    rule("Figure 4 (right): stream reuse distance PDFs");
    for_each_context(r, |w, ctx, s| {
        println!("{} / {ctx}:", w.name());
        print!("{}", format_reuse_pdf(&s.reuse_pdf));
    });
}

fn print_origin_tables(r: &mut Runner, title: &str, workloads: &[Workload]) {
    rule(title);
    for &w in workloads {
        let res = r.results(w);
        for (ctx, s) in [
            ("multi-chip", &res.multi_chip.streams),
            ("single-chip", &res.single_chip.streams),
            ("intra-chip", &res.intra_chip.streams),
        ] {
            println!("{} / {ctx}:", w.name());
            print!("{}", format_origin_table(&s.origins));
        }
    }
}

/// Spatial-pattern predictability (SMS-style companion analysis).
fn print_spatial(cfg: &ExperimentConfig) {
    use tempstream_core::spatial::SpatialAnalysis;
    rule("Spatial-pattern predictability (SMS-style, multi-chip traces)");
    println!(
        "{:<8} {:>12} {:>14} {:>16} {:>14}",
        "workload", "generations", "% predicted", "% misses pred.", "mean density"
    );
    for w in Workload::ALL {
        // Re-collect traces (cheaper than caching records in Runner).
        let (trace, _) = tempstream_core::stages::collect_multi_chip(cfg, w);
        let a = SpatialAnalysis::of_trace(&trace);
        println!(
            "{:<8} {:>12} {:>13.1}% {:>15.1}% {:>14.1}",
            w.name(),
            a.generations,
            a.prediction_rate() * 100.0,
            a.predicted_miss_fraction() * 100.0,
            a.mean_density()
        );
    }
}

/// Seed-stability check: headline metrics across three seeds.
fn print_stability(cfg: &ExperimentConfig, jobs: usize) {
    let runs: Vec<Vec<WorkloadResults>> = [1u64, 0xBEEF, 0x715C_2008]
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            eprintln!("[reproduce] stability seed {i} ...");
            let rt = RuntimeConfig::with_workers(jobs);
            run_workloads(&cfg.with_seed(seed), rt, &Workload::ALL).0
        })
        .collect();
    rule("Seed stability: multi-chip stream fraction across seeds");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>8}",
        "workload", "seed A", "seed B", "seed C", "spread"
    );
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let fractions: Vec<f64> = runs
            .iter()
            .map(|run| run[i].multi_chip.streams.stream_fraction.in_streams())
            .collect();
        let max = fractions.iter().copied().fold(f64::MIN, f64::max);
        let min = fractions.iter().copied().fold(f64::MAX, f64::min);
        println!(
            "{:<8} {:>9.1}% {:>9.1}% {:>9.1}% {:>7.1}%",
            w.name(),
            fractions[0] * 100.0,
            fractions[1] * 100.0,
            fractions[2] * 100.0,
            (max - min) * 100.0
        );
    }
}

fn print_functions(r: &mut Runner) {
    rule("Per-function stream origins (top 12, multi-chip)");
    for w in Workload::ALL {
        let res = r.results(w);
        println!("{}:", w.name());
        print!(
            "{}",
            format_function_table(&res.multi_chip.streams.functions, 12)
        );
        if let Some(most) = res.multi_chip.streams.functions.most_repetitive(500) {
            println!(
                "  most repetitive function: {} ({:.1}% of its misses in streams)",
                most.name,
                most.stream_fraction() * 100.0
            );
        }
        println!(
            "  dispatcher (disp*) share of all misses: {:.1}%",
            res.multi_chip.streams.functions.share_of_prefix("disp") * 100.0
        );
    }
}

fn print_stats(r: &mut Runner) {
    rule("Trace statistics (collection summary)");
    println!(
        "{:<8} {:<12} {:>10} {:>14} {:>12} {:>8}",
        "workload", "context", "misses", "analyzed", "in streams", "streams"
    );
    for w in Workload::ALL {
        let res = r.results(w);
        // Stream counts come from the analysis; the analyzed column shows
        // how many misses fed SEQUITUR (capped for the largest traces).
        for (ctx, s, total) in [
            (
                "multi-chip",
                &res.multi_chip.streams,
                res.multi_chip.total_misses,
            ),
            (
                "single-chip",
                &res.single_chip.streams,
                res.single_chip.total_misses,
            ),
            (
                "intra-chip",
                &res.intra_chip.streams,
                res.intra_chip.total_misses,
            ),
        ] {
            println!(
                "{:<8} {:<12} {:>10} {:>14} {:>11.1}% {:>8}",
                w.name(),
                ctx,
                total,
                s.analyzed_misses,
                s.stream_fraction.in_streams() * 100.0,
                s.distinct_streams
            );
        }
    }
}

fn print_table3(r: &mut Runner) {
    print_origin_tables(
        r,
        "Table 3: Temporal stream origins in Web applications",
        &[Workload::Apache, Workload::Zeus],
    );
}

fn print_table4(r: &mut Runner) {
    print_origin_tables(
        r,
        "Table 4: Temporal stream origins in OLTP (DB2)",
        &[Workload::Oltp],
    );
}

fn print_table5(r: &mut Runner) {
    print_origin_tables(
        r,
        "Table 5: Temporal stream origins in DSS (DB2)",
        &[Workload::DssQ1, Workload::DssQ2, Workload::DssQ17],
    );
}
