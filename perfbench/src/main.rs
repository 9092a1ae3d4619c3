//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Workloads: `batch-paper` (the full paper characterization through
//! `tempstream_runtime::run_workloads`), `serve-ingest` (DB2's
//! paper-scale miss trace replayed at full speed into a two-shard
//! server) and `serve-mixed` (the same replay at a fixed rate beside a
//! polling dashboard). Each run sets up three times, then repeats whole
//! passes until `--seconds` have passed, checks every output, and
//! prints as its last stdout line one JSON object holding `correct`,
//! `attempted`, `failed` and the metrics: the end-to-end ones with
//! `--trace 0`, the per-layer ones with `--trace 1`. The serve
//! workloads drive the repository's `serve` binary, which must be built
//! into the same directory as this one.

mod batch;
mod load;
mod procfs;
mod report;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{json_number, Report, END_TO_END, PER_LAYER};
use serve::{Input, Mode};
use tempstream_workloads::Workload;

/// The paper-reproduction default seed.
const DEFAULT_SEED: u64 = 0x715C_2008;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const USAGE: &str = "usage: perfbench --workload batch-paper|serve-ingest|serve-mixed \
     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16),
        None => s.replace('_', "").parse(),
    };
    parsed.map_err(|_| format!("--seed: not a number: {s}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = parse_seed(value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: not a duration: {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !matches!(
        args.workload.as_str(),
        "batch-paper" | "serve-ingest" | "serve-mixed"
    ) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|&x| json_number(x)).collect();
    format!("[{}]", items.join(","))
}

/// Times [`SETUP_REPS`] repetitions of `setup`; returns the times and
/// what the last repetition set up.
fn set_up<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let value = setup()?;
        times.push(secs(start.elapsed()));
        kept = Some(value);
    }
    Ok((times, kept.expect("at least one repetition")))
}

fn batch_workload(args: &Args, report: &mut Report) -> Result<(), String> {
    let cap = batch::paper_config(args.seed).max_analysis_misses;
    report.meta("workers", batch::WORKERS.to_string());
    if args.trace {
        return batch_traced(args, report);
    }
    let warmup = batch::warmup_config(args.seed);
    let (setup_s, ()) = set_up(|| {
        let results = batch::characterize(&warmup, &Workload::ALL);
        batch::check_results(&results, warmup.max_analysis_misses, report);
        Ok(())
    })?;

    let cfg = batch::paper_config(args.seed);
    let me = std::process::id();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut first_digest = None;
    let start = Instant::now();
    loop {
        let cpu_before = procfs::cpu_time(me)?;
        let t = Instant::now();
        let results = batch::characterize(&cfg, &Workload::ALL);
        walls.push(secs(t.elapsed()));
        cpus.push(secs(procfs::cpu_time(me)?.saturating_sub(cpu_before)));
        batch::check_results(&results, cap, report);
        let digest = batch::digest(&results);
        let first = *first_digest.get_or_insert(digest);
        report.check(digest == first, || {
            format!("results digest {digest:016x} differs from the first pass's {first:016x}")
        });
        if secs(start.elapsed()) >= args.seconds {
            break;
        }
    }
    let wall = stats::median(&walls);
    report.metric("setup_s", stats::median(&setup_s), "s");
    report.meta("setup_reps_s", json_list(&setup_s));
    report.metric("wall_s", wall, "s");
    report.metric("cpu_s", stats::median(&cpus), "s");
    report.metric("peak_rss_mb", procfs::peak_rss_mib(me)?, "MiB");
    // One request per pass: its answer, all 18 context results, comes
    // when the pass ends. A run holds too few passes for a percentile,
    // so the "tail" is the slowest pass, not an estimate of one.
    report.metric("latency_p50_ms", wall * 1e3, "ms");
    report.metric("latency_tail_ms", stats::max(&walls) * 1e3, "ms");
    report.meta("passes", walls.len().to_string());
    report.meta_str(
        "results_digest",
        &format!("{:016x}", first_digest.expect("one pass")),
    );
    Ok(())
}

fn batch_traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let cfg = batch::paper_config(args.seed);
    let layered = characterize_by_layer(&cfg, &Workload::ALL, report)?;
    let records = layered
        .db2_multi_chip
        .ok_or("layered run kept no DB2 trace")?;
    let frames = load::EncodedFrames::encode(&records, serve::FRAME_RECORDS)?;
    serve_layers(&Input { records, frames }, Mode::Ingest, report)
}

/// Runs the product characterization, then its layered replica; checks
/// they agree and records the batch-side per-layer metrics.
fn characterize_by_layer(
    cfg: &tempstream_core::ExperimentConfig,
    workloads: &[Workload],
    report: &mut Report,
) -> Result<batch::Layered, String> {
    let start = Instant::now();
    let product = batch::characterize(cfg, workloads);
    let wall = secs(start.elapsed());
    batch::check_results(&product, cfg.max_analysis_misses, report);
    let layered = batch::layered(cfg, workloads);
    let (want, got) = (batch::digest(&product), batch::digest(&layered.results));
    report.check(got == want, || {
        format!("layered results digest {got:016x} != product {want:016x}")
    });
    report.meta_str("results_digest", &format!("{want:016x}"));

    let t = &layered.times;
    let simulate = secs(t.multi_chip + t.single_chip);
    report.metric("workloads.emit_s", secs(t.emit), "s");
    report.metric("workloads.accesses", t.accesses as f64, "count");
    report.metric("coherence.multi_chip_s", secs(t.multi_chip), "s");
    report.metric("coherence.single_chip_s", secs(t.single_chip), "s");
    report.metric("coherence.acc_per_s", t.accesses as f64 / simulate, "1/s");
    report.metric(
        "coherence.misses.multi_chip",
        t.misses_multi_chip as f64,
        "count",
    );
    report.metric(
        "coherence.misses.single_chip",
        t.misses_single_chip as f64,
        "count",
    );
    report.metric(
        "coherence.misses.intra_chip",
        t.misses_intra_chip as f64,
        "count",
    );
    report.metric("sequitur.push_s", secs(t.push), "s");
    report.metric("sequitur.sym_per_s", t.symbols as f64 / secs(t.push), "1/s");
    report.metric("sequitur.rules", t.rules as f64, "count");
    report.metric("core.walk_s", secs(t.walk), "s");
    report.metric("core.strides_s", secs(t.strides), "s");
    report.metric("core.origins_s", secs(t.origins), "s");
    report.metric("core.functions_s", secs(t.functions), "s");
    report.metric(
        "runtime.efficiency",
        secs(t.busy()) / (wall * batch::WORKERS as f64),
        "fraction",
    );
    Ok(layered)
}

/// The server-side per-layer metrics: probes over `input`, then one
/// live pass of `mode` whose server counters are read back.
fn serve_layers(input: &Input, mode: Mode, report: &mut Report) -> Result<(), String> {
    let p = serve::probe(&input.records, report)?;
    report.metric("core.engine.push_rec_per_s", p.push_rate, "rec/s");
    report.metric(
        "core.engine.streams_push_rec_per_s",
        p.streams_push_rate,
        "rec/s",
    );
    report.metric("core.engine.walk_ms", p.walk_ms, "ms");
    report.metric("serve.wire.encode_ns_per_rec", p.encode_ns, "ns/rec");
    report.metric("serve.wire.decode_ns_per_rec", p.decode_ns, "ns/rec");
    report.metric("serve.route_ns_per_rec", p.route_ns, "ns/rec");

    let server = load::ServerProc::spawn(serve::SHARDS)?;
    let pass = serve::run_pass(input, mode, server, report)?;
    let c = serve::counters(&pass.snapshot)?;
    let ingest = &pass.ingest;
    report.metric(
        "serve.busy_frac",
        ingest.busy as f64 / ingest.sends as f64,
        "fraction",
    );
    report.metric("serve.queue.max_depth", c.max_queue_depth as f64, "count");
    report.metric("serve.grammar_walks", c.grammar_walks as f64, "count");
    report.metric(
        "serve.walks_per_query",
        c.grammar_walks as f64 / c.queries.max(1) as f64,
        "count",
    );
    report.metric(
        "load.ack_p50_ms",
        stats::percentile(&ingest.ack_ms, 0.5)?,
        "ms",
    );
    report.metric(
        "load.ack_p99_ms",
        stats::percentile(&ingest.ack_ms, 0.99)?,
        "ms",
    );
    report.metric(
        "load.gen_late_p99_ms",
        stats::percentile(&ingest.late_ms, 0.99)?,
        "ms",
    );
    report.metric("load.queries", c.queries as f64, "count");
    Ok(())
}

fn serve_meta(mode: Mode, report: &mut Report) {
    report.meta("shards", serve::SHARDS.to_string());
    report.meta("frame_records", serve::FRAME_RECORDS.to_string());
    report.meta("busy_pause_us", serve::BUSY_PAUSE.as_micros().to_string());
    match mode {
        Mode::Ingest => {
            report.meta_str("ingest_loop", "closed");
            report.meta("ingest_window", serve::INGEST_WINDOW.to_string());
        }
        Mode::Mixed => {
            report.meta_str("ingest_loop", "open");
            report.meta("ingest_window", serve::MIXED_WINDOW.to_string());
            report.meta("ingest_rate_rec_per_s", json_number(serve::MIXED_RATE));
            report.meta(
                "refresh_ms",
                json_number(serve::REFRESH.as_secs_f64() * 1e3),
            );
        }
    }
}

fn serve_workload(args: &Args, mode: Mode, report: &mut Report) -> Result<(), String> {
    serve_meta(mode, report);
    if args.trace {
        let input = serve::generate(args.seed)?;
        report.meta("trace_records", input.records.len().to_string());
        let layered =
            characterize_by_layer(&batch::paper_config(args.seed), &[Workload::Oltp], report)?;
        report.check(
            layered.db2_multi_chip.as_deref() == Some(input.records.as_slice()),
            || "layered DB2 trace differs from the replayed one".to_string(),
        );
        return serve_layers(&input, mode, report);
    }

    let mut previous: Option<Vec<_>> = None;
    let (setup_s, (input, first_server)) = set_up(|| {
        let input = serve::generate(args.seed)?;
        let server = load::ServerProc::spawn(serve::SHARDS)?;
        if let Some(prev) = previous.replace(input.records.clone()) {
            report.check(prev == input.records, || {
                "trace generation is not deterministic".to_string()
            });
        }
        Ok((input, server))
    })?;
    report.meta("trace_records", input.records.len().to_string());

    // One checked but unreported warm-up pass: the first replay after
    // set-up took up to half again as long as the ones after it.
    let warmup = serve::run_pass(&input, mode, first_server, report)?;
    report.meta("warmup_wall_s", json_number(secs(warmup.wall)));
    // Passes repeat until their timed windows add up to `--seconds` and,
    // with a dashboard, its p90 has enough probes beyond it; starting
    // servers and checking answers happen outside the windows.
    let mut passes: Vec<serve::Pass> = Vec::new();
    let mut measured = 0.0;
    let mut probes = 0;
    while passes.is_empty()
        || measured < args.seconds
        || (mode == Mode::Mixed && !stats::has_tail(probes, 0.9))
    {
        let server = load::ServerProc::spawn(serve::SHARDS)?;
        let pass = serve::run_pass(&input, mode, server, report)?;
        measured += secs(pass.wall);
        probes += pass.query_ms.len();
        passes.push(pass);
    }

    let walls: Vec<f64> = passes.iter().map(|p| secs(p.wall)).collect();
    let cpus: Vec<f64> = passes.iter().map(|p| secs(p.server_cpu)).collect();
    let rss: Vec<f64> = passes.iter().map(|p| p.rss_mib).collect();
    let acks: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ingest.ack_ms.clone())
        .collect();
    let late: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.ingest.late_ms.clone())
        .collect();
    let queries: Vec<f64> = passes.iter().flat_map(|p| p.query_ms.clone()).collect();
    let busy: u64 = passes.iter().map(|p| p.ingest.busy).sum();
    let sends: u64 = passes.iter().map(|p| p.ingest.sends).sum();
    let wall = stats::median(&walls);

    report.metric("setup_s", stats::median(&setup_s), "s");
    report.meta("setup_reps_s", json_list(&setup_s));
    report.metric("wall_s", wall, "s");
    report.metric("cpu_s", stats::median(&cpus), "s");
    report.metric("peak_rss_mb", stats::median(&rss), "MiB");
    let (p50, tail) = match mode {
        // Writes only: the request is the pass, from the first frame to
        // the final consistent answer, as in the batch. Per-frame acks
        // are extras: the closed loop keeps the shard lanes full, so an
        // ack mostly times the fixed `Busy` pause; their p50 spread 29%
        // and 39% over two ten-seed sets.
        Mode::Ingest => (wall * 1e3, stats::max(&walls) * 1e3),
        // The dashboard's `QueryDelta`, send to reply.
        Mode::Mixed => (
            stats::percentile(&queries, 0.5)?,
            stats::percentile(&queries, 0.9)?,
        ),
    };
    report.metric("latency_p50_ms", p50, "ms");
    report.metric("latency_tail_ms", tail, "ms");

    // The workload's own names for the same and related figures.
    report.metric(
        "ingest_rec_per_s",
        input.records.len() as f64 / wall,
        "rec/s",
    );
    report.metric("ingest_ack_p50_ms", stats::percentile(&acks, 0.5)?, "ms");
    report.metric("ingest_ack_p99_ms", stats::percentile(&acks, 0.99)?, "ms");
    if mode == Mode::Mixed {
        report.metric("query_p50_ms", p50, "ms");
        report.metric("query_p90_ms", tail, "ms");
        report.meta("query_samples", queries.len().to_string());
    }
    report.metric(
        "load.gen_late_p99_ms",
        stats::percentile(&late, 0.99)?,
        "ms",
    );
    report.metric("serve.busy_frac", busy as f64 / sends as f64, "fraction");
    report.meta("ack_samples", acks.len().to_string());
    report.meta("passes", passes.len().to_string());
    report.meta("pass_wall_s", json_list(&walls));
    report.meta("pass_cpu_s", json_list(&cpus));
    Ok(())
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    match args.workload.as_str() {
        "batch-paper" => batch_workload(args, report),
        "serve-ingest" => serve_workload(args, Mode::Ingest, report),
        "serve-mixed" => serve_workload(args, Mode::Mixed, report),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut report = Report::default();
    report.meta_str("workload", &args.workload);
    report.meta("seed", args.seed.to_string());
    report.meta("seconds", json_number(args.seconds));
    report.meta("trace", u8::from(args.trace).to_string());
    report.meta_str(
        "git_rev",
        &std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".to_string()),
    );
    report.meta(
        "host_cores",
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .to_string(),
    );
    report.meta_str(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );

    if let Err(e) = run(&args, &mut report) {
        report.fail(e);
    }
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    if report.correct() {
        report.require(names);
    }
    report.metric("error_rate", report.error_rate(), "fraction");
    for failure in report.failures() {
        eprintln!("perfbench: FAILED: {failure}");
    }
    print!("{}", report.render_lines());
    println!("meta {}", report.render_meta());
    if let Ok(dir) = std::env::var("PERFBENCH_RESULTS_DIR") {
        let path = std::path::Path::new(&dir).join(format!(
            "{}-seed{}-trace{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        ));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, report.render_full() + "\n"));
        if let Err(e) = written {
            eprintln!("perfbench: write {}: {e}", path.display());
        }
    }
    println!("{}", report.render_result(names));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
