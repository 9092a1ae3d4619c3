//! `check-schedules`: the schedule-exploration CI gate.
//!
//! Runs every model in [`tempstream_schedcheck::all_models`] through
//! exhaustive bounded-preemption DFS plus a seeded random sweep,
//! prints per-model statistics, and exits non-zero with a minimal
//! replayable schedule on the first counterexample.
//!
//! ```text
//! check-schedules [--seed N] [--budget-secs N] [--model NAME]
//!                 [--replay "seed=<N|-> choices=0,1,..." --model NAME]
//!                 [--expect-mutation]
//! ```
//!
//! * `--seed N` — master seed for the random sweeps (default: each
//!   model's fixed built-in seed, so CI is reproducible run to run).
//! * `--budget-secs N` — soft time box: once exceeded, remaining
//!   models run DFS only and the skipped random sweeps are reported.
//! * `--model NAME` — check (or replay against) a single model.
//! * `--replay S` — replay a failure schedule printed by an earlier
//!   run and show its decision trace.
//! * `--expect-mutation` — verify the checker still CATCHES the
//!   injected bugs — the lost-`notify_one` queue, the server routing
//!   lanes' lost drain wakeup, the per-connection reply queue's lost
//!   close wakeup, and the query cut collector's lost last-answer
//!   wakeup (exits non-zero if it no longer does).

use std::time::Instant;
use tempstream_runtime::sync::sched::{self, Schedule};
use tempstream_schedcheck::{all_models, check_model, find_model, ModelSpec};

struct Args {
    seed: Option<u64>,
    budget_secs: Option<u64>,
    model: Option<String>,
    replay: Option<String>,
    expect_mutation: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: None,
        budget_secs: None,
        model: None,
        replay: None,
        expect_mutation: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} requires a value"));
        match a.as_str() {
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--budget-secs" => {
                args.budget_secs = Some(
                    value("--budget-secs")?
                        .parse()
                        .map_err(|e| format!("--budget-secs: {e}"))?,
                );
            }
            "--model" => args.model = Some(value("--model")?),
            "--replay" => args.replay = Some(value("--replay")?),
            "--expect-mutation" => args.expect_mutation = true,
            "--help" | "-h" => {
                println!(
                    "usage: check-schedules [--seed N] [--budget-secs N] [--model NAME] \
                     [--replay SCHEDULE] [--expect-mutation]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn run_replay(text: &str, model_name: &str) -> i32 {
    let Some(schedule) = Schedule::parse(text) else {
        eprintln!("check-schedules: unparseable schedule: {text}");
        return 2;
    };
    let Some(spec) = find_model(model_name) else {
        eprintln!("check-schedules: unknown model: {model_name}");
        return 2;
    };
    let report = sched::run_with_schedule(&schedule, spec.dfs.max_decisions, &spec.model);
    for line in &report.trace {
        println!("{line}");
    }
    match report.counterexample {
        Some(cx) => {
            println!("{cx}");
            1
        }
        None => {
            println!("replay of {model_name}: PASSED (schedule reproduces no failure)");
            0
        }
    }
}

fn run_expect_mutation() -> i32 {
    let opts = sched::DfsOptions {
        max_preemptions: 2,
        max_executions: 60_000,
        max_decisions: 50_000,
    };
    let mutants: [(&str, fn()); 4] = [
        (
            "lost notify_one",
            tempstream_schedcheck::mutation::lossy_model,
        ),
        (
            "serve lost drain wakeup",
            tempstream_schedcheck::mutation::serve_drain_lossy_model,
        ),
        (
            "serve lost reply-queue close wakeup",
            tempstream_schedcheck::mutation::serve_reply_close_lossy_model,
        ),
        (
            "serve lost cut-answer wakeup",
            tempstream_schedcheck::mutation::serve_cut_lossy_model,
        ),
    ];
    for (what, model) in mutants {
        match sched::explore_dfs(&opts, &model) {
            Err(cx) => {
                println!("mutation: {what} CAUGHT as expected ({})", cx.kind);
                println!("  minimal replayable schedule: {}", cx.schedule);
            }
            Ok(stats) => {
                eprintln!(
                    "mutation: checker FAILED to catch the {what} \
                     ({} executions explored) — the checker itself has regressed",
                    stats.executions
                );
                return 1;
            }
        }
    }
    0
}

fn check_one(spec: &ModelSpec, seed: Option<u64>, dfs_only: bool) -> Result<(), i32> {
    let t0 = Instant::now();
    let outcome = check_model(spec, seed, if dfs_only { Some(0) } else { None });
    match outcome {
        Ok(report) => {
            let capped = if report.dfs.capped { " (capped)" } else { "" };
            println!(
                "  {:<26} {}t  dfs: {} executions / {} decisions @ bound {}{}  \
                 random: {} runs  [{:.2}s]",
                report.name,
                report.threads,
                report.dfs.executions,
                report.dfs.decisions,
                report.dfs.max_preemptions,
                capped,
                report.random.executions,
                t0.elapsed().as_secs_f64()
            );
            Ok(())
        }
        Err(cx) => {
            eprintln!("  {:<26} FAILED", spec.name);
            eprintln!("{cx}");
            eprintln!(
                "replay with: check-schedules --model {} --replay \"{}\"",
                spec.name, cx.schedule
            );
            Err(1)
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("check-schedules: {e}");
            std::process::exit(2);
        }
    };

    if let Some(replay) = &args.replay {
        let Some(model) = &args.model else {
            eprintln!("check-schedules: --replay requires --model NAME");
            std::process::exit(2);
        };
        std::process::exit(run_replay(replay, model));
    }
    if args.expect_mutation {
        std::process::exit(run_expect_mutation());
    }

    let specs: Vec<ModelSpec> = match &args.model {
        Some(name) => match find_model(name) {
            Some(s) => vec![s],
            None => {
                eprintln!("check-schedules: unknown model: {name}");
                std::process::exit(2);
            }
        },
        None => all_models(),
    };

    println!(
        "check-schedules: {} models, seed {}",
        specs.len(),
        args.seed
            .map_or_else(|| "per-model default".to_string(), |s| s.to_string())
    );
    let start = Instant::now();
    let mut skipped_random = 0usize;
    for spec in &specs {
        let over_budget = args
            .budget_secs
            .is_some_and(|b| start.elapsed().as_secs() >= b);
        if over_budget {
            skipped_random += 1;
        }
        if let Err(code) = check_one(spec, args.seed, over_budget) {
            std::process::exit(code);
        }
    }
    if skipped_random > 0 {
        println!(
            "note: over --budget-secs; random sweeps skipped for the last {skipped_random} models"
        );
    }
    println!(
        "check-schedules: all {} models clean in {:.2}s",
        specs.len(),
        start.elapsed().as_secs_f64()
    );
}
