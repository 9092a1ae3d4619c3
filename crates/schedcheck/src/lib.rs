//! # tempstream-schedcheck
//!
//! Schedule-exploring model checks for `tempstream-runtime`'s
//! synchronization primitives.
//!
//! The runtime's work-stealing deque and pool, and the server's
//! routing lanes and reply queues, are all built on the
//! [`tempstream_runtime::sync`] shim. Compiled with the `schedcheck`
//! feature (as this crate always does), the shim can hand every
//! interleaving decision — who acquires a contended mutex, which
//! `notify_one` waiter wakes, which runnable thread runs next — to the
//! cooperative scheduler in [`tempstream_runtime::sync::sched`]. This
//! crate defines small closed **models** (2–3 thread programs
//! exercising one primitive with full correctness assertions) and
//! drives them through:
//!
//! * exhaustive bounded-preemption DFS ([`sched::explore_dfs`]) for the
//!   2-thread configurations, and
//! * seeded random scheduling ([`sched::explore_random`]) for the
//!   larger ones — fully deterministic per seed.
//!
//! Every failure carries a minimal replayable [`sched::Schedule`]. The
//! [`mutation`] module holds a deliberately broken primitive (a queue
//! that drops a `notify_one`) proving the checker actually catches lost
//! wakeups; `ci.sh` gates on both directions.
//!
//! Properties checked per model are documented on [`models`].

use tempstream_runtime::sync::sched::{
    self, Counterexample, DfsOptions, ExploreStats, RandomOptions,
};

pub mod models;
pub mod mutation;

/// One named model plus the exploration settings it is checked under.
pub struct ModelSpec {
    /// Stable name (CLI `--model` selector).
    pub name: &'static str,
    /// Threads in the closed model, counting the root.
    pub threads: usize,
    /// Exhaustive bounded-preemption search settings.
    pub dfs: DfsOptions,
    /// Seeded random search settings.
    pub random: RandomOptions,
    /// The model itself. Must be deterministic modulo scheduling.
    pub model: fn(),
}

/// Search statistics for one fully passed model.
pub struct ModelReport {
    /// The model's name.
    pub name: &'static str,
    /// Threads in the model.
    pub threads: usize,
    /// DFS statistics (check `capped` — 2-thread models never cap).
    pub dfs: ExploreStats,
    /// Random-run statistics.
    pub random: ExploreStats,
}

/// A failed model: which one, and the replayable counterexample.
pub struct ModelFailure {
    /// The failing model's name.
    pub name: &'static str,
    /// The counterexample, with its minimal replayable schedule.
    pub counterexample: Box<Counterexample>,
}

const DECISION_LIMIT: usize = 50_000;

fn dfs(max_preemptions: u32) -> DfsOptions {
    DfsOptions {
        max_preemptions,
        max_executions: 60_000,
        max_decisions: DECISION_LIMIT,
    }
}

fn random(runs: usize) -> RandomOptions {
    RandomOptions {
        runs,
        max_decisions: DECISION_LIMIT,
        ..RandomOptions::default()
    }
}

/// Every model in the suite, in check order.
///
/// 2-thread models run exhaustively at preemption bound 2; the wider
/// (3-thread) models run exhaustively at bound 1 plus a seeded random
/// sweep, which keeps a full suite run inside a CI time box.
pub fn all_models() -> Vec<ModelSpec> {
    vec![
        ModelSpec {
            name: "deque_steal_race",
            threads: 2,
            dfs: dfs(2),
            random: random(64),
            model: models::deque_steal_race,
        },
        ModelSpec {
            name: "pool_single_worker",
            threads: 2,
            dfs: dfs(2),
            random: random(64),
            model: models::pool_single_worker,
        },
        ModelSpec {
            name: "pool_two_workers",
            threads: 3,
            dfs: dfs(1),
            random: random(128),
            model: models::pool_two_workers,
        },
        ModelSpec {
            name: "serve_routing_fifo",
            threads: 2,
            dfs: dfs(2),
            random: random(64),
            model: models::serve_routing_fifo,
        },
        ModelSpec {
            name: "serve_routing_admission",
            threads: 2,
            dfs: dfs(2),
            random: random(64),
            model: models::serve_routing_admission,
        },
        ModelSpec {
            name: "serve_routing_drain",
            threads: 3,
            dfs: dfs(1),
            random: random(128),
            model: models::serve_routing_drain,
        },
        ModelSpec {
            name: "serve_cut_marker",
            threads: 3,
            dfs: dfs(1),
            random: random(128),
            model: models::serve_cut_marker,
        },
        ModelSpec {
            name: "serve_reply_fifo",
            threads: 2,
            dfs: dfs(2),
            random: random(64),
            model: models::serve_reply_fifo,
        },
        ModelSpec {
            name: "serve_reply_writer_exit",
            threads: 2,
            dfs: dfs(2),
            random: random(64),
            model: models::serve_reply_writer_exit,
        },
        ModelSpec {
            name: "mutation_control",
            threads: 2,
            dfs: dfs(2),
            random: random(64),
            model: mutation::control_model,
        },
        ModelSpec {
            name: "serve_mutation_control",
            threads: 2,
            dfs: dfs(2),
            random: random(64),
            model: mutation::serve_drain_control_model,
        },
        ModelSpec {
            name: "serve_reply_mutation_control",
            threads: 2,
            dfs: dfs(2),
            random: random(64),
            model: mutation::serve_reply_close_control_model,
        },
    ]
}

/// Looks a model up by name.
pub fn find_model(name: &str) -> Option<ModelSpec> {
    all_models().into_iter().find(|m| m.name == name)
}

/// Checks one model: exhaustive DFS first, then the random sweep.
///
/// `seed` overrides the random sweep's master seed (`None` keeps the
/// spec default), and `random_runs` its run count.
///
/// # Errors
///
/// Returns the first counterexample found by either strategy.
pub fn check_model(
    spec: &ModelSpec,
    seed: Option<u64>,
    random_runs: Option<usize>,
) -> Result<ModelReport, Box<Counterexample>> {
    let dfs_stats = sched::explore_dfs(&spec.dfs, &spec.model)?;
    let mut ropts = spec.random;
    if let Some(s) = seed {
        ropts.seed = s;
    }
    if let Some(r) = random_runs {
        ropts.runs = r;
    }
    let random_stats = sched::explore_random(&ropts, &spec.model)?;
    Ok(ModelReport {
        name: spec.name,
        threads: spec.threads,
        dfs: dfs_stats,
        random: random_stats,
    })
}

/// Checks every model in [`all_models`].
///
/// # Errors
///
/// Stops at the first failing model and returns its counterexample.
pub fn check_all(seed: Option<u64>) -> Result<Vec<ModelReport>, Box<ModelFailure>> {
    let mut reports = Vec::new();
    for spec in all_models() {
        match check_model(&spec, seed, None) {
            Ok(r) => reports.push(r),
            Err(counterexample) => {
                return Err(Box::new(ModelFailure {
                    name: spec.name,
                    counterexample,
                }))
            }
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempstream_runtime::sync::sched::{run_random, run_with_schedule, FailureKind, Schedule};

    #[test]
    fn deque_model_is_exhausted_clean() {
        let spec = find_model("deque_steal_race").unwrap();
        let report = check_model(&spec, None, Some(16))
            .unwrap_or_else(|cx| panic!("deque model failed:\n{cx}"));
        assert!(!report.dfs.capped);
        assert!(report.dfs.executions > 1);
    }

    #[test]
    fn mutation_lost_notify_is_caught_and_replays() {
        // The checker must catch the injected bug: a queue whose push
        // drops its notify_one deadlocks the consumer in some schedule.
        let opts = sched::DfsOptions {
            max_preemptions: 2,
            max_executions: 60_000,
            max_decisions: 50_000,
        };
        let cx = sched::explore_dfs(&opts, &(mutation::lossy_model as fn()))
            .expect_err("lost notify_one must produce a counterexample");
        assert_eq!(cx.kind, FailureKind::Deadlock, "expected a lost wakeup");
        assert!(
            !cx.schedule.choices.is_empty(),
            "counterexample must carry a replayable schedule"
        );
        // Seeded replay regression: the printed schedule round-trips
        // through its text form and reproduces the same failure.
        let text = cx.schedule.to_string();
        let parsed = Schedule::parse(&text).expect("schedule text must parse");
        assert_eq!(parsed, cx.schedule);
        let replay = run_with_schedule(&parsed, 50_000, &(mutation::lossy_model as fn()));
        let rcx = replay
            .counterexample
            .expect("replaying the schedule must reproduce the failure");
        assert_eq!(rcx.kind, FailureKind::Deadlock);
    }

    #[test]
    fn serve_queue_models_are_exhausted_clean() {
        // The server's queues under the same microscope as the runtime
        // deque: per-lane FIFO under reader-side routing,
        // all-or-nothing batch admission, the two-worker drain race,
        // the query cut-marker handshake, and the per-connection reply
        // queue (pipelined FIFO + writer-exit close) all exhaust their
        // bounded schedule space with zero counterexamples.
        for name in [
            "serve_routing_fifo",
            "serve_routing_admission",
            "serve_routing_drain",
            "serve_cut_marker",
            "serve_reply_fifo",
            "serve_reply_writer_exit",
        ] {
            let spec = find_model(name).unwrap();
            let report = check_model(&spec, None, Some(16))
                .unwrap_or_else(|cx| panic!("model {name} failed:\n{cx}"));
            assert!(!report.dfs.capped, "{name}: DFS budget too small");
            assert!(
                report.dfs.executions > 1,
                "{name}: exhaustive search explored nothing"
            );
        }
    }

    #[test]
    fn serve_lossy_drain_is_caught_as_deadlock() {
        // Drop the drain handshake's notify_all and the consumer that
        // parks after finishing the backlog sleeps forever — the
        // checker must find that schedule and it must replay.
        let opts = sched::DfsOptions {
            max_preemptions: 2,
            max_executions: 60_000,
            max_decisions: 50_000,
        };
        let cx = sched::explore_dfs(&opts, &(mutation::serve_drain_lossy_model as fn()))
            .expect_err("lost drain wakeup must produce a counterexample");
        assert_eq!(cx.kind, FailureKind::Deadlock, "expected a lost wakeup");
        let replay = run_with_schedule(
            &cx.schedule,
            50_000,
            &(mutation::serve_drain_lossy_model as fn()),
        );
        let rcx = replay
            .counterexample
            .expect("replaying the schedule must reproduce the failure");
        assert_eq!(rcx.kind, FailureKind::Deadlock);
    }

    #[test]
    fn serve_reply_lossy_close_is_caught_as_deadlock() {
        // Drop the reply queue's close notify_all and a reader parked
        // waiting for space never learns the writer died — the checker
        // must find that schedule and it must replay.
        let opts = sched::DfsOptions {
            max_preemptions: 2,
            max_executions: 60_000,
            max_decisions: 50_000,
        };
        let cx = sched::explore_dfs(&opts, &(mutation::serve_reply_close_lossy_model as fn()))
            .expect_err("lost close wakeup must produce a counterexample");
        assert_eq!(cx.kind, FailureKind::Deadlock, "expected a lost wakeup");
        let replay = run_with_schedule(
            &cx.schedule,
            50_000,
            &(mutation::serve_reply_close_lossy_model as fn()),
        );
        let rcx = replay
            .counterexample
            .expect("replaying the schedule must reproduce the failure");
        assert_eq!(rcx.kind, FailureKind::Deadlock);
    }

    #[test]
    fn serve_lossy_cut_is_caught_as_deadlock() {
        // Drop the cut collector's last-answer wakeup and a querier
        // parked on its cut never learns the shards answered — the
        // checker must find that schedule and it must replay.
        let opts = sched::DfsOptions {
            max_preemptions: 2,
            max_executions: 60_000,
            max_decisions: 50_000,
        };
        let cx = sched::explore_dfs(&opts, &(mutation::serve_cut_lossy_model as fn()))
            .expect_err("lost cut wakeup must produce a counterexample");
        assert_eq!(cx.kind, FailureKind::Deadlock, "expected a lost wakeup");
        let replay = run_with_schedule(
            &cx.schedule,
            50_000,
            &(mutation::serve_cut_lossy_model as fn()),
        );
        let rcx = replay
            .counterexample
            .expect("replaying the schedule must reproduce the failure");
        assert_eq!(rcx.kind, FailureKind::Deadlock);
    }

    #[test]
    fn mutation_control_passes() {
        // Same queue with the notify intact: clean at the same bound,
        // so the mutation test discriminates.
        let spec = find_model("mutation_control").unwrap();
        check_model(&spec, None, Some(16))
            .unwrap_or_else(|cx| panic!("control model failed:\n{cx}"));
    }

    #[test]
    fn same_seed_gives_byte_identical_schedules() {
        for seed in [1u64, 0xdead_beef, u64::MAX] {
            let a = run_random(seed, 50_000, &(models::pool_two_workers as fn()));
            let b = run_random(seed, 50_000, &(models::pool_two_workers as fn()));
            assert!(a.counterexample.is_none(), "model must pass");
            assert_eq!(
                a.schedule.to_string(),
                b.schedule.to_string(),
                "seed {seed} not deterministic"
            );
            assert_eq!(a.trace, b.trace);
        }
    }

    #[test]
    fn schedule_text_round_trips() {
        let s = Schedule {
            seed: Some(42),
            choices: vec![0, 1, 2, 0],
        };
        assert_eq!(Schedule::parse(&s.to_string()), Some(s));
        let empty = Schedule {
            seed: None,
            choices: vec![],
        };
        assert_eq!(Schedule::parse(&empty.to_string()), Some(empty));
    }
}
