//! Engine differential digest for the CI gate.
//!
//! Feeds seeded random traces into an `AnalysisEngine` in `--chunks N`
//! interleaved chunks — snapshotting every accessor at each chunk
//! boundary, exactly as an online consumer would — and prints a
//! deterministic digest of the final snapshots. `ci.sh` runs this at
//! `--chunks 1` (one batch feed) and `--chunks 2` / `--chunks 7`
//! (incremental feeds) and byte-diffs the outputs: any divergence
//! between incremental-interleaved and batch feeding fails CI, the
//! same shape as the serial/parallel determinism gate. Each digest
//! also cross-checks the engine's two root walks: the joint breakdown
//! (labelled walk) must split exactly the misses the stream counts
//! (counts-only walk) call repetitive and non-repetitive.
//!
//! ```text
//! engine_diff [--chunks N] [--records N]
//! ```

use tempstream_core::engine::{AnalysisEngine, EngineConfig};
use tempstream_trace::miss::MissRecord;
use tempstream_trace::rng::SplitMix64;
use tempstream_trace::{Block, CpuId, FunctionId, MissClass, ThreadId};

fn seeded_records(seed: u64, n: usize, block_universe: u64) -> Vec<MissRecord<MissClass>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| MissRecord {
            block: Block::new(rng.next_u64() % block_universe),
            cpu: CpuId::new((rng.next_u64() % 4) as u32),
            thread: ThreadId::new((rng.next_u64() % 8) as u32),
            function: FunctionId::new((rng.next_u64() % 17) as u32),
            class: MissClass::Replacement,
        })
        .collect()
}

/// Prints one engine's full answer set as stable, diffable lines.
///
/// # Panics
///
/// Panics if the joint breakdown (the labelled walk over a grammar
/// snapshot) disagrees with the stream counts (the counts-only walk
/// over the live builder) on how many misses are repetitive.
fn print_digest(label: &str, engine: &mut AnalysisEngine<MissClass>) {
    let s = engine.stream_counts();
    let c = engine.coverage();
    let j = engine.joint_breakdown();
    assert_eq!(
        j.non_repetitive_non_strided + j.non_repetitive_strided,
        s.non_repetitive,
        "{label}: the two walks disagree on non-repetitive misses"
    );
    assert_eq!(
        j.repetitive_non_strided + j.repetitive_strided,
        s.new_stream + s.recurring_stream,
        "{label}: the two walks disagree on repetitive misses"
    );
    println!(
        "{label} version={} overflow={}",
        engine.version(),
        engine.overflow()
    );
    println!(
        "{label} streams non_rep={} new={} rec={} distinct={}",
        s.non_repetitive, s.new_stream, s.recurring_stream, s.distinct_streams
    );
    println!(
        "{label} coverage total={} covered={} issued={}",
        c.total, c.covered, c.issued
    );
    println!(
        "{label} joint nn={} ns={} rn={} rs={}",
        j.non_repetitive_non_strided,
        j.non_repetitive_strided,
        j.repetitive_non_strided,
        j.repetitive_strided
    );
    let top: Vec<String> = engine
        .origin_table()
        .top_n(8)
        .into_iter()
        .map(|(f, n)| format!("{f}:{n}"))
        .collect();
    println!("{label} origins {}", top.join(","));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str, default: usize| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let chunks = get("--chunks", 1).max(1);
    let records_n = get("--records", 20_000);

    // Two trace shapes (dense recurrence, sparse recurrence) and a
    // retention-capped config: the cap must trip at the same record
    // regardless of chunking.
    let cases = [
        ("dense", 0xd1ff_0001u64, 131u64, EngineConfig::default()),
        ("sparse", 0xd1ff_0002, 4099, EngineConfig::default()),
        (
            "capped",
            0xd1ff_0003,
            131,
            EngineConfig {
                max_retained: records_n / 3,
                ..EngineConfig::default()
            },
        ),
    ];
    for (name, seed, universe, config) in cases {
        let records = seeded_records(seed, records_n, universe);
        let mut engine: AnalysisEngine<MissClass> = AnalysisEngine::new(config);
        let chunk_len = records.len().div_ceil(chunks).max(1);
        for chunk in records.chunks(chunk_len) {
            engine.push_records(chunk);
            // Interleaved mid-stream reads: these must not perturb the
            // final digest (memoization may only skip work, never
            // change an answer).
            let _ = engine.stream_counts();
            let _ = engine.joint_breakdown();
        }
        print_digest(name, &mut engine);
    }
}
