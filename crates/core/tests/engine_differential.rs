//! Engine differential property test: chunked incremental feeding with
//! interleaved snapshots must be bit-identical to one batch feed.
//!
//! This is the property that lets the batch pipeline, the online
//! server, and the offline comparator all share one
//! [`AnalysisEngine`]: the live SEQUITUR builder over an ingest prefix
//! holds the batch grammar of that prefix, the root walk is a pure
//! function of (grammar, records), and the engine's version-keyed
//! memoization may never change an answer — only skip recomputing it.

use std::collections::HashMap;
use tempstream_coherence::{MultiChipConfig, MultiChipSim, SingleChipConfig, SingleChipSim};
use tempstream_core::engine::{AnalysisEngine, CoverageCounts, EngineConfig, StreamCounts};
use tempstream_core::report::StrideJointReport;
use tempstream_core::stages::emit_workload;
use tempstream_core::streams::StreamOccurrence;
use tempstream_core::StreamAnalysis;
use tempstream_sequitur::Sequitur;
use tempstream_trace::miss::MissRecord;
use tempstream_trace::rng::SplitMix64;
use tempstream_trace::{Block, CpuId, FunctionId, MissClass, MissTrace, ThreadId};
use tempstream_workloads::{Scale, Workload};

fn seeded_records(seed: u64, n: usize, block_universe: u64) -> Vec<MissRecord<MissClass>> {
    let mut rng = SplitMix64::new(seed);
    (0..n)
        .map(|_| MissRecord {
            block: Block::new(rng.next_u64() % block_universe),
            cpu: CpuId::new((rng.next_u64() % 4) as u32),
            thread: ThreadId::new((rng.next_u64() % 8) as u32),
            function: FunctionId::new((rng.next_u64() % 13) as u32),
            class: MissClass::Replacement,
        })
        .collect()
}

/// Everything an engine can answer, captured at one version.
#[derive(Debug, PartialEq)]
struct FullSnapshot {
    version: u64,
    streams: StreamCounts,
    coverage: CoverageCounts,
    joint: StrideJointReport,
    top_origins: Vec<(u32, u64)>,
    analyzed: u64,
    overflow: u64,
}

/// Snapshots `engine`, which has been fed exactly `pushed`.
fn snapshot(
    engine: &mut AnalysisEngine<MissClass>,
    pushed: &[MissRecord<MissClass>],
) -> FullSnapshot {
    let s = FullSnapshot {
        version: engine.version(),
        streams: engine.stream_counts(),
        coverage: engine.coverage(),
        joint: engine.joint_breakdown(pushed),
        top_origins: engine.origin_table().top_n(8),
        analyzed: engine.analyzed(),
        overflow: engine.overflow(),
    };
    assert_eq!(
        s.analyzed + s.overflow,
        s.version,
        "every record is analyzed or overflow"
    );
    s
}

/// Feeds `records` in `k` chunks, snapshotting after every chunk
/// (exercising the memoized accessors mid-stream), and returns the
/// final snapshot.
fn chunked_feed(records: &[MissRecord<MissClass>], k: usize, config: EngineConfig) -> FullSnapshot {
    let mut engine: AnalysisEngine<MissClass> = AnalysisEngine::new(config);
    let chunk = records.len().div_ceil(k).max(1);
    let mut fed = 0usize;
    for c in records.chunks(chunk) {
        engine.push_record(&c[0]);
        engine.push_records(&c[1..]);
        fed += c.len();
        // Mid-stream snapshots must not perturb later answers.
        let s = snapshot(&mut engine, &records[..fed]);
        assert_eq!(s.version, engine.ingested(), "snapshot at the cut");
        // A second read of the quiet engine is a pure cache hit.
        let walks = engine.grammar_walks();
        assert_eq!(
            snapshot(&mut engine, &records[..fed]),
            s,
            "idempotent snapshot"
        );
        assert_eq!(engine.grammar_walks(), walks, "quiet re-read walks nothing");
    }
    snapshot(&mut engine, records)
}

fn batch_feed(records: &[MissRecord<MissClass>], config: EngineConfig) -> FullSnapshot {
    let mut engine: AnalysisEngine<MissClass> = AnalysisEngine::new(config);
    engine.push_records(records);
    snapshot(&mut engine, records)
}

#[test]
fn chunked_feeds_match_batch_feed_at_k_1_2_7() {
    for (seed, n, universe) in [(0xd1ff_0001u64, 700, 61), (0xd1ff_0002, 1100, 199)] {
        let records = seeded_records(seed, n, universe);
        let config = EngineConfig::default();
        let want = batch_feed(&records, config);
        for k in [1usize, 2, 7] {
            assert_eq!(
                chunked_feed(&records, k, config),
                want,
                "seed={seed:#x} k={k}"
            );
        }
    }
}

#[test]
fn chunked_feeds_match_batch_under_retention_cap() {
    // The retention cap must trip at the same record regardless of
    // chunking: grammar frozen, coverage/origins still counting.
    let records = seeded_records(0xd1ff_0003, 900, 47);
    let config = EngineConfig {
        max_retained: 256,
        ..EngineConfig::default()
    };
    let want = batch_feed(&records, config);
    assert_eq!(want.overflow, (900 - 256) as u64);
    assert_eq!(want.analyzed, 256);
    for k in [2usize, 7] {
        assert_eq!(chunked_feed(&records, k, config), want, "k={k}");
    }
}

#[test]
fn chunked_snapshots_equal_batch_prefix_snapshots() {
    // Stronger than final-state equality: *every* mid-stream snapshot
    // equals a fresh batch feed of exactly that prefix.
    let records = seeded_records(0xd1ff_0004, 420, 31);
    let config = EngineConfig::default();
    let mut engine: AnalysisEngine<MissClass> = AnalysisEngine::new(config);
    let mut fed = 0usize;
    for cut in [1usize, 2, 59, 60, 240, 420] {
        engine.push_records(&records[fed..cut]);
        fed = cut;
        assert_eq!(
            snapshot(&mut engine, &records[..cut]),
            batch_feed(&records[..cut], config),
            "prefix {cut}"
        );
    }
}

#[test]
fn degenerate_empty_trace() {
    let config = EngineConfig::default();
    let mut engine: AnalysisEngine<MissClass> = AnalysisEngine::new(config);
    let s = snapshot(&mut engine, &[]);
    assert_eq!(s.version, 0);
    assert_eq!(s.streams, StreamCounts::default());
    assert_eq!(s.coverage, CoverageCounts::default());
    assert_eq!(s.joint.total(), 0);
    assert!(s.top_origins.is_empty());
    assert_eq!(s, batch_feed(&[], config));
    // Pushing an empty batch is a no-op at the same version.
    engine.push_records(&[]);
    assert_eq!(snapshot(&mut engine, &[]), s);
}

#[test]
fn degenerate_single_miss() {
    let records = seeded_records(0xd1ff_0005, 1, 7);
    let config = EngineConfig::default();
    let want = batch_feed(&records, config);
    assert_eq!(want.streams.total(), 1);
    assert_eq!(want.streams.non_repetitive, 1, "one miss cannot recur");
    assert_eq!(want.streams.distinct_streams, 0);
    for k in [1usize, 2, 7] {
        assert_eq!(chunked_feed(&records, k, config), want, "k={k}");
    }
}

#[test]
fn degenerate_identical_addresses() {
    // 64 misses to one block: maximally repetitive, single origin.
    let records: Vec<MissRecord<MissClass>> = (0..64)
        .map(|i| MissRecord {
            block: Block::new(42),
            cpu: CpuId::new(i % 2),
            thread: ThreadId::new(0),
            function: FunctionId::new(7),
            class: MissClass::Replacement,
        })
        .collect();
    let config = EngineConfig::default();
    let want = batch_feed(&records, config);
    assert_eq!(want.streams.total(), 64);
    assert_eq!(
        want.streams.non_repetitive + want.streams.new_stream + want.streams.recurring_stream,
        64
    );
    assert_eq!(want.top_origins, vec![(7, 64)]);
    for k in [1usize, 2, 7] {
        assert_eq!(chunked_feed(&records, k, config), want, "k={k}");
    }
}

#[test]
fn engine_snapshot_matches_batch_stages() {
    // The engine's answers against the batch pipeline's stage
    // functions — the cross-consumer identity the server's loopback
    // tests rely on transitively.
    let records = seeded_records(0xd1ff_0006, 800, 89);
    let num_cpus = records.iter().map(|r| r.cpu.raw()).max().unwrap_or(0) + 1;
    let mut engine: AnalysisEngine<MissClass> = AnalysisEngine::new(EngineConfig::default());
    engine.push_records(&records);

    let partial = tempstream_core::stages::analyze_streams(&records, num_cpus);
    let counts = engine.stream_counts();
    assert_eq!(
        counts.non_repetitive,
        partial.stream_fraction.non_repetitive
    );
    assert_eq!(counts.new_stream, partial.stream_fraction.new_stream);
    assert_eq!(
        counts.recurring_stream,
        partial.stream_fraction.recurring_stream
    );
    assert_eq!(counts.distinct_streams, partial.distinct_streams as u64);

    let flags = tempstream_core::stages::analyze_strides(&records, num_cpus);
    let want_joint = tempstream_core::stages::joint_breakdown(&partial.labels, &flags);
    assert_eq!(engine.joint_breakdown(&records), want_joint);

    let analysis = engine.stream_analysis(&records);
    assert_eq!(analysis.labels(), partial.labels.as_slice());
}

// --- The live walks against the snapshot walk -----------------------
//
// `stream_counts()` and `stream_analysis()` fold one root walk over the
// live builder, read in place; `StreamAnalysis::of_grammar` runs the
// same walk over a `Grammar` snapshot, whose contiguous rule ids and
// copied bodies share nothing with the builder's. The server and its
// offline comparator both answer from the counts fold, and the batch
// pipeline from the labelled fold, so these tests are what ties them to
// the paper's definition over a finished grammar.

/// The labelled walk over a snapshot of `seq`, which must have been fed
/// exactly the blocks of `retained`.
fn snapshot_analysis<C: Copy>(seq: &Sequitur, retained: &[MissRecord<C>]) -> StreamAnalysis {
    let num_cpus = retained.iter().map(|r| r.cpu.raw()).max().unwrap_or(0) + 1;
    StreamAnalysis::of_grammar(&seq.grammar(), retained, num_cpus)
}

/// An analysis's totals, in the counts fold's form.
fn labelled_counts(analysis: &StreamAnalysis) -> StreamCounts {
    let (non_repetitive, new_stream, recurring_stream) = analysis.label_counts();
    StreamCounts {
        non_repetitive,
        new_stream,
        recurring_stream,
        distinct_streams: analysis.distinct_streams() as u64,
    }
}

/// Asserts that `live` and `snapshot` list the same occurrences up to a
/// one-to-one renaming of rule ids: the builder's internal ids against
/// the snapshot's contiguous ones.
fn assert_occurrences_match(live: &[StreamOccurrence], snapshot: &[StreamOccurrence], what: &str) {
    assert_eq!(live.len(), snapshot.len(), "{what}: occurrence count");
    let mut forward = HashMap::new();
    let mut backward = HashMap::new();
    for (i, (l, s)) in live.iter().zip(snapshot).enumerate() {
        assert_eq!(
            (l.start, l.len, l.new, l.reuse_distance),
            (s.start, s.len, s.new, s.reuse_distance),
            "{what}: occurrence {i}"
        );
        assert_eq!(
            *forward.entry(l.rule).or_insert(s.rule),
            s.rule,
            "{what}: occurrence {i} renames a live rule twice"
        );
        assert_eq!(
            *backward.entry(s.rule).or_insert(l.rule),
            l.rule,
            "{what}: occurrence {i} merges two live rules"
        );
    }
}

/// Asserts that both live folds of `engine`, which has been fed exactly
/// `pushed`, agree with the snapshot walk of `seq`, which must have been
/// fed exactly the blocks of `retained`.
fn assert_live_matches_snapshot<C: Copy>(
    engine: &mut AnalysisEngine<C>,
    pushed: &[MissRecord<C>],
    seq: &Sequitur,
    retained: &[MissRecord<C>],
    what: &str,
) {
    let want = snapshot_analysis(seq, retained);
    assert_eq!(engine.stream_counts(), labelled_counts(&want), "{what}");
    let live = engine.stream_analysis(pushed);
    assert_eq!(live.labels(), want.labels(), "{what}: labels");
    assert_eq!(
        live.distinct_streams(),
        want.distinct_streams(),
        "{what}: distinct streams"
    );
    assert_occurrences_match(live.occurrences(), want.occurrences(), what);
}

/// Feeds `records` to an engine in `k` chunks and to a reference
/// builder beside it (up to the retention cap), and compares the live
/// walks with the snapshot walk at every chunk boundary.
fn assert_walks_agree_chunked<C: Copy>(
    records: &[MissRecord<C>],
    k: usize,
    config: EngineConfig,
    what: &str,
) {
    let mut engine: AnalysisEngine<C> = AnalysisEngine::new(config);
    let mut seq = Sequitur::new();
    let chunk = records.len().div_ceil(k).max(1);
    let mut fed = 0usize;
    for c in records.chunks(chunk) {
        engine.push_records(c);
        fed += c.len();
        let retained = &records[..fed.min(config.max_retained)];
        for r in &retained[seq.input_len() as usize..] {
            seq.push(r.block.raw());
        }
        assert_live_matches_snapshot(
            &mut engine,
            &records[..fed],
            &seq,
            retained,
            &format!("{what}: k={k} prefix {fed}"),
        );
    }
    assert_live_matches_snapshot(
        &mut engine,
        records,
        &seq,
        &records[..records.len().min(config.max_retained)],
        &format!("{what}: k={k} final"),
    );
}

/// Compares the two walks at every prefix (one record per chunk) and
/// at the chunk boundaries of K ∈ {1, 2, 7}.
fn assert_walks_agree<C: Copy>(records: &[MissRecord<C>], config: EngineConfig, what: &str) {
    for k in [1usize, 2, 7, records.len().max(1)] {
        assert_walks_agree_chunked(records, k, config, what);
    }
}

#[test]
fn counts_walk_matches_labelled_walk_on_chunked_feeds() {
    for (seed, n, universe) in [
        (0xd1ff_0001u64, 700, 61),
        (0xd1ff_0002, 1100, 199),
        (0xd1ff_0004, 420, 31),
        (0xd1ff_0006, 800, 89),
    ] {
        let records = seeded_records(seed, n, universe);
        assert_walks_agree(
            &records,
            EngineConfig::default(),
            &format!("seed={seed:#x}"),
        );
    }
}

#[test]
fn counts_walk_matches_labelled_walk_past_the_retention_cap() {
    let records = seeded_records(0xd1ff_0003, 900, 47);
    let config = EngineConfig {
        max_retained: 256,
        ..EngineConfig::default()
    };
    assert_walks_agree(&records, config, "capped");
}

#[test]
fn counts_walk_matches_labelled_walk_on_degenerate_traces() {
    let config = EngineConfig::default();
    assert_walks_agree::<MissClass>(&[], config, "empty");
    assert_walks_agree(&seeded_records(0xd1ff_0005, 1, 7), config, "single miss");
    let identical: Vec<MissRecord<MissClass>> = (0..64)
        .map(|i| MissRecord {
            block: Block::new(42),
            cpu: CpuId::new(i % 2),
            thread: ThreadId::new(0),
            function: FunctionId::new(7),
            class: MissClass::Replacement,
        })
        .collect();
    assert_walks_agree(&identical, config, "identical addresses");
    // Nested repetition: an inner stream first emitted inside an outer
    // one must recur, not start anew, when it later occurs alone.
    let nested: Vec<MissRecord<MissClass>> = [1u64, 2, 1, 2, 5, 1, 2, 1, 2, 6, 1, 2, 7, 1, 2]
        .iter()
        .map(|&b| MissRecord {
            block: Block::new(b),
            cpu: CpuId::new(0),
            thread: ThreadId::new(0),
            function: FunctionId::new(0),
            class: MissClass::Replacement,
        })
        .collect();
    assert_walks_agree(&nested, config, "nested");
}

/// Compares the two walks over a simulator miss trace at 16 evenly
/// spaced prefixes and at its end.
fn assert_walks_agree_on_trace<C: Copy>(trace: &MissTrace<C>, what: &str) {
    let records = trace.records();
    assert!(!records.is_empty(), "{what}: empty trace");
    let config = EngineConfig {
        max_retained: usize::MAX,
        ..EngineConfig::default()
    };
    assert_walks_agree_chunked(records, 16, config, what);
}

#[test]
fn counts_walk_matches_labelled_walk_on_the_golden_traces() {
    // The smoke-scale traces `tests/grammar_golden.rs` pins the grammars
    // of: every workload on the paper geometry, multi-chip, single-chip
    // off-chip and intra-chip.
    const SEED: u64 = 0x715C_2008;
    const SCALE: Scale = Scale {
        warmup_ops: 20,
        ops: 150,
    };
    for w in Workload::ALL {
        let mut mc = MultiChipSim::new(MultiChipConfig::paper());
        mc.set_recording(false);
        let out = emit_workload(w, mc.config().nodes, SEED, SCALE, &mut mc);
        assert_walks_agree_on_trace(&mc.finish(out.instructions), &format!("{w:?} multi-chip"));

        let mut sc = SingleChipSim::new(SingleChipConfig::paper());
        sc.set_recording(false);
        let out = emit_workload(w, sc.config().cores, SEED, SCALE, &mut sc);
        let traces = sc.finish(out.instructions);
        assert_walks_agree_on_trace(&traces.off_chip, &format!("{w:?} single-chip"));
        assert_walks_agree_on_trace(&traces.intra_chip, &format!("{w:?} intra-chip"));
    }
}
