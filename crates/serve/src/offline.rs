//! Offline replica of the server's answers, for bit-exact verification.
//!
//! The [`Comparator`] partitions records with the *same* hash routing
//! the server's connection readers use ([`shard_of`]), feeds one
//! [`AnalysisEngine`] per partition (the same engine each server shard
//! runs), and merges with the *same* `merge_*` functions the
//! server's query path calls. Any ingest-order preserving server must
//! therefore answer queries bit-identically — the loopback tests and
//! `serve-load --verify` assert exactly that. The engine itself is
//! independently pinned incremental-vs-batch by
//! `crates/core/tests/engine_differential.rs` and the `engine-diff` CI
//! gate, so this comparator checks what only a comparator can: that
//! the wire protocol, routing, sharded cut, and merge deliver every
//! acknowledged record to the right engine exactly once, in order.
//!
//! Unlike the pre-engine comparator, which re-analyzed every partition
//! from scratch per query (O(phases × records) grammar work across a
//! verification run), the comparator is *stateful*: verification
//! harnesses construct it once, [`push`](Comparator::push) each record
//! exactly once as it is acknowledged, and snapshot
//! [`expected`](Comparator::expected) as often as they like — the
//! engines' version-keyed memoization makes repeat snapshots of a quiet
//! partition O(1).

use crate::shard::{
    merge_coverage_counts, merge_stream_counts, merge_top_origins, shard_of, CoverageCounts,
    ShardConfig, StreamCounts,
};
use tempstream_core::engine::AnalysisEngine;
use tempstream_trace::miss::MissRecord;
use tempstream_trace::MissClass;

/// The full answer set the server exposes, computed offline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// Merged stream-fraction counts.
    pub streams: StreamCounts,
    /// Merged prefetch coverage counters.
    pub coverage: CoverageCounts,
    /// Global top origins, `(function id, miss count)`.
    pub top_origins: Vec<(u32, u64)>,
}

/// A stateful offline replica of a `shards`-way server: one engine per
/// partition, fed incrementally, snapshot on demand.
#[derive(Debug)]
pub struct Comparator {
    shards: usize,
    engines: Vec<AnalysisEngine>,
    pushed: u64,
}

impl Comparator {
    /// Creates a comparator mirroring a `shards`-way server running
    /// `config` (zero shards is treated as one, like the server).
    pub fn new(shards: usize, config: ShardConfig) -> Self {
        let shards = shards.max(1);
        Comparator {
            shards,
            engines: (0..shards).map(|_| AnalysisEngine::new(config)).collect(),
            pushed: 0,
        }
    }

    /// Feeds `records` in order, routing each to its partition with the
    /// server's [`shard_of`]. Call once per acknowledged record —
    /// never re-push history.
    pub fn push(&mut self, records: &[MissRecord<MissClass>]) {
        for r in records {
            self.engines[shard_of(r.block.raw(), self.shards)].push_record(r);
            self.pushed += 1;
        }
    }

    /// Records pushed so far. Verification harnesses assert this equals
    /// the records acknowledged — i.e. each record was analyzed exactly
    /// once, not once per verification phase.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// What the mirrored server must answer right now.
    pub fn expected(&mut self, top_n: usize) -> Expected {
        Expected {
            streams: merge_stream_counts(
                self.engines.iter_mut().map(AnalysisEngine::stream_counts),
            ),
            coverage: merge_coverage_counts(self.engines.iter().map(AnalysisEngine::coverage)),
            top_origins: merge_top_origins(
                self.engines.iter().map(AnalysisEngine::origin_table),
                top_n,
            ),
        }
    }

    /// Grammar root walks performed across all partitions — the
    /// comparator-side analogue of the server's
    /// `serve/analysis/grammar_walks` gauge; tests use it to prove the
    /// suite no longer rebuilds grammars from scratch per phase.
    pub fn grammar_walks(&self) -> u64 {
        self.engines.iter().map(AnalysisEngine::grammar_walks).sum()
    }
}

/// Computes what a `shards`-way server must answer after ingesting
/// `records` in order — a one-shot [`Comparator`].
pub fn expected(
    records: &[MissRecord<MissClass>],
    shards: usize,
    config: ShardConfig,
    top_n: usize,
) -> Expected {
    let mut comparator = Comparator::new(shards, config);
    comparator.push(records);
    comparator.expected(top_n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempstream_trace::{Block, CpuId, FunctionId, ThreadId};

    fn seeded_records(n: usize) -> Vec<MissRecord<MissClass>> {
        let mut rng = tempstream_trace::rng::SplitMix64::new(0x5eed_cafe);
        (0..n)
            .map(|_| {
                let block = rng.next_u64() % 97;
                MissRecord {
                    block: Block::new(block),
                    cpu: CpuId::new((rng.next_u64() % 4) as u32),
                    thread: ThreadId::new((rng.next_u64() % 8) as u32),
                    function: FunctionId::new((rng.next_u64() % 13) as u32),
                    class: MissClass::Replacement,
                }
            })
            .collect()
    }

    #[test]
    fn sharded_online_matches_offline_expected() {
        let records = seeded_records(600);
        let config = ShardConfig::default();
        for shards in [1usize, 2, 4] {
            let mut engines: Vec<AnalysisEngine> =
                (0..shards).map(|_| AnalysisEngine::new(config)).collect();
            for r in &records {
                engines[shard_of(r.block.raw(), shards)].push_record(r);
            }
            let online_streams =
                merge_stream_counts(engines.iter_mut().map(AnalysisEngine::stream_counts));
            let online_cov = merge_coverage_counts(engines.iter().map(AnalysisEngine::coverage));
            let online_top = merge_top_origins(engines.iter().map(AnalysisEngine::origin_table), 8);

            let want = expected(&records, shards, config, 8);
            assert_eq!(online_streams, want.streams, "shards={shards}");
            assert_eq!(online_cov, want.coverage, "shards={shards}");
            assert_eq!(online_top, want.top_origins, "shards={shards}");
        }
    }

    #[test]
    fn one_shard_equals_whole_trace_batch() {
        let records = seeded_records(400);
        let config = ShardConfig::default();
        let want = expected(&records, 1, config, 4);
        let num_cpus = records.iter().map(|r| r.cpu.raw()).max().unwrap_or(0) + 1;
        let partial = tempstream_core::stages::analyze_streams(&records, num_cpus);
        assert_eq!(
            want.streams.non_repetitive,
            partial.stream_fraction.non_repetitive
        );
        assert_eq!(want.streams.new_stream, partial.stream_fraction.new_stream);
        assert_eq!(
            want.streams.recurring_stream,
            partial.stream_fraction.recurring_stream
        );
        assert_eq!(
            want.streams.distinct_streams,
            partial.distinct_streams as u64
        );
    }

    #[test]
    fn incremental_snapshots_match_one_shot_expected() {
        // The stateful comparator fed in phases must answer exactly
        // like the one-shot function over each prefix, without ever
        // re-pushing history.
        let records = seeded_records(500);
        let config = ShardConfig::default();
        for shards in [1usize, 2, 4] {
            let mut comparator = Comparator::new(shards, config);
            let mut fed = 0usize;
            for cut in [120usize, 121, 350, 500] {
                comparator.push(&records[fed..cut]);
                fed = cut;
                assert_eq!(comparator.pushed(), cut as u64);
                assert_eq!(
                    comparator.expected(8),
                    expected(&records[..cut], shards, config, 8),
                    "shards={shards} cut={cut}"
                );
            }
            // Phase count must not multiply grammar work: at most one
            // walk per (partition, phase) — and none for the repeat
            // snapshot of an unchanged partition below.
            let walks = comparator.grammar_walks();
            assert!(walks <= 4 * shards as u64, "walks={walks}");
            let again = comparator.expected(8);
            assert_eq!(comparator.grammar_walks(), walks, "quiet snapshot is O(1)");
            assert_eq!(again, expected(&records, shards, config, 8));
        }
    }
}
