//! Shard routing and the merge of per-shard answers.
//!
//! Each shard is one [`AnalysisEngine`] (`tempstream_core::engine`) in
//! its full configuration ([`ShardConfig`]), owned by its shard worker:
//! the engine holds the live SEQUITUR builder, the [`OnlineEvaluator`]
//! driving the temporal prefetch engine, the per-function
//! [`OriginTable`], and the version-memoized stream-counts snapshot.
//! This module adds only what is server-specific — routing. Records are
//! routed to shards by [`shard_of`] — a seedless Fx hash of the block
//! address, so the same trace always shards the same way in any
//! process, which is what makes the offline comparator
//! ([`crate::offline`]) bit-exact.
//!
//! Each shard's worker computes its part of a query at the query's cut
//! marker, and the reader merges the parts across shards with the
//! engine's `merge_*` functions (re-exported below); the offline
//! comparator runs the same engine *and* the same merge functions, so
//! online and offline answers can only differ if the transport layer
//! reorders or drops records — which is exactly what the loopback tests
//! exist to rule out. The engine's incremental-vs-batch bit-identity is
//! pinned upstream by `crates/core/tests/engine_differential.rs` and
//! the `engine-diff` CI gate.
//!
//! Two hot-path properties come with the engine: origin counts live in
//! a dense+spill [`OriginTable`] (no hashmap probe per record for real
//! id ranges), and each shard's [`StreamCounts`] — the one answer that
//! requires a full grammar root walk — is cached keyed by the engine's
//! version (records ingested), so a shard that has not ingested since
//! the last query answers O(1).
//!
//! [`AnalysisEngine`]: tempstream_core::engine::AnalysisEngine
//! [`OnlineEvaluator`]: tempstream_prefetch::OnlineEvaluator

pub use tempstream_core::engine::{
    merge_coverage_counts, merge_stream_counts, merge_top_origins, CoverageCounts,
    EngineConfig as ShardConfig, OriginTable, StreamCounts,
};

/// Routes a block address to a shard: seedless Fx hash, modulo `shards`.
///
/// [`tempstream_fxhash::hash_word`] is bit-identical to feeding the
/// block through a fresh `FxHasher` (the original implementation here)
/// but costs one multiply instead of a hasher construction per record —
/// this runs once per ingested record in every connection reader. The
/// routing-stability property tests pin the exact mapping, since the
/// offline comparator's bit-exactness depends on it never moving.
#[inline]
pub fn shard_of(block: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    (tempstream_fxhash::hash_word(block) % shards as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempstream_core::engine::AnalysisEngine;
    use tempstream_trace::miss::MissRecord;
    use tempstream_trace::{Block, CpuId, FunctionId, MissClass, ThreadId};

    fn record(block: u64, cpu: u32, function: u32) -> MissRecord<MissClass> {
        MissRecord {
            block: Block::new(block),
            cpu: CpuId::new(cpu),
            thread: ThreadId::new(cpu),
            function: FunctionId::new(function),
            class: MissClass::Replacement,
        }
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for block in 0..500u64 {
                let s = shard_of(block, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(block, shards), "stable per (block, shards)");
            }
        }
        // All shards actually receive traffic.
        let mut hit = vec![false; 4];
        for block in 0..500u64 {
            hit[shard_of(block, 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "some shard never selected: {hit:?}");
    }

    #[test]
    fn incremental_shard_matches_batch_stages() {
        let blocks = [1u64, 2, 3, 1, 2, 3, 9, 4, 1, 2, 5, 4, 1, 2, 5, 9];
        let records: Vec<_> = blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| record(b, (i % 2) as u32, (b % 3) as u32))
            .collect();
        let cfg = ShardConfig::default();
        let mut shard = AnalysisEngine::new(cfg);
        for r in &records {
            shard.push_record(r);
        }
        let partial = tempstream_core::stages::analyze_streams(&records, 2);
        let online = shard.stream_counts();
        assert_eq!(
            online.non_repetitive,
            partial.stream_fraction.non_repetitive
        );
        assert_eq!(online.new_stream, partial.stream_fraction.new_stream);
        assert_eq!(
            online.recurring_stream,
            partial.stream_fraction.recurring_stream
        );
        assert_eq!(online.distinct_streams, partial.distinct_streams as u64);

        let mut batch_prefetcher =
            tempstream_prefetch::TemporalPrefetcher::adaptive(cfg.burst, cfg.max_ahead)
                .with_log_capacity(cfg.log_capacity);
        let batch =
            tempstream_prefetch::evaluate(&mut batch_prefetcher, &records, cfg.buffer_capacity);
        let cov = shard.coverage();
        assert_eq!(
            (cov.total, cov.covered, cov.issued),
            (batch.total, batch.covered, batch.issued)
        );
    }

    #[test]
    fn retention_cap_freezes_grammar_not_coverage() {
        let cfg = ShardConfig {
            max_retained: 4,
            ..ShardConfig::default()
        };
        let mut shard = AnalysisEngine::new(cfg);
        for i in 0..10u64 {
            shard.push_record(&record(i % 3, 0, 0));
        }
        assert_eq!(shard.ingested(), 10);
        assert_eq!(shard.overflow(), 6);
        assert_eq!(shard.stream_counts().total(), 4, "grammar capped");
        assert_eq!(shard.coverage().total, 10, "coverage uncapped");
    }

    #[test]
    fn stream_counts_cache_is_version_keyed() {
        let mut shard = AnalysisEngine::new(ShardConfig::default());
        for i in 0..8u64 {
            shard.push_record(&record(i % 3, 0, 0));
        }
        assert_eq!(shard.grammar_walks(), 0, "no walk before first query");
        let first = shard.stream_counts();
        assert_eq!(shard.grammar_walks(), 1);
        assert_eq!(shard.stream_counts(), first, "cache hit answers equally");
        assert_eq!(shard.grammar_walks(), 1, "quiet shard must not re-walk");
        shard.push_record(&record(1, 0, 0));
        let second = shard.stream_counts();
        assert_eq!(shard.grammar_walks(), 2, "new version forces a walk");
        assert_eq!(second.total(), first.total() + 1);
        // The cached answer equals a from-scratch walk of the same
        // state: a fresh shard fed the same records must agree.
        let mut fresh = AnalysisEngine::new(ShardConfig::default());
        for i in 0..8u64 {
            fresh.push_record(&record(i % 3, 0, 0));
        }
        fresh.push_record(&record(1, 0, 0));
        assert_eq!(fresh.stream_counts(), second);
    }
}
