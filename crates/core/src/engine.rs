//! The unified incremental analysis engine.
//!
//! Every consumer of the paper's characterization — the batch pipeline
//! in [`crate::stages`], the online server's shards
//! (`tempstream-serve`), and the server's offline verification
//! comparator — runs on the one [`AnalysisEngine`] defined here. The
//! engine owns the full incremental state of the characterization:
//!
//! - a live SEQUITUR builder over the block sequence (stream
//!   detection), plus the retained record prefix its root walk labels;
//! - an optional [`OnlineEvaluator`] driving the temporal prefetch
//!   engine (coverage/accuracy) — present in the server's full
//!   configuration, absent in the batch pipeline's streams-only mode
//!   so `analyze_streams` pays for exactly what it reports;
//! - a per-function miss counter ([`OriginTable`]: direct-indexed
//!   dense array with a hashmap spill);
//! - a monotone [`version()`](AnalysisEngine::version) and two
//!   version-keyed memoized folds of the one root walk
//!   ([`crate::streams`]), both reading the live builder in place: the
//!   counts behind [`stream_counts`](AnalysisEngine::stream_counts) and
//!   the per-miss labels behind
//!   [`stream_analysis`](AnalysisEngine::stream_analysis). No path
//!   copies the builder into a `Grammar` snapshot.
//!
//! # Feeding modes and bit-identity
//!
//! The engine is *incremental*: [`push_record`] /
//! [`push_records`](AnalysisEngine::push_records) may be interleaved
//! freely with the snapshot accessors. Because the live SEQUITUR
//! builder over an ingest prefix holds the batch grammar of that
//! prefix, and the root walk is a pure function of (grammar, records),
//! **any interleaving of pushes and snapshots yields bit-identical
//! answers to one batch feed of the same records** — the differential
//! property test (`crates/core/tests/engine_differential.rs`) and the
//! `engine-diff` CI gate pin this for K-chunked feeds at K ∈ {1, 2, 7}.
//! The batch pipeline calls the same engine in feed-all-then-walk
//! mode via [`batch_stream_analysis`].
//!
//! # Version / memoization contract
//!
//! [`version()`](AnalysisEngine::version) advances exactly once per
//! applied record — i.e. exactly when observable state changes. Each
//! walk's result is cached keyed by the version at which it ran, so
//! any number of reads against a quiet engine cost O(1) and are
//! guaranteed fresh: a stale answer would require the cache key to
//! equal a version it was not computed at, which a monotone counter
//! rules out. [`grammar_walks`] counts cache misses of both walks
//! (actual root walks) so callers can *prove* the memoization — the
//! server, which only reads counts, exports it as a gauge and its
//! loopback tests pin exact walk counts.
//!
//! The shared zero-denominator guards [`frac`] / [`fracf`] (PR 3) are
//! re-exported here as the engine-level definition every report type
//! routes through (they live in `tempstream-obsv`, the dependency
//! root, so the leaf crates can reach them too).
//!
//! [`push_record`]: AnalysisEngine::push_record
//! [`grammar_walks`]: AnalysisEngine::grammar_walks

use crate::report::StrideJointReport;
use crate::streams::StreamAnalysis;
use crate::stride::StrideDetector;
use tempstream_fxhash::FxHashMap;
use tempstream_prefetch::{OnlineEvaluator, TemporalPrefetcher};
use tempstream_sequitur::Sequitur;
use tempstream_trace::miss::MissRecord;
use tempstream_trace::MissClass;

pub use tempstream_obsv::{frac, fracf};

/// Analysis parameters an engine runs with. The online server's shards,
/// its offline comparator, and the load generator's `--verify` mode all
/// construct engines from the same values, so defaults changing can
/// never silently diverge the paths (`tempstream-serve` re-exports this
/// as its `ShardConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// FIFO prefetch-buffer capacity (blocks) for the evaluation model.
    pub buffer_capacity: usize,
    /// Temporal prefetcher burst size (blocks fetched per trigger).
    pub burst: u32,
    /// Temporal prefetcher adaptive look-ahead cap.
    pub max_ahead: u32,
    /// Miss-log capacity of the temporal engine.
    pub log_capacity: usize,
    /// Records retained for SEQUITUR analysis; ingest beyond this still
    /// counts toward coverage and origins but no longer grows the
    /// grammar (the batch pipeline's `max_analysis_misses` cap, applied
    /// per engine).
    pub max_retained: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            buffer_capacity: 512,
            burst: 2,
            max_ahead: 8,
            log_capacity: 1 << 20,
            max_retained: 1 << 20,
        }
    }
}

/// Function ids below this are counted in a direct-indexed array; ids
/// at or above it spill to a hashmap. Real traces use small dense id
/// spaces, so the spill path exists only to keep hostile ids from
/// ballooning memory.
const DENSE_LIMIT: u32 = 1 << 16;

/// Per-function miss counts: a direct-indexed dense table for small
/// function ids with a hashmap spill for large ones.
///
/// Incrementing is a bounds-checked array add for the dense range (the
/// PR 4 direct-index pattern) instead of a hashmap probe per record.
/// The table is also the reusable merge target for
/// [`merge_top_origins`] and the server's per-cursor origin caches —
/// counts are monotone non-decreasing per engine, which is what lets
/// delta cursors patch a cached merge instead of rebuilding it.
#[derive(Debug, Clone, Default)]
pub struct OriginTable {
    /// Counts for function ids `< DENSE_LIMIT`, indexed directly; grown
    /// on demand to the highest id seen.
    dense: Vec<u64>,
    /// Counts for function ids `>= DENSE_LIMIT`.
    sparse: FxHashMap<u32, u64>,
}

impl OriginTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to `function`'s count.
    #[inline]
    pub fn add(&mut self, function: u32, n: u64) {
        if function < DENSE_LIMIT {
            let idx = function as usize;
            if idx >= self.dense.len() {
                self.dense.resize(idx + 1, 0);
            }
            self.dense[idx] += n;
        } else {
            *self.sparse.entry(function).or_insert(0) += n;
        }
    }

    /// `function`'s count (zero if never seen).
    #[inline]
    pub fn get(&self, function: u32) -> u64 {
        if function < DENSE_LIMIT {
            self.dense.get(function as usize).copied().unwrap_or(0)
        } else {
            self.sparse.get(&function).copied().unwrap_or(0)
        }
    }

    /// True when no function has a nonzero count.
    pub fn is_empty(&self) -> bool {
        self.dense.iter().all(|&c| c == 0) && self.sparse.is_empty()
    }

    /// Iterates nonzero `(function, count)` entries: the dense range in
    /// ascending id order, then the spill entries (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.dense
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(f, &c)| (f as u32, c))
            .chain(self.sparse.iter().map(|(&f, &c)| (f, c)))
    }

    /// The top-`n` functions by count descending, function id ascending
    /// as the tiebreak (a total order, so the answer never depends on
    /// iteration order).
    pub fn top_n(&self, n: usize) -> Vec<(u32, u64)> {
        let mut rows: Vec<(u32, u64)> = self.iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        rows.truncate(n);
        rows
    }

    /// Overwrites `self` with `src`'s contents, reusing `self`'s
    /// allocations — the server's cursor caches call this once per
    /// changed shard per delta, so it must not allocate in steady state.
    pub fn copy_from(&mut self, src: &OriginTable) {
        self.dense.clear();
        self.dense.extend_from_slice(&src.dense);
        self.sparse.clone_from(&src.sparse);
    }
}

/// Merged stream-fraction counts (the online form of the batch
/// `StreamFractionReport` plus the distinct-stream total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCounts {
    /// Misses outside any repeated sequence.
    pub non_repetitive: u64,
    /// Misses in first occurrences.
    pub new_stream: u64,
    /// Misses in later occurrences.
    pub recurring_stream: u64,
    /// Distinct streams (summed over engines when merged).
    pub distinct_streams: u64,
}

impl StreamCounts {
    /// All analyzed misses.
    pub fn total(&self) -> u64 {
        self.non_repetitive + self.new_stream + self.recurring_stream
    }
}

/// Merged prefetch-evaluation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoverageCounts {
    /// Demand misses observed.
    pub total: u64,
    /// Misses covered by the prefetch buffer.
    pub covered: u64,
    /// Prefetches issued.
    pub issued: u64,
}

/// The temporal-prefetch evaluation component: present in the full
/// (server) configuration, absent in streams-only batch mode.
#[derive(Debug)]
struct PrefetchEval {
    prefetcher: TemporalPrefetcher,
    eval: OnlineEvaluator,
}

/// One incremental instance of the paper's characterization.
///
/// Generic over the trace classification type `C` (the classification
/// never affects stream/origin/coverage analysis — it rides along in
/// the records) so the batch pipeline can run it over both off-chip
/// (`MissClass`) and intra-chip traces; the online server always uses
/// the `MissClass` default.
#[derive(Debug)]
pub struct AnalysisEngine<C: Copy = MissClass> {
    config: EngineConfig,
    seq: Sequitur,
    /// Records retained for grammar queries, in arrival order.
    records: Vec<MissRecord<C>>,
    /// Highest cpu id seen (drives the root walk's per-cpu counters).
    max_cpu: u32,
    /// Coverage/accuracy component (`None` in streams-only mode).
    prefetch: Option<PrefetchEval>,
    origin_counts: OriginTable,
    /// Every record ever pushed, retained or not.
    ingested: u64,
    /// Records past `max_retained` (analyzed for coverage/origins only).
    overflow: u64,
    /// Counts fold of the root walk, memoized at a version.
    counts_cache: Option<(u64, StreamCounts)>,
    /// Labelled fold of the root walk, memoized at a version; valid
    /// while the engine has not ingested past it.
    snapshot: Option<(u64, StreamAnalysis)>,
    /// Joint stride × stream breakdown memoized at a version.
    joint_cache: Option<(u64, StrideJointReport)>,
    /// Grammar root walks performed (cache misses of either walk); the
    /// server exports this as a gauge so tests can assert quiet engines
    /// answer without walking.
    walks: u64,
}

impl<C: Copy> AnalysisEngine<C> {
    /// Creates an empty engine in the full configuration: grammar,
    /// origin counts, *and* the temporal-prefetch evaluation component
    /// (what the server runs per shard).
    pub fn new(config: EngineConfig) -> Self {
        let prefetcher = TemporalPrefetcher::adaptive(config.burst, config.max_ahead)
            .with_log_capacity(config.log_capacity);
        let mut engine = Self::streams_only_with_config(config, 0);
        engine.prefetch = Some(PrefetchEval {
            prefetcher,
            eval: OnlineEvaluator::new(config.buffer_capacity),
        });
        engine
    }

    /// Creates an engine without the prefetch-evaluation component,
    /// pre-sized for `capacity` records — the batch pipeline's mode,
    /// where coverage is a separate concern (`tempstream-prefetch`
    /// sweeps) and the grammar push loop must not pay for it. The
    /// retention cap is lifted (`usize::MAX`): batch callers cap their
    /// input with [`crate::stages::cap`] instead.
    pub fn streams_only(capacity: usize) -> Self {
        Self::streams_only_with_config(
            EngineConfig {
                max_retained: usize::MAX,
                ..EngineConfig::default()
            },
            capacity,
        )
    }

    fn streams_only_with_config(config: EngineConfig, capacity: usize) -> Self {
        AnalysisEngine {
            config,
            seq: Sequitur::with_capacity(capacity),
            records: Vec::with_capacity(capacity.min(config.max_retained)),
            max_cpu: 0,
            prefetch: None,
            origin_counts: OriginTable::new(),
            ingested: 0,
            overflow: 0,
            counts_cache: None,
            snapshot: None,
            joint_cache: None,
            walks: 0,
        }
    }

    /// Ingests one record: feeds the origin counts and (when present)
    /// the prefetch evaluation always, and the SEQUITUR builder until
    /// the retention cap. Advances [`version`](Self::version) by one.
    #[inline]
    pub fn push_record(&mut self, record: &MissRecord<C>) {
        self.ingested += 1;
        self.max_cpu = self.max_cpu.max(record.cpu.raw());
        self.origin_counts.add(record.function.raw(), 1);
        if let Some(p) = &mut self.prefetch {
            p.eval.observe(&mut p.prefetcher, record.cpu, record.block);
        }
        if self.records.len() < self.config.max_retained {
            self.seq.push(record.block.raw());
            self.records.push(*record);
        } else {
            self.overflow += 1;
        }
    }

    /// Ingests a batch of records in order (equivalent to
    /// [`push_record`](Self::push_record) per element).
    pub fn push_records(&mut self, records: &[MissRecord<C>]) {
        for r in records {
            self.push_record(r);
        }
    }

    /// Records ever pushed into this engine.
    pub fn ingested(&self) -> u64 {
        self.ingested
    }

    /// Monotone state version: advances exactly when observable state
    /// changes (once per applied record), so delta cursors and the
    /// memoized snapshot can skip the expensive grammar walk for an
    /// engine that has not moved since their last read.
    pub fn version(&self) -> u64 {
        self.ingested
    }

    /// Records past the retention cap.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Grammar root walks performed so far — i.e. misses of the
    /// memoized counts walk and of the memoized labelled walk. Tests use
    /// this to prove version-keyed caching: querying a quiet engine must
    /// not move it.
    pub fn grammar_walks(&self) -> u64 {
        self.walks
    }

    /// The full root-walk analysis (labels, occurrences, distributions)
    /// of the retained records at the current version — bit-identical
    /// to batch-analyzing those records. The labelled fold of the root
    /// walk (`streams::label_streams`) over the live builder, read in
    /// place; memoized per the module-level version contract.
    pub fn stream_analysis(&mut self) -> &StreamAnalysis {
        let fresh = matches!(&self.snapshot, Some((v, _)) if *v == self.ingested);
        if !fresh {
            let analysis =
                crate::streams::label_streams(&self.seq, &self.records, self.max_cpu + 1);
            self.snapshot = Some((self.ingested, analysis));
            self.walks += 1;
        }
        &self.snapshot.as_ref().expect("refreshed above").1
    }

    /// Stream-fraction counts at the current version: the counts fold
    /// of the root walk over the live builder
    /// ([`crate::streams::count_streams`]), which reads no records.
    /// Memoized; the walk only runs when the engine ingested since the
    /// previous read.
    pub fn stream_counts(&mut self) -> StreamCounts {
        match self.counts_cache {
            Some((version, counts)) if version == self.ingested => counts,
            _ => {
                let counts = crate::streams::count_streams(&self.seq);
                self.counts_cache = Some((self.ingested, counts));
                self.walks += 1;
                counts
            }
        }
    }

    /// The joint repetitive × strided breakdown (Figure 3) over the
    /// retained records, memoized on the same version key.
    pub fn joint_breakdown(&mut self) -> StrideJointReport {
        if let Some((version, joint)) = self.joint_cache {
            if version == self.ingested {
                return joint;
            }
        }
        let flags = StrideDetector::of_records(&self.records, self.max_cpu + 1);
        let joint = crate::stages::joint_breakdown(self.stream_analysis().labels(), flags.flags());
        self.joint_cache = Some((self.ingested, joint));
        joint
    }

    /// Prefetch coverage counters accumulated so far (all zero in
    /// streams-only mode, which has no evaluation component).
    pub fn coverage(&self) -> CoverageCounts {
        match &self.prefetch {
            Some(p) => {
                let e = p.eval.snapshot();
                CoverageCounts {
                    total: e.total,
                    covered: e.covered,
                    issued: e.issued,
                }
            }
            None => CoverageCounts::default(),
        }
    }

    /// Per-function miss counts (shared reference; merge with
    /// [`merge_top_origins`]).
    pub fn origin_table(&self) -> &OriginTable {
        &self.origin_counts
    }

    /// Drops the memoized walks so the next accessor re-walks the
    /// grammar from scratch (a testing aid: cache-consistency tests
    /// compare the cached answer against a forced fresh walk).
    #[doc(hidden)]
    pub fn invalidate_snapshot(&mut self) {
        self.counts_cache = None;
        self.snapshot = None;
        self.joint_cache = None;
    }

    /// Current size of the SEQUITUR digram index (builder footprint).
    pub fn digram_index_len(&self) -> usize {
        self.seq.digram_index_len()
    }

    /// Bytes of the SEQUITUR digram index's slot table (builder footprint).
    pub fn digram_index_bytes(&self) -> usize {
        self.seq.digram_index_bytes()
    }

    /// Current size of the SEQUITUR node arena (builder footprint).
    pub fn node_arena_len(&self) -> usize {
        self.seq.node_arena_len()
    }
}

/// Feed-all-then-walk batch mode: runs one streams-only engine over
/// `records` and returns the labelled root walk of its builder, frozen
/// in place, exporting the grammar-inference metrics (`sequitur/*`
/// spans/counters/gauges, the grammar stats read from the same frozen
/// builder, and the `streams/*` histograms). This is the engine behind
/// [`StreamAnalysis::of_records`] — the batch pipeline, the runtime's
/// Analyze jobs, and the benches all route here.
pub fn batch_stream_analysis<C: Copy>(records: &[MissRecord<C>], num_cpus: u32) -> StreamAnalysis {
    let registry = tempstream_obsv::global();
    // The push loop is the grammar-inference hot path: its span plus
    // the symbol counter give push throughput, and the builder-size
    // gauges capture the peak index/arena footprint.
    let mut engine: AnalysisEngine<C> = AnalysisEngine::streams_only(records.len());
    registry.time("sequitur/push", || engine.push_records(records));
    registry
        .counter("sequitur/pushed_symbols")
        .add(records.len() as u64);
    registry
        .gauge("sequitur/digram_index")
        .set_max(engine.digram_index_len() as u64);
    registry
        .gauge("sequitur/digram_index_bytes")
        .set_max(engine.digram_index_bytes() as u64);
    registry
        .gauge("sequitur/node_arena")
        .set_max(engine.node_arena_len() as u64);
    // What follows reads only the grammar and `records`: free the rest
    // of the engine (its record copy, the digram index) first.
    let grammar = std::mem::take(&mut engine.seq).freeze();
    drop(engine);
    tempstream_sequitur::GrammarStats::of(&grammar).export(registry, "sequitur");
    let analysis = crate::streams::label_streams(&grammar, records, num_cpus);

    let len_hist = registry.histogram("streams/occurrence_len");
    let reuse_hist = registry.histogram("streams/reuse_distance");
    for occ in analysis.occurrences() {
        len_hist.record(occ.len);
        if let Some(d) = occ.reuse_distance {
            reuse_hist.record(d);
        }
    }
    analysis
}

/// Sums per-engine stream counts.
pub fn merge_stream_counts<I: IntoIterator<Item = StreamCounts>>(parts: I) -> StreamCounts {
    parts
        .into_iter()
        .fold(StreamCounts::default(), |a, b| StreamCounts {
            non_repetitive: a.non_repetitive + b.non_repetitive,
            new_stream: a.new_stream + b.new_stream,
            recurring_stream: a.recurring_stream + b.recurring_stream,
            distinct_streams: a.distinct_streams + b.distinct_streams,
        })
}

/// Sums per-engine coverage counters.
pub fn merge_coverage_counts<I: IntoIterator<Item = CoverageCounts>>(parts: I) -> CoverageCounts {
    parts
        .into_iter()
        .fold(CoverageCounts::default(), |a, b| CoverageCounts {
            total: a.total + b.total,
            covered: a.covered + b.covered,
            issued: a.issued + b.issued,
        })
}

/// Merges per-engine origin tables into the global top-`n` list,
/// ordered by count descending with function id ascending as the
/// tiebreak (a total order, so the answer never depends on iteration
/// order).
pub fn merge_top_origins<'a, I>(tables: I, n: usize) -> Vec<(u32, u64)>
where
    I: IntoIterator<Item = &'a OriginTable>,
{
    let mut merged = OriginTable::new();
    for table in tables {
        for (function, count) in table.iter() {
            merged.add(function, count);
        }
    }
    merged.top_n(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempstream_trace::{Block, CpuId, FunctionId, ThreadId};

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
    fn incremental_engine_matches_batch_stages() {
        let blocks = [1u64, 2, 3, 1, 2, 3, 9, 4, 1, 2, 5, 4, 1, 2, 5, 9];
        let records: Vec<_> = blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| record(b, (i % 2) as u32, (b % 3) as u32))
            .collect();
        let cfg = EngineConfig::default();
        let mut engine = AnalysisEngine::new(cfg);
        for r in &records {
            engine.push_record(r);
        }
        let partial = crate::stages::analyze_streams(&records, 2);
        let online = engine.stream_counts();
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

        let mut batch_prefetcher = TemporalPrefetcher::adaptive(cfg.burst, cfg.max_ahead)
            .with_log_capacity(cfg.log_capacity);
        let batch =
            tempstream_prefetch::evaluate(&mut batch_prefetcher, &records, cfg.buffer_capacity);
        let cov = engine.coverage();
        assert_eq!(
            (cov.total, cov.covered, cov.issued),
            (batch.total, batch.covered, batch.issued)
        );
    }

    #[test]
    fn retention_cap_freezes_grammar_not_coverage() {
        let cfg = EngineConfig {
            max_retained: 4,
            ..EngineConfig::default()
        };
        let mut engine: AnalysisEngine = AnalysisEngine::new(cfg);
        for i in 0..10u64 {
            engine.push_record(&record(i % 3, 0, 0));
        }
        assert_eq!(engine.ingested(), 10);
        assert_eq!(engine.overflow(), 6);
        assert_eq!(engine.stream_counts().total(), 4, "grammar capped");
        assert_eq!(engine.coverage().total, 10, "coverage uncapped");
    }

    #[test]
    fn snapshot_cache_is_version_keyed() {
        let mut engine: AnalysisEngine = AnalysisEngine::new(EngineConfig::default());
        for i in 0..8u64 {
            engine.push_record(&record(i % 3, 0, 0));
        }
        assert_eq!(engine.grammar_walks(), 0, "no walk before first query");
        let first = engine.stream_counts();
        assert_eq!(engine.grammar_walks(), 1);
        assert_eq!(engine.stream_counts(), first, "cache hit answers equally");
        assert_eq!(engine.grammar_walks(), 1, "quiet engine must not re-walk");
        engine.push_record(&record(1, 0, 0));
        let second = engine.stream_counts();
        assert_eq!(engine.grammar_walks(), 2, "new version forces a walk");
        assert_eq!(second.total(), first.total() + 1);
        // The cached answer equals a from-scratch walk of the same state.
        engine.invalidate_snapshot();
        assert_eq!(engine.stream_counts(), second);
        assert_eq!(engine.grammar_walks(), 3, "invalidation forces a walk");
    }

    #[test]
    fn joint_breakdown_matches_batch_and_is_memoized() {
        // Strided run [10,11,12,13] plus a repeated pair.
        let blocks = [10u64, 11, 12, 13, 1, 2, 7, 1, 2];
        let records: Vec<_> = blocks.iter().map(|&b| record(b, 0, 0)).collect();
        let mut engine: AnalysisEngine = AnalysisEngine::new(EngineConfig::default());
        engine.push_records(&records);
        let streams = crate::stages::analyze_streams(&records, 1);
        let flags = crate::stages::analyze_strides(&records, 1);
        let want = crate::stages::joint_breakdown(&streams.labels, &flags);
        assert_eq!(engine.joint_breakdown(), want);
        let walks = engine.grammar_walks();
        assert_eq!(engine.joint_breakdown(), want, "memoized answer stable");
        assert_eq!(engine.grammar_walks(), walks, "no re-walk while quiet");
    }

    #[test]
    fn streams_only_mode_reports_zero_coverage() {
        let mut engine: AnalysisEngine = AnalysisEngine::streams_only(4);
        engine.push_records(&[record(1, 0, 0), record(2, 0, 1), record(1, 0, 0)]);
        assert_eq!(engine.coverage(), CoverageCounts::default());
        assert_eq!(engine.origin_table().get(0), 2, "origins still counted");
        assert_eq!(engine.version(), 3);
    }

    #[test]
    fn origin_table_counts_and_spills() {
        let mut t = OriginTable::new();
        assert!(t.is_empty());
        t.add(3, 2);
        t.add(3, 1);
        t.add(0, 5);
        let huge = DENSE_LIMIT + 17;
        t.add(huge, 4);
        assert_eq!(t.get(3), 3);
        assert_eq!(t.get(0), 5);
        assert_eq!(t.get(huge), 4);
        assert_eq!(t.get(1), 0, "unseen dense id");
        assert_eq!(t.get(DENSE_LIMIT + 1), 0, "unseen sparse id");
        let mut rows: Vec<_> = t.iter().collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![(0, 5), (3, 3), (huge, 4)]);

        let mut copy = OriginTable::new();
        copy.add(9, 99);
        copy.copy_from(&t);
        assert_eq!(copy.get(9), 0, "copy_from overwrites");
        assert_eq!(copy.get(huge), 4);
        assert_eq!(copy.top_n(2), vec![(0, 5), (huge, 4)]);
    }

    #[test]
    fn top_origins_merge_is_ordered_and_total() {
        let mut a = OriginTable::new();
        a.add(1, 5);
        a.add(2, 3);
        let mut b = OriginTable::new();
        b.add(2, 2);
        b.add(3, 5);
        let rows = merge_top_origins([&a, &b], 3);
        // count desc, then function asc: 1→5, 2→5, 3→5 all tie on count.
        assert_eq!(rows, vec![(1, 5), (2, 5), (3, 5)]);
        assert_eq!(merge_top_origins([&a, &b], 2), vec![(1, 5), (2, 5)]);
    }
}
