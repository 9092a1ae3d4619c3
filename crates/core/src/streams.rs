//! Temporal-stream identification via SEQUITUR.
//!
//! A temporal stream is a sequence of two or more misses that occurs at
//! least twice (paper §2). Running SEQUITUR over the block-address miss
//! sequence yields a grammar whose non-root rules are exactly the distinct
//! repeated subsequences. Walking the root rule segments the trace into
//! stream occurrences (root-level rule references) and non-repetitive
//! misses (root-level terminals); an occurrence is *New* if no rule in its
//! expansion has been emitted before, else *Recurring*.

use crate::distribution::{LengthCdf, ReuseDistancePdf};
use crate::engine::StreamCounts;
use tempstream_sequitur::{Grammar, GrammarSymbol, GrammarView, RuleId, Sequitur};
use tempstream_trace::miss::MissRecord;
use tempstream_trace::MissTrace;

/// Per-miss stream label (Figure 2's three segments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamLabel {
    /// Not part of any repeated sequence.
    NonRepetitive,
    /// Part of the first occurrence of a temporal stream.
    NewStream,
    /// Part of the second or a later occurrence of a temporal stream.
    RecurringStream,
}

/// One root-level stream occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOccurrence {
    /// Grammar rule identifying the stream: unique per distinct
    /// stream within one analysis, and meaningful only as such (a set
    /// or map key). Its value is the id of the grammar the walk read,
    /// the builder's internal id on the engine and batch paths, so it
    /// differs between analyses and from a [`Grammar`] snapshot's
    /// contiguous ids.
    pub rule: RuleId,
    /// Trace position of the occurrence's first miss.
    pub start: usize,
    /// Occurrence length in misses.
    pub len: u64,
    /// `true` for the stream's first occurrence.
    pub new: bool,
    /// Reuse distance from the previous occurrence: intervening misses
    /// observed by the previous occurrence's processor (paper §4.5).
    /// `None` for first occurrences.
    pub reuse_distance: Option<u64>,
}

/// The result of stream analysis over one miss trace.
#[derive(Debug, Clone)]
pub struct StreamAnalysis {
    labels: Vec<StreamLabel>,
    occurrences: Vec<StreamOccurrence>,
    distinct_streams: usize,
}

impl StreamAnalysis {
    /// Analyzes a miss trace (any classification type).
    ///
    /// Cost is linear-ish in trace length; the SEQUITUR builder and all
    /// per-position labels are materialized.
    pub fn of_trace<C: Copy>(trace: &MissTrace<C>) -> Self {
        Self::of_records(trace.records(), trace.num_cpus())
    }

    /// Analyzes a raw record slice: a streams-only
    /// [`AnalysisEngine`](crate::engine::AnalysisEngine) in
    /// feed-all-then-walk mode (see
    /// [`crate::engine::batch_stream_analysis`], which also exports the
    /// grammar-inference metrics).
    pub fn of_records<C: Copy>(records: &[MissRecord<C>], num_cpus: u32) -> Self {
        crate::engine::batch_stream_analysis(records, num_cpus)
    }

    /// Labels `records` against a finished grammar over their block
    /// sequence: the labelled root walk of `label_streams` over a
    /// snapshot instead of the live builder, bit-identical to it except
    /// for the occurrences' rule ids.
    ///
    /// `grammar` must derive from exactly the block sequence of
    /// `records` (debug-asserted by the walk covering the whole slice).
    pub fn of_grammar<C: Copy>(
        grammar: &Grammar,
        records: &[MissRecord<C>],
        num_cpus: u32,
    ) -> Self {
        label_streams(grammar, records, num_cpus)
    }

    /// Per-miss labels, index-aligned with the analyzed trace.
    pub fn labels(&self) -> &[StreamLabel] {
        &self.labels
    }

    /// All root-level stream occurrences in trace order.
    pub fn occurrences(&self) -> &[StreamOccurrence] {
        &self.occurrences
    }

    /// Distinct streams: the grammar's non-root rules.
    pub fn distinct_streams(&self) -> usize {
        self.distinct_streams
    }

    /// Trace length analyzed.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the analyzed trace was empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Counts of (non-repetitive, new, recurring) misses.
    pub fn label_counts(&self) -> (u64, u64, u64) {
        let mut n = (0, 0, 0);
        for l in &self.labels {
            match l {
                StreamLabel::NonRepetitive => n.0 += 1,
                StreamLabel::NewStream => n.1 += 1,
                StreamLabel::RecurringStream => n.2 += 1,
            }
        }
        n
    }

    /// Fraction of misses in temporal streams (new + recurring).
    pub fn stream_fraction(&self) -> f64 {
        let (_, new, rec) = self.label_counts();
        crate::engine::frac(new + rec, self.labels.len() as u64)
    }

    /// Stream-length distribution weighted by contribution to temporal
    /// streams (Figure 4, left).
    pub fn length_cdf(&self) -> LengthCdf {
        let mut cdf = LengthCdf::new();
        for occ in &self.occurrences {
            cdf.add(occ.len, occ.len);
        }
        cdf
    }

    /// Reuse-distance distribution, log-decade binned and truncated at
    /// 10^7 (Figure 4, right), weighted by occurrence length.
    pub fn reuse_distance_pdf(&self) -> ReuseDistancePdf {
        let mut pdf = ReuseDistancePdf::new();
        for occ in &self.occurrences {
            if let Some(d) = occ.reuse_distance {
                pdf.add(d, occ.len);
            }
        }
        pdf
    }
}

/// One root-level item of the root walk, reported in root order.
enum RootItem {
    /// A root terminal: one non-repetitive miss.
    Terminal,
    /// A root-level rule reference: one stream occurrence of `len`
    /// misses, `new` if no rule in its expansion was emitted before.
    /// `stream` numbers the distinct streams densely, in the order the
    /// walk first reaches them.
    Stream {
        rule: RuleId,
        stream: usize,
        len: u64,
        new: bool,
    },
}

/// The paper's root walk, over a finished grammar or the live builder:
/// reports each root item to `visit` and returns the number of distinct
/// streams.
///
/// Expansion lengths come from a memoized post-order pass, so a rule
/// counts as seen once its length is known: measuring a root-level
/// occurrence's unseen rule visits exactly the unseen rules its
/// expansion emits. Every live rule is reachable from the root (each
/// non-root rule is referenced by a live body and the grammar is
/// acyclic), so the rules the walk reaches are the distinct streams.
fn root_walk<G: GrammarView>(grammar: &G, mut visit: impl FnMut(RootItem)) -> usize {
    // stream_of[r]: 1 + rule r's stream number once measured, 0 while
    // unseen. A live builder's rule ids run far past its live rules
    // (deleted rules keep theirs), so the per-stream tables are indexed
    // by stream number instead.
    let mut stream_of = vec![0u32; grammar.rule_bound()];
    // lens[n]: expansion length of stream n.
    let mut lens: Vec<u64> = Vec::new();
    // Rules being measured, each with its body cursor and length so far.
    let mut stack = Vec::new();
    for sym in grammar.body(RuleId::ROOT) {
        let GrammarSymbol::Rule(rule) = sym else {
            visit(RootItem::Terminal);
            continue;
        };
        let new = stream_of[rule.index()] == 0;
        if new {
            // Measure `rule` and every unseen rule below it, post-order.
            stack.push((rule, grammar.body(rule), 0u64));
            while let Some((_, body, acc)) = stack.last_mut() {
                match body.next() {
                    Some(GrammarSymbol::Terminal(_)) => *acc += 1,
                    Some(GrammarSymbol::Rule(sub)) => match stream_of[sub.index()] {
                        0 => stack.push((sub, grammar.body(sub), 0)),
                        n => *acc += lens[n as usize - 1],
                    },
                    None => {
                        let (done, _, len) = stack.pop().expect("checked above");
                        lens.push(len);
                        stream_of[done.index()] = u32::try_from(lens.len()).expect("stream count");
                        if let Some((_, _, parent)) = stack.last_mut() {
                            *parent += len;
                        }
                    }
                }
            }
        }
        let stream = stream_of[rule.index()] as usize - 1;
        visit(RootItem::Stream {
            rule,
            stream,
            len: lens[stream],
            new,
        });
    }
    lens.len()
}

/// The counts fold of the root walk: [`StreamCounts`] of a live
/// builder, read in place. Equal to the [`label_counts`] and
/// [`distinct_streams`] of `label_streams` over `seq`, without
/// materializing labels or occurrences or reading any records.
///
/// [`label_counts`]: StreamAnalysis::label_counts
/// [`distinct_streams`]: StreamAnalysis::distinct_streams
pub fn count_streams(seq: &Sequitur) -> StreamCounts {
    let mut counts = StreamCounts::default();
    let distinct = root_walk(seq, |item| match item {
        RootItem::Terminal => counts.non_repetitive += 1,
        RootItem::Stream { len, new: true, .. } => counts.new_stream += len,
        RootItem::Stream {
            len, new: false, ..
        } => counts.recurring_stream += len,
    });
    counts.distinct_streams = distinct as u64;
    debug_assert_eq!(
        counts.total(),
        seq.input_len(),
        "root walk must cover the input"
    );
    counts
}

/// The labelled fold of the root walk: labels every position of
/// `records`, collects the occurrences, and measures reuse distances
/// with per-cpu miss counters.
///
/// `grammar` must derive from exactly the block sequence of `records`
/// (debug-asserted by the walk covering the whole slice). The engine
/// passes its live builder and the batch pipeline its frozen one;
/// because the walk is a pure function of (grammar, records), any
/// feeding order of the same records gives the same answer.
pub(crate) fn label_streams<G: GrammarView, C: Copy>(
    grammar: &G,
    records: &[MissRecord<C>],
    num_cpus: u32,
) -> StreamAnalysis {
    let mut labels = vec![StreamLabel::NonRepetitive; records.len()];
    // Root-level rule references bound the occurrence count, so one
    // reservation covers the whole walk.
    let mut occurrences = Vec::with_capacity(
        grammar
            .body(RuleId::ROOT)
            .filter(|s| matches!(s, GrammarSymbol::Rule(_)))
            .count(),
    );
    // last_occ[n]: (cpu of stream n's last occurrence, that cpu's miss
    // count at the occurrence's end).
    let mut last_occ: Vec<Option<(u32, u64)>> = Vec::new();
    let mut cpu_counts = vec![0u64; num_cpus.max(1) as usize];
    let mut pos = 0usize;
    let distinct_streams = root_walk(grammar, |item| match item {
        RootItem::Terminal => {
            cpu_counts[records[pos].cpu.index()] += 1;
            pos += 1;
        }
        RootItem::Stream {
            rule,
            stream,
            len,
            new,
        } => {
            if stream >= last_occ.len() {
                last_occ.resize(stream + 1, None);
            }
            let occ_cpu = records[pos].cpu.raw();
            let reuse_distance =
                last_occ[stream].map(|(pcpu, pcount)| cpu_counts[pcpu as usize] - pcount);
            let label = if new {
                StreamLabel::NewStream
            } else {
                StreamLabel::RecurringStream
            };
            let end = pos + len as usize;
            labels[pos..end].fill(label);
            for r in &records[pos..end] {
                cpu_counts[r.cpu.index()] += 1;
            }
            occurrences.push(StreamOccurrence {
                rule,
                start: pos,
                len,
                new,
                reuse_distance,
            });
            last_occ[stream] = Some((occ_cpu, cpu_counts[occ_cpu as usize]));
            pos = end;
        }
    });
    debug_assert_eq!(pos, records.len(), "root walk must cover the trace");
    StreamAnalysis {
        labels,
        occurrences,
        distinct_streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempstream_sequitur::Sequitur;
    use tempstream_trace::{Block, CpuId, FunctionId, MissClass, ThreadId};

    fn trace_of(blocks: &[(u64, u32)]) -> MissTrace<MissClass> {
        let cpus = blocks.iter().map(|&(_, c)| c).max().unwrap_or(0) + 1;
        let mut t = MissTrace::new(cpus);
        for &(b, c) in blocks {
            t.push(MissRecord {
                block: Block::new(b),
                cpu: CpuId::new(c),
                thread: ThreadId::new(c),
                function: FunctionId::new(0),
                class: MissClass::Replacement,
            });
        }
        t
    }

    fn seq(blocks: &[u64]) -> MissTrace<MissClass> {
        let v: Vec<(u64, u32)> = blocks.iter().map(|&b| (b, 0)).collect();
        trace_of(&v)
    }

    #[test]
    fn empty_trace() {
        let a = StreamAnalysis::of_trace(&seq(&[]));
        assert!(a.is_empty());
        assert_eq!(a.stream_fraction(), 0.0);
        assert_eq!(a.distinct_streams(), 0);
    }

    #[test]
    fn no_repetition_all_non_repetitive() {
        let a = StreamAnalysis::of_trace(&seq(&[1, 2, 3, 4, 5]));
        assert_eq!(a.label_counts(), (5, 0, 0));
        assert!(a.occurrences().is_empty());
    }

    #[test]
    fn repeated_pair_new_then_recurring() {
        let a = StreamAnalysis::of_trace(&seq(&[1, 2, 9, 1, 2]));
        assert_eq!(a.label_counts(), (1, 2, 2));
        assert_eq!(a.occurrences().len(), 2);
        assert!(a.occurrences()[0].new);
        assert!(!a.occurrences()[1].new);
        assert_eq!(a.occurrences()[1].reuse_distance, Some(1)); // the "9"
        assert_eq!(a.labels()[2], StreamLabel::NonRepetitive);
    }

    #[test]
    fn back_to_back_repetition_has_zero_distance() {
        let a = StreamAnalysis::of_trace(&seq(&[1, 2, 3, 1, 2, 3]));
        assert_eq!(a.occurrences().len(), 2);
        assert_eq!(a.occurrences()[1].reuse_distance, Some(0));
        assert_eq!(a.occurrences()[0].len, 3);
    }

    #[test]
    fn reuse_distance_counts_first_processor_only() {
        // Stream [1,2] on cpu 0; between its occurrences, 3 misses by cpu
        // 1 and 2 by cpu 0.
        let a = StreamAnalysis::of_trace(&trace_of(&[
            (1, 0),
            (2, 0),
            (10, 1),
            (11, 0),
            (12, 1),
            (13, 0),
            (14, 1),
            (1, 0),
            (2, 0),
        ]));
        let occ: Vec<_> = a.occurrences().iter().filter(|o| o.len == 2).collect();
        assert_eq!(occ.len(), 2);
        assert_eq!(
            occ[1].reuse_distance,
            Some(2),
            "only cpu 0's intervening misses count"
        );
    }

    #[test]
    fn three_occurrences_chain_distances() {
        let a = StreamAnalysis::of_trace(&seq(&[1, 2, 7, 1, 2, 8, 9, 1, 2]));
        let occ = a.occurrences();
        assert_eq!(occ.len(), 3);
        assert_eq!(occ[1].reuse_distance, Some(1));
        assert_eq!(occ[2].reuse_distance, Some(2));
        assert_eq!(a.label_counts(), (3, 2, 4));
    }

    #[test]
    fn stream_fraction_matches_labels() {
        let a = StreamAnalysis::of_trace(&seq(&[1, 2, 3, 1, 2, 3, 9, 9]));
        let (non, new, rec) = a.label_counts();
        assert_eq!(non + new + rec, 8);
        assert!((a.stream_fraction() - (new + rec) as f64 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn nested_rule_first_emission_counts_as_new() {
        // "abab" then later "ab" alone: the "ab" rule was already emitted
        // inside the bigger stream, so its standalone occurrence recurs.
        let a = StreamAnalysis::of_trace(&seq(&[1, 2, 1, 2, 5, 1, 2, 1, 2, 6, 1, 2]));
        // The final [1,2] occurrence must be Recurring, not New.
        let last = a.occurrences().last().unwrap();
        assert_eq!(last.start, 10);
        assert!(!last.new, "nested emission already seen");
    }

    #[test]
    fn length_cdf_weights_by_contribution() {
        let a = StreamAnalysis::of_trace(&seq(&[1, 2, 3, 1, 2, 3]));
        let cdf = a.length_cdf();
        // One stream of length 3 occurring twice: 6 weighted misses at 3.
        assert_eq!(cdf.total_weight(), 6);
        assert_eq!(cdf.median(), Some(3));
    }

    /// Asserts that `a` and `b` list the same occurrences up to a
    /// one-to-one renaming of rule ids.
    fn assert_same_occurrences(a: &[StreamOccurrence], b: &[StreamOccurrence], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: occurrence count");
        let mut forward = std::collections::HashMap::new();
        let mut backward = std::collections::HashMap::new();
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                (x.start, x.len, x.new, x.reuse_distance),
                (y.start, y.len, y.new, y.reuse_distance),
                "{what}"
            );
            assert_eq!(*forward.entry(x.rule).or_insert(y.rule), y.rule, "{what}");
            assert_eq!(*backward.entry(y.rule).or_insert(x.rule), x.rule, "{what}");
        }
    }

    #[test]
    fn of_grammar_on_live_snapshot_matches_batch() {
        // The serve-crate contract: feed a live builder record by
        // record, snapshot its grammar, and the root walk must produce
        // exactly the batch analysis of the same prefix. The batch walk
        // reads the builder in place, so its rule ids are the builder's
        // and match the snapshot's only through a renaming.
        let t = seq(&[1, 2, 3, 1, 2, 3, 9, 4, 1, 2, 5, 4, 1, 2, 5, 9]);
        let mut live = Sequitur::new();
        for (n, r) in t.records().iter().enumerate() {
            live.push(r.block.raw());
            let online =
                StreamAnalysis::of_grammar(&live.grammar(), &t.records()[..=n], t.num_cpus());
            let batch = StreamAnalysis::of_records(&t.records()[..=n], t.num_cpus());
            assert_eq!(online.labels(), batch.labels(), "prefix {n}");
            assert_same_occurrences(
                online.occurrences(),
                batch.occurrences(),
                &format!("prefix {n}"),
            );
            assert_eq!(online.distinct_streams(), batch.distinct_streams());
        }
    }

    #[test]
    fn labels_align_with_trace_positions() {
        let t = seq(&[4, 1, 2, 5, 1, 2]);
        let a = StreamAnalysis::of_trace(&t);
        assert_eq!(a.len(), t.len());
        assert_eq!(a.labels()[0], StreamLabel::NonRepetitive);
        assert_eq!(a.labels()[1], StreamLabel::NewStream);
        assert_eq!(a.labels()[4], StreamLabel::RecurringStream);
    }
}
