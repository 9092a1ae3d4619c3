//! Grammar statistics: structural summaries of a SEQUITUR grammar.

use crate::grammar::{GrammarSymbol, GrammarView, RuleId};
use std::fmt;
use tempstream_fxhash::FxHashSet;

/// Structural summary of a grammar.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GrammarStats {
    /// Rules including the root.
    pub rule_count: usize,
    /// Symbols across all rule bodies (compressed size).
    pub grammar_size: usize,
    /// Terminals the root expands to (input length).
    pub input_len: u64,
    /// Longest rule expansion (excluding the root).
    pub max_expansion: u64,
    /// Deepest rule nesting (root at depth 0).
    pub max_depth: u32,
    /// Distinct terminal symbols.
    pub alphabet: usize,
}

impl GrammarStats {
    /// Computes the summary in one post-order pass from the root, on an
    /// explicit stack, over a finished grammar or the live builder.
    /// Every rule of a SEQUITUR grammar is reachable from the root, so
    /// the pass reads each rule body exactly once.
    pub fn of<G: GrammarView>(grammar: &G) -> Self {
        let mut stats = GrammarStats::default();
        let mut alphabet = FxHashSet::default();
        // slot_of[r]: 1 + rule r's index in `done` once finished, 0 before.
        // A live builder's rule ids run far past its live rules, so the
        // per-rule results are stored densely.
        let mut slot_of = vec![0u32; grammar.rule_bound()];
        // (expansion length, nesting depth) of each finished rule.
        let mut done: Vec<(u64, u32)> = Vec::new();
        // Rules in progress, each with its body cursor, length and depth
        // so far.
        let mut stack = vec![(RuleId::ROOT, grammar.body(RuleId::ROOT), 0u64, 0u32)];
        while let Some((_, body, len, depth)) = stack.last_mut() {
            match body.next() {
                Some(GrammarSymbol::Terminal(t)) => {
                    stats.grammar_size += 1;
                    *len += 1;
                    alphabet.insert(t);
                }
                Some(GrammarSymbol::Rule(sub)) => {
                    stats.grammar_size += 1;
                    match slot_of[sub.index()] {
                        0 => stack.push((sub, grammar.body(sub), 0, 0)),
                        n => {
                            let (sub_len, sub_depth) = done[n as usize - 1];
                            *len += sub_len;
                            *depth = (*depth).max(sub_depth + 1);
                        }
                    }
                }
                None => {
                    let (rule, _, len, depth) = stack.pop().expect("checked above");
                    done.push((len, depth));
                    slot_of[rule.index()] = u32::try_from(done.len()).expect("rule count");
                    match stack.last_mut() {
                        Some((_, _, parent_len, parent_depth)) => {
                            *parent_len += len;
                            *parent_depth = (*parent_depth).max(depth + 1);
                            stats.max_expansion = stats.max_expansion.max(len);
                        }
                        None => {
                            stats.input_len = len;
                            stats.max_depth = depth;
                        }
                    }
                }
            }
        }
        stats.rule_count = done.len();
        stats.alphabet = alphabet.len();
        stats
    }

    /// Compression ratio (input length over grammar size).
    pub fn compression_ratio(&self) -> f64 {
        tempstream_obsv::frac(self.input_len, self.grammar_size as u64)
    }

    /// Writes the summary into `registry` as gauges under `prefix`
    /// (e.g. `sequitur`). Gauges take the maximum across exports, so
    /// after a multi-workload run they describe the largest grammar.
    pub fn export(&self, registry: &tempstream_obsv::Registry, prefix: &str) {
        registry
            .gauge(&format!("{prefix}/rules"))
            .set_max(self.rule_count as u64);
        registry
            .gauge(&format!("{prefix}/grammar_size"))
            .set_max(self.grammar_size as u64);
        registry
            .gauge(&format!("{prefix}/input_len"))
            .set_max(self.input_len);
        registry
            .gauge(&format!("{prefix}/max_expansion"))
            .set_max(self.max_expansion);
        registry
            .gauge(&format!("{prefix}/max_depth"))
            .set_max(u64::from(self.max_depth));
        registry
            .gauge(&format!("{prefix}/alphabet"))
            .set_max(self.alphabet as u64);
    }
}

impl fmt::Display for GrammarStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rules / {} symbols over {} input terminals \
             ({:.2}x compression), max expansion {}, depth {}, alphabet {}",
            self.rule_count,
            self.grammar_size,
            self.input_len,
            self.compression_ratio(),
            self.max_expansion,
            self.max_depth,
            self.alphabet
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sequitur;

    /// The stats of `input`'s grammar, read from the live builder.
    /// At every prefix, the builder and its snapshot must give equal
    /// stats, and so must the frozen builder at the end: the builder's
    /// ids are sparse and its deleted rules stay in its id space, and
    /// neither may show.
    fn stats_of(input: &[u64]) -> GrammarStats {
        let mut s = Sequitur::new();
        for (n, &sym) in input.iter().enumerate() {
            assert_eq!(
                GrammarStats::of(&s),
                GrammarStats::of(&s.grammar()),
                "prefix {n}"
            );
            s.push(sym);
        }
        let live = GrammarStats::of(&s);
        assert_eq!(live, GrammarStats::of(&s.grammar()), "whole input");
        assert_eq!(GrammarStats::of(&s.freeze()), live, "frozen");
        live
    }

    #[test]
    fn flat_input() {
        let s = stats_of(&[1, 2, 3, 4]);
        assert_eq!(s.rule_count, 1);
        assert_eq!(s.grammar_size, 4);
        assert_eq!(s.input_len, 4);
        assert_eq!(s.max_depth, 0);
        assert_eq!(s.max_expansion, 0);
        assert_eq!(s.alphabet, 4);
        assert!((s.compression_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nested_repetition_has_depth() {
        // abcabc -> rules nest at least one level.
        let s = stats_of(&[1, 2, 3, 1, 2, 3]);
        assert!(s.rule_count >= 2);
        assert!(s.max_depth >= 1);
        assert_eq!(s.input_len, 6);
        assert_eq!(s.max_expansion, 3);
        assert_eq!(s.alphabet, 3);
    }

    #[test]
    fn high_compression_on_periodic_input() {
        let input: Vec<u64> = [7u64, 8, 9, 10].repeat(64);
        let s = stats_of(&input);
        assert!(
            s.compression_ratio() > 5.0,
            "ratio {:.2}",
            s.compression_ratio()
        );
        assert!(s.max_depth >= 2);
    }

    #[test]
    fn display_is_informative() {
        let s = stats_of(&[1, 2, 1, 2]);
        let text = s.to_string();
        assert!(text.contains("rules"));
        assert!(text.contains("compression"));
    }

    #[test]
    fn empty_input_stats() {
        let s = stats_of(&[]);
        assert_eq!(s.input_len, 0);
        assert_eq!(s.compression_ratio(), 0.0);
    }

    #[test]
    fn export_populates_registry() {
        let s = stats_of(&[1, 2, 3, 1, 2, 3]);
        let r = tempstream_obsv::Registry::new();
        s.export(&r, "sequitur");
        assert_eq!(r.gauge("sequitur/input_len").get(), 6);
        assert!(r.gauge("sequitur/rules").get() >= 2);
        assert_eq!(r.gauge("sequitur/alphabet").get(), 3);
        // Gauges keep the maximum across exports.
        stats_of(&[1, 2]).export(&r, "sequitur");
        assert_eq!(r.gauge("sequitur/input_len").get(), 6);
    }
}
