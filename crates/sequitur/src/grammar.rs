//! The immutable grammar produced by a finished SEQUITUR run.

use std::fmt;

/// Identifier of a grammar rule. [`RuleId::ROOT`] is the root production.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(u32);

impl RuleId {
    /// The root rule (the whole input).
    pub const ROOT: RuleId = RuleId(0);

    /// Creates a rule id from its index.
    pub fn new(index: usize) -> Self {
        RuleId(u32::try_from(index).expect("rule id overflow"))
    }

    /// Wraps a raw id (the builder's internal rule ids).
    pub(crate) const fn from_raw(id: u32) -> Self {
        RuleId(id)
    }

    /// The rule's index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns `true` for the root rule.
    pub const fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// One symbol on a rule's right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrammarSymbol {
    /// A terminal input symbol.
    Terminal(u64),
    /// A reference to another rule.
    Rule(RuleId),
}

impl fmt::Display for GrammarSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarSymbol::Terminal(t) => write!(f, "{t}"),
            GrammarSymbol::Rule(r) => write!(f, "{r}"),
        }
    }
}

/// Read-only access to a grammar's rule bodies.
///
/// The finished [`Grammar`], the live [`Sequitur`](crate::Sequitur)
/// builder and a [`FrozenGrammar`](crate::FrozenGrammar) implement it,
/// so one traversal serves each. Rule ids are indices below
/// [`rule_bound`](Self::rule_bound): contiguous in a [`Grammar`], the
/// builder's internal ids otherwise (see
/// [`Sequitur::body`](crate::Sequitur::body)).
pub trait GrammarView {
    /// The iterator [`body`](Self::body) returns.
    type Body<'a>: Iterator<Item = GrammarSymbol>
    where
        Self: 'a;

    /// One past the largest rule id [`body`](Self::body) accepts or
    /// yields: the length of a table indexed by rule id.
    fn rule_bound(&self) -> usize;

    /// The right-hand side of `rule`, in order.
    fn body(&self, rule: RuleId) -> Self::Body<'_>;
}

/// A finished SEQUITUR grammar: rule 0 is the root; every other rule is a
/// subsequence that occurred at least twice in the input (a temporal
/// stream).
#[derive(Debug, Clone, Default)]
pub struct Grammar {
    bodies: Vec<Vec<GrammarSymbol>>,
    expansion_lens: Vec<u64>,
}

impl Grammar {
    /// Builds a grammar from raw rule bodies (rule 0 = root).
    ///
    /// # Panics
    ///
    /// Panics if `bodies` is empty or a rule references a later-undefined
    /// rule id or itself (SEQUITUR grammars are acyclic, so expansion
    /// lengths must be computable).
    pub fn from_bodies(bodies: Vec<Vec<GrammarSymbol>>) -> Self {
        assert!(!bodies.is_empty(), "grammar must have a root rule");
        let mut g = Grammar {
            expansion_lens: vec![u64::MAX; bodies.len()],
            bodies,
        };
        // Compute memoized expansion lengths; detect cycles with a visiting
        // mark.
        let mut visiting = vec![false; g.bodies.len()];
        for r in 0..g.bodies.len() {
            g.compute_len(r, &mut visiting);
        }
        g
    }

    fn compute_len(&mut self, rule: usize, visiting: &mut [bool]) -> u64 {
        if self.expansion_lens[rule] != u64::MAX {
            return self.expansion_lens[rule];
        }
        assert!(!visiting[rule], "cyclic rule reference at rule {rule}");
        visiting[rule] = true;
        let mut len = 0u64;
        let body = std::mem::take(&mut self.bodies[rule]);
        for sym in &body {
            len += match *sym {
                GrammarSymbol::Terminal(_) => 1,
                GrammarSymbol::Rule(r) => self.compute_len(r.index(), visiting),
            };
        }
        self.bodies[rule] = body;
        visiting[rule] = false;
        self.expansion_lens[rule] = len;
        len
    }

    /// Number of rules, including the root.
    pub fn rule_count(&self) -> usize {
        self.bodies.len()
    }

    /// All rule ids, root first.
    pub fn rule_ids(&self) -> impl Iterator<Item = RuleId> {
        (0..self.bodies.len()).map(RuleId::new)
    }

    /// The right-hand side of `rule`.
    ///
    /// # Panics
    ///
    /// Panics if `rule` is out of range.
    pub fn rule_body(&self, rule: RuleId) -> &[GrammarSymbol] {
        &self.bodies[rule.index()]
    }

    /// Number of terminals `rule` expands to.
    ///
    /// # Panics
    ///
    /// Panics if `rule` is out of range.
    pub fn expansion_len(&self, rule: RuleId) -> u64 {
        self.expansion_lens[rule.index()]
    }

    /// Fully expands `rule` to its terminal sequence.
    ///
    /// # Panics
    ///
    /// Panics if `rule` is out of range.
    pub fn expand(&self, rule: RuleId) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.expansion_len(rule) as usize);
        self.expand_into(rule, &mut out);
        out
    }

    /// Appends `rule`'s terminal expansion to `out`.
    pub fn expand_into(&self, rule: RuleId, out: &mut Vec<u64>) {
        // Explicit stack: rule hierarchies from long inputs can be deep.
        let mut stack: Vec<(usize, usize)> = vec![(rule.index(), 0)];
        while let Some((r, i)) = stack.pop() {
            let body = &self.bodies[r];
            if i >= body.len() {
                continue;
            }
            stack.push((r, i + 1));
            match body[i] {
                GrammarSymbol::Terminal(t) => out.push(t),
                GrammarSymbol::Rule(sub) => stack.push((sub.index(), 0)),
            }
        }
    }

    /// Reconstructs the original input (the root's expansion).
    pub fn reconstruct(&self) -> Vec<u64> {
        self.expand(RuleId::ROOT)
    }
}

impl GrammarView for Grammar {
    type Body<'a> = std::iter::Copied<std::slice::Iter<'a, GrammarSymbol>>;

    fn rule_bound(&self) -> usize {
        self.rule_count()
    }

    fn body(&self, rule: RuleId) -> Self::Body<'_> {
        self.rule_body(rule).iter().copied()
    }
}

impl fmt::Display for Grammar {
    /// Renders the grammar one rule per line, e.g. `R1 -> 5 R2 9`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.bodies.len() {
            write!(f, "R{r} ->")?;
            for sym in &self.bodies[r] {
                write!(f, " {sym}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use GrammarSymbol::{Rule, Terminal};

    fn sample() -> Grammar {
        // root -> R1 7 R1 ; R1 -> 1 2
        Grammar::from_bodies(vec![
            vec![Rule(RuleId::new(1)), Terminal(7), Rule(RuleId::new(1))],
            vec![Terminal(1), Terminal(2)],
        ])
    }

    #[test]
    fn expansion_lengths() {
        let g = sample();
        assert_eq!(g.expansion_len(RuleId::ROOT), 5);
        assert_eq!(g.expansion_len(RuleId::new(1)), 2);
    }

    #[test]
    fn reconstruct_expands_nested() {
        let g = sample();
        assert_eq!(g.reconstruct(), vec![1, 2, 7, 1, 2]);
        assert_eq!(g.expand(RuleId::new(1)), vec![1, 2]);
    }

    #[test]
    fn grammar_size_and_ratio() {
        let stats = crate::GrammarStats::of(&sample());
        assert_eq!(stats.grammar_size, 5);
        assert!((stats.compression_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deep_nesting_does_not_overflow_stack() {
        // R_k -> R_{k+1} R_{k+1}, 200 levels deep; expansion via explicit
        // stack must not recurse.
        let depth = 50;
        let mut bodies = Vec::new();
        for i in 0..depth {
            bodies.push(vec![Rule(RuleId::new(i + 1)), Rule(RuleId::new(i + 1))]);
        }
        bodies.push(vec![Terminal(1), Terminal(2)]);
        // Hierarchy above is not a valid SEQUITUR output (root reused), but
        // is a valid Grammar. Only check lengths, not full expansion.
        let g = Grammar::from_bodies(bodies);
        assert_eq!(g.expansion_len(RuleId::new(depth)), 2);
        assert_eq!(g.expansion_len(RuleId::ROOT), 2u64 << depth as u64);
    }

    #[test]
    #[should_panic(expected = "cyclic")]
    fn cycle_detected() {
        Grammar::from_bodies(vec![vec![Rule(RuleId::new(1))], vec![Rule(RuleId::new(1))]]);
    }

    #[test]
    fn display_lists_rules() {
        let g = sample();
        let s = g.to_string();
        assert!(s.contains("R0 -> R1 7 R1"));
        assert!(s.contains("R1 -> 1 2"));
    }
}
