//! SEQUITUR hierarchical grammar inference.
//!
//! SEQUITUR (Nevill-Manning & Witten, JAIR 1997) incrementally builds a
//! context-free grammar whose production rules correspond to repeated
//! subsequences of its input. The paper uses it to identify *temporal
//! streams*: every non-root rule of the final grammar is a distinct miss
//! sequence that occurred at least twice.
//!
//! The algorithm maintains two invariants as each symbol is appended:
//!
//! 1. **digram uniqueness** — no pair of adjacent symbols appears more than
//!    once in the grammar; a repeated digram is replaced by a rule.
//! 2. **rule utility** — every rule (except the root) is referenced at least
//!    twice; a rule reduced to one use is inlined and deleted.
//!
//! # Example
//!
//! ```
//! use tempstream_sequitur::Sequitur;
//!
//! let mut s = Sequitur::new();
//! for sym in [1u64, 2, 3, 1, 2, 3] {
//!     s.push(sym);
//! }
//! let g = s.into_grammar();
//! assert_eq!(g.reconstruct(), vec![1, 2, 3, 1, 2, 3]);
//! assert_eq!(g.rule_count(), 2); // the root plus one rule for "1 2 3"
//! ```

mod builder;
mod grammar;
mod index;
pub mod stats;

pub use builder::{Body, FrozenGrammar, Sequitur};
pub use grammar::{Grammar, GrammarSymbol, GrammarView, RuleId};
pub use stats::GrammarStats;
