//! Exhaustive model checker for the declarative coherence-protocol
//! tables in `tempstream-coherence`.
//!
//! The simulators drive every coherence decision through the static
//! [`MSI`](tempstream_coherence::protocol::MSI) and
//! [`MOSI`](tempstream_coherence::protocol::MOSI) tables. This crate
//! *verifies those tables*, independently of the simulators, by
//! breadth-first enumeration of the full cross-product state space of
//! one block across N caches (N = 2..=4) plus the ghost state the data
//! invariants need (shared-L2 presence, memory freshness). The spaces
//! are tiny (hundreds to a few thousand configurations), so the check is
//! a proof by exhaustion, not a sampling.
//!
//! Six invariant classes are verified in every reachable configuration:
//!
//! 1. **SWMR** — a writable (Modified) copy excludes every other valid
//!    copy, including the shared L2's;
//! 2. **single-owner** — at most one cache is responsible for the latest
//!    data (M or O);
//! 3. **level-consistency** — cache levels never disagree: Shared copies
//!    are memory-consistent (MSI) and the non-inclusive L2 never holds a
//!    copy a write has made stale (MOSI);
//! 4. **data-availability** — the latest written value survives every
//!    event sequence (no writeback is ever skipped);
//! 5. **silent-read-hit** — a local read at a cache holding a valid copy
//!    is a `Hit` that leaves every cache's state unchanged (a peer may
//!    report itself as supplier), which is what lets the simulators
//!    answer read hits without stepping the table;
//! 6. **coverage** — every `(state, event)` pair is handled exactly once
//!    or declared impossible (totality), declared-impossible pairs are
//!    unreachable, no reachable configuration is stuck, and every table
//!    row and state is exercised (no dead transitions, no unreachable
//!    states).
//!
//! Each violation carries a minimal event-sequence witness. The crate
//! doubles as a test-harness entry (`cargo test -p tempstream-checker`)
//! and a CI binary (`check-protocols`).
//!
//! # Example
//!
//! ```
//! let report = tempstream_checker::check_mosi(4);
//! assert!(report.passed(), "{report}");
//! ```

use std::fmt;

pub mod bfs;
pub mod lint;
pub mod mosi;
pub mod msi;

pub use bfs::{explore, Model};
pub use mosi::MosiModel;
pub use msi::MsiModel;

/// One invariant violation with a minimal witness trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant class failed (e.g. `SWMR`).
    pub invariant: String,
    /// What exactly is wrong in the violating configuration.
    pub detail: String,
    /// Shortest event sequence from the cold-start configuration to the
    /// violation (BFS discovery order guarantees minimality).
    pub witness: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [witness: {}]",
            self.invariant,
            self.detail,
            if self.witness.is_empty() {
                "initial state".to_string()
            } else {
                self.witness.join(" -> ")
            }
        )
    }
}

/// Result of exhaustively checking one protocol table at one cache
/// count.
#[derive(Debug)]
pub struct CheckReport {
    /// Name of the checked protocol table.
    pub protocol: &'static str,
    /// Number of caches in the model.
    pub agents: u32,
    /// Reachable configurations explored.
    pub configs: usize,
    /// Transitions (steps) taken during exploration.
    pub steps: usize,
    /// Safety violations, one minimal witness per invariant.
    pub violations: Vec<Violation>,
    /// Table transitions no reachable execution exercises.
    pub dead_transitions: Vec<String>,
    /// Protocol states no reachable configuration contains.
    pub unreachable_states: Vec<String>,
    /// Static totality defects of the table.
    pub totality_gaps: Vec<String>,
}

impl CheckReport {
    /// Whether every invariant class held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
            && self.dead_transitions.is_empty()
            && self.unreachable_states.is_empty()
            && self.totality_gaps.is_empty()
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} x{}: {} configurations, {} steps — {}",
            self.protocol,
            self.agents,
            self.configs,
            self.steps,
            if self.passed() { "OK" } else { "FAILED" }
        )?;
        for v in &self.violations {
            writeln!(f, "  violation {v}")?;
        }
        for d in &self.dead_transitions {
            writeln!(f, "  dead transition: {d}")?;
        }
        for s in &self.unreachable_states {
            writeln!(f, "  unreachable state: {s}")?;
        }
        for g in &self.totality_gaps {
            writeln!(f, "  totality gap: {g}")?;
        }
        Ok(())
    }
}

/// Checks the production MSI table with `agents` nodes (2..=8).
pub fn check_msi(agents: u32) -> CheckReport {
    explore(&MsiModel::new(agents))
}

/// Checks the production MOSI table with `agents` cores (2..=8).
pub fn check_mosi(agents: u32) -> CheckReport {
    explore(&MosiModel::new(agents))
}

/// Checks both production tables at every cache count the acceptance
/// criteria name (N = 2, 3, 4).
pub fn check_all() -> Vec<CheckReport> {
    (2..=4)
        .flat_map(|n| [check_msi(n), check_mosi(n)])
        .collect()
}
