//! `lint-sources`: the sync-shim discipline gate.
//!
//! Scans the workspace (see [`tempstream_checker::lint`]) and exits
//! non-zero listing every direct `std::sync`/`std::thread` primitive
//! used in `crates/runtime/src/` outside the sync shim or in the
//! server library (`crates/serve/src/`, binaries exempt), every
//! `Instant::now` inside the pure pipeline stages, and every direct
//! `tempstream_sequitur` reference anywhere in the serve crate —
//! grammar access goes through `core::engine::AnalysisEngine` — every
//! `.transition(` table scan in the two coherence simulators, and every
//! `.grammar()` / `into_grammar(` snapshot outside tests in
//! `crates/{core,runtime,serve}/src/`.
//!
//! ```text
//! lint-sources [REPO_ROOT]
//! ```
//!
//! `REPO_ROOT` defaults to the current directory (`ci.sh` runs it from
//! the workspace root).

use std::path::PathBuf;
use tempstream_checker::lint;

fn main() {
    let root = std::env::args()
        .nth(1)
        .map_or_else(|| PathBuf::from("."), PathBuf::from);
    let findings = match lint::lint_tree(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lint-sources: cannot read tree at {}: {e}", root.display());
            std::process::exit(2);
        }
    };
    if findings.is_empty() {
        println!(
            "lint-sources: clean (runtime and serve use the sync shim; \
             stages never read the clock; serve reaches the grammar \
             only through core::engine; simulators never scan a \
             protocol table; no product path snapshots a grammar)"
        );
        return;
    }
    for finding in &findings {
        eprintln!("{finding}");
    }
    eprintln!("{}", lint::summary(&findings));
    std::process::exit(1);
}
