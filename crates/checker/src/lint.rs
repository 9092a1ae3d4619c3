//! Source lint enforcing the runtime's sync-shim discipline.
//!
//! The schedule checker (`tempstream-schedcheck`) is only sound if the
//! runtime routes **every** blocking or ordering operation through the
//! [`tempstream_runtime::sync`] shim — a `std::sync::Mutex` acquired
//! directly is invisible to the cooperative scheduler and silently
//! shrinks the explored interleaving space. This lint closes that hole
//! statically: it scans `crates/runtime/src/` and `crates/serve/src/`
//! (the server's queue and workers make the same promise, which is what
//! lets `tempstream-schedcheck` explore the ingest-queue drain
//! handshake) and fails on direct use of `std::sync::Mutex`,
//! `std::sync::Condvar`, `std::sync::atomic`, or
//! `std::thread::{spawn,scope,Builder}` anywhere outside
//!
//! * the shim itself (`crates/runtime/src/sync/`), which is the one
//!   place allowed to touch the real primitives,
//! * the server's binaries (`crates/serve/src/bin/`) — the `serve-load`
//!   client is an external process driving the server over TCP, not
//!   model-checked code, so it may use OS threads directly — and
//! * `#[cfg(test)]` blocks, where tests may freely use OS threads to
//!   exercise the shim from outside.
//!
//! It also forbids `Instant::now` in `crates/core/src/stages.rs`: the
//! pipeline stages must stay deterministic pure functions, and wall
//!-clock reads there would leak nondeterminism into the reproduction
//! gate (timing belongs to `runtime::metrics`).
//!
//! A third rule guards the engine boundary: `crates/serve/src/`
//! (binaries included) must not reach `tempstream_sequitur` — grammar
//! state belongs to the unified `core::engine::AnalysisEngine`, and the
//! server goes through it. A shard that touched the grammar directly
//! could diverge from the offline comparator and from the batch
//! pipeline, which is exactly the three-way drift the engine refactor
//! eliminated.
//!
//! A fourth rule keeps the simulators' hot path on the protocol
//! engine's dense table: `crates/coherence/src/multi_chip.rs` and
//! `single_chip.rs` must not call `.transition(` — the linear scan of a
//! spec's rows that `ProtocolTable::new` resolves once, up front.
//!
//! A fifth rule keeps grammar snapshots out of the product paths:
//! outside `#[cfg(test)]`, `crates/core/src/`, `crates/runtime/src/`
//! and `crates/serve/src/` must not call `.grammar()` or
//! `into_grammar(`. A `Grammar` snapshot copies every rule body of the
//! live SEQUITUR builder, while the one root walk in `core::streams`
//! reads the builder in place; the snapshot stays the tests' oracle.
//!
//! The scan is deliberately a token scan, not a parse: line comments
//! are stripped, `#[cfg(test)] mod … { … }` regions are skipped by
//! brace counting, and the remaining text is searched for the
//! forbidden tokens. That is crude but exactly as strict as needed —
//! an evasion would have to be deliberate, and the point of the lint
//! is catching *accidental* regressions to raw `std` primitives.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// The lint's rules, one per scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A raw `std` synchronization primitive outside the sync shim.
    SyncShim,
    /// A wall-clock read in the pure pipeline stages.
    StagesClock,
    /// The serve crate reaching `tempstream_sequitur` directly.
    EngineBoundary,
    /// A protocol-table scan in a simulator.
    TableScan,
    /// A `Grammar` snapshot in a product path.
    GrammarSnapshot,
}

impl Rule {
    /// How to fix a finding of this rule.
    pub fn hint(self) -> &'static str {
        match self {
            Rule::SyncShim => {
                "Route runtime synchronization through `crate::sync` so the \
                 schedule checker can see it."
            }
            Rule::StagesClock => {
                "Keep the pipeline stages pure: time them from \
                 `runtime::metrics`, not inside `stages.rs`."
            }
            Rule::EngineBoundary => {
                "Reach the grammar from the serve crate only through \
                 `core::engine::AnalysisEngine`."
            }
            Rule::TableScan => {
                "Look transitions up in the simulator's resolved \
                 `ProtocolTable`, not with `.transition(`."
            }
            Rule::GrammarSnapshot => {
                "Read the live SEQUITUR builder in place through \
                 `core::streams`' root walk instead of building a `Grammar` \
                 snapshot."
            }
        }
    }
}

/// One forbidden token found outside an exempt region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule the token breaks.
    pub rule: Rule,
    /// The forbidden token that matched.
    pub token: &'static str,
    /// The offending line, comment-stripped and trimmed.
    pub excerpt: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: forbidden `{}` outside an exempt region: {}",
            self.file, self.line, self.token, self.excerpt
        )
    }
}

/// Tokens the runtime may only use inside `sync/` (or under
/// `#[cfg(test)]`). `std::sync::Arc` and `std::sync::OnceLock` are
/// deliberately absent: neither is a scheduling decision point.
const RUNTIME_FORBIDDEN: &[&str] = &[
    "std::sync::Mutex",
    "std::sync::Condvar",
    "std::sync::atomic",
    "std::thread::spawn",
    "std::thread::scope",
    "std::thread::Builder",
];

/// Grouped-import members that smuggle the same primitives in via
/// `use std::sync::{…}`.
const RUNTIME_FORBIDDEN_GROUPED: &[&str] = &["Mutex", "Condvar", "atomic"];

/// Tokens forbidden in the pure pipeline stages.
const STAGES_FORBIDDEN: &[&str] = &["Instant::now"];

/// Tokens forbidden in the simulators: a per-access
/// `ProtocolSpec::transition` scan bypasses the engine's dense table.
const SIMULATOR_FORBIDDEN: &[&str] = &[".transition("];

/// The simulator sources [`SIMULATOR_FORBIDDEN`] applies to.
const SIMULATOR_FILES: &[&str] = &[
    "crates/coherence/src/multi_chip.rs",
    "crates/coherence/src/single_chip.rs",
];

/// Tokens forbidden anywhere in the serve crate (binaries included):
/// grammar access goes through `core::engine`, never directly.
const SERVE_FORBIDDEN: &[&str] = &["tempstream_sequitur"];

/// Tokens forbidden in the product sources of [`SNAPSHOT_DIRS`]: each
/// builds a whole `Grammar` snapshot of a SEQUITUR builder.
const SNAPSHOT_FORBIDDEN: &[&str] = &[".grammar()", "into_grammar("];

/// The source trees [`SNAPSHOT_FORBIDDEN`] applies to.
const SNAPSHOT_DIRS: &[&str] = &[
    "crates/core/src/",
    "crates/runtime/src/",
    "crates/serve/src/",
];

/// Strips a line comment (`//`, `///`, `//!`) from one line.
///
/// Naive about `//` inside string literals; acceptable for a lint
/// whose job is catching accidental imports, which never hide there.
fn strip_line_comment(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

fn net_braces(code: &str) -> i32 {
    let mut n = 0i32;
    for c in code.chars() {
        match c {
            '{' => n += 1,
            '}' => n -= 1,
            _ => {}
        }
    }
    n
}

/// The closing lines of a failing run: the finding count, then one
/// hint per rule that has findings, in the order the rules first
/// appear.
pub fn summary(findings: &[LintFinding]) -> String {
    let mut rules: Vec<Rule> = Vec::new();
    for finding in findings {
        if !rules.contains(&finding.rule) {
            rules.push(finding.rule);
        }
    }
    let mut out = format!("lint-sources: {} finding(s).", findings.len());
    for rule in rules {
        out.push('\n');
        out.push_str(rule.hint());
    }
    out
}

/// Scans one source file for `tokens`, skipping line comments and
/// `#[cfg(test)]`-attributed brace blocks. Grouped `std::sync::{…}`
/// imports are checked only for [`Rule::SyncShim`].
fn scan(rel_path: &str, source: &str, tokens: &[&'static str], rule: Rule) -> Vec<LintFinding> {
    let grouped = rule == Rule::SyncShim;
    let mut findings = Vec::new();
    // After seeing `#[cfg(test)]`, the next brace block is exempt.
    let mut pending_cfg_test = false;
    let mut test_depth: i32 = 0;
    let mut in_test_block = false;

    for (idx, raw) in source.lines().enumerate() {
        let code = strip_line_comment(raw);
        if in_test_block {
            test_depth += net_braces(code);
            if test_depth <= 0 {
                in_test_block = false;
            }
            continue;
        }
        if code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            let opened = net_braces(code);
            if opened > 0 {
                pending_cfg_test = false;
                in_test_block = true;
                test_depth = opened;
            } else if !code.trim().is_empty() {
                // An attribute line (e.g. `#[allow(…)]`) between the
                // cfg and the block keeps the exemption pending.
                if !code.trim_start().starts_with("#[") {
                    pending_cfg_test = false;
                }
            }
            if in_test_block {
                continue;
            }
        }
        for token in tokens {
            if code.contains(token) {
                findings.push(LintFinding {
                    file: rel_path.to_string(),
                    line: idx + 1,
                    rule,
                    token,
                    excerpt: code.trim().to_string(),
                });
            }
        }
        if grouped {
            if let Some(pos) = code.find("std::sync::{") {
                let group = &code[pos + "std::sync::{".len()..];
                let group = group.split('}').next().unwrap_or(group);
                for member in RUNTIME_FORBIDDEN_GROUPED {
                    if group
                        .split(',')
                        .any(|item| item.split_whitespace().next() == Some(member))
                    {
                        findings.push(LintFinding {
                            file: rel_path.to_string(),
                            line: idx + 1,
                            rule,
                            token: "std::sync::{…}",
                            excerpt: code.trim().to_string(),
                        });
                        break;
                    }
                }
            }
        }
    }
    findings
}

/// Lints one file by its repo-relative path (`/`-separated). The rules
/// stack: a file gets every scan whose scope covers it.
///
/// * under `crates/runtime/src/` but not `crates/runtime/src/sync/`:
///   the raw-primitive scan;
/// * under `crates/serve/src/` but not `crates/serve/src/bin/`: the
///   same raw-primitive scan (the server library must stay explorable
///   by the schedule checker; its client/server binaries are external
///   processes and exempt);
/// * under `crates/serve/src/` *including* `bin/`: the engine-boundary
///   scan — no direct `tempstream_sequitur` access anywhere in the
///   serve crate;
/// * `crates/core/src/stages.rs`: the wall-clock scan;
/// * the two simulators in `crates/coherence/src/`: the
///   `.transition(` scan;
/// * under `crates/core/src/`, `crates/runtime/src/` or
///   `crates/serve/src/`: the grammar-snapshot scan;
/// * anything else: exempt.
pub fn lint_file(rel_path: &str, source: &str) -> Vec<LintFinding> {
    let normalized = rel_path.replace('\\', "/");
    let path = normalized.as_str();
    let mut findings = Vec::new();
    if !path.ends_with(".rs") {
        return findings;
    }
    let runtime =
        path.starts_with("crates/runtime/src/") && !path.starts_with("crates/runtime/src/sync/");
    let serve = path.starts_with("crates/serve/src/");
    if runtime || (serve && !path.starts_with("crates/serve/src/bin/")) {
        findings.extend(scan(path, source, RUNTIME_FORBIDDEN, Rule::SyncShim));
    }
    if serve {
        findings.extend(scan(path, source, SERVE_FORBIDDEN, Rule::EngineBoundary));
    }
    if path == "crates/core/src/stages.rs" {
        findings.extend(scan(path, source, STAGES_FORBIDDEN, Rule::StagesClock));
    }
    if SIMULATOR_FILES.contains(&path) {
        findings.extend(scan(path, source, SIMULATOR_FORBIDDEN, Rule::TableScan));
    }
    if SNAPSHOT_DIRS.iter().any(|dir| path.starts_with(dir)) {
        findings.extend(scan(
            path,
            source,
            SNAPSHOT_FORBIDDEN,
            Rule::GrammarSnapshot,
        ));
    }
    findings
}

fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, files)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    Ok(())
}

/// Lints the whole tree rooted at `repo_root`.
///
/// # Errors
///
/// Propagates I/O failures reading the tree; lint findings are the
/// `Ok` payload, not errors.
pub fn lint_tree(repo_root: &Path) -> io::Result<Vec<LintFinding>> {
    let mut files = Vec::new();
    for dir in SNAPSHOT_DIRS {
        let dir = repo_root.join(dir);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    for single in SIMULATOR_FILES {
        let path = repo_root.join(single);
        if path.is_file() {
            files.push(path);
        }
    }
    let mut findings = Vec::new();
    for path in files {
        let rel = path
            .strip_prefix(repo_root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let source = fs::read_to_string(&path)?;
        findings.extend(lint_file(&rel, &source));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUNTIME_PATH: &str = "crates/runtime/src/widget.rs";

    #[test]
    fn direct_mutex_in_runtime_fails() {
        // The acceptance-criterion case: synthetic std::sync::Mutex
        // use attributed to crates/runtime/ must be flagged.
        let src = "use std::sync::Mutex;\nfn f() { let m = Mutex::new(0); }\n";
        let findings = lint_file(RUNTIME_PATH, src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].token, "std::sync::Mutex");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn grouped_import_is_caught() {
        let src = "use std::sync::{Arc, Mutex};\n";
        let findings = lint_file(RUNTIME_PATH, src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].token, "std::sync::{…}");
        // …but Arc/OnceLock alone stay allowed.
        assert!(lint_file(RUNTIME_PATH, "use std::sync::{Arc, OnceLock};\n").is_empty());
    }

    #[test]
    fn thread_spawn_and_atomics_are_caught() {
        for src in [
            "fn f() { std::thread::spawn(|| {}); }\n",
            "use std::sync::atomic::AtomicUsize;\n",
            "fn f() { std::thread::scope(|s| {}); }\n",
            "let b = std::thread::Builder::new();\n",
        ] {
            assert_eq!(lint_file(RUNTIME_PATH, src).len(), 1, "missed: {src}");
        }
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "pub fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   use std::sync::Mutex;\n\
                   \x20   fn g() { std::thread::spawn(|| {}); }\n\
                   }\n";
        assert!(lint_file(RUNTIME_PATH, src).is_empty());
        // …and code AFTER the test block is scanned again.
        let trailing = format!("{src}use std::sync::Condvar;\n");
        let findings = lint_file(RUNTIME_PATH, &trailing);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].token, "std::sync::Condvar");
    }

    #[test]
    fn comments_and_shim_paths_are_exempt() {
        let commented = "// plain std::sync::Mutex in prose\n//! and std::thread::spawn docs\n";
        assert!(lint_file(RUNTIME_PATH, commented).is_empty());
        let shim = "use std::sync::{Mutex, Condvar};\nuse std::sync::atomic::AtomicUsize;\n";
        assert!(lint_file("crates/runtime/src/sync/mod.rs", shim).is_empty());
        assert!(lint_file("crates/runtime/src/sync/sched.rs", shim).is_empty());
        // Other crates are out of scope entirely.
        assert!(lint_file("crates/core/src/streams.rs", shim).is_empty());
    }

    #[test]
    fn serve_library_is_in_scope_but_its_bins_are_not() {
        let src = "use std::sync::Mutex;\n";
        // The server library makes the shim promise…
        let findings = lint_file("crates/serve/src/queue.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].token, "std::sync::Mutex");
        assert_eq!(lint_file("crates/serve/src/server.rs", src).len(), 1);
        // …while the client/server binaries are external processes.
        assert!(lint_file("crates/serve/src/bin/serve_load.rs", src).is_empty());
        assert!(lint_file(
            "crates/serve/src/bin/serve.rs",
            "fn f() { std::thread::spawn(|| {}); }\n"
        )
        .is_empty());
    }

    #[test]
    fn serve_cannot_reach_sequitur_directly() {
        // The engine boundary: grammar state is owned by
        // `core::engine::AnalysisEngine`; no serve source — library OR
        // binary — may link `tempstream_sequitur` around it.
        let src = "use tempstream_sequitur::Sequitur;\n";
        let findings = lint_file("crates/serve/src/shard.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].token, "tempstream_sequitur");
        let findings = lint_file(
            "crates/serve/src/bin/serve.rs",
            "fn f() { tempstream_sequitur::Sequitur::new(); }\n",
        );
        assert_eq!(findings.len(), 1, "{findings:?}");
        // Prose mentions stay fine, and the engine itself is out of
        // scope — it is the one sanctioned owner of the grammar.
        assert!(lint_file(
            "crates/serve/src/offline.rs",
            "// via tempstream_sequitur\n"
        )
        .is_empty());
        assert!(lint_file("crates/core/src/engine.rs", src).is_empty());
        // Both rules stack on library files: a raw Mutex AND a direct
        // grammar import each produce their own finding.
        let both = "use std::sync::Mutex;\nuse tempstream_sequitur::Grammar;\n";
        let findings = lint_file("crates/serve/src/queue.rs", both);
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn instant_now_in_stages_fails() {
        let src = "fn t() { let t0 = std::time::Instant::now(); }\n";
        let findings = lint_file("crates/core/src/stages.rs", src);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].token, "Instant::now");
        // The same code is fine elsewhere in core.
        assert!(lint_file("crates/core/src/report.rs", src).is_empty());
    }

    #[test]
    fn table_scan_in_simulators_fails() {
        let src = "fn f() { let t = MSI.transition(s, Event::LocalRead); }\n";
        for path in SIMULATOR_FILES {
            let findings = lint_file(path, src);
            assert_eq!(findings.len(), 1, "{findings:?}");
            assert_eq!(findings[0].token, ".transition(");
        }
        // The engine itself resolves the table through it, and the
        // simulators' tests may use it.
        assert!(lint_file("crates/coherence/src/protocol.rs", src).is_empty());
        let test_only = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_file(SIMULATOR_FILES[0], &test_only).is_empty());
    }

    #[test]
    fn grammar_snapshots_stay_out_of_product_code() {
        for path in [
            "crates/core/src/engine.rs",
            "crates/runtime/src/pipeline.rs",
            "crates/serve/src/shard.rs",
            "crates/serve/src/bin/serve.rs",
        ] {
            for (src, token) in [
                (
                    "fn f(s: &Sequitur) -> usize { s.grammar().rule_count() }\n",
                    ".grammar()",
                ),
                (
                    "fn f(e: Engine) -> Grammar { e.seq.into_grammar() }\n",
                    "into_grammar(",
                ),
            ] {
                let findings = lint_file(path, src);
                assert_eq!(findings.len(), 1, "{path}: {findings:?}");
                assert_eq!(findings[0].token, token);
            }
        }
        // Tests keep the snapshot as their oracle, prose may name it,
        // and crates outside the product paths are out of scope.
        let src = "fn f(s: &Sequitur) { s.grammar(); }\n";
        let test_only = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_file("crates/core/src/streams.rs", &test_only).is_empty());
        assert!(lint_file(
            "crates/core/src/streams.rs",
            "/// Equal to a walk over `seq.grammar()`.\n"
        )
        .is_empty());
        assert!(lint_file("crates/sequitur/src/builder.rs", src).is_empty());
        assert!(lint_file("crates/bench/src/bin/reproduce.rs", src).is_empty());
        // The rule stacks on the stages' wall-clock rule.
        let both = format!("{src}fn t() {{ Instant::now(); }}\n");
        assert_eq!(lint_file("crates/core/src/stages.rs", &both).len(), 2);
    }

    #[test]
    fn summary_names_only_the_rules_that_tripped() {
        let snapshot = lint_file(
            "crates/core/src/engine.rs",
            "fn f(s: &Sequitur) { s.grammar(); }\n",
        );
        let text = summary(&snapshot);
        assert!(text.starts_with("lint-sources: 1 finding(s)."), "{text}");
        assert!(text.contains(Rule::GrammarSnapshot.hint()), "{text}");
        assert!(
            !text.contains("crate::sync"),
            "a grammar finding must not get the sync-shim hint: {text}"
        );
        // Two rules, three findings: one hint each, in first-seen order.
        let mut mixed = lint_file(
            RUNTIME_PATH,
            "use std::sync::Mutex;\nuse std::sync::Condvar;\n",
        );
        mixed.extend(snapshot);
        let text = summary(&mixed);
        assert_eq!(
            text,
            format!(
                "lint-sources: 3 finding(s).\n{}\n{}",
                Rule::SyncShim.hint(),
                Rule::GrammarSnapshot.hint()
            )
        );
    }

    #[test]
    fn real_tree_is_clean() {
        // The actual repo must pass its own lint: the whole runtime
        // goes through the shim, stages never read the clock, the
        // simulators never scan a protocol table, and no product path
        // builds a grammar snapshot.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = lint_tree(&root).expect("tree readable");
        assert!(
            findings.is_empty(),
            "lint-sources findings:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
