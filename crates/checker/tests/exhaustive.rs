//! Exhaustive verification of the production protocol tables, plus
//! mutation tests proving the checker detects broken tables.
//!
//! This is the test-harness entry of the acceptance criteria: `cargo
//! test -p tempstream-checker` enumerates the full MSI and MOSI state
//! spaces for 2–4 caches and asserts every invariant class. The
//! mutation tests guard the checker itself: each plants a classic
//! protocol bug (lost invalidation, skipped writeback, stale L2 copy,
//! missing row, unreachable state) and asserts the right invariant
//! class flags it with a short witness.

use tempstream_checker::{
    check_all, check_mosi, check_msi, explore, CheckReport, MosiModel, MsiModel,
};
use tempstream_coherence::protocol::{
    Action, Event, MosiState, MsiState, ProtocolSpec, Transition, MOSI, MSI,
};

#[test]
fn production_tables_pass_every_invariant() {
    let reports = check_all();
    assert_eq!(reports.len(), 6, "MSI and MOSI at N = 2, 3, 4");
    for r in &reports {
        assert!(r.passed(), "{r}");
        assert!(
            r.configs > 1 && r.steps > 1,
            "exploration actually ran: {r}"
        );
    }
}

fn reports() -> Vec<CheckReport> {
    check_all()
}

#[test]
fn swmr_holds_exhaustively() {
    for r in reports() {
        assert!(r.violations.iter().all(|v| v.invariant != "SWMR"), "{r}");
    }
}

#[test]
fn at_most_one_owner_holds_exhaustively() {
    for r in reports() {
        assert!(
            r.violations.iter().all(|v| v.invariant != "single-owner"),
            "{r}"
        );
    }
}

#[test]
fn level_consistency_holds_exhaustively() {
    for r in reports() {
        assert!(
            r.violations
                .iter()
                .all(|v| v.invariant != "level-consistency"),
            "{r}"
        );
    }
}

#[test]
fn no_write_is_ever_lost() {
    for r in reports() {
        assert!(
            r.violations
                .iter()
                .all(|v| v.invariant != "data-availability"),
            "{r}"
        );
    }
}

#[test]
fn coverage_is_total_with_no_dead_rows_or_states() {
    for r in reports() {
        assert!(r.totality_gaps.is_empty(), "{r}");
        assert!(r.dead_transitions.is_empty(), "{r}");
        assert!(r.unreachable_states.is_empty(), "{r}");
        assert!(
            r.violations
                .iter()
                .all(|v| v.invariant != "impossible-reached" && v.invariant != "stuck-state"),
            "{r}"
        );
    }
}

#[test]
fn read_hits_are_silent_exhaustively() {
    for r in reports() {
        assert!(
            r.violations
                .iter()
                .all(|v| v.invariant != "silent-read-hit"),
            "{r}"
        );
    }
}

#[test]
fn state_spaces_have_the_expected_scale() {
    // Sanity-check the models are cross products, not single chains: the
    // 4-core MOSI space must dwarf the 2-core one.
    let small = check_mosi(2).configs;
    let large = check_mosi(4).configs;
    assert!(large > small * 4, "MOSI configs: {small} vs {large}");
    assert!(check_msi(4).configs > check_msi(2).configs);
}

// --- mutation tests: the checker must catch classic protocol bugs ---

fn patched_mosi(
    name: &'static str,
    patch: impl Fn(&mut Vec<Transition<MosiState>>),
) -> &'static ProtocolSpec<MosiState> {
    let mut transitions: Vec<_> = MOSI.transitions.to_vec();
    patch(&mut transitions);
    Box::leak(Box::new(ProtocolSpec {
        name,
        states: MOSI.states,
        initial: MOSI.initial,
        transitions: Box::leak(transitions.into_boxed_slice()),
        impossible: MOSI.impossible,
    }))
}

fn patched_msi(
    name: &'static str,
    patch: impl Fn(&mut Vec<Transition<MsiState>>),
) -> &'static ProtocolSpec<MsiState> {
    let mut transitions: Vec<_> = MSI.transitions.to_vec();
    patch(&mut transitions);
    Box::leak(Box::new(ProtocolSpec {
        name,
        states: MSI.states,
        initial: MSI.initial,
        transitions: Box::leak(transitions.into_boxed_slice()),
        impossible: MSI.impossible,
    }))
}

fn find_violation<'a>(
    report: &'a CheckReport,
    invariant: &str,
) -> &'a tempstream_checker::Violation {
    report
        .violations
        .iter()
        .find(|v| v.invariant == invariant)
        .unwrap_or_else(|| panic!("expected a {invariant} violation, got: {report}"))
}

#[test]
fn lost_invalidation_breaks_swmr() {
    // Bug: a write no longer invalidates Shared peers.
    let spec = patched_mosi("MOSI-lost-invalidation", |ts| {
        for t in ts {
            if t.from == MosiState::S && t.event == Event::RemoteWrite {
                t.to = MosiState::S;
                t.action = Action::None;
            }
        }
    });
    let report = explore(&MosiModel::with_spec(spec, 2));
    let v = find_violation(&report, "SWMR");
    // BFS found a minimal witness: one read to create the sharer, one
    // write to (fail to) invalidate it.
    assert!(v.witness.len() <= 3, "witness not minimal: {v}");
}

#[test]
fn skipped_writeback_loses_data() {
    // Bug: a dirty eviction silently drops the line instead of writing
    // it back.
    let spec = patched_msi("MSI-silent-dirty-evict", |ts| {
        for t in ts {
            if t.from == MsiState::M && t.event == Event::Evict {
                t.action = Action::None;
            }
        }
    });
    let report = explore(&MsiModel::with_spec(spec, 2));
    let v = find_violation(&report, "data-availability");
    assert!(v.witness.len() <= 2, "witness not minimal: {v}");
}

#[test]
fn stale_l2_copy_breaks_level_consistency() {
    // Bug: a write upgrade forgets to invalidate the shared L2's copy.
    let spec = patched_mosi("MOSI-stale-l2", |ts| {
        for t in ts {
            if t.from == MosiState::S && t.event == Event::LocalWrite {
                t.action = Action::Hit;
            }
        }
    });
    let report = explore(&MosiModel::with_spec(spec, 2));
    find_violation(&report, "level-consistency");
}

#[test]
fn read_hit_that_invalidates_a_sharer_is_not_silent() {
    // Bug: a peer's read snoop drops a Shared copy, so a read hit at
    // one sharer changes another's state — the simulators, which skip
    // the table on hits, would keep a copy the table has dropped.
    let spec = patched_msi("MSI-snoop-drops-sharer", |ts| {
        for t in ts {
            if t.from == MsiState::S && t.event == Event::RemoteRead {
                t.to = MsiState::I;
            }
        }
    });
    let report = explore(&MsiModel::with_spec(spec, 2));
    let v = find_violation(&report, "silent-read-hit");
    // Write(0) then Read(1) makes two sharers; the next read hit is one.
    assert!(v.witness.len() <= 2, "witness not minimal: {v}");
}

#[test]
fn read_hit_that_demotes_the_owner_is_not_silent() {
    // Bug: a peer's read snoop demotes an Owned line to Shared, so a
    // read hit at a sharer moves ownership.
    let spec = patched_mosi("MOSI-snoop-demotes-owner", |ts| {
        for t in ts {
            if t.from == MosiState::O && t.event == Event::RemoteRead {
                t.to = MosiState::S;
            }
        }
    });
    let report = explore(&MosiModel::with_spec(spec, 2));
    find_violation(&report, "silent-read-hit");
}

#[test]
fn missing_row_is_a_totality_gap() {
    // Bug: the O + LocalRead row was dropped entirely.
    let spec = patched_mosi("MOSI-missing-row", |ts| {
        ts.retain(|t| !(t.from == MosiState::O && t.event == Event::LocalRead));
    });
    let report = explore(&MosiModel::with_spec(spec, 2));
    assert!(!report.totality_gaps.is_empty(), "{report}");
    assert!(!report.passed());
}

#[test]
fn unreachable_state_and_dead_rows_are_flagged() {
    // Bug: a snooped read invalidates the Modified owner instead of
    // downgrading it, making Owned unreachable and its rows dead.
    let spec = patched_mosi("MOSI-no-owned", |ts| {
        for t in ts {
            if t.from == MosiState::M && t.event == Event::RemoteRead {
                t.to = MosiState::I;
                t.action = Action::SupplyToPeer;
            }
        }
    });
    let report = explore(&MosiModel::with_spec(spec, 3));
    assert!(
        report.unreachable_states.contains(&"O".to_string()),
        "{report}"
    );
    assert!(!report.dead_transitions.is_empty(), "{report}");
}
