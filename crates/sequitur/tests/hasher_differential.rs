//! Differential tests for the digram-index hasher swap.
//!
//! The digram index moved from SipHash (`RandomState`) to the in-tree
//! seedless `FxBuildHasher`. SEQUITUR only ever asks the index
//! exact-match questions — it never iterates it — so the produced
//! grammar must be a function of the input alone, independent of the
//! hasher. These tests pin that claim by building the same inputs under
//! both hashers and requiring *structurally identical* grammars (same
//! rules, same bodies, same order), not merely equal reconstructions.
//!
//! A third hasher sends every digram to the same hash. That turns the
//! open-addressed index into one long probe run that wraps around the
//! end of the table and is repaired by backward shifts on every
//! deletion, and the grammars must still come out identical.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasherDefault, Hasher};
use tempstream_sequitur::{Grammar, Sequitur};
use tempstream_trace::rng::SmallRng;

fn grammar_with<H: std::hash::BuildHasher + Default>(input: &[u64]) -> Grammar {
    let mut s = Sequitur::<H>::with_hasher();
    s.extend(input.iter().copied());
    s.into_grammar()
}

fn assert_identical(a: &Grammar, b: &Grammar, input: &[u64]) {
    assert_eq!(
        a.rule_count(),
        b.rule_count(),
        "rule counts diverge for input {input:?}"
    );
    for r in a.rule_ids() {
        assert_eq!(
            a.rule_body(r),
            b.rule_body(r),
            "rule {r} body diverges for input {input:?}"
        );
    }
    assert_eq!(a.reconstruct(), input, "reconstruction broken");
}

/// The default (Fx) build and a SipHash build produce structurally
/// identical grammars over a randomized corpus spanning tiny to large
/// alphabets.
#[test]
fn fx_and_siphash_grammars_identical() {
    let mut rng = SmallRng::seed_from_u64(0xd1f);
    for round in 0..64 {
        let alphabet = [2u64, 3, 8, 64, 4096][round % 5];
        let len = rng.gen_range(0..600usize);
        let input: Vec<u64> = (0..len).map(|_| rng.gen_range(0..alphabet)).collect();
        let fx = grammar_with::<tempstream_fxhash::FxBuildHasher>(&input);
        let sip = grammar_with::<RandomState>(&input);
        assert_identical(&fx, &sip, &input);
    }
}

/// A hasher under which every key collides.
#[derive(Default)]
struct ConstantHasher;

impl Hasher for ConstantHasher {
    fn write(&mut self, _: &[u8]) {}

    fn finish(&self) -> u64 {
        u64::MAX
    }
}

type ConstantHash = BuildHasherDefault<ConstantHasher>;

/// With every digram colliding, the index still answers exactly, so the
/// grammar equals the SipHash build's on the randomized corpus and on
/// the churn-heavy regression shapes.
#[test]
fn constant_hash_grammars_identical() {
    let mut rng = SmallRng::seed_from_u64(0xc011);
    for round in 0..48 {
        let alphabet = [2u64, 3, 8, 64, 4096][round % 5];
        let len = rng.gen_range(0..600usize);
        let input: Vec<u64> = (0..len).map(|_| rng.gen_range(0..alphabet)).collect();
        let mut s = Sequitur::<ConstantHash>::with_hasher();
        s.extend(input.iter().copied());
        s.verify_invariants();
        assert_identical(
            &s.into_grammar(),
            &grammar_with::<RandomState>(&input),
            &input,
        );
    }
    for case in [&[5u64, 5, 4, 5, 5, 4, 4, 5, 5, 5, 4][..], &[1; 40][..]] {
        let constant = grammar_with::<ConstantHash>(case);
        assert_identical(&constant, &grammar_with::<RandomState>(case), case);
    }
}

/// `Sequitur::new()` (the default hasher) agrees with an explicit
/// SipHash build on the regression shapes that stress index churn:
/// runs, alternations, and overlapping digrams.
#[test]
fn default_hasher_matches_siphash_on_regression_shapes() {
    let cases: &[&[u64]] = &[
        &[1, 1, 1, 1, 1, 1, 1, 1, 1],
        &[1, 2, 2, 2, 1, 2, 3, 2, 2],
        &[1, 2, 1, 2, 1, 2, 1, 2],
        &[1, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4],
        &[2, 1, 1, 1, 2, 1, 1, 1, 2],
        &[5, 5, 4, 5, 5, 4, 4, 5, 5, 5, 4],
    ];
    for &case in cases {
        let mut s = Sequitur::new();
        s.extend(case.iter().copied());
        s.verify_invariants();
        let default_build = s.into_grammar();
        let sip = grammar_with::<RandomState>(case);
        assert_identical(&default_build, &sip, case);
    }
}

/// Two independent default-hasher builds of the same input take the
/// exact same internal path (same arena size, same index size) — the
/// determinism the seedless hasher buys over SipHash.
#[test]
fn fx_builds_are_bit_stable_across_instances() {
    let mut rng = SmallRng::seed_from_u64(0xace);
    let input: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..32)).collect();
    let mut a = Sequitur::with_capacity(input.len());
    let mut b = Sequitur::with_capacity(input.len());
    a.extend(input.iter().copied());
    b.extend(input.iter().copied());
    assert_eq!(a.digram_index_len(), b.digram_index_len());
    assert_eq!(a.node_arena_len(), b.node_arena_len());
    assert_eq!(a.rules_created(), b.rules_created());
    assert_eq!(a.live_rules(), b.live_rules());
    assert_identical(&a.into_grammar(), &b.into_grammar(), &input);
}
