//! Golden pins of the SEQUITUR grammars built over the simulators' miss
//! traces.
//!
//! Every workload runs at smoke scale on the paper geometry (16-node
//! MSI DSM, 4-core MOSI CMP, 64 KB L1 / 8 MB L2). The block numbers of
//! each miss trace the paper's stream analysis reads (multi-chip,
//! single-chip off-chip, intra-chip) are pushed through a fresh
//! [`Sequitur`] builder, and the finished [`Grammar`] is reduced to an
//! FNV-1a digest of its input length, rule count and every rule body,
//! symbol by symbol in rule order. The literals were recorded with the
//! enum-payload builder and its `std` `HashMap` digram index, before the
//! packed-node builder replaced it, so any builder change that alters a
//! single rule, a body symbol or the rule numbering fails here.

use tempstream_coherence::{MultiChipConfig, MultiChipSim, SingleChipConfig, SingleChipSim};
use tempstream_core::stages::emit_workload;
use tempstream_sequitur::{Grammar, GrammarStats, GrammarSymbol, RuleId, Sequitur};
use tempstream_trace::MissTrace;
use tempstream_workloads::{Scale, Workload};

const SEED: u64 = 0x715C_2008;
const SCALE: Scale = Scale {
    warmup_ops: 20,
    ops: 150,
};

/// 64-bit FNV-1a over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn grammar_digest(input_len: u64, g: &Grammar) -> u64 {
    let mut h = Fnv::new();
    h.word(input_len);
    h.word(g.rule_count() as u64);
    for r in g.rule_ids() {
        let body = g.rule_body(r);
        h.word(body.len() as u64);
        for sym in body {
            match *sym {
                GrammarSymbol::Terminal(t) => {
                    h.word(0);
                    h.word(t);
                }
                GrammarSymbol::Rule(id) => {
                    h.word(1);
                    h.word(id.index() as u64);
                }
            }
        }
    }
    h.0
}

fn trace_grammar_digest<C: Copy>(trace: &MissTrace<C>) -> u64 {
    let mut s = Sequitur::new();
    s.extend(trace.records().iter().map(|r| r.block.raw()));
    let input_len = s.input_len();
    let g = s.grammar();
    assert_eq!(g.expansion_len(RuleId::ROOT), input_len);
    // The batch pipeline exports these stats from the frozen builder.
    let stats = GrammarStats::of(&g);
    assert_eq!(GrammarStats::of(&s), stats);
    assert_eq!(GrammarStats::of(&s.freeze()), stats);
    grammar_digest(input_len, &g)
}

/// `[multi-chip, single-chip off-chip, intra-chip]` grammar digests for
/// one workload.
fn digests(w: Workload) -> [u64; 3] {
    let mut mc = MultiChipSim::new(MultiChipConfig::paper());
    mc.set_recording(false);
    let out = emit_workload(w, mc.config().nodes, SEED, SCALE, &mut mc);
    let mc_trace = mc.finish(out.instructions);

    let mut sc = SingleChipSim::new(SingleChipConfig::paper());
    sc.set_recording(false);
    let out = emit_workload(w, sc.config().cores, SEED, SCALE, &mut sc);
    let sc_traces = sc.finish(out.instructions);

    [
        trace_grammar_digest(&mc_trace),
        trace_grammar_digest(&sc_traces.off_chip),
        trace_grammar_digest(&sc_traces.intra_chip),
    ]
}

const GOLDEN: [(Workload, [u64; 3]); 6] = [
    (
        Workload::Apache,
        [0xb136b9464fdd74ca, 0x21385171feac4b56, 0x0071577a9f9fca00],
    ),
    (
        Workload::Zeus,
        [0x43ca6dd998734b3a, 0x18dd32488073720a, 0xfca5d2ca11d9396e],
    ),
    (
        Workload::Oltp,
        [0x7512b3a4c3a8b506, 0x8ecc3688908c9c19, 0x5b5d2bcb009ecb78],
    ),
    (
        Workload::DssQ1,
        [0x1f6300fc45645ad0, 0x003fbf3f33da86b5, 0x24865a9b2c210dce],
    ),
    (
        Workload::DssQ2,
        [0xb1921af0431ed401, 0x2bc4761dd95bae4f, 0x94b6805514639f66],
    ),
    (
        Workload::DssQ17,
        [0x3579869da89ce20a, 0x2764f94ae523770e, 0x37bc1115c8e6955c],
    ),
];

#[test]
fn grammars_match_golden_digests() {
    let actual: Vec<(Workload, [u64; 3])> = GOLDEN.iter().map(|&(w, _)| (w, digests(w))).collect();
    let table: String = actual
        .iter()
        .map(|(w, d)| {
            let hex: Vec<String> = d.iter().map(|x| format!("{x:#018x}")).collect();
            format!("    (Workload::{w:?}, [{}]),\n", hex.join(", "))
        })
        .collect();
    for ((w, got), (_, want)) in actual.iter().zip(GOLDEN) {
        assert_eq!(
            *got,
            want,
            "{} grammar drifted from the golden digests \
             [multi-chip, single-chip, intra-chip]; actual table:\n{table}",
            w.name()
        );
    }
}
