//! Golden pins of the memory-system simulators.
//!
//! Every workload runs at smoke scale on the paper geometry (16-node
//! MSI DSM, 4-core MOSI CMP, 64 KB L1 / 8 MB L2) and each output the
//! paper's figures are built from is reduced to an FNV-1a digest: the
//! multi-chip off-chip trace, the single-chip off-chip trace, the
//! intra-chip trace, and both simulators' protocol-event counts. The
//! literals were recorded with the per-agent table-scan protocol engine
//! that the dense-table engine replaced, so any change to a simulator or
//! its protocol engine that alters a single miss record, class, or event
//! count fails here, even when it keeps every run self-consistent.

use tempstream_coherence::{
    CoherenceEvents, MultiChipConfig, MultiChipSim, SingleChipConfig, SingleChipSim,
};
use tempstream_core::stages::emit_workload;
use tempstream_trace::miss::MissRecord;
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

fn trace_digest<C: Copy>(trace: &MissTrace<C>, class: impl Fn(C) -> u64) -> u64 {
    let mut h = Fnv::new();
    h.word(trace.instructions());
    h.word(trace.len() as u64);
    for r in trace.records() {
        let MissRecord {
            block,
            cpu,
            thread,
            function,
            class: c,
        } = *r;
        h.word(block.raw());
        h.word(u64::from(cpu.raw()));
        h.word(u64::from(thread.raw()));
        h.word(u64::from(function.raw()));
        h.word(class(c));
    }
    h.0
}

fn events_digest(e: CoherenceEvents) -> u64 {
    let mut h = Fnv::new();
    for w in [e.invalidations, e.writebacks, e.supplies, e.io_invalidates] {
        h.word(w);
    }
    h.0
}

/// `[multi-chip trace, single-chip off-chip trace, intra-chip trace,
/// multi-chip events, single-chip events]` digests for one workload.
fn digests(w: Workload) -> [u64; 5] {
    let mut mc = MultiChipSim::new(MultiChipConfig::paper());
    mc.set_recording(false);
    let out = emit_workload(w, mc.config().nodes, SEED, SCALE, &mut mc);
    let mc_events = mc.events();
    let mc_trace = mc.finish(out.instructions);

    let mut sc = SingleChipSim::new(SingleChipConfig::paper());
    sc.set_recording(false);
    let out = emit_workload(w, sc.config().cores, SEED, SCALE, &mut sc);
    let sc_events = sc.events();
    let sc_traces = sc.finish(out.instructions);

    [
        trace_digest(&mc_trace, |c| c as u64),
        trace_digest(&sc_traces.off_chip, |c| c as u64),
        trace_digest(&sc_traces.intra_chip, |c| c as u64),
        events_digest(mc_events),
        events_digest(sc_events),
    ]
}

const GOLDEN: [(Workload, [u64; 5]); 6] = [
    (
        Workload::Apache,
        [
            0xda41a22ddeee24e9,
            0xf06266de56600d3f,
            0xede1915a1344037a,
            0x1f2e43f862a4a9a5,
            0xa1baaa61ea5bf7f7,
        ],
    ),
    (
        Workload::Zeus,
        [
            0xc366e716c2604bd6,
            0x7703e77a20712184,
            0x1844896909c50f87,
            0xe9de024bcd4e6f63,
            0xfdaeda51b55578b8,
        ],
    ),
    (
        Workload::Oltp,
        [
            0xbb547ec0aaee11fd,
            0x1bfed1e995ca36fa,
            0x2ece539555ffb6e6,
            0x7532fdcc2d0ec561,
            0x8e13a671f3ea45c9,
        ],
    ),
    (
        Workload::DssQ1,
        [
            0xf0565b39fc41acdf,
            0x7b0bc7e806e796ee,
            0x27c447b8c0e9598c,
            0xec683b6b3c1a13db,
            0xe3b7d6e9aa700b1b,
        ],
    ),
    (
        Workload::DssQ2,
        [
            0xc58c9f1cb8ff74d7,
            0x2af25e777e88c89a,
            0xec75d7d6d0268c30,
            0x0139ad8b30cd09f3,
            0x463e3586bb9c58bc,
        ],
    ),
    (
        Workload::DssQ17,
        [
            0xeb6c75e63357c43d,
            0x665f9a0e45c125aa,
            0xbcdcd7096f360b78,
            0xbdad65d125ab5224,
            0x0edd9a593092d9ed,
        ],
    ),
];

#[test]
fn simulator_outputs_match_golden_digests() {
    let actual: Vec<(Workload, [u64; 5])> = GOLDEN.iter().map(|&(w, _)| (w, digests(w))).collect();
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
            "{} simulator output drifted from the golden digests \
             [multi-chip, single-chip, intra-chip, mc events, sc events]; \
             actual table:\n{table}",
            w.name()
        );
    }
}
