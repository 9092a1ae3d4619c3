//! Randomized property tests of the memory-system simulators and their
//! protocol table over random access and event streams, generated by
//! the in-tree seeded PRNG.

use std::collections::HashMap;
use tempstream_coherence::{
    AgentSet, ApplyOutcome, BlockStates, Event, MultiChipConfig, MultiChipSim, ProtocolSpec,
    ProtocolState, ProtocolTable, SingleChipConfig, SingleChipSim, Transition, MOSI, MSI,
};
use tempstream_trace::rng::SmallRng;
use tempstream_trace::{
    AccessKind, Address, Block, CpuId, FunctionId, IntraChipClass, MemoryAccess, MissClass,
    ThreadId,
};

/// A compact random-access description: (kind, cpu, block).
type Op = (u8, u8, u64);

fn to_access(op: Op, cpus: u32) -> MemoryAccess {
    let (kind, cpu, block) = op;
    let cpu = u32::from(cpu) % cpus;
    let kind = match kind % 8 {
        0..=3 => AccessKind::Read,
        4 | 5 => AccessKind::Write,
        6 => AccessKind::DmaWrite,
        _ => AccessKind::CopyoutWrite,
    };
    MemoryAccess::new(
        Address::new(block * 64),
        kind,
        CpuId::new(cpu),
        ThreadId::new(cpu),
        FunctionId::new(0),
    )
}

fn gen_ops(rng: &mut SmallRng) -> Vec<Op> {
    let len = rng.gen_range(0..=600usize);
    (0..len)
        .map(|_| {
            (
                rng.gen_range(0..8u8),
                rng.gen_range(0..4u8),
                rng.gen_range(0..200u64),
            )
        })
        .collect()
}

/// The single-chip system never reports a (non-I/O) coherence miss off
/// chip, for any access stream.
#[test]
fn single_chip_has_no_off_chip_coherence() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0001);
    for _ in 0..128 {
        let ops = gen_ops(&mut rng);
        let mut sim = SingleChipSim::new(SingleChipConfig::small(4));
        for op in &ops {
            sim.access(&to_access(*op, 4));
        }
        let t = sim.finish(1);
        assert!(t
            .off_chip
            .records()
            .iter()
            .all(|r| r.class != MissClass::Coherence));
    }
}

/// Every off-chip miss of the single-chip system also appears as an
/// `OffChip` intra-chip record; intra-chip misses are a superset.
#[test]
fn intra_chip_superset_of_off_chip() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0002);
    for _ in 0..128 {
        let ops = gen_ops(&mut rng);
        let mut sim = SingleChipSim::new(SingleChipConfig::small(4));
        for op in &ops {
            sim.access(&to_access(*op, 4));
        }
        let t = sim.finish(1);
        let intra_offchip = t
            .intra_chip
            .records()
            .iter()
            .filter(|r| r.class == IntraChipClass::OffChip)
            .count();
        assert_eq!(intra_offchip, t.off_chip.len());
        assert!(t.intra_chip.len() >= t.off_chip.len());
    }
}

/// Two consecutive reads by the same cpu to the same block never miss
/// twice in a row (the first fill must stick until something else
/// intervenes).
#[test]
fn back_to_back_reads_hit() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0003);
    for _ in 0..256 {
        let block = rng.gen_range(0..1000u64);
        let cpu = rng.gen_range(0..4u32);
        let mut sim = MultiChipSim::new(MultiChipConfig::small(4));
        let a = MemoryAccess::read(
            Address::new(block * 64),
            CpuId::new(cpu),
            FunctionId::new(0),
        );
        sim.access(&a);
        let before = sim.miss_count();
        sim.access(&a);
        assert_eq!(sim.miss_count(), before);
    }
}

/// The first read miss of any block is Compulsory unless a processor
/// wrote it first.
#[test]
fn first_read_classification() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0004);
    for _ in 0..128 {
        let ops = gen_ops(&mut rng);
        let mut sim = MultiChipSim::new(MultiChipConfig::small(4));
        let mut cpu_written: std::collections::HashSet<u64> = Default::default();
        let mut read_blocks: std::collections::HashSet<u64> = Default::default();
        let mut io_written: std::collections::HashSet<u64> = Default::default();
        let mut firsts: Vec<(u64, bool, bool)> = Vec::new(); // block, cpu_touched, io
        for op in &ops {
            let a = to_access(*op, 4);
            let block = a.addr.block().raw();
            if a.kind == AccessKind::Read && !read_blocks.contains(&block) {
                firsts.push((
                    block,
                    cpu_written.contains(&block),
                    io_written.contains(&block),
                ));
                read_blocks.insert(block);
            }
            match a.kind {
                AccessKind::Write => {
                    cpu_written.insert(block);
                }
                AccessKind::DmaWrite | AccessKind::CopyoutWrite => {
                    io_written.insert(block);
                }
                AccessKind::Read => {}
            }
            sim.access(&a);
        }
        let trace = sim.finish(1);
        // For each block's first-ever read: find its (necessarily first)
        // trace record and check the class.
        let mut seen: std::collections::HashSet<u64> = Default::default();
        let mut first_class = std::collections::HashMap::new();
        for r in trace.records() {
            if seen.insert(r.block.raw()) {
                first_class.insert(r.block.raw(), r.class);
            }
        }
        for (block, cpu_touched, _io) in firsts {
            let Some(&class) = first_class.get(&block) else {
                continue;
            };
            if !cpu_touched {
                assert_eq!(
                    class,
                    MissClass::Compulsory,
                    "first read of never-cpu-written block {block} must be cold"
                );
            }
        }
    }
}

/// Simulators are deterministic functions of the access stream.
#[test]
fn simulators_are_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0005);
    for _ in 0..32 {
        let ops = gen_ops(&mut rng);
        let run = |ops: &[Op]| {
            let mut m = MultiChipSim::new(MultiChipConfig::small(4));
            let mut s = SingleChipSim::new(SingleChipConfig::small(4));
            for op in ops {
                m.access(&to_access(*op, 4));
                s.access(&to_access(*op, 4));
            }
            let mt = m.finish(1);
            let st = s.finish(1);
            (
                mt.records().to_vec(),
                st.off_chip.records().to_vec(),
                st.intra_chip.records().to_vec(),
            )
        };
        assert_eq!(run(&ops), run(&ops));
    }
}

/// A remote write always invalidates: the previous reader's next read
/// of that block misses.
#[test]
fn write_invalidates_remote_copies() {
    for block in 0u64..100 {
        let mut sim = MultiChipSim::new(MultiChipConfig::small(4));
        let addr = Address::new(block * 64);
        let f = FunctionId::new(0);
        sim.access(&MemoryAccess::read(addr, CpuId::new(0), f));
        sim.access(&MemoryAccess::write(addr, CpuId::new(1), f));
        let before = sim.miss_count();
        sim.access(&MemoryAccess::read(addr, CpuId::new(0), f));
        let trace = sim.finish(1);
        assert_eq!(trace.len(), before + 1, "read after remote write must miss");
        assert_eq!(trace.records().last().unwrap().class, MissClass::Coherence);
    }
}

/// Recording toggles trace capture without changing simulator state:
/// the visible (recorded) suffix is identical whether or not a prefix
/// was recorded.
#[test]
fn recording_toggle_is_transparent() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0006);
    for _ in 0..64 {
        let ops = gen_ops(&mut rng);
        let split = ops.len() / 2;
        let run = |record_prefix: bool| {
            let mut sim = MultiChipSim::new(MultiChipConfig::small(4));
            sim.set_recording(record_prefix);
            for op in &ops[..split] {
                sim.access(&to_access(*op, 4));
            }
            sim.set_recording(true);
            let skip = sim.miss_count();
            for op in &ops[split..] {
                sim.access(&to_access(*op, 4));
            }
            let t = sim.finish(1);
            t.records()[skip..].to_vec()
        };
        assert_eq!(run(true), run(false));
    }
}

/// Regression for the stale-owner audit (checker invariant
/// "single-owner" / SWMR, exercised dynamically): under eviction-heavy
/// random traffic the table-tracked owner must always be exact.
///
/// The seed implementation kept a separate `owner: HashMap<Block, u32>`
/// that silently *tolerated* staleness with a residency filter at the
/// lookup site; the table-driven states observe every eviction and
/// invalidation as a protocol event, so the `debug_assert!`
/// differential hooks inside `SingleChipSim::read` (owner's L1 really
/// holds the block; the table supplier matches the responder used for
/// classification) fire on any inconsistency while this test churns.
#[test]
fn owner_tracking_survives_eviction_storms() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0007);
    for _ in 0..32 {
        // Footprint far above the small L1s (64 blocks) so owning lines
        // are constantly victimized.
        let mut sim = SingleChipSim::new(SingleChipConfig::small(4));
        for _ in 0..3000 {
            sim.access(&to_access(
                (
                    rng.gen_range(0..8u8),
                    rng.gen_range(0..4u8),
                    rng.gen_range(0..400u64),
                ),
                4,
            ));
        }
        // At most one owner per block is structural (Option), but the
        // owner index must always name a real core.
        for b in 0u64..400 {
            if let Some(o) = sim.owner(tempstream_trace::Block::new(b)) {
                assert!(o < 4, "owner {o} out of range for block {b}");
            }
        }
    }
}

/// A write must make the writer the (sole) owner immediately, and a
/// subsequent peer read must be served by that owner's L1 — the
/// intra-chip `Coherence:Peer-L1` category the paper's Figure 1 (right)
/// depends on.
#[test]
fn write_sets_owner_immediately() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0008);
    for _ in 0..64 {
        let mut sim = SingleChipSim::new(SingleChipConfig::small(4));
        // Random warmup traffic.
        for _ in 0..500 {
            sim.access(&to_access(
                (
                    rng.gen_range(0..6u8), // reads and writes only
                    rng.gen_range(0..4u8),
                    rng.gen_range(0..300u64),
                ),
                4,
            ));
        }
        let writer = rng.gen_range(0..4u32);
        let block = rng.gen_range(0..300u64);
        sim.access(&MemoryAccess::write(
            Address::new(block * 64),
            CpuId::new(writer),
            FunctionId::new(0),
        ));
        assert_eq!(
            sim.owner(tempstream_trace::Block::new(block)),
            Some(writer),
            "writer must own the block immediately after its store"
        );
    }
}

/// The dense table keyed by block the way the simulators use it: one
/// packed [`BlockStates`] per block, stepped in place, with all-invalid
/// blocks dropped so the live-block count is comparable.
struct TableEngine<S: ProtocolState> {
    table: ProtocolTable<S>,
    states: HashMap<Block, BlockStates<S>>,
}

impl<S: ProtocolState> TableEngine<S> {
    fn new(spec: &'static ProtocolSpec<S>, agents: u32) -> Self {
        TableEngine {
            table: ProtocolTable::new(spec, agents),
            states: HashMap::new(),
        }
    }

    fn block(&self, block: Block) -> BlockStates<S> {
        self.states.get(&block).copied().unwrap_or_default()
    }

    fn apply(&mut self, agent: u32, block: Block, event: Event) -> ApplyOutcome<S> {
        let mut b = self.block(block);
        let out = self.table.step(&mut b, agent, event);
        self.store(block, b);
        out
    }

    fn apply_io_invalidate(&mut self, block: Block) -> AgentSet {
        let mut b = self.block(block);
        let dropped = self.table.step_io_invalidate(&mut b);
        self.store(block, b);
        dropped
    }

    fn store(&mut self, block: Block, b: BlockStates<S>) {
        if b.valid().is_empty() {
            assert_eq!(b, BlockStates::default(), "all-invalid block is blank");
            self.states.remove(&block);
        } else {
            self.states.insert(block, b);
        }
    }
}

/// The straightforward engine the dense one must agree with: one
/// `Vec` of states per block, every step a `ProtocolSpec::transition`
/// scan, and every induced event applied to every other agent.
struct ReferenceEngine<S: ProtocolState> {
    spec: &'static ProtocolSpec<S>,
    agents: u32,
    states: HashMap<Block, Vec<S>>,
}

/// What one reference step reports: the local transition, the
/// invalidated peers in ascending order, and the supplier.
type RefOutcome<S> = (&'static Transition<S>, Vec<u32>, Option<u32>);

impl<S: ProtocolState> ReferenceEngine<S> {
    fn new(spec: &'static ProtocolSpec<S>, agents: u32) -> Self {
        ReferenceEngine {
            spec,
            agents,
            states: HashMap::new(),
        }
    }

    fn state(&self, agent: u32, block: Block) -> S {
        self.states
            .get(&block)
            .map_or(self.spec.initial, |v| v[agent as usize])
    }

    fn apply(&mut self, agent: u32, block: Block, event: Event) -> RefOutcome<S> {
        let remote = match event {
            Event::LocalRead => Some(Event::RemoteRead),
            Event::LocalWrite => Some(Event::RemoteWrite),
            _ => None,
        };
        let v = self
            .states
            .entry(block)
            .or_insert_with(|| vec![self.spec.initial; self.agents as usize]);
        let local = self
            .spec
            .transition(v[agent as usize], event)
            .expect("reference step is possible");
        v[agent as usize] = local.to;
        let mut invalidated = Vec::new();
        let mut supplier = None;
        if let Some(remote) = remote {
            for (i, s) in v.iter_mut().enumerate() {
                if i as u32 == agent {
                    continue;
                }
                let t = self.spec.transition(*s, remote).expect("total");
                if t.action == tempstream_coherence::Action::SupplyToPeer {
                    supplier = Some(i as u32);
                }
                if s.is_valid() && !t.to.is_valid() {
                    invalidated.push(i as u32);
                }
                *s = t.to;
            }
        }
        if v.iter().all(|s| !s.is_valid()) {
            self.states.remove(&block);
        }
        (local, invalidated, supplier)
    }

    fn apply_io_invalidate(&mut self, block: Block) -> Vec<u32> {
        let Some(v) = self.states.get_mut(&block) else {
            return Vec::new();
        };
        let mut dropped = Vec::new();
        for (i, s) in v.iter_mut().enumerate() {
            let t = self
                .spec
                .transition(*s, Event::IoInvalidate)
                .expect("total");
            if s.is_valid() && !t.to.is_valid() {
                dropped.push(i as u32);
            }
            *s = t.to;
        }
        if v.iter().all(|s| !s.is_valid()) {
            self.states.remove(&block);
        }
        dropped
    }
}

/// Drives the dense engine and the reference with one seeded random
/// event stream and compares everything observable after every step.
fn engines_agree<S: ProtocolState>(spec: &'static ProtocolSpec<S>, agents: u32, seed: u64) {
    const BLOCKS: u64 = 12;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut engine = TableEngine::new(spec, agents);
    let mut reference = ReferenceEngine::new(spec, agents);
    for step in 0..2000 {
        let agent = rng.gen_range(0..agents);
        let block = Block::new(rng.gen_range(0..BLOCKS));
        let ctx = || format!("{} x{agents} seed {seed:#x} step {step}", spec.name);
        match rng.gen_range(0..10u32) {
            0 => {
                let got = engine.apply_io_invalidate(block);
                let want = reference.apply_io_invalidate(block);
                assert_eq!(got.iter().collect::<Vec<_>>(), want, "{}", ctx());
            }
            k => {
                let event = match k {
                    1..=5 => Event::LocalRead,
                    6..=7 => Event::LocalWrite,
                    // Evicting an invalid line is impossible in both.
                    _ if reference.state(agent, block).is_valid() => Event::Evict,
                    _ => Event::LocalRead,
                };
                let got = engine.apply(agent, block, event);
                let (local, invalidated, supplier) = reference.apply(agent, block, event);
                assert_eq!(*got.local, *local, "{}", ctx());
                assert_eq!(
                    got.invalidated.iter().collect::<Vec<_>>(),
                    invalidated,
                    "{}",
                    ctx()
                );
                assert_eq!(got.supplier, supplier, "{}", ctx());
            }
        }
        assert_eq!(engine.states.len(), reference.states.len(), "{}", ctx());
        for b in 0..BLOCKS {
            let b = Block::new(b);
            let states = engine.block(b);
            for a in 0..agents {
                assert_eq!(states.state(a), reference.state(a, b), "{}", ctx());
            }
            let owner = (0..agents).find(|&a| reference.state(a, b).is_owner());
            assert_eq!(states.owner(), owner, "{}", ctx());
        }
        let others = (0..agents).any(|a| a != agent && reference.state(a, block).is_valid());
        assert_eq!(engine.block(block).other_valid(agent), others, "{}", ctx());
    }
}

/// The dense-table, valid-peer engine is observably identical to the
/// per-agent table scan, for both protocols and every agent count the
/// simulators use — including 32, where the mask's top bit is live.
#[test]
fn dense_engine_matches_reference_engine() {
    for agents in [1, 2, 4, 16, 32] {
        for seed in 0..2u64 {
            engines_agree(&MSI, agents, 0xd1ff_0000 + seed);
            engines_agree(&MOSI, agents, 0xd1ff_1000 + seed);
        }
    }
}

/// A table hole is reported when the engine is built, not on the first
/// access that happens to reach it.
#[test]
#[should_panic(expected = "table hole")]
fn table_hole_fails_at_construction() {
    let rows: Vec<Transition<_>> = MSI
        .transitions
        .iter()
        .copied()
        .filter(|t| !(t.from == tempstream_coherence::MsiState::S && t.event == Event::RemoteWrite))
        .collect();
    let spec: &'static ProtocolSpec<_> = Box::leak(Box::new(ProtocolSpec {
        name: "MSI-with-hole",
        states: MSI.states,
        initial: MSI.initial,
        transitions: Box::leak(rows.into_boxed_slice()),
        impossible: MSI.impossible,
    }));
    let _ = ProtocolTable::new(spec, 2);
}
