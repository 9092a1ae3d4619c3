//! The 4-core single-chip (CMP) model.
//!
//! Per-core 64 KB 2-way L1s and a shared 8 MB 16-way L2 are kept coherent
//! with a MOSI protocol modeled on Piranha (paper §3): a dirty line lives in
//! its owner's L1 and is supplied core-to-core on a peer read; the hierarchy
//! is non-inclusive (L1 victims are installed into the L2).
//!
//! All coherence-state transitions are driven by the declarative
//! [`MOSI`] table through a [`ProtocolTable`]: the simulator feeds
//! events, acts on the returned [`Action`]s (who to invalidate, who
//! supplies, whether a victim writes back), and `debug_assert!`s that the
//! cache structures agree with the table-tracked states. The same table
//! is model-checked exhaustively by `tempstream-checker`.
//!
//! A block's core-granularity history and its per-core MOSI states live
//! in one 32-byte record in a [`BlockTable`]. A read that hits the
//! core's L1 returns without touching it (the table step would change
//! nothing, and the history already marks the reader); only misses,
//! writes and device writes probe the record.
//!
//! The simulator produces the paper's two traces at once:
//!
//! - **off-chip** misses — L1+L2 misses, classified at *chip* granularity
//!   (so non-I/O coherence never appears off chip, matching the paper's
//!   observation that a CMP captures all communication on chip);
//! - **intra-chip** misses — L1 misses satisfied on chip, classified by
//!   cause (core-granularity history) and responder: `Coherence:Peer-L1`,
//!   `Coherence:L2`, or `Replacement:L2`. An L1 miss that also misses the
//!   L2 appears in the intra-chip trace as `Off-chip` *and* in the off-chip
//!   trace, mirroring Figure 1 (right)'s "Off-chip" segment.
//!
//! Every miss of either trace is counted by class; its record is stored
//! only while that trace is under the record limit (unlimited unless
//! [`SingleChipSim::set_record_limit`] lowers it), since the analyses
//! read at most a prefix of each trace.

use crate::block_table::BlockTable;
use crate::events::{CoherenceEvents, ReadPaths};
use crate::history::BlockHistory;
use crate::protocol::{Action, BlockStates, Event, MosiState, ProtocolState, ProtocolTable, MOSI};
use crate::recorder::Recorder;
use tempstream_cache::{CacheConfig, SetAssocCache};
use tempstream_obsv::Registry;
use tempstream_trace::{
    AccessKind, Block, IntraChipClass, MemoryAccess, MissClass, MissRecord, MissTrace,
};

/// Configuration of the single-chip system.
#[derive(Debug, Clone, Copy)]
pub struct SingleChipConfig {
    /// Number of cores.
    pub cores: u32,
    /// Per-core L1 data cache geometry.
    pub l1: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
}

impl SingleChipConfig {
    /// The paper's system: 4 cores, 64 KB 2-way L1s, shared 8 MB 16-way L2.
    pub fn paper() -> Self {
        SingleChipConfig {
            cores: 4,
            l1: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
        }
    }

    /// A reduced-scale configuration for fast tests.
    pub fn small(cores: u32) -> Self {
        SingleChipConfig {
            cores,
            l1: CacheConfig::new(4 * 1024, 2),
            l2: CacheConfig::new(64 * 1024, 16),
        }
    }
}

/// Both traces produced by a single-chip simulation.
#[derive(Debug, Clone)]
pub struct SingleChipTraces {
    /// Off-chip read misses (Figure 1 left, "single-chip" bars).
    pub off_chip: MissTrace<MissClass>,
    /// Intra-chip L1 read misses (Figure 1 right).
    pub intra_chip: MissTrace<IntraChipClass>,
}

/// Everything the simulator knows about one block. Kept for every block
/// ever accessed (the history must outlive residency); a never-accessed
/// block's record is all blank.
#[derive(Debug, Clone, Copy, Default)]
struct BlockRecord {
    /// Core-granularity history (intra-chip cause classification). The
    /// chip-granularity history that classifies off-chip misses is its
    /// [`fold`](BlockHistory::fold).
    history: BlockHistory,
    /// Per-core L1 MOSI states.
    states: BlockStates<MosiState>,
}

/// Trace-driven simulator of the single-chip system.
///
/// # Example
///
/// ```
/// use tempstream_coherence::{SingleChipConfig, SingleChipSim};
/// use tempstream_trace::prelude::*;
///
/// let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
/// let f = FunctionId::new(0);
/// sim.access(&MemoryAccess::write(Address::new(0x40), CpuId::new(0), f));
/// sim.access(&MemoryAccess::read(Address::new(0x40), CpuId::new(1), f));
/// let traces = sim.finish(1000);
/// // Core 1's read was supplied dirty by core 0's L1: on-chip coherence.
/// assert_eq!(traces.intra_chip.records()[0].class, IntraChipClass::CoherencePeerL1);
/// assert!(traces.off_chip.is_empty());
/// ```
pub struct SingleChipSim {
    config: SingleChipConfig,
    l1s: Vec<SetAssocCache<()>>,
    l2: SetAssocCache<()>,
    /// The declarative [`MOSI`] table, the only thing that advances the
    /// per-core states. Ownership (M/O) is read from those states, so
    /// stale-owner bugs are structurally impossible: the table observes
    /// every eviction and invalidation as an event.
    protocol: ProtocolTable<MosiState>,
    blocks: BlockTable<BlockRecord>,
    off_chip: Recorder<MissClass>,
    intra_chip: Recorder<IntraChipClass>,
    recording: bool,
    events: CoherenceEvents,
    reads: ReadPaths,
}

impl SingleChipSim {
    /// Creates a simulator with cold caches.
    ///
    /// # Panics
    ///
    /// Panics if `config.cores` is zero or greater than 32.
    pub fn new(config: SingleChipConfig) -> Self {
        assert!(
            (1..=32).contains(&config.cores),
            "core count must be in 1..=32"
        );
        SingleChipSim {
            l1s: (0..config.cores)
                .map(|_| SetAssocCache::new(config.l1))
                .collect(),
            l2: SetAssocCache::new(config.l2),
            protocol: ProtocolTable::new(&MOSI, config.cores),
            blocks: BlockTable::default(),
            off_chip: Recorder::new(config.cores),
            intra_chip: Recorder::new(config.cores),
            recording: true,
            events: CoherenceEvents::default(),
            reads: ReadPaths::default(),
            config,
        }
    }

    /// Enables or disables miss recording. With recording off, accesses
    /// still warm caches and history but no records are appended.
    pub fn set_recording(&mut self, recording: bool) {
        self.recording = recording;
    }

    /// Stores at most `limit` records in each trace; misses past it are
    /// still counted by [`off_chip_class_counts`](Self::off_chip_class_counts)
    /// and [`intra_chip_class_counts`](Self::intra_chip_class_counts), so
    /// each stored trace is the first `limit` records of the full one.
    pub fn set_record_limit(&mut self, limit: usize) {
        self.off_chip.set_limit(limit);
        self.intra_chip.set_limit(limit);
    }

    /// The system configuration.
    pub fn config(&self) -> &SingleChipConfig {
        &self.config
    }

    /// Off-chip read misses recorded so far per class, stored or not,
    /// in [`MissClass::ALL`] order.
    pub fn off_chip_class_counts(&self) -> [u64; 4] {
        self.off_chip.counts()
    }

    /// Intra-chip L1 read misses recorded so far per class, stored or
    /// not, in [`IntraChipClass::ALL`] order.
    pub fn intra_chip_class_counts(&self) -> [u64; 4] {
        self.intra_chip.counts()
    }

    /// The core whose L1 owns `block` (MOSI M or O state), if any.
    ///
    /// Exposed for invariant-driven tests: the returned core's L1 always
    /// contains the block (the table sees every eviction as an event, so
    /// ownership can never go stale).
    pub fn owner(&self, block: Block) -> Option<u32> {
        self.blocks.get(block).states.owner()
    }

    /// Protocol-activity counts accumulated so far.
    pub fn events(&self) -> CoherenceEvents {
        self.events
    }

    /// Exports miss-class counters (both traces), protocol-event and
    /// read-path counters, and cache-occupancy and block-table gauges
    /// into `registry` under `prefix` (e.g. `sim/apache/single_chip`).
    /// Call before [`finish`](Self::finish).
    pub fn export_obsv(&self, registry: &Registry, prefix: &str) {
        for (class, n) in MissClass::ALL.iter().zip(self.off_chip.counts()) {
            registry
                .counter(&format!("{prefix}/miss_class/{class:?}"))
                .add(n);
        }
        for (class, n) in IntraChipClass::ALL.iter().zip(self.intra_chip.counts()) {
            registry
                .counter(&format!("{prefix}/intra_class/{class:?}"))
                .add(n);
        }
        registry
            .counter(&format!("{prefix}/misses"))
            .add(self.off_chip.total());
        registry
            .counter(&format!("{prefix}/intra_misses"))
            .add(self.intra_chip.total());
        self.events.export(registry, prefix);
        self.reads.export(registry, prefix);
        registry
            .gauge(&format!("{prefix}/block_table/bytes"))
            .set(self.blocks.bytes());
        let l1: u64 = self.l1s.iter().map(|c| c.len() as u64).sum();
        registry
            .gauge(&format!("{prefix}/occupancy/l1_blocks"))
            .set(l1);
        registry
            .gauge(&format!("{prefix}/occupancy/l2_blocks"))
            .set(self.l2.len() as u64);
    }

    /// Simulates one memory access.
    pub fn access(&mut self, a: &MemoryAccess) {
        let block = a.block();
        match a.kind {
            AccessKind::Read => self.read(a, block),
            AccessKind::Write => self.write(a.cpu.raw(), block),
            AccessKind::DmaWrite => self.invalidate_chip(block).record_dma_write(),
            AccessKind::CopyoutWrite => self.invalidate_chip(block).record_copyout_write(),
        }
    }

    /// Simulates every access of `iter`.
    pub fn run<'a, I: IntoIterator<Item = &'a MemoryAccess>>(&mut self, iter: I) {
        for a in iter {
            self.access(a);
        }
    }

    /// Finalizes both traces (the stored records), attaching the
    /// instruction count.
    pub fn finish(self, instructions: u64) -> SingleChipTraces {
        SingleChipTraces {
            off_chip: self.off_chip.finish(instructions),
            intra_chip: self.intra_chip.finish(instructions),
        }
    }

    fn read(&mut self, a: &MemoryAccess, block: Block) {
        let core = a.cpu.raw();
        debug_assert!((core as usize) < self.l1s.len(), "core {core} out of range");
        if self.l1s[core as usize].touch(block).is_some() {
            // Silent hit. Differential hook: the table step would be a
            // Hit that changes nothing, and the history already marks
            // the reader.
            if cfg!(debug_assertions) {
                let rec = self.blocks.get(block);
                debug_assert!(
                    self.protocol.read_hit_is_silent(rec.states, core),
                    "L1 hit at core {core} is not a silent table Hit"
                );
                debug_assert!(
                    rec.history.read_since_write(core),
                    "L1 hit at core {core} without its history mark"
                );
            }
            self.reads.silent_hits += 1;
            return;
        }
        self.reads.probed += 1;
        let rec = self.blocks.get_mut(block);
        // Differential hook: L1 residency and table state agree.
        debug_assert!(
            !rec.states.state(core).is_valid(),
            "L1 miss while the table holds a valid state"
        );

        // L1 miss: classify the cause at core granularity, then find the
        // responder from the protocol state.
        let cause = rec.history.classify_read(core);
        let coherence_cause = cause == MissClass::Coherence;

        let peer_owner = rec.states.owner();
        debug_assert!(
            peer_owner.is_none_or(|o| o != core && self.l1s[o as usize].contains(block)),
            "stale owner: table owner's L1 does not hold the block"
        );
        let in_l2 = self.l2.touch(block).is_some();
        debug_assert!(
            !(in_l2 && peer_owner.is_some_and(|o| rec.states.state(o).is_writable())),
            "L2 holds a copy of an M-state block"
        );
        let clean_peer = !in_l2 && peer_owner.is_none() && rec.states.other_valid(core);

        let on_chip = peer_owner.is_some() || in_l2 || clean_peer;
        let intra_class = if !on_chip {
            IntraChipClass::OffChip
        } else if coherence_cause {
            if peer_owner.is_some() {
                IntraChipClass::CoherencePeerL1
            } else {
                IntraChipClass::CoherenceL2
            }
        } else {
            IntraChipClass::ReplacementL2
        };
        if self.recording {
            self.intra_chip.record(MissRecord {
                block,
                cpu: a.cpu,
                thread: a.thread,
                function: a.function,
                class: intra_class,
            });
        }

        if !on_chip {
            // Off-chip miss, classified at chip granularity.
            if self.recording {
                let class = rec.history.fold().classify_read(0);
                debug_assert_ne!(
                    class,
                    MissClass::Coherence,
                    "chip-granularity history produced an off-chip coherence miss"
                );
                self.off_chip.record(MissRecord {
                    block,
                    cpu: a.cpu,
                    thread: a.thread,
                    function: a.function,
                    class,
                });
            }
            // Fill L2 and the requesting L1.
            self.l2.insert(block, ());
        }
        rec.history.record_read(core);

        // Table step: requester I -> S; a dirty peer (if any) supplies the
        // data and downgrades M -> O.
        let out = self.protocol.step(&mut rec.states, core, Event::LocalRead);
        debug_assert_eq!(out.local.action, Action::Fill);
        debug_assert_eq!(
            out.supplier, peer_owner,
            "table supplier disagrees with the responder used for classification"
        );
        if out.supplier.is_some() {
            self.events.supplies += 1;
        }
        // Fill the requesting L1 (data came from a peer, the L2, or
        // memory); install the L1 victim into the non-inclusive L2.
        self.fill_l1(core, block);
    }

    fn fill_l1(&mut self, core: u32, block: Block) {
        if let Some((victim, ())) = self.l1s[core as usize].insert(block, ()) {
            // Non-inclusive hierarchy: L1 victims are installed in the L2.
            // The table decides what the eviction means: a dirty victim
            // (M/O) is written back — ownership moves to the L2 (plain
            // data in our model) — and a clean one is a victim-cache
            // install.
            let rec = self.blocks.get_mut(victim);
            let out = self.protocol.step(&mut rec.states, core, Event::Evict);
            debug_assert!(
                matches!(
                    out.local.action,
                    Action::WritebackVictim | Action::InstallVictim
                ),
                "eviction of a valid line must write back or install"
            );
            if out.local.action == Action::WritebackVictim {
                self.events.writebacks += 1;
            }
            if self.l2.peek_mut(victim).is_none() {
                self.l2.insert(victim, ());
            }
        }
    }

    fn write(&mut self, core: u32, block: Block) {
        // Write-allocate: bring the line into the writer's L1 first (the
        // victim eviction is a table event of its own).
        if self.l1s[core as usize].touch(block).is_none() {
            self.fill_l1(core, block);
        }
        // Table step: writer -> M; every valid peer copy is invalidated.
        let rec = self.blocks.get_mut(block);
        let out = self.protocol.step(&mut rec.states, core, Event::LocalWrite);
        rec.history.record_write(core);
        self.events.invalidations += out.invalidated.len() as u64;
        for c in out.invalidated {
            self.l1s[c as usize].invalidate(block);
        }
        match out.local.action {
            Action::InvalidateSharers => {
                // The L2 copy (if any) is stale after the write: ownership
                // lives in the L1 (non-inclusive), so drop it.
                self.l2.invalidate(block);
            }
            Action::Hit => {
                // Write hit in M: the invariant "M implies no L2 copy"
                // makes the L2 invalidate unnecessary.
                debug_assert!(
                    !self.l2.contains(block),
                    "M-state write hit while the L2 holds a copy"
                );
            }
            other => debug_assert!(false, "unexpected write action {other:?}"),
        }
        // Differential hook: peers the table did not invalidate must not
        // hold the block.
        debug_assert!((0..self.config.cores).all(|c| {
            c == core || out.invalidated.contains(c) || !self.l1s[c as usize].contains(block)
        }));
    }

    /// Invalidates every on-chip copy of `block` for a device write and
    /// returns the block's history for the caller to record the write.
    fn invalidate_chip(&mut self, block: Block) -> &mut BlockHistory {
        self.events.io_invalidates += 1;
        let rec = self.blocks.get_mut(block);
        for c in self.protocol.step_io_invalidate(&mut rec.states) {
            self.l1s[c as usize].invalidate(block);
        }
        self.l2.invalidate(block);
        // Differential hook: after an I/O invalidate no L1 may hold the
        // block.
        debug_assert!((0..self.config.cores).all(|c| !self.l1s[c as usize].contains(block)));
        &mut rec.history
    }
}

impl tempstream_trace::sink::AccessSink for SingleChipSim {
    fn access(&mut self, access: &MemoryAccess) {
        SingleChipSim::access(self, access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempstream_trace::{Address, CpuId, FunctionId, ThreadId};

    fn read(cpu: u32, addr: u64) -> MemoryAccess {
        MemoryAccess::read(Address::new(addr), CpuId::new(cpu), FunctionId::new(0))
    }

    fn write(cpu: u32, addr: u64) -> MemoryAccess {
        MemoryAccess::write(Address::new(addr), CpuId::new(cpu), FunctionId::new(0))
    }

    fn dma(addr: u64) -> MemoryAccess {
        MemoryAccess::new(
            Address::new(addr),
            AccessKind::DmaWrite,
            CpuId::new(0),
            ThreadId::new(0),
            FunctionId::new(0),
        )
    }

    fn copyout(addr: u64) -> MemoryAccess {
        MemoryAccess::new(
            Address::new(addr),
            AccessKind::CopyoutWrite,
            CpuId::new(0),
            ThreadId::new(0),
            FunctionId::new(0),
        )
    }

    #[test]
    fn block_record_fits_32_bytes() {
        // One per block ever accessed, eight to a chunk: a record of at
        // most 32 bytes keeps a block's state within one cache line.
        assert!(std::mem::size_of::<BlockRecord>() <= 32);
    }

    #[test]
    fn l1_hits_are_silent_and_misses_probe() {
        let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
        sim.access(&write(0, 0x40)); // writes are not reads
        sim.access(&read(0, 0x40)); // L1 hit in M
        sim.access(&read(1, 0x40)); // peer-supplied miss
        sim.access(&read(0, 0x40)); // L1 hit in O
        sim.access(&read(1, 0x40)); // L1 hit in S
        sim.access(&read(0, 0x80)); // cold miss
        assert_eq!(
            sim.reads,
            ReadPaths {
                silent_hits: 3,
                probed: 2
            }
        );
    }

    #[test]
    fn cold_read_goes_off_chip() {
        let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
        sim.access(&read(0, 0x40));
        let t = sim.finish(100);
        assert_eq!(t.off_chip.len(), 1);
        assert_eq!(t.off_chip.records()[0].class, MissClass::Compulsory);
        assert_eq!(t.intra_chip.len(), 1);
        assert_eq!(t.intra_chip.records()[0].class, IntraChipClass::OffChip);
    }

    #[test]
    fn dirty_peer_supplies_on_chip() {
        let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
        sim.access(&write(0, 0x40));
        sim.access(&read(1, 0x40));
        let t = sim.finish(100);
        assert!(t.off_chip.is_empty(), "communication must stay on chip");
        assert_eq!(t.intra_chip.len(), 1);
        assert_eq!(
            t.intra_chip.records()[0].class,
            IntraChipClass::CoherencePeerL1
        );
    }

    #[test]
    fn l2_supplies_replacement_miss() {
        // Fill core 0's tiny L1 (4KB = 64 blocks) past capacity; re-read an
        // early block: L1 miss, L2 hit, no coherence involved.
        let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
        for i in 0..128u64 {
            sim.access(&read(0, i * 64));
        }
        sim.access(&read(0, 0));
        let t = sim.finish(100);
        let last = t.intra_chip.records().last().unwrap();
        assert_eq!(last.class, IntraChipClass::ReplacementL2);
        // Off-chip trace saw only the 128 compulsory fills.
        assert_eq!(t.off_chip.len(), 128);
    }

    #[test]
    fn coherence_after_owner_eviction_is_coherence_l2() {
        // Core 1 writes, core 1's L1 evicts the dirty block into L2; core
        // 0's subsequent read is coherence-caused but supplied by L2.
        let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
        sim.access(&read(0, 0x40)); // core 0 has read the block
        sim.access(&write(1, 0x40)); // core 1 dirties it
        for i in 1..=128u64 {
            // Evict core 1's dirty copy into the L2.
            sim.access(&read(1, 0x40 + i * 64));
        }
        sim.access(&read(0, 0x40));
        let t = sim.finish(100);
        let last = t.intra_chip.records().last().unwrap();
        assert_eq!(last.class, IntraChipClass::CoherenceL2);
        // Still nothing coherence-related off chip.
        assert!(t
            .off_chip
            .records()
            .iter()
            .all(|r| r.class != MissClass::Coherence));
    }

    #[test]
    fn off_chip_never_coherence() {
        // Random-ish mix of reads and writes by both cores over a footprint
        // larger than the small L2.
        let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
        for i in 0..4000u64 {
            let cpu = (i % 2) as u32;
            let addr = (i * 97 % 3000) * 64;
            if i % 3 == 0 {
                sim.access(&write(cpu, addr));
            } else {
                sim.access(&read(cpu, addr));
            }
        }
        let t = sim.finish(100);
        assert!(t
            .off_chip
            .records()
            .iter()
            .all(|r| r.class != MissClass::Coherence));
    }

    #[test]
    fn dma_then_read_is_io_coherence_off_chip() {
        let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
        sim.access(&read(0, 0x40));
        sim.access(&dma(0x40));
        sim.access(&read(0, 0x40));
        let t = sim.finish(100);
        assert_eq!(t.off_chip.len(), 2);
        assert_eq!(t.off_chip.records()[1].class, MissClass::IoCoherence);
    }

    #[test]
    fn copyout_then_read_is_io_coherence() {
        let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
        sim.access(&read(1, 0x80));
        sim.access(&copyout(0x80));
        sim.access(&read(1, 0x80));
        let t = sim.finish(100);
        assert_eq!(t.off_chip.records()[1].class, MissClass::IoCoherence);
    }

    #[test]
    fn l1_victims_land_in_l2() {
        let mut sim = SingleChipSim::new(SingleChipConfig::small(1));
        // Touch 65 blocks mapping everywhere; block 0 gets evicted from the
        // 64-block L1 eventually but must hit in L2.
        for i in 0..128u64 {
            sim.access(&read(0, i * 64));
        }
        sim.access(&read(0, 0));
        let t = sim.finish(100);
        assert_eq!(t.off_chip.len(), 128, "re-read must not go off chip");
    }

    #[test]
    fn write_hit_keeps_ownership() {
        let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
        sim.access(&write(0, 0x40));
        sim.access(&write(0, 0x40));
        sim.access(&read(1, 0x40));
        let t = sim.finish(100);
        assert_eq!(
            t.intra_chip.records()[0].class,
            IntraChipClass::CoherencePeerL1
        );
    }

    #[test]
    fn traces_share_instruction_count() {
        let mut sim = SingleChipSim::new(SingleChipConfig::small(1));
        sim.access(&read(0, 0));
        let t = sim.finish(5000);
        assert_eq!(t.off_chip.instructions(), 5000);
        assert_eq!(t.intra_chip.instructions(), 5000);
    }

    #[test]
    fn owner_is_never_stale_after_evictions() {
        // Regression for the stale-owner audit: drive enough traffic to
        // evict owning lines repeatedly; the table-tracked owner must
        // always point at an L1 that actually holds the block.
        let mut sim = SingleChipSim::new(SingleChipConfig::small(2));
        for i in 0..2000u64 {
            let cpu = (i % 2) as u32;
            let addr = (i * 131 % 500) * 64;
            if i % 5 == 0 {
                sim.access(&write(cpu, addr));
            } else {
                sim.access(&read(cpu, addr));
            }
            // The owner query itself debug_asserts L1 residency inside
            // read(); here we check the exposed accessor directly.
            let block = Block::new(addr / 64);
            if let Some(o) = sim.owner(block) {
                assert!((o as usize) < 2);
            }
        }
    }
}
