//! The 16-node distributed-shared-memory multiprocessor model.
//!
//! Each node has a private 64 KB 2-way L1 and a private 8 MB 16-way L2; an
//! MSI write-invalidate protocol keeps them coherent (paper §3). Because
//! every cache is private to its node, every local L2 miss crosses the
//! interconnect — it is an **off-chip** miss, classified by the
//! [`BlockHistory`] rules and appended to the output trace.
//!
//! Coherence state is tracked at node granularity by a [`ProtocolTable`]
//! running the declarative [`MSI`] table: the node hierarchy is inclusive
//! (an L2 victim back-invalidates the L1), so "node holds a valid MSI
//! state" and "block is in the node's L2" are the same predicate — which
//! the simulator `debug_assert!`s at every step. The same table is
//! model-checked exhaustively by `tempstream-checker`.
//!
//! A block's history and its per-node MSI states live in one 32-byte
//! `BlockRecord` in a [`BlockTable`]. A read that hits the node's L1 or
//! L2 returns without touching it: a local read at a valid node changes
//! no node's state, and a valid copy implies the reader's history mark
//! is already set, so there is nothing to record. Only misses, writes
//! and device writes probe the record.
//!
//! Every off-chip read miss is counted by class; its record is stored
//! only while the trace is under the record limit (unlimited unless
//! [`MultiChipSim::set_record_limit`] lowers it), since the analyses
//! read at most a prefix of the trace.

use crate::block_table::BlockTable;
use crate::events::{CoherenceEvents, ReadPaths};
use crate::history::BlockHistory;
use crate::protocol::{Action, BlockStates, Event, MsiState, ProtocolState, ProtocolTable, MSI};
use crate::recorder::Recorder;
use tempstream_cache::{CacheConfig, SetAssocCache};
use tempstream_obsv::Registry;
use tempstream_trace::{AccessKind, Block, MemoryAccess, MissClass, MissRecord, MissTrace};

/// Configuration of the multi-chip system.
#[derive(Debug, Clone, Copy)]
pub struct MultiChipConfig {
    /// Number of single-processor nodes.
    pub nodes: u32,
    /// Per-node L1 data cache geometry.
    pub l1: CacheConfig,
    /// Per-node L2 cache geometry.
    pub l2: CacheConfig,
}

impl MultiChipConfig {
    /// The paper's system: 16 nodes, 64 KB 2-way L1, 8 MB 16-way L2.
    pub fn paper() -> Self {
        MultiChipConfig {
            nodes: 16,
            l1: CacheConfig::paper_l1(),
            l2: CacheConfig::paper_l2(),
        }
    }

    /// A reduced-scale configuration for fast tests.
    pub fn small(nodes: u32) -> Self {
        MultiChipConfig {
            nodes,
            l1: CacheConfig::new(4 * 1024, 2),
            l2: CacheConfig::new(64 * 1024, 16),
        }
    }
}

struct Node {
    l1: SetAssocCache<()>,
    l2: SetAssocCache<()>,
}

/// Everything the simulator knows about one block. Kept for every block
/// ever accessed (the history must outlive residency); `states` is
/// blank while no node holds the block, and a never-accessed block's
/// record is all blank.
#[derive(Debug, Clone, Copy, Default)]
struct BlockRecord {
    history: BlockHistory,
    states: BlockStates<MsiState>,
}

/// Trace-driven simulator of the multi-chip system.
///
/// Feed accesses with [`access`](Self::access); collect the off-chip miss
/// trace with [`finish`](Self::finish).
///
/// # Example
///
/// ```
/// use tempstream_coherence::{MultiChipConfig, MultiChipSim};
/// use tempstream_trace::prelude::*;
///
/// let mut sim = MultiChipSim::new(MultiChipConfig::small(2));
/// let f = FunctionId::new(0);
/// sim.access(&MemoryAccess::read(Address::new(0x100), CpuId::new(0), f));
/// sim.access(&MemoryAccess::read(Address::new(0x100), CpuId::new(0), f));
/// let trace = sim.finish(1000);
/// assert_eq!(trace.len(), 1); // second read hits in L1
/// assert_eq!(trace.records()[0].class, MissClass::Compulsory);
/// ```
pub struct MultiChipSim {
    config: MultiChipConfig,
    nodes: Vec<Node>,
    /// The declarative [`MSI`] table, the only thing that advances the
    /// per-node states. It tracks sharers exactly: it observes every
    /// fill, write, eviction, and I/O invalidate as an event.
    protocol: ProtocolTable<MsiState>,
    blocks: BlockTable<BlockRecord>,
    trace: Recorder<MissClass>,
    recording: bool,
    events: CoherenceEvents,
    reads: ReadPaths,
}

impl MultiChipSim {
    /// Creates a simulator with cold caches.
    ///
    /// # Panics
    ///
    /// Panics if `config.nodes` is zero or greater than 32.
    pub fn new(config: MultiChipConfig) -> Self {
        assert!(
            (1..=32).contains(&config.nodes),
            "node count must be in 1..=32"
        );
        MultiChipSim {
            nodes: (0..config.nodes)
                .map(|_| Node {
                    l1: SetAssocCache::new(config.l1),
                    l2: SetAssocCache::new(config.l2),
                })
                .collect(),
            protocol: ProtocolTable::new(&MSI, config.nodes),
            blocks: BlockTable::default(),
            trace: Recorder::new(config.nodes),
            recording: true,
            events: CoherenceEvents::default(),
            reads: ReadPaths::default(),
            config,
        }
    }

    /// Enables or disables miss recording. With recording off, accesses
    /// still update caches and history (cache warmup, matching the paper's
    /// warm-before-trace methodology), but no records are appended.
    pub fn set_recording(&mut self, recording: bool) {
        self.recording = recording;
    }

    /// Stores at most `limit` miss records; misses past it are still
    /// counted by [`miss_count`](Self::miss_count) and
    /// [`class_counts`](Self::class_counts), so the stored trace is the
    /// first `limit` records of the full one.
    pub fn set_record_limit(&mut self, limit: usize) {
        self.trace.set_limit(limit);
    }

    /// The system configuration.
    pub fn config(&self) -> &MultiChipConfig {
        &self.config
    }

    /// Number of off-chip read misses recorded so far, stored or not.
    pub fn miss_count(&self) -> usize {
        self.trace.total() as usize
    }

    /// Off-chip read misses recorded so far per class, stored or not,
    /// in [`MissClass::ALL`] order.
    pub fn class_counts(&self) -> [u64; 4] {
        self.trace.counts()
    }

    /// Protocol-activity counts accumulated so far.
    pub fn events(&self) -> CoherenceEvents {
        self.events
    }

    /// Exports miss-class counters, protocol-event counters, read-path
    /// counters, and cache-occupancy and block-table gauges into
    /// `registry` under `prefix` (e.g. `sim/apache/multi_chip`). Call
    /// before [`finish`](Self::finish).
    pub fn export_obsv(&self, registry: &Registry, prefix: &str) {
        for (class, n) in MissClass::ALL.iter().zip(self.trace.counts()) {
            registry
                .counter(&format!("{prefix}/miss_class/{class:?}"))
                .add(n);
        }
        registry
            .counter(&format!("{prefix}/misses"))
            .add(self.trace.total());
        self.events.export(registry, prefix);
        self.reads.export(registry, prefix);
        registry
            .gauge(&format!("{prefix}/block_table/bytes"))
            .set(self.blocks.bytes());
        let l1: u64 = self.nodes.iter().map(|n| n.l1.len() as u64).sum();
        let l2: u64 = self.nodes.iter().map(|n| n.l2.len() as u64).sum();
        registry
            .gauge(&format!("{prefix}/occupancy/l1_blocks"))
            .set(l1);
        registry
            .gauge(&format!("{prefix}/occupancy/l2_blocks"))
            .set(l2);
    }

    /// Simulates one memory access.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the access names a CPU outside the
    /// configured node range.
    pub fn access(&mut self, a: &MemoryAccess) {
        let block = a.block();
        match a.kind {
            AccessKind::Read => self.read(a, block),
            AccessKind::Write => self.write(a.cpu.raw(), block),
            AccessKind::DmaWrite => self.invalidate_all(block).record_dma_write(),
            AccessKind::CopyoutWrite => self.invalidate_all(block).record_copyout_write(),
        }
    }

    /// Simulates every access of `iter`.
    pub fn run<'a, I: IntoIterator<Item = &'a MemoryAccess>>(&mut self, iter: I) {
        for a in iter {
            self.access(a);
        }
    }

    /// Finalizes the off-chip miss trace (the stored records), attaching
    /// the instruction count over which it was collected.
    pub fn finish(self, instructions: u64) -> MissTrace<MissClass> {
        self.trace.finish(instructions)
    }

    fn read(&mut self, a: &MemoryAccess, block: Block) {
        let n = a.cpu.index();
        let node = a.cpu.raw();
        debug_assert!(n < self.nodes.len(), "cpu {n} out of range");
        // Differential hook: the inclusive hierarchy makes "valid MSI
        // state" and "present in L2" the same predicate.
        debug_assert_eq!(
            self.blocks.get(block).states.state(node).is_valid(),
            self.nodes[n].l2.contains(block),
            "node MSI state out of sync with L2 residency"
        );
        let l1_hit = self.nodes[n].l1.touch(block).is_some();
        if l1_hit || self.nodes[n].l2.touch(block).is_some() {
            if !l1_hit {
                // L2 hit: fill the L1. Not an off-chip miss. The L1
                // victim (if any) remains in the inclusive L2 — no
                // protocol event.
                self.nodes[n].l1.insert(block, ());
            }
            // Silent hit: neither the states nor the history change.
            if cfg!(debug_assertions) {
                let rec = self.blocks.get(block);
                debug_assert!(
                    self.protocol.read_hit_is_silent(rec.states, node),
                    "read hit at node {node} is not a silent table Hit"
                );
                debug_assert!(
                    rec.history.read_since_write(node),
                    "read hit at node {node} without its history mark"
                );
            }
            self.reads.silent_hits += 1;
            return;
        }
        self.reads.probed += 1;
        let rec = self.blocks.get_mut(block);
        // Off-chip miss: classify from history, then fill both levels.
        if self.recording {
            self.trace.record(MissRecord {
                block,
                cpu: a.cpu,
                thread: a.thread,
                function: a.function,
                class: rec.history.classify_read(node),
            });
        }
        rec.history.record_read(node);
        // Table step: requester I -> S; a remote M node (if any) supplies
        // the data and downgrades to S. Its cached copies stay valid.
        let out = self.protocol.step(&mut rec.states, node, Event::LocalRead);
        debug_assert_eq!(out.local.action, Action::Fill);
        debug_assert!(out.invalidated.is_empty(), "a read never invalidates");
        debug_assert!(
            out.supplier
                .is_none_or(|s| self.nodes[s as usize].l2.contains(block)),
            "supplier node does not hold the block"
        );
        if out.supplier.is_some() {
            self.events.supplies += 1;
        }
        self.fill_node(n, block);
    }

    /// Installs `block` in node `n`'s L2 and L1, back-invalidating the L1
    /// copy of any L2 victim to preserve inclusion (the victim eviction is
    /// a protocol event of its own).
    fn fill_node(&mut self, n: usize, block: Block) {
        if let Some((victim, ())) = self.nodes[n].l2.insert(block, ()) {
            self.nodes[n].l1.invalidate(victim);
            let rec = self.blocks.get_mut(victim);
            let out = self.protocol.step(&mut rec.states, n as u32, Event::Evict);
            debug_assert!(
                matches!(out.local.action, Action::None | Action::WritebackVictim),
                "L2 eviction of a valid line is silent (S) or a writeback (M)"
            );
            if out.local.action == Action::WritebackVictim {
                self.events.writebacks += 1;
            }
        }
        // The L1 victim (if any) remains in the inclusive L2.
        self.nodes[n].l1.insert(block, ());
    }

    fn write(&mut self, node_id: u32, block: Block) {
        // Table step: writer -> M; every valid remote copy is invalidated.
        let rec = self.blocks.get_mut(block);
        let out = self
            .protocol
            .step(&mut rec.states, node_id, Event::LocalWrite);
        rec.history.record_write(node_id);
        self.events.invalidations += out.invalidated.len() as u64;
        for r in out.invalidated {
            self.nodes[r as usize].l1.invalidate(block);
            self.nodes[r as usize].l2.invalidate(block);
        }
        // Write-allocate in the writer's hierarchy.
        let n = node_id as usize;
        match out.local.action {
            Action::InvalidateSharers => {
                if self.nodes[n].l2.touch(block).is_none() {
                    self.fill_node(n, block);
                } else if self.nodes[n].l1.touch(block).is_none() {
                    self.nodes[n].l1.insert(block, ());
                }
            }
            Action::Hit => {
                // Write hit in M: inclusion guarantees the L2 copy.
                debug_assert!(
                    self.nodes[n].l2.contains(block),
                    "M-state write hit outside the L2"
                );
                self.nodes[n].l2.touch(block);
                if self.nodes[n].l1.touch(block).is_none() {
                    self.nodes[n].l1.insert(block, ());
                }
            }
            other => debug_assert!(false, "unexpected write action {other:?}"),
        }
        // Differential hook: nodes the table did not invalidate must not
        // hold the block.
        debug_assert!((0..self.config.nodes).all(|r| {
            r == node_id
                || out.invalidated.contains(r)
                || !self.nodes[r as usize].l2.contains(block)
        }));
    }

    /// Invalidates every node's copy of `block` for a device write and
    /// returns the block's history for the caller to record the write.
    fn invalidate_all(&mut self, block: Block) -> &mut BlockHistory {
        self.events.io_invalidates += 1;
        let rec = self.blocks.get_mut(block);
        for r in self.protocol.step_io_invalidate(&mut rec.states) {
            self.nodes[r as usize].l1.invalidate(block);
            self.nodes[r as usize].l2.invalidate(block);
        }
        // Differential hook: after an I/O invalidate no node may hold the
        // block.
        debug_assert!(self
            .nodes
            .iter()
            .all(|node| !node.l1.contains(block) && !node.l2.contains(block)));
        &mut rec.history
    }
}

impl tempstream_trace::sink::AccessSink for MultiChipSim {
    fn access(&mut self, access: &MemoryAccess) {
        MultiChipSim::access(self, access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempstream_trace::{Address, CpuId, FunctionId};

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
            tempstream_trace::ThreadId::new(0),
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
    fn hits_are_silent_and_misses_probe() {
        let mut sim = MultiChipSim::new(MultiChipConfig::small(2));
        sim.access(&read(0, 0x1000)); // miss
        sim.access(&read(0, 0x1000)); // L1 hit
        sim.access(&write(0, 0x1000)); // writes are not reads
        sim.access(&read(0, 0x1000)); // L1 hit in M
        sim.access(&read(1, 0x1000)); // remote miss
        assert_eq!(
            sim.reads,
            ReadPaths {
                silent_hits: 2,
                probed: 2
            }
        );
    }

    #[test]
    fn cold_miss_then_hits() {
        let mut sim = MultiChipSim::new(MultiChipConfig::small(2));
        sim.access(&read(0, 0x1000));
        sim.access(&read(0, 0x1000));
        sim.access(&read(0, 0x1010)); // same block
        let t = sim.finish(100);
        assert_eq!(t.len(), 1);
        assert_eq!(t.records()[0].class, MissClass::Compulsory);
    }

    #[test]
    fn remote_write_invalidates_and_classifies_coherence() {
        let mut sim = MultiChipSim::new(MultiChipConfig::small(2));
        sim.access(&read(0, 0x1000)); // compulsory at node 0
        sim.access(&write(1, 0x1000)); // node 1 takes ownership
        sim.access(&read(0, 0x1000)); // coherence miss at node 0
        let t = sim.finish(100);
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[1].class, MissClass::Coherence);
    }

    #[test]
    fn producer_reread_is_not_coherence() {
        let mut sim = MultiChipSim::new(MultiChipConfig::small(2));
        sim.access(&write(1, 0x1000));
        sim.access(&read(1, 0x1000)); // hits: write-allocated
        let t = sim.finish(100);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn dma_invalidate_gives_io_coherence() {
        let mut sim = MultiChipSim::new(MultiChipConfig::small(2));
        sim.access(&read(0, 0x2000));
        sim.access(&dma(0x2000));
        sim.access(&read(0, 0x2000));
        let t = sim.finish(100);
        assert_eq!(t.len(), 2);
        assert_eq!(t.records()[1].class, MissClass::IoCoherence);
    }

    #[test]
    fn capacity_eviction_gives_replacement() {
        // Small config: L2 = 64KB = 1024 blocks. Touch 2048 distinct blocks
        // then re-touch the first: it must have been evicted.
        let mut sim = MultiChipSim::new(MultiChipConfig::small(1));
        for i in 0..2048u64 {
            sim.access(&read(0, i * 64));
        }
        sim.access(&read(0, 0));
        let t = sim.finish(100);
        assert_eq!(t.len(), 2049);
        let last = t.records().last().unwrap();
        assert_eq!(last.class, MissClass::Replacement);
    }

    #[test]
    fn sharing_readers_all_miss_once() {
        let mut sim = MultiChipSim::new(MultiChipConfig::small(4));
        for cpu in 0..4 {
            sim.access(&read(cpu, 0x4000));
        }
        let t = sim.finish(100);
        // One compulsory then three coherence-or-replacement misses: the
        // block was never written, so reads by other nodes are replacement
        // (remote fetch of clean data).
        assert_eq!(t.len(), 4);
        assert_eq!(t.records()[0].class, MissClass::Compulsory);
        for r in &t.records()[1..] {
            assert_eq!(r.class, MissClass::Replacement);
        }
    }

    #[test]
    fn migratory_sharing_pattern() {
        // A lock-like block bouncing between nodes: every handoff is a
        // coherence miss.
        let mut sim = MultiChipSim::new(MultiChipConfig::small(4));
        sim.access(&write(0, 0x8000));
        for round in 1..=6u32 {
            let cpu = round % 4;
            sim.access(&read(cpu, 0x8000));
            sim.access(&write(cpu, 0x8000));
        }
        let t = sim.finish(100);
        assert_eq!(t.len(), 6);
        assert!(t.records().iter().all(|r| r.class == MissClass::Coherence));
    }

    #[test]
    fn mpki_uses_instruction_count() {
        let mut sim = MultiChipSim::new(MultiChipConfig::small(1));
        sim.access(&read(0, 0));
        let t = sim.finish(2000);
        assert!((t.misses_per_kilo_instruction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn l2_eviction_back_invalidates_l1() {
        // Inclusive hierarchy: when a block leaves the L2, the L1 copy
        // goes with it, and the MSI state returns to Invalid (otherwise
        // the engine would see a stale sharer and over-invalidate).
        let mut sim = MultiChipSim::new(MultiChipConfig::small(2));
        for i in 0..2048u64 {
            sim.access(&read(0, i * 64));
        }
        // Block 0 was evicted from node 0's L2, so node 0 must be Invalid
        // in the table and a remote write finds no sharer to invalidate
        // (a stale sharer would trip the residency debug_assert on the
        // next read). The re-read still classifies as Coherence —
        // history-based classification is deliberately cache-independent.
        sim.access(&write(1, 0));
        sim.access(&read(0, 0));
        let t = sim.finish(100);
        let last = t.records().last().unwrap();
        assert_eq!(last.class, MissClass::Coherence);
    }
}
