//! Cache-independent per-block access history for miss classification.
//!
//! The paper's classification (§4.1) is defined in terms of *history*, not
//! cache state: a miss is Coherence "if the cache block was written by
//! another processor since last read at this processor", I/O Coherence "if
//! the block was written by a DMA transfer or OS-to-user bulk memory copy",
//! and Compulsory "if the corresponding cache block has never previously
//! been accessed". [`HistoryTracker`] records exactly that per-block
//! history ([`BlockHistory`], one per block), parameterized by the
//! *agent* granularity:
//!
//! - multi-chip off-chip classification: one agent per node;
//! - single-chip off-chip classification: a single agent (the chip) — which
//!   is why non-I/O coherence misses never appear off chip in a CMP;
//! - single-chip intra-chip classification: one agent per core.

use tempstream_fxhash::FxHashMap;
use tempstream_trace::{Block, MissClass};

/// The most recent writer of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Writer {
    /// A processor-agent store. Agents are below 64, so a byte holds the
    /// id and a [`BlockHistory`] packs into 16 bytes.
    Agent(u8),
    /// A DMA transfer from an I/O device.
    Dma,
    /// A bulk kernel-to-user copy with non-allocating stores.
    Copyout,
}

/// One block's read/write history: everything the classification rules
/// need about the block, for up to 64 agents.
///
/// The simulators keep one of these per block inside their own per-block
/// record, so an access probes one table; [`HistoryTracker`] is the same
/// history keyed by block. A coarser granularity that merges every agent
/// into one is a pure function of a finer one: see [`fold`](Self::fold).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockHistory {
    last_writer: Option<Writer>,
    /// Bit `a` set: agent `a` has read the block since the last write.
    read_since_write: u64,
    /// A processor has ever loaded or stored the block. Blocks only ever
    /// written by devices are still *compulsory* on first read: the
    /// paper's I/O-coherence category covers previously-used blocks
    /// invalidated by DMA or bulk copies, not first touches of fresh I/O
    /// data.
    cpu_accessed: bool,
}

impl BlockHistory {
    /// Classifies a read *miss* by `agent` (below 64).
    ///
    /// Call before [`record_read`](Self::record_read) for the same access.
    /// Classification priority: Compulsory, then I/O Coherence, then
    /// Coherence, then Replacement.
    pub fn classify_read(&self, agent: u32) -> MissClass {
        debug_assert!(agent < 64);
        if !self.cpu_accessed {
            return MissClass::Compulsory;
        }
        if self.read_since_write & (1 << agent) == 0 {
            match self.last_writer {
                Some(Writer::Dma) | Some(Writer::Copyout) => return MissClass::IoCoherence,
                Some(Writer::Agent(w)) if u32::from(w) != agent => return MissClass::Coherence,
                _ => {}
            }
        }
        MissClass::Replacement
    }

    /// Whether `agent`'s read mark is set: it has read the block, or
    /// written it itself, since the last write by anyone else.
    pub fn read_since_write(&self, agent: u32) -> bool {
        debug_assert!(agent < 64);
        self.read_since_write & (1 << agent) != 0
    }

    /// The same history with every agent merged into agent 0: what a
    /// tracker with one agent (e.g. a whole chip) would have recorded
    /// from the same accesses. The merged agent has read since the last
    /// write exactly when any agent has (a write leaves the writer's mark
    /// set, a device write clears every mark), and a processor writer
    /// becomes agent 0.
    pub fn fold(&self) -> BlockHistory {
        BlockHistory {
            last_writer: match self.last_writer {
                Some(Writer::Agent(_)) => Some(Writer::Agent(0)),
                w => w,
            },
            read_since_write: u64::from(self.read_since_write != 0),
            cpu_accessed: self.cpu_accessed,
        }
    }

    /// Records a read by `agent`.
    pub fn record_read(&mut self, agent: u32) {
        debug_assert!(agent < 64);
        self.read_since_write |= 1 << agent;
        self.cpu_accessed = true;
    }

    /// Records a store by `agent`: all other agents' read marks are
    /// cleared; the writer itself holds the current data.
    pub fn record_write(&mut self, agent: u32) {
        debug_assert!(agent < 64);
        self.last_writer = Some(Writer::Agent(agent as u8));
        self.read_since_write = 1 << agent;
        self.cpu_accessed = true;
    }

    /// Records a DMA write: every agent's read mark is cleared.
    pub fn record_dma_write(&mut self) {
        self.last_writer = Some(Writer::Dma);
        self.read_since_write = 0;
    }

    /// Records a non-allocating bulk-copy (copyout) store: every agent's
    /// read mark is cleared.
    pub fn record_copyout_write(&mut self) {
        self.last_writer = Some(Writer::Copyout);
        self.read_since_write = 0;
    }
}

/// Tracks per-block read/write history and classifies read misses.
///
/// The block map hashes with the in-tree seedless [`FxHashMap`] —
/// block numbers are simulator-generated, never attacker-controlled,
/// and the map is only ever probed by key, never iterated, so hash
/// order cannot leak into results.
#[derive(Debug, Clone)]
pub struct HistoryTracker {
    num_agents: u32,
    blocks: FxHashMap<Block, BlockHistory>,
}

impl HistoryTracker {
    /// Creates a tracker for `num_agents` coherence agents.
    ///
    /// # Panics
    ///
    /// Panics if `num_agents` is zero or greater than 64 (the read-bit
    /// mask width).
    pub fn new(num_agents: u32) -> Self {
        assert!(
            (1..=64).contains(&num_agents),
            "agent count must be in 1..=64"
        );
        HistoryTracker {
            num_agents,
            blocks: FxHashMap::default(),
        }
    }

    /// Number of coherence agents.
    pub fn num_agents(&self) -> u32 {
        self.num_agents
    }

    /// Number of distinct blocks ever accessed.
    pub fn footprint_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Classifies a read *miss* by `agent` to `block`; see
    /// [`BlockHistory::classify_read`].
    pub fn classify_read(&self, agent: u32, block: Block) -> MissClass {
        debug_assert!(agent < self.num_agents);
        self.blocks
            .get(&block)
            .map_or(MissClass::Compulsory, |h| h.classify_read(agent))
    }

    /// Records a read by `agent`.
    pub fn record_read(&mut self, agent: u32, block: Block) {
        debug_assert!(agent < self.num_agents);
        self.blocks.entry(block).or_default().record_read(agent);
    }

    /// Records a store by `agent`: all other agents' read marks are
    /// cleared; the writer itself holds the current data.
    pub fn record_write(&mut self, agent: u32, block: Block) {
        debug_assert!(agent < self.num_agents);
        self.blocks.entry(block).or_default().record_write(agent);
    }

    /// Records a DMA write: every agent's read mark is cleared.
    pub fn record_dma_write(&mut self, block: Block) {
        self.blocks.entry(block).or_default().record_dma_write();
    }

    /// Records a non-allocating bulk-copy (copyout) store: every agent's
    /// read mark is cleared.
    pub fn record_copyout_write(&mut self, block: Block) {
        self.blocks.entry(block).or_default().record_copyout_write();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: Block = Block::new(42);

    #[test]
    fn block_history_is_16_bytes() {
        // Every simulated block keeps one for the whole run, so its size
        // is the history's memory footprint.
        assert_eq!(std::mem::size_of::<BlockHistory>(), 16);
    }

    #[test]
    fn first_access_is_compulsory() {
        let t = HistoryTracker::new(4);
        assert_eq!(t.classify_read(0, B), MissClass::Compulsory);
    }

    #[test]
    fn reread_after_own_read_is_replacement() {
        let mut t = HistoryTracker::new(4);
        t.record_read(0, B);
        assert_eq!(t.classify_read(0, B), MissClass::Replacement);
    }

    #[test]
    fn remote_write_makes_coherence() {
        let mut t = HistoryTracker::new(4);
        t.record_read(0, B);
        t.record_write(1, B);
        assert_eq!(t.classify_read(0, B), MissClass::Coherence);
        // The writer itself re-reading is not a coherence miss.
        assert_eq!(t.classify_read(1, B), MissClass::Replacement);
    }

    #[test]
    fn cold_sharing_is_coherence() {
        // First access by this agent to a block another agent created is a
        // coherence miss per the paper's rule (the block *has* been
        // accessed, and was written by another processor).
        let mut t = HistoryTracker::new(4);
        t.record_write(1, B);
        assert_eq!(t.classify_read(0, B), MissClass::Coherence);
    }

    #[test]
    fn read_clears_coherence_for_that_agent_only() {
        let mut t = HistoryTracker::new(4);
        t.record_write(1, B);
        t.record_read(0, B);
        assert_eq!(t.classify_read(0, B), MissClass::Replacement);
        assert_eq!(t.classify_read(2, B), MissClass::Coherence);
    }

    #[test]
    fn dma_and_copyout_are_io_coherence() {
        let mut t = HistoryTracker::new(2);
        t.record_read(0, B);
        t.record_dma_write(B);
        assert_eq!(t.classify_read(0, B), MissClass::IoCoherence);
        t.record_read(0, B);
        t.record_copyout_write(B);
        assert_eq!(t.classify_read(0, B), MissClass::IoCoherence);
        assert_eq!(t.classify_read(1, B), MissClass::IoCoherence);
    }

    #[test]
    fn first_read_of_fresh_io_data_is_compulsory() {
        // A block only ever written by a device has never been processor-
        // accessed: its first read is a cold miss, not I/O coherence.
        let mut t = HistoryTracker::new(2);
        t.record_dma_write(B);
        assert_eq!(t.classify_read(0, B), MissClass::Compulsory);
        t.record_read(0, B);
        t.record_dma_write(B);
        assert_eq!(t.classify_read(0, B), MissClass::IoCoherence);
    }

    #[test]
    fn io_write_then_read_then_reread_is_replacement() {
        let mut t = HistoryTracker::new(2);
        t.record_dma_write(B);
        t.record_read(0, B);
        assert_eq!(t.classify_read(0, B), MissClass::Replacement);
        // Agent 1 never read since the write, and the block has been
        // processor-accessed: I/O coherence.
        assert_eq!(t.classify_read(1, B), MissClass::IoCoherence);
    }

    #[test]
    fn single_agent_never_sees_cpu_coherence() {
        // Chip-granularity classification: with one agent, only Compulsory,
        // IoCoherence, and Replacement are reachable.
        let mut t = HistoryTracker::new(1);
        assert_eq!(t.classify_read(0, B), MissClass::Compulsory);
        t.record_write(0, B);
        assert_eq!(t.classify_read(0, B), MissClass::Replacement);
        t.record_dma_write(B);
        assert_eq!(t.classify_read(0, B), MissClass::IoCoherence);
    }

    #[test]
    fn write_after_io_supersedes() {
        let mut t = HistoryTracker::new(2);
        t.record_read(0, B);
        t.record_dma_write(B);
        t.record_write(1, B);
        assert_eq!(t.classify_read(0, B), MissClass::Coherence);
    }

    #[test]
    fn footprint_counts_unique_blocks() {
        let mut t = HistoryTracker::new(2);
        t.record_read(0, Block::new(1));
        t.record_read(1, Block::new(1));
        t.record_write(0, Block::new(2));
        assert_eq!(t.footprint_blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "agent count")]
    fn rejects_too_many_agents() {
        HistoryTracker::new(65);
    }
}
