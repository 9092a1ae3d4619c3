//! Read-miss records and miss traces.
//!
//! A [`MissTrace`] is the artifact the paper's entire analysis consumes: an
//! ordered sequence of classified read misses, plus the instruction count
//! over which it was collected (for the misses-per-1000-instructions axis of
//! Figure 1).

use crate::addr::Block;
use crate::category::{IntraChipClass, MissClass};
use crate::ids::{CpuId, FunctionId, ThreadId};

/// One classified read miss.
///
/// The classification type `C` is [`MissClass`] for off-chip traces and
/// [`IntraChipClass`] for intra-chip traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MissRecord<C> {
    /// The missing cache block.
    pub block: Block,
    /// The processor that observed the miss.
    pub cpu: CpuId,
    /// The software thread running at the miss.
    pub thread: ThreadId,
    /// The enclosing function at the miss.
    pub function: FunctionId,
    /// The miss classification.
    pub class: C,
}

/// An off-chip read-miss record.
pub type OffChipMiss = MissRecord<MissClass>;

/// An intra-chip (L1) read-miss record.
pub type IntraChipMiss = MissRecord<IntraChipClass>;

/// An ordered trace of classified read misses.
#[derive(Debug, Clone, Default)]
pub struct MissTrace<C> {
    records: Vec<MissRecord<C>>,
    instructions: u64,
    num_cpus: u32,
}

impl<C: Copy> MissTrace<C> {
    /// Creates an empty trace for a `num_cpus`-processor system.
    pub fn new(num_cpus: u32) -> Self {
        MissTrace {
            records: Vec::new(),
            instructions: 0,
            num_cpus,
        }
    }

    /// Appends a miss record.
    pub fn push(&mut self, record: MissRecord<C>) {
        debug_assert!(record.cpu.raw() < self.num_cpus, "cpu out of range");
        self.records.push(record);
    }

    /// Tries to reserve room for exactly `additional` more misses (see
    /// [`Vec::try_reserve_exact`]); on failure the trace is unchanged.
    pub fn try_reserve_exact(
        &mut self,
        additional: usize,
    ) -> Result<(), std::collections::TryReserveError> {
        self.records.try_reserve_exact(additional)
    }

    /// Sets the number of instructions executed while collecting the trace.
    pub fn set_instructions(&mut self, instructions: u64) {
        self.instructions = instructions;
    }

    /// Instructions executed while the trace was collected.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Number of processors in the traced system.
    pub fn num_cpus(&self) -> u32 {
        self.num_cpus
    }

    /// Number of misses in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace holds no misses.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The miss records, in trace order.
    pub fn records(&self) -> &[MissRecord<C>] {
        &self.records
    }

    /// Iterates over miss records in trace order.
    pub fn iter(&self) -> std::slice::Iter<'_, MissRecord<C>> {
        self.records.iter()
    }

    /// Misses per 1000 executed instructions (the Figure 1 y-axis).
    ///
    /// Returns 0.0 if the instruction count was never set.
    pub fn misses_per_kilo_instruction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.records.len() as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Per-CPU miss counts, indexed by CPU id.
    pub fn per_cpu_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.num_cpus as usize];
        for r in &self.records {
            counts[r.cpu.index()] += 1;
        }
        counts
    }

    /// The block-address sequence of the trace (the SEQUITUR input).
    pub fn block_sequence(&self) -> Vec<Block> {
        self.records.iter().map(|r| r.block).collect()
    }
}

impl<C: Copy + Eq + std::hash::Hash> MissTrace<C> {
    /// Histogram of miss classes, as (class, count) pairs in first-seen order.
    pub fn class_histogram(&self) -> Vec<(C, u64)> {
        let mut order: Vec<C> = Vec::new();
        let mut counts: std::collections::HashMap<C, u64> = std::collections::HashMap::new();
        for r in &self.records {
            if !counts.contains_key(&r.class) {
                order.push(r.class);
            }
            *counts.entry(r.class).or_insert(0) += 1;
        }
        order.into_iter().map(|c| (c, counts[&c])).collect()
    }

    /// Count of misses with the given class.
    pub fn count_class(&self, class: C) -> u64 {
        self.records.iter().filter(|r| r.class == class).count() as u64
    }
}

impl<C: Copy> Extend<MissRecord<C>> for MissTrace<C> {
    fn extend<T: IntoIterator<Item = MissRecord<C>>>(&mut self, iter: T) {
        for r in iter {
            self.push(r);
        }
    }
}

impl<'a, C> IntoIterator for &'a MissTrace<C> {
    type Item = &'a MissRecord<C>;
    type IntoIter = std::slice::Iter<'a, MissRecord<C>>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::category::MissClass as MC;

    fn rec(block: u64, cpu: u32, class: MC) -> OffChipMiss {
        MissRecord {
            block: Block::new(block),
            cpu: CpuId::new(cpu),
            thread: ThreadId::new(cpu),
            function: FunctionId::new(0),
            class,
        }
    }

    #[test]
    fn push_and_counts() {
        let mut t = MissTrace::new(2);
        t.push(rec(1, 0, MC::Compulsory));
        t.push(rec(2, 1, MC::Coherence));
        t.push(rec(1, 1, MC::Coherence));
        assert_eq!(t.len(), 3);
        assert_eq!(t.per_cpu_counts(), vec![1, 2]);
        assert_eq!(t.count_class(MC::Coherence), 2);
        assert_eq!(t.count_class(MC::Replacement), 0);
    }

    #[test]
    fn mpki() {
        let mut t: MissTrace<MC> = MissTrace::new(1);
        assert_eq!(t.misses_per_kilo_instruction(), 0.0);
        t.push(rec(1, 0, MC::Compulsory));
        t.push(rec(2, 0, MC::Compulsory));
        t.set_instructions(1000);
        assert!((t.misses_per_kilo_instruction() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_orders_by_first_seen() {
        let mut t = MissTrace::new(1);
        t.push(rec(1, 0, MC::Replacement));
        t.push(rec(2, 0, MC::Compulsory));
        t.push(rec(3, 0, MC::Replacement));
        let h = t.class_histogram();
        assert_eq!(h, vec![(MC::Replacement, 2), (MC::Compulsory, 1)]);
    }

    #[test]
    fn block_sequence_preserves_order() {
        let mut t = MissTrace::new(1);
        for b in [5u64, 3, 5, 9] {
            t.push(rec(b, 0, MC::Compulsory));
        }
        let seq: Vec<u64> = t.block_sequence().iter().map(|b| b.raw()).collect();
        assert_eq!(seq, vec![5, 3, 5, 9]);
    }

    #[test]
    fn extend_and_into_iter() {
        let mut t = MissTrace::new(1);
        t.extend([rec(1, 0, MC::Compulsory), rec(2, 0, MC::Compulsory)]);
        let blocks: Vec<u64> = (&t).into_iter().map(|r| r.block.raw()).collect();
        assert_eq!(blocks, vec![1, 2]);
    }
}
