//! Miss recording shared by both simulators.
//!
//! The analyses read at most a fixed prefix of each trace, while the
//! class breakdowns and miss totals cover every miss. A [`Recorder`]
//! serves both: it counts every miss it is handed by class, and stores
//! the record only while its trace is shorter than the record limit.
//!
//! A limited trace that reaches [`RESERVE_REST_AT`] records reserves the
//! rest of its limit in one allocation instead of doubling its way up.
//! Each doubling copies the records into a new buffer, and the buffers
//! left behind stay resident as free heap space. At paper scale every
//! trace passes that length and 1.5 M records is 36 MB; letting the
//! traces double put the median peak RSS of `reproduce all --jobs 2` at
//! 333 MiB against 303 MiB with the reservation (2-core host, 7 runs
//! each). Smoke- and quick-scale traces never reach it, so they reserve
//! nothing up front.

use tempstream_trace::{IntraChipClass, MissClass, MissRecord, MissTrace};

/// A four-way miss classification with a dense index (its position in
/// the class's `ALL` array, the order the breakdowns count in).
pub(crate) trait Class: Copy {
    fn index(self) -> usize;
}

impl Class for MissClass {
    fn index(self) -> usize {
        MissClass::index(self)
    }
}

impl Class for IntraChipClass {
    fn index(self) -> usize {
        IntraChipClass::index(self)
    }
}

/// Stored records at which a trace with a finite limit reserves the rest
/// of it (2^17 records, 3 MB).
pub(crate) const RESERVE_REST_AT: usize = 1 << 17;

/// A miss trace that counts every miss but stores at most `limit`
/// records: the stored records are always a prefix of the full trace.
#[derive(Debug)]
pub(crate) struct Recorder<C> {
    trace: MissTrace<C>,
    counts: [u64; 4],
    limit: usize,
}

impl<C: Class> Recorder<C> {
    /// An empty, unlimited recorder for a `num_cpus`-processor system.
    pub(crate) fn new(num_cpus: u32) -> Self {
        Recorder {
            trace: MissTrace::new(num_cpus),
            counts: [0; 4],
            limit: usize::MAX,
        }
    }

    /// Stores at most `limit` records from now on.
    pub(crate) fn set_limit(&mut self, limit: usize) {
        self.limit = limit;
    }

    /// Counts `record`, and stores it while under the limit.
    #[inline]
    pub(crate) fn record(&mut self, record: MissRecord<C>) {
        self.counts[record.class.index()] += 1;
        let len = self.trace.len();
        if len < self.limit {
            if len == RESERVE_REST_AT && self.limit != usize::MAX {
                // Best effort: if the allocation fails, doubling goes on.
                let _ = self.trace.try_reserve_exact(self.limit - len);
            }
            self.trace.push(record);
        }
    }

    /// Misses counted per class, in the class's `ALL` order.
    pub(crate) fn counts(&self) -> [u64; 4] {
        self.counts
    }

    /// Every miss counted, stored or not.
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The stored records, with the instruction count attached.
    pub(crate) fn finish(mut self, instructions: u64) -> MissTrace<C> {
        self.trace.set_instructions(instructions);
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempstream_trace::{Block, CpuId, FunctionId, ThreadId};

    fn miss<C>(block: u64, class: C) -> MissRecord<C> {
        MissRecord {
            block: Block::new(block),
            cpu: CpuId::new(0),
            thread: ThreadId::new(0),
            function: FunctionId::new(0),
            class,
        }
    }

    #[test]
    fn stores_a_prefix_and_counts_everything() {
        let classes = [
            MissClass::Coherence,
            MissClass::Compulsory,
            MissClass::Coherence,
            MissClass::Replacement,
            MissClass::IoCoherence,
            MissClass::Coherence,
        ];
        let mut capped = Recorder::new(1);
        capped.set_limit(2);
        let mut full = Recorder::new(1);
        for (i, &c) in classes.iter().enumerate() {
            capped.record(miss(i as u64, c));
            full.record(miss(i as u64, c));
        }
        assert_eq!(capped.counts(), full.counts());
        assert_eq!(capped.counts(), [1, 1, 1, 3]); // MissClass::ALL order
        assert_eq!(capped.total(), 6);
        let (capped, full) = (capped.finish(10), full.finish(10));
        assert_eq!(capped.records(), &full.records()[..2]);
        assert_eq!(capped.instructions(), 10);
    }

    #[test]
    fn reserving_the_rest_keeps_the_prefix() {
        let limit = RESERVE_REST_AT + 10;
        let mut capped = Recorder::new(1);
        capped.set_limit(limit);
        let mut full = Recorder::new(1);
        for i in 0..limit as u64 + 20 {
            let class = MissClass::ALL[i as usize % 4];
            capped.record(miss(i, class));
            full.record(miss(i, class));
        }
        assert_eq!(capped.counts(), full.counts());
        let (capped, full) = (capped.finish(0), full.finish(0));
        assert_eq!(capped.len(), limit);
        assert_eq!(capped.records(), &full.records()[..limit]);
    }

    #[test]
    fn counts_intra_chip_classes_past_the_limit() {
        let mut r = Recorder::new(1);
        r.set_limit(0);
        for c in IntraChipClass::ALL {
            r.record(miss(0, c));
        }
        r.record(miss(1, IntraChipClass::OffChip));
        assert_eq!(r.counts(), [2, 1, 1, 1]);
        assert_eq!(r.total(), 5);
        assert!(r.finish(0).is_empty());
    }
}
