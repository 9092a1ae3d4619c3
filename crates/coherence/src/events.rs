//! Protocol-activity tallies shared by both simulators.
//!
//! The simulators are single-threaded on their hot path, so these are
//! plain `u64` fields bumped inline; [`export`](CoherenceEvents::export)
//! copies them into an observability registry at the end of a run.

use tempstream_obsv::Registry;

/// Counts of coherence-protocol activity observed during a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoherenceEvents {
    /// Remote copies invalidated by writes.
    pub invalidations: u64,
    /// Dirty victims written back on eviction.
    pub writebacks: u64,
    /// Misses supplied by a remote/peer cache instead of memory.
    pub supplies: u64,
    /// DMA/copy-out invalidation rounds.
    pub io_invalidates: u64,
}

impl CoherenceEvents {
    /// Adds the counts to `registry` under `{prefix}/events/...`.
    pub fn export(&self, registry: &Registry, prefix: &str) {
        registry
            .counter(&format!("{prefix}/events/invalidations"))
            .add(self.invalidations);
        registry
            .counter(&format!("{prefix}/events/writebacks"))
            .add(self.writebacks);
        registry
            .counter(&format!("{prefix}/events/supplies"))
            .add(self.supplies);
        registry
            .counter(&format!("{prefix}/events/io_invalidates"))
            .add(self.io_invalidates);
    }
}

/// How the simulator answered its reads: the hits that returned after
/// the cache lookup alone, and the reads that consulted the block's
/// record (every miss).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReadPaths {
    /// Reads answered by a cache hit without probing the block record.
    pub(crate) silent_hits: u64,
    /// Reads that probed the block record.
    pub(crate) probed: u64,
}

impl ReadPaths {
    /// Adds the counts to `registry` under `{prefix}/reads/...`.
    pub(crate) fn export(&self, registry: &Registry, prefix: &str) {
        registry
            .counter(&format!("{prefix}/reads/silent_hits"))
            .add(self.silent_hits);
        registry
            .counter(&format!("{prefix}/reads/probed"))
            .add(self.probed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_writes_all_four_counters() {
        let r = Registry::new();
        let e = CoherenceEvents {
            invalidations: 3,
            writebacks: 2,
            supplies: 1,
            io_invalidates: 4,
        };
        e.export(&r, "sim/x");
        assert_eq!(r.counter("sim/x/events/invalidations").get(), 3);
        assert_eq!(r.counter("sim/x/events/writebacks").get(), 2);
        assert_eq!(r.counter("sim/x/events/supplies").get(), 1);
        assert_eq!(r.counter("sim/x/events/io_invalidates").get(), 4);
    }
}
