//! Memory-system simulators producing the paper's classified read-miss
//! traces.
//!
//! Three *system contexts* are modeled (paper §3):
//!
//! - [`multi_chip::MultiChipSim`] — a 16-node distributed-shared-memory
//!   multiprocessor (per node: 64 KB 2-way L1, 8 MB 16-way L2, MSI
//!   write-invalidate coherence). Every local L2 miss is an **off-chip**
//!   miss.
//! - [`single_chip::SingleChipSim`] — a 4-core CMP (per core 64 KB 2-way
//!   L1, shared 8 MB 16-way L2, MOSI intra-chip protocol modeled on
//!   Piranha, non-inclusive hierarchy). It produces two traces: **off-chip**
//!   misses (L2 misses) and **intra-chip** misses (L1 misses satisfied on
//!   chip, classified by cause and responder).
//!
//! Both protocols are *declarative*: [`protocol::MSI`] and
//! [`protocol::MOSI`] express states, events, and guarded transitions as
//! static tables, and the simulators advance coherence state only through
//! the table-driven [`protocol::ProtocolTable`]. The `tempstream-checker`
//! crate model-checks the same tables exhaustively (SWMR, single owner,
//! inclusion/non-inclusion consistency, no stuck states, total coverage),
//! and `debug_assert!` hooks in the simulators cross-check cache residency
//! against the table state on every access.
//!
//! Miss-cause classification implements the paper's "4 C's"-style rules via
//! a cache-independent per-block [`history::BlockHistory`]; see
//! [`MissClass`](tempstream_trace::MissClass) for the rules.

mod block_table;
pub mod events;
pub mod history;
pub mod multi_chip;
pub mod protocol;
mod recorder;
pub mod single_chip;

pub use events::CoherenceEvents;
pub use history::{BlockHistory, HistoryTracker};
pub use multi_chip::{MultiChipConfig, MultiChipSim};
pub use protocol::{
    Action, AgentSet, ApplyOutcome, BlockStates, Event, MosiState, MsiState, ProtocolSpec,
    ProtocolState, ProtocolTable, Transition, MOSI, MSI,
};
pub use single_chip::{SingleChipConfig, SingleChipSim};

// The parallel runtime runs simulators on pool workers; keep the bounds
// checked here so a non-Send field is caught at its source.
tempstream_trace::assert_send_sync!(
    MultiChipConfig,
    MultiChipSim,
    SingleChipConfig,
    SingleChipSim,
    single_chip::SingleChipTraces,
);
