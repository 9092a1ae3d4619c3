//! Declarative coherence-protocol transition tables and the table-driven
//! engine both simulators run on.
//!
//! The MSI (multi-chip, paper §3) and MOSI (single-chip Piranha-style,
//! paper §3) protocols are expressed as *data*: per-block cache states,
//! events, and guarded transitions in [`ProtocolSpec`] tables ([`MSI`],
//! [`MOSI`]). The simulators do not hard-code any state logic — they feed
//! events into a [`ProtocolTable`] that looks every step up in the table,
//! and they act on the returned [`Action`]s (who to invalidate, who
//! supplies data, whether a victim writes back). The `tempstream-checker`
//! crate model-checks the same tables exhaustively, so the traces the
//! paper's figures are built from and the statically verified protocol can
//! never drift apart.
//!
//! Every `(state, event)` pair is either an explicit [`Transition`] or an
//! explicit entry in [`ProtocolSpec::impossible`]; the engine panics on a
//! table hole, and the checker proves reachable executions never hit an
//! impossible pair.
//!
//! # Example
//!
//! ```
//! use tempstream_coherence::protocol::{Event, MosiState, MOSI};
//!
//! // A modified line snooped by a peer read degrades to Owned.
//! let t = MOSI.transition(MosiState::M, Event::RemoteRead).unwrap();
//! assert_eq!(t.to, MosiState::O);
//! ```

use std::fmt;
use std::hash::Hash;
use std::marker::PhantomData;

/// Coherence events, from the perspective of one cache and one block.
///
/// `Local*` events are issued by the cache's own processor; `Remote*`
/// events are induced at every other cache by a peer's local event;
/// `Evict` is a capacity/conflict victimization of a *valid* line;
/// `IoInvalidate` models DMA and copyout writes that invalidate every
/// cached copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// The local processor reads the block.
    LocalRead,
    /// The local processor writes the block.
    LocalWrite,
    /// Another cache's processor reads the block.
    RemoteRead,
    /// Another cache's processor writes the block.
    RemoteWrite,
    /// The cache evicts its (valid) copy of the block.
    Evict,
    /// A DMA or copyout write invalidates every cached copy.
    IoInvalidate,
}

impl Event {
    /// Every event, in table order.
    pub const ALL: [Event; 6] = [
        Event::LocalRead,
        Event::LocalWrite,
        Event::RemoteRead,
        Event::RemoteWrite,
        Event::Evict,
        Event::IoInvalidate,
    ];
}

/// The memory-system side effect a transition demands.
///
/// The simulators translate these into cache-structure mutations; the
/// model checker translates them into ghost-state updates of the shared
/// L2 / backing memory, which is how the non-inclusion and data-loss
/// invariants are phrased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// No data movement (e.g. a remote event this cache ignores).
    None,
    /// Local access satisfied by the cache's own copy.
    Hit,
    /// Local miss: fill from a peer, the next level, or memory.
    Fill,
    /// Local write: every peer copy and any stale next-level copy is
    /// invalidated.
    InvalidateSharers,
    /// This cache supplies its (owned) data to the requester.
    SupplyToPeer,
    /// Dirty victim: the data must be written back to the next level.
    WritebackVictim,
    /// Clean victim installed in the next level (non-inclusive victim
    /// path of the single-chip hierarchy).
    InstallVictim,
    /// Copy dropped because a device overwrote the block.
    Invalidate,
}

/// One guarded row of a protocol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition<S: 'static> {
    /// State the cache holds the block in before the event.
    pub from: S,
    /// The observed event.
    pub event: Event,
    /// State after the event.
    pub to: S,
    /// Required memory-system side effect.
    pub action: Action,
}

/// A complete protocol description: states, transitions, and the
/// explicitly-impossible `(state, event)` pairs.
#[derive(Debug)]
pub struct ProtocolSpec<S: 'static> {
    /// Human-readable protocol name.
    pub name: &'static str,
    /// Every per-cache state, `initial` first.
    pub states: &'static [S],
    /// State of a block a cache has never loaded.
    pub initial: S,
    /// Every legal transition.
    pub transitions: &'static [Transition<S>],
    /// `(state, event)` pairs that must never occur in any reachable
    /// execution (the checker proves this; the engine panics on them).
    pub impossible: &'static [(S, Event)],
}

impl<S: ProtocolState> ProtocolSpec<S> {
    /// Looks up the transition for `(state, event)`, or `None` if the
    /// pair is declared impossible.
    ///
    /// # Panics
    ///
    /// Panics if the pair is neither handled nor declared impossible —
    /// a malformed table. (`tempstream-checker` verifies totality
    /// statically, so a released table never panics here.)
    pub fn transition(&self, state: S, event: Event) -> Option<&'static Transition<S>> {
        if let Some(t) = self
            .transitions
            .iter()
            .find(|t| t.from == state && t.event == event)
        {
            return Some(t);
        }
        assert!(
            self.impossible.contains(&(state, event)),
            "{} table hole: ({state:?}, {event:?}) is neither handled nor declared impossible",
            self.name
        );
        None
    }
}

/// Behavior every per-cache protocol state exposes to the generic engine
/// and checker.
pub trait ProtocolState: Copy + Eq + Hash + fmt::Debug + 'static {
    /// The cache holds a usable copy (any state but Invalid).
    fn is_valid(self) -> bool;
    /// The cache is responsible for the latest data (M or O).
    fn is_owner(self) -> bool;
    /// The cache may write without a bus transaction (M).
    fn is_writable(self) -> bool;
    /// Dense index of the state within `ProtocolSpec::states`.
    fn index(self) -> usize;
    /// The state at dense index `index`; the inverse of
    /// [`index`](Self::index).
    ///
    /// # Panics
    ///
    /// Panics if `index` names no state.
    fn from_index(index: usize) -> Self;
}

/// MSI per-node states of the multi-chip protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsiState {
    /// Not present in the node's hierarchy.
    I,
    /// Clean shared copy, consistent with memory.
    S,
    /// Modified: the only copy; memory is stale.
    M,
}

impl ProtocolState for MsiState {
    fn is_valid(self) -> bool {
        self != MsiState::I
    }
    fn is_owner(self) -> bool {
        self == MsiState::M
    }
    fn is_writable(self) -> bool {
        self == MsiState::M
    }
    fn index(self) -> usize {
        self as usize
    }
    fn from_index(index: usize) -> Self {
        [MsiState::I, MsiState::S, MsiState::M][index]
    }
}

/// MOSI per-core L1 states of the single-chip (Piranha-style) protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosiState {
    /// Not present in this core's L1.
    I,
    /// Clean shared copy.
    S,
    /// Owned: dirty, shared; this L1 supplies peer reads.
    O,
    /// Modified: dirty, exclusive.
    M,
}

impl ProtocolState for MosiState {
    fn is_valid(self) -> bool {
        self != MosiState::I
    }
    fn is_owner(self) -> bool {
        matches!(self, MosiState::O | MosiState::M)
    }
    fn is_writable(self) -> bool {
        self == MosiState::M
    }
    fn index(self) -> usize {
        self as usize
    }
    fn from_index(index: usize) -> Self {
        [MosiState::I, MosiState::S, MosiState::O, MosiState::M][index]
    }
}

use Action::{Fill, Hit, InstallVictim, InvalidateSharers, SupplyToPeer, WritebackVictim};

macro_rules! t {
    ($from:expr, $ev:ident, $to:expr, $act:expr) => {
        Transition {
            from: $from,
            event: Event::$ev,
            to: $to,
            action: $act,
        }
    };
}

/// The multi-chip MSI write-invalidate protocol (paper §3), node
/// granularity: one state per 16-node hierarchy (L1+L2 inclusive).
///
/// A remote read of a Modified line downgrades it to Shared and writes
/// the data back, so Shared copies are always memory-consistent.
pub static MSI: ProtocolSpec<MsiState> = {
    use MsiState::{I, M, S};
    ProtocolSpec {
        name: "MSI",
        states: &[I, S, M],
        initial: I,
        transitions: &[
            t!(I, LocalRead, S, Fill),
            t!(S, LocalRead, S, Hit),
            t!(M, LocalRead, M, Hit),
            t!(I, LocalWrite, M, InvalidateSharers),
            t!(S, LocalWrite, M, InvalidateSharers),
            t!(M, LocalWrite, M, Hit),
            t!(I, RemoteRead, I, Action::None),
            t!(S, RemoteRead, S, Action::None),
            t!(M, RemoteRead, S, SupplyToPeer),
            t!(I, RemoteWrite, I, Action::None),
            t!(S, RemoteWrite, I, Action::Invalidate),
            t!(M, RemoteWrite, I, SupplyToPeer),
            t!(S, Evict, I, Action::None),
            t!(M, Evict, I, WritebackVictim),
            t!(I, IoInvalidate, I, Action::None),
            t!(S, IoInvalidate, I, Action::Invalidate),
            t!(M, IoInvalidate, I, Action::Invalidate),
        ],
        impossible: &[(I, Event::Evict)],
    }
};

/// The single-chip MOSI intra-chip protocol modeled on Piranha (paper
/// §3), core granularity: one state per L1; the shared L2 is the next
/// level.
///
/// A dirty line is supplied core-to-core on a peer read (M → O at the
/// owner); victims — clean or dirty — are installed into the
/// non-inclusive L2.
pub static MOSI: ProtocolSpec<MosiState> = {
    use MosiState::{I, M, O, S};
    ProtocolSpec {
        name: "MOSI",
        states: &[I, S, O, M],
        initial: I,
        transitions: &[
            t!(I, LocalRead, S, Fill),
            t!(S, LocalRead, S, Hit),
            t!(O, LocalRead, O, Hit),
            t!(M, LocalRead, M, Hit),
            t!(I, LocalWrite, M, InvalidateSharers),
            t!(S, LocalWrite, M, InvalidateSharers),
            t!(O, LocalWrite, M, InvalidateSharers),
            t!(M, LocalWrite, M, Hit),
            t!(I, RemoteRead, I, Action::None),
            t!(S, RemoteRead, S, Action::None),
            t!(O, RemoteRead, O, SupplyToPeer),
            t!(M, RemoteRead, O, SupplyToPeer),
            t!(I, RemoteWrite, I, Action::None),
            t!(S, RemoteWrite, I, Action::Invalidate),
            t!(O, RemoteWrite, I, SupplyToPeer),
            t!(M, RemoteWrite, I, SupplyToPeer),
            t!(S, Evict, I, InstallVictim),
            t!(O, Evict, I, WritebackVictim),
            t!(M, Evict, I, WritebackVictim),
            t!(I, IoInvalidate, I, Action::None),
            t!(S, IoInvalidate, I, Action::Invalidate),
            t!(O, IoInvalidate, I, Action::Invalidate),
            t!(M, IoInvalidate, I, Action::Invalidate),
        ],
        impossible: &[(I, Event::Evict)],
    }
};

/// A set of agents (caches) as a bitmask: agent `i` is bit `i`.
///
/// The engine supports at most 32 agents, so a set is one `u32` and
/// reporting it never allocates. Iteration yields agents in ascending
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct AgentSet(u32);

impl AgentSet {
    /// The empty set.
    pub const EMPTY: AgentSet = AgentSet(0);

    /// Whether `agent` is a member.
    pub fn contains(self, agent: u32) -> bool {
        agent < 32 && self.0 & (1 << agent) != 0
    }

    /// Number of members.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set has no members.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The members, in ascending order.
    pub fn iter(self) -> AgentSetIter {
        AgentSetIter(self.0)
    }
}

impl IntoIterator for AgentSet {
    type Item = u32;
    type IntoIter = AgentSetIter;

    fn into_iter(self) -> AgentSetIter {
        self.iter()
    }
}

/// Ascending iterator over an [`AgentSet`].
#[derive(Debug, Clone)]
pub struct AgentSetIter(u32);

impl Iterator for AgentSetIter {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let agent = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(agent)
    }
}

/// Result of applying a local event: the local transition taken plus the
/// peers whose copies the event invalidated.
#[derive(Debug)]
pub struct ApplyOutcome<S: 'static> {
    /// The transition the acting cache took.
    pub local: &'static Transition<S>,
    /// Peers that went from valid to invalid (the simulator must drop
    /// their cached lines).
    pub invalidated: AgentSet,
    /// The peer that supplied the data, if any (it held M or O).
    pub supplier: Option<u32>,
}

/// One block's per-agent protocol states, packed into 16 bytes: no
/// allocation per block. Agent `i`'s state index
/// ([`ProtocolState::index`]) is bits `2i..2i + 2` of `states`, and bit
/// `i` of `valid` is set exactly when that state is valid. Index 0 is
/// the spec's `initial` state ([`ProtocolTable::new`] checks this), so
/// the all-zero [`Default`] value is a block no agent has loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockStates<S> {
    states: u64,
    valid: u32,
    _state: PhantomData<S>,
}

impl<S> Default for BlockStates<S> {
    fn default() -> Self {
        BlockStates {
            states: 0,
            valid: 0,
            _state: PhantomData,
        }
    }
}

impl<S: ProtocolState> BlockStates<S> {
    /// The dense state index `agent` holds the block in.
    fn index(&self, agent: u32) -> usize {
        (self.states >> (2 * agent) & 3) as usize
    }

    /// The state `agent` holds the block in.
    pub fn state(&self, agent: u32) -> S {
        S::from_index(self.index(agent))
    }

    /// The agents holding a valid copy.
    pub fn valid(&self) -> AgentSet {
        AgentSet(self.valid)
    }

    /// The agent owning the block (M or O state), if any.
    pub fn owner(&self) -> Option<u32> {
        self.valid().iter().find(|&i| self.state(i).is_owner())
    }

    /// Whether any agent other than `agent` holds a valid copy.
    pub fn other_valid(&self, agent: u32) -> bool {
        self.valid & !(1 << agent) != 0
    }

    fn set(&mut self, agent: u32, state: S) {
        let shift = 2 * agent;
        self.states = self.states & !(3 << shift) | (state.index() as u64) << shift;
        if state.is_valid() {
            self.valid |= 1 << agent;
        } else {
            self.valid &= !(1 << agent);
        }
    }
}

/// A [`ProtocolSpec`] compiled for a fixed number of agents: the rules
/// that advance one block's [`BlockStates`].
///
/// [`new`](Self::new) resolves every `(state, event)` pair of the spec
/// once into a dense table, so a step is an index, not a scan of the
/// transition rows, and a table hole fails at construction. An induced
/// event (a peer's remote read or write, or an I/O invalidate) visits
/// only the agents holding a valid copy when the table itself makes
/// that event a no-op in `initial` (`(initial, e) → (initial, None)`);
/// otherwise it visits every agent.
#[derive(Debug)]
pub struct ProtocolTable<S: ProtocolState> {
    spec: &'static ProtocolSpec<S>,
    agents: u32,
    /// `table[state.index() * Event::ALL.len() + event as usize]`;
    /// `None` for a pair the spec declares impossible.
    table: Box<[Option<&'static Transition<S>>]>,
    /// Per event: agents in `initial` may be skipped because the table
    /// maps `(initial, event)` to `(initial, Action::None)`.
    skip_initial: [bool; Event::ALL.len()],
}

impl<S: ProtocolState> ProtocolTable<S> {
    /// Compiles `spec` for `agents` caches.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is zero or greater than 32, if the spec has a
    /// table hole (a `(state, event)` pair neither handled nor declared
    /// impossible), if it has more than four states (a [`BlockStates`]
    /// packs two bits per agent), if a state's [`ProtocolState::index`]
    /// is not its position in `spec.states` or
    /// [`ProtocolState::from_index`] does not invert it, if `initial` is
    /// not listed first (index 0 is the blank state), or if `initial` is
    /// not the spec's only invalid state (the valid mask stands for every
    /// other agent).
    pub fn new(spec: &'static ProtocolSpec<S>, agents: u32) -> Self {
        assert!((1..=32).contains(&agents), "agent count must be in 1..=32");
        assert!(
            spec.states.len() <= 4,
            "{}: a block packs two bits per agent, so at most four states",
            spec.name
        );
        assert_eq!(
            spec.initial.index(),
            0,
            "{}: the initial state must be listed first",
            spec.name
        );
        let mut table = Vec::with_capacity(spec.states.len() * Event::ALL.len());
        for (i, &s) in spec.states.iter().enumerate() {
            assert_eq!(s.index(), i, "{}: {s:?} index out of order", spec.name);
            assert_eq!(S::from_index(i), s, "{}: from_index({i})", spec.name);
            assert_eq!(
                s.is_valid(),
                s != spec.initial,
                "{}: the initial state must be the only invalid state",
                spec.name
            );
            for e in Event::ALL {
                table.push(spec.transition(s, e));
            }
        }
        let skip_initial = Event::ALL.map(|e| {
            spec.transition(spec.initial, e)
                .is_some_and(|t| t.to == spec.initial && t.action == Action::None)
        });
        ProtocolTable {
            spec,
            agents,
            table: table.into_boxed_slice(),
            skip_initial,
        }
    }

    /// The transition for the state at dense index `state` under
    /// `event`, or `None` if the pair is declared impossible.
    /// `Event::ALL` lists the events in declaration order, so
    /// `event as usize` is its position.
    fn lookup(&self, state: usize, event: Event) -> Option<&'static Transition<S>> {
        self.table[state * Event::ALL.len() + event as usize]
    }

    /// The agents an induced `event` must visit besides the valid ones:
    /// none when the table makes `event` a no-op in `initial`, else all.
    fn idle_agents(&self, event: Event) -> u32 {
        if self.skip_initial[event as usize] {
            0
        } else {
            u32::MAX >> (32 - self.agents)
        }
    }

    /// Applies `event` at `agent` and the induced remote event at every
    /// other agent of block `b`, all by table lookup.
    ///
    /// # Panics
    ///
    /// Panics if the table declares any implied `(state, event)` pair
    /// impossible — i.e. the simulator drove the protocol into a state
    /// the tables forbid.
    pub fn step(&self, b: &mut BlockStates<S>, agent: u32, event: Event) -> ApplyOutcome<S> {
        debug_assert!(agent < self.agents);
        let remote = match event {
            Event::LocalRead => Some(Event::RemoteRead),
            Event::LocalWrite => Some(Event::RemoteWrite),
            Event::Evict | Event::IoInvalidate => None,
            Event::RemoteRead | Event::RemoteWrite => {
                panic!("remote events are induced, not applied directly")
            }
        };
        let local = self.lookup(b.index(agent), event).unwrap_or_else(|| {
            panic!(
                "{}: ({:?}, {event:?}) at agent {agent} is declared impossible",
                self.spec.name,
                b.state(agent)
            )
        });
        b.set(agent, local.to);
        let mut invalidated = AgentSet::EMPTY;
        let mut supplier = None;
        if let Some(remote) = remote {
            for i in AgentSet((b.valid | self.idle_agents(remote)) & !(1 << agent)) {
                let t = self
                    .lookup(b.index(i), remote)
                    .expect("remote events must be total over all states");
                if t.action == Action::SupplyToPeer {
                    debug_assert!(supplier.is_none(), "two suppliers for one block");
                    supplier = Some(i);
                }
                if t.from.is_valid() && !t.to.is_valid() {
                    invalidated.0 |= 1 << i;
                }
                b.set(i, t.to);
            }
        }
        ApplyOutcome {
            local,
            invalidated,
            supplier,
        }
    }

    /// Whether an [`Event::LocalRead`] at `agent` is a silent hit on
    /// `b`: the local transition is a `Hit` and no agent's state changes.
    /// A peer may still report itself as supplier (an Owned line under
    /// MOSI); a hit ignores that. Steps a copy, so `b` is untouched.
    pub fn read_hit_is_silent(&self, b: BlockStates<S>, agent: u32) -> bool {
        let mut after = b;
        let out = self.step(&mut after, agent, Event::LocalRead);
        out.local.action == Action::Hit && after == b
    }

    /// Applies an [`Event::IoInvalidate`] to every agent of block `b`,
    /// returning the agents that held valid copies.
    pub fn step_io_invalidate(&self, b: &mut BlockStates<S>) -> AgentSet {
        let mut dropped = AgentSet::EMPTY;
        for i in AgentSet(b.valid | self.idle_agents(Event::IoInvalidate)) {
            let t = self
                .lookup(b.index(i), Event::IoInvalidate)
                .expect("IoInvalidate must be total over all states");
            if t.from.is_valid() && !t.to.is_valid() {
                dropped.0 |= 1 << i;
            }
            b.set(i, t.to);
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_total() {
        for s in MSI.states {
            for e in Event::ALL {
                let handled = MSI.transitions.iter().any(|t| t.from == *s && t.event == e);
                let imp = MSI.impossible.contains(&(*s, e));
                assert!(handled ^ imp, "MSI ({s:?}, {e:?}) coverage");
            }
        }
        for s in MOSI.states {
            for e in Event::ALL {
                let handled = MOSI
                    .transitions
                    .iter()
                    .any(|t| t.from == *s && t.event == e);
                let imp = MOSI.impossible.contains(&(*s, e));
                assert!(handled ^ imp, "MOSI ({s:?}, {e:?}) coverage");
            }
        }
    }

    #[test]
    fn event_discriminants_follow_all() {
        // The dense table indexes events by `event as usize`.
        for (i, e) in Event::ALL.into_iter().enumerate() {
            assert_eq!(e as usize, i, "{e:?}");
        }
    }

    #[test]
    fn agent_set_iterates_ascending() {
        let set = AgentSet(1 << 31 | 1 << 5 | 1);
        assert_eq!(set.len(), 3);
        assert!(set.contains(31) && set.contains(0) && !set.contains(1));
        assert!(!set.contains(32));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 5, 31]);
        assert!(AgentSet::EMPTY.is_empty());
    }

    #[test]
    fn blank_states_are_initial_and_pack_into_16_bytes() {
        assert_eq!(std::mem::size_of::<BlockStates<MsiState>>(), 16);
        assert_eq!(std::mem::size_of::<BlockStates<MosiState>>(), 16);
        let b = BlockStates::<MosiState>::default();
        assert!((0..32).all(|a| b.state(a) == MOSI.initial));
        assert!(b.valid().is_empty() && b.owner().is_none());
    }

    #[test]
    fn states_round_trip_through_their_index() {
        for &s in MSI.states {
            assert_eq!(MsiState::from_index(s.index()), s);
        }
        for &s in MOSI.states {
            assert_eq!(MosiState::from_index(s.index()), s);
        }
    }

    #[test]
    fn msi_write_invalidates_sharers() {
        let t = ProtocolTable::new(&MSI, 4);
        let mut b = BlockStates::default();
        t.step(&mut b, 0, Event::LocalRead);
        t.step(&mut b, 1, Event::LocalRead);
        let out = t.step(&mut b, 2, Event::LocalWrite);
        assert_eq!(out.invalidated.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(b.state(2), MsiState::M);
        assert_eq!(b.owner(), Some(2));
    }

    #[test]
    fn mosi_peer_read_downgrades_owner() {
        let t = ProtocolTable::new(&MOSI, 4);
        let mut b = BlockStates::default();
        t.step(&mut b, 0, Event::LocalWrite);
        assert_eq!(b.state(0), MosiState::M);
        let out = t.step(&mut b, 1, Event::LocalRead);
        assert_eq!(out.supplier, Some(0));
        assert_eq!(b.state(0), MosiState::O);
        assert_eq!(b.state(1), MosiState::S);
        assert_eq!(b.owner(), Some(0));
    }

    #[test]
    fn top_agent_packs_into_the_high_bits() {
        // Agent 31 uses bits 62..64: a write there must neither spill
        // into agent 30 nor lose its own state.
        let t = ProtocolTable::new(&MOSI, 32);
        let mut b = BlockStates::default();
        t.step(&mut b, 30, Event::LocalRead);
        t.step(&mut b, 31, Event::LocalRead);
        assert_eq!(b.valid().iter().collect::<Vec<_>>(), vec![30, 31]);
        let out = t.step(&mut b, 31, Event::LocalWrite);
        assert_eq!(out.invalidated.iter().collect::<Vec<_>>(), vec![30]);
        assert_eq!(b.state(31), MosiState::M);
        assert_eq!(b.state(30), MosiState::I);
        assert!(!b.other_valid(31) && b.other_valid(0));
    }

    #[test]
    fn owner_eviction_clears_ownership() {
        let t = ProtocolTable::new(&MOSI, 2);
        let mut b = BlockStates::default();
        t.step(&mut b, 0, Event::LocalWrite);
        let out = t.step(&mut b, 0, Event::Evict);
        assert_eq!(out.local.action, Action::WritebackVictim);
        assert_eq!(b.owner(), None);
        assert_eq!(b.state(0), MosiState::I);
    }

    #[test]
    fn all_invalid_entries_are_dropped() {
        let t = ProtocolTable::new(&MOSI, 2);
        let mut b = BlockStates::default();
        t.step(&mut b, 0, Event::LocalRead);
        assert!(!b.valid().is_empty());
        t.step(&mut b, 0, Event::Evict);
        assert_eq!(b, BlockStates::default(), "all-invalid block is blank");
        assert_eq!(t.step_io_invalidate(&mut b), AgentSet::EMPTY);
    }

    #[test]
    fn io_invalidate_drops_every_copy() {
        let t = ProtocolTable::new(&MSI, 3);
        let mut b = BlockStates::default();
        t.step(&mut b, 0, Event::LocalRead);
        t.step(&mut b, 1, Event::LocalRead);
        assert_eq!(
            t.step_io_invalidate(&mut b).iter().collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(b, BlockStates::default());
    }

    #[test]
    #[should_panic(expected = "impossible")]
    fn evicting_invalid_line_panics() {
        let t = ProtocolTable::new(&MSI, 2);
        t.step(&mut BlockStates::default(), 0, Event::Evict);
    }
}
