//! Generic breadth-first exploration of a protocol model's configuration
//! space, with minimal-witness reconstruction and table-coverage tracking.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use crate::{CheckReport, Violation};
use tempstream_coherence::protocol::{Action, Event, ProtocolSpec, ProtocolState, Transition};

/// One enabled step out of a configuration.
pub struct Step<C> {
    /// Human-readable event label, used in witness traces.
    pub label: String,
    /// The configuration the step leads to.
    pub next: C,
    /// `(state index, event)` table rows the step exercised.
    pub fired: Vec<(usize, Event)>,
}

/// A finite protocol model the checker can explore exhaustively: the
/// per-cache states of one block across N caches plus the ghost state
/// (L2 presence / memory freshness) the data invariants are phrased over.
pub trait Model {
    /// One global configuration.
    type Config: Clone + Eq + Hash + fmt::Debug;

    /// Name of the protocol table under check.
    fn protocol_name(&self) -> &'static str;
    /// Number of caches in the model.
    fn agents(&self) -> u32;
    /// The cold-start configuration.
    fn initial(&self) -> Self::Config;
    /// Every enabled step out of `cfg`. Steps whose table lookups fail
    /// are omitted here and reported by [`violations`](Self::violations).
    fn steps(&self, cfg: &Self::Config) -> Vec<Step<Self::Config>>;
    /// Invariant violations of `cfg` itself, as `(invariant, detail)`.
    fn violations(&self, cfg: &Self::Config) -> Vec<(String, String)>;
    /// Indices of the per-cache states present in `cfg`.
    fn state_indices(&self, cfg: &Self::Config) -> Vec<usize>;
    /// Every transition row of the table: `(state index, event)` plus a
    /// display label.
    fn table_rows(&self) -> Vec<((usize, Event), String)>;
    /// Display names of the per-cache states, by index.
    fn state_names(&self) -> Vec<String>;
    /// Static totality gaps of the table (see [`totality_gaps`]).
    fn totality_gaps(&self) -> Vec<String>;
}

/// Outcome of applying one local event to a vector of per-cache states
/// by raw table lookup (independent of the simulators' `ProtocolTable`,
/// so the checker cross-checks the tables, not the engine).
pub struct VecOutcome<S: 'static> {
    /// Successor per-cache states.
    pub next: Vec<S>,
    /// The acting cache's transition.
    pub local: &'static Transition<S>,
    /// Peer transitions, indexed by cache (`None` at the acting cache).
    pub remotes: Vec<Option<&'static Transition<S>>>,
    /// `(state index, event)` rows exercised.
    pub fired: Vec<(usize, Event)>,
}

impl<S: ProtocolState> VecOutcome<S> {
    /// The peer that supplied data (took a `SupplyToPeer` action), if any.
    pub fn supplier(&self) -> Option<usize> {
        self.remotes
            .iter()
            .position(|t| t.is_some_and(|t| t.action == Action::SupplyToPeer))
    }
}

fn lookup<S: ProtocolState>(
    spec: &'static ProtocolSpec<S>,
    state: S,
    event: Event,
) -> Result<&'static Transition<S>, String> {
    spec.transitions
        .iter()
        .find(|t| t.from == state && t.event == event)
        .ok_or_else(|| {
            if spec.impossible.contains(&(state, event)) {
                format!("({state:?}, {event:?}) is declared impossible but reachable")
            } else {
                format!("({state:?}, {event:?}) has no transition (table hole)")
            }
        })
}

/// Applies `event` at `agent` plus the induced remote event at every
/// other cache, purely functionally. Fails if any implied lookup hits a
/// declared-impossible pair or a table hole.
pub fn apply_vec<S: ProtocolState>(
    spec: &'static ProtocolSpec<S>,
    states: &[S],
    agent: usize,
    event: Event,
) -> Result<VecOutcome<S>, String> {
    let remote_event = match event {
        Event::LocalRead => Some(Event::RemoteRead),
        Event::LocalWrite => Some(Event::RemoteWrite),
        _ => None,
    };
    let local = lookup(spec, states[agent], event)?;
    let mut next = states.to_vec();
    let mut remotes: Vec<Option<&'static Transition<S>>> = vec![None; states.len()];
    let mut fired = vec![(states[agent].index(), event)];
    next[agent] = local.to;
    if let Some(re) = remote_event {
        for (i, s) in states.iter().enumerate() {
            if i == agent {
                continue;
            }
            let t = lookup(spec, *s, re)?;
            fired.push((s.index(), re));
            next[i] = t.to;
            remotes[i] = Some(t);
        }
    }
    Ok(VecOutcome {
        next,
        local,
        remotes,
        fired,
    })
}

/// Checks that a local read at every agent holding a valid copy is a
/// silent hit: a `Hit` that leaves every agent's state unchanged. The
/// simulators answer such reads from the cache alone, without stepping
/// the table, so a row that moves any state on a read hit would make
/// them diverge from the table. Returns one message per offending agent.
pub fn silent_read_hit_violations<S: ProtocolState>(
    spec: &'static ProtocolSpec<S>,
    states: &[S],
) -> Vec<String> {
    (0..states.len())
        .filter(|&i| states[i].is_valid())
        .filter_map(|i| {
            let out = apply_vec(spec, states, i, Event::LocalRead).ok()?;
            (out.local.action != Action::Hit || out.next != states).then(|| {
                format!(
                    "Read({i}) in {states:?} takes {:?} and leads to {:?}",
                    out.local.action, out.next
                )
            })
        })
        .collect()
}

/// Successor states plus the `(state index, event)` rows an
/// all-cache event exercised.
pub type IoOutcome<S> = (Vec<S>, Vec<(usize, Event)>);

/// Applies [`Event::IoInvalidate`] to every cache.
pub fn apply_io_vec<S: ProtocolState>(
    spec: &'static ProtocolSpec<S>,
    states: &[S],
) -> Result<IoOutcome<S>, String> {
    let mut next = states.to_vec();
    let mut fired = Vec::with_capacity(states.len());
    for (i, s) in states.iter().enumerate() {
        let t = lookup(spec, *s, Event::IoInvalidate)?;
        fired.push((s.index(), Event::IoInvalidate));
        next[i] = t.to;
    }
    Ok((next, fired))
}

/// Statically verifies table totality: every `(state, event)` pair must
/// be either an explicit transition or an explicit `impossible` entry,
/// never both and never neither. Returns one message per gap.
pub fn totality_gaps<S: ProtocolState>(spec: &'static ProtocolSpec<S>) -> Vec<String> {
    let mut gaps = Vec::new();
    for s in spec.states {
        for e in Event::ALL {
            let handled = spec
                .transitions
                .iter()
                .filter(|t| t.from == *s && t.event == e)
                .count();
            let impossible = spec.impossible.contains(&(*s, e));
            match (handled, impossible) {
                (1, false) | (0, true) => {}
                (0, false) => {
                    gaps.push(format!("({s:?}, {e:?}) is neither handled nor impossible"));
                }
                (1, true) => gaps.push(format!("({s:?}, {e:?}) is both handled and impossible")),
                (n, _) => gaps.push(format!("({s:?}, {e:?}) has {n} duplicate transitions")),
            }
        }
    }
    gaps
}

/// Rows and display labels of every transition in `spec`.
pub fn spec_rows<S: ProtocolState>(
    spec: &'static ProtocolSpec<S>,
) -> Vec<((usize, Event), String)> {
    spec.transitions
        .iter()
        .map(|t| {
            (
                (t.from.index(), t.event),
                format!("{:?} --{:?}--> {:?}", t.from, t.event, t.to),
            )
        })
        .collect()
}

/// Display names of every state in `spec`, by dense index.
pub fn spec_state_names<S: ProtocolState>(spec: &'static ProtocolSpec<S>) -> Vec<String> {
    spec.states.iter().map(|s| format!("{s:?}")).collect()
}

/// Upper bound on explored configurations; the protocol models are tiny
/// (≤ a few thousand configurations), so hitting this means a model bug.
const MAX_CONFIGS: usize = 1_000_000;

/// Exhaustively explores `model` from its initial configuration and
/// checks every invariant in every reachable configuration.
///
/// Violations carry a minimal witness trace (BFS order guarantees the
/// first hit is a shortest event sequence). Coverage is checked last:
/// transitions never fired and states never reached are reported as
/// table defects even when all safety invariants hold.
///
/// # Panics
///
/// Panics if the model exceeds [`MAX_CONFIGS`] configurations.
pub fn explore<M: Model>(model: &M) -> CheckReport {
    let initial = model.initial();
    let mut ids: HashMap<M::Config, usize> = HashMap::new();
    let mut configs = vec![initial.clone()];
    // Per config: the (parent id, event label) it was first reached by.
    let mut parents: Vec<Option<(usize, String)>> = vec![None];
    ids.insert(initial, 0);

    let mut fired: HashMap<(usize, Event), usize> = HashMap::new();
    let mut reached_states = vec![false; model.state_names().len()];
    let mut violations: Vec<Violation> = Vec::new();
    let mut seen_invariants: HashMap<String, ()> = HashMap::new();
    let mut steps_total = 0usize;

    let mut frontier = 0usize;
    while frontier < configs.len() {
        let id = frontier;
        frontier += 1;
        let cfg = configs[id].clone();
        for si in model.state_indices(&cfg) {
            reached_states[si] = true;
        }
        // Check the configuration's invariants, keeping one minimal
        // witness per invariant.
        for (invariant, detail) in model.violations(&cfg) {
            if seen_invariants.insert(invariant.clone(), ()).is_none() {
                violations.push(Violation {
                    invariant,
                    detail,
                    witness: witness(&parents, id),
                });
            }
        }
        let steps = model.steps(&cfg);
        if steps.is_empty() && seen_invariants.insert("stuck-state".into(), ()).is_none() {
            violations.push(Violation {
                invariant: "stuck-state".into(),
                detail: format!("configuration {cfg:?} has no enabled event"),
                witness: witness(&parents, id),
            });
        }
        for step in steps {
            steps_total += 1;
            for row in step.fired {
                *fired.entry(row).or_insert(0) += 1;
            }
            if !ids.contains_key(&step.next) {
                let next_id = configs.len();
                assert!(
                    next_id < MAX_CONFIGS,
                    "model exceeded {MAX_CONFIGS} configs"
                );
                ids.insert(step.next.clone(), next_id);
                configs.push(step.next);
                parents.push(Some((id, step.label)));
            }
        }
    }

    let dead_transitions = model
        .table_rows()
        .into_iter()
        .filter(|(row, _)| !fired.contains_key(row))
        .map(|(_, label)| label)
        .collect();
    let unreachable_states = model
        .state_names()
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !reached_states[*i])
        .map(|(_, name)| name)
        .collect();

    CheckReport {
        protocol: model.protocol_name(),
        agents: model.agents(),
        configs: configs.len(),
        steps: steps_total,
        violations,
        dead_transitions,
        unreachable_states,
        totality_gaps: model.totality_gaps(),
    }
}

fn witness(parents: &[Option<(usize, String)>], mut id: usize) -> Vec<String> {
    let mut trace = Vec::new();
    while let Some((parent, label)) = &parents[id] {
        trace.push(label.clone());
        id = *parent;
    }
    trace.reverse();
    trace
}
