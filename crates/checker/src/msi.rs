//! The multi-chip MSI model: one block across N private node hierarchies
//! plus a ghost bit tracking whether backing memory holds the latest
//! value.
//!
//! Ghost semantics mirror the memory-system effects the [`Action`]s
//! demand: a write makes memory stale; a Modified line supplies-and-
//! writes-back on a remote read (so Shared copies are always memory-
//! consistent); a dirty eviction writes back; a DMA/copyout write
//! refreshes memory while invalidating every cached copy.

use crate::bfs::{
    apply_io_vec, apply_vec, silent_read_hit_violations, spec_rows, spec_state_names,
    totality_gaps, Model, Step,
};
use tempstream_coherence::protocol::{Action, Event, MsiState, ProtocolSpec, ProtocolState, MSI};

/// One global configuration of the MSI model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MsiConfig {
    /// Per-node protocol state of the block.
    pub caches: Vec<MsiState>,
    /// Whether backing memory holds the latest value of the block.
    pub memory_current: bool,
}

/// Exhaustive model of the [`MSI`] table (or a variant of it) for a
/// fixed number of nodes.
pub struct MsiModel {
    spec: &'static ProtocolSpec<MsiState>,
    agents: u32,
}

impl MsiModel {
    /// Models the production [`MSI`] table with `agents` nodes.
    pub fn new(agents: u32) -> Self {
        Self::with_spec(&MSI, agents)
    }

    /// Models an arbitrary MSI-shaped table — used by the checker's own
    /// tests to prove that broken tables are detected.
    pub fn with_spec(spec: &'static ProtocolSpec<MsiState>, agents: u32) -> Self {
        assert!((2..=8).contains(&agents), "model needs 2..=8 agents");
        MsiModel { spec, agents }
    }
}

impl Model for MsiModel {
    type Config = MsiConfig;

    fn protocol_name(&self) -> &'static str {
        self.spec.name
    }

    fn agents(&self) -> u32 {
        self.agents
    }

    fn initial(&self) -> MsiConfig {
        MsiConfig {
            caches: vec![self.spec.initial; self.agents as usize],
            memory_current: true,
        }
    }

    fn steps(&self, cfg: &MsiConfig) -> Vec<Step<MsiConfig>> {
        let mut steps = Vec::new();
        for i in 0..self.agents as usize {
            if let Ok(out) = apply_vec(self.spec, &cfg.caches, i, Event::LocalRead) {
                // A Modified peer supplies the line and writes it back
                // while downgrading, refreshing memory.
                let write_back = out.supplier().is_some();
                steps.push(Step {
                    label: format!("Read({i})"),
                    next: MsiConfig {
                        caches: out.next,
                        memory_current: cfg.memory_current || write_back,
                    },
                    fired: out.fired,
                });
            }
            if let Ok(out) = apply_vec(self.spec, &cfg.caches, i, Event::LocalWrite) {
                steps.push(Step {
                    label: format!("Write({i})"),
                    next: MsiConfig {
                        caches: out.next,
                        memory_current: false,
                    },
                    fired: out.fired,
                });
            }
            // Victimization is only meaningful for a resident line.
            if cfg.caches[i].is_valid() {
                if let Ok(out) = apply_vec(self.spec, &cfg.caches, i, Event::Evict) {
                    let write_back = out.local.action == Action::WritebackVictim;
                    steps.push(Step {
                        label: format!("Evict({i})"),
                        next: MsiConfig {
                            caches: out.next,
                            memory_current: cfg.memory_current || write_back,
                        },
                        fired: out.fired,
                    });
                }
            }
        }
        if let Ok((next, fired)) = apply_io_vec(self.spec, &cfg.caches) {
            // The device deposits fresh data in memory.
            steps.push(Step {
                label: "IoInvalidate".into(),
                next: MsiConfig {
                    caches: next,
                    memory_current: true,
                },
                fired,
            });
        }
        steps
    }

    fn violations(&self, cfg: &MsiConfig) -> Vec<(String, String)> {
        let mut v = Vec::new();
        let owners = cfg.caches.iter().filter(|s| s.is_owner()).count();
        for (i, s) in cfg.caches.iter().enumerate() {
            if s.is_writable() {
                for (j, t) in cfg.caches.iter().enumerate() {
                    if i != j && t.is_valid() {
                        v.push((
                            "SWMR".into(),
                            format!("node {i} is {s:?} while node {j} holds {t:?}"),
                        ));
                    }
                }
            }
        }
        if owners > 1 {
            v.push((
                "single-owner".into(),
                format!("{owners} nodes own the block simultaneously"),
            ));
        }
        // Shared copies must be memory-consistent (M downgrades write
        // back), otherwise a fill from memory returns stale data.
        if !cfg.memory_current && cfg.caches.iter().any(|s| s.is_valid() && !s.is_owner()) {
            v.push((
                "level-consistency".into(),
                "a Shared copy coexists with stale memory".into(),
            ));
        }
        // The latest value must live somewhere: in a cache or in memory.
        if !cfg.memory_current && cfg.caches.iter().all(|s| !s.is_valid()) {
            v.push((
                "data-availability".into(),
                "every copy is gone and memory is stale: the last write is lost".into(),
            ));
        }
        // Any enabled event whose lookup fails means a reachable
        // impossible pair or a table hole.
        for i in 0..self.agents as usize {
            for event in [Event::LocalRead, Event::LocalWrite] {
                if let Err(e) = apply_vec(self.spec, &cfg.caches, i, event) {
                    v.push(("impossible-reached".into(), e));
                }
            }
            if cfg.caches[i].is_valid() {
                if let Err(e) = apply_vec(self.spec, &cfg.caches, i, Event::Evict) {
                    v.push(("impossible-reached".into(), e));
                }
            }
        }
        if let Err(e) = apply_io_vec(self.spec, &cfg.caches) {
            v.push(("impossible-reached".into(), e));
        }
        // The simulators skip the table on a read hit.
        for detail in silent_read_hit_violations(self.spec, &cfg.caches) {
            v.push(("silent-read-hit".into(), detail));
        }
        v
    }

    fn state_indices(&self, cfg: &MsiConfig) -> Vec<usize> {
        cfg.caches.iter().map(|s| s.index()).collect()
    }

    fn table_rows(&self) -> Vec<((usize, Event), String)> {
        spec_rows(self.spec)
    }

    fn state_names(&self) -> Vec<String> {
        spec_state_names(self.spec)
    }

    fn totality_gaps(&self) -> Vec<String> {
        totality_gaps(self.spec)
    }
}
