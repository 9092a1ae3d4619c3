//! The single-chip MOSI model: one block across N core L1s plus ghost
//! state for the shared, non-inclusive L2 and backing memory.
//!
//! Ghost semantics mirror the simulator's victim path: L1 victims —
//! clean ([`Action::InstallVictim`]) or dirty ([`Action::WritebackVictim`])
//! — are installed into the L2; a write invalidates any L2 copy
//! ([`Action::InvalidateSharers`]); the L2 may evict its copy at any
//! time, writing back when it is the last current copy on chip; DMA and
//! copyout writes refresh memory while invalidating every on-chip copy.

use crate::bfs::{
    apply_io_vec, apply_vec, silent_read_hit_violations, spec_rows, spec_state_names,
    totality_gaps, Model, Step,
};
use tempstream_coherence::protocol::{Action, Event, MosiState, ProtocolSpec, ProtocolState, MOSI};

/// Ghost state of the shared L2's copy of the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum L2Ghost {
    /// The L2 holds no copy.
    Absent,
    /// The L2 holds the latest value.
    Current,
    /// The L2 holds an outdated value — always an invariant violation;
    /// the model only constructs it when a table fails to invalidate the
    /// L2 on a write, precisely so the checker can catch that bug.
    Stale,
}

/// One global configuration of the MOSI model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MosiConfig {
    /// Per-core L1 protocol state of the block.
    pub caches: Vec<MosiState>,
    /// Ghost state of the shared L2's copy.
    pub l2: L2Ghost,
    /// Whether backing memory holds the latest value.
    pub memory_current: bool,
}

impl MosiConfig {
    fn owner(&self) -> Option<usize> {
        self.caches.iter().position(|s| s.is_owner())
    }
}

/// Exhaustive model of the [`MOSI`] table (or a variant of it) for a
/// fixed number of cores.
pub struct MosiModel {
    spec: &'static ProtocolSpec<MosiState>,
    agents: u32,
}

impl MosiModel {
    /// Models the production [`MOSI`] table with `agents` cores.
    pub fn new(agents: u32) -> Self {
        Self::with_spec(&MOSI, agents)
    }

    /// Models an arbitrary MOSI-shaped table — used by the checker's own
    /// tests to prove that broken tables are detected.
    pub fn with_spec(spec: &'static ProtocolSpec<MosiState>, agents: u32) -> Self {
        assert!((2..=8).contains(&agents), "model needs 2..=8 agents");
        MosiModel { spec, agents }
    }
}

impl Model for MosiModel {
    type Config = MosiConfig;

    fn protocol_name(&self) -> &'static str {
        self.spec.name
    }

    fn agents(&self) -> u32 {
        self.agents
    }

    fn initial(&self) -> MosiConfig {
        MosiConfig {
            caches: vec![self.spec.initial; self.agents as usize],
            l2: L2Ghost::Absent,
            memory_current: true,
        }
    }

    fn steps(&self, cfg: &MosiConfig) -> Vec<Step<MosiConfig>> {
        let mut steps = Vec::new();
        for i in 0..self.agents as usize {
            if let Ok(out) = apply_vec(self.spec, &cfg.caches, i, Event::LocalRead) {
                // A fill is served on chip when an owner supplies it, the
                // L2 holds a copy, or a clean peer L1 has one; only
                // otherwise does the line come from memory, and the fill
                // also installs the block in the shared L2.
                let on_chip = out.supplier().is_some()
                    || cfg.l2 != L2Ghost::Absent
                    || cfg
                        .caches
                        .iter()
                        .enumerate()
                        .any(|(j, s)| j != i && s.is_valid());
                let off_chip_fill = out.local.action == Action::Fill && !on_chip;
                steps.push(Step {
                    label: format!("Read({i})"),
                    next: MosiConfig {
                        caches: out.next,
                        l2: if off_chip_fill {
                            L2Ghost::Current
                        } else {
                            cfg.l2
                        },
                        memory_current: cfg.memory_current,
                    },
                    fired: out.fired,
                });
            }
            if let Ok(out) = apply_vec(self.spec, &cfg.caches, i, Event::LocalWrite) {
                // A correct table invalidates the L2 copy on a write; a
                // broken one leaves it behind, now stale.
                let l2 =
                    if out.local.action == Action::InvalidateSharers || cfg.l2 == L2Ghost::Absent {
                        L2Ghost::Absent
                    } else {
                        L2Ghost::Stale
                    };
                steps.push(Step {
                    label: format!("Write({i})"),
                    next: MosiConfig {
                        caches: out.next,
                        l2,
                        memory_current: false,
                    },
                    fired: out.fired,
                });
            }
            if cfg.caches[i].is_valid() {
                if let Ok(out) = apply_vec(self.spec, &cfg.caches, i, Event::Evict) {
                    // Victims land in the non-inclusive L2: dirty ones by
                    // writeback, clean ones by victim install. Any valid
                    // copy holds the latest value (writes invalidate all
                    // sharers), so the installed copy is current.
                    let l2 = match out.local.action {
                        Action::WritebackVictim | Action::InstallVictim => L2Ghost::Current,
                        _ => cfg.l2,
                    };
                    steps.push(Step {
                        label: format!("Evict({i})"),
                        next: MosiConfig {
                            caches: out.next,
                            l2,
                            memory_current: cfg.memory_current,
                        },
                        fired: out.fired,
                    });
                }
            }
        }
        if cfg.l2 != L2Ghost::Absent {
            // The shared L2 may victimize its copy at any time; holding
            // the last current copy on chip, it writes back to memory.
            let write_back = cfg.l2 == L2Ghost::Current && cfg.owner().is_none();
            steps.push(Step {
                label: "L2Evict".into(),
                next: MosiConfig {
                    caches: cfg.caches.clone(),
                    l2: L2Ghost::Absent,
                    memory_current: cfg.memory_current || write_back,
                },
                fired: Vec::new(),
            });
        }
        if let Ok((next, fired)) = apply_io_vec(self.spec, &cfg.caches) {
            steps.push(Step {
                label: "IoInvalidate".into(),
                next: MosiConfig {
                    caches: next,
                    l2: L2Ghost::Absent,
                    memory_current: true,
                },
                fired,
            });
        }
        steps
    }

    fn violations(&self, cfg: &MosiConfig) -> Vec<(String, String)> {
        let mut v = Vec::new();
        let owners = cfg.caches.iter().filter(|s| s.is_owner()).count();
        for (i, s) in cfg.caches.iter().enumerate() {
            if s.is_writable() {
                for (j, t) in cfg.caches.iter().enumerate() {
                    if i != j && t.is_valid() {
                        v.push((
                            "SWMR".into(),
                            format!("core {i} is {s:?} while core {j} holds {t:?}"),
                        ));
                    }
                }
                if cfg.l2 != L2Ghost::Absent {
                    v.push((
                        "SWMR".into(),
                        format!("core {i} is {s:?} while the L2 holds a copy"),
                    ));
                }
            }
        }
        if owners > 1 {
            v.push((
                "single-owner".into(),
                format!("{owners} cores own the block simultaneously"),
            ));
        }
        // Non-inclusion consistency: the L2 must never hold an outdated
        // copy (a write leaving the L2 copy behind would let a later read
        // fill stale data from it).
        if cfg.l2 == L2Ghost::Stale {
            v.push((
                "level-consistency".into(),
                "the shared L2 holds a stale copy after a write".into(),
            ));
        }
        // The latest value must live somewhere: an L1, the L2, or memory.
        if !cfg.memory_current
            && cfg.l2 != L2Ghost::Current
            && cfg.caches.iter().all(|s| !s.is_valid())
        {
            v.push((
                "data-availability".into(),
                "every copy is gone and memory is stale: the last write is lost".into(),
            ));
        }
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

    fn state_indices(&self, cfg: &MosiConfig) -> Vec<usize> {
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
