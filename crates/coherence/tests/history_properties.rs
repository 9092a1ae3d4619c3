//! Property tests for the cache-independent miss-classification history
//! (`HistoryTracker`), driven by seeded in-tree generators.
//!
//! Two properties anchor the paper's methodology (§4.1):
//!
//! 1. **Exactly one classification per miss** — `classify_read` is a
//!    pure, total function of the recorded history: it always returns
//!    one class, never mutates the tracker, and repeated calls agree.
//! 2. **Replay stability** — classifications are a deterministic
//!    function of the access trace: replaying the same trace through a
//!    fresh tracker reproduces the classification sequence exactly.
//!
//! A third pins the single chip's folded off-chip classification: the
//! chip-granularity class it derives from a core-granularity history
//! equals what a one-agent tracker records from the same accesses.

use std::collections::HashMap;
use tempstream_coherence::{BlockHistory, HistoryTracker};
use tempstream_trace::rng::SmallRng;
use tempstream_trace::{Block, MissClass};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Read(u32, u64),
    Write(u32, u64),
    Dma(u64),
    Copyout(u64),
}

fn gen_ops(rng: &mut SmallRng, len: usize, agents: u32, block_span: u64) -> Vec<Op> {
    (0..len)
        .map(|_| {
            let agent = rng.gen_range(0..agents);
            let block = rng.gen_range(0..block_span);
            match rng.gen_range(0..10u32) {
                0 => Op::Dma(block),
                1 => Op::Copyout(block),
                2 | 3 => Op::Write(agent, block),
                _ => Op::Read(agent, block),
            }
        })
        .collect()
}

/// Replays `ops`, classifying before every read, and returns the
/// classification sequence.
fn replay(tracker: &mut HistoryTracker, ops: &[Op]) -> Vec<MissClass> {
    let mut classes = Vec::new();
    for op in ops {
        match *op {
            Op::Read(a, b) => {
                classes.push(tracker.classify_read(a, Block::new(b)));
                tracker.record_read(a, Block::new(b));
            }
            Op::Write(a, b) => tracker.record_write(a, Block::new(b)),
            Op::Dma(b) => tracker.record_dma_write(Block::new(b)),
            Op::Copyout(b) => tracker.record_copyout_write(Block::new(b)),
        }
    }
    classes
}

#[test]
fn every_miss_gets_exactly_one_stable_classification() {
    let mut rng = SmallRng::seed_from_u64(0x4115_7001);
    for _ in 0..64 {
        let agents = rng.gen_range(1..=8u32);
        let ops = gen_ops(&mut rng, 300, agents, 40);
        let mut tracker = HistoryTracker::new(agents);
        for op in &ops {
            if let Op::Read(a, b) = *op {
                let block = Block::new(b);
                let footprint = tracker.footprint_blocks();
                let first = tracker.classify_read(a, block);
                let second = tracker.classify_read(a, block);
                // One class, agreed upon across calls, with no mutation.
                assert_eq!(first, second, "classification must be pure");
                assert_eq!(
                    tracker.footprint_blocks(),
                    footprint,
                    "classify_read must not record history"
                );
            }
            match *op {
                Op::Read(a, b) => tracker.record_read(a, Block::new(b)),
                Op::Write(a, b) => tracker.record_write(a, Block::new(b)),
                Op::Dma(b) => tracker.record_dma_write(Block::new(b)),
                Op::Copyout(b) => tracker.record_copyout_write(Block::new(b)),
            }
        }
    }
}

#[test]
fn classification_is_stable_under_trace_replay() {
    let mut rng = SmallRng::seed_from_u64(0x4115_7002);
    for _ in 0..64 {
        let agents = rng.gen_range(1..=8u32);
        let ops = gen_ops(&mut rng, 400, agents, 60);
        let a = replay(&mut HistoryTracker::new(agents), &ops);
        let b = replay(&mut HistoryTracker::new(agents), &ops);
        assert_eq!(a, b, "same trace must classify identically");
    }
}

#[test]
fn first_processor_touch_is_always_compulsory() {
    let mut rng = SmallRng::seed_from_u64(0x4115_7003);
    for _ in 0..32 {
        let ops = gen_ops(&mut rng, 300, 4, 50);
        let mut tracker = HistoryTracker::new(4);
        // Blocks no processor has loaded or stored yet.
        let mut touched = std::collections::HashSet::new();
        for op in &ops {
            if let Op::Read(a, b) = *op {
                if !touched.contains(&b) {
                    assert_eq!(
                        tracker.classify_read(a, Block::new(b)),
                        MissClass::Compulsory,
                        "first processor touch of block {b}"
                    );
                }
            }
            match *op {
                Op::Read(a, b) => {
                    tracker.record_read(a, Block::new(b));
                    touched.insert(b);
                }
                Op::Write(a, b) => {
                    tracker.record_write(a, Block::new(b));
                    touched.insert(b);
                }
                // Device writes alone do not make a block processor-
                // accessed (its first read stays compulsory).
                Op::Dma(b) => tracker.record_dma_write(Block::new(b)),
                Op::Copyout(b) => tracker.record_copyout_write(Block::new(b)),
            }
        }
    }
}

#[test]
fn last_writer_never_classifies_as_coherence() {
    let mut rng = SmallRng::seed_from_u64(0x4115_7004);
    for _ in 0..32 {
        let ops = gen_ops(&mut rng, 400, 6, 30);
        let mut tracker = HistoryTracker::new(6);
        let mut last_writer: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for op in &ops {
            match *op {
                Op::Read(a, b) => {
                    let class = tracker.classify_read(a, Block::new(b));
                    if last_writer.get(&b) == Some(&a) {
                        assert_ne!(
                            class,
                            MissClass::Coherence,
                            "agent {a} wrote block {b} last; its own miss cannot be coherence"
                        );
                    }
                    tracker.record_read(a, Block::new(b));
                }
                Op::Write(a, b) => {
                    tracker.record_write(a, Block::new(b));
                    last_writer.insert(b, a);
                }
                Op::Dma(b) | Op::Copyout(b) => {
                    tracker.record_dma_write(Block::new(b));
                    last_writer.remove(&b);
                }
            }
        }
    }
}

#[test]
fn io_write_invalidates_every_reader() {
    // After a DMA or copyout write to a processor-accessed block, every
    // agent's next miss on it is IoCoherence until that agent re-reads.
    let mut rng = SmallRng::seed_from_u64(0x4115_7005);
    for _ in 0..32 {
        let agents = rng.gen_range(2..=6u32);
        let mut tracker = HistoryTracker::new(agents);
        let block = Block::new(rng.gen_range(0..100u64));
        tracker.record_read(rng.gen_range(0..agents), block);
        if rng.gen_ratio(1, 2) {
            tracker.record_dma_write(block);
        } else {
            tracker.record_copyout_write(block);
        }
        for a in 0..agents {
            assert_eq!(tracker.classify_read(a, block), MissClass::IoCoherence);
        }
        let reader = rng.gen_range(0..agents);
        tracker.record_read(reader, block);
        assert_eq!(tracker.classify_read(reader, block), MissClass::Replacement);
        for a in (0..agents).filter(|&a| a != reader) {
            assert_eq!(tracker.classify_read(a, block), MissClass::IoCoherence);
        }
    }
}

#[test]
fn folded_core_history_classifies_like_a_one_agent_tracker() {
    // The single chip keeps only the per-core history and classifies
    // off-chip misses with its fold; a chip-wide tracker (one agent, every
    // core's access recorded as agent 0's) must agree before every read.
    let mut rng = SmallRng::seed_from_u64(0x4115_7006);
    for _ in 0..64 {
        let cores = rng.gen_range(1..=8u32);
        let ops = gen_ops(&mut rng, 400, cores, 30);
        let mut chip = HistoryTracker::new(1);
        let mut per_core: HashMap<u64, BlockHistory> = HashMap::new();
        for op in &ops {
            match *op {
                Op::Read(a, b) => {
                    let h = per_core.entry(b).or_default();
                    assert_eq!(
                        h.fold().classify_read(0),
                        chip.classify_read(0, Block::new(b)),
                        "core {a} reading block {b} after {h:?}"
                    );
                    h.record_read(a);
                    chip.record_read(0, Block::new(b));
                }
                Op::Write(a, b) => {
                    per_core.entry(b).or_default().record_write(a);
                    chip.record_write(0, Block::new(b));
                }
                Op::Dma(b) => {
                    per_core.entry(b).or_default().record_dma_write();
                    chip.record_dma_write(Block::new(b));
                }
                Op::Copyout(b) => {
                    per_core.entry(b).or_default().record_copyout_write();
                    chip.record_copyout_write(Block::new(b));
                }
            }
        }
    }
}
