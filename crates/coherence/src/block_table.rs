//! Per-block simulator records, stored in dense chunks of neighbouring
//! blocks.
//!
//! Both simulators keep one small record per block ever accessed (its
//! history must outlive residency). A hash map keyed by block scatters
//! neighbouring blocks across a footprint-sized table, so every lookup is
//! a last-level-cache miss. [`BlockTable`] instead hashes only the chunk
//! number (`block >> 3`) to a dense run of eight records: neighbours
//! share a chunk, the index has an eighth as many keys at most, and a
//! lookup touches one index slot plus one record.
//!
//! A slot no access has touched holds the blank record
//! (`R::default()`), which the simulators treat exactly like a block
//! that was never seen, so the table has no notion of absence.

use tempstream_fxhash::FxHashMap;
use tempstream_trace::Block;

/// Blocks per chunk, as a shift. Eight ran fastest on the paper-scale
/// simulations; 64 cost tens of MiB of blank records on the sparsely
/// used pages of the web workloads, and 4 ran slower with up to twice
/// as many index keys.
const CHUNK_SHIFT: u32 = 3;
const CHUNK: usize = 1 << CHUNK_SHIFT;

/// One record per block, in chunks of [`CHUNK`] neighbouring blocks.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockTable<R> {
    /// Chunk number (`block >> CHUNK_SHIFT`) to its position in `chunks`.
    index: FxHashMap<u64, u32>,
    chunks: Vec<[R; CHUNK]>,
}

impl<R: Copy + Default> BlockTable<R> {
    /// The record of `block`: the blank record if no access touched it.
    pub(crate) fn get(&self, block: Block) -> R {
        self.index
            .get(&(block.raw() >> CHUNK_SHIFT))
            .map_or_else(R::default, |&c| {
                self.chunks[c as usize][block.raw() as usize % CHUNK]
            })
    }

    /// The record of `block`, allocating its chunk (blank) on first touch.
    pub(crate) fn get_mut(&mut self, block: Block) -> &mut R {
        let chunks = &mut self.chunks;
        let c = *self
            .index
            .entry(block.raw() >> CHUNK_SHIFT)
            .or_insert_with(|| {
                let c = u32::try_from(chunks.len()).expect("block table exceeds 2^32 chunks");
                chunks.push([R::default(); CHUNK]);
                c
            });
        &mut self.chunks[c as usize][block.raw() as usize % CHUNK]
    }

    /// Bytes the table has allocated: the chunks plus the index's slots
    /// (an estimate of the index: one key, one value and one control
    /// byte per bucket).
    pub(crate) fn bytes(&self) -> u64 {
        let chunk = std::mem::size_of::<[R; CHUNK]>();
        let slot = std::mem::size_of::<(u64, u32)>() + 1;
        (self.chunks.capacity() * chunk + self.index.capacity() * slot) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempstream_trace::rng::SmallRng;

    #[test]
    fn matches_a_hash_map_model() {
        // Random writes over blocks that straddle chunk boundaries, at
        // both ends of the block range; every block, touched or not,
        // reads what the model says (blank for never-written ones).
        let bases = [0, 1 << 20, Block::MAX_RAW - 63];
        let mut rng = SmallRng::seed_from_u64(0xb10c_7ab1);
        let mut table = BlockTable::<u64>::default();
        let mut model = FxHashMap::<u64, u64>::default();
        for step in 0..4000u64 {
            let raw = bases[rng.gen_range(0..bases.len())] + rng.gen_range(0..64u64);
            *table.get_mut(Block::new(raw)) += step + 1;
            *model.entry(raw).or_default() += step + 1;
        }
        for &base in &bases {
            for raw in base..base + 64 {
                let want = model.get(&raw).copied().unwrap_or_default();
                assert_eq!(table.get(Block::new(raw)), want, "block {raw}");
            }
        }
    }

    #[test]
    fn untouched_neighbours_read_blank() {
        let mut table = BlockTable::<u64>::default();
        *table.get_mut(Block::new(9)) = 5;
        *table.get_mut(Block::new(Block::MAX_RAW)) = 6;
        // Blocks 8..16 share a chunk with block 9; 7 and 16 do not.
        for raw in [7, 8, 10, 15, 16, Block::MAX_RAW - 1] {
            assert_eq!(table.get(Block::new(raw)), 0, "block {raw}");
        }
        assert_eq!(table.get(Block::new(9)), 5);
        assert_eq!(table.get(Block::new(Block::MAX_RAW)), 6);
        assert_eq!(table.chunks.len(), 2, "one chunk per touched run of 8");
        assert!(table.bytes() >= 2 * 8 * 8);
    }
}
