//! The set-associative, true-LRU cache structure.

use crate::config::CacheConfig;
use crate::stats::CacheStats;
use tempstream_trace::Block;

/// A set-associative cache with true-LRU replacement, generic over a
/// per-line payload `T` (typically a coherence state).
///
/// All lines live in one flat `num_sets × associativity` array: set `s`
/// owns the slice starting at `s * associativity`, its first `lens[s]`
/// slots hold the resident lines most-recently-used first, and the rest
/// are filler. Move-to-front is a `rotate_right` inside that slice, so a
/// lookup touches one contiguous run of lines and no per-set heap
/// allocation; with the paper's associativities (2 and 16) it is both
/// exact LRU and fast.
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    config: CacheConfig,
    set_mask: u64,
    assoc: usize,
    lines: Vec<Line<T>>,
    /// Resident lines per set.
    lens: Vec<u32>,
    stats: CacheStats,
}

#[derive(Debug, Clone, Default)]
struct Line<T> {
    block: Block,
    payload: T,
}

impl<T: Default> SetAssocCache<T> {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        let assoc = config.associativity as usize;
        SetAssocCache {
            config,
            set_mask: num_sets - 1,
            assoc,
            lines: (0..num_sets as usize * assoc)
                .map(|_| Line::default())
                .collect(),
            lens: vec![0; num_sets as usize],
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accumulated hit/miss/eviction statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_index(&self, block: Block) -> usize {
        (block.raw() & self.set_mask) as usize
    }

    /// The resident lines of `block`'s set, MRU first.
    fn set(&self, block: Block) -> &[Line<T>] {
        let s = self.set_index(block);
        let base = s * self.assoc;
        &self.lines[base..base + self.lens[s] as usize]
    }

    /// `block`'s whole slot slice (resident lines first, then filler),
    /// its resident-line count, and the statistics, borrowed apart.
    fn set_mut(&mut self, block: Block) -> (&mut [Line<T>], &mut u32, &mut CacheStats) {
        let s = self.set_index(block);
        let base = s * self.assoc;
        (
            &mut self.lines[base..base + self.assoc],
            &mut self.lens[s],
            &mut self.stats,
        )
    }

    /// Looks up `block` without updating LRU order or statistics.
    pub fn probe(&self, block: Block) -> Option<&T> {
        self.set(block)
            .iter()
            .find(|l| l.block == block)
            .map(|l| &l.payload)
    }

    /// Looks up `block`, and on a hit moves it to MRU and returns a mutable
    /// reference to its payload. Records a hit or miss in the statistics.
    pub fn touch(&mut self, block: Block) -> Option<&mut T> {
        let (set, len, stats) = self.set_mut(block);
        if let Some(pos) = set[..*len as usize].iter().position(|l| l.block == block) {
            stats.hits += 1;
            set[..=pos].rotate_right(1);
            Some(&mut set[0].payload)
        } else {
            stats.misses += 1;
            None
        }
    }

    /// Returns a mutable reference to the payload of `block` without
    /// changing LRU order or statistics.
    pub fn peek_mut(&mut self, block: Block) -> Option<&mut T> {
        let (set, len, _) = self.set_mut(block);
        set[..*len as usize]
            .iter_mut()
            .find(|l| l.block == block)
            .map(|l| &mut l.payload)
    }

    /// Inserts `block` at MRU, returning the evicted `(block, payload)` if
    /// the set was full.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `block` is already present (callers must
    /// `touch`/`peek_mut` existing lines instead).
    pub fn insert(&mut self, block: Block, payload: T) -> Option<(Block, T)> {
        let (set, len, stats) = self.set_mut(block);
        let n = *len as usize;
        debug_assert!(
            set[..n].iter().all(|l| l.block != block),
            "insert of already-present block {block}"
        );
        // The slot that rotates to the front: the LRU line of a full set,
        // else the first filler slot.
        let used = (n + 1).min(set.len());
        set[..used].rotate_right(1);
        let old = std::mem::replace(&mut set[0], Line { block, payload });
        if n == set.len() {
            stats.evictions += 1;
            Some((old.block, old.payload))
        } else {
            *len += 1;
            None
        }
    }

    /// Removes `block`, returning its payload if it was present.
    pub fn invalidate(&mut self, block: Block) -> Option<T> {
        let (set, len, stats) = self.set_mut(block);
        let n = *len as usize;
        let pos = set[..n].iter().position(|l| l.block == block)?;
        set[pos..n].rotate_left(1);
        let line = std::mem::take(&mut set[n - 1]);
        *len -= 1;
        stats.invalidations += 1;
        Some(line.payload)
    }

    /// Returns `true` if `block` is cached.
    pub fn contains(&self, block: Block) -> bool {
        self.probe(block).is_some()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&n| n as usize).sum()
    }

    /// Returns `true` if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.lens.iter().all(|&n| n == 0)
    }

    /// Iterates over resident `(block, payload)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Block, &T)> + '_ {
        self.lines
            .chunks_exact(self.assoc)
            .zip(&self.lens)
            .flat_map(|(set, &n)| set[..n as usize].iter().map(|l| (l.block, &l.payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache<u32> {
        // 2 sets x 2 ways.
        SetAssocCache::new(CacheConfig::new(4 * 64, 2))
    }

    #[test]
    fn hit_after_insert() {
        let mut c = tiny();
        assert!(c.touch(Block::new(0)).is_none());
        c.insert(Block::new(0), 7);
        assert_eq!(c.touch(Block::new(0)), Some(&mut 7));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Blocks 0, 2, 4 map to set 0 (even block numbers).
        c.insert(Block::new(0), 0);
        c.insert(Block::new(2), 2);
        // Touch 0 so 2 becomes LRU.
        assert!(c.touch(Block::new(0)).is_some());
        let victim = c.insert(Block::new(4), 4);
        assert_eq!(victim, Some((Block::new(2), 2)));
        assert!(c.contains(Block::new(0)));
        assert!(c.contains(Block::new(4)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.insert(Block::new(0), 0); // set 0
        c.insert(Block::new(1), 1); // set 1
        c.insert(Block::new(2), 2); // set 0
        c.insert(Block::new(3), 3); // set 1
        assert_eq!(c.len(), 4);
        // Filling set 0 further evicts only from set 0.
        let victim = c.insert(Block::new(4), 4);
        assert_eq!(victim, Some((Block::new(0), 0)));
        assert!(c.contains(Block::new(1)));
        assert!(c.contains(Block::new(3)));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.insert(Block::new(0), 9);
        assert_eq!(c.invalidate(Block::new(0)), Some(9));
        assert_eq!(c.invalidate(Block::new(0)), None);
        assert!(!c.contains(Block::new(0)));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.insert(Block::new(0), 0);
        c.insert(Block::new(2), 2);
        // Probing 0 must NOT protect it from eviction.
        assert_eq!(c.probe(Block::new(0)), Some(&0));
        let victim = c.insert(Block::new(4), 4);
        assert_eq!(victim, Some((Block::new(0), 0)));
    }

    #[test]
    fn peek_mut_updates_payload() {
        let mut c = tiny();
        c.insert(Block::new(0), 1);
        *c.peek_mut(Block::new(0)).unwrap() = 5;
        assert_eq!(c.probe(Block::new(0)), Some(&5));
    }

    #[test]
    fn iter_sees_all_lines() {
        let mut c = tiny();
        c.insert(Block::new(0), 10);
        c.insert(Block::new(1), 11);
        let mut items: Vec<_> = c.iter().map(|(b, &v)| (b.raw(), v)).collect();
        items.sort();
        assert_eq!(items, vec![(0, 10), (1, 11)]);
    }

    #[test]
    fn capacity_respected_under_fill() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(CacheConfig::new(64 * 64, 4));
        for b in 0..10_000u64 {
            if c.touch(Block::new(b)).is_none() {
                c.insert(Block::new(b), ());
            }
        }
        assert!(c.len() <= c.config().num_blocks() as usize);
        assert_eq!(c.len(), 64);
    }
}
