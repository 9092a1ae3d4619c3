//! The digram index: a flat open-addressed hash table from a digram (two
//! packed symbol words) to the node where that digram starts.
//!
//! SEQUITUR probes the index on every pushed symbol and deletes from it
//! about as often as it inserts, so the table is built for exactly that
//! mix:
//!
//! - **Flat 24-byte slots** `[first, second, node | hash << 32]` in one
//!   power-of-two array, probed linearly from the key's home slot. An
//!   empty slot holds the node id `NIL` (`u32::MAX`), which no entry uses.
//! - **Backward-shift deletion**, so there are no tombstones: removing a
//!   key moves later members of its probe run back into the hole, and a
//!   lookup can stop at the first empty slot however much churn the table
//!   has seen.
//! - **Fused operations.** [`get_or_insert`](DigramIndex::get_or_insert)
//!   and [`remove_if`](DigramIndex::remove_if) each cost one probe
//!   sequence where a map's `get` followed by `insert`/`remove` costs two.
//!
//! The home slot is the top bits of the stored hash (the best-mixed bits
//! of a multiplicative hash), and growth (at a load of 7/8) re-homes
//! every key from its stored hash without hashing it again.

use std::hash::BuildHasher;

/// Node ids, as in the builder's arena.
pub(crate) type NodeId = u32;

/// Slots in a new table.
const MIN_SLOTS: usize = 16;

/// One slot: the two digram words, then the node id in the low half and
/// the stored hash in the high half of the last word.
type Slot = [u64; 3];

/// The last word of an empty slot: node `NIL` (and an all-ones hash).
const EMPTY_TAIL: u64 = u64::MAX;

/// An empty slot.
const EMPTY: Slot = [0, 0, EMPTY_TAIL];

/// Open-addressed digram index; see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct DigramIndex<H> {
    slots: Vec<Slot>,
    len: usize,
    /// `32 - log2(slots.len())`: the home slot of hash `h` is `h >> shift`.
    shift: u32,
    hasher: H,
}

impl<H: BuildHasher> DigramIndex<H> {
    /// Creates an empty index hashing with `hasher`, sized so that
    /// `capacity` entries fit without growing.
    pub(crate) fn with_capacity_and_hasher(capacity: usize, hasher: H) -> Self {
        let slots = (capacity.saturating_mul(8) / 7 + 1)
            .next_power_of_two()
            .max(MIN_SLOTS);
        DigramIndex {
            slots: vec![EMPTY; slots],
            len: 0,
            shift: 32 - slots.trailing_zeros(),
            hasher,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The node indexed under digram `(a, b)`, if any.
    pub(crate) fn get(&self, a: u64, b: u64) -> Option<NodeId> {
        self.find(a, b, self.hash(a, b))
            .ok()
            .map(|i| node_of(&self.slots[i]))
    }

    /// Returns the node indexed under `(a, b)`, or indexes `node` there
    /// and returns `None` if the digram was absent.
    pub(crate) fn get_or_insert(&mut self, a: u64, b: u64, node: NodeId) -> Option<NodeId> {
        self.reserve_one();
        let hash = self.hash(a, b);
        match self.find(a, b, hash) {
            Ok(i) => Some(node_of(&self.slots[i])),
            Err(i) => {
                self.slots[i] = pack(a, b, node, hash);
                self.len += 1;
                None
            }
        }
    }

    /// Indexes `node` under `(a, b)`, replacing any previous entry.
    pub(crate) fn insert(&mut self, a: u64, b: u64, node: NodeId) {
        self.reserve_one();
        let hash = self.hash(a, b);
        match self.find(a, b, hash) {
            Ok(i) => self.slots[i][2] = pack_tail(node, hash),
            Err(i) => {
                self.slots[i] = pack(a, b, node, hash);
                self.len += 1;
            }
        }
    }

    /// Removes the entry for `(a, b)` if it points at `node`.
    pub(crate) fn remove_if(&mut self, a: u64, b: u64, node: NodeId) {
        if let Ok(i) = self.find(a, b, self.hash(a, b)) {
            if node_of(&self.slots[i]) == node {
                self.remove_at(i);
            }
        }
    }

    /// Every entry as `(a, b, node)`, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, u64, NodeId)> + '_ {
        self.slots
            .iter()
            .filter(|s| s[2] != EMPTY_TAIL)
            .map(|s| (s[0], s[1], node_of(s)))
    }

    fn hash(&self, a: u64, b: u64) -> u32 {
        (self.hasher.hash_one((a, b)) >> 32) as u32
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    fn home(&self, hash: u32) -> usize {
        (hash >> self.shift) as usize
    }

    /// `Ok(slot)` holding `(a, b)`, or `Err(slot)`: the empty slot that
    /// ends its probe run, where it would be inserted.
    fn find(&self, a: u64, b: u64, hash: u32) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = self.home(hash);
        loop {
            let s = &self.slots[i];
            if s[2] == EMPTY_TAIL {
                return Err(i);
            }
            if (s[2] >> 32) as u32 == hash && s[0] == a && s[1] == b {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Empties slot `hole`, then shifts each later member of the probe run
    /// that may legally sit in the hole (its home is not cyclically after
    /// the hole) back into it, until an empty slot ends the run.
    fn remove_at(&mut self, mut hole: usize) {
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s[2] == EMPTY_TAIL {
                break;
            }
            let home = self.home((s[2] >> 32) as u32);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    /// Doubles the table before an insert would pass a load of 7/8.
    fn reserve_one(&mut self) {
        if (self.len + 1) * 8 <= self.slots.len() * 7 {
            return;
        }
        let grown = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, grown);
        self.shift = self.shift.checked_sub(1).expect("digram index overflow");
        let mask = self.mask();
        for s in old.into_iter().filter(|s| s[2] != EMPTY_TAIL) {
            let mut i = self.home((s[2] >> 32) as u32);
            while self.slots[i][2] != EMPTY_TAIL {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

fn pack_tail(node: NodeId, hash: u32) -> u64 {
    debug_assert_ne!(node, NodeId::MAX, "the empty-slot node id");
    u64::from(node) | (u64::from(hash) << 32)
}

fn pack(a: u64, b: u64, node: NodeId, hash: u32) -> Slot {
    [a, b, pack_tail(node, hash)]
}

fn node_of(s: &Slot) -> NodeId {
    s[2] as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::hash::BuildHasherDefault;
    use tempstream_fxhash::FxBuildHasher;

    /// A hasher that sends every key to the same home slot, the last
    /// one, so every probe run wraps around the end of the table.
    #[derive(Default)]
    struct Constant;

    impl std::hash::Hasher for Constant {
        fn write(&mut self, _: &[u8]) {}
        fn finish(&self) -> u64 {
            u64::MAX
        }
    }

    /// Drives the index and a `std` map model through the same random
    /// inserts, fused look-ups and conditional removes over a small key
    /// space (so keys collide, recur and are deleted often), checking
    /// every answer, the length, and finally the full contents.
    fn model_check<H: BuildHasher>(mut index: DigramIndex<H>, seed: u64) {
        let mut model: HashMap<(u64, u64), NodeId> = HashMap::new();
        let mut x = seed;
        let mut next = || {
            // SplitMix64.
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for step in 0..20_000 {
            let r = next();
            // Keys near 0 and with high tag bits both occur.
            let a = ((r >> 8) % 24) | ((r & 1) << 63);
            let b = (r >> 16) % 24;
            let node = (r >> 32) as NodeId % 8;
            match r % 5 {
                0 | 1 => {
                    let got = index.get_or_insert(a, b, node);
                    let want = model.get(&(a, b)).copied();
                    if want.is_none() {
                        model.insert((a, b), node);
                    }
                    assert_eq!(got, want, "step {step}: get_or_insert({a}, {b})");
                }
                2 => {
                    index.insert(a, b, node);
                    model.insert((a, b), node);
                }
                3 => {
                    index.remove_if(a, b, node);
                    if model.get(&(a, b)) == Some(&node) {
                        model.remove(&(a, b));
                    }
                }
                _ => assert_eq!(
                    index.get(a, b),
                    model.get(&(a, b)).copied(),
                    "step {step}: get({a}, {b})"
                ),
            }
            assert_eq!(index.len(), model.len(), "step {step}: len");
        }
        let mut entries: Vec<(u64, u64, NodeId)> = index.iter().collect();
        entries.sort_unstable();
        let mut want: Vec<(u64, u64, NodeId)> =
            model.into_iter().map(|((a, b), n)| (a, b, n)).collect();
        want.sort_unstable();
        assert_eq!(entries, want);
    }

    #[test]
    fn matches_std_map_model() {
        for seed in 0..4 {
            model_check(
                DigramIndex::with_capacity_and_hasher(0, FxBuildHasher::default()),
                seed,
            );
        }
    }

    #[test]
    fn matches_std_map_model_when_every_key_collides() {
        for seed in 0..4 {
            model_check(
                DigramIndex::with_capacity_and_hasher(0, BuildHasherDefault::<Constant>::default()),
                seed,
            );
        }
    }

    #[test]
    fn growth_rehomes_every_entry() {
        let mut index = DigramIndex::with_capacity_and_hasher(0, FxBuildHasher::default());
        for k in 0..10_000u64 {
            assert_eq!(index.get_or_insert(k, k + 1, k as NodeId), None);
        }
        assert!(index.slots.len() * 7 >= index.len() * 8);
        for k in 0..10_000u64 {
            assert_eq!(index.get(k, k + 1), Some(k as NodeId));
        }
    }

    #[test]
    fn slots_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 24);
    }
}
