//! The digram index: a flat open-addressed hash table from a digram (two
//! packed symbol words) to the node where that digram starts.
//!
//! SEQUITUR probes the index on every pushed symbol and deletes from it
//! about as often as it inserts, so the table is built for exactly that
//! mix:
//!
//! - **Flat 8-byte slots** `node | hash << 32` in one power-of-two array,
//!   probed linearly from the key's home slot. An empty slot is all ones
//!   (node id `u32::MAX`, which no entry uses).
//! - **Keys read back from the nodes.** A slot stores no key: every entry
//!   points at a node whose current digram *is* its key, so a probe whose
//!   stored hash matches reads the key back through [`Keys`] (the node's
//!   symbol and its successor's). The caller keeps entries fresh: a node's
//!   entry is removed before its digram changes or the node is freed.
//! - **Backward-shift deletion**, so there are no tombstones: removing an
//!   entry moves later members of its probe run back into the hole, and a
//!   lookup can stop at the first empty slot however much churn the table
//!   has seen.
//! - **Fused operations.** [`get_or_insert`](DigramIndex::get_or_insert)
//!   costs one probe sequence where a map's `get` followed by `insert`
//!   costs two, [`insert`](DigramIndex::insert) returns the node it
//!   displaced, and [`remove`](DigramIndex::remove) looks for the exact
//!   slot value of a known entry without reading any key.
//!
//! The home slot is the top bits of the stored hash (the best-mixed bits
//! of a multiplicative hash), and growth (at a load of 7/8) re-homes
//! every entry from its stored hash without hashing or reading its key.

use std::hash::BuildHasher;

/// Node ids, as in the builder's arena.
pub(crate) type NodeId = u32;

/// Slots in a new table.
const MIN_SLOTS: usize = 16;

/// One slot: the node id in the low half, the stored hash in the high half.
type Slot = u64;

/// An empty slot: node `u32::MAX` (and an all-ones hash).
const EMPTY: Slot = u64::MAX;

/// Where the index reads an entry's key back from.
pub(crate) trait Keys {
    /// The digram, as two symbol words, that starts at `node`.
    fn key(&self, node: NodeId) -> (u64, u64);
}

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

    /// Bytes of slot storage.
    pub(crate) fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Slot>()
    }

    /// The node indexed under digram `(a, b)`, if any.
    pub(crate) fn get(&self, a: u64, b: u64, keys: &(impl Keys + ?Sized)) -> Option<NodeId> {
        self.find(a, b, self.hash(a, b), keys)
            .ok()
            .map(|i| node_of(self.slots[i]))
    }

    /// Returns the node indexed under `(a, b)`, or indexes `node` there
    /// and returns `None` if the digram was absent.
    pub(crate) fn get_or_insert(
        &mut self,
        a: u64,
        b: u64,
        node: NodeId,
        keys: &(impl Keys + ?Sized),
    ) -> Option<NodeId> {
        self.reserve_one();
        let hash = self.hash(a, b);
        match self.find(a, b, hash, keys) {
            Ok(i) => Some(node_of(self.slots[i])),
            Err(i) => {
                self.slots[i] = pack(node, hash);
                self.len += 1;
                None
            }
        }
    }

    /// Indexes `node` under `(a, b)`, returning the node the previous
    /// entry pointed at, if there was one.
    pub(crate) fn insert(
        &mut self,
        a: u64,
        b: u64,
        node: NodeId,
        keys: &(impl Keys + ?Sized),
    ) -> Option<NodeId> {
        self.reserve_one();
        let hash = self.hash(a, b);
        let (i, old) = match self.find(a, b, hash, keys) {
            Ok(i) => (i, Some(node_of(self.slots[i]))),
            Err(i) => {
                self.len += 1;
                (i, None)
            }
        };
        self.slots[i] = pack(node, hash);
        old
    }

    /// Removes the entry `(a, b) -> node`, which must exist.
    ///
    /// Looks for the slot value `node | hash(a, b)`: only this entry can
    /// hold it, because no other entry points at `node`.
    pub(crate) fn remove(&mut self, a: u64, b: u64, node: NodeId) {
        let hash = self.hash(a, b);
        let want = pack(node, hash);
        let mask = self.mask();
        let mut i = self.home(hash);
        while self.slots[i] != want {
            assert_ne!(self.slots[i], EMPTY, "removing an absent digram entry");
            i = (i + 1) & mask;
        }
        self.remove_at(i);
    }

    /// The node of every entry, in slot order.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .filter(|&&s| s != EMPTY)
            .map(|&s| node_of(s))
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
    /// ends its probe run, where it would be inserted. A key is read back
    /// only from a slot whose stored hash matches.
    fn find(&self, a: u64, b: u64, hash: u32, keys: &(impl Keys + ?Sized)) -> Result<usize, usize> {
        let mask = self.mask();
        let mut i = self.home(hash);
        loop {
            let s = self.slots[i];
            if s == EMPTY {
                return Err(i);
            }
            if hash_of(s) == hash && keys.key(node_of(s)) == (a, b) {
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
            if s == EMPTY {
                break;
            }
            let home = self.home(hash_of(s));
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
        for s in old.into_iter().filter(|&s| s != EMPTY) {
            let mut i = self.home(hash_of(s));
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

fn pack(node: NodeId, hash: u32) -> Slot {
    debug_assert_ne!(node, NodeId::MAX, "the empty-slot node id");
    u64::from(node) | (u64::from(hash) << 32)
}

fn node_of(s: Slot) -> NodeId {
    s as u32
}

fn hash_of(s: Slot) -> u32 {
    (s >> 32) as u32
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

    /// A test-side arena: node `n`'s key is `self[n]`.
    impl Keys for [(u64, u64)] {
        fn key(&self, node: NodeId) -> (u64, u64) {
            self[node as usize]
        }
    }

    /// Nodes in the model's arena.
    const NODES: usize = 48;

    /// Drives the index and a `std` map model through the same random
    /// fused look-ups, inserts and removes over a small arena whose nodes
    /// share keys drawn from a small key space (so keys collide, recur
    /// and are deleted often), checking every answer, the length, and
    /// finally the full contents. As in the builder, a node's key changes
    /// only while no entry points at the node, and `remove` is called
    /// only for an entry that exists.
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
        // Keys near 0 and with high tag bits both occur.
        let key = |r: u64| (((r >> 8) % 12) | ((r & 1) << 63), (r >> 16) % 12);
        let mut arena: Vec<(u64, u64)> = (0..NODES).map(|_| key(next())).collect();
        let indexed = |model: &HashMap<(u64, u64), NodeId>, arena: &[(u64, u64)], n: NodeId| {
            model.get(&arena[n as usize]) == Some(&n)
        };
        for step in 0..20_000 {
            let r = next();
            let node = (r >> 40) as NodeId % NODES as NodeId;
            let k @ (a, b) = arena[node as usize];
            match r % 6 {
                0 | 1 => {
                    let got = index.get_or_insert(a, b, node, &arena[..]);
                    let want = model.get(&k).copied();
                    if want.is_none() {
                        model.insert(k, node);
                    }
                    assert_eq!(got, want, "step {step}: get_or_insert({a}, {b})");
                }
                2 => assert_eq!(
                    index.insert(a, b, node, &arena[..]),
                    model.insert(k, node),
                    "step {step}: insert({a}, {b})"
                ),
                3 => {
                    if indexed(&model, &arena, node) {
                        index.remove(a, b, node);
                        model.remove(&k);
                    }
                }
                4 => {
                    // Re-key a node no entry points at.
                    if !indexed(&model, &arena, node) {
                        arena[node as usize] = key(next());
                    }
                }
                _ => assert_eq!(
                    index.get(a, b, &arena[..]),
                    model.get(&k).copied(),
                    "step {step}: get({a}, {b})"
                ),
            }
            assert_eq!(index.len(), model.len(), "step {step}: len");
        }
        let mut entries: Vec<((u64, u64), NodeId)> =
            index.nodes().map(|n| (arena[n as usize], n)).collect();
        entries.sort_unstable();
        let mut want: Vec<((u64, u64), NodeId)> = model.into_iter().collect();
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
        let arena: Vec<(u64, u64)> = (0..10_000u64).map(|k| (k, k + 1)).collect();
        let mut index = DigramIndex::with_capacity_and_hasher(0, FxBuildHasher::default());
        for k in 0..10_000u64 {
            assert_eq!(index.get_or_insert(k, k + 1, k as NodeId, &arena[..]), None);
        }
        assert!(index.slots.len() * 7 >= index.len() * 8);
        assert_eq!(index.bytes(), index.slots.len() * 8);
        for k in 0..10_000u64 {
            assert_eq!(index.get(k, k + 1, &arena[..]), Some(k as NodeId));
        }
    }

    #[test]
    #[should_panic(expected = "absent digram entry")]
    fn removing_an_absent_entry_panics() {
        let arena = [(1, 2), (1, 2)];
        let mut index = DigramIndex::with_capacity_and_hasher(0, FxBuildHasher::default());
        index.insert(1, 2, 0, &arena[..]);
        index.remove(1, 2, 1);
    }

    #[test]
    fn slots_are_8_bytes() {
        assert_eq!(std::mem::size_of::<Slot>(), 8);
    }
}
