//! A hand-rolled multiply-rotate hasher for grammar construction.
//!
//! `std`'s default `HashMap` hasher is SipHash-1-3 — keyed and
//! DoS-resistant, but ~10x slower than necessary for keys built from
//! profiler-internal ids (not attacker-controlled collision fodder).
//! When the digram index was a std `HashMap`, the hasher dominated the
//! per-symbol cost of [`Sequitur::push`](crate::Sequitur::push)
//! (DESIGN.md §13). Today the digram table (`digram.rs`) hashes its
//! two-symbol keys with this fold directly, and the large-terminal
//! intern map and the invariant checker use [`FxBuildHasher`].
//!
//! The fold is the classic Fx/FNV-style word-at-a-time one used by
//! rustc's own hash maps: for each written word,
//! `state = (state <<< 5 ^ word) * K` with an odd 64-bit multiplier.
//! It is implemented by hand here because the workspace takes no
//! external dependencies.
//!
//! The hasher cannot change any grammar the compressor produces: the
//! digram index is only ever read through point lookups, never
//! iterated during construction, and checkpoint serialization sorts
//! the entries by key
//! ([`Sequitur::save_state`](crate::Sequitur::save_state)). Hash
//! order is therefore unobservable, and output stays byte-identical
//! to a SipHash build — the differential and golden-fixture tests
//! pin this down.

use std::hash::{BuildHasher, Hasher};

/// The odd multiplier: `2^64 / phi`, the same constant family rustc's
/// `FxHasher` uses for its 64-bit fold.
const K: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// One word-at-a-time multiply-rotate hash state.
///
/// Not DoS-resistant — use only for maps keyed by trusted,
/// profiler-internal values (digrams, ids), never for
/// attacker-supplied data.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            // analyze: allow(le-bytes): hash-state word assembly, not wire framing
            self.fold(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // analyze: allow(le-bytes): hash-state word assembly, not wire framing
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.fold(n as u64);
        self.fold((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_i8(&mut self, n: i8) {
        self.fold(n as u8 as u64);
    }

    #[inline]
    fn write_i16(&mut self, n: i16) {
        self.fold(n as u16 as u64);
    }

    #[inline]
    fn write_i32(&mut self, n: i32) {
        self.fold(n as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.fold(n as u64);
    }
}

/// [`BuildHasher`] producing [`FxHasher64`]s; stateless, so every map
/// built from it hashes identically (no per-map random keys).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher64;

    #[inline]
    fn build_hasher(&self) -> FxHasher64 {
        FxHasher64::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher.hash_one(v)
    }

    #[test]
    fn equal_values_hash_equal_across_builders() {
        // Stateless builder: two maps (or two runs) agree on every key.
        assert_eq!(hash_of(&(3u64, 4u64)), hash_of(&(3u64, 4u64)));
        assert_eq!(hash_of(&"digram"), hash_of(&"digram"));
    }

    #[test]
    fn nearby_keys_spread() {
        // The digram keyspace is dense small integers; the multiply
        // must spread consecutive ids across the full 64-bit range so
        // the map's low-bit bucket mask sees distinct values.
        let hashes: Vec<u64> = (0..1024u64).map(|i| hash_of(&(i, i + 1))).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), hashes.len(), "collisions on dense keys");
        // Low 8 bits (the bucket index for small maps) should take many
        // distinct values, not collapse to a few.
        let mut low: Vec<u8> = hashes.iter().map(|h| *h as u8).collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 128, "low bits collapsed: {}", low.len());
    }

    #[test]
    fn byte_stream_matches_word_writes_for_aligned_input() {
        // `write` folds little-endian 8-byte words exactly like
        // `write_u64`, so hashing the same logical words either way
        // agrees (padding rules differ only for ragged tails).
        let mut a = FxBuildHasher.build_hasher();
        a.write(&7u64.to_le_bytes());
        let mut b = FxBuildHasher.build_hasher();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn hashmap_with_fx_behaves_like_default_hasher_map() {
        use std::collections::HashMap;
        let mut fx: HashMap<(u64, u64), u32, FxBuildHasher> = HashMap::default();
        let mut sip: HashMap<(u64, u64), u32> = HashMap::new();
        for i in 0..500u64 {
            fx.insert((i % 97, i % 89), i as u32);
            sip.insert((i % 97, i % 89), i as u32);
        }
        for i in 0..200u64 {
            fx.remove(&(i % 97, i % 89));
            sip.remove(&(i % 97, i % 89));
        }
        assert_eq!(fx.len(), sip.len());
        for (k, v) in &sip {
            assert_eq!(fx.get(k), Some(v), "map semantics must be identical");
        }
    }
}
