//! The digram index: an open-addressing table that stores only the
//! node where each digram occurs and reads the key back from the
//! node arena.
//!
//! A general hash map would store every key next to its value: two
//! packed [`Sym`] words plus the `u32` node, 24 bytes a bucket before
//! control bytes and spare capacity. But the key is redundant — the
//! entry for digram `(a, b)` names a node `n` whose own symbol is `a`
//! and whose successor's symbol is `b`. So a slot here is the `u32`
//! node plus a one-byte hash tag, 5 bytes, and a probe that finds a
//! matching tag confirms the hit by reading `(sym(n), sym(next(n)))`
//! from the arena.
//!
//! The layout is linear probing over a power-of-two slot count (at
//! least [`MIN_SLOTS`]), kept at most half full, with backward-shift
//! deletion, so no tombstones accumulate and every probe ends at an
//! empty slot within a short cluster.
//!
//! **Invariant.** Reading keys from the arena is sound only while every
//! entry's node is live and its current digram equals the key it was
//! stored under. [`Sequitur`](crate::Sequitur) keeps this: every change
//! to a `.next` link goes through `Sequitur::join`, which unindexes the
//! left node's digram before relinking, or through `Sequitur::relink`,
//! which skips that unindex where the digram cannot be indexed at the
//! left node; and a node is unindexed before it is freed.
//! `Sequitur::assert_invariants` checks it, and a restored checkpoint
//! validates each entry before inserting it.
//!
//! `join` never indexes at its left node: its run restoration indexes
//! at `right` or at `left`'s predecessor. So a digram that a node
//! gained from a `join` at that node is not indexed there until
//! `check` indexes it, and five unindex probes of the substitution and
//! inlining paths can never hit. They are skipped, each under a
//! `debug_assert!`:
//!
//! * `substitute`, deleting `first`: its digram `a c`, gained from
//!   `join(first, c)`;
//! * `substitute`, inserting the rule use after `q`: `q`'s digram
//!   `q c`, gained from `join(q, c)`;
//! * `expand`, splicing the body in: `left right` at `left`, gained
//!   from `join(left, right)`;
//! * `expand`: `l f` at the body's last node `l`, gained from
//!   `join(l, f)`;
//! * `substitute`, deleting `second` on `match_found`'s rule-reuse
//!   branch: `a b` at `first`, which `check` has just found indexed at
//!   another node. On the new-rule branch `a b` is, or may be, indexed
//!   at the node being substituted, so both of its `substitute` calls
//!   keep the full `join`.

use std::hash::Hasher;

use crate::{FxHasher64, Node, Sym};

/// Tag value marking an empty slot; live tags are `1..=255`.
const EMPTY: u8 = 0;

/// Smallest slot count a table holds.
const MIN_SLOTS: usize = 16;

/// Bytes per slot: the node index and its tag.
const SLOT_BYTES: usize = std::mem::size_of::<u32>() + std::mem::size_of::<u8>();

/// A digram key: the packed symbols of two adjacent nodes.
pub(crate) type Key = (Sym, Sym);

/// The Fx fold of the two symbol words.
#[inline]
fn hash((a, b): Key) -> u64 {
    let mut h = FxHasher64::default();
    h.write_u64(a.0);
    h.write_u64(b.0);
    h.finish()
}

/// The tag stored beside a slot: hash bits disjoint from the ones the
/// home slot uses at any realistic size, never [`EMPTY`].
#[inline]
fn tag_of(h: u64) -> u8 {
    ((h >> 24) as u8).max(1)
}

/// The digram an indexed node currently starts.
#[inline]
pub(crate) fn key_at(arena: &[Node], node: u32) -> Key {
    let n = arena[node as usize];
    (n.sym, arena[n.next as usize].sym)
}

/// Digram → node index whose keys live in the node arena. Every
/// operation takes the arena it indexes.
#[derive(Debug, Clone)]
pub(crate) struct DigramTable {
    /// Per slot: the node where the slot's digram occurs. Meaningful
    /// only where the slot's tag is not [`EMPTY`].
    nodes: Vec<u32>,
    /// Per slot: [`EMPTY`] or the entry's hash tag.
    tags: Vec<u8>,
    /// Live entries.
    len: usize,
    /// `64 - log2(slots)`: the home slot is the hash's top bits.
    shift: u32,
}

impl Default for DigramTable {
    fn default() -> Self {
        Self::with_slots(MIN_SLOTS)
    }
}

impl DigramTable {
    fn with_slots(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two() && slots >= MIN_SLOTS);
        DigramTable {
            nodes: vec![0; slots],
            tags: vec![EMPTY; slots],
            len: 0,
            shift: 64 - slots.trailing_zeros(),
        }
    }

    /// A table that holds `entries` without growing.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        Self::with_slots(entries.saturating_mul(2).next_power_of_two().max(MIN_SLOTS))
    }

    /// Number of indexed digrams.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Number of slots (a power of two, at least [`MIN_SLOTS`]).
    pub(crate) fn slots(&self) -> usize {
        self.tags.len()
    }

    /// Capacity-based heap footprint in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.tags.capacity() * SLOT_BYTES
    }

    /// The node of every entry, in slot order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.tags
            .iter()
            .zip(&self.nodes)
            .filter(|&(&t, _)| t != EMPTY)
            .map(|(_, &n)| n)
    }

    #[inline]
    fn home(&self, h: u64) -> usize {
        (h >> self.shift) as usize
    }

    #[inline]
    fn mask(&self) -> usize {
        self.tags.len() - 1
    }

    /// Finds `key`: `Ok(slot)` holding it, or `Err(slot)`, the empty
    /// slot that ends its probe sequence.
    #[inline]
    fn probe(&self, arena: &[Node], key: Key, h: u64) -> Result<usize, usize> {
        let tag = tag_of(h);
        let mask = self.mask();
        let mut i = self.home(h);
        loop {
            let t = self.tags[i];
            if t == EMPTY {
                return Err(i);
            }
            if t == tag && key_at(arena, self.nodes[i]) == key {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The node indexed for `key`, if any.
    pub(crate) fn get(&self, arena: &[Node], key: Key) -> Option<u32> {
        self.probe(arena, key, hash(key))
            .ok()
            .map(|slot| self.nodes[slot])
    }

    /// Fills the empty slot `slot`, growing afterwards if the table is
    /// now more than half full.
    #[inline]
    fn fill(&mut self, arena: &[Node], slot: usize, h: u64, node: u32) {
        self.tags[slot] = tag_of(h);
        self.nodes[slot] = node;
        self.len += 1;
        if self.len * 2 > self.slots() {
            self.grow(arena);
        }
    }

    /// The node indexed for `key`, or, when `key` is absent, indexes it
    /// at `node` and returns `None` — one probe for the lookup that
    /// usually misses and the insert that follows it.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, arena: &[Node], key: Key, node: u32) -> Option<u32> {
        let h = hash(key);
        match self.probe(arena, key, h) {
            Ok(slot) => Some(self.nodes[slot]),
            Err(slot) => {
                self.fill(arena, slot, h, node);
                None
            }
        }
    }

    /// Indexes `key` at `node`, replacing any node it was indexed at.
    /// `node` must currently start `key`.
    pub(crate) fn insert(&mut self, arena: &[Node], key: Key, node: u32) {
        let h = hash(key);
        match self.probe(arena, key, h) {
            Ok(slot) => self.nodes[slot] = node,
            Err(slot) => self.fill(arena, slot, h, node),
        }
    }

    /// Removes `key` if it is indexed at `node`.
    #[inline]
    pub(crate) fn remove_if_at(&mut self, arena: &[Node], key: Key, node: u32) {
        if let Ok(slot) = self.probe(arena, key, hash(key)) {
            if self.nodes[slot] == node {
                self.remove_slot(arena, slot);
            }
        }
    }

    /// Empties `slot` by backward shift: each later entry of the
    /// cluster whose home slot is not between the hole and itself moves
    /// back into the hole, so every probe sequence stays unbroken.
    fn remove_slot(&mut self, arena: &[Node], mut hole: usize) {
        let mask = self.mask();
        let mut i = hole;
        loop {
            i = (i + 1) & mask;
            if self.tags[i] == EMPTY {
                break;
            }
            let home = self.home(hash(key_at(arena, self.nodes[i])));
            // The entry at `i` may fill the hole unless its home lies
            // cyclically in `(hole, i]`.
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.tags[hole] = self.tags[i];
                self.nodes[hole] = self.nodes[i];
                hole = i;
            }
        }
        self.tags[hole] = EMPTY;
        self.len -= 1;
    }

    /// Doubles the slot count, re-placing every entry by its key.
    #[cold]
    fn grow(&mut self, arena: &[Node]) {
        let mut next = Self::with_slots(self.slots() * 2);
        let mask = next.mask();
        for node in self.iter() {
            let h = hash(key_at(arena, node));
            let mut i = next.home(h);
            while next.tags[i] != EMPTY {
                i = (i + 1) & mask;
            }
            next.tags[i] = tag_of(h);
            next.nodes[i] = node;
        }
        next.len = self.len;
        *self = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NIL;

    /// An arena of `n` nodes where node `i` starts the digram
    /// `(i, i + 1)` — one distinct digram per node but the last.
    fn chain(n: u32) -> Vec<Node> {
        (0..n)
            .map(|i| Node {
                sym: Sym(u64::from(i)),
                prev: i.checked_sub(1).unwrap_or(NIL),
                next: if i + 1 < n { i + 1 } else { NIL },
            })
            .collect()
    }

    #[test]
    fn inserts_find_and_removes_restore_probe_chains() {
        let arena = chain(2001);
        let mut t = DigramTable::default();
        for n in 0..2000 {
            assert_eq!(t.get_or_insert(&arena, key_at(&arena, n), n), None);
        }
        assert_eq!(t.len(), 2000);
        assert!(t.slots() >= 4000 && t.slots().is_power_of_two());
        for n in 0..2000 {
            assert_eq!(t.get_or_insert(&arena, key_at(&arena, n), NIL), Some(n));
        }
        // Removing every other entry must leave the rest reachable.
        for n in (0..2000).step_by(2) {
            t.remove_if_at(&arena, key_at(&arena, n), n);
        }
        assert_eq!(t.len(), 1000);
        for n in 0..2000 {
            let expect = (n % 2 == 1).then_some(n);
            let key = key_at(&arena, n);
            assert_eq!(
                t.probe(&arena, key, hash(key)).ok().map(|s| t.nodes[s]),
                expect
            );
        }
    }

    #[test]
    fn remove_if_at_keeps_an_entry_indexed_elsewhere() {
        let arena = chain(3);
        let mut t = DigramTable::default();
        t.insert(&arena, key_at(&arena, 0), 0);
        t.remove_if_at(&arena, key_at(&arena, 0), 1);
        assert_eq!(t.len(), 1);
        t.remove_if_at(&arena, key_at(&arena, 0), 0);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn stays_at_most_half_full() {
        let arena = chain(10_001);
        let mut t = DigramTable::default();
        assert_eq!(t.slots(), MIN_SLOTS);
        for n in 0..10_000 {
            t.insert(&arena, key_at(&arena, n), n);
            assert!(t.len() * 2 <= t.slots());
        }
        assert_eq!(t.slots(), 32_768);
        assert_eq!(t.heap_bytes(), 32_768 * SLOT_BYTES);
    }
}
