//! Binary serialization for grammars and compressor checkpoints.
//!
//! Grammar payloads use the varint codecs from [`orp_format`], matching
//! [`Grammar::encoded_bytes`] exactly: a grammar payload is
//! `varint(rule_count)` followed by, per rule, `varint(body_len)` and
//! one tagged varint per symbol (`2·value + 1` for terminals,
//! `2·rule_id` for rule references). Standalone grammar *files* wrap
//! that payload in a `.orp` container ([`Grammar::write_container`]).
//!
//! Mid-run checkpoints ([`Sequitur::save_state`]) serialize the
//! compressor's *full* internal state — arena nodes, free lists, rule
//! slots, and the digram index — rather than a grammar snapshot.
//! Rebuilding from a snapshot is not exact: which occurrence of an
//! overlapping digram (a run like `aaa`) is indexed depends on
//! insertion history and steers future overlap decisions, so only a
//! verbatim restore guarantees a resumed run matches an uninterrupted
//! one byte for byte.

use std::io::{self, Read, Write};

use orp_format::{
    read_single_chunk, read_varint, varint_len, write_single_chunk, write_varint, FormatError,
    ProfileKind,
};

use crate::digram::{key_at, DigramTable};
use crate::{Grammar, GrammarSymbol, Node, RuleId, RuleSlot, Sequitur, Sym, NIL};

fn bad_data(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Whether any rule (not just the start rule) participates in a
/// reference cycle. Sequitur never produces one, but a crafted payload
/// can — and the expansion walks (`expanded_len`, `expand`) rely on
/// acyclicity, so a cyclic grammar must be rejected at the decode
/// boundary. Iterative tri-color DFS; runs in time linear in the
/// grammar size.
fn has_cycle(rules: &[Vec<GrammarSymbol>]) -> bool {
    const ON_STACK: u8 = 1;
    const DONE: u8 = 2;
    let mut state = vec![0u8; rules.len()];
    for start in 0..rules.len() {
        if state.get(start).copied() != Some(0) {
            continue;
        }
        // A frame is (rule, next symbol offset in its body).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        if let Some(s) = state.get_mut(start) {
            *s = ON_STACK;
        }
        while let Some((rule, idx)) = stack.pop() {
            let Some(body) = rules.get(rule) else {
                continue;
            };
            match body.get(idx) {
                None => {
                    if let Some(s) = state.get_mut(rule) {
                        *s = DONE;
                    }
                }
                Some(GrammarSymbol::Terminal(_)) => stack.push((rule, idx + 1)),
                Some(GrammarSymbol::Rule(RuleId(r))) => {
                    let child = *r as usize;
                    stack.push((rule, idx + 1));
                    match state.get(child).copied() {
                        Some(0) => {
                            if let Some(s) = state.get_mut(child) {
                                *s = ON_STACK;
                            }
                            stack.push((child, 0));
                        }
                        Some(ON_STACK) => return true,
                        _ => {}
                    }
                }
            }
        }
    }
    false
}

impl Grammar {
    /// Serializes the grammar payload.
    ///
    /// The payload after the `varint(rule_count)` header is exactly
    /// [`Grammar::encoded_bytes`] bytes long.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write_varint(w, self.rule_count() as u64)?;
        for (_, body) in self.iter() {
            write_varint(w, body.len() as u64)?;
            for sym in body {
                match sym {
                    GrammarSymbol::Terminal(t) => {
                        let tagged = t.checked_shl(1).ok_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidInput,
                                "terminal exceeds the tagged-varint space",
                            )
                        })? | 1;
                        write_varint(w, tagged)?;
                    }
                    GrammarSymbol::Rule(RuleId(r)) => write_varint(w, u64::from(*r) << 1)?,
                }
            }
        }
        Ok(())
    }

    /// Deserializes a grammar payload written by [`Grammar::write_to`].
    ///
    /// # Errors
    ///
    /// Propagates reader errors; rejects empty grammars and dangling
    /// rule references.
    pub fn read_from(r: &mut impl Read) -> io::Result<Self> {
        let rule_count = read_varint(r)?;
        if rule_count == 0 {
            return Err(bad_data("grammar has no rules"));
        }
        let mut rules = Vec::with_capacity(usize::try_from(rule_count).unwrap_or(0).min(1 << 20));
        for _ in 0..rule_count {
            let len = read_varint(r)?;
            let mut body = Vec::with_capacity(usize::try_from(len).unwrap_or(0).min(1 << 20));
            for _ in 0..len {
                let tagged = read_varint(r)?;
                body.push(if tagged & 1 == 1 {
                    GrammarSymbol::Terminal(tagged >> 1)
                } else {
                    let id = tagged >> 1;
                    if id >= rule_count {
                        return Err(bad_data("rule reference out of range"));
                    }
                    GrammarSymbol::Rule(RuleId(id as u32))
                });
            }
            rules.push(body);
        }
        if has_cycle(&rules) {
            return Err(bad_data("cyclic rule reference"));
        }
        Ok(Grammar::from_rules(rules))
    }

    /// Writes the grammar as a standalone `.orp` container.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_container(&self, w: impl Write) -> io::Result<()> {
        let mut payload = Vec::new();
        self.write_to(&mut payload)?;
        write_single_chunk(w, ProfileKind::Grammar, &payload)
    }

    /// Reads a standalone grammar container written by
    /// [`Grammar::write_container`].
    ///
    /// # Errors
    ///
    /// Typed [`FormatError`]s for envelope damage; payload errors from
    /// [`Grammar::read_from`].
    pub fn read_container(r: impl Read) -> Result<Self, FormatError> {
        let payload = read_single_chunk(r, ProfileKind::Grammar)?;
        let mut cursor = payload.as_slice();
        let grammar = Grammar::read_from(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(FormatError::Malformed("trailing bytes after grammar"));
        }
        Ok(grammar)
    }

    /// The exact on-disk payload size: [`Grammar::encoded_bytes`] plus
    /// the rule-count header.
    #[must_use]
    pub fn serialized_len(&self) -> u64 {
        varint_len(self.rule_count() as u64) + self.encoded_bytes()
    }
}

impl Sequitur {
    /// Stable sort/serialization key for a [`Sym`]: `(tag, value)`,
    /// where terminals carry their *raw* value (resolving the intern
    /// table for large ones) so the on-disk format is independent of
    /// the packed in-memory representation.
    fn sym_key(&self, s: Sym) -> (u8, u64) {
        if let Some(t) = self.terminal_value(s) {
            (0, t)
        } else if let Some(r) = s.as_rule() {
            (1, u64::from(r))
        } else if let Some(r) = s.as_guard() {
            (2, u64::from(r))
        } else {
            (3, 0)
        }
    }

    fn write_sym(&self, w: &mut impl Write, s: Sym) -> io::Result<()> {
        let (tag, value) = self.sym_key(s);
        w.write_all(&[tag])?;
        write_varint(w, value)
    }

    /// Reads one symbol, interning large terminals into this
    /// compressor's tables (interning dedups, so the ids a restore
    /// assigns are consistent across every occurrence of a value).
    fn read_sym(&mut self, r: &mut impl Read) -> io::Result<Sym> {
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let [tag] = tag;
        let value = read_varint(r)?;
        let as_u32 =
            |v: u64| u32::try_from(v).map_err(|_| bad_data("symbol index exceeds u32 range"));
        Ok(match tag {
            0 => self.intern(value),
            1 => Sym::rule(as_u32(value)?),
            2 => Sym::guard(as_u32(value)?),
            3 => Sym::FREE,
            _ => return Err(bad_data("unknown symbol tag")),
        })
    }

    /// Validates a restored digram entry against the restored arena.
    /// The index reads its keys back from the arena, so an entry whose
    /// node is free, ends its rule, or starts a different digram would
    /// make a later probe read garbage or index past the arena.
    fn check_digram_entry(&self, (a, b): (Sym, Sym), node: u32) -> io::Result<()> {
        let live = |s: Sym| s != Sym::FREE && !s.is_guard();
        if !live(a) || !live(b) {
            return Err(bad_data("digram key holds a guard or free symbol"));
        }
        let node_at = |n: u32| self.nodes.get(n as usize).map(|n| (n.sym, n.next));
        let Some((first, next)) = node_at(node).filter(|&(sym, _)| sym != Sym::FREE) else {
            return Err(bad_data("digram entry names a free node"));
        };
        let Some((second, _)) = node_at(next).filter(|&(sym, _)| live(sym)) else {
            return Err(bad_data("digram entry's node starts no digram"));
        };
        if (first, second) != (a, b) {
            return Err(bad_data(
                "digram entry's key differs from its node's digram",
            ));
        }
        Ok(())
    }
}

/// Reads a node/rule index that may be the `NIL` sentinel; anything
/// else must be below `limit`.
fn read_index(r: &mut impl Read, limit: usize) -> io::Result<u32> {
    let v = read_varint(r)?;
    let v = u32::try_from(v).map_err(|_| bad_data("index exceeds u32 range"))?;
    if v != NIL && (v as usize) >= limit {
        return Err(bad_data("index out of range"));
    }
    Ok(v)
}

impl Sequitur {
    /// Serializes the compressor's complete internal state.
    ///
    /// The digram index is written sorted by key so equal states always
    /// produce equal bytes.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save_state(&self, w: &mut impl Write) -> io::Result<()> {
        self.write_arena(w)?;
        let mut digrams: Vec<((Sym, Sym), u32)> = self
            .digrams
            .iter()
            .map(|node| (key_at(&self.nodes, node), node))
            .collect();
        digrams.sort_by_key(|((a, b), _)| (self.sym_key(*a), self.sym_key(*b)));
        self.write_digrams(w, &digrams)
    }

    /// The checkpoint's arena part: input length, nodes, free nodes,
    /// rule slots and free rules.
    fn write_arena(&self, w: &mut impl Write) -> io::Result<()> {
        write_varint(w, self.input_len)?;
        write_varint(w, self.nodes.len() as u64)?;
        for node in &self.nodes {
            self.write_sym(w, node.sym)?;
            write_varint(w, u64::from(node.prev))?;
            write_varint(w, u64::from(node.next))?;
        }
        write_varint(w, self.free_nodes.len() as u64)?;
        for &idx in &self.free_nodes {
            write_varint(w, u64::from(idx))?;
        }
        write_varint(w, self.rules.len() as u64)?;
        for slot in &self.rules {
            write_varint(w, u64::from(slot.guard))?;
            write_varint(w, u64::from(slot.uses))?;
        }
        write_varint(w, self.free_rules.len() as u64)?;
        for &idx in &self.free_rules {
            write_varint(w, u64::from(idx))?;
        }
        Ok(())
    }

    /// The checkpoint's digram part: the entries as given.
    fn write_digrams(&self, w: &mut impl Write, digrams: &[((Sym, Sym), u32)]) -> io::Result<()> {
        write_varint(w, digrams.len() as u64)?;
        for &((a, b), node) in digrams {
            self.write_sym(w, a)?;
            self.write_sym(w, b)?;
            write_varint(w, u64::from(node))?;
        }
        Ok(())
    }

    /// Restores a compressor from [`Sequitur::save_state`] output.
    ///
    /// The restored compressor continues the input stream exactly as
    /// the saved one would have: resuming mid-stream is byte-identical
    /// to never stopping.
    ///
    /// # Errors
    ///
    /// Propagates reader errors; rejects out-of-range indices, unknown
    /// symbol tags, and digram entries that do not name a live node
    /// starting exactly their digram.
    pub fn restore_state(r: &mut impl Read) -> io::Result<Self> {
        let mut seq = Sequitur::blank();
        seq.input_len = read_varint(r)?;
        let node_count =
            usize::try_from(read_varint(r)?).map_err(|_| bad_data("node count exceeds usize"))?;
        if node_count >= NIL as usize {
            return Err(bad_data("node count exceeds u32 arena"));
        }
        seq.nodes.reserve(node_count.min(1 << 20));
        for _ in 0..node_count {
            let sym = seq.read_sym(r)?;
            let prev = read_index(r, node_count)?;
            let next = read_index(r, node_count)?;
            seq.nodes.push(Node { sym, prev, next });
        }
        let free_count = usize::try_from(read_varint(r)?)
            .map_err(|_| bad_data("free-node count exceeds usize"))?;
        if free_count > node_count {
            return Err(bad_data("more free nodes than nodes"));
        }
        seq.free_nodes.reserve(free_count.min(1 << 20));
        for _ in 0..free_count {
            let idx = read_index(r, node_count)?;
            if idx == NIL {
                return Err(bad_data("NIL on the free-node list"));
            }
            if seq.nodes.get(idx as usize).map(|n| n.sym) != Some(Sym::FREE) {
                return Err(bad_data("free-node list names a live node"));
            }
            seq.free_nodes.push(idx);
        }
        let rule_count =
            usize::try_from(read_varint(r)?).map_err(|_| bad_data("rule count exceeds usize"))?;
        if rule_count == 0 || rule_count >= NIL as usize {
            return Err(bad_data("rule table must hold the start rule"));
        }
        seq.rules.reserve(rule_count.min(1 << 20));
        for _ in 0..rule_count {
            let guard = read_index(r, node_count)?;
            let uses = read_index(r, usize::MAX)?;
            seq.rules.push(RuleSlot { guard, uses });
        }
        let free_rule_count = usize::try_from(read_varint(r)?)
            .map_err(|_| bad_data("free-rule count exceeds usize"))?;
        if free_rule_count > rule_count {
            return Err(bad_data("more free rules than rules"));
        }
        seq.free_rules.reserve(free_rule_count.min(1 << 20));
        for _ in 0..free_rule_count {
            let idx = read_index(r, rule_count)?;
            if idx == NIL {
                return Err(bad_data("NIL on the free-rule list"));
            }
            seq.free_rules.push(idx);
        }
        let digram_count =
            usize::try_from(read_varint(r)?).map_err(|_| bad_data("digram count exceeds usize"))?;
        if digram_count > node_count {
            return Err(bad_data("more digrams than nodes"));
        }
        seq.digrams = DigramTable::with_capacity(digram_count.min(1 << 20));
        for _ in 0..digram_count {
            let a = seq.read_sym(r)?;
            let b = seq.read_sym(r)?;
            let node = read_index(r, node_count)?;
            if node == NIL {
                return Err(bad_data("NIL digram node"));
            }
            seq.check_digram_entry((a, b), node)?;
            seq.digrams.insert(&seq.nodes, (a, b), node);
        }
        let start_guard = seq.rules.first().map_or(NIL, |start| start.guard);
        if start_guard == NIL || (start_guard as usize) >= node_count {
            return Err(bad_data("start rule has no guard node"));
        }
        seq.check_rule_lists()?;
        Ok(seq)
    }

    /// Walks every live rule's circular body list from its guard: each
    /// `next` link must be non-`NIL` and mirrored by its target's `prev`
    /// (which, once the walk closes, covers every `prev`), the guard must
    /// carry its own rule's guard symbol, the body only live non-guard
    /// symbols, and the walk must come back to the guard. `push` and the rule rewrites follow these links without
    /// checks, so a list broken anywhere would index `nodes[NIL]` on
    /// the first push instead of failing here. No node may sit on two
    /// lists, which also bounds the whole walk by the node count.
    fn check_rule_lists(&self) -> io::Result<()> {
        let mut seen = vec![false; self.nodes.len()];
        for (rule, slot) in (0u32..).zip(&self.rules) {
            if slot.guard == NIL {
                continue;
            }
            let mut at = slot.guard;
            loop {
                let (Some(node), Some(visited)) =
                    (self.nodes.get(at as usize), seen.get_mut(at as usize))
                else {
                    return Err(bad_data("rule list link is NIL"));
                };
                if std::mem::replace(visited, true) {
                    return Err(bad_data("rule list does not close at its guard"));
                }
                let sym_ok = if at == slot.guard {
                    node.sym == Sym::guard(rule)
                } else {
                    node.sym != Sym::FREE && !node.sym.is_guard()
                };
                if !sym_ok {
                    return Err(bad_data("rule list holds a foreign symbol"));
                }
                let mirrored = self.nodes.get(node.next as usize).map(|n| n.prev) == Some(at);
                if !mirrored {
                    return Err(bad_data("rule list links do not mirror"));
                }
                at = node.next;
                if at == slot.guard {
                    break;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sequitur;

    #[test]
    fn grammar_roundtrip_preserves_expansion() {
        let mut seq = Sequitur::new();
        seq.extend(
            "the quick brown fox the quick brown fox jumps"
                .bytes()
                .map(u64::from),
        );
        let grammar = seq.grammar();
        let mut buf = Vec::new();
        grammar.write_to(&mut buf).unwrap();
        assert_eq!(
            buf.len() as u64,
            grammar.serialized_len(),
            "size model is exact"
        );
        let back = Grammar::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, grammar);
        assert_eq!(back.expand(), grammar.expand());
    }

    #[test]
    fn empty_start_rule_roundtrips() {
        let grammar = Sequitur::new().grammar();
        let mut buf = Vec::new();
        grammar.write_to(&mut buf).unwrap();
        let back = Grammar::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.expand(), Vec::<u64>::new());
    }

    #[test]
    fn dangling_rule_reference_is_rejected() {
        // Hand-craft: 1 rule whose body references rule 5.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1).unwrap(); // rule count
        write_varint(&mut buf, 1).unwrap(); // body length
        write_varint(&mut buf, 5 << 1).unwrap(); // rule ref 5
        assert!(Grammar::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn cyclic_rule_reference_is_rejected() {
        // Sequitur never emits a cycle, but a crafted payload can:
        // rule 1 referencing itself used to survive decoding and then
        // hang/panic the expansion walks (`expanded_len`, `expand`).
        let mut direct = Vec::new();
        write_varint(&mut direct, 2).unwrap(); // rule count
        write_varint(&mut direct, 1).unwrap(); // rule 0: body length
        write_varint(&mut direct, 1 << 1).unwrap(); //   ref rule 1
        write_varint(&mut direct, 1).unwrap(); // rule 1: body length
        write_varint(&mut direct, 1 << 1).unwrap(); //   ref rule 1 (self)
        let err = Grammar::read_from(&mut direct.as_slice()).unwrap_err();
        assert!(err.to_string().contains("cyclic"), "{err}");

        // Mutual recursion two hops away from the start rule.
        let mut mutual = Vec::new();
        write_varint(&mut mutual, 3).unwrap();
        for body_ref in [1u64, 2, 1] {
            write_varint(&mut mutual, 1).unwrap();
            write_varint(&mut mutual, body_ref << 1).unwrap();
        }
        let err = Grammar::read_from(&mut mutual.as_slice()).unwrap_err();
        assert!(err.to_string().contains("cyclic"), "{err}");
    }

    #[test]
    fn cyclic_grammar_in_container_errors_not_panics() {
        let mut payload = Vec::new();
        write_varint(&mut payload, 1).unwrap();
        write_varint(&mut payload, 1).unwrap();
        write_varint(&mut payload, 0 << 1).unwrap(); // start rule refs itself
        let mut container = Vec::new();
        write_single_chunk(&mut container, ProfileKind::Grammar, &payload).unwrap();
        assert!(Grammar::read_container(container.as_slice()).is_err());
    }

    #[test]
    fn truncated_grammar_is_rejected() {
        let mut seq = Sequitur::new();
        seq.extend([1, 2, 1, 2, 1, 2]);
        let mut buf = Vec::new();
        seq.grammar().write_to(&mut buf).unwrap();
        buf.pop();
        assert!(Grammar::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn grammar_container_roundtrips() {
        let mut seq = Sequitur::new();
        seq.extend("abcbcabcbc".bytes().map(u64::from));
        let grammar = seq.grammar();
        let mut buf = Vec::new();
        grammar.write_container(&mut buf).unwrap();
        let back = Grammar::read_container(buf.as_slice()).unwrap();
        assert_eq!(back, grammar);
    }

    #[test]
    fn state_roundtrip_is_verbatim() {
        let mut seq = Sequitur::new();
        seq.extend("mississippi$mississippi$miss".bytes().map(u64::from));
        let mut buf = Vec::new();
        seq.save_state(&mut buf).unwrap();
        let back = Sequitur::restore_state(&mut buf.as_slice()).unwrap();
        assert_eq!(back.input_len(), seq.input_len());
        assert_eq!(back.grammar(), seq.grammar());
        back.assert_invariants();
    }

    #[test]
    fn resumed_stream_matches_uninterrupted() {
        // The checkpoint guarantee: split the input anywhere, save and
        // restore at the cut, and the final grammar bytes must be
        // identical to never stopping. Runs of equal symbols are the
        // adversarial case (overlapping-digram bookkeeping).
        let input: Vec<u64> = "aaaabaaaabaaaabxyxyxyaaa".bytes().map(u64::from).collect();
        for cut in 0..=input.len() {
            let mut whole = Sequitur::new();
            whole.extend(input.iter().copied());

            let mut first = Sequitur::new();
            first.extend(input[..cut].iter().copied());
            let mut buf = Vec::new();
            first.save_state(&mut buf).unwrap();
            let mut resumed = Sequitur::restore_state(&mut buf.as_slice()).unwrap();
            resumed.extend(input[cut..].iter().copied());
            resumed.assert_invariants();

            let mut a = Vec::new();
            let mut b = Vec::new();
            whole.grammar().write_to(&mut a).unwrap();
            resumed.grammar().write_to(&mut b).unwrap();
            assert_eq!(a, b, "divergence when cutting at {cut}");

            // The internal state must also re-serialize identically, so
            // a second checkpoint of the resumed run matches.
            let mut whole_state = Vec::new();
            let mut resumed_state = Vec::new();
            whole.save_state(&mut whole_state).unwrap();
            resumed.save_state(&mut resumed_state).unwrap();
            assert_eq!(whole_state, resumed_state, "state drift at cut {cut}");
        }
    }

    #[test]
    fn huge_declared_counts_error_without_huge_allocation() {
        // A tiny file may declare near-u32::MAX element counts; every
        // `reserve` on the decode path is clamped, so the parse must
        // fail on the missing data instead of pre-allocating gigabytes.
        let mut buf = Vec::new();
        write_varint(&mut buf, 0).unwrap(); // input_len
        write_varint(&mut buf, u64::from(NIL - 1)).unwrap(); // node count
        assert!(Sequitur::restore_state(&mut buf.as_slice()).is_err());

        // Same for a grammar payload declaring a huge rule count.
        let mut grammar = Vec::new();
        write_varint(&mut grammar, u64::MAX).unwrap();
        assert!(Grammar::read_from(&mut grammar.as_slice()).is_err());
    }

    /// A checkpoint of `seq` whose digram section holds `entries`
    /// instead of `seq`'s own index.
    fn state_with_digrams(seq: &Sequitur, entries: &[((Sym, Sym), u32)]) -> Vec<u8> {
        let mut buf = Vec::new();
        seq.write_arena(&mut buf).unwrap();
        seq.write_digrams(&mut buf, entries).unwrap();
        buf
    }

    /// A compressor with a formed rule (so freed nodes exist), and the
    /// first and last body nodes of its start rule.
    fn hostile_base() -> (Sequitur, u32, u32) {
        let mut seq = Sequitur::new();
        seq.extend([1, 2, 3, 1, 2, 3, 4]);
        assert!(!seq.free_nodes.is_empty());
        let guard = seq.rules[0].guard;
        let (first, last) = (
            seq.nodes[guard as usize].next,
            seq.nodes[guard as usize].prev,
        );
        (seq, first, last)
    }

    fn assert_rejected(state: &[u8], msg: &str) {
        let err = Sequitur::restore_state(&mut &state[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains(msg), "{err}");
    }

    #[test]
    fn digram_section_rewriter_roundtrips_the_real_index() {
        let (seq, _, _) = hostile_base();
        let mut entries: Vec<_> = seq
            .digrams
            .iter()
            .map(|n| (key_at(&seq.nodes, n), n))
            .collect();
        entries.sort_by_key(|((a, b), _)| (seq.sym_key(*a), seq.sym_key(*b)));
        let mut saved = Vec::new();
        seq.save_state(&mut saved).unwrap();
        assert_eq!(state_with_digrams(&seq, &entries), saved);
        Sequitur::restore_state(&mut saved.as_slice()).unwrap();
    }

    #[test]
    fn free_list_naming_a_live_node_is_rejected() {
        // A live node on the free list would be recycled under any
        // digram entry that names it.
        let (mut seq, first, _) = hostile_base();
        seq.free_nodes.push(first);
        let mut state = Vec::new();
        seq.save_state(&mut state).unwrap();
        assert_rejected(&state, "free-node list names a live node");
    }

    #[test]
    fn digram_entry_naming_a_free_node_is_rejected() {
        let (seq, _, _) = hostile_base();
        let free = seq.free_nodes[0];
        let state = state_with_digrams(&seq, &[((Sym(1), Sym(2)), free)]);
        assert_rejected(&state, "names a free node");
    }

    #[test]
    fn nil_guard_prev_is_rejected() {
        // The first push appends after the start guard's `prev`.
        let (mut seq, _, _) = hostile_base();
        let guard = seq.rules[0].guard;
        seq.nodes[guard as usize].prev = NIL;
        let mut state = Vec::new();
        seq.save_state(&mut state).unwrap();
        assert_rejected(&state, "do not mirror");
    }

    #[test]
    fn unmirrored_next_link_is_rejected() {
        // `first.next` skips a node whose `prev` still names `first`.
        let (mut seq, first, last) = hostile_base();
        seq.nodes[first as usize].next = last;
        let mut state = Vec::new();
        seq.save_state(&mut state).unwrap();
        assert_rejected(&state, "do not mirror");
    }

    #[test]
    fn digram_entry_without_a_successor_digram_is_rejected() {
        // The start rule's last node is followed by its guard.
        let (mut seq, _, last) = hostile_base();
        let key = (seq.sym(last), Sym(1));
        assert_rejected(
            &state_with_digrams(&seq, &[(key, last)]),
            "starts no digram",
        );
        // A live node whose successor link is NIL.
        seq.nodes[last as usize].next = NIL;
        assert_rejected(
            &state_with_digrams(&seq, &[(key, last)]),
            "starts no digram",
        );
    }

    #[test]
    fn digram_entry_with_a_foreign_key_is_rejected() {
        let (seq, first, _) = hostile_base();
        let key = (seq.sym(first), Sym(99));
        assert_rejected(
            &state_with_digrams(&seq, &[(key, first)]),
            "differs from its node's digram",
        );
    }

    #[test]
    fn digram_key_with_a_guard_or_free_symbol_is_rejected() {
        let (seq, first, _) = hostile_base();
        let (a, b) = key_at(&seq.nodes, first);
        for key in [
            (Sym::guard(0), b),
            (a, Sym::guard(0)),
            (Sym::FREE, b),
            (a, Sym::FREE),
        ] {
            assert_rejected(
                &state_with_digrams(&seq, &[(key, first)]),
                "holds a guard or free symbol",
            );
        }
    }

    #[test]
    fn corrupt_state_is_rejected_not_panicking() {
        let mut seq = Sequitur::new();
        seq.extend([1, 2, 1, 2, 3, 3, 3]);
        let mut buf = Vec::new();
        seq.save_state(&mut buf).unwrap();
        // Truncations at every byte boundary.
        for cut in 0..buf.len() {
            assert!(
                Sequitur::restore_state(&mut &buf[..cut]).is_err(),
                "truncation at {cut} must error"
            );
        }
    }
}
