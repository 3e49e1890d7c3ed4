//! Sequitur grammar compression.
//!
//! An implementation of the Sequitur algorithm of Nevill-Manning and
//! Witten (*Identifying hierarchical structure in sequences: a
//! linear-time algorithm*, JAIR 1997), the lossless compressor used by
//! the WHOMP profiler in the CGO 2004 paper. Sequitur incrementally
//! infers a context-free grammar that generates exactly the input
//! sequence, maintaining two invariants:
//!
//! * **digram uniqueness** — no pair of adjacent symbols appears more
//!   than once (without overlap) in the grammar; a repeated digram is
//!   replaced by a nonterminal, and
//! * **rule utility** — every rule (other than the start rule) is used
//!   at least twice; a rule whose use count drops to one is inlined.
//!
//! Repetitions in the input therefore become grammar rules, and the
//! grammar's size (total right-hand-side symbols) is the compressed
//! size of the sequence.
//!
//! # Examples
//!
//! The paper's own example: `abcbcabcbc` compresses to the grammar
//! `S → AA; A → aBB; B → bc` (7 right-hand-side symbols for a 10-symbol
//! input).
//!
//! ```
//! use orp_sequitur::Sequitur;
//!
//! let mut seq = Sequitur::new();
//! seq.extend("abcbcabcbc".bytes().map(u64::from));
//! let grammar = seq.grammar();
//! assert_eq!(grammar.rule_count(), 3);
//! assert_eq!(grammar.size(), 7);
//! let expanded: Vec<u64> = grammar.expand();
//! assert_eq!(expanded, "abcbcabcbc".bytes().map(u64::from).collect::<Vec<_>>());
//! ```

#![forbid(unsafe_code)]

mod digram;
mod fxhash;
mod grammar;
mod io;

pub use fxhash::{FxBuildHasher, FxHasher64};
pub use grammar::{Grammar, GrammarSymbol, RuleId};
// The integer codecs live in `orp-format` now (shared by every payload
// encoding in the workspace); re-exported here for source compatibility.
pub use orp_format::{read_varint, varint_len, write_varint};

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use digram::DigramTable;

/// Sentinel index meaning "no node".
const NIL: u32 = u32::MAX;

/// Internal symbol stored on linked-list nodes, packed into one word:
/// the top two bits are a tag, the low 62 a payload.
///
/// The packing is the hot-path representation the whole compressor
/// runs on: it halves [`Node`] to 16 bytes, shrinks a digram key to
/// two words, and makes symbol equality and hashing single-word
/// operations — digram-index probes and node-list walks dominate
/// per-push cost, and all of them touch symbols.
///
/// | tag | meaning            | payload                          |
/// |----:|--------------------|----------------------------------|
/// |   0 | terminal `< 2^62`  | the terminal value itself        |
/// |   1 | large terminal     | index into the intern table      |
/// |   2 | rule use           | rule slot                        |
/// |   3 | guard              | rule slot (`u64::MAX` = free)    |
///
/// Terminals that do not fit 62 bits (RASG's fused records can use the
/// full width) are interned: `big_terms[payload]` holds the raw value,
/// and interning dedups, so packed equality coincides with terminal
/// equality exactly as it did for the previous boxed-enum
/// representation. The free-list sentinel [`Sym::FREE`] borrows the
/// guard tag with an all-ones payload no real guard can carry (rule
/// slots are `u32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Sym(u64);

impl Sym {
    const TAG_SHIFT: u32 = 62;
    const PAYLOAD_MASK: u64 = (1 << Self::TAG_SHIFT) - 1;
    const TAG_SMALL: u64 = 0;
    const TAG_BIG: u64 = 1;
    const TAG_RULE: u64 = 2;
    const TAG_GUARD: u64 = 3;
    /// Free-list sentinel (never matches any live symbol).
    const FREE: Sym = Sym(u64::MAX);

    #[inline]
    fn rule(r: u32) -> Sym {
        Sym(Self::TAG_RULE << Self::TAG_SHIFT | u64::from(r))
    }

    #[inline]
    fn guard(r: u32) -> Sym {
        Sym(Self::TAG_GUARD << Self::TAG_SHIFT | u64::from(r))
    }

    #[inline]
    fn tag(self) -> u64 {
        self.0 >> Self::TAG_SHIFT
    }

    #[inline]
    fn payload(self) -> u64 {
        self.0 & Self::PAYLOAD_MASK
    }

    #[inline]
    fn is_guard(self) -> bool {
        self.tag() == Self::TAG_GUARD && self != Self::FREE
    }

    #[inline]
    fn as_rule(self) -> Option<u32> {
        (self.tag() == Self::TAG_RULE).then(|| self.payload() as u32)
    }

    #[inline]
    fn as_guard(self) -> Option<u32> {
        (self.is_guard()).then(|| self.payload() as u32)
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    sym: Sym,
    prev: u32,
    next: u32,
}

#[derive(Debug, Clone, Copy)]
struct RuleSlot {
    /// Guard node of the circular body list, or `NIL` when the slot is
    /// free.
    guard: u32,
    /// Number of uses of this rule in other rule bodies.
    uses: u32,
}

/// An incremental Sequitur compressor.
///
/// Feed the input one symbol at a time with [`Sequitur::push`] (or in
/// bulk with [`Sequitur::extend`]); read the inferred grammar at any
/// point with [`Sequitur::grammar`] or just its compressed size with
/// [`Sequitur::size`].
#[derive(Debug, Clone)]
pub struct Sequitur {
    nodes: Vec<Node>,
    free_nodes: Vec<u32>,
    rules: Vec<RuleSlot>,
    free_rules: Vec<u32>,
    /// The digram index: each live digram → one node where it occurs,
    /// keys read back from `nodes` (see [`digram`]).
    digrams: DigramTable,
    /// Raw values of interned large terminals (tag [`Sym::TAG_BIG`]),
    /// indexed by symbol payload.
    big_terms: Vec<u64>,
    /// Reverse intern map: raw value → index into `big_terms`.
    big_ids: HashMap<u64, u32, FxBuildHasher>,
    input_len: u64,
}

impl Sequitur {
    /// Creates a compressor with an empty start rule.
    #[must_use]
    pub fn new() -> Self {
        let mut seq = Sequitur::blank();
        let start = seq.new_rule();
        debug_assert_eq!(start, 0, "start rule occupies slot 0");
        seq
    }

    /// A completely empty shell — no start rule — for deserialization
    /// to fill field by field.
    pub(crate) fn blank() -> Self {
        Sequitur {
            nodes: Vec::new(),
            free_nodes: Vec::new(),
            rules: Vec::new(),
            free_rules: Vec::new(),
            digrams: DigramTable::default(),
            big_terms: Vec::new(),
            big_ids: HashMap::default(),
            input_len: 0,
        }
    }

    /// Number of input symbols consumed so far.
    #[must_use]
    pub fn input_len(&self) -> u64 {
        self.input_len
    }

    /// Appends one terminal to the input sequence.
    ///
    /// The tail append is hand-specialized instead of going through
    /// `Sequitur::insert_after`: a fresh node has no links, and the
    /// previous tail's outgoing digram ends at the start rule's guard,
    /// so the digram-unindexing and run-restoration work the generic
    /// `Sequitur::join` performs is statically a no-op here. Linking
    /// directly removes a dozen branchy loads from the single hottest
    /// call in grammar construction.
    #[inline]
    pub fn push(&mut self, terminal: u64) {
        self.input_len += 1;
        let sym = self.intern(terminal);
        let guard = self.rules[0].guard;
        let node = self.new_node(sym);
        let last = self.nodes[guard as usize].prev;
        self.nodes[node as usize].prev = last;
        self.nodes[node as usize].next = guard;
        self.nodes[guard as usize].prev = node;
        self.nodes[last as usize].next = node;
        if !self.sym(last).is_guard() {
            self.check(last);
        }
    }

    /// Packs a raw terminal into a [`Sym`]: direct for values that fit
    /// the 62-bit payload (every value the profilers emit in practice),
    /// through the intern table otherwise.
    #[inline]
    fn intern(&mut self, terminal: u64) -> Sym {
        if terminal <= Sym::PAYLOAD_MASK {
            Sym(terminal)
        } else {
            self.intern_big(terminal)
        }
    }

    #[cold]
    fn intern_big(&mut self, terminal: u64) -> Sym {
        let id = match self.big_ids.entry(terminal) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(v) => {
                let id =
                    // analyze: allow(panic-reachability): arena-capacity invariant — overflowing u32 intern ids means >4G distinct terminals, far past any input this tool accepts
                    u32::try_from(self.big_terms.len()).expect("intern table exceeds u32 entries");
                self.big_terms.push(terminal);
                *v.insert(id)
            }
        };
        Sym(Sym::TAG_BIG << Sym::TAG_SHIFT | u64::from(id))
    }

    /// The raw terminal a symbol denotes, if it is a terminal.
    #[inline]
    fn terminal_value(&self, s: Sym) -> Option<u64> {
        match s.tag() {
            Sym::TAG_SMALL => Some(s.payload()),
            Sym::TAG_BIG => Some(self.big_terms[s.payload() as usize]),
            _ => None,
        }
    }

    /// Appends a slice of terminals, amortizing per-symbol overhead.
    ///
    /// Semantically identical to pushing each terminal with
    /// [`Sequitur::push`] — the grammar (and any later checkpoint)
    /// comes out byte-for-byte the same, which the differential tests
    /// pin down. The batch entry point only front-loads capacity
    /// management: the node arena grows once per batch instead of
    /// reallocating mid-stream. The digram index is left to grow by
    /// doubling as entries arrive; reserving it for the batch was
    /// measured slower (see the body).
    pub fn push_batch(&mut self, terminals: &[u64]) {
        // Each pushed terminal appends one node; rule formation adds
        // three more (guard + two body symbols) but unlinks two, so
        // `len` is a tight bound on net arena growth for the batch.
        let spare = self.free_nodes.len();
        if terminals.len() > spare {
            self.nodes.reserve(terminals.len() - spare);
        }
        // The digram index is deliberately NOT pre-reserved for the
        // whole batch: on compressible streams the live digram count
        // stays tiny, and inflating the table to batch size spreads the
        // hot probes across a cold multi-megabyte allocation — measured
        // as a ~15% slowdown on small-alphabet dimension streams. Growth
        // on incompressible streams is already amortized by the map's
        // doubling rehash.
        for &t in terminals {
            self.push(t);
        }
    }

    /// Appends many terminals.
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, terminals: I) {
        for t in terminals {
            self.push(t);
        }
    }

    /// Compressed size: total number of symbols on the right-hand sides
    /// of all rules.
    ///
    /// This is the standard grammar-size measure used when comparing
    /// OMSG against RASG in the paper's Figure 5.
    #[must_use]
    pub fn size(&self) -> u64 {
        let mut total = 0u64;
        for slot in &self.rules {
            if slot.guard == NIL {
                continue;
            }
            let mut cur = self.nodes[slot.guard as usize].next;
            while cur != slot.guard {
                total += 1;
                cur = self.nodes[cur as usize].next;
            }
        }
        total
    }

    /// Number of live rules, including the start rule.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.rules.iter().filter(|r| r.guard != NIL).count()
    }

    /// Capacity-based heap footprint in bytes: the node and rule
    /// arenas, their free lists, the digram index and the intern
    /// table. Hash-map capacity counts one control byte per entry.
    #[must_use]
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        let bytes = self.nodes.capacity() * size_of::<Node>()
            + self.free_nodes.capacity() * size_of::<u32>()
            + self.rules.capacity() * size_of::<RuleSlot>()
            + self.free_rules.capacity() * size_of::<u32>()
            + self.digrams.heap_bytes()
            + self.big_terms.capacity() * size_of::<u64>()
            + self.big_ids.capacity() * (size_of::<(u64, u32)>() + 1);
        bytes as u64
    }

    /// Consumes the compressor into its grammar, releasing the digram
    /// index (down to its minimum size), the free lists and the reverse
    /// intern map first, so the snapshot is never held beside them.
    /// Same grammar as [`Sequitur::grammar`].
    #[must_use]
    pub fn into_grammar(mut self) -> Grammar {
        self.digrams = DigramTable::default();
        self.free_nodes = Vec::new();
        self.free_rules = Vec::new();
        self.big_ids = HashMap::default();
        self.grammar()
    }

    /// Snapshots the inferred grammar with densely renumbered rules
    /// (rule 0 is the start rule).
    #[must_use]
    pub fn grammar(&self) -> Grammar {
        // Map live slots to dense ids.
        let mut dense = vec![u32::MAX; self.rules.len()];
        let mut next_id = 0u32;
        for (i, slot) in self.rules.iter().enumerate() {
            if slot.guard != NIL {
                dense[i] = next_id;
                next_id += 1;
            }
        }
        let mut rules = Vec::with_capacity(next_id as usize);
        for slot in &self.rules {
            if slot.guard == NIL {
                continue;
            }
            let mut body = Vec::new();
            let mut cur = self.nodes[slot.guard as usize].next;
            while cur != slot.guard {
                body.push(match self.nodes[cur as usize].sym {
                    s if self.terminal_value(s).is_some() => {
                        GrammarSymbol::Terminal(self.terminal_value(s).expect("checked terminal"))
                    }
                    s if s.as_rule().is_some() => {
                        let r = s.as_rule().expect("checked rule");
                        GrammarSymbol::Rule(RuleId(dense[r as usize]))
                    }
                    _ => unreachable!("guard/free inside a rule body"),
                });
                cur = self.nodes[cur as usize].next;
            }
            rules.push(body);
        }
        Grammar::from_rules(rules)
    }

    /// Checks the Sequitur invariants on the current grammar, panicking
    /// with a description on violation. Intended for tests.
    ///
    /// # Panics
    ///
    /// Panics if digram uniqueness (modulo overlapping occurrences) or
    /// rule utility is violated, if a rule's recorded use count
    /// disagrees with the actual number of uses, or if the digram index
    /// is out of step with the rule bodies: an entry whose node does not
    /// start a body digram (a free node, a guard, or a rule's last
    /// symbol), or a body digram indexed at none of its occurrences.
    pub fn assert_invariants(&self) {
        // Count rule uses, collect every body digram occurrence as
        // (digram, rule slot, position, node), and mark the nodes that
        // start one.
        let mut uses: HashMap<u32, u32, FxBuildHasher> = HashMap::default();
        let mut sites: Vec<((u64, u64), usize, usize, u32)> = Vec::new();
        let mut starts_digram = vec![false; self.nodes.len()];
        for (slot_idx, slot) in self.rules.iter().enumerate() {
            if slot.guard == NIL {
                continue;
            }
            let mut body = Vec::new();
            let mut cur = self.nodes[slot.guard as usize].next;
            while cur != slot.guard {
                body.push((self.nodes[cur as usize].sym, cur));
                if let Some(r) = self.nodes[cur as usize].sym.as_rule() {
                    *uses.entry(r).or_insert(0) += 1;
                }
                cur = self.nodes[cur as usize].next;
            }
            for (pos, pair) in body.windows(2).enumerate() {
                let ((a, node), (b, _)) = (pair[0], pair[1]);
                sites.push(((a.0, b.0), slot_idx, pos, node));
                starts_digram[node as usize] = true;
            }
        }
        for (i, slot) in self.rules.iter().enumerate() {
            if slot.guard == NIL {
                continue;
            }
            let actual = uses.get(&(i as u32)).copied().unwrap_or(0);
            assert_eq!(slot.uses, actual, "rule {i} use count drifted");
            if i != 0 {
                assert!(
                    actual >= 2,
                    "rule {i} used {actual} time(s): utility violated"
                );
            }
        }
        // Every index entry names a node that starts a body digram, and
        // is filed under that digram: probing the key read back from
        // the arena finds this very entry.
        for node in self.digrams.iter() {
            assert!(
                starts_digram[node as usize],
                "digram index entry at node {node} names a free node, a guard, \
                 or a node whose digram ends its rule"
            );
            let key = digram::key_at(&self.nodes, node);
            assert_eq!(
                self.digrams.get(&self.nodes, key),
                Some(node),
                "digram index entry at node {node} is filed under another digram"
            );
        }
        // Sorting groups each digram's occurrences in body order.
        sites.sort_unstable();
        for group in sites.chunk_by(|x, y| x.0 == y.0) {
            let (a, b) = group[0].0;
            let indexed = self.digrams.get(&self.nodes, (Sym(a), Sym(b)));
            assert!(
                indexed.is_some_and(|at| group.iter().any(|site| site.3 == at)),
                "digram {:?} is not indexed at any occurrence",
                (a, b)
            );
            // Repeats are only legal when every occurrence overlaps the
            // next (a run like aaa in one body).
            for w in group.windows(2) {
                let ((_, r0, p0, _), (_, r1, p1, _)) = (w[0], w[1]);
                assert!(
                    r0 == r1 && p1 == p0 + 1 && a == b,
                    "digram {:?} repeats without overlap at {group:?}",
                    (a, b)
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Arena plumbing
    // ------------------------------------------------------------------

    #[inline]
    fn new_node(&mut self, sym: Sym) -> u32 {
        if let Some(r) = sym.as_rule() {
            self.rules[r as usize].uses += 1;
        }
        if let Some(idx) = self.free_nodes.pop() {
            self.nodes[idx as usize] = Node {
                sym,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            // analyze: allow(panic-reachability): arena-capacity invariant — u32 node ids cap the arena at 4G nodes; growth past that is a resource exhaustion, not a malformed-input path
            let idx = u32::try_from(self.nodes.len()).expect("grammar exceeds u32 nodes");
            self.nodes.push(Node {
                sym,
                prev: NIL,
                next: NIL,
            });
            idx
        }
    }

    #[inline]
    fn free_node(&mut self, idx: u32) {
        self.nodes[idx as usize] = Node {
            sym: Sym::FREE,
            prev: NIL,
            next: NIL,
        };
        self.free_nodes.push(idx);
    }

    fn new_rule(&mut self) -> u32 {
        let r = if let Some(r) = self.free_rules.pop() {
            r
        } else {
            // analyze: allow(panic-reachability): arena-capacity invariant — u32 rule ids cap the arena at 4G rules, unreachable for any accepted input
            let r = u32::try_from(self.rules.len()).expect("grammar exceeds u32 rules");
            self.rules.push(RuleSlot {
                guard: NIL,
                uses: 0,
            });
            r
        };
        let guard = self.new_node(Sym::guard(r));
        self.nodes[guard as usize].prev = guard;
        self.nodes[guard as usize].next = guard;
        self.rules[r as usize] = RuleSlot { guard, uses: 0 };
        r
    }

    #[inline]
    fn sym(&self, n: u32) -> Sym {
        self.nodes[n as usize].sym
    }

    /// The digram starting at `n`, unless `n` or its successor is a guard.
    #[inline]
    fn digram_at(&self, n: u32) -> Option<(Sym, Sym)> {
        let next = self.nodes[n as usize].next;
        if next == NIL {
            return None;
        }
        let a = self.sym(n);
        let b = self.sym(next);
        if a.is_guard() || b.is_guard() {
            None
        } else {
            Some((a, b))
        }
    }

    #[inline]
    fn delete_digram(&mut self, n: u32) {
        if let Some(d) = self.digram_at(n) {
            self.digrams.remove_if_at(&self.nodes, d, n);
        }
    }

    /// Whether the digram starting at `n` is indexed at `n`.
    fn indexed_at(&self, n: u32) -> bool {
        self.digram_at(n)
            .is_some_and(|d| self.digrams.get(&self.nodes, d) == Some(n))
    }

    /// Links `left -> right`, maintaining the digram index: unindexes
    /// the digram `left` starts now, then relinks as
    /// [`Sequitur::relink`] does.
    fn join(&mut self, left: u32, right: u32) {
        if self.nodes[left as usize].next != NIL {
            self.delete_digram(left);
        }
        self.relink(left, right);
    }

    /// Links `left -> right` like [`Sequitur::join`], including the
    /// triple special case for runs of equal symbols (e.g. `aaa`), but
    /// without unindexing the digram `left` starts now. For callers
    /// that know that digram is not indexed at `left`: `join` never
    /// indexes at its left node, so a digram `left` gained from an
    /// earlier `join(left, _)` is never indexed there.
    fn relink(&mut self, left: u32, right: u32) {
        debug_assert!(
            !self.indexed_at(left),
            "relink skipped the unindex of a digram indexed at its left node {left}"
        );
        if self.nodes[left as usize].next != NIL {
            // If `right` sits in the middle of a run of equal symbols, its
            // digram entry may have been the one the caller removed;
            // restore it.
            let (rp, rn) = (
                self.nodes[right as usize].prev,
                self.nodes[right as usize].next,
            );
            if rp != NIL
                && rn != NIL
                && self.sym(right) == self.sym(rp)
                && self.sym(right) == self.sym(rn)
            {
                if let Some(d) = self.digram_at(right) {
                    self.digrams.insert(&self.nodes, d, right);
                }
            }
            let (lp, ln) = (
                self.nodes[left as usize].prev,
                self.nodes[left as usize].next,
            );
            if lp != NIL
                && ln != NIL
                && self.sym(left) == self.sym(lp)
                && self.sym(left) == self.sym(ln)
            {
                if let Some(d) = self.digram_at(lp) {
                    self.digrams.insert(&self.nodes, d, lp);
                }
            }
        }
        self.nodes[left as usize].next = right;
        self.nodes[right as usize].prev = left;
    }

    #[inline]
    fn insert_after(&mut self, pos: u32, node: u32) {
        let next = self.nodes[pos as usize].next;
        self.join(node, next);
        self.join(pos, node);
    }

    /// Frees an unlinked, unindexed node, releasing its rule reference.
    fn release_node(&mut self, n: u32) {
        if let Some(r) = self.sym(n).as_rule() {
            self.rules[r as usize].uses -= 1;
        }
        self.free_node(n);
    }

    // ------------------------------------------------------------------
    // The algorithm proper
    // ------------------------------------------------------------------

    /// Enforces digram uniqueness for the digram starting at `first`.
    /// Returns `true` when the grammar changed.
    #[inline]
    fn check(&mut self, first: u32) -> bool {
        let Some(d) = self.digram_at(first) else {
            return false;
        };
        // One probe covers both the hit and the dominant miss, which
        // indexes the new digram at the empty slot the probe ended on.
        let Some(m) = self.digrams.get_or_insert(&self.nodes, d, first) else {
            return false;
        };
        if m == first {
            return false;
        }
        // Overlapping occurrence (e.g. `aaa`): no rule is formed.
        if self.nodes[m as usize].next == first || self.nodes[first as usize].next == m {
            return false;
        }
        self.match_found(first, m);
        true
    }

    /// Handles a repeated digram: `first` is the new occurrence, `m` the
    /// indexed one.
    fn match_found(&mut self, first: u32, m: u32) {
        let m_prev = self.nodes[m as usize].prev;
        let m_next = self.nodes[m as usize].next;
        let m_next_next = self.nodes[m_next as usize].next;

        let r = if self.sym(m_prev).is_guard() && self.sym(m_next_next).is_guard() {
            // The matched occurrence is exactly an existing rule's body:
            // reuse that rule.
            let Some(r) = self.sym(m_prev).as_guard() else {
                // analyze: allow(panic-reachability): the branch condition just checked is_guard(), so as_guard() cannot fail
                unreachable!()
            };
            self.substitute(first, r, true);
            r
        } else {
            // Create a new rule from the digram and substitute both
            // occurrences.
            let a = self.sym(first);
            let b = self.sym(self.nodes[first as usize].next);
            let r = self.new_rule();
            let guard = self.rules[r as usize].guard;
            let na = self.new_node(a);
            self.insert_after(guard, na);
            let nb = self.new_node(b);
            self.insert_after(na, nb);
            self.substitute(m, r, false);
            self.substitute(first, r, false);
            let body_first = self.nodes[self.rules[r as usize].guard as usize].next;
            if let Some(d) = self.digram_at(body_first) {
                self.digrams.insert(&self.nodes, d, body_first);
            }
            r
        };

        // Rule utility: inline any rule in r's body that is now used once.
        let guard = self.rules[r as usize].guard;
        let mut cur = self.nodes[guard as usize].next;
        while cur != guard {
            let nxt = self.nodes[cur as usize].next;
            if let Some(r2) = self.sym(cur).as_rule() {
                if self.rules[r2 as usize].uses == 1 {
                    self.expand(cur);
                }
            }
            cur = nxt;
        }
    }

    /// Replaces the digram `a b` starting at `first` with a use of rule
    /// `r`. `indexed_elsewhere` says `check` found `a b` indexed at
    /// another node, so it is not indexed at `first`.
    ///
    /// The unlinking and relinking skip every unindex that cannot hit,
    /// and make the same index operations, in the same order, as
    /// deleting both nodes and inserting the use through `join`.
    fn substitute(&mut self, first: u32, r: u32, indexed_elsewhere: bool) {
        let q = self.nodes[first as usize].prev;
        let second = self.nodes[first as usize].next;
        let c = self.nodes[second as usize].next;
        // Delete `second`.
        if indexed_elsewhere {
            self.relink(first, c);
        } else {
            self.join(first, c);
        }
        self.delete_digram(second);
        self.release_node(second);
        // Delete `first`: it now starts `a c`, which linking it to `c`
        // did not index at `first`.
        self.join(q, c);
        debug_assert!(
            !self.indexed_at(first),
            "digram at the substituted node {first} is indexed"
        );
        self.release_node(first);
        // Insert the use after `q`, whose digram `q c` the `join(q, c)`
        // above did not index at `q`.
        let node = self.new_node(Sym::rule(r));
        self.join(node, c);
        self.relink(q, node);
        if !self.check(q) {
            let qn = self.nodes[q as usize].next;
            self.check(qn);
        }
    }

    /// Inlines the body of the rule used at `node` (its sole remaining
    /// use) and deletes the rule.
    fn expand(&mut self, node: u32) {
        let left = self.nodes[node as usize].prev;
        let right = self.nodes[node as usize].next;
        let Some(r) = self.sym(node).as_rule() else {
            // analyze: allow(panic-reachability): callers only reach expand() through an as_rule() check on the same node (see match_found)
            unreachable!("expand on non-rule symbol")
        };
        debug_assert_eq!(self.rules[r as usize].uses, 1);
        let guard = self.rules[r as usize].guard;
        let f = self.nodes[guard as usize].next;
        let l = self.nodes[guard as usize].prev;

        // Drop the digram starting at `node` from the index.
        self.delete_digram(node);

        // Delete the rule (its guard's unlink mirrors the reference
        // implementation's guard destructor, re-joining l and f — this
        // linkage is overwritten just below).
        self.join(l, f);
        self.free_node(guard);
        self.rules[r as usize] = RuleSlot {
            guard: NIL,
            uses: 0,
        };
        self.free_rules.push(r);

        // Unlink the use node without digram/use side effects (the digram
        // was removed above and the rule no longer exists).
        self.join(left, right);
        self.free_node(node);

        // Splice the body in place of the deleted node. `left` now
        // starts `left right` and `l` starts `l f`, each gained from a
        // `join` at that left node, so neither is indexed there.
        self.relink(left, f);
        self.relink(l, right);
        if let Some(d) = self.digram_at(l) {
            self.digrams.insert(&self.nodes, d, l);
        }
    }
}

impl Default for Sequitur {
    fn default() -> Self {
        Self::new()
    }
}

/// Compresses an entire sequence in one call.
///
/// ```
/// let g = orp_sequitur::compress([1, 2, 1, 2, 1, 2, 1, 2]);
/// assert!(g.size() < 8);
/// assert_eq!(g.expand(), vec![1, 2, 1, 2, 1, 2, 1, 2]);
/// ```
#[must_use]
pub fn compress<I: IntoIterator<Item = u64>>(input: I) -> Grammar {
    let mut seq = Sequitur::new();
    seq.extend(input);
    seq.into_grammar()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(input: &[u64]) -> Grammar {
        let mut seq = Sequitur::new();
        seq.extend(input.iter().copied());
        seq.assert_invariants();
        let g = seq.grammar();
        assert_eq!(g.expand(), input, "lossless round-trip failed");
        g
    }

    #[test]
    fn empty_input() {
        let g = roundtrip(&[]);
        assert_eq!(g.rule_count(), 1);
        assert_eq!(g.size(), 0);
    }

    #[test]
    fn single_symbol() {
        let g = roundtrip(&[42]);
        assert_eq!(g.size(), 1);
    }

    #[test]
    fn paper_example_abcbcabcbc() {
        let input: Vec<u64> = "abcbcabcbc".bytes().map(u64::from).collect();
        let g = roundtrip(&input);
        // S -> AA; A -> aBB; B -> bc
        assert_eq!(g.rule_count(), 3);
        assert_eq!(g.size(), 7);
    }

    #[test]
    fn classic_abab() {
        let input: Vec<u64> = "abab".bytes().map(u64::from).collect();
        let g = roundtrip(&input);
        // S -> AA; A -> ab
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.size(), 4);
    }

    #[test]
    fn runs_of_equal_symbols() {
        for n in 1..40 {
            let input = vec![7u64; n];
            roundtrip(&input);
        }
    }

    #[test]
    fn aaaa_forms_hierarchy() {
        let g = roundtrip(&[1, 1, 1, 1]);
        // S -> AA; A -> aa
        assert_eq!(g.rule_count(), 2);
        assert_eq!(g.size(), 4);
    }

    #[test]
    fn long_repetition_compresses_logarithmically() {
        let input: Vec<u64> = std::iter::repeat_n([3u64, 1, 4, 1, 5], 256)
            .flatten()
            .collect();
        let g = roundtrip(&input);
        assert!(
            g.size() < 64,
            "1280 symbols of period-5 input should compress far below 64, got {}",
            g.size()
        );
    }

    #[test]
    fn incompressible_input_stays_linear() {
        // All-distinct symbols form no repeated digram.
        let input: Vec<u64> = (0..500).collect();
        let g = roundtrip(&input);
        assert_eq!(g.rule_count(), 1);
        assert_eq!(g.size(), 500);
    }

    #[test]
    fn digram_index_of_an_incompressible_stream_stays_small() {
        // 100,000 distinct terminals leave 99,999 live digrams: at most
        // half load puts them in 262,144 slots of 5 bytes (1.25 MiB),
        // where a key-storing map of 24-byte buckets needed ~3 MiB.
        let mut seq = Sequitur::new();
        seq.push_batch(&(0..100_000).collect::<Vec<u64>>());
        assert_eq!(seq.digrams.iter().count(), 99_999);
        assert!(seq.digrams.slots() <= 262_144, "{}", seq.digrams.slots());
        assert!(seq.digrams.heap_bytes() <= 262_144 * 5);
        assert!(seq.heap_bytes() >= seq.digrams.heap_bytes() as u64 + 100_000 * 16);
    }

    #[test]
    fn into_grammar_matches_grammar() {
        let input: Vec<u64> = "abcbcabcbcxyzxyz".bytes().map(u64::from).collect();
        let mut seq = Sequitur::new();
        seq.extend(input.iter().copied());
        seq.push(u64::MAX); // an interned large terminal
        let g = seq.grammar();
        assert_eq!(seq.into_grammar(), g);
    }

    #[test]
    fn rule_reuse_path() {
        // "abab" creates A->ab; a later "ab" must reuse A, not make a new
        // rule.
        let input: Vec<u64> = "ababab".bytes().map(u64::from).collect();
        let g = roundtrip(&input);
        assert_eq!(g.rule_count(), 2);
    }

    #[test]
    fn utility_inlines_underused_rules() {
        // "abcdbcabcd": forms and then must inline intermediate rules.
        let input: Vec<u64> = "abcdbcabcd".bytes().map(u64::from).collect();
        let mut seq = Sequitur::new();
        seq.extend(input.iter().copied());
        seq.assert_invariants();
        assert_eq!(seq.grammar().expand(), input);
    }

    #[test]
    fn size_matches_grammar_snapshot() {
        let input: Vec<u64> = "mississippi$mississippi$".bytes().map(u64::from).collect();
        let mut seq = Sequitur::new();
        seq.extend(input.iter().copied());
        assert_eq!(seq.size(), seq.grammar().size());
    }

    #[test]
    fn push_batch_matches_per_symbol_push_exactly() {
        // Same grammar bytes AND same checkpoint bytes: batching is
        // purely a capacity optimization, never a semantic one.
        let input: Vec<u64> = "aaaabaaaabxyxyxyabcbcabcbcaaa"
            .bytes()
            .map(u64::from)
            .collect();
        for chunk in [1, 2, 3, 7, input.len()] {
            let mut reference = Sequitur::new();
            for &t in &input {
                reference.push(t);
            }
            let mut batched = Sequitur::new();
            for piece in input.chunks(chunk) {
                batched.push_batch(piece);
            }
            batched.assert_invariants();
            assert_eq!(batched.grammar(), reference.grammar(), "chunk {chunk}");
            let mut a = Vec::new();
            let mut b = Vec::new();
            reference.save_state(&mut a).unwrap();
            batched.save_state(&mut b).unwrap();
            assert_eq!(a, b, "checkpoint drift at chunk {chunk}");
        }
    }

    #[test]
    fn input_len_counts_pushes() {
        let mut seq = Sequitur::new();
        seq.extend([1, 2, 3]);
        assert_eq!(seq.input_len(), 3);
    }

    #[test]
    fn interleaved_alphabets() {
        let input: Vec<u64> = (0..300)
            .map(|i| if i % 2 == 0 { i % 6 } else { 100 + i % 4 })
            .collect();
        roundtrip(&input);
    }

    #[test]
    fn compress_helper_equivalent_to_manual() {
        let input: Vec<u64> = "xyzxyzxyz".bytes().map(u64::from).collect();
        let g1 = compress(input.iter().copied());
        let mut seq = Sequitur::new();
        seq.extend(input.iter().copied());
        assert_eq!(g1.size(), seq.grammar().size());
    }
}
