//! Immutable grammar snapshots produced by the Sequitur compressor.

/// Identifier of a rule in a [`Grammar`] (rule 0 is the start rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(pub u32);

impl std::fmt::Display for RuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A symbol on a rule's right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GrammarSymbol {
    /// A terminal of the input alphabet.
    Terminal(u64),
    /// A reference to another rule.
    Rule(RuleId),
}

use orp_format::varint_len;

/// A terminal's value in the tagged-varint encoding, `2t + 1`; `None`
/// for a terminal of 2^63 or more, whose tag does not fit a `u64`.
pub(crate) fn tagged_terminal(t: u64) -> Option<u64> {
    t.checked_mul(2).map(|x| x | 1)
}

/// An immutable context-free grammar generating exactly one string.
///
/// Produced by [`Sequitur::grammar`](crate::Sequitur::grammar); rule 0 is
/// the start rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grammar {
    rules: Vec<Vec<GrammarSymbol>>,
}

impl Grammar {
    /// Builds a grammar from raw rule bodies. Rule 0 is the start rule.
    ///
    /// # Panics
    ///
    /// Panics if `rules` is empty or a body references a missing rule.
    #[must_use]
    pub fn from_rules(rules: Vec<Vec<GrammarSymbol>>) -> Self {
        assert!(!rules.is_empty(), "a grammar needs at least a start rule");
        for body in &rules {
            for sym in body {
                if let GrammarSymbol::Rule(RuleId(r)) = sym {
                    assert!(
                        (*r as usize) < rules.len(),
                        "rule body references missing rule {r}"
                    );
                }
            }
        }
        Grammar { rules }
    }

    /// Number of rules, including the start rule.
    #[must_use]
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The right-hand side of rule `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn body(&self, id: RuleId) -> &[GrammarSymbol] {
        &self.rules[id.0 as usize]
    }

    /// Iterates over `(id, body)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RuleId, &[GrammarSymbol])> {
        self.rules
            .iter()
            .enumerate()
            .map(|(i, b)| (RuleId(i as u32), b.as_slice()))
    }

    /// Grammar size: total symbols across all right-hand sides.
    ///
    /// The standard compression measure for grammar-based codes; used
    /// for the paper's Figure 5 comparison.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.rules.iter().map(|b| b.len() as u64).sum()
    }

    /// Serialized size in bytes under a varint (LEB128) cost model:
    /// each symbol is encoded as `varint(2·value + tag)` where the tag
    /// bit distinguishes terminals from rule references, and each rule
    /// carries a varint length header.
    ///
    /// This is what a profile of this grammar costs on disk; grammars
    /// over small-integer alphabets (decomposed object-relative
    /// streams) serialize tighter per symbol than grammars over wide
    /// raw-address symbols, on top of any structural difference
    /// captured by [`Grammar::size`].
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        let mut total = 0;
        for body in &self.rules {
            total += varint_len(body.len() as u64);
            for sym in body {
                total += match sym {
                    // Such a grammar cannot be written: count the
                    // 10-byte varint its 65-bit tag would take.
                    GrammarSymbol::Terminal(t) => tagged_terminal(*t).map_or(10, varint_len),
                    GrammarSymbol::Rule(RuleId(r)) => varint_len(u64::from(*r) << 1),
                };
            }
        }
        total
    }

    /// Expands the start rule back into the original sequence.
    ///
    /// The expansion is iterative (explicit stack), so deeply
    /// hierarchical grammars cannot overflow the call stack.
    #[must_use]
    pub fn expand(&self) -> Vec<u64> {
        let mut out = Vec::new();
        // Stack of (rule, position) frames.
        let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
        while let Some((rule, pos)) = stack.pop() {
            let body = &self.rules[rule as usize];
            if pos >= body.len() {
                continue;
            }
            stack.push((rule, pos + 1));
            match body[pos] {
                GrammarSymbol::Terminal(t) => out.push(t),
                GrammarSymbol::Rule(RuleId(r)) => stack.push((r, 0)),
            }
        }
        out
    }

    /// Length of the expanded sequence without materializing it.
    ///
    /// Runs in time linear in the grammar size via a memoized,
    /// stack-based post-order traversal (the grammar is acyclic by
    /// construction — Sequitur never creates self-referential rules).
    #[must_use]
    pub fn expanded_len(&self) -> u64 {
        let n = self.rules.len();
        let mut len = vec![None::<u64>; n];
        // Explicit DFS: a frame is (rule, first-visit flag).
        let mut stack: Vec<(u32, bool)> = vec![(0, false)];
        while let Some((rule, children_done)) = stack.pop() {
            if len[rule as usize].is_some() {
                continue;
            }
            if children_done {
                let total = self.rules[rule as usize]
                    .iter()
                    .map(|sym| match sym {
                        GrammarSymbol::Terminal(_) => 1,
                        GrammarSymbol::Rule(RuleId(r)) => {
                            // analyze: allow(panic-reachability): post-order DFS resolves every child before its parent, and Grammar::read_from rejects cyclic rule references at the decode boundary
                            len[*r as usize].expect("children resolved before parent")
                        }
                    })
                    .sum();
                len[rule as usize] = Some(total);
            } else {
                stack.push((rule, true));
                for sym in &self.rules[rule as usize] {
                    if let GrammarSymbol::Rule(RuleId(r)) = sym {
                        if len[*r as usize].is_none() {
                            stack.push((*r, false));
                        }
                    }
                }
            }
        }
        // analyze: allow(panic-reachability): the DFS starts at rule 0 and always resolves it; decoded grammars are acyclic (read_from rejects cycles)
        len[0].expect("start rule resolved")
    }

    /// Renders the grammar in the paper's `S -> AA; A -> aBB; B -> bc`
    /// style, with terminals printed via `fmt_terminal`.
    #[must_use]
    pub fn render(&self, fmt_terminal: impl Fn(u64) -> String) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (id, body) in self.iter() {
            if id.0 == 0 {
                out.push('S');
            } else {
                let _ = write!(out, "{id}");
            }
            out.push_str(" ->");
            for sym in body {
                out.push(' ');
                match sym {
                    GrammarSymbol::Terminal(t) => out.push_str(&fmt_terminal(*t)),
                    GrammarSymbol::Rule(r) => {
                        let _ = write!(out, "{r}");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Grammar {
        // S -> R1 R1 ; R1 -> a b
        Grammar::from_rules(vec![
            vec![
                GrammarSymbol::Rule(RuleId(1)),
                GrammarSymbol::Rule(RuleId(1)),
            ],
            vec![GrammarSymbol::Terminal(97), GrammarSymbol::Terminal(98)],
        ])
    }

    #[test]
    fn expand_follows_rules() {
        assert_eq!(sample().expand(), vec![97, 98, 97, 98]);
    }

    #[test]
    fn expanded_len_matches_expand() {
        let g = sample();
        assert_eq!(g.expanded_len(), g.expand().len() as u64);
    }

    #[test]
    fn size_counts_rhs_symbols() {
        assert_eq!(sample().size(), 4);
        // 2 rule headers (1 byte each) + 2 rule refs (1 byte) + 2
        // terminals (97, 98 -> 2 bytes each tagged).
        assert_eq!(sample().encoded_bytes(), 2 + 2 + 4);
    }

    #[test]
    fn deep_grammar_expands_iteratively() {
        // R_i -> R_{i+1} R_{i+1}; depth 30 => 2^30 is too big, use chain
        // instead: R_i -> R_{i+1}, last rule -> terminal. Depth 100_000
        // would overflow a recursive expansion.
        let depth = 100_000u32;
        let mut rules: Vec<Vec<GrammarSymbol>> = Vec::with_capacity(depth as usize + 1);
        for i in 0..depth {
            rules.push(vec![GrammarSymbol::Rule(RuleId(i + 1))]);
        }
        rules.push(vec![GrammarSymbol::Terminal(5)]);
        let g = Grammar::from_rules(rules);
        assert_eq!(g.expand(), vec![5]);
        assert_eq!(g.expanded_len(), 1);
    }

    #[test]
    fn render_looks_like_the_paper() {
        let g = sample();
        let s = g.render(|t| char::from_u32(t as u32).unwrap().to_string());
        assert!(s.contains("S -> R1 R1"));
        assert!(s.contains("R1 -> a b"));
    }

    #[test]
    #[should_panic(expected = "missing rule")]
    fn dangling_rule_reference_panics() {
        let _ = Grammar::from_rules(vec![vec![GrammarSymbol::Rule(RuleId(3))]]);
    }

    #[test]
    #[should_panic(expected = "at least a start rule")]
    fn empty_grammar_panics() {
        let _ = Grammar::from_rules(vec![]);
    }
}
