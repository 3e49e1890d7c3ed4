//! WHOMP: the lossless whole-stream memory profiler.
//!
//! WHOMP records the *entire* object-relative access stream of a run.
//! Following the paper's Section 3, the separation-and-compression
//! component horizontally decomposes the stream into its four
//! dimensions — instruction, group, object, offset — and feeds each to
//! its own Sequitur compressor. The result is the **object-relative
//! multi-dimensional Sequitur grammar** ([`Omsg`]): lossless (each
//! dimension expands back exactly), more compact than a raw-address
//! grammar, and directly useful per dimension (the offset grammar for
//! field reordering, the object grammar for clustering, …).
//!
//! The baseline it is evaluated against (Figure 5) is the conventional
//! **raw-address Sequitur grammar** ([`Rasg`]): Sequitur over the
//! classic trace representation, a stream of `(instruction, address)`
//! records compressed as fused symbols (the record shape used by the
//! raw-address profilers the paper cites). The comparison therefore
//! isolates the paper's claim: decomposing into object-relative
//! dimensions exposes regularity that the fused raw records hide —
//! novelty in one dimension (a data-dependent address, say) no longer
//! poisons the perfectly regular instruction/group/offset context
//! around it.
//!
//! # Examples
//!
//! ```
//! use orp_core::{Cdc, Omc};
//! use orp_trace::ProbeSink;
//! use orp_whomp::WhompProfiler;
//! use orp_workloads::{micro, RunConfig, Workload};
//!
//! let mut cdc = Cdc::new(Omc::new(), WhompProfiler::new());
//! micro::LinkedList::new(64, 8).run_with(&RunConfig::default(), &mut cdc);
//! let omsg = cdc.into_parts().1.into_omsg();
//! assert!(omsg.total_size() < omsg.tuples());       // it compressed
//! assert_eq!(omsg.offset.expanded_len(), omsg.tuples()); // losslessly
//! ```

#![forbid(unsafe_code)]

mod hybrid;
mod io;
mod pipeline;
mod session;

pub use hybrid::{HybridProfile, HybridProfiler, InstrGrammars};
pub use pipeline::{GrammarPipelineStats, GrammarStreamStats, PipelinedWhomp};

use orp_core::{OrSink, OrTuple};
use orp_sequitur::{Grammar, Sequitur};
use orp_trace::{AccessEvent, ProbeSink};

/// The lossless object-relative profiler: one Sequitur compressor per
/// horizontal dimension.
///
/// Implements [`OrSink`], so it plugs directly behind a
/// [`Cdc`](orp_core::Cdc).
#[derive(Debug, Clone, Default)]
pub struct WhompProfiler {
    instr: Sequitur,
    group: Sequitur,
    object: Sequitur,
    offset: Sequitur,
    tuples: u64,
}

impl WhompProfiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tuples consumed so far.
    #[must_use]
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Current total grammar size across the four dimensions.
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.instr.size() + self.group.size() + self.object.size() + self.offset.size()
    }

    /// Publishes the profiler's growth counters onto `rec`. Call at a
    /// phase boundary — the tuple path only bumps plain integers.
    pub fn record_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("whomp.tuples", self.tuples);
        rec.counter("whomp.grammar_symbols", self.total_size());
        rec.counter("whomp.grammar_symbols.instruction", self.instr.size());
        rec.counter("whomp.grammar_symbols.group", self.group.size());
        rec.counter("whomp.grammar_symbols.object", self.object.size());
        rec.counter("whomp.grammar_symbols.offset", self.offset.size());
    }

    /// Publishes the grammar stage's per-dimension shape (`grammar.*`)
    /// onto `rec`: live rules, right-hand-side symbols and compressor
    /// heap bytes per dimension. Works identically in sequential and
    /// pipelined runs — worker timings come separately from
    /// [`GrammarPipelineStats::record_metrics`].
    pub fn record_grammar_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("grammar.rules.instruction", self.instr.rule_count() as u64);
        rec.counter("grammar.rules.group", self.group.rule_count() as u64);
        rec.counter("grammar.rules.object", self.object.rule_count() as u64);
        rec.counter("grammar.rules.offset", self.offset.rule_count() as u64);
        rec.counter("grammar.symbols.instruction", self.instr.size());
        rec.counter("grammar.symbols.group", self.group.size());
        rec.counter("grammar.symbols.object", self.object.size());
        rec.counter("grammar.symbols.offset", self.offset.size());
        rec.counter("grammar.heap_bytes.instruction", self.instr.heap_bytes());
        rec.counter("grammar.heap_bytes.group", self.group.heap_bytes());
        rec.counter("grammar.heap_bytes.object", self.object.heap_bytes());
        rec.counter("grammar.heap_bytes.offset", self.offset.heap_bytes());
    }

    /// Finalizes the profile into an [`Omsg`].
    #[must_use]
    pub fn into_omsg(self) -> Omsg {
        // Each compressor frees its digram index before its grammar is
        // built and is dropped right after: holding all four beside all
        // four grammars would set a WHOMP replay's peak RSS.
        Omsg {
            instr: self.instr.into_grammar(),
            group: self.group.into_grammar(),
            object: self.object.into_grammar(),
            offset: self.offset.into_grammar(),
            tuples: self.tuples,
        }
    }
}

impl OrSink for WhompProfiler {
    fn tuple(&mut self, t: &OrTuple) {
        self.instr.push(u64::from(t.instr.0));
        self.group.push(u64::from(t.group.0));
        self.object.push(t.object.0);
        self.offset.push(t.offset);
        self.tuples += 1;
    }
}

/// The object-relative multi-dimensional Sequitur grammar: WHOMP's
/// output, one grammar per horizontal dimension.
#[derive(Debug, Clone)]
pub struct Omsg {
    /// Grammar of the instruction-id stream.
    pub instr: Grammar,
    /// Grammar of the group stream.
    pub group: Grammar,
    /// Grammar of the object-serial stream.
    pub object: Grammar,
    /// Grammar of the offset stream.
    pub offset: Grammar,
    tuples: u64,
}

impl Omsg {
    /// Rebuilds a profile from its parts (used by deserialization).
    #[must_use]
    pub fn from_parts(
        instr: Grammar,
        group: Grammar,
        object: Grammar,
        offset: Grammar,
        tuples: u64,
    ) -> Self {
        Omsg {
            instr,
            group,
            object,
            offset,
            tuples,
        }
    }

    /// Number of accesses the profile covers.
    #[must_use]
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Total grammar size (right-hand-side symbols across all four
    /// grammars) — the Figure 5 metric.
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.instr.size() + self.group.size() + self.object.size() + self.offset.size()
    }

    /// Serialized size in bytes under the shared symbol cost model.
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        self.instr.encoded_bytes()
            + self.group.encoded_bytes()
            + self.object.encoded_bytes()
            + self.offset.encoded_bytes()
    }

    /// The per-dimension grammars as `(name, grammar)` pairs.
    #[must_use]
    pub fn dimensions(&self) -> [(&'static str, &Grammar); 4] {
        [
            ("instruction", &self.instr),
            ("group", &self.group),
            ("object", &self.object),
            ("offset", &self.offset),
        ]
    }

    /// Publishes the finished profile's shape onto `rec`: totals plus
    /// per-dimension rule and symbol counts.
    pub fn record_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("omsg.tuples", self.tuples);
        rec.counter("omsg.grammar_symbols", self.total_size());
        rec.counter("omsg.encoded_bytes", self.encoded_bytes());
        for (_, grammar) in self.dimensions() {
            rec.observe("omsg.rules_per_dimension", grammar.rule_count() as u64);
            rec.observe("omsg.symbols_per_dimension", grammar.size());
        }
        rec.counter("omsg.rules.instruction", self.instr.rule_count() as u64);
        rec.counter("omsg.rules.group", self.group.rule_count() as u64);
        rec.counter("omsg.rules.object", self.object.rule_count() as u64);
        rec.counter("omsg.rules.offset", self.offset.rule_count() as u64);
    }

    /// Expands all four grammars and re-zips them into the original
    /// `(instr, group, object, offset)` quadruples — the lossless
    /// round-trip.
    #[must_use]
    pub fn expand(&self) -> Vec<(u64, u64, u64, u64)> {
        let i = self.instr.expand();
        let g = self.group.expand();
        let o = self.object.expand();
        let f = self.offset.expand();
        assert!(
            i.len() == g.len() && g.len() == o.len() && o.len() == f.len(),
            "dimension streams must be aligned"
        );
        i.into_iter()
            .zip(g)
            .zip(o)
            .zip(f)
            .map(|(((i, g), o), f)| (i, g, o, f))
            .collect()
    }
}

/// The raw-address baseline profiler: Sequitur over the stream of
/// `(instruction, address)` trace records, each fused into one symbol.
///
/// Implements [`ProbeSink`] directly — no object translation is
/// involved, exactly like pre-object-relative profilers.
#[derive(Debug, Clone, Default)]
pub struct RasgProfiler {
    records: Sequitur,
    accesses: u64,
}

/// Fuses an `(instruction, address)` record into one Sequitur symbol.
///
/// The simulated address space stays below 2⁴⁷ and instruction ids
/// below 2¹⁶, so the fusion is collision-free.
fn fuse(instr: u32, addr: u64) -> u64 {
    debug_assert!(addr < 1 << 48, "address exceeds the fused-symbol space");
    debug_assert!(
        instr < 1 << 16,
        "instruction id exceeds the fused-symbol space"
    );
    (u64::from(instr) << 48) | addr
}

impl RasgProfiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of accesses consumed so far.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Current grammar size of the record stream.
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.records.size()
    }

    /// Publishes the baseline profiler's growth counters onto `rec`.
    pub fn record_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("rasg.accesses", self.accesses);
        rec.counter("rasg.grammar_symbols", self.total_size());
    }

    /// Publishes the grammar stage's shape (`grammar.*`) onto `rec` —
    /// the RASG baseline has a single record stream.
    pub fn record_grammar_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("grammar.rules.records", self.records.rule_count() as u64);
        rec.counter("grammar.symbols.records", self.records.size());
        rec.counter("grammar.heap_bytes.records", self.records.heap_bytes());
    }

    /// Finalizes the profile into a [`Rasg`].
    #[must_use]
    pub fn into_rasg(self) -> Rasg {
        Rasg {
            records: self.records.into_grammar(),
            accesses: self.accesses,
        }
    }
}

impl ProbeSink for RasgProfiler {
    fn access(&mut self, ev: AccessEvent) {
        self.records.push(fuse(ev.instr.0, ev.addr.0));
        self.accesses += 1;
    }
}

/// The conventional raw-address Sequitur grammar: the Figure 5 baseline.
#[derive(Debug, Clone)]
pub struct Rasg {
    /// Grammar of the fused `(instruction, address)` record stream.
    pub records: Grammar,
    accesses: u64,
}

impl Rasg {
    /// Rebuilds a profile from its parts (used by deserialization).
    #[must_use]
    pub fn from_parts(records: Grammar, accesses: u64) -> Self {
        Rasg { records, accesses }
    }

    /// Number of accesses the profile covers.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total grammar size (the Figure 5 metric's denominator).
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.records.size()
    }

    /// Serialized size in bytes under the shared symbol cost model.
    ///
    /// Fused record symbols carry 12 bytes of payload (4 of instruction
    /// id, 8 of address) against the 4 bytes of a decomposed dimension
    /// symbol; using the same per-symbol cost for both sides is
    /// *generous to the baseline*.
    #[must_use]
    pub fn encoded_bytes(&self) -> u64 {
        self.records.encoded_bytes()
    }

    /// Publishes the finished baseline profile's shape onto `rec`.
    pub fn record_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("rasg.accesses", self.accesses);
        rec.counter("rasg.grammar_symbols", self.total_size());
        rec.counter("rasg.rules", self.records.rule_count() as u64);
        rec.counter("rasg.encoded_bytes", self.encoded_bytes());
    }
}

/// Figure 5's y-axis: the percentage by which the OMSG profile is
/// smaller than the RASG profile on disk, with RASG as the base
/// (`(1 - omsg/rasg) · 100`).
///
/// Positive means object-relativity compressed better. Both profiles
/// are costed with the same varint serialization; decomposition wins
/// through grammar structure *and* through its small-integer symbol
/// alphabets (offsets, serials, group ids) against the baseline's wide
/// fused raw-address records. Zero-size RASGs (empty traces) yield 0.
#[must_use]
pub fn compression_gain_percent(omsg: &Omsg, rasg: &Rasg) -> f64 {
    let rasg_bytes = rasg.encoded_bytes();
    if rasg.accesses() == 0 || rasg_bytes == 0 {
        return 0.0;
    }
    (1.0 - omsg.encoded_bytes() as f64 / rasg_bytes as f64) * 100.0
}

/// The same comparison on grammar *symbol counts* (structure only,
/// ignoring symbol width). Reported alongside the byte gain so the two
/// effects can be separated.
#[must_use]
pub fn symbol_gain_percent(omsg: &Omsg, rasg: &Rasg) -> f64 {
    let rasg_size = rasg.total_size();
    if rasg.accesses() == 0 || rasg_size == 0 {
        return 0.0;
    }
    (1.0 - omsg.total_size() as f64 / rasg_size as f64) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_core::{Cdc, Omc};
    use orp_trace::{AllocEvent, AllocSiteId, InstrId, RawAddress};

    /// Feeds a churn-free linked-list-like trace: two instructions
    /// alternating over `n` nodes, repeated `passes` times.
    fn list_trace(n: u64, passes: u64) -> (Omsg, Rasg) {
        let mut whomp = Cdc::new(Omc::new(), WhompProfiler::new());
        let mut rasg = RasgProfiler::new();
        let site = AllocSiteId(0);
        // Scattered raw addresses (stride 48 with a jitter pattern).
        let bases: Vec<u64> = (0..n).map(|k| 0x1000 + k * 48 + (k % 3) * 16).collect();
        for &b in &bases {
            whomp.alloc(AllocEvent {
                site,
                base: RawAddress(b),
                size: 16,
            });
        }
        for _ in 0..passes {
            for &b in &bases {
                for (instr, off) in [(0u32, 0u64), (1, 8)] {
                    let ev = AccessEvent::load(InstrId(instr), RawAddress(b + off), 8);
                    whomp.access(ev);
                    rasg.access(ev);
                }
            }
        }
        (whomp.into_parts().1.into_omsg(), rasg.into_rasg())
    }

    #[test]
    fn omsg_round_trips_losslessly() {
        let (omsg, _) = list_trace(16, 3);
        let quads = omsg.expand();
        assert_eq!(quads.len() as u64, omsg.tuples());
        // First pass: objects in order, offsets alternating 0/8.
        assert_eq!(quads[0], (0, 0, 0, 0));
        assert_eq!(quads[1], (1, 0, 0, 8));
        assert_eq!(quads[2], (0, 0, 1, 0));
    }

    #[test]
    fn omsg_compresses_repeated_traversals() {
        let (omsg, _) = list_trace(64, 10);
        assert!(
            omsg.total_size() < omsg.tuples() / 2,
            "10 identical traversals must compress well: size {} for {} tuples",
            omsg.total_size(),
            omsg.tuples()
        );
    }

    #[test]
    fn omsg_beats_rasg_when_novelty_is_dimension_local() {
        // A regular node walk interleaved with a data-dependent table
        // probe: in the fused record stream every probe is a novel
        // symbol that breaks the repetition around it; decomposed, the
        // novelty is confined to the offset dimension while instruction,
        // group and object streams stay perfectly regular.
        let mut whomp = Cdc::new(Omc::new(), WhompProfiler::new());
        let mut rasg = RasgProfiler::new();
        let node_site = AllocSiteId(0);
        let table_site = AllocSiteId(1);
        let table_base = 0x8000u64;
        whomp.alloc(AllocEvent {
            site: table_site,
            base: RawAddress(table_base),
            size: 1 << 20,
        });
        let bases: Vec<u64> = (0..64u64).map(|k| 0x100000 + k * 48).collect();
        for &b in &bases {
            whomp.alloc(AllocEvent {
                site: node_site,
                base: RawAddress(b),
                size: 16,
            });
        }
        // Deterministic pseudo-random probe offsets (xorshift).
        let mut x = 0x9E37_79B9u64;
        for _ in 0..10 {
            for &b in &bases {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let probe = table_base + (x % (1 << 17)) * 8;
                for ev in [
                    AccessEvent::load(InstrId(0), RawAddress(b), 8),
                    AccessEvent::load(InstrId(1), RawAddress(b + 8), 8),
                    AccessEvent::load(InstrId(2), RawAddress(probe), 8),
                ] {
                    whomp.access(ev);
                    rasg.access(ev);
                }
            }
        }
        let omsg = whomp.into_parts().1.into_omsg();
        let rasg = rasg.into_rasg();
        assert_eq!(omsg.tuples(), rasg.accesses());
        let gain = compression_gain_percent(&omsg, &rasg);
        assert!(
            gain > 10.0,
            "expected OMSG to win clearly, gain = {gain:.1}%"
        );
        // Structure-only comparison exists too (sign may differ).
        let _ = symbol_gain_percent(&omsg, &rasg);
    }

    #[test]
    fn dimension_accessors_are_consistent() {
        let (omsg, rasg) = list_trace(8, 2);
        let total: u64 = omsg.dimensions().iter().map(|(_, g)| g.size()).sum();
        assert_eq!(total, omsg.total_size());
        assert!(omsg.encoded_bytes() > 0);
        assert!(rasg.encoded_bytes() > 0);
        assert_eq!(rasg.total_size(), rasg.records.size());
    }

    #[test]
    fn empty_profiles_are_well_behaved() {
        let omsg = WhompProfiler::new().into_omsg();
        let rasg = RasgProfiler::new().into_rasg();
        assert_eq!(omsg.total_size(), 0);
        assert_eq!(omsg.expand().len(), 0);
        assert_eq!(compression_gain_percent(&omsg, &rasg), 0.0);
    }

    #[test]
    fn profiler_running_size_matches_final() {
        let mut p = WhompProfiler::new();
        let t = orp_core::OrTuple {
            instr: InstrId(0),
            kind: orp_trace::AccessKind::Load,
            group: orp_core::GroupId(0),
            object: orp_core::ObjectSerial(0),
            offset: 0,
            time: orp_core::Timestamp(0),
            size: 8,
        };
        for _ in 0..100 {
            p.tuple(&t);
        }
        let running = p.total_size();
        assert_eq!(running, p.into_omsg().total_size());
    }
}
