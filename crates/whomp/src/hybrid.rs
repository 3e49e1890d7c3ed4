//! The hybrid-decomposition lossless profiler.
//!
//! Section 2.2: "Multi-purpose memory profilers can employ a hybrid of
//! both techniques." This profiler decomposes *vertically by
//! instruction* first, then *horizontally* within each sub-stream: per
//! instruction, three Sequitur grammars over its group, object and
//! offset streams (the instruction dimension is implicit — it is the
//! partition key).
//!
//! Compared to WHOMP's purely horizontal OMSG, the hybrid gives
//! per-instruction grammars that instruction-indexed consumers (like
//! dependence or stride analyses) can read directly, at the price of
//! losing cross-instruction correlation in the compressed form. The
//! per-tuple time-stamps that vertical decomposition needs to stay
//! globally ordered are kept as a per-instruction time grammar.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};

use orp_core::{OrSink, OrTuple, SessionSink};
use orp_format::{
    read_single_chunk, read_varint, write_single_chunk, write_varint, FormatError, ProfileKind,
};
use orp_sequitur::{Grammar, Sequitur};
use orp_trace::InstrId;

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One instruction's compressed sub-streams.
#[derive(Debug, Clone, Default)]
struct InstrStreams {
    group: Sequitur,
    object: Sequitur,
    offset: Sequitur,
    time: Sequitur,
}

/// The hybrid vertical-then-horizontal lossless profiler.
#[derive(Debug, Clone, Default)]
pub struct HybridProfiler {
    streams: BTreeMap<InstrId, InstrStreams>,
    tuples: u64,
}

impl HybridProfiler {
    /// Creates an empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tuples consumed.
    #[must_use]
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Publishes the profiler's growth counters onto `rec`.
    pub fn record_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("hybrid.tuples", self.tuples);
        rec.counter("hybrid.instructions", self.streams.len() as u64);
    }

    /// Publishes the grammar stage's shape (`grammar.*`) onto `rec`:
    /// rules, right-hand-side symbols and compressor heap bytes
    /// totalled across every per-instruction grammar, including the
    /// time streams the hybrid carries for global ordering.
    pub fn record_grammar_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        let mut rules = 0u64;
        let mut symbols = 0u64;
        let mut heap = 0u64;
        for s in self.streams.values() {
            for seq in [&s.group, &s.object, &s.offset, &s.time] {
                rules += seq.rule_count() as u64;
                symbols += seq.size();
                heap += seq.heap_bytes();
            }
        }
        rec.counter("grammar.rules.instructions", rules);
        rec.counter("grammar.symbols.instructions", symbols);
        rec.counter("grammar.heap_bytes.instructions", heap);
    }

    /// Finalizes into per-instruction grammars.
    #[must_use]
    pub fn into_profile(self) -> HybridProfile {
        HybridProfile {
            instrs: self
                .streams
                .into_iter()
                .map(|(instr, s)| {
                    (
                        instr,
                        InstrGrammars {
                            group: s.group.into_grammar(),
                            object: s.object.into_grammar(),
                            offset: s.offset.into_grammar(),
                            time: s.time.into_grammar(),
                        },
                    )
                })
                .collect(),
            tuples: self.tuples,
        }
    }
}

impl OrSink for HybridProfiler {
    fn tuple(&mut self, t: &OrTuple) {
        let s = self.streams.entry(t.instr).or_default();
        s.group.push(u64::from(t.group.0));
        s.object.push(t.object.0);
        s.offset.push(t.offset);
        s.time.push(t.time.0);
        self.tuples += 1;
    }
}

impl SessionSink for HybridProfiler {
    const STATE_NAME: &'static str = "whomp-hybrid";

    fn save_state(&self, w: &mut impl Write) -> io::Result<()> {
        write_varint(w, self.tuples)?;
        write_varint(w, self.streams.len() as u64)?;
        for (instr, s) in &self.streams {
            write_varint(w, u64::from(instr.0))?;
            s.group.save_state(w)?;
            s.object.save_state(w)?;
            s.offset.save_state(w)?;
            s.time.save_state(w)?;
        }
        Ok(())
    }

    fn restore_state(r: &mut impl Read) -> io::Result<Self> {
        let tuples = read_varint(r)?;
        let count = read_varint(r)?;
        let mut streams = BTreeMap::new();
        let mut prev: Option<u32> = None;
        let mut total = 0u64;
        for _ in 0..count {
            let instr = u32::try_from(read_varint(r)?)
                .map_err(|_| bad_data("instruction id does not fit u32"))?;
            if prev.is_some_and(|p| p >= instr) {
                return Err(bad_data("instruction streams not strictly sorted"));
            }
            prev = Some(instr);
            let group = Sequitur::restore_state(r)?;
            let object = Sequitur::restore_state(r)?;
            let offset = Sequitur::restore_state(r)?;
            let time = Sequitur::restore_state(r)?;
            let len = group.input_len();
            if object.input_len() != len || offset.input_len() != len || time.input_len() != len {
                return Err(bad_data("per-instruction streams must be aligned"));
            }
            total += len;
            streams.insert(
                InstrId(instr),
                InstrStreams {
                    group,
                    object,
                    offset,
                    time,
                },
            );
        }
        if total != tuples {
            return Err(bad_data("stream lengths disagree with tuple count"));
        }
        Ok(HybridProfiler { streams, tuples })
    }

    fn finalize_profile(self, w: &mut impl Write) -> io::Result<()> {
        self.into_profile().write_to(w)
    }
}

impl orp_core::ShardableSink for HybridProfiler {
    /// The profiler's own vertical-decomposition key: every state the
    /// sink keeps is per-instruction.
    fn shard_key(t: &OrTuple) -> u64 {
        u64::from(t.instr.0)
    }

    /// Union of the disjoint per-instruction maps. Each shard saw its
    /// instructions' complete sub-streams in collection order, so the
    /// union equals the single-threaded profiler state exactly.
    fn merge(parts: Vec<Self>) -> Self {
        let mut merged = HybridProfiler::new();
        for part in parts {
            merged.tuples += part.tuples;
            for (instr, streams) in part.streams {
                let clash = merged.streams.insert(instr, streams);
                debug_assert!(clash.is_none(), "instruction {instr} on two shards");
            }
        }
        merged
    }

    /// The per-instruction partition keys, matching
    /// [`ShardableSink::shard_key`](orp_core::ShardableSink::shard_key).
    fn state_keys(&self) -> Vec<u64> {
        self.streams.keys().map(|i| u64::from(i.0)).collect()
    }
}

/// One instruction's four grammars in a [`HybridProfile`].
#[derive(Debug, Clone)]
pub struct InstrGrammars {
    /// Grammar of the instruction's group stream.
    pub group: Grammar,
    /// Grammar of the instruction's object stream.
    pub object: Grammar,
    /// Grammar of the instruction's offset stream.
    pub offset: Grammar,
    /// Grammar of the instruction's time-stamp stream (keeps the
    /// sub-streams globally ordered, per §2.2).
    pub time: Grammar,
}

impl InstrGrammars {
    /// Total grammar size across the instruction's dimensions,
    /// excluding the time stream (comparable to OMSG's size, which has
    /// no time dimension either).
    #[must_use]
    pub fn size(&self) -> u64 {
        self.group.size() + self.object.size() + self.offset.size()
    }

    /// Re-zips this instruction's sub-streams into
    /// `(group, object, offset, time)` quadruples.
    #[must_use]
    pub fn expand(&self) -> Vec<(u64, u64, u64, u64)> {
        let g = self.group.expand();
        let o = self.object.expand();
        let f = self.offset.expand();
        let t = self.time.expand();
        assert!(
            g.len() == o.len() && o.len() == f.len() && f.len() == t.len(),
            "per-instruction streams must be aligned"
        );
        g.into_iter()
            .zip(o)
            .zip(f)
            .zip(t)
            .map(|(((g, o), f), t)| (g, o, f, t))
            .collect()
    }
}

/// The hybrid profiler's output: per-instruction grammars.
#[derive(Debug, Clone)]
pub struct HybridProfile {
    instrs: BTreeMap<InstrId, InstrGrammars>,
    tuples: u64,
}

impl HybridProfile {
    /// Number of accesses covered.
    #[must_use]
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// The grammars of one instruction.
    #[must_use]
    pub fn instr(&self, instr: InstrId) -> Option<&InstrGrammars> {
        self.instrs.get(&instr)
    }

    /// Iterates over `(instruction, grammars)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (InstrId, &InstrGrammars)> {
        self.instrs.iter().map(|(&i, g)| (i, g))
    }

    /// Total size across all instructions (location dimensions only).
    #[must_use]
    pub fn total_size(&self) -> u64 {
        self.instrs.values().map(InstrGrammars::size).sum()
    }

    /// Publishes the finished profile's shape onto `rec`: totals plus a
    /// per-instruction grammar-size distribution.
    pub fn record_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("hybrid.tuples", self.tuples);
        rec.counter("hybrid.instructions", self.instrs.len() as u64);
        rec.counter("hybrid.grammar_symbols", self.total_size());
        for grammars in self.instrs.values() {
            rec.observe("hybrid.symbols_per_instruction", grammars.size());
        }
    }

    /// Reconstructs the full object-relative stream in global time
    /// order by merging the per-instruction sub-streams on their
    /// time-stamps — the §2.2 point of carrying the time dimension.
    #[must_use]
    pub fn expand_merged(&self) -> Vec<(u64, u64, u64, u64, u64)> {
        let mut all: Vec<(u64, u64, u64, u64, u64)> = Vec::with_capacity(self.tuples as usize);
        for (instr, grammars) in &self.instrs {
            for (g, o, f, t) in grammars.expand() {
                all.push((t, u64::from(instr.0), g, o, f));
            }
        }
        all.sort_unstable();
        all.into_iter()
            .map(|(t, i, g, o, f)| (i, g, o, f, t))
            .collect()
    }

    /// Serializes the per-instruction grammar payload (no container
    /// framing — [`HybridProfile::write_to`] adds that).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_payload(&self, w: &mut impl Write) -> io::Result<()> {
        write_varint(w, self.tuples)?;
        write_varint(w, self.instrs.len() as u64)?;
        for (instr, g) in &self.instrs {
            write_varint(w, u64::from(instr.0))?;
            g.group.write_to(w)?;
            g.object.write_to(w)?;
            g.offset.write_to(w)?;
            g.time.write_to(w)?;
        }
        Ok(())
    }

    /// Deserializes a payload written by [`HybridProfile::write_payload`].
    ///
    /// # Errors
    ///
    /// Propagates reader errors; rejects payloads whose instruction keys
    /// are not strictly sorted or whose per-instruction grammars expand
    /// to different lengths.
    pub fn read_payload(r: &mut impl Read) -> io::Result<Self> {
        let tuples = read_varint(r)?;
        let count = read_varint(r)?;
        let mut instrs = BTreeMap::new();
        let mut prev: Option<u32> = None;
        let mut total = 0u64;
        for _ in 0..count {
            let instr = u32::try_from(read_varint(r)?)
                .map_err(|_| bad_data("instruction id does not fit u32"))?;
            if prev.is_some_and(|p| p >= instr) {
                return Err(bad_data("instruction grammars not strictly sorted"));
            }
            prev = Some(instr);
            let group = Grammar::read_from(r)?;
            let object = Grammar::read_from(r)?;
            let offset = Grammar::read_from(r)?;
            let time = Grammar::read_from(r)?;
            let len = group.expanded_len();
            if object.expanded_len() != len
                || offset.expanded_len() != len
                || time.expanded_len() != len
            {
                return Err(bad_data("per-instruction streams must be aligned"));
            }
            total += len;
            instrs.insert(
                InstrId(instr),
                InstrGrammars {
                    group,
                    object,
                    offset,
                    time,
                },
            );
        }
        if total != tuples {
            return Err(bad_data("stream lengths disagree with tuple count"));
        }
        Ok(HybridProfile { instrs, tuples })
    }

    /// Writes the profile as a `.orp` container of kind `Hybrid`.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut payload = Vec::new();
        self.write_payload(&mut payload)?;
        write_single_chunk(w, ProfileKind::Hybrid, &payload)
    }

    /// Reads a container written by [`HybridProfile::write_to`].
    ///
    /// # Errors
    ///
    /// Typed [`FormatError`]s for envelope damage (wrong kind, bad
    /// checksum, truncation); payload validation errors from
    /// [`HybridProfile::read_payload`].
    pub fn read_from(r: &mut impl Read) -> Result<Self, FormatError> {
        let payload = read_single_chunk(r, ProfileKind::Hybrid)?;
        let mut cursor = payload.as_slice();
        let profile = HybridProfile::read_payload(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(FormatError::Malformed(
                "trailing bytes after hybrid payload",
            ));
        }
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_core::{GroupId, ObjectSerial, ShardableSink, Timestamp};
    use orp_trace::AccessKind;

    fn feed(p: &mut HybridProfiler, instr: u32, obj: u64, off: u64, time: u64) {
        p.tuple(&OrTuple {
            instr: InstrId(instr),
            kind: AccessKind::Load,
            group: GroupId(0),
            object: ObjectSerial(obj),
            offset: off,
            time: Timestamp(time),
            size: 8,
        });
    }

    fn interleaved() -> HybridProfiler {
        let mut p = HybridProfiler::new();
        let mut t = 0;
        for k in 0..50 {
            feed(&mut p, 0, k, 0, t);
            feed(&mut p, 1, k, 8, t + 1);
            t += 2;
        }
        p
    }

    #[test]
    fn substreams_split_by_instruction() {
        let profile = interleaved().into_profile();
        assert_eq!(profile.tuples(), 100);
        let i0 = profile.instr(InstrId(0)).unwrap();
        assert_eq!(i0.offset.expand(), vec![0; 50], "instr 0 always offset 0");
        let i1 = profile.instr(InstrId(1)).unwrap();
        assert_eq!(i1.offset.expand(), vec![8; 50]);
        assert!(profile.instr(InstrId(9)).is_none());
        assert_eq!(profile.iter().count(), 2);
    }

    #[test]
    fn merged_expansion_restores_global_order() {
        let profile = interleaved().into_profile();
        let merged = profile.expand_merged();
        assert_eq!(merged.len(), 100);
        // Time strictly increasing, instructions alternating.
        for (i, row) in merged.iter().enumerate() {
            assert_eq!(row.4, i as u64, "time order restored");
            assert_eq!(row.0, (i % 2) as u64);
        }
    }

    #[test]
    fn per_instruction_streams_are_simpler_than_the_mix() {
        // Each instruction's offset stream is constant, so its grammar
        // compresses logarithmically (Sequitur builds a doubling
        // hierarchy over the run of identical symbols).
        let profile = interleaved().into_profile();
        let i0 = profile.instr(InstrId(0)).unwrap();
        assert!(i0.offset.size() <= 16, "got {}", i0.offset.size());
    }

    #[test]
    fn empty_profiler_finalizes() {
        let profile = HybridProfiler::new().into_profile();
        assert_eq!(profile.tuples(), 0);
        assert_eq!(profile.total_size(), 0);
        assert!(profile.expand_merged().is_empty());
    }

    #[test]
    fn profile_container_roundtrip() {
        let profile = interleaved().into_profile();
        let mut buf = Vec::new();
        profile.write_to(&mut buf).unwrap();
        let back = HybridProfile::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.tuples(), profile.tuples());
        assert_eq!(back.total_size(), profile.total_size());
        assert_eq!(back.expand_merged(), profile.expand_merged());

        // Truncation of any prefix is a typed error, never a panic.
        for cut in 0..buf.len() {
            assert!(
                HybridProfile::read_from(&mut &buf[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn state_roundtrip_is_verbatim() {
        let profiler = interleaved();
        let mut state = Vec::new();
        profiler.save_state(&mut state).unwrap();
        let restored = HybridProfiler::restore_state(&mut state.as_slice()).unwrap();
        let mut again = Vec::new();
        restored.save_state(&mut again).unwrap();
        assert_eq!(state, again);
        assert_eq!(
            restored.state_keys(),
            vec![0, 1],
            "one key per instruction stream"
        );
    }

    fn probe_events() -> Vec<orp_trace::ProbeEvent> {
        use orp_trace::{AllocEvent, AllocSiteId, ProbeEvent, RawAddress};
        let mut events = Vec::new();
        for k in 0..32u64 {
            events.push(ProbeEvent::Alloc(AllocEvent {
                site: AllocSiteId((k % 3) as u32),
                base: RawAddress(0x4000 + k * 128),
                size: 96,
            }));
        }
        for p in 0..25u64 {
            for k in 0..32u64 {
                events.push(ProbeEvent::Access(orp_trace::AccessEvent::load(
                    InstrId(((k + p) % 6) as u32),
                    RawAddress(0x4000 + k * 128 + 8 * (p % 12)),
                    8,
                )));
            }
        }
        events
    }

    #[test]
    fn checkpoint_hands_off_to_the_sharded_pipeline_byte_identically() {
        use orp_core::Session;
        use orp_trace::ProbeSink;

        let events = probe_events();
        let cut = events.len() / 2;

        let mut uninterrupted = Session::new(HybridProfiler::new());
        uninterrupted.feed(&events);
        let mut reference = Vec::new();
        uninterrupted.finalize(&mut reference).unwrap();

        let mut first = Session::new(HybridProfiler::new());
        first.feed(&events[..cut]);
        let mut snapshot = Vec::new();
        first.checkpoint(&mut snapshot).unwrap();

        // Single-threaded resume.
        let mut resumed = Session::<HybridProfiler>::resume(&mut snapshot.as_slice()).unwrap();
        resumed.feed(&events[cut..]);
        let mut profile = Vec::new();
        resumed.finalize(&mut profile).unwrap();
        assert_eq!(profile, reference, "single-threaded resume");

        // Sharded resume: the restored state becomes shard 0, its
        // instruction keys stay pinned there, and the merge reproduces
        // the single-threaded container byte for byte.
        for shards in [1, 2, 4] {
            let resumed = Session::<HybridProfiler>::resume(&mut snapshot.as_slice()).unwrap();
            let mut sharded =
                orp_core::ShardedCdc::spawn(resumed, shards, |_| HybridProfiler::new());
            for &ev in &events[cut..] {
                sharded.event(ev);
            }
            let joined = sharded.join().expect("pipeline healthy");
            assert!(joined.degraded.is_empty());
            let mut profile = Vec::new();
            joined.session.finalize(&mut profile).unwrap();
            assert_eq!(profile, reference, "resume onto {shards} shards");
        }
    }
}
