//! The online LEAP profiler: vertical decomposition into bounded
//! linear compressors.

use std::io::{self, Read, Write};

use orp_core::sharded::instr_group_key;
use orp_core::{FastU64Map, GroupId, OrSink, OrTuple, SessionSink};
use orp_format::{read_varint, write_varint};
use orp_lmad::LinearCompressor;
use orp_trace::{AccessKind, InstrId};

use crate::{LeapProfile, LeapStream, DEFAULT_LMAD_BUDGET};

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One instruction's bookkeeping: its static access kind (the first
/// tuple's) and its exact execution count.
#[derive(Debug, Clone, Copy)]
struct InstrSlot {
    instr: InstrId,
    kind: AccessKind,
    execs: u64,
}

/// One `(instruction, group)` stream plus the index of its
/// instruction's [`InstrSlot`].
#[derive(Debug, Clone)]
struct StreamSlot {
    key: u64,
    instr: usize,
    stream: LeapStream,
}

/// Splits an [`instr_group_key`] back into its pair. The key's `u64`
/// order is the `(InstrId, GroupId)` order, so sorting by key sorts by
/// pair.
fn split_key(key: u64) -> (InstrId, GroupId) {
    (InstrId((key >> 32) as u32), GroupId(key as u32))
}

/// The LEAP profiler: an [`OrSink`] that demultiplexes the
/// object-relative stream by `(instruction, group)` and feeds each
/// sub-stream's `(object, offset, time)` points to bounded linear
/// compressors.
///
/// The hot path is one [`FastU64Map`] lookup per tuple: the
/// [`instr_group_key`] maps to a stream slot, and the slot carries its
/// instruction's slot index. Slots stay in first-seen order; every
/// published form (profile, checkpoint, split) is sorted when it is
/// produced.
#[derive(Debug, Clone)]
pub struct LeapProfiler {
    budget: usize,
    stream_index: FastU64Map<usize>,
    streams: Vec<StreamSlot>,
    /// Consulted only when a stream opens.
    instr_index: FastU64Map<usize>,
    instrs: Vec<InstrSlot>,
}

impl LeapProfiler {
    /// Creates a profiler with the paper's LMAD budget
    /// ([`DEFAULT_LMAD_BUDGET`]).
    #[must_use]
    pub fn new() -> Self {
        Self::with_budget(DEFAULT_LMAD_BUDGET)
    }

    /// Creates a profiler with a custom per-stream LMAD budget (used by
    /// the budget-sweep ablation).
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    #[must_use]
    pub fn with_budget(budget: usize) -> Self {
        assert!(budget > 0, "LMAD budget must be positive");
        LeapProfiler {
            budget,
            stream_index: FastU64Map::default(),
            streams: Vec::new(),
            instr_index: FastU64Map::default(),
            instrs: Vec::new(),
        }
    }

    /// The configured per-stream budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of `(instruction, group)` streams opened so far.
    #[must_use]
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Publishes the profiler's growth counters onto `rec`.
    pub fn record_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("leap.streams", self.streams.len() as u64);
        rec.counter("leap.instructions", self.instrs.len() as u64);
    }

    /// Finalizes into an immutable [`LeapProfile`].
    #[must_use]
    pub fn into_profile(self) -> LeapProfile {
        let execs = self.instrs.iter().map(|s| (s.instr, s.execs)).collect();
        let kinds = self.instrs.iter().map(|s| (s.instr, s.kind)).collect();
        let streams = self
            .streams
            .into_iter()
            .map(|s| (split_key(s.key), s.stream))
            .collect();
        LeapProfile::from_parts(streams, execs, kinds)
    }

    /// The instruction's slot index, opening the slot (with `kind`) on
    /// first sight.
    fn instr_slot(&mut self, instr: InstrId, kind: AccessKind) -> usize {
        *self
            .instr_index
            .entry(u64::from(instr.0))
            .or_insert_with(|| {
                self.instrs.push(InstrSlot {
                    instr,
                    kind,
                    execs: 0,
                });
                self.instrs.len() - 1
            })
    }

    /// Appends a stream slot; the caller guarantees `key` is new.
    fn open_stream(&mut self, key: u64, instr: usize, stream: LeapStream) -> usize {
        let slot = self.streams.len();
        self.streams.push(StreamSlot { key, instr, stream });
        let clash = self.stream_index.insert(key, slot);
        debug_assert!(clash.is_none(), "stream {key:#x} opened twice");
        slot
    }

    /// The instruction slots in ascending instruction order.
    fn sorted_instrs(&self) -> Vec<&InstrSlot> {
        let mut instrs: Vec<&InstrSlot> = self.instrs.iter().collect();
        instrs.sort_unstable_by_key(|s| s.instr);
        instrs
    }

    /// The stream slots in ascending `(instruction, group)` order.
    fn sorted_streams(&self) -> Vec<&StreamSlot> {
        let mut streams: Vec<&StreamSlot> = self.streams.iter().collect();
        streams.sort_unstable_by_key(|s| s.key);
        streams
    }
}

impl Default for LeapProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl OrSink for LeapProfiler {
    fn tuple(&mut self, t: &OrTuple) {
        let key = instr_group_key(t.instr, t.group);
        let slot = match self.stream_index.get(&key) {
            Some(&slot) => slot,
            None => {
                let instr = self.instr_slot(t.instr, t.kind);
                self.open_stream(key, instr, LeapStream::new(self.budget))
            }
        };
        let StreamSlot { instr, stream, .. } = &mut self.streams[slot];
        self.instrs[*instr].execs += 1;
        stream.push(
            i64::try_from(t.object.0).expect("object serial fits i64"),
            i64::try_from(t.offset).expect("offset fits i64"),
            i64::try_from(t.time.0).expect("time fits i64"),
        );
    }
}

impl SessionSink for LeapProfiler {
    const STATE_NAME: &'static str = "leap";

    fn save_state(&self, w: &mut impl Write) -> io::Result<()> {
        write_varint(w, self.budget as u64)?;
        write_varint(w, self.instrs.len() as u64)?;
        for slot in self.sorted_instrs() {
            write_varint(w, u64::from(slot.instr.0))?;
            w.write_all(&[u8::from(slot.kind.is_store())])?;
            write_varint(w, slot.execs)?;
        }
        write_varint(w, self.streams.len() as u64)?;
        for slot in self.sorted_streams() {
            let (instr, group) = split_key(slot.key);
            write_varint(w, u64::from(instr.0))?;
            write_varint(w, u64::from(group.0))?;
            slot.stream.full.write_to(w)?;
            slot.stream.loc.write_to(w)?;
        }
        Ok(())
    }

    fn restore_state(r: &mut impl Read) -> io::Result<Self> {
        let budget = usize::try_from(read_varint(r)?)
            .map_err(|_| bad_data("LMAD budget does not fit usize"))?;
        if budget == 0 {
            return Err(bad_data("LMAD budget must be positive"));
        }
        let mut profiler = LeapProfiler::with_budget(budget);
        let instr_count = read_varint(r)?;
        let mut prev: Option<u32> = None;
        for _ in 0..instr_count {
            let instr = u32::try_from(read_varint(r)?)
                .map_err(|_| bad_data("instruction id does not fit u32"))?;
            if prev.is_some_and(|p| p >= instr) {
                return Err(bad_data("instruction table not strictly sorted"));
            }
            prev = Some(instr);
            let mut kind1 = [0u8; 1];
            r.read_exact(&mut kind1)?;
            let kind = match kind1[0] {
                0 => AccessKind::Load,
                1 => AccessKind::Store,
                _ => return Err(bad_data("bad access kind")),
            };
            let count = read_varint(r)?;
            let slot = profiler.instr_slot(InstrId(instr), kind);
            profiler.instrs[slot].execs = count;
        }
        let stream_count = read_varint(r)?;
        let mut prev: Option<(u32, u32)> = None;
        for _ in 0..stream_count {
            let instr = u32::try_from(read_varint(r)?)
                .map_err(|_| bad_data("instruction id does not fit u32"))?;
            let group = u32::try_from(read_varint(r)?)
                .map_err(|_| bad_data("group id does not fit u32"))?;
            if prev.is_some_and(|p| p >= (instr, group)) {
                return Err(bad_data("stream table not strictly sorted"));
            }
            prev = Some((instr, group));
            let Some(&instr_slot) = profiler.instr_index.get(&u64::from(instr)) else {
                return Err(bad_data("stream references unknown instruction"));
            };
            let full = LinearCompressor::read_from(r)?;
            let loc = LinearCompressor::read_from(r)?;
            if full.dims() != 3 || loc.dims() != 2 {
                return Err(bad_data("stream compressors have wrong dimensionality"));
            }
            if full.budget() != budget || loc.budget() != budget {
                return Err(bad_data("stream budget disagrees with profiler budget"));
            }
            let key = instr_group_key(InstrId(instr), GroupId(group));
            profiler.open_stream(key, instr_slot, LeapStream { full, loc });
        }
        Ok(profiler)
    }

    fn finalize_profile(self, w: &mut impl Write) -> io::Result<()> {
        self.into_profile().write_to(w)
    }
}

impl orp_core::ShardableSink for LeapProfiler {
    /// LEAP's vertical-decomposition key: compressor state is per
    /// `(instruction, group)` stream.
    fn shard_key(t: &OrTuple) -> u64 {
        instr_group_key(t.instr, t.group)
    }

    /// Union of the disjoint stream sets. The per-instruction slots
    /// *can* span shards (one instruction touching two groups);
    /// executions merge by sum, and the access kind is a static
    /// property of the instruction so any shard's value is the value.
    fn merge(parts: Vec<Self>) -> Self {
        let mut merged = match parts.first() {
            Some(first) => LeapProfiler::with_budget(first.budget),
            None => LeapProfiler::new(),
        };
        for part in parts {
            debug_assert_eq!(part.budget, merged.budget, "shards must share one budget");
            let mut remap = Vec::with_capacity(part.instrs.len());
            for slot in &part.instrs {
                let at = merged.instr_slot(slot.instr, slot.kind);
                let into = &mut merged.instrs[at];
                debug_assert_eq!(
                    into.kind, slot.kind,
                    "access kind is static per instruction"
                );
                into.execs += slot.execs;
                remap.push(at);
            }
            for slot in part.streams {
                merged.open_stream(slot.key, remap[slot.instr], slot.stream);
            }
        }
        merged
    }

    /// Deals the streams out by key, in ascending key order. Each
    /// instruction slot goes with the streams that use it, and its
    /// executions are counted in the first part that receives it —
    /// exactly once, since the merge sums them. An instruction without
    /// streams (a restored state may hold one) stays in part 0.
    fn split(self, parts: usize, route: &mut dyn FnMut(u64) -> usize) -> Vec<Self> {
        let mut out: Vec<LeapProfiler> = (0..parts)
            .map(|_| LeapProfiler::with_budget(self.budget))
            .collect();
        let mut counted = vec![false; self.instrs.len()];
        let mut streams = self.streams;
        streams.sort_unstable_by_key(|s| s.key);
        for slot in streams {
            let part = &mut out[route(slot.key)];
            let InstrSlot { instr, kind, execs } = self.instrs[slot.instr];
            let at = part.instr_slot(instr, kind);
            if !std::mem::replace(&mut counted[slot.instr], true) {
                part.instrs[at].execs = execs;
            }
            part.open_stream(slot.key, at, slot.stream);
        }
        for (slot, counted) in self.instrs.iter().zip(counted) {
            if !counted {
                let at = out[0].instr_slot(slot.instr, slot.kind);
                out[0].instrs[at].execs = slot.execs;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use orp_core::{ObjectSerial, ShardableSink, Timestamp};
    use proptest::prelude::*;

    fn tuple(instr: u32, group: u32, object: u64, offset: u64, time: u64) -> OrTuple {
        OrTuple {
            instr: InstrId(instr),
            kind: if instr.is_multiple_of(2) {
                AccessKind::Load
            } else {
                AccessKind::Store
            },
            group: GroupId(group),
            object: ObjectSerial(object),
            offset,
            time: Timestamp(time),
            size: 8,
        }
    }

    #[test]
    fn streams_split_by_instruction_and_group() {
        let mut p = LeapProfiler::new();
        p.tuple(&tuple(0, 0, 0, 0, 0));
        p.tuple(&tuple(0, 1, 0, 0, 1));
        p.tuple(&tuple(1, 0, 0, 0, 2));
        assert_eq!(p.stream_count(), 3);
        let profile = p.into_profile();
        assert_eq!(profile.execs(InstrId(0)), 2);
        assert_eq!(profile.execs(InstrId(1)), 1);
        assert_eq!(profile.kind(InstrId(0)), Some(AccessKind::Load));
        assert_eq!(profile.kind(InstrId(1)), Some(AccessKind::Store));
    }

    #[test]
    fn linear_stream_stays_within_one_lmad() {
        let mut p = LeapProfiler::new();
        for k in 0..1000u64 {
            p.tuple(&tuple(0, 0, k, 8, 3 * k));
        }
        let profile = p.into_profile();
        let stream = &profile.streams()[&(InstrId(0), GroupId(0))];
        assert_eq!(stream.full.lmads().len(), 1);
        assert_eq!(stream.full.lmads()[0].count, 1000);
        assert_eq!(stream.full.lmads()[0].stride, vec![1, 0, 3]);
        assert!(stream.loc.fully_captured());
    }

    #[test]
    fn custom_budget_is_respected() {
        let mut p = LeapProfiler::with_budget(2);
        assert_eq!(p.budget(), 2);
        for k in 0..20u64 {
            // Alternating wild offsets exhaust a budget of 2.
            p.tuple(&tuple(0, 0, 0, (k * 7919) % 997, k));
        }
        let profile = p.into_profile();
        let stream = &profile.streams()[&(InstrId(0), GroupId(0))];
        assert!(stream.full.lmads().len() <= 2);
        assert!(!stream.full.fully_captured());
        // Execution counts stay exact even though the stream overflowed.
        assert_eq!(profile.execs(InstrId(0)), 20);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn zero_budget_panics() {
        let _ = LeapProfiler::with_budget(0);
    }

    fn probe_events() -> Vec<orp_trace::ProbeEvent> {
        use orp_trace::{AccessEvent, AllocEvent, AllocSiteId, ProbeEvent, RawAddress};
        let mut events = Vec::new();
        for k in 0..24u64 {
            events.push(ProbeEvent::Alloc(AllocEvent {
                site: AllocSiteId((k % 4) as u32),
                base: RawAddress(0x8000 + k * 256),
                size: 192,
            }));
        }
        for p in 0..20u64 {
            for k in 0..24u64 {
                events.push(ProbeEvent::Access(AccessEvent::load(
                    InstrId(((k + p) % 5) as u32),
                    RawAddress(0x8000 + k * 256 + 8 * (p % 24)),
                    8,
                )));
            }
        }
        events
    }

    /// The `BTreeMap` profiler the one-lookup demux replaced, kept as
    /// the differential reference for every published form.
    #[derive(Debug)]
    struct Reference {
        budget: usize,
        streams: BTreeMap<(InstrId, GroupId), LeapStream>,
        execs: BTreeMap<InstrId, u64>,
        kinds: BTreeMap<InstrId, AccessKind>,
    }

    impl Reference {
        fn new(budget: usize) -> Self {
            Reference {
                budget,
                streams: BTreeMap::new(),
                execs: BTreeMap::new(),
                kinds: BTreeMap::new(),
            }
        }

        fn tuple(&mut self, t: &OrTuple) {
            *self.execs.entry(t.instr).or_default() += 1;
            self.kinds.entry(t.instr).or_insert(t.kind);
            self.streams
                .entry((t.instr, t.group))
                .or_insert_with(|| LeapStream::new(self.budget))
                .push(t.object.0 as i64, t.offset as i64, t.time.0 as i64);
        }

        fn state(&self) -> Vec<u8> {
            let mut w = Vec::new();
            write_varint(&mut w, self.budget as u64).unwrap();
            write_varint(&mut w, self.execs.len() as u64).unwrap();
            for (&instr, &execs) in &self.execs {
                write_varint(&mut w, u64::from(instr.0)).unwrap();
                w.push(u8::from(self.kinds[&instr].is_store()));
                write_varint(&mut w, execs).unwrap();
            }
            write_varint(&mut w, self.streams.len() as u64).unwrap();
            for (&(instr, group), stream) in &self.streams {
                write_varint(&mut w, u64::from(instr.0)).unwrap();
                write_varint(&mut w, u64::from(group.0)).unwrap();
                stream.full.write_to(&mut w).unwrap();
                stream.loc.write_to(&mut w).unwrap();
            }
            w
        }

        fn merge(parts: Vec<Self>) -> Self {
            let mut merged = Reference::new(parts[0].budget);
            for part in parts {
                merged.streams.extend(part.streams);
                for (instr, execs) in part.execs {
                    *merged.execs.entry(instr).or_default() += execs;
                }
                for (instr, kind) in part.kinds {
                    merged.kinds.entry(instr).or_insert(kind);
                }
            }
            merged
        }

        fn profile(self) -> Vec<u8> {
            let mut w = Vec::new();
            LeapProfile::from_parts(self.streams, self.execs, self.kinds)
                .write_to(&mut w)
                .unwrap();
            w
        }
    }

    fn state_of(p: &LeapProfiler) -> Vec<u8> {
        let mut w = Vec::new();
        p.save_state(&mut w).unwrap();
        w
    }

    fn profile_of(p: LeapProfiler) -> Vec<u8> {
        let mut w = Vec::new();
        p.into_profile().write_to(&mut w).unwrap();
        w
    }

    fn arb_tuples() -> impl Strategy<Value = Vec<OrTuple>> {
        let access = (0u32..7, 0u32..4, 0u64..6, 0u64..8, 0u64..3);
        proptest::collection::vec(access, 0..300).prop_map(|raw| {
            let mut time = 0;
            raw.into_iter()
                .map(|(instr, group, object, field, dt)| {
                    time += dt;
                    tuple(instr, group, object, 8 * field, time)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn one_lookup_demux_publishes_the_btreemap_bytes(
            tuples in arb_tuples(),
            budget in 1usize..6,
            cut in 0usize..300,
            shards in 1u64..4,
        ) {
            let cut = cut.min(tuples.len());
            let mut p = LeapProfiler::with_budget(budget);
            let mut reference = Reference::new(budget);
            for t in &tuples[..cut] {
                p.tuple(t);
                reference.tuple(t);
            }
            prop_assert_eq!(state_of(&p), reference.state());

            // Restore mid-stream and keep feeding.
            let mut p = LeapProfiler::restore_state(&mut reference.state().as_slice()).unwrap();
            for t in &tuples[cut..] {
                p.tuple(t);
                reference.tuple(t);
            }
            prop_assert_eq!(state_of(&p), reference.state());

            // Shard by stream key and merge back.
            let mut parts: Vec<LeapProfiler> =
                (0..shards).map(|_| LeapProfiler::with_budget(budget)).collect();
            let mut reference_parts: Vec<Reference> =
                (0..shards).map(|_| Reference::new(budget)).collect();
            for t in &tuples {
                let shard = (<LeapProfiler as ShardableSink>::shard_key(t) % shards) as usize;
                parts[shard].tuple(t);
                reference_parts[shard].tuple(t);
            }
            let merged = <LeapProfiler as ShardableSink>::merge(parts);
            let reference_merged = Reference::merge(reference_parts);
            prop_assert_eq!(state_of(&merged), reference_merged.state());
            prop_assert_eq!(state_of(&merged), state_of(&p));
            prop_assert_eq!(profile_of(merged), reference_merged.profile());
            prop_assert_eq!(profile_of(p), reference.profile());
        }
    }

    /// A route that is a function of the key alone, different per seed.
    fn route_by(seed: u64, parts: usize) -> impl FnMut(u64) -> usize {
        move |key| ((key ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize % parts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn split_is_the_inverse_of_merge(
            tuples in arb_tuples(),
            budget in 1usize..6,
            cut in 0usize..300,
            parts in 1usize..6,
            seed in 0u64..1_000_000,
        ) {
            let cut = cut.min(tuples.len());
            let mut straight = LeapProfiler::with_budget(budget);
            for t in &tuples[..cut] {
                straight.tuple(t);
            }
            let at_cut = state_of(&straight);

            // merge(split(p)) is p, and keys are routed once, ascending.
            let mut keys = Vec::new();
            let mut route = route_by(seed, parts);
            let split = straight.clone().split(parts, &mut |key| {
                keys.push(key);
                route(key)
            });
            prop_assert_eq!(split.len(), parts);
            prop_assert!(keys.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(keys.len(), straight.stream_count());
            prop_assert_eq!(state_of(&LeapProfiler::merge(split)), at_cut.clone());

            // Split at the cut, each part fed its own keys' remaining
            // tuples, merges into the straight run's state and profile.
            let mut route = route_by(seed, parts);
            let mut split = LeapProfiler::restore_state(&mut at_cut.as_slice())
                .unwrap()
                .split(parts, &mut route);
            for t in &tuples[cut..] {
                straight.tuple(t);
                split[route(<LeapProfiler as ShardableSink>::shard_key(t))].tuple(t);
            }
            let merged = LeapProfiler::merge(split);
            prop_assert_eq!(state_of(&merged), state_of(&straight));
            prop_assert_eq!(profile_of(merged), profile_of(straight));
        }
    }

    #[test]
    fn split_keeps_a_restored_instruction_without_streams() {
        let mut state = Vec::new();
        write_varint(&mut state, 4).unwrap();
        write_varint(&mut state, 1).unwrap();
        write_varint(&mut state, 7).unwrap();
        state.push(1);
        write_varint(&mut state, 42).unwrap();
        write_varint(&mut state, 0).unwrap();
        let lonely = LeapProfiler::restore_state(&mut state.as_slice()).unwrap();
        let parts = lonely.split(3, &mut |_| unreachable!("no stream to route"));
        assert_eq!(state_of(&parts[0]), state);
        assert_eq!(state_of(&LeapProfiler::merge(parts)), state);
    }

    #[test]
    fn state_roundtrip_is_verbatim() {
        use orp_core::Session;
        let mut session = Session::new(LeapProfiler::with_budget(4));
        session.feed(&probe_events());
        let mut state = Vec::new();
        session.cdc().sink().save_state(&mut state).unwrap();
        let restored = LeapProfiler::restore_state(&mut state.as_slice()).unwrap();
        assert_eq!(restored.budget(), 4);
        let mut again = Vec::new();
        restored.save_state(&mut again).unwrap();
        assert_eq!(state, again);
    }

    #[test]
    fn mismatched_stream_budget_is_rejected() {
        let mut p = LeapProfiler::with_budget(4);
        p.tuple(&tuple(0, 0, 0, 0, 0));
        let mut state = Vec::new();
        p.save_state(&mut state).unwrap();
        // Bump the leading budget varint so it disagrees with the
        // streams' embedded budgets.
        state[0] += 1;
        assert!(LeapProfiler::restore_state(&mut state.as_slice()).is_err());
    }

    #[test]
    fn checkpoint_hands_off_to_the_sharded_pipeline_byte_identically() {
        use orp_core::Session;
        use orp_trace::ProbeSink;

        let events = probe_events();
        let cut = events.len() / 2;

        let mut uninterrupted = Session::new(LeapProfiler::new());
        uninterrupted.feed(&events);
        let mut reference = Vec::new();
        uninterrupted.finalize(&mut reference).unwrap();

        let mut first = Session::new(LeapProfiler::new());
        first.feed(&events[..cut]);
        let mut snapshot = Vec::new();
        first.checkpoint(&mut snapshot).unwrap();

        let mut resumed = Session::<LeapProfiler>::resume(&mut snapshot.as_slice()).unwrap();
        resumed.feed(&events[cut..]);
        let mut profile = Vec::new();
        resumed.finalize(&mut profile).unwrap();
        assert_eq!(profile, reference, "single-threaded resume");

        for shards in [1, 2, 4] {
            let resumed = Session::<LeapProfiler>::resume(&mut snapshot.as_slice()).unwrap();
            let mut sharded = orp_core::ShardedCdc::spawn(resumed, shards);
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
