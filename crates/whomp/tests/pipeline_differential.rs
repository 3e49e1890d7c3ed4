//! Differential tests: the pipelined WHOMP profiler (and the hybrid
//! profiler on sharded lanes) must produce byte-identical output to
//! sequential construction — container bytes,
//! checkpoint state, checkpoints taken mid-run through the grammar
//! workers, and checkpoint/resume in both directions across the
//! grammar-worker boundary.

use orp_core::{
    Cdc, GroupId, ObjectSerial, Omc, OrSink, OrTuple, Session, SessionSink, ShardedCdc, Timestamp,
};
use orp_trace::{
    AccessEvent, AccessKind, AllocEvent, AllocSiteId, InstrId, ProbeEvent, ProbeSink, RawAddress,
};
use orp_whomp::{HybridProfiler, PipelinedWhomp, WhompProfiler};
use proptest::prelude::*;

/// A probe script long enough to cross several symbol-batch boundaries
/// (the non-loom batch is 2048 symbols) with repetitive structure the
/// grammars actually compress.
fn probe_events() -> Vec<ProbeEvent> {
    let mut events = Vec::new();
    for k in 0..64u64 {
        events.push(ProbeEvent::Alloc(AllocEvent {
            site: AllocSiteId((k % 4) as u32),
            base: RawAddress(0x8000 + k * 256),
            size: 192,
        }));
    }
    for p in 0..400u64 {
        for k in 0..64u64 {
            events.push(ProbeEvent::Access(AccessEvent::load(
                InstrId(((k + p) % 9) as u32),
                RawAddress(0x8000 + k * 256 + 8 * (p % 24)),
                8,
            )));
        }
    }
    events
}

fn drive(sink: &mut impl ProbeSink, events: &[ProbeEvent]) {
    for &ev in events {
        sink.event(ev);
    }
    sink.finish();
}

#[test]
fn pipelined_whomp_omsg_bytes_match_sequential() {
    let events = probe_events();

    let mut inline = Cdc::new(Omc::new(), WhompProfiler::new());
    drive(&mut inline, &events);
    let mut reference = Vec::new();
    let (_, profiler) = inline.into_parts();
    profiler.into_omsg().write_to(&mut reference).unwrap();

    for workers in [1, 2, 3, 4, 8] {
        let mut cdc = Cdc::new(Omc::new(), PipelinedWhomp::spawn(workers));
        drive(&mut cdc, &events);
        let (_, pipe) = cdc.into_parts();
        let (profiler, stats) = pipe.try_join().expect("pipeline healthy");
        let mut produced = Vec::new();
        profiler.into_omsg().write_to(&mut produced).unwrap();
        assert_eq!(produced, reference, "{workers} workers");

        assert_eq!(stats.workers, workers.min(4) as u64);
        assert_eq!(stats.streams.len(), 4, "one stream per OMSG dimension");
        for s in &stats.streams {
            assert_eq!(
                s.symbols, 25_600,
                "stream {} must count every collected tuple",
                s.stream
            );
            assert!(s.batches > 0, "stream {} never flushed", s.stream);
        }
    }
}

/// The hybrid profiler grows its grammars in parallel on the sharded
/// collection pipeline's lanes (`run --shards N`): every lane count
/// must reproduce the inline container.
#[test]
fn pipelined_hybrid_bytes_match_sequential() {
    let events = probe_events();

    let mut inline = Cdc::new(Omc::new(), HybridProfiler::new());
    drive(&mut inline, &events);
    let mut reference = Vec::new();
    inline
        .into_parts()
        .1
        .into_profile()
        .write_to(&mut reference)
        .unwrap();

    for lanes in [1, 2, 3, 4] {
        let session = Session::new(HybridProfiler::new());
        let mut sharded = ShardedCdc::spawn(session, lanes, |_| HybridProfiler::new());
        drive(&mut sharded, &events);
        let joined = sharded.join().expect("pipeline healthy");
        assert!(joined.degraded.is_empty(), "{lanes} lanes");
        let mut produced = Vec::new();
        joined.session.finalize(&mut produced).unwrap();
        assert_eq!(produced, reference, "{lanes} lanes");
        let routed: u64 = joined.stats.shards.iter().map(|s| s.tuples).sum();
        assert_eq!(routed, 25_600);
    }
}

/// The satellite case: checkpoint a sequential run, resume it *onto*
/// grammar workers, and the rejoined profiler must be state- and
/// container-identical to an uninterrupted (and to a sequentially
/// resumed) run.
#[test]
fn checkpoint_resume_crosses_the_grammar_worker_boundary() {
    let events = probe_events();
    let cut = events.len() / 2;

    let mut uninterrupted = Session::new(WhompProfiler::new());
    uninterrupted.feed(&events);
    let mut reference = Vec::new();
    uninterrupted.finalize(&mut reference).unwrap();

    let mut first = Session::new(WhompProfiler::new());
    first.feed(&events[..cut]);
    let mut snapshot = Vec::new();
    first.checkpoint(&mut snapshot).unwrap();

    // Sequential resume: the state-level reference for the tail.
    let mut resumed = Session::<WhompProfiler>::resume(&mut snapshot.as_slice()).unwrap();
    resumed.feed(&events[cut..]);
    let mut sequential_state = Vec::new();
    resumed
        .into_cdc()
        .sink()
        .save_state(&mut sequential_state)
        .unwrap();

    // Pipelined resume: continue the restored profiler on grammar
    // workers, as `run --resume` does on the default WHOMP engine.
    for workers in [1, 2, 4] {
        let mut session = Session::<WhompProfiler>::resume(&mut snapshot.as_slice())
            .unwrap()
            .map_sink(|p| PipelinedWhomp::from_profiler(p, workers));
        session.feed(&events[cut..]);
        session.cdc_mut().sink_mut().quiesce();
        let mut state = Vec::new();
        session.cdc().sink().save_state(&mut state).unwrap();
        assert_eq!(state, sequential_state, "state drift at {workers} workers");
        assert_eq!(
            finalize_bytes(session),
            reference,
            "container drift at {workers} workers"
        );
    }
}

/// A session's checkpoint container; the session keeps running.
fn checkpoint_bytes<S: SessionSink>(session: &mut Session<S>) -> Vec<u8> {
    let mut bytes = Vec::new();
    session.checkpoint(&mut bytes).expect("checkpoint");
    bytes
}

/// A session's finished profile container.
fn finalize_bytes<S: SessionSink>(session: Session<S>) -> Vec<u8> {
    let mut bytes = Vec::new();
    session.finalize(&mut bytes).expect("finalize");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Session<PipelinedWhomp>` against `Session<WhompProfiler>`, fed in
    /// lockstep and checkpointed at the same random cuts. The cuts fall
    /// almost always inside a symbol batch, so each checkpoint exercises
    /// the barrier's partial-batch flush. Every checkpoint container
    /// (OMCK, CDCK and SNKS alike) and the finished profile must match
    /// byte for byte, and each pipelined checkpoint must resume on the
    /// inline engine — and each inline one on the workers — to the same
    /// finished profile.
    #[test]
    fn pipelined_session_checkpoints_match_inline_at_random_cuts(
        workers in 1usize..5,
        mut cuts in proptest::collection::vec(0usize..25_664, 1..4)
    ) {
        let events = probe_events();
        cuts.sort_unstable();
        cuts.dedup();

        let mut inline = Session::new(WhompProfiler::new());
        let mut pipelined = Session::new(PipelinedWhomp::spawn(workers));
        let mut snapshots = Vec::new();
        let mut fed = 0;
        for &cut in &cuts {
            inline.feed(&events[fed..cut]);
            pipelined.feed(&events[fed..cut]);
            fed = cut;
            let want = checkpoint_bytes(&mut inline);
            let got = checkpoint_bytes(&mut pipelined);
            prop_assert!(got == want, "checkpoint at event {} with {} workers", cut, workers);
            snapshots.push((cut, got));
        }
        inline.feed(&events[fed..]);
        pipelined.feed(&events[fed..]);
        let reference = finalize_bytes(inline);
        prop_assert!(finalize_bytes(pipelined) == reference, "final profile, {} workers", workers);

        for (cut, snapshot) in &snapshots {
            let mut on_inline = Session::<WhompProfiler>::resume(&mut snapshot.as_slice()).unwrap();
            on_inline.feed(&events[*cut..]);
            prop_assert!(finalize_bytes(on_inline) == reference, "inline resume at {}", cut);

            let mut on_workers = Session::<WhompProfiler>::resume(&mut snapshot.as_slice())
                .unwrap()
                .map_sink(|p| PipelinedWhomp::from_profiler(p, workers));
            on_workers.feed(&events[*cut..]);
            prop_assert!(finalize_bytes(on_workers) == reference, "pipelined resume at {}", cut);
        }
    }
}

/// `PipelinedWhomp`'s own `restore_state` (one worker per dimension)
/// resumes a checkpoint written by either engine.
#[test]
fn pipelined_session_resumes_checkpoints_from_either_engine() {
    let events = probe_events();
    let cut = 10_001;
    let mut reference = Session::new(WhompProfiler::new());
    reference.feed(&events);
    let reference = finalize_bytes(reference);

    let mut inline = Session::new(WhompProfiler::new());
    inline.feed(&events[..cut]);
    let mut pipelined = Session::new(PipelinedWhomp::spawn(2));
    pipelined.feed(&events[..cut]);
    for snapshot in [
        checkpoint_bytes(&mut inline),
        checkpoint_bytes(&mut pipelined),
    ] {
        let mut resumed = Session::<PipelinedWhomp>::resume(&mut snapshot.as_slice()).unwrap();
        resumed.feed(&events[cut..]);
        assert_eq!(finalize_bytes(resumed), reference);
    }
}

fn arb_tuple_parts() -> impl Strategy<Value = (u8, u8, u8, u8)> {
    (0u8..8, 0u8..3, 0u8..10, 0u8..6)
}

fn stream(parts: &[(u8, u8, u8, u8)]) -> Vec<OrTuple> {
    parts
        .iter()
        .enumerate()
        .map(|(t, &(instr, group, object, offset))| OrTuple {
            instr: InstrId(u32::from(instr)),
            kind: AccessKind::Load,
            group: GroupId(u32::from(group)),
            object: ObjectSerial(u64::from(object)),
            offset: u64::from(offset) * 4,
            time: Timestamp(t as u64),
            size: 4,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary tuple streams: the pipelined profiler's full internal
    /// state (not just the finished grammar) must match sequential
    /// construction byte for byte.
    #[test]
    fn pipelined_whomp_state_matches_sequential_on_arbitrary_streams(
        parts in proptest::collection::vec(arb_tuple_parts(), 0..300)
    ) {
        let tuples = stream(&parts);

        let mut sequential = WhompProfiler::new();
        for t in &tuples {
            sequential.tuple(t);
        }
        let mut reference = Vec::new();
        sequential.save_state(&mut reference).unwrap();

        let mut pipe = PipelinedWhomp::spawn(3);
        for t in &tuples {
            pipe.tuple(t);
        }
        pipe.finish();
        let (profiler, stats) = pipe.try_join().expect("pipeline healthy");
        let mut produced = Vec::new();
        profiler.save_state(&mut produced).unwrap();
        prop_assert_eq!(produced, reference);
        prop_assert_eq!(stats.streams.iter().map(|s| s.symbols).sum::<u64>(), 4 * tuples.len() as u64);
    }
}
