//! Model-checked interleavings of the collection pipelines.
//!
//! Built only under `RUSTFLAGS="--cfg loom"` (see DESIGN.md §10):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p orp-core --test loom_pipeline --release
//! ```
//!
//! Each model runs the real pipeline code — `crate::sync` resolves to
//! loom's instrumented primitives — and loom explores every schedule up
//! to the preemption bound (`LOOM_MAX_PREEMPTIONS`, default 2; CI runs
//! 3). The invariants checked under *all* interleavings:
//!
//! * the sharded pipeline's merged output, time-stamp counter,
//!   untracked count and anomaly count equal the inline (unthreaded)
//!   collection exactly, at two lanes and at one (the paper's single
//!   collection thread);
//! * a checkpointed session resumed onto two interleaved shard workers
//!   finalizes to the byte-identical profile of a single-threaded
//!   resume.

#![cfg(loom)]

use std::io::{self, Read, Write};

use orp_core::sharded::{ShardableSink, ShardedCdc};
use orp_core::{
    Cdc, GroupId, ObjectSerial, Omc, OrSink, OrTuple, Session, SessionSink, Timestamp, VecOrSink,
};
use orp_format::{read_varint, write_varint, ProfileKind};
use orp_trace::{
    AccessEvent, AccessKind, AllocEvent, AllocSiteId, FreeEvent, InstrId, ProbeEvent, ProbeSink,
    RawAddress,
};

/// A small two-key event script: enough traffic to occupy both shard
/// workers and cross the loom-sized batch boundaries, small enough that
/// exploration stays exhaustive.
fn script() -> Vec<ProbeEvent> {
    vec![
        ProbeEvent::Alloc(AllocEvent {
            site: AllocSiteId(0),
            base: RawAddress(0x100),
            size: 32,
        }),
        ProbeEvent::Access(AccessEvent::load(InstrId(0), RawAddress(0x100), 8)),
        ProbeEvent::Access(AccessEvent::load(InstrId(1), RawAddress(0x108), 8)),
        ProbeEvent::Access(AccessEvent::load(InstrId(0), RawAddress(0x110), 8)),
        ProbeEvent::Free(FreeEvent {
            base: RawAddress(0x100),
        }),
    ]
}

fn drive(sink: &mut impl ProbeSink, events: &[ProbeEvent]) {
    for &ev in events {
        sink.event(ev);
    }
    sink.finish();
}

#[test]
fn sharded_two_workers_match_inline_under_all_schedules() {
    // Four events: two full probe batches, three tuples across two
    // shard keys. The checkpoint model below covers free events; this
    // one stays minimal so preemption bound 3 remains exhaustive.
    let events = &script()[..4];

    // The reference result needs no threads; compute it once outside.
    let mut inline = Cdc::new(Omc::new(), VecOrSink::new());
    drive(&mut inline, events);
    let expected_tuples = inline.sink().tuples().to_vec();
    let (time, untracked, anomalies) =
        (inline.time(), inline.untracked(), inline.probe_anomalies());

    let events = events.to_vec();
    loom::model(move || {
        let mut sharded = ShardedCdc::spawn(Session::new(VecOrSink::new()), 2);
        drive(&mut sharded, &events);
        let joined = sharded.join().expect("pipeline healthy");
        assert!(joined.degraded.is_empty());
        let cdc = joined.session.cdc();
        assert_eq!(
            cdc.sink().tuples(),
            expected_tuples,
            "merge must be deterministic"
        );
        assert_eq!(cdc.time(), time);
        assert_eq!(cdc.untracked(), untracked);
        assert_eq!(cdc.probe_anomalies(), anomalies);
    });
    assert!(
        loom::explored_executions() > 1,
        "translator and two workers must admit more than one schedule"
    );
}

/// Minimal session-checkpointable sink: materializes tuples (like
/// `VecOrSink`, whose `SessionSink` impl is test-private), shards by
/// instruction, merges by re-sorting on the globally unique time-stamp.
#[derive(Debug, Default)]
struct ReplaySink {
    tuples: Vec<OrTuple>,
}

impl OrSink for ReplaySink {
    fn tuple(&mut self, t: &OrTuple) {
        self.tuples.push(*t);
    }
}

impl ShardableSink for ReplaySink {
    fn shard_key(t: &OrTuple) -> u64 {
        u64::from(t.instr.0)
    }

    fn merge(parts: Vec<Self>) -> Self {
        let mut tuples: Vec<OrTuple> = parts.into_iter().flat_map(|p| p.tuples).collect();
        tuples.sort_unstable_by_key(|t| t.time);
        ReplaySink { tuples }
    }

    fn split(self, parts: usize, route: &mut dyn FnMut(u64) -> usize) -> Vec<Self> {
        let parts = VecOrSink::from_tuples(self.tuples).split(parts, route);
        parts
            .into_iter()
            .map(|p| ReplaySink {
                tuples: p.into_tuples(),
            })
            .collect()
    }
}

impl SessionSink for ReplaySink {
    const STATE_NAME: &'static str = "loom-replay";

    fn save_state(&self, w: &mut impl Write) -> io::Result<()> {
        write_varint(w, self.tuples.len() as u64)?;
        for t in &self.tuples {
            write_varint(w, u64::from(t.instr.0))?;
            write_varint(w, u64::from(t.kind.is_store()))?;
            write_varint(w, u64::from(t.group.0))?;
            write_varint(w, t.object.0)?;
            write_varint(w, t.offset)?;
            write_varint(w, t.time.0)?;
            write_varint(w, u64::from(t.size))?;
        }
        Ok(())
    }

    fn restore_state(r: &mut impl Read) -> io::Result<Self> {
        let count = read_varint(r)?;
        let mut tuples = Vec::new();
        for _ in 0..count {
            let instr = InstrId(u32::try_from(read_varint(r)?).expect("test state"));
            let kind = if read_varint(r)? == 1 {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            tuples.push(OrTuple {
                instr,
                kind,
                group: GroupId(u32::try_from(read_varint(r)?).expect("test state")),
                object: ObjectSerial(read_varint(r)?),
                offset: read_varint(r)?,
                time: Timestamp(read_varint(r)?),
                size: u8::try_from(read_varint(r)?).expect("test state"),
            });
        }
        Ok(ReplaySink { tuples })
    }

    fn finalize_profile(self, w: &mut impl Write) -> io::Result<()> {
        let mut payload = Vec::new();
        self.save_state(&mut payload)?;
        orp_format::write_single_chunk(w, ProfileKind::Checkpoint, &payload)
    }
}

#[test]
fn checkpoint_resume_sharded_finalize_is_byte_identical_under_all_schedules() {
    let all = script();
    let (head, tail) = all.split_at(3);

    // feed → checkpoint is single-threaded and deterministic: stage it
    // once outside the model.
    let mut session = Session::new(ReplaySink::default());
    session.feed(head);
    let mut ckpt = Vec::new();
    session.checkpoint(&mut ckpt).expect("checkpoint to memory");

    // Single-threaded resume → feed → finalize gives the reference
    // bytes the sharded resume must reproduce under every schedule.
    let mut reference =
        Session::<ReplaySink>::resume(&mut ckpt.as_slice()).expect("resume reference");
    reference.feed(tail);
    let mut expected = Vec::new();
    reference
        .finalize(&mut expected)
        .expect("finalize reference");

    let tail = tail.to_vec();
    loom::model(move || {
        let resumed = Session::<ReplaySink>::resume(&mut ckpt.as_slice()).expect("resume");
        let mut sharded = ShardedCdc::spawn(resumed, 2);
        drive(&mut sharded, &tail);
        let joined = sharded.join().expect("pipeline healthy");
        assert!(joined.degraded.is_empty());
        let mut produced = Vec::new();
        joined
            .session
            .finalize(&mut produced)
            .expect("finalize to memory");
        assert_eq!(
            produced, expected,
            "sharded resume must finalize byte-identical to single-threaded resume"
        );
    });
    assert!(
        loom::explored_executions() > 1,
        "resumed pipeline must admit more than one schedule"
    );
}

#[test]
fn one_lane_collection_matches_inline_under_all_schedules() {
    let mut inline = Cdc::new(Omc::new(), VecOrSink::new());
    drive(&mut inline, &script());
    let expected_tuples = inline.sink().tuples().to_vec();
    let time = inline.time();

    loom::model(move || {
        let mut sharded = ShardedCdc::spawn(Session::new(VecOrSink::new()), 1);
        drive(&mut sharded, &script());
        let joined = sharded.join().expect("pipeline healthy");
        assert!(joined.degraded.is_empty());
        assert_eq!(joined.session.cdc().sink().tuples(), expected_tuples);
        assert_eq!(joined.session.cdc().time(), time);
    });
    assert!(loom::explored_executions() > 1);
}
