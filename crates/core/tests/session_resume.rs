//! Degenerate checkpoint cut points.
//!
//! The loom harness (`loom_pipeline.rs`) model-checks the *schedules*
//! of a resumed pipeline; these tests pin the *cut points* it takes for
//! granted: a checkpoint taken before any event, a checkpoint taken
//! when the session is already finalize-eligible (every object freed),
//! and one snapshot resumed twice on purpose. Keeping two writers off
//! one checkpoint is the daemon's tenant claim, not the session's.

use std::io::{self, Read, Write};

use orp_core::sharded::{ShardableSink, ShardedCdc};
use orp_core::{
    Cdc, GroupId, ObjectSerial, OrSink, OrTuple, Session, SessionSink, Timestamp, VecOrSink,
};
use orp_format::{read_varint, write_varint, ProfileKind};
use orp_trace::{
    AccessEvent, AccessKind, AllocEvent, AllocSiteId, FreeEvent, InstrId, ProbeEvent, RawAddress,
};

/// Minimal checkpointable sink (`VecOrSink`'s own `SessionSink` impl is
/// test-private to the session module): materializes tuples, shards by
/// instruction, merges by re-sorting on the globally unique timestamp.
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
    const STATE_NAME: &'static str = "test-replay";

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

fn script() -> Vec<ProbeEvent> {
    vec![
        ProbeEvent::Alloc(AllocEvent {
            site: AllocSiteId(0),
            base: RawAddress(0x100),
            size: 32,
        }),
        ProbeEvent::Access(AccessEvent::load(InstrId(0), RawAddress(0x100), 8)),
        ProbeEvent::Access(AccessEvent::store(InstrId(1), RawAddress(0x108), 8)),
        ProbeEvent::Access(AccessEvent::load(InstrId(0), RawAddress(0x110), 8)),
        ProbeEvent::Free(FreeEvent {
            base: RawAddress(0x100),
        }),
    ]
}

fn finalize_bytes(session: Session<ReplaySink>) -> Vec<u8> {
    let mut out = Vec::new();
    session.finalize(&mut out).expect("finalize to memory");
    out
}

#[test]
fn checkpoint_before_any_event_resumes_to_a_fresh_session() {
    // Cut at offset zero: the checkpoint of a brand-new session.
    let mut fresh = Session::new(ReplaySink::default());
    let mut ckpt = Vec::new();
    fresh
        .checkpoint(&mut ckpt)
        .expect("checkpoint empty session");

    let mut resumed =
        Session::<ReplaySink>::resume(&mut ckpt.as_slice()).expect("resume empty checkpoint");
    assert_eq!(resumed.events(), 0, "no events were fed before the cut");

    // The resumed session must behave exactly like a brand-new one.
    resumed.feed(&script());
    let mut reference = Session::new(ReplaySink::default());
    reference.feed(&script());
    assert_eq!(resumed.events(), reference.events());
    assert_eq!(finalize_bytes(resumed), finalize_bytes(reference));
}

#[test]
fn checkpoint_at_finalize_eligible_state_finalizes_identically() {
    // Cut after the full script: every object freed, nothing in
    // flight — the session could finalize right now. Checkpointing at
    // that cut and resuming must finalize byte-identically to
    // finalizing the original directly.
    let mut session = Session::new(ReplaySink::default());
    session.feed(&script());
    let mut ckpt = Vec::new();
    session
        .checkpoint(&mut ckpt)
        .expect("checkpoint finalize-eligible session");

    let resumed =
        Session::<ReplaySink>::resume(&mut ckpt.as_slice()).expect("resume full checkpoint");
    assert_eq!(resumed.events(), session.events());
    assert_eq!(finalize_bytes(resumed), finalize_bytes(session));
}

#[test]
fn untracked_resume_still_allows_deliberate_replay() {
    // The sharded-merge equivalence tests replay one snapshot at
    // several shard counts on purpose; the untracked entry points must
    // keep permitting that.
    let mut session = Session::new(ReplaySink::default());
    session.feed(&script()[..3]);
    let mut ckpt = Vec::new();
    session
        .checkpoint(&mut ckpt)
        .expect("checkpoint mid-stream");

    let a = Session::<ReplaySink>::resume(&mut ckpt.as_slice()).expect("first untracked");
    let b = Session::<ReplaySink>::resume(&mut ckpt.as_slice()).expect("second untracked");
    assert_eq!(a.events(), b.events());
}

#[test]
fn checkpoint_before_any_event_resumes_onto_the_sharded_pipeline() {
    // Degenerate cut × sharded resume: shard 0 inherits an *empty*
    // stem sink and the merge must still reproduce the inline run.
    let mut fresh = Session::new(ReplaySink::default());
    let mut ckpt = Vec::new();
    fresh
        .checkpoint(&mut ckpt)
        .expect("checkpoint empty session");

    let mut inline = Cdc::new(orp_core::Omc::new(), VecOrSink::new());
    for &ev in &script() {
        use orp_trace::ProbeSink;
        inline.event(ev);
    }
    {
        use orp_trace::ProbeSink;
        inline.finish();
    }

    let resumed =
        Session::<ReplaySink>::resume(&mut ckpt.as_slice()).expect("resume empty checkpoint");
    let mut pipeline = ShardedCdc::spawn(resumed, 3);
    {
        use orp_trace::ProbeSink;
        for &ev in &script() {
            pipeline.event(ev);
        }
        pipeline.finish();
    }
    let session = pipeline.join().expect("pipeline healthy").session;
    assert_eq!(session.cdc().sink().tuples, inline.sink().tuples());
    assert_eq!(session.cdc().time(), inline.time());
}
