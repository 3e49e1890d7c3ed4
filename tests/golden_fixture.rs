//! Golden-file guard for the `.orp` container format.
//!
//! `tests/fixtures/golden.orp` is a checked-in OMSG profile built from a
//! fixed tuple sequence, and `tests/fixtures/golden_trace.orp` a trace
//! built from a fixed probe-event sequence that spans two `TRCE`
//! frames. Regenerating each byte-for-byte proves the wire format did
//! not drift; parsing each proves old files stay readable. An
//! intentional format change must bump [`orprof::format::FORMAT_VERSION`]
//! and refresh the fixtures:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_fixture
//! ```

use std::path::PathBuf;

use orprof::core::{GroupId, ObjectSerial, OrSink, OrTuple, Timestamp};
use orprof::orpd::FRAME_EVENTS;
use orprof::trace::{
    replay, AccessEvent, AccessKind, AllocEvent, AllocSiteId, FreeEvent, InstrId, ProbeEvent,
    ProbeSink, RawAddress, TraceWriter, VecSink,
};
use orprof::whomp::{Omsg, WhompProfiler};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `bytes` with the checked-in fixture `name`, or rewrites the
/// fixture under `UPDATE_GOLDEN=1`.
fn assert_matches_fixture(name: &str, bytes: &[u8]) {
    let path = fixture(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, bytes).expect("write fixture");
        return;
    }
    let golden = std::fs::read(&path).expect(
        "fixture missing; regenerate with UPDATE_GOLDEN=1 cargo test --test golden_fixture",
    );
    assert!(
        bytes == golden.as_slice(),
        "serialized container differs from {name}: the wire format changed. \
         If intentional, bump FORMAT_VERSION and refresh the fixture with UPDATE_GOLDEN=1."
    );
}

/// A fixed, RNG-free tuple sequence exercising all four OMSG
/// dimensions.
fn golden_profile() -> Omsg {
    let mut p = WhompProfiler::new();
    for k in 0..300u64 {
        p.tuple(&OrTuple {
            instr: InstrId(u32::try_from(k % 5).unwrap()),
            kind: if k % 5 == 3 {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            group: GroupId(u32::try_from(k % 3).unwrap()),
            object: ObjectSerial(k / 9),
            offset: (k % 9) * 8,
            time: Timestamp(k),
            size: 8,
        });
    }
    p.into_omsg()
}

fn golden_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    golden_profile().write_to(&mut buf).unwrap();
    buf
}

#[test]
fn golden_container_bytes_are_stable() {
    assert_matches_fixture("golden.orp", &golden_bytes());
}

#[test]
fn golden_container_still_parses() {
    let golden = std::fs::read(fixture("golden.orp")).expect(
        "fixture missing; regenerate with UPDATE_GOLDEN=1 cargo test --test golden_fixture",
    );
    let omsg = Omsg::read_from(&mut golden.as_slice()).expect("golden fixture readable");
    let reference = golden_profile();
    assert_eq!(omsg.tuples(), reference.tuples());
    assert_eq!(omsg.expand(), reference.expand());
    assert_eq!(omsg.total_size(), reference.total_size());
}

/// A fixed, RNG-free probe-event sequence of `FRAME_EVENTS + 100`
/// events, so the trace spans one full frame and one partial frame.
/// Objects are allocated every 97 events and freed 96 events later;
/// the accesses between them mix loads and stores of two sizes.
fn golden_events() -> Vec<ProbeEvent> {
    (0..FRAME_EVENTS as u64 + 100)
        .map(|k| {
            let base = RawAddress(0x10_000 + (k / 97) * 0x1000);
            match k % 97 {
                0 => ProbeEvent::Alloc(AllocEvent {
                    site: AllocSiteId(u32::try_from(k % 7).unwrap()),
                    base,
                    size: 256,
                }),
                96 => ProbeEvent::Free(FreeEvent { base }),
                i => {
                    let instr = InstrId(u32::try_from(k % 11).unwrap());
                    let addr = RawAddress(base.0 + (i % 32) * 8);
                    ProbeEvent::Access(if k % 5 == 3 {
                        AccessEvent::store(instr, addr, 4)
                    } else {
                        AccessEvent::load(instr, addr, 8)
                    })
                }
            }
        })
        .collect()
}

fn golden_trace_bytes() -> Vec<u8> {
    let mut writer = TraceWriter::new(Vec::new()).unwrap();
    for ev in golden_events() {
        writer.event(ev);
    }
    writer.into_inner().unwrap()
}

#[test]
fn golden_trace_bytes_are_stable() {
    assert_matches_fixture("golden_trace.orp", &golden_trace_bytes());
}

#[test]
fn golden_trace_still_replays() {
    let golden = std::fs::read(fixture("golden_trace.orp")).expect(
        "fixture missing; regenerate with UPDATE_GOLDEN=1 cargo test --test golden_fixture",
    );
    let mut sink = VecSink::new();
    let events = replay(&mut golden.as_slice(), &mut sink).expect("golden trace replays");
    assert_eq!(events, FRAME_EVENTS as u64 + 100);
    assert_eq!(sink.events(), golden_events().as_slice());
}
