//! Model-checked interleavings of the grammar-worker pipeline.
//!
//! Built only under `RUSTFLAGS="--cfg loom"` (see DESIGN.md §10 and
//! §13):
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p orp-whomp --test loom_grammar --release
//! ```
//!
//! The models drive the real pipeline code — `orp_core::lane` runs on
//! loom's instrumented channels and threads, and the batch/queue
//! constants shrink to 2/1 so a handful of symbols crosses every
//! boundary. Checked under *all* interleavings: feed → flush → drop
//! senders → join reassembles a profiler whose serialized state is
//! byte-identical to sequential construction, and a checkpoint barrier
//! taken mid-feed serializes exactly the sequential profiler's state at
//! the same tuple without disturbing the rest of the run.

#![cfg(loom)]

use orp_core::{GroupId, ObjectSerial, OrSink, OrTuple, SessionSink, Timestamp};
use orp_trace::{AccessEvent, AccessKind, InstrId, ProbeSink, RawAddress};
use orp_whomp::{PipelinedRasg, PipelinedWhomp, RasgProfiler, WhompProfiler};

/// Three tuples: with the loom-sized symbol batch of 2, each dimension
/// stream flushes once mid-feed and once more at `finish`, so the model
/// exercises both the flush path and the finalize drain.
fn tuples() -> Vec<OrTuple> {
    (0..3u64)
        .map(|t| OrTuple {
            instr: InstrId((t % 2) as u32),
            kind: AccessKind::Load,
            group: GroupId(0),
            object: ObjectSerial(t % 2),
            offset: t * 8,
            time: Timestamp(t),
            size: 8,
        })
        .collect()
}

#[test]
fn grammar_worker_feed_drain_finalize_matches_sequential_under_all_schedules() {
    let tuples = tuples();

    let mut sequential = WhompProfiler::new();
    for t in &tuples {
        sequential.tuple(t);
    }
    let mut expected = Vec::new();
    sequential.save_state(&mut expected).expect("state bytes");

    loom::model(move || {
        let mut pipe = PipelinedWhomp::spawn(1);
        for t in &tuples {
            pipe.tuple(t);
        }
        pipe.finish();
        let (profiler, stats) = pipe.try_join().expect("pipeline healthy");
        let mut produced = Vec::new();
        profiler.save_state(&mut produced).expect("state bytes");
        assert_eq!(
            produced, expected,
            "grammar state must be schedule-independent"
        );
        assert_eq!(
            stats.streams.iter().map(|s| s.symbols).sum::<u64>(),
            4 * tuples.len() as u64
        );
    });
    assert!(
        loom::explored_executions() > 1,
        "feeder and grammar worker must admit more than one schedule"
    );
}

/// Feed → checkpoint barrier → feed → join. With one tuple before the
/// barrier and the loom-sized batch of 2, the barrier flushes partial
/// batches through a depth-1 queue and the snapshot request lines up
/// behind them: whatever the schedule, the worker answers only after
/// applying them.
#[test]
fn checkpoint_barrier_mid_feed_matches_sequential_under_all_schedules() {
    let tuples = tuples();
    let cut = 1;

    let state_after = |n: usize| {
        let mut sequential = WhompProfiler::new();
        for t in &tuples[..n] {
            sequential.tuple(t);
        }
        let mut state = Vec::new();
        sequential.save_state(&mut state).expect("state bytes");
        state
    };
    let (at_cut, at_end) = (state_after(cut), state_after(tuples.len()));

    loom::model(move || {
        let mut pipe = PipelinedWhomp::spawn(1);
        for t in &tuples[..cut] {
            pipe.tuple(t);
        }
        pipe.quiesce();
        let mut snapshot = Vec::new();
        pipe.save_state(&mut snapshot).expect("healthy worker");
        assert_eq!(
            snapshot, at_cut,
            "barrier state must be schedule-independent"
        );
        for t in &tuples[cut..] {
            pipe.tuple(t);
        }
        pipe.finish();
        let (profiler, _) = pipe.try_join().expect("pipeline healthy");
        let mut produced = Vec::new();
        profiler.save_state(&mut produced).expect("state bytes");
        assert_eq!(produced, at_end, "the barrier must not disturb the run");
    });
    assert!(loom::explored_executions() > 1);
}

#[test]
fn rasg_worker_matches_sequential_under_all_schedules() {
    let events: Vec<AccessEvent> = (0..3u64)
        .map(|t| AccessEvent::load(InstrId((t % 2) as u32), RawAddress(0x100 + t * 8), 8))
        .collect();

    let mut sequential = RasgProfiler::new();
    for &ev in &events {
        sequential.access(ev);
    }
    let mut expected = Vec::new();
    sequential
        .into_rasg()
        .write_to(&mut expected)
        .expect("container bytes");

    loom::model(move || {
        let mut pipe = PipelinedRasg::spawn();
        for &ev in &events {
            pipe.access(ev);
        }
        pipe.finish();
        let (profiler, _) = pipe.try_join().expect("pipeline healthy");
        let mut produced = Vec::new();
        profiler
            .into_rasg()
            .write_to(&mut produced)
            .expect("container bytes");
        assert_eq!(produced, expected);
    });
    assert!(loom::explored_executions() > 1);
}
