//! Integration: the sharded collection pipeline produces output
//! **byte-identical** to single-threaded collection — the determinism
//! contract that makes sharding a pure throughput change.

use orprof::core::sharded::ShardedCdc;
use orprof::core::{Cdc, Omc, OrSink, OrTuple, Session, ShardableSink, VecOrSink};
use orprof::leap::LeapProfiler;
use orprof::trace::{AccessEvent, AllocEvent, AllocSiteId, InstrId, ProbeSink, RawAddress};
use orprof::whomp::HybridProfiler;
use orprof::workloads::{micro, RunConfig, Tracer, Workload};

/// A pointer-chasing workload with alloc/free churn (decoy objects) —
/// the trace shape that stresses OMC invalidation.
fn workload() -> micro::LinkedList {
    micro::LinkedList::new(256, 3)
}

fn drive(sink: &mut dyn ProbeSink) {
    let cfg = RunConfig::default();
    let mut tracer = Tracer::new(&cfg, sink);
    workload().run(&mut tracer);
    tracer.finish();
}

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

#[test]
fn sharded_tuple_stream_is_identical_to_inline() {
    let mut inline = Cdc::new(Omc::new(), VecOrSink::new());
    drive(&mut inline);
    assert!(!inline.sink().is_empty());

    for shards in SHARD_COUNTS {
        let session = Session::new(VecOrSink::new());
        let mut sharded = ShardedCdc::spawn(session, shards, |_| VecOrSink::new());
        drive(&mut sharded);
        let cdc = sharded.join().expect("pipeline healthy").session.into_cdc();
        assert_eq!(
            cdc.sink().tuples(),
            inline.sink().tuples(),
            "{shards} shards"
        );
        assert_eq!(cdc.time(), inline.time(), "{shards} shards");
        assert_eq!(cdc.untracked(), inline.untracked(), "{shards} shards");
        assert_eq!(
            cdc.probe_anomalies(),
            inline.probe_anomalies(),
            "{shards} shards"
        );
    }
}

#[test]
fn sharded_leap_profile_serializes_to_identical_bytes() {
    let mut inline = Cdc::new(Omc::new(), LeapProfiler::new());
    drive(&mut inline);
    let mut reference = Vec::new();
    inline
        .into_parts()
        .1
        .into_profile()
        .write_to(&mut reference)
        .expect("serialize reference profile");
    assert!(!reference.is_empty());

    for shards in SHARD_COUNTS {
        let session = Session::new(LeapProfiler::new());
        let mut sharded = ShardedCdc::spawn(session, shards, |_| LeapProfiler::new());
        drive(&mut sharded);
        let profile = sharded
            .join()
            .expect("pipeline healthy")
            .session
            .into_cdc()
            .into_parts()
            .1
            .into_profile();
        let mut bytes = Vec::new();
        profile.write_to(&mut bytes).expect("serialize profile");
        assert_eq!(bytes, reference, "{shards}-shard LEAP bytes diverged");
    }
}

/// A sink that plays three roles in the salvage chain, selected at
/// construction: `armed` dies on its first tuple (the dead shard
/// worker), a `Some(fuse)` accepts that many tuples and then dies (the
/// failing fallback), and the default records quietly.
#[derive(Debug)]
struct SalvageChain {
    armed: bool,
    fuse: Option<usize>,
    inner: VecOrSink,
}

impl OrSink for SalvageChain {
    fn tuple(&mut self, t: &OrTuple) {
        assert!(!self.armed, "armed sink detonated");
        if let Some(fuse) = &mut self.fuse {
            assert!(*fuse > 0, "fallback sink detonated");
            *fuse -= 1;
        }
        self.inner.tuple(t);
    }
}

impl ShardableSink for SalvageChain {
    fn shard_key(t: &OrTuple) -> u64 {
        u64::from(t.instr.0)
    }
    fn merge(parts: Vec<Self>) -> Self {
        SalvageChain {
            armed: false,
            fuse: None,
            inner: VecOrSink::merge(parts.into_iter().map(|p| p.inner).collect()),
        }
    }
}

/// Regression (issue 10): when the salvage *fallback* sink itself dies,
/// the translator must survive to the join and
/// `PipelineStats.salvaged` must still report the tuples the fallback
/// accepted before dying — previously the fallback's panic took the
/// translator (and every lane's counters) down with it.
#[test]
fn salvaged_counter_survives_a_dying_fallback_sink() {
    // Tuples ship to workers (and to the fallback) in batches of 8192;
    // the fuse admits one full batch and trips inside the second.
    const BATCH: usize = 8192;

    let alloc = AllocEvent {
        site: AllocSiteId(0),
        base: RawAddress(0x1000),
        size: 64,
    };
    // Two keys on two shards: instr 0 is first-seen → shard 0
    // (survives), instr 1 → shard 1 (armed, dies on its first batch).
    let wave = |sink: &mut dyn ProbeSink| {
        for i in 0..(BATCH as u64 + 256) {
            sink.access(AccessEvent::load(
                InstrId(0),
                RawAddress(0x1000 + i % 64),
                1,
            ));
            sink.access(AccessEvent::load(
                InstrId(1),
                RawAddress(0x1000 + i % 64),
                1,
            ));
        }
    };

    // Reference: the same stream collected inline.
    let mut inline = Cdc::new(Omc::new(), VecOrSink::new());
    inline.alloc(alloc);
    for _ in 0..4 {
        wave(&mut inline);
    }
    inline.finish();

    let shards = 2;
    let chain = |i| SalvageChain {
        armed: i == 1,
        fuse: (i == shards).then_some(BATCH + BATCH / 2),
        inner: VecOrSink::new(),
    };
    let mut sharded = ShardedCdc::spawn(Session::new(chain(0)), shards, chain);
    sharded.alloc(alloc);
    wave(&mut sharded);
    // Ship wave 1, then give shard 1's worker time to receive its first
    // batch, die, and drop its receiver, so later flushes bounce into
    // the fallback — which itself dies partway through the second
    // diverted batch.
    sharded.finish();
    std::thread::sleep(std::time::Duration::from_millis(100));
    for _ in 0..3 {
        wave(&mut sharded);
    }

    let join = sharded
        .join()
        .expect("translator must outlive the fallback sink");
    assert_eq!(join.degraded.len(), 1);
    assert_eq!(join.degraded[0].worker, "shard 1");
    assert_eq!(join.stats.degraded_shards, vec![1]);

    // The fallback accepted exactly one full diverted batch before its
    // fuse tripped; that batch must be reported even though the
    // fallback died afterwards.
    assert_eq!(join.stats.shards[1].salvaged, BATCH as u64);
    assert_eq!(join.stats.salvaged_tuples(), BATCH as u64);
    assert_eq!(join.stats.shards[0].salvaged, 0);

    // The surviving lane stays byte-identical to the inline run.
    let survived: Vec<&OrTuple> = join
        .session
        .cdc()
        .sink()
        .inner
        .tuples()
        .iter()
        .filter(|t| t.instr == InstrId(0))
        .collect();
    let reference: Vec<&OrTuple> = inline
        .sink()
        .tuples()
        .iter()
        .filter(|t| t.instr == InstrId(0))
        .collect();
    assert_eq!(survived, reference, "surviving lane degraded");
}

#[test]
fn sharded_hybrid_profile_has_identical_grammars() {
    let mut inline = Cdc::new(Omc::new(), HybridProfiler::new());
    drive(&mut inline);
    let reference = inline.into_parts().1.into_profile();

    for shards in SHARD_COUNTS {
        let session = Session::new(HybridProfiler::new());
        let mut sharded = ShardedCdc::spawn(session, shards, |_| HybridProfiler::new());
        drive(&mut sharded);
        let profile = sharded
            .join()
            .expect("pipeline healthy")
            .session
            .into_cdc()
            .into_parts()
            .1
            .into_profile();
        assert_eq!(profile.tuples(), reference.tuples());
        let pairs: Vec<_> = profile.iter().collect();
        let ref_pairs: Vec<_> = reference.iter().collect();
        assert_eq!(pairs.len(), ref_pairs.len(), "{shards} shards");
        for ((instr, got), (ref_instr, want)) in pairs.iter().zip(&ref_pairs) {
            assert_eq!(instr, ref_instr);
            assert_eq!(got.group, want.group, "{shards} shards, {instr} group");
            assert_eq!(got.object, want.object, "{shards} shards, {instr} object");
            assert_eq!(got.offset, want.offset, "{shards} shards, {instr} offset");
            assert_eq!(got.time, want.time, "{shards} shards, {instr} time");
        }
        assert_eq!(
            profile.expand_merged(),
            reference.expand_merged(),
            "{shards} shards"
        );
    }
}
