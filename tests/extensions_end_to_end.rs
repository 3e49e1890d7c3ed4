//! Integration: the extension subsystems (FDMO advisers, phase
//! cognizance, hybrid profiler, trace record/replay, profile
//! serialization) over real workloads.

use orprof::core::{Cdc, Omc, OrSink, OrTuple, VecOrSink};
use orprof::leap::{LeapProfile, LeapProfiler};
use orprof::opt::{hot_streams, ClusterAnalysis, FieldReorderAnalysis};
use orprof::phase::{PhaseDetector, PhasedProfiler};
use orprof::sequitur::Sequitur;
use orprof::trace::VecSink;
use orprof::whomp::HybridProfiler;
use orprof::workloads::{micro, spec, RunConfig, Workload};

fn run(workload: &dyn Workload, cfg: &RunConfig, sink: &mut dyn orprof::trace::ProbeSink) {
    let mut tracer = orprof::workloads::Tracer::new(cfg, sink);
    workload.run(&mut tracer);
    tracer.finish();
}

#[test]
fn field_reordering_finds_the_list_layout() {
    // The linked-list traversal touches offsets 0 and 8 back to back;
    // the adviser must pair them.
    let cfg = RunConfig::default();
    let mut cdc = Cdc::new(Omc::new(), FieldReorderAnalysis::new());
    run(&micro::LinkedList::new(64, 4), &cfg, &mut cdc);
    let analysis = cdc.into_parts().1;
    let group_with_pair = analysis
        .groups()
        .into_iter()
        .find(|&g| analysis.affinity(g, 0, 8) > 50)
        .expect("node group has 0<->8 affinity");
    let layout = analysis.suggest_layout(group_with_pair);
    let pos = |o: u64| layout.iter().position(|&x| x == o).unwrap();
    assert_eq!(
        pos(0).abs_diff(pos(8)),
        1,
        "data and next fields adjacent: {layout:?}"
    );
}

#[test]
fn clustering_reflects_traversal_order() {
    let cfg = RunConfig::default();
    let mut cdc = Cdc::new(Omc::new(), ClusterAnalysis::new());
    run(&micro::LinkedList::new(32, 6), &cfg, &mut cdc);
    let analysis = cdc.into_parts().1;
    // The list is traversed in serial order, so some consecutive-serial
    // pair dominates.
    let mut found = false;
    for g in 0..4u32 {
        for (a, b, w) in analysis.top_pairs(orprof::core::GroupId(g), 3) {
            if b.0 == a.0 + 1 && w > 5 {
                found = true;
            }
        }
    }
    assert!(
        found,
        "expected consecutive-serial affinity from the traversal"
    );
}

#[test]
fn hot_streams_cover_the_traversal() {
    let cfg = RunConfig::default();
    #[derive(Default)]
    struct ObjectStream(Sequitur);
    impl OrSink for ObjectStream {
        fn tuple(&mut self, t: &OrTuple) {
            self.0.push(t.object.0);
        }
    }
    let mut cdc = Cdc::new(Omc::new(), ObjectStream::default());
    run(&micro::LinkedList::new(64, 6), &cfg, &mut cdc);
    let grammar = cdc.into_parts().1 .0.into_grammar();
    let streams = hot_streams(&grammar, 4, 3);
    assert!(
        !streams.is_empty(),
        "repeated traversals must yield hot streams"
    );
    assert!(streams[0].occurrences >= 2);
}

#[test]
fn phase_cognizant_leap_over_bzip2_finds_its_phases() {
    let cfg = RunConfig::default();
    let workload = spec::Bzip2::new(1);
    let detector = PhaseDetector::new(10_000, 0.5);
    let phased = PhasedProfiler::new(detector, |_| LeapProfiler::new());
    let mut cdc = Cdc::new(Omc::new(), phased);
    run(&workload, &cfg, &mut cdc);
    let (phases, detector) = cdc.into_parts().1.into_parts();
    assert!(
        detector.phase_count() >= 2,
        "bzip2 has fill/sort/output phases"
    );
    let total: u64 = phases
        .values()
        .map(|p| p.clone().into_profile().total_accesses())
        .sum();
    // Every access lands in exactly one phase profile.
    let mut counter = orprof::trace::CountingSink::new();
    run(&workload, &cfg, &mut counter);
    assert_eq!(total, counter.stats().accesses());
}

#[test]
fn hybrid_profiler_round_trips_in_time_order() {
    let cfg = RunConfig::default();
    let workload = micro::HashChurn::new(64, 4);

    let mut reference = Cdc::new(Omc::new(), VecOrSink::new());
    run(&workload, &cfg, &mut reference);
    let expected: Vec<(u64, u64, u64, u64, u64)> = reference
        .into_parts()
        .1
        .into_tuples()
        .iter()
        .map(|t| {
            (
                u64::from(t.instr.0),
                u64::from(t.group.0),
                t.object.0,
                t.offset,
                t.time.0,
            )
        })
        .collect();

    let mut cdc = Cdc::new(Omc::new(), HybridProfiler::new());
    run(&workload, &cfg, &mut cdc);
    let profile = cdc.into_parts().1.into_profile();
    assert_eq!(profile.expand_merged(), expected);
}

#[test]
fn trace_record_replay_profiles_identically() {
    let cfg = RunConfig::default();
    let workload = spec::Gzip::new(1);

    // Record the trace to bytes.
    let mut recorder = orprof::trace::TraceWriter::new(Vec::new()).unwrap();
    run(&workload, &cfg, &mut recorder);
    let bytes = recorder.into_inner().unwrap();

    // Profile live and from the replayed trace.
    let mut live = Cdc::new(Omc::new(), LeapProfiler::new());
    run(&workload, &cfg, &mut live);
    let live_profile = live.into_parts().1.into_profile();

    let mut replayed = Cdc::new(Omc::new(), LeapProfiler::new());
    orprof::trace::replay(&mut bytes.as_slice(), &mut replayed).unwrap();
    let replayed_profile = replayed.into_parts().1.into_profile();

    assert_eq!(
        live_profile.total_accesses(),
        replayed_profile.total_accesses()
    );
    assert_eq!(
        live_profile.encoded_bytes(),
        replayed_profile.encoded_bytes()
    );

    // And the serialized profile files are byte-identical.
    let (mut a, mut b) = (Vec::new(), Vec::new());
    live_profile.write_to(&mut a).unwrap();
    replayed_profile.write_to(&mut b).unwrap();
    assert_eq!(a, b);
    let back = LeapProfile::read_from(&mut a.as_slice()).unwrap();
    assert_eq!(back.total_accesses(), live_profile.total_accesses());
}

#[test]
fn raw_trace_replays_into_any_sink() {
    // A recorded trace feeds raw-address consumers too (Connors,
    // RASG) — the trace is profiler-agnostic.
    let cfg = RunConfig::default();
    let workload = micro::Matrix::new(16, 2);
    let mut recorder = orprof::trace::TraceWriter::new(Vec::new()).unwrap();
    run(&workload, &cfg, &mut recorder);
    let bytes = recorder.into_inner().unwrap();

    let mut direct = VecSink::new();
    run(&workload, &cfg, &mut direct);
    let mut replayed = VecSink::new();
    orprof::trace::replay(&mut bytes.as_slice(), &mut replayed).unwrap();
    assert_eq!(direct.events(), replayed.events());
}
