//! Integration: the sampling front-end is deterministic — a fixed-rate
//! sampled run produces byte-identical profiles no matter how it was
//! collected (inline, on 1..4 sharded lanes, or split across a
//! checkpoint/resume), and rate 1 is exactly lossless.

use orprof::core::{Cdc, Omc, Sampler, Session, ShardedCdc, VecOrSink};
use orprof::leap::LeapProfiler;
use orprof::trace::{
    AccessEvent, AllocEvent, AllocSiteId, FreeEvent, InstrId, ProbeEvent, ProbeSink, RawAddress,
};
use orprof::workloads::{micro, RunConfig, Tracer, Workload};

/// Captures a workload's full probe stream so every collection path
/// replays the exact same events.
struct RecordAll(Vec<ProbeEvent>);

impl ProbeSink for RecordAll {
    fn access(&mut self, ev: AccessEvent) {
        self.0.push(ProbeEvent::Access(ev));
    }

    fn alloc(&mut self, ev: AllocEvent) {
        self.0.push(ProbeEvent::Alloc(ev));
    }

    fn free(&mut self, ev: FreeEvent) {
        self.0.push(ProbeEvent::Free(ev));
    }

    fn finish(&mut self) {}
}

fn recorded_events(workload: &dyn Workload) -> Vec<ProbeEvent> {
    let mut rec = RecordAll(Vec::new());
    let cfg = RunConfig::default();
    let mut tracer = Tracer::new(&cfg, &mut rec);
    workload.run(&mut tracer);
    tracer.finish();
    rec.0
}

fn feed(sink: &mut dyn ProbeSink, events: &[ProbeEvent]) {
    for &ev in events {
        match ev {
            ProbeEvent::Access(e) => sink.access(e),
            ProbeEvent::Alloc(e) => sink.alloc(e),
            ProbeEvent::Free(e) => sink.free(e),
        }
    }
    sink.finish();
}

fn leap_bytes(cdc: Cdc<LeapProfiler>) -> Vec<u8> {
    let mut bytes = Vec::new();
    cdc.into_parts()
        .1
        .into_profile()
        .write_to(&mut bytes)
        .expect("serialize profile");
    bytes
}

#[test]
fn fixed_rate_profiles_are_byte_identical_across_collection_paths() {
    let events = recorded_events(&micro::LinkedList::new(128, 4));
    const RATE: u64 = 4;

    let mut inline = Cdc::with_sampler(Omc::new(), LeapProfiler::new(), Sampler::periodic(RATE));
    feed(&mut inline, &events);
    let kept = inline.sampler().stats().kept;
    let considered = inline.sampler().stats().considered;
    assert!(
        kept > 0 && kept < considered,
        "rate {RATE} must actually drop accesses ({kept} of {considered} kept)"
    );
    let reference = leap_bytes(inline);

    for shards in [1, 2, 4] {
        let session = Session::from_cdc(Cdc::with_sampler(
            Omc::new(),
            LeapProfiler::new(),
            Sampler::periodic(RATE),
        ));
        let mut sharded = ShardedCdc::spawn(session, shards, |_| LeapProfiler::new());
        feed(&mut sharded, &events);
        let cdc = sharded.join().expect("pipeline healthy").session.into_cdc();
        assert_eq!(
            leap_bytes(cdc),
            reference,
            "{shards}-shard collection diverged from inline at rate {RATE}"
        );
    }
}

#[test]
fn sampled_checkpoint_resume_is_byte_identical_to_a_straight_run() {
    let events = recorded_events(&micro::HashChurn::new(96, 4));
    assert!(events.len() > 16, "workload too small to cut");

    let sampled_session = || {
        Session::from_cdc(Cdc::with_sampler(
            Omc::new(),
            LeapProfiler::new(),
            Sampler::periodic(3),
        ))
    };

    let mut straight = sampled_session();
    feed(&mut straight, &events);
    let reference = leap_bytes(straight.into_cdc());

    for cut in [1, events.len() / 3, events.len() / 2, events.len() - 1] {
        let mut first = sampled_session();
        first.feed(&events[..cut]);
        let mut checkpoint = Vec::new();
        first.checkpoint(&mut checkpoint).expect("checkpoint");

        let mut resumed =
            Session::<LeapProfiler>::resume(&mut checkpoint.as_slice()).expect("resume");
        assert!(
            !resumed.cdc().sampler().is_off(),
            "resume must restore the checkpointed sampler"
        );
        feed(&mut resumed, &events[cut..]);
        assert_eq!(
            leap_bytes(resumed.into_cdc()),
            reference,
            "resume at event {cut} diverged from the straight-through run"
        );
    }
}

/// Regression (issue 10): the budget controller's calibration now rides
/// in the checkpoint (an extension of the sampler-state chunk), so a
/// budget run cut at a checkpoint and resumed makes the same rate
/// decisions — and admits the same accesses — as a straight-through
/// run, given the same deterministic control inputs.
#[test]
fn budget_checkpoint_resume_is_byte_identical_to_a_straight_run() {
    use orprof::core::RateController;

    let events = recorded_events(&micro::HashChurn::new(96, 4));
    assert!(events.len() > 64, "workload too small to cut");

    // Deterministic stand-in for wall-clock: profiling pretends to run
    // at 3x native, so every control step is over budget and keeps
    // backing the rate off.
    const BASELINE: f64 = 100.0;
    const STEP: usize = 32;
    let elapsed = |fed: u64| fed * 300;

    let budget_session = || {
        Session::from_cdc(Cdc::with_sampler(
            Omc::new(),
            LeapProfiler::new(),
            Sampler::periodic(1),
        ))
    };
    // Feeds events[range] while running a control step at every
    // absolute STEP boundary, exactly as a budgeted run would.
    let drive = |session: &mut Session<LeapProfiler>,
                 controller: &mut RateController,
                 range: std::ops::Range<usize>| {
        for i in range {
            match events[i] {
                ProbeEvent::Access(e) => session.access(e),
                ProbeEvent::Alloc(e) => session.alloc(e),
                ProbeEvent::Free(e) => session.free(e),
            }
            let fed = (i + 1) as u64;
            if (i + 1) % STEP == 0 {
                let current = session.cdc().sampler().current_rate();
                if let Some(rate) = controller.control(fed, elapsed(fed), current) {
                    session.cdc_mut().sampler_mut().set_rate(rate);
                }
            }
        }
    };

    let mut straight = budget_session();
    let mut straight_ctrl = RateController::new(10.0, BASELINE);
    drive(&mut straight, &mut straight_ctrl, 0..events.len());
    straight.finish();
    assert!(
        straight_ctrl.adjustments() > 0,
        "the synthetic overhead must force rate adjustments"
    );
    let reference = leap_bytes(straight.into_cdc());

    for cut in [STEP - 1, STEP, events.len() / 3, events.len() / 2] {
        let mut first = budget_session();
        let mut ctrl = RateController::new(10.0, BASELINE);
        drive(&mut first, &mut ctrl, 0..cut);
        let mut checkpoint = Vec::new();
        first
            .checkpoint_with(&mut checkpoint, Some(&ctrl))
            .expect("checkpoint");

        let (mut resumed, restored) =
            Session::<LeapProfiler>::resume_with_controller(&mut checkpoint.as_slice())
                .expect("resume");
        let mut restored = restored.expect("checkpoint must carry the controller");
        drive(&mut resumed, &mut restored, cut..events.len());
        resumed.finish();
        assert_eq!(
            restored.adjustments(),
            straight_ctrl.adjustments(),
            "resume at event {cut} lost controller history"
        );
        assert_eq!(restored.trajectory(), straight_ctrl.trajectory());
        assert_eq!(
            leap_bytes(resumed.into_cdc()),
            reference,
            "budget resume at event {cut} diverged from the straight-through run"
        );
    }
}

#[test]
fn reservoir_sampling_is_deterministic_across_paths() {
    let events = recorded_events(&micro::LinkedList::new(128, 4));

    let mut inline = Cdc::with_sampler(Omc::new(), VecOrSink::new(), Sampler::reservoir(8));
    feed(&mut inline, &events);

    let session = Session::from_cdc(Cdc::with_sampler(
        Omc::new(),
        VecOrSink::new(),
        Sampler::reservoir(8),
    ));
    let mut sharded = ShardedCdc::spawn(session, 3, |_| VecOrSink::new());
    feed(&mut sharded, &events);
    let merged = sharded.join().expect("pipeline healthy").session.into_cdc();

    assert_eq!(merged.sink().tuples(), inline.sink().tuples());
    assert_eq!(merged.sampler().stats(), inline.sampler().stats());
}

mod rate_one_is_lossless {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// A compact access script over two live objects: which object,
    /// which instruction, and what offset inside it.
    fn arb_accesses() -> impl Strategy<Value = Vec<(bool, u32, u64, bool)>> {
        vec((any::<bool>(), 0u32..6, 0u64..240, any::<bool>()), 1..400)
    }

    fn run(
        sampler: Sampler,
        script: &[(bool, u32, u64, bool)],
    ) -> (Vec<orprof::core::OrTuple>, Sampler) {
        let mut cdc = Cdc::with_sampler(Omc::new(), VecOrSink::new(), sampler);
        cdc.alloc(AllocEvent {
            site: AllocSiteId(0),
            base: RawAddress(0x1000),
            size: 256,
        });
        cdc.alloc(AllocEvent {
            site: AllocSiteId(1),
            base: RawAddress(0x8000),
            size: 256,
        });
        for &(second, instr, offset, store) in script {
            let base = if second { 0x8000 } else { 0x1000 };
            let ev = if store {
                AccessEvent::store(InstrId(instr), RawAddress(base + offset), 8)
            } else {
                AccessEvent::load(InstrId(instr), RawAddress(base + offset), 8)
            };
            cdc.access(ev);
        }
        cdc.finish();
        let sampler = cdc.sampler().clone();
        (cdc.into_parts().1.into_tuples(), sampler)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn rate_one_matches_the_unsampled_run(script in arb_accesses()) {
            let (full, _) = run(Sampler::off(), &script);
            let (sampled, sampler) = run(Sampler::periodic(1), &script);
            prop_assert_eq!(&sampled, &full, "rate 1 must keep every access");

            // The scaled estimate is exact at rate 1: every access is
            // kept with weight 1, so weighted == kept == considered.
            let stats = sampler.stats();
            prop_assert_eq!(stats.kept, stats.considered);
            prop_assert_eq!(stats.weighted, stats.kept);
            prop_assert_eq!(stats.dropped, 0);
            prop_assert_eq!(stats.kept, full.len() as u64);
        }

        #[test]
        fn scaled_estimate_brackets_the_true_count(
            script in arb_accesses(),
            rate in 1u64..16,
        ) {
            let (_, sampler) = run(Sampler::periodic(rate), &script);
            let stats = sampler.stats();
            // Each key keeps ceil(seen/rate) accesses, so the
            // inverse-rate estimate overshoots by at most rate-1 per
            // sampled key and never undershoots.
            let keys = sampler.tracked_keys() as u64;
            prop_assert!(stats.weighted >= stats.considered);
            prop_assert!(stats.weighted <= stats.considered + keys * (rate - 1));
        }
    }
}
