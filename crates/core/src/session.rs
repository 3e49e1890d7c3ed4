//! The streaming profiler session layer.
//!
//! A [`Session`] wraps a [`Cdc`] with the lifecycle the tools and
//! harnesses share: **open** (fresh or from a checkpoint), **feed**
//! probe events in bounded batches, **checkpoint** the complete
//! collection state into a `.orp` container, and **finalize** the sink
//! into its profile container.
//!
//! # Checkpoint containers
//!
//! A checkpoint is an ordinary `.orp` container of kind
//! [`ProfileKind::Checkpoint`] holding three chunks (four when the run
//! is sampled):
//!
//! ```text
//! META  kind = checkpoint
//! OMCK  canonical OMC state (groups, site map, live set, archive)
//! CDCK  collection counters (time, untracked, probe anomalies, events)
//! SMPK  sampling front-end state (policy, totals, per-key admission),
//!       then the budget's controller when the session holds one —
//!       written only when the sampler is on, so pre-sampling
//!       checkpoints remain readable and unsampled checkpoints are
//!       byte-identical to what earlier writers produced
//! SNKS  sink name + profiler state (as defined by SessionSink)
//! END
//! ```
//!
//! Restoring reproduces the collection state exactly: the resumed run's
//! remaining stream produces byte-identical profiles to an
//! uninterrupted run, whether it continues on a single-threaded
//! [`Session`] or on the sharded pipeline (hand the resumed session to
//! [`ShardedCdc::spawn`](crate::ShardedCdc::spawn)). A session joined
//! from that pipeline checkpoints like any other — unless a shard lane
//! died, in which case [`Session::checkpoint`] refuses: the dead lane's
//! keys are partial, and a checkpoint would pass them off as complete.

use std::io::{self, Read, Write};

use orp_format::{
    read_varint, write_varint, ChunkTag, ContainerReader, ContainerWriter, FormatError, ProfileKind,
};
use orp_obs::{CountingWrite, Recorder, Stopwatch};
use orp_trace::{ProbeEvent, ProbeSink};

use crate::{Cdc, Omc, OrSink, RateController, Sampler, SamplingPolicy};

/// A profiler whose in-progress state can be checkpointed and restored,
/// making it usable behind a [`Session`].
///
/// # Contract
///
/// `restore_state(save_state(p)) == p` for every reachable profiler
/// state — not just finalized ones: the state written mid-stream must
/// let the restored profiler consume the rest of the stream exactly as
/// the original would have. `save_state` must also be deterministic
/// (emit map contents in key order), so `save → restore → save` is
/// byte-identical.
pub trait SessionSink: OrSink + Sized {
    /// Stable name identifying the profiler in the `SNKS` chunk; a
    /// checkpoint restores only into the sink type that wrote it.
    const STATE_NAME: &'static str;

    /// Serializes the complete in-progress profiler state.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    fn save_state(&self, w: &mut impl Write) -> io::Result<()>;

    /// Brings the in-progress state to rest before
    /// [`SessionSink::save_state`]: a sink that buffers input for
    /// worker threads ships what it holds, so the state it then saves
    /// covers every tuple received. [`Session::checkpoint`] calls it;
    /// the default does nothing.
    fn quiesce(&mut self) {}

    /// Rebuilds a profiler from state written by
    /// [`SessionSink::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates reader errors; rejects inconsistent state.
    fn restore_state(r: &mut impl Read) -> io::Result<Self>;

    /// Finalizes the profiler and writes its profile as a `.orp`
    /// container of the profiler's kind.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    fn finalize_profile(self, w: &mut impl Write) -> io::Result<()>;
}

/// Checkpoint totals for one session: plain integers bumped by
/// [`Session::checkpoint`], published via
/// [`Session::record_metrics`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Total bytes across all checkpoints written.
    pub checkpoint_bytes: u64,
    /// Total wall-clock nanoseconds spent writing checkpoints.
    pub checkpoint_nanos: u64,
}

/// A profiling session: a [`Cdc`] plus the open → feed → checkpoint →
/// finalize lifecycle over `.orp` containers.
///
/// The session implements [`ProbeSink`], so workloads and probe
/// frontends drive it exactly like a bare CDC; [`Session::feed`] adds
/// the batched entry point used by trace replay and by the sharded
/// pipeline's translator. A session opened [with a
/// budget](Session::with_budget) steers its own sampler from that
/// event path.
#[derive(Debug, Clone)]
pub struct Session<S> {
    cdc: Cdc<S>,
    events: u64,
    /// `events` at which the budget's next control step runs; `u64::MAX`
    /// without a budget, so the event path's one compare never fires.
    next_check: u64,
    budget: Option<Budget>,
    stats: SessionStats,
    /// Set by a sharded join that lost shard lanes: the profile is
    /// salvaged but partial, so it must not be checkpointed.
    pub(crate) degraded: bool,
}

/// `--sample budget=` as session state: the controller, the clock its
/// overhead is measured on, and the event count that clock started at.
#[derive(Debug, Clone)]
struct Budget {
    controller: RateController,
    clock: Stopwatch,
    /// Session events when `clock` started. The controller sees only
    /// the events fed since, because a resumed process restarts the
    /// clock while the event count carries over.
    origin: u64,
    /// Replaces `clock` with elapsed nanoseconds as a function of the
    /// events fed since `origin` ([`Session::set_budget_clock`]).
    fake_clock: Option<fn(u64) -> u64>,
    /// Control steps run since `clock` started. Not checkpointed: a
    /// resumed process has measured nothing yet.
    steps: u64,
}

impl<S: OrSink> Session<S> {
    /// Opens a session with a fresh OMC.
    #[must_use]
    pub fn new(sink: S) -> Self {
        Self::with_omc(Omc::new(), sink)
    }

    /// Opens a session over an existing OMC (e.g. pre-registered static
    /// objects).
    #[must_use]
    pub fn with_omc(omc: Omc, sink: S) -> Self {
        Self::from_cdc(Cdc::new(omc, sink))
    }

    /// Opens a session over a fresh CDC — e.g. one built with
    /// [`Cdc::with_sampler`]. The event counter starts at zero (it
    /// counts events fed through sessions, and the CDC has seen none).
    #[must_use]
    pub fn from_cdc(cdc: Cdc<S>) -> Self {
        Session {
            cdc,
            events: 0,
            next_check: u64::MAX,
            budget: None,
            stats: SessionStats::default(),
            degraded: false,
        }
    }

    /// Holds profiling overhead at `controller`'s budget: every
    /// [`RateController::CONTROL_INTERVAL`] events the session compares
    /// the wall time since this call against the controller's native
    /// baseline and retargets its sampler's rate. The sampler must be
    /// periodic (`Sampler::periodic(1)` starts lossless); the budget
    /// stays with the session through [`Session::map_sink`], the
    /// sharded pipeline and checkpoints.
    #[must_use]
    pub fn with_budget(mut self, controller: RateController) -> Self {
        debug_assert!(
            matches!(self.cdc.sampler().policy(), SamplingPolicy::Periodic { .. }),
            "a budget steers a periodic sampler"
        );
        self.set_budget(controller);
        self
    }

    /// Starts the budget's clock now. The first control step waits a
    /// full interval of events fed from here on.
    fn set_budget(&mut self, mut controller: RateController) {
        controller.rebase(0);
        self.next_check = self.events.saturating_add(controller.next_check());
        self.budget = Some(Budget {
            controller,
            clock: Stopwatch::start(),
            origin: self.events,
            fake_clock: None,
            steps: 0,
        });
    }

    /// The budget's controller, when the session holds one.
    #[must_use]
    pub fn budget(&self) -> Option<&RateController> {
        self.budget.as_ref().map(|b| &b.controller)
    }

    /// Control steps the budget has run since this session was opened
    /// or resumed; `None` without a budget. At 0 the controller has
    /// measured no overhead in this process.
    #[must_use]
    pub fn budget_control_steps(&self) -> Option<u64> {
        self.budget.as_ref().map(|b| b.steps)
    }

    /// Test hook: the budget reads `elapsed(events fed since its clock
    /// started)` nanoseconds instead of the wall clock, so its control
    /// decisions are a function of the event stream alone.
    #[doc(hidden)]
    pub fn set_budget_clock(&mut self, elapsed: fn(u64) -> u64) {
        if let Some(budget) = &mut self.budget {
            budget.fake_clock = Some(elapsed);
        }
    }

    /// Counts one event fed, running the budget's control step when it
    /// is due.
    #[inline]
    fn count_event(&mut self) {
        self.events += 1;
        if self.events >= self.next_check {
            self.steer();
        }
    }

    /// The budget's control step: measures overhead over the events fed
    /// since its clock started and retargets the sampler's rate.
    #[cold]
    fn steer(&mut self) {
        let Some(budget) = &mut self.budget else {
            return;
        };
        budget.steps += 1;
        let fed = self.events - budget.origin;
        let elapsed = match budget.fake_clock {
            Some(elapsed) => elapsed(fed),
            None => budget.clock.elapsed_nanos(),
        };
        let sampler = self.cdc.sampler_mut();
        if let Some(rate) = budget
            .controller
            .control(fed, elapsed, sampler.current_rate())
        {
            sampler.set_rate(rate);
        }
        self.next_check = budget.origin + budget.controller.next_check();
    }

    /// Feeds one bounded batch of probe events.
    pub fn feed(&mut self, batch: &[ProbeEvent]) {
        for &ev in batch {
            self.event(ev);
        }
    }

    /// Events fed through this session (including ones fed before a
    /// checkpoint this session was restored from).
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The underlying CDC.
    #[must_use]
    pub fn cdc(&self) -> &Cdc<S> {
        &self.cdc
    }

    /// Mutable access to the underlying CDC.
    pub fn cdc_mut(&mut self) -> &mut Cdc<S> {
        &mut self.cdc
    }

    /// Swaps the profiler behind the session for `f(profiler)`,
    /// keeping the translator, sampler and every counter — e.g. to
    /// continue a restored profiler on grammar workers. The new sink
    /// must hold the same profiler state, or a later checkpoint would
    /// not match the stream it claims to cover.
    #[must_use]
    pub fn map_sink<T: OrSink>(self, f: impl FnOnce(S) -> T) -> Session<T> {
        Session {
            cdc: self.cdc.map_sink(f),
            events: self.events,
            next_check: self.next_check,
            budget: self.budget,
            stats: self.stats,
            degraded: self.degraded,
        }
    }

    /// Consumes the session, returning the CDC.
    #[must_use]
    pub fn into_cdc(self) -> Cdc<S> {
        self.cdc
    }
}

impl<S: SessionSink> Session<S> {
    /// Writes the complete collection state — OMC, counters, sampler
    /// and budget, profiler — as a checkpoint container. The session
    /// remains usable.
    ///
    /// # Errors
    ///
    /// Propagates writer errors; refuses, before writing anything, a
    /// session joined from a sharded run that lost a lane.
    pub fn checkpoint(&mut self, w: &mut impl Write) -> io::Result<()> {
        if self.degraded {
            return Err(io::Error::other(
                "a degraded session (a shard lane died) holds partial keys; refusing to checkpoint it",
            ));
        }
        let clock = Stopwatch::start();
        let mut counted = CountingWrite::new(w);
        let mut container = ContainerWriter::new(&mut counted)?;
        container.meta(ProfileKind::Checkpoint)?;
        let mut omck = Vec::new();
        self.cdc.omc().save_state(&mut omck)?;
        container.chunk(ChunkTag::OMC_STATE, &omck)?;
        let mut cdck = Vec::new();
        write_varint(&mut cdck, self.cdc.time().0)?;
        write_varint(&mut cdck, self.cdc.untracked())?;
        write_varint(&mut cdck, self.cdc.probe_anomalies())?;
        write_varint(&mut cdck, self.events)?;
        container.chunk(ChunkTag::CDC_STATE, &cdck)?;
        if !self.cdc.sampler().is_off() {
            let mut smpk = Vec::new();
            self.cdc.sampler().save_state(&mut smpk)?;
            if let Some(budget) = &self.budget {
                write_varint(&mut smpk, 1)?;
                budget.controller.save_state(&mut smpk)?;
            }
            container.chunk(ChunkTag::SAMPLER_STATE, &smpk)?;
        }
        let mut snks = Vec::new();
        write_varint(&mut snks, S::STATE_NAME.len() as u64)?;
        snks.extend_from_slice(S::STATE_NAME.as_bytes());
        self.cdc.sink_mut().quiesce();
        self.cdc.sink().save_state(&mut snks)?;
        container.chunk(ChunkTag::SINK_STATE, &snks)?;
        container.finish()?;
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes += counted.bytes();
        self.stats.checkpoint_nanos += clock.elapsed_nanos();
        Ok(())
    }

    /// Checkpoint totals accumulated by this session.
    #[must_use]
    pub fn session_stats(&self) -> SessionStats {
        self.stats
    }

    /// Publishes session and translator totals onto `rec`. Call at a
    /// phase boundary — the hot paths only bump plain integers.
    pub fn record_metrics(&self, rec: &mut dyn Recorder) {
        rec.counter("session.events", self.events);
        rec.counter("session.checkpoints", self.stats.checkpoints);
        rec.counter("session.checkpoint_bytes", self.stats.checkpoint_bytes);
        if self.stats.checkpoints > 0 {
            rec.span("session.checkpoint", self.stats.checkpoint_nanos);
        }
        if let Some(budget) = &self.budget {
            budget.controller.record_metrics(rec);
            rec.counter("sample.control_steps", budget.steps);
        }
        self.cdc.record_metrics(rec);
    }

    /// Reopens a session from a checkpoint container, restoring the
    /// OMC, the counters, the sampler, the budget and the profiler state
    /// exactly. A budget restarts its clock here: the first control
    /// step waits a full interval of events fed after the resume.
    ///
    /// The `SMPK` chunk is optional (absent means an unsampled run,
    /// restored as a pass-through sampler), so checkpoints written
    /// before sampling existed resume unchanged. After the sampler
    /// state the chunk may carry a flagged [`RateController`] state
    /// (budget-mode checkpoints); an empty remainder means no budget,
    /// so pre-controller sampled checkpoints also resume unchanged.
    ///
    /// # Errors
    ///
    /// Typed [`FormatError`]s for envelope damage; `Malformed` when the
    /// checkpoint belongs to a different profiler type or its state
    /// fails validation.
    pub fn resume(r: &mut impl Read) -> Result<Self, FormatError> {
        let mut container = ContainerReader::new(r)?;
        let kind = container.read_meta()?;
        if kind != ProfileKind::Checkpoint {
            return Err(FormatError::WrongKind { found: kind.code() });
        }
        let omck = container.expect_chunk(ChunkTag::OMC_STATE)?;
        let mut cursor = omck.as_slice();
        let omc = Omc::restore_state(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(FormatError::Malformed("trailing bytes in OMC state"));
        }
        let cdck = container.expect_chunk(ChunkTag::CDC_STATE)?;
        let mut cursor = cdck.as_slice();
        let time = read_varint(&mut cursor)?;
        let untracked = read_varint(&mut cursor)?;
        let probe_anomalies = read_varint(&mut cursor)?;
        let events = read_varint(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(FormatError::Malformed("trailing bytes in CDC state"));
        }
        let chunk = container
            .next_chunk()?
            .ok_or(FormatError::MissingChunk(ChunkTag::SINK_STATE))?;
        let (sampler, controller, snks) = match chunk.tag {
            ChunkTag::SAMPLER_STATE => {
                let mut cursor = chunk.payload.as_slice();
                let sampler = Sampler::restore_state(&mut cursor)?;
                let controller = if cursor.is_empty() {
                    None
                } else {
                    match read_varint(&mut cursor)? {
                        1 => Some(RateController::restore_state(&mut cursor)?),
                        _ => {
                            return Err(FormatError::Malformed(
                                "unknown extension flag in sampler state",
                            ))
                        }
                    }
                };
                if !cursor.is_empty() {
                    return Err(FormatError::Malformed("trailing bytes in sampler state"));
                }
                (
                    sampler,
                    controller,
                    container.expect_chunk(ChunkTag::SINK_STATE)?,
                )
            }
            ChunkTag::SINK_STATE => (Sampler::off(), None, chunk.payload),
            other => {
                return Err(FormatError::UnexpectedChunk {
                    expected: ChunkTag::SINK_STATE,
                    found: other,
                })
            }
        };
        let mut cursor = snks.as_slice();
        let name_len = usize::try_from(read_varint(&mut cursor)?)
            .map_err(|_| FormatError::Malformed("sink name length does not fit"))?;
        if cursor.len() < name_len {
            return Err(FormatError::Truncated);
        }
        let (name, rest) = cursor.split_at(name_len);
        if name != S::STATE_NAME.as_bytes() {
            return Err(FormatError::Malformed(
                "checkpoint holds a different profiler's state",
            ));
        }
        let mut cursor = rest;
        let sink = S::restore_state(&mut cursor)?;
        if !cursor.is_empty() {
            return Err(FormatError::Malformed("trailing bytes in sink state"));
        }
        container.drain()?;

        let mut cdc = Cdc::with_sampler(omc, sink, sampler);
        cdc.time = time;
        cdc.untracked = untracked;
        cdc.probe_anomalies = probe_anomalies;
        let mut session = Session::from_cdc(cdc);
        session.events = events;
        if let Some(controller) = controller {
            session.set_budget(controller);
        }
        Ok(session)
    }

    /// Finishes the session and writes the sink's profile container.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn finalize(mut self, w: &mut impl Write) -> io::Result<()> {
        ProbeSink::finish(&mut self.cdc);
        let (_omc, sink) = self.cdc.into_parts();
        sink.finalize_profile(w)
    }
}

impl<S: OrSink> ProbeSink for Session<S> {
    fn access(&mut self, ev: orp_trace::AccessEvent) {
        self.cdc.access(ev);
        self.count_event();
    }

    fn alloc(&mut self, ev: orp_trace::AllocEvent) {
        self.cdc.alloc(ev);
        self.count_event();
    }

    fn free(&mut self, ev: orp_trace::FreeEvent) {
        self.cdc.free(ev);
        self.count_event();
    }

    fn finish(&mut self) {
        self.cdc.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GroupId, ObjectSerial, OrTuple, Timestamp, VecOrSink};
    use orp_trace::{
        AccessEvent, AccessKind, AllocEvent, AllocSiteId, FreeEvent, InstrId, RawAddress,
    };

    impl SessionSink for VecOrSink {
        const STATE_NAME: &'static str = "vec";

        fn save_state(&self, w: &mut impl Write) -> io::Result<()> {
            write_varint(w, self.tuples().len() as u64)?;
            for t in self.tuples() {
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
            Ok(VecOrSink::from_tuples(tuples))
        }

        fn finalize_profile(self, w: &mut impl Write) -> io::Result<()> {
            let mut payload = Vec::new();
            self.save_state(&mut payload)?;
            orp_format::write_single_chunk(w, ProfileKind::Checkpoint, &payload)
        }
    }

    fn drive(sink: &mut dyn ProbeSink, events: &[ProbeEvent]) {
        for &ev in events {
            sink.event(ev);
        }
    }

    fn churn_events(nodes: u64, passes: u64) -> Vec<ProbeEvent> {
        let mut events = Vec::new();
        for k in 0..nodes {
            events.push(ProbeEvent::Alloc(AllocEvent {
                site: AllocSiteId((k % 3) as u32),
                base: RawAddress(0x1000 + k * 64),
                size: 48,
            }));
        }
        for p in 0..passes {
            for k in 0..nodes {
                events.push(ProbeEvent::Access(AccessEvent::load(
                    InstrId(((k + p) % 7) as u32),
                    RawAddress(0x1000 + k * 64 + (p % 48)),
                    1,
                )));
            }
            events.push(ProbeEvent::Access(AccessEvent::load(
                InstrId(99),
                RawAddress(0x10),
                1,
            )));
            events.push(ProbeEvent::Free(FreeEvent {
                base: RawAddress(0x1000 + (p % nodes) * 64),
            }));
            events.push(ProbeEvent::Alloc(AllocEvent {
                site: AllocSiteId(3),
                base: RawAddress(0x1000 + (p % nodes) * 64),
                size: 32,
            }));
        }
        events
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_at_every_cut() {
        let events = churn_events(8, 6);
        let mut uninterrupted = Session::new(VecOrSink::new());
        uninterrupted.feed(&events);
        let mut reference = Vec::new();
        uninterrupted.checkpoint(&mut reference).unwrap();

        for cut in (0..=events.len()).step_by(7) {
            let mut first = Session::new(VecOrSink::new());
            first.feed(&events[..cut]);
            let mut snapshot = Vec::new();
            first.checkpoint(&mut snapshot).unwrap();

            let mut resumed = Session::<VecOrSink>::resume(&mut snapshot.as_slice())
                .unwrap_or_else(|e| panic!("resume at {cut}: {e}"));
            assert_eq!(resumed.events(), cut as u64);
            resumed.feed(&events[cut..]);
            let mut replayed = Vec::new();
            resumed.checkpoint(&mut replayed).unwrap();
            assert_eq!(replayed, reference, "cut at event {cut}");
        }
    }

    #[test]
    fn session_stats_count_checkpoints_and_bytes() {
        let mut session = Session::new(VecOrSink::new());
        session.feed(&churn_events(4, 3));
        assert_eq!(session.session_stats(), SessionStats::default());

        let mut first = Vec::new();
        session.checkpoint(&mut first).unwrap();
        let mut second = Vec::new();
        session.checkpoint(&mut second).unwrap();

        let stats = session.session_stats();
        assert_eq!(stats.checkpoints, 2);
        assert_eq!(stats.checkpoint_bytes, (first.len() + second.len()) as u64);

        let mut rec = orp_obs::StatsRecorder::default();
        session.record_metrics(&mut rec);
        assert_eq!(rec.counter_value("session.checkpoints"), 2);
        assert_eq!(
            rec.counter_value("session.checkpoint_bytes"),
            stats.checkpoint_bytes
        );
        assert_eq!(rec.counter_value("session.events"), session.events());
        assert_eq!(rec.counter_value("cdc.accesses"), session.cdc().time().0);
    }

    #[test]
    fn resume_sharded_matches_single_threaded() {
        let events = churn_events(16, 10);
        let cut = events.len() / 2;

        let mut uninterrupted = Session::new(VecOrSink::new());
        uninterrupted.feed(&events);
        let reference = uninterrupted.into_cdc();

        let mut first = Session::new(VecOrSink::new());
        first.feed(&events[..cut]);
        let mut snapshot = Vec::new();
        first.checkpoint(&mut snapshot).unwrap();

        for shards in [1, 2, 4] {
            let resumed = Session::<VecOrSink>::resume(&mut snapshot.as_slice()).unwrap();
            let mut sharded = crate::ShardedCdc::spawn(resumed, shards, |_| VecOrSink::new());
            drive(&mut sharded, &events[cut..]);
            let joined = sharded.join().expect("pipeline healthy");
            assert_eq!(joined.session.events(), events.len() as u64, "{shards}");
            let cdc = joined.session.into_cdc();
            assert_eq!(cdc.sink().tuples(), reference.sink().tuples(), "{shards}");
            assert_eq!(cdc.time(), reference.time());
            assert_eq!(cdc.untracked(), reference.untracked());
            assert_eq!(cdc.probe_anomalies(), reference.probe_anomalies());
        }
    }

    #[test]
    fn sampled_checkpoint_carries_and_restores_the_sampler() {
        let events = churn_events(8, 6);
        let mut uninterrupted = Session::from_cdc(Cdc::with_sampler(
            Omc::new(),
            VecOrSink::new(),
            Sampler::periodic(3),
        ));
        uninterrupted.feed(&events);
        let mut reference = Vec::new();
        uninterrupted.checkpoint(&mut reference).unwrap();

        for cut in (0..=events.len()).step_by(11) {
            let mut first = Session::from_cdc(Cdc::with_sampler(
                Omc::new(),
                VecOrSink::new(),
                Sampler::periodic(3),
            ));
            first.feed(&events[..cut]);
            let mut snapshot = Vec::new();
            first.checkpoint(&mut snapshot).unwrap();

            let mut resumed = Session::<VecOrSink>::resume(&mut snapshot.as_slice())
                .unwrap_or_else(|e| panic!("resume at {cut}: {e}"));
            assert_eq!(
                resumed.cdc().sampler().policy(),
                crate::SamplingPolicy::Periodic { rate: 3 },
                "cut at {cut}"
            );
            resumed.feed(&events[cut..]);
            let mut replayed = Vec::new();
            resumed.checkpoint(&mut replayed).unwrap();
            assert_eq!(replayed, reference, "cut at event {cut}");
        }
    }

    #[test]
    fn budget_checkpoint_carries_and_restores_the_controller() {
        const INTERVAL: u64 = RateController::CONTROL_INTERVAL;
        // Profiling at 2x native against a 25% budget: every control
        // step is over budget and raises the rate.
        let over_budget = |fed: u64| fed * 200;
        let mut session = Session::from_cdc(Cdc::with_sampler(
            Omc::new(),
            VecOrSink::new(),
            Sampler::periodic(1),
        ))
        .with_budget(RateController::new(25.0, 100.0));
        session.set_budget_clock(over_budget);
        let events = churn_events(64, 1100);
        assert!(events.len() as u64 > INTERVAL, "one control step must run");
        session.feed(&events);
        let controller = session.budget().expect("budgeted").clone();
        assert_eq!(controller.adjustments(), 1);
        assert_eq!(session.cdc().sampler().current_rate(), 4);

        let mut snapshot = Vec::new();
        session.checkpoint(&mut snapshot).unwrap();
        let mut resumed = Session::<VecOrSink>::resume(&mut snapshot.as_slice()).unwrap();
        let restored = resumed
            .budget()
            .expect("the controller must survive the checkpoint");
        assert_eq!(resumed.events(), session.events());
        assert_eq!(restored.adjustments(), controller.adjustments());
        assert_eq!(restored.trajectory(), controller.trajectory());
        assert_eq!(resumed.cdc().sampler().current_rate(), 4);

        // The resumed session keeps steering, one full interval of
        // fresh events after the resume.
        resumed.set_budget_clock(over_budget);
        let more = churn_events(64, 1000);
        let step = usize::try_from(INTERVAL).unwrap();
        resumed.feed(&more[..step - 1]);
        assert_eq!(resumed.budget().unwrap().adjustments(), 1);
        resumed.feed(&more[step - 1..step]);
        assert_eq!(resumed.budget().unwrap().adjustments(), 2);
        assert_eq!(resumed.cdc().sampler().current_rate(), 16);
        let mut rec = orp_obs::StatsRecorder::default();
        resumed.record_metrics(&mut rec);
        assert_eq!(rec.counter_value("sample.adjustments"), 2);
        assert_eq!(rec.histograms()["sample.rate_trajectory"].count(), 2);

        // A sampled session without a budget checkpoints none, and
        // resumes without one.
        let mut plain = Session::from_cdc(Cdc::with_sampler(
            Omc::new(),
            VecOrSink::new(),
            Sampler::periodic(2),
        ));
        plain.feed(&churn_events(6, 4));
        let mut bent = Vec::new();
        plain.checkpoint(&mut bent).unwrap();
        let unbudgeted = Session::<VecOrSink>::resume(&mut bent.as_slice()).unwrap();
        assert!(
            unbudgeted.budget().is_none(),
            "plain checkpoints carry no budget"
        );

        // An unknown extension flag after the sampler state is a typed
        // error, not a panic or a silent skip.
        // Rewrite the SMPK chunk with a bogus extension flag appended.
        let mut cursor = bent.as_slice();
        let mut container = ContainerReader::new(&mut cursor).unwrap();
        container.read_meta().unwrap();
        let mut smpk = None;
        while let Some(chunk) = container.next_chunk().unwrap() {
            if chunk.tag == ChunkTag::SAMPLER_STATE {
                smpk = Some(chunk.payload);
            }
        }
        let mut extended = smpk.expect("sampled checkpoint has SMPK");
        orp_format::write_varint(&mut extended, 7).unwrap();
        let mut rebuilt = Vec::new();
        {
            let mut w = ContainerWriter::new(&mut rebuilt).unwrap();
            w.meta(ProfileKind::Checkpoint).unwrap();
            let mut cursor = bent.as_slice();
            let mut container = ContainerReader::new(&mut cursor).unwrap();
            container.read_meta().unwrap();
            while let Some(chunk) = container.next_chunk().unwrap() {
                if chunk.tag == ChunkTag::SAMPLER_STATE {
                    w.chunk(chunk.tag, &extended).unwrap();
                } else {
                    w.chunk(chunk.tag, &chunk.payload).unwrap();
                }
            }
            w.finish().unwrap();
        }
        assert!(matches!(
            Session::<VecOrSink>::resume(&mut rebuilt.as_slice()),
            Err(FormatError::Malformed(_))
        ));
    }

    #[test]
    fn control_steps_count_from_open_or_resume() {
        const INTERVAL: u64 = RateController::CONTROL_INTERVAL;
        let step = usize::try_from(INTERVAL).unwrap();
        let events = churn_events(64, 2000);
        let mut session = Session::from_cdc(Cdc::with_sampler(
            Omc::new(),
            VecOrSink::new(),
            Sampler::periodic(1),
        ))
        .with_budget(RateController::new(25.0, 100.0));
        session.set_budget_clock(|fed| fed * 100);
        session.feed(&events[..step - 1]);
        assert_eq!(session.budget_control_steps(), Some(0), "no step yet");
        session.feed(&events[step - 1..step]);
        assert_eq!(session.budget_control_steps(), Some(1));

        let mut snapshot = Vec::new();
        session.checkpoint(&mut snapshot).unwrap();
        let mut resumed = Session::<VecOrSink>::resume(&mut snapshot.as_slice()).unwrap();
        assert_eq!(
            resumed.budget_control_steps(),
            Some(0),
            "a resumed process has measured nothing yet"
        );
        resumed.set_budget_clock(|fed| fed * 100);
        resumed.feed(&events[step..2 * step]);
        assert_eq!(resumed.budget_control_steps(), Some(1));
        let mut rec = orp_obs::StatsRecorder::default();
        resumed.record_metrics(&mut rec);
        assert_eq!(rec.counter_value("sample.control_steps"), 1);
        assert!(Session::new(VecOrSink::new())
            .budget_control_steps()
            .is_none());
    }

    #[test]
    fn unsampled_checkpoints_have_no_sampler_chunk() {
        let mut session = Session::new(VecOrSink::new());
        session.feed(&churn_events(4, 3));
        let mut snapshot = Vec::new();
        session.checkpoint(&mut snapshot).unwrap();
        let mut cursor = snapshot.as_slice();
        let mut container = ContainerReader::new(&mut cursor).unwrap();
        container.read_meta().unwrap();
        let mut tags = Vec::new();
        while let Some(chunk) = container.next_chunk().unwrap() {
            tags.push(chunk.tag);
        }
        assert!(
            !tags.contains(&ChunkTag::SAMPLER_STATE),
            "pass-through sampler must keep the pre-sampling layout: {tags:?}"
        );
    }

    #[test]
    fn corrupted_sampler_chunk_yields_typed_errors() {
        let mut session = Session::from_cdc(Cdc::with_sampler(
            Omc::new(),
            VecOrSink::new(),
            Sampler::reservoir(4),
        ));
        session.feed(&churn_events(4, 3));
        let mut snapshot = Vec::new();
        session.checkpoint(&mut snapshot).unwrap();

        for cut in 0..snapshot.len() {
            assert!(
                Session::<VecOrSink>::resume(&mut &snapshot[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        let mut bent = snapshot.clone();
        let mid = bent.len() / 2;
        bent[mid] ^= 0x10;
        assert!(Session::<VecOrSink>::resume(&mut bent.as_slice()).is_err());
    }

    #[test]
    fn wrong_profiler_name_is_rejected() {
        #[derive(Debug, Default)]
        struct Other;
        impl OrSink for Other {
            fn tuple(&mut self, _: &OrTuple) {}
        }
        impl SessionSink for Other {
            const STATE_NAME: &'static str = "other";
            fn save_state(&self, _: &mut impl Write) -> io::Result<()> {
                Ok(())
            }
            fn restore_state(_: &mut impl Read) -> io::Result<Self> {
                Ok(Other)
            }
            fn finalize_profile(self, _: &mut impl Write) -> io::Result<()> {
                Ok(())
            }
        }

        let mut session = Session::new(VecOrSink::new());
        let mut snapshot = Vec::new();
        session.checkpoint(&mut snapshot).unwrap();
        assert!(matches!(
            Session::<Other>::resume(&mut snapshot.as_slice()),
            Err(FormatError::Malformed(_))
        ));
    }

    #[test]
    fn non_checkpoint_container_is_rejected() {
        let mut buf = Vec::new();
        orp_format::write_single_chunk(&mut buf, ProfileKind::Trace, &[]).unwrap();
        assert!(matches!(
            Session::<VecOrSink>::resume(&mut buf.as_slice()),
            Err(FormatError::WrongKind { .. })
        ));
    }

    #[test]
    fn corrupted_checkpoint_yields_typed_errors() {
        let mut session = Session::new(VecOrSink::new());
        session.feed(&churn_events(4, 3));
        let mut snapshot = Vec::new();
        session.checkpoint(&mut snapshot).unwrap();

        // Truncation at every prefix is an error, never a panic.
        for cut in 0..snapshot.len() {
            assert!(
                Session::<VecOrSink>::resume(&mut &snapshot[..cut]).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        // A flipped payload bit trips the chunk checksum.
        let mut bent = snapshot.clone();
        let mid = bent.len() / 2;
        bent[mid] ^= 0x10;
        assert!(Session::<VecOrSink>::resume(&mut bent.as_slice()).is_err());
    }
}
