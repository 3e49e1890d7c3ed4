//! The control and decomposition component (CDC).

use orp_trace::{AccessEvent, AllocEvent, FreeEvent, ProbeSink};

use crate::{Omc, OrSink, OrTuple, Sampler, Timestamp};

/// The hub of the profiling pipeline: receives probe events, queries the
/// [`Omc`] to make accesses object-relative, stamps them with the time
/// counter and forwards [`OrTuple`]s to the profiler behind it.
///
/// The CDC implements [`ProbeSink`], so an instrumented program (or the
/// workload tracer) can be pointed straight at it. Accesses that hit no
/// tracked object (stack, unprofiled segments) are dropped and counted
/// in [`Cdc::untracked`] — the paper likewise leaves stack variables to
/// static analysis.
///
/// Object-probe anomalies (overlapping allocations, frees of unknown
/// addresses) are tolerated and counted in [`Cdc::probe_anomalies`]
/// rather than escalated: a profiler must survive an imperfectly
/// instrumented program.
///
/// An optional [`Sampler`] sits between translation and collection:
/// accesses it drops neither advance the time-stamp counter nor reach
/// the sink, so sampled profiles keep dense time-stamps and every
/// downstream consumer works unchanged (see the [`sample`](crate::sample)
/// module).
#[derive(Debug, Clone)]
pub struct Cdc<S> {
    omc: Omc,
    sink: S,
    sampler: Sampler,
    pub(crate) time: u64,
    pub(crate) untracked: u64,
    pub(crate) probe_anomalies: u64,
}

impl<S: OrSink> Cdc<S> {
    /// Creates a CDC translating through `omc` into `sink`, collecting
    /// every access.
    #[must_use]
    pub fn new(omc: Omc, sink: S) -> Self {
        Cdc::with_sampler(omc, sink, Sampler::off())
    }

    /// Creates a CDC whose collection is filtered by `sampler`.
    #[must_use]
    pub fn with_sampler(omc: Omc, sink: S, sampler: Sampler) -> Self {
        Cdc {
            omc,
            sink,
            sampler,
            time: 0,
            untracked: 0,
            probe_anomalies: 0,
        }
    }

    /// The sampling front-end.
    #[must_use]
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// Mutable access to the sampling front-end (rate retargeting by
    /// the controller).
    pub fn sampler_mut(&mut self) -> &mut Sampler {
        &mut self.sampler
    }

    /// The object management component.
    #[must_use]
    pub fn omc(&self) -> &Omc {
        &self.omc
    }

    /// Mutable access to the OMC (e.g. to pre-register static objects).
    pub fn omc_mut(&mut self) -> &mut Omc {
        &mut self.omc
    }

    /// The downstream profiler.
    #[must_use]
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the downstream profiler.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Swaps the profiler for `f(profiler)`, keeping the OMC, the
    /// sampler and the counters.
    #[must_use]
    pub fn map_sink<T>(self, f: impl FnOnce(S) -> T) -> Cdc<T> {
        Cdc {
            omc: self.omc,
            sink: f(self.sink),
            sampler: self.sampler,
            time: self.time,
            untracked: self.untracked,
            probe_anomalies: self.probe_anomalies,
        }
    }

    /// Consumes the CDC, returning the OMC and the profiler.
    #[must_use]
    pub fn into_parts(self) -> (Omc, S) {
        (self.omc, self.sink)
    }

    /// The current value of the time-stamp counter (= number of
    /// collected accesses so far).
    #[must_use]
    pub fn time(&self) -> Timestamp {
        Timestamp(self.time)
    }

    /// Accesses dropped because no live object contained their address.
    #[must_use]
    pub fn untracked(&self) -> u64 {
        self.untracked
    }

    /// Object-probe events that contradicted the OMC's state.
    #[must_use]
    pub fn probe_anomalies(&self) -> u64 {
        self.probe_anomalies
    }

    /// Publishes the CDC's counters (and the OMC's translation totals)
    /// onto `rec`. Call at a phase boundary — the event path only bumps
    /// plain integers.
    pub fn record_metrics(&self, rec: &mut dyn orp_obs::Recorder) {
        rec.counter("cdc.accesses", self.time);
        rec.counter("cdc.untracked", self.untracked);
        rec.counter("cdc.probe_anomalies", self.probe_anomalies);
        self.sampler.record_metrics(rec);
        self.omc.record_metrics(rec);
    }
}

impl<S: OrSink> ProbeSink for Cdc<S> {
    fn access(&mut self, ev: AccessEvent) {
        match self.omc.translate_cached(ev.instr, ev.addr.0) {
            Some((group, object, offset)) => {
                if !self.sampler.is_off()
                    && !self
                        .sampler
                        .admit(crate::sharded::instr_group_key(ev.instr, group))
                {
                    return;
                }
                let tuple = OrTuple {
                    instr: ev.instr,
                    kind: ev.kind,
                    group,
                    object,
                    offset,
                    time: Timestamp(self.time),
                    size: ev.size,
                };
                // "Incremented after every collected access."
                self.time += 1;
                self.sink.tuple(&tuple);
            }
            None => self.untracked += 1,
        }
    }

    fn alloc(&mut self, ev: AllocEvent) {
        if self
            .omc
            .on_alloc(ev.site, ev.base.0, ev.size, Timestamp(self.time))
            .is_err()
        {
            self.probe_anomalies += 1;
        }
    }

    fn free(&mut self, ev: FreeEvent) {
        if self.omc.on_free(ev.base.0, Timestamp(self.time)).is_err() {
            self.probe_anomalies += 1;
        }
    }

    fn finish(&mut self) {
        self.sink.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecOrSink;
    use orp_trace::{AccessKind, AllocSiteId, InstrId, RawAddress};

    fn alloc(base: u64, size: u64) -> AllocEvent {
        AllocEvent {
            site: AllocSiteId(0),
            base: RawAddress(base),
            size,
        }
    }

    #[test]
    fn timestamps_count_only_collected_accesses() {
        let mut cdc = Cdc::new(Omc::new(), VecOrSink::new());
        cdc.alloc(alloc(0x100, 16));
        cdc.access(AccessEvent::load(InstrId(0), RawAddress(0x100), 8));
        cdc.access(AccessEvent::load(InstrId(0), RawAddress(0x9999), 8)); // untracked
        cdc.access(AccessEvent::store(InstrId(1), RawAddress(0x108), 8));
        let tuples = cdc.sink().tuples();
        assert_eq!(tuples.len(), 2);
        assert_eq!(tuples[0].time, Timestamp(0));
        assert_eq!(tuples[1].time, Timestamp(1));
        assert_eq!(cdc.untracked(), 1);
        assert_eq!(cdc.time(), Timestamp(2));
    }

    #[test]
    fn tuples_carry_kind_offset_and_size() {
        let mut cdc = Cdc::new(Omc::new(), VecOrSink::new());
        cdc.alloc(alloc(0x200, 32));
        cdc.access(AccessEvent::store(InstrId(7), RawAddress(0x20C), 4));
        let t = cdc.sink().tuples()[0];
        assert_eq!(t.instr, InstrId(7));
        assert_eq!(t.kind, AccessKind::Store);
        assert_eq!(t.offset, 0xC);
        assert_eq!(t.size, 4);
    }

    #[test]
    fn free_probe_archives_with_current_time() {
        let mut cdc = Cdc::new(Omc::new(), VecOrSink::new());
        cdc.alloc(alloc(0x100, 16));
        cdc.access(AccessEvent::load(InstrId(0), RawAddress(0x100), 8));
        cdc.free(FreeEvent {
            base: RawAddress(0x100),
        });
        let (omc, _) = cdc.into_parts();
        assert_eq!(omc.archive()[0].free_time, Some(Timestamp(1)));
    }

    #[test]
    fn probe_anomalies_are_counted_not_fatal() {
        let mut cdc = Cdc::new(Omc::new(), VecOrSink::new());
        cdc.alloc(alloc(0x100, 32));
        cdc.alloc(alloc(0x110, 8)); // overlap
        cdc.free(FreeEvent {
            base: RawAddress(0x900),
        }); // unknown
        assert_eq!(cdc.probe_anomalies(), 2);
    }

    #[test]
    fn finish_propagates_to_sink() {
        #[derive(Default)]
        struct Flag(bool);
        impl OrSink for Flag {
            fn tuple(&mut self, _: &OrTuple) {}
            fn finish(&mut self) {
                self.0 = true;
            }
        }
        let mut cdc = Cdc::new(Omc::new(), Flag::default());
        cdc.finish();
        assert!(cdc.sink().0);
    }
}
