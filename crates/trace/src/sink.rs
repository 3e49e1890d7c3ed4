//! Probe sinks: consumers of the instrumented event stream.

use crate::event::{AccessEvent, AllocEvent, FreeEvent, ProbeEvent};
use crate::stats::TraceStats;

/// A consumer of probe events.
///
/// This is the interface between the instrumented program and the
/// profiling machinery (the paper's control-and-decomposition component
/// sits behind it). Implementations receive every access in program
/// order, interleaved with allocation/deallocation notifications.
///
/// The default method bodies ignore events, so a sink interested only in
/// accesses (for example) implements just [`ProbeSink::access`].
pub trait ProbeSink {
    /// Called by an instruction probe for every dynamic memory access.
    fn access(&mut self, ev: AccessEvent) {
        let _ = ev;
    }

    /// Called by an object probe when an object is created.
    fn alloc(&mut self, ev: AllocEvent) {
        let _ = ev;
    }

    /// Called by an object probe when an object is destroyed.
    fn free(&mut self, ev: FreeEvent) {
        let _ = ev;
    }

    /// Called once when the traced program terminates.
    ///
    /// Sinks that buffer state (compressors, for example) finalize it
    /// here. The default does nothing.
    fn finish(&mut self) {}

    /// Dispatches a generic [`ProbeEvent`] to the matching handler.
    fn event(&mut self, ev: ProbeEvent) {
        match ev {
            ProbeEvent::Access(a) => self.access(a),
            ProbeEvent::Alloc(a) => self.alloc(a),
            ProbeEvent::Free(f) => self.free(f),
        }
    }
}

/// A sink that discards everything.
///
/// Running a workload against `NullSink` is the "native" (uninstrumented)
/// configuration used as the denominator of the paper's time-dilation
/// factor in Table 1.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl NullSink {
    /// Creates a null sink.
    #[must_use]
    pub fn new() -> Self {
        NullSink
    }
}

impl ProbeSink for NullSink {}

/// A sink that materializes the full event stream in memory.
///
/// Useful in tests and for the lossless baselines; real profilers consume
/// the stream online instead.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Vec<ProbeEvent>,
}

impl VecSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events in program order.
    #[must_use]
    pub fn events(&self) -> &[ProbeEvent] {
        &self.events
    }

    /// Consumes the sink, returning the recorded events.
    #[must_use]
    pub fn into_events(self) -> Vec<ProbeEvent> {
        self.events
    }

    /// Only the access events, in program order.
    #[must_use]
    pub fn accesses(&self) -> Vec<AccessEvent> {
        self.events
            .iter()
            .filter_map(|ev| match ev {
                ProbeEvent::Access(a) => Some(*a),
                _ => None,
            })
            .collect()
    }

    /// Number of recorded events (all kinds).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Records into `events` after whatever it already holds — pass an
/// emptied buffer to reuse its allocation.
impl From<Vec<ProbeEvent>> for VecSink {
    fn from(events: Vec<ProbeEvent>) -> Self {
        VecSink { events }
    }
}

impl ProbeSink for VecSink {
    fn access(&mut self, ev: AccessEvent) {
        self.events.push(ProbeEvent::Access(ev));
    }

    fn alloc(&mut self, ev: AllocEvent) {
        self.events.push(ProbeEvent::Alloc(ev));
    }

    fn free(&mut self, ev: FreeEvent) {
        self.events.push(ProbeEvent::Free(ev));
    }
}

/// A sink that accumulates [`TraceStats`] without storing events.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    stats: TraceStats,
}

impl CountingSink {
    /// Creates a sink with zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &TraceStats {
        &self.stats
    }

    /// Consumes the sink, returning the statistics.
    #[must_use]
    pub fn into_stats(self) -> TraceStats {
        self.stats
    }
}

impl ProbeSink for CountingSink {
    fn access(&mut self, ev: AccessEvent) {
        self.stats.record_access(&ev);
    }

    fn alloc(&mut self, ev: AllocEvent) {
        self.stats.record_alloc(&ev);
    }

    fn free(&mut self, _ev: FreeEvent) {
        self.stats.frees += 1;
    }
}

/// A sink that forwards every event to two underlying sinks.
///
/// # Examples
///
/// ```
/// use orp_trace::{AccessEvent, CountingSink, InstrId, ProbeSink, RawAddress, TeeSink, VecSink};
///
/// let mut tee = TeeSink::new(VecSink::new(), CountingSink::new());
/// tee.access(AccessEvent::load(InstrId(0), RawAddress(8), 8));
/// let (vec, count) = tee.into_inner();
/// assert_eq!(vec.len(), 1);
/// assert_eq!(count.stats().loads, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TeeSink<A, B> {
    first: A,
    second: B,
}

impl<A: ProbeSink, B: ProbeSink> TeeSink<A, B> {
    /// Creates a tee over two sinks.
    #[must_use]
    pub fn new(first: A, second: B) -> Self {
        TeeSink { first, second }
    }

    /// Returns the two underlying sinks.
    #[must_use]
    pub fn into_inner(self) -> (A, B) {
        (self.first, self.second)
    }

    /// Borrows the first sink.
    #[must_use]
    pub fn first(&self) -> &A {
        &self.first
    }

    /// Borrows the second sink.
    #[must_use]
    pub fn second(&self) -> &B {
        &self.second
    }
}

impl<A: ProbeSink, B: ProbeSink> ProbeSink for TeeSink<A, B> {
    fn access(&mut self, ev: AccessEvent) {
        self.first.access(ev);
        self.second.access(ev);
    }

    fn alloc(&mut self, ev: AllocEvent) {
        self.first.alloc(ev);
        self.second.alloc(ev);
    }

    fn free(&mut self, ev: FreeEvent) {
        self.first.free(ev);
        self.second.free(ev);
    }

    fn finish(&mut self) {
        self.first.finish();
        self.second.finish();
    }
}

impl<S: ProbeSink + ?Sized> ProbeSink for &mut S {
    fn access(&mut self, ev: AccessEvent) {
        (**self).access(ev);
    }

    fn alloc(&mut self, ev: AllocEvent) {
        (**self).alloc(ev);
    }

    fn free(&mut self, ev: FreeEvent) {
        (**self).free(ev);
    }

    fn finish(&mut self) {
        (**self).finish();
    }
}

impl<S: ProbeSink + ?Sized> ProbeSink for Box<S> {
    fn access(&mut self, ev: AccessEvent) {
        (**self).access(ev);
    }

    fn alloc(&mut self, ev: AllocEvent) {
        (**self).alloc(ev);
    }

    fn free(&mut self, ev: FreeEvent) {
        (**self).free(ev);
    }

    fn finish(&mut self) {
        (**self).finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessKind, AllocSiteId, InstrId, RawAddress};

    fn sample_events() -> Vec<ProbeEvent> {
        vec![
            ProbeEvent::Alloc(AllocEvent {
                site: AllocSiteId(0),
                base: RawAddress(64),
                size: 16,
            }),
            ProbeEvent::Access(AccessEvent::load(InstrId(0), RawAddress(64), 8)),
            ProbeEvent::Access(AccessEvent::store(InstrId(1), RawAddress(72), 8)),
            ProbeEvent::Free(FreeEvent {
                base: RawAddress(64),
            }),
        ]
    }

    #[test]
    fn vec_sink_preserves_order_and_kinds() {
        let mut sink = VecSink::new();
        for ev in sample_events() {
            sink.event(ev);
        }
        assert_eq!(sink.events(), sample_events().as_slice());
        assert_eq!(sink.accesses().len(), 2);
        assert_eq!(sink.accesses()[0].kind, AccessKind::Load);
    }

    #[test]
    fn counting_sink_counts_by_kind() {
        let mut sink = CountingSink::new();
        for ev in sample_events() {
            sink.event(ev);
        }
        let stats = sink.into_stats();
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.allocs, 1);
        assert_eq!(stats.frees, 1);
        assert_eq!(stats.accesses(), 2);
    }

    #[test]
    fn tee_feeds_both_sinks_and_finishes_both() {
        struct FinishFlag(bool);
        impl ProbeSink for FinishFlag {
            fn finish(&mut self) {
                self.0 = true;
            }
        }
        let mut tee = TeeSink::new(FinishFlag(false), FinishFlag(false));
        tee.finish();
        assert!(tee.first().0);
        assert!(tee.second().0);
    }

    #[test]
    fn mut_ref_and_box_forward() {
        let mut sink = CountingSink::new();
        {
            let by_ref: &mut CountingSink = &mut sink;
            ProbeSink::access(
                &mut { by_ref },
                AccessEvent::load(InstrId(0), RawAddress(0), 1),
            );
        }
        assert_eq!(sink.stats().loads, 1);

        let mut boxed: Box<dyn ProbeSink> = Box::new(CountingSink::new());
        boxed.access(AccessEvent::store(InstrId(0), RawAddress(0), 1));
        boxed.finish();
    }

    #[test]
    fn null_sink_ignores_everything() {
        let mut sink = NullSink::new();
        for ev in sample_events() {
            sink.event(ev);
        }
        sink.finish();
    }
}
