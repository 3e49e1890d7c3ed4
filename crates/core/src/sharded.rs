//! The parallel collection pipeline.
//!
//! The paper moves CDC/OMC translation off the profiled program's
//! thread (§3.1: "interactions between the instrumented program and the
//! CDC/OMC components take place via thread-to-thread communication").
//! [`ShardedCdc`] is that pipeline, generalized to N profiler lanes:
//!
//! ```text
//! probe side ──batches──▶ translator ──per-lane batches──▶ lane 0 (the stem)
//!                         (a Session:                  ├──▶ lane 1
//!                          OMC translate, sampler,     ├──▶ …
//!                          time-stamps, event count,   └──▶ lane N-1
//!                          routing)
//! ```
//!
//! The translator *is* a [`Session`] — the same [`Cdc`](crate::Cdc) code an inline
//! run executes — whose sink routes each tuple to a lane instead of
//! profiling it. Time-stamps, sampler admissions, untracked,
//! probe-anomaly and event counts are therefore identical by
//! construction. Tuples are routed by the profiler's
//! **vertical-decomposition key** ([`ShardableSink::shard_key`]):
//! `instr` for WHOMP's hybrid per-instruction grammars,
//! `(instr, group)` for LEAP. Because a profiler's state is partitioned
//! by that key, every lane sees each of its keys' sub-streams completely
//! and in collection order, and the deterministic merge in
//! [`ShardedCdc::join`] reassembles state *byte-identical* to the
//! inline run — regardless of lane count or how keys were balanced.
//!
//! # One constructor, one join
//!
//! [`ShardedCdc::spawn`] starts from a [`Session`]: a fresh one, or one
//! resumed from a checkpoint (a fresh run is a resume from empty
//! state). The session's profiler becomes lane 0's sink — the *stem* —
//! and every key already in it ([`ShardableSink::state_keys`]) is pinned
//! to lane 0, so each key's stream stays in one part. [`ShardedCdc::join`]
//! hands back the merged [`Session`], which checkpoints and finalizes
//! like any other, plus the per-lane [`PipelineStats`] and the lanes
//! that died.
//!
//! # Dead lanes
//!
//! A lane whose profiler panics no longer receives tuples: its
//! undeliverable batches, and everything routed to its keys afterwards,
//! divert to a fallback sink in the translator, and the join merges the
//! surviving lanes with the fallback. That profile is *degraded* — the
//! dead lane's keys are partial — so the join lists the dead lanes and
//! the merged session refuses to checkpoint. "Strict" and "salvage" are
//! only how a caller treats a non-empty [`ShardedJoin::degraded`] list:
//! fail the run, or keep the salvaged profile with a warning.
//!
//! The probe lane and every tuple lane are bounded [lanes](crate::lane):
//! at most 4 × 8192 × 32 B = 1 MiB of probe events and 4 × 8192 × 40 B
//! = 1.25 MiB of tuples per lane are in flight (DESIGN.md "Bounded lanes").

use std::convert::Infallible;

use orp_trace::{AccessEvent, AllocEvent, FreeEvent, InstrId, ProbeEvent, ProbeSink};

use orp_obs::Recorder;

use crate::lane::{self, LaneSender, Msg, PipelineError, Worker, QUEUE_BATCHES};
use crate::omc::FastU64Map;
use crate::{GroupId, OrSink, OrTuple, Session};

/// Probe events per batch shipped to the translator.
#[cfg(not(loom))]
pub const EVENT_BATCH: usize = 8192;
/// Model-checking build: tiny batches, so a handful of events exercises
/// multiple channel transitions without exploding the schedule space.
#[cfg(loom)]
pub const EVENT_BATCH: usize = 2;

/// Translated tuples per batch shipped to a lane worker (and, for a
/// dead lane, diverted to the fallback sink).
#[cfg(not(loom))]
pub const TUPLE_BATCH: usize = 8192;
/// Model-checking build: tiny batches, as for [`EVENT_BATCH`].
#[cfg(loom)]
pub const TUPLE_BATCH: usize = 2;

/// A profiler whose state is partitioned by a vertical-decomposition
/// key, making it collectable on sharded workers.
///
/// # Contract
///
/// Tuples with different [`ShardableSink::shard_key`] values must never
/// interact in the sink's state, and [`ShardableSink::merge`] over
/// parts that each consumed a *disjoint key set* (every key's tuples
/// complete and in collection order) must equal the state of a single
/// sink that consumed the whole stream. Under that contract the sharded
/// pipeline's output is byte-identical to single-threaded collection.
pub trait ShardableSink: OrSink + Send + Sized + 'static {
    /// The vertical-decomposition key partitioning this sink's state.
    fn shard_key(t: &OrTuple) -> u64;

    /// Merges shard-local states (disjoint key sets) into the combined
    /// state. `parts` is ordered by shard index.
    fn merge(parts: Vec<Self>) -> Self;

    /// The shard keys present in this profiler's state. A pipeline
    /// started from a session whose profiler already holds state (a
    /// resumed checkpoint) pins these keys to lane 0, which holds that
    /// state, so the merge sees every key's stream in one piece.
    ///
    /// Sinks whose merge re-establishes a global order regardless of
    /// routing (like [`VecOrSink`](crate::VecOrSink)) keep the default
    /// empty list.
    fn state_keys(&self) -> Vec<u64> {
        Vec::new()
    }
}

/// Fuses an `(instr, group)` pair into a shard key.
#[must_use]
pub fn instr_group_key(instr: InstrId, group: GroupId) -> u64 {
    (u64::from(instr.0) << 32) | u64::from(group.0)
}

impl ShardableSink for crate::VecOrSink {
    /// Any key works for a sink whose merge re-sorts globally; partition
    /// by instruction to exercise the same routing as real profilers.
    fn shard_key(t: &OrTuple) -> u64 {
        u64::from(t.instr.0)
    }

    /// Re-interleaves the shard-local streams on their (globally unique)
    /// time-stamps, restoring exact collection order.
    ///
    /// The translator stamps tuples with consecutive times `0..n` and
    /// each worker appends in translator order, so at every point
    /// exactly one run's cursor holds the next time-stamp — the merge
    /// walks the runs' heads and copies maximal consecutive chunks,
    /// never comparing tuple against tuple. Parts with arbitrary
    /// time-stamps (no run offering the expected next time) fall back
    /// to a comparison sort of the concatenation.
    fn merge(parts: Vec<Self>) -> Self {
        let mut runs: Vec<Vec<OrTuple>> = parts.into_iter().map(Self::into_tuples).collect();
        // Shards that saw no keys (fewer keys than shards) contribute
        // empty runs.
        runs.retain(|run| !run.is_empty());
        if runs.len() <= 1 {
            return crate::VecOrSink::from_tuples(runs.pop().unwrap_or_default());
        }
        let total: usize = runs.iter().map(Vec::len).sum();
        let mut out: Vec<OrTuple> = Vec::with_capacity(total);
        let mut cursors = vec![0usize; runs.len()];
        'dense: while out.len() < total {
            let next = out.len() as u64;
            for (run, cursor) in runs.iter().zip(cursors.iter_mut()) {
                if run.get(*cursor).is_some_and(|t| t.time.0 == next) {
                    let start = *cursor;
                    let mut expect = next;
                    while run.get(*cursor).is_some_and(|t| t.time.0 == expect) {
                        *cursor += 1;
                        expect += 1;
                    }
                    out.extend_from_slice(&run[start..*cursor]);
                    continue 'dense;
                }
            }
            // No run offers time `next`: the streams aren't densely
            // stamped, so the structure-exploiting path doesn't apply.
            break;
        }
        if out.len() == total {
            return crate::VecOrSink::from_tuples(out);
        }
        let mut all: Vec<OrTuple> = Vec::with_capacity(total);
        for run in runs {
            all.extend(run);
        }
        all.sort_unstable_by_key(|t| t.time);
        crate::VecOrSink::from_tuples(all)
    }
}

/// One shard lane's routing totals, as counted by the translator.
///
/// Plain integers bumped inline on the routing path; nothing here
/// calls out until [`PipelineStats::record_metrics`] runs at join.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: u64,
    /// Tuples routed to this shard.
    pub tuples: u64,
    /// Batches flushed onto this shard's queue.
    pub batches: u64,
    /// Flushes that found the queue full and had to block (the probe
    /// side out-ran this worker).
    pub stalls: u64,
    /// Tuples re-routed to the fallback sink after this shard's
    /// worker died (zero on a clean run).
    pub salvaged: u64,
}

/// Per-shard routing totals plus the merge cost, harvested at join.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PipelineStats {
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardStats>,
    /// Wall-clock nanoseconds spent in [`ShardableSink::merge`].
    pub merge_nanos: u64,
    /// Shards whose worker died and whose later tuples were re-routed
    /// to the fallback sink (empty on a clean run).
    pub degraded_shards: Vec<u64>,
}

impl PipelineStats {
    /// Total tuples diverted to the salvage fallback across shards.
    #[must_use]
    pub fn salvaged_tuples(&self) -> u64 {
        self.shards.iter().map(|s| s.salvaged).sum()
    }

    /// Publishes the pipeline's totals (`pipeline.*`) to `rec`.
    pub fn record_metrics(&self, rec: &mut dyn Recorder) {
        for s in &self.shards {
            rec.counter("pipeline.tuples_routed", s.tuples);
            rec.counter("pipeline.batches", s.batches);
            rec.counter("pipeline.queue_stalls", s.stalls);
            rec.observe("pipeline.tuples_per_shard", s.tuples);
        }
        rec.span("pipeline.merge", self.merge_nanos);
        if !self.degraded_shards.is_empty() {
            rec.counter(
                "pipeline.degraded_shards",
                self.degraded_shards.len() as u64,
            );
            rec.counter("pipeline.salvaged_tuples", self.salvaged_tuples());
        }
    }
}

/// What [`ShardedCdc::join`] hands back: the merged session — possibly
/// degraded — plus the routing totals and what went wrong.
#[derive(Debug)]
pub struct ShardedJoin<S> {
    /// The merged collection: every surviving lane plus the fallback
    /// sink, with the translator's OMC, sampler and counters. It has
    /// seen `finish`, and refuses to checkpoint when degraded.
    pub session: Session<S>,
    /// Routing totals; [`PipelineStats::degraded_shards`] lists the
    /// dead lanes and [`ShardStats::salvaged`] counts the diverted
    /// tuples per lane.
    pub stats: PipelineStats,
    /// One [`PipelineError`] per dead shard lane, in shard order.
    /// Empty means the run was clean: `session` is exactly what inline
    /// collection would have produced.
    pub degraded: Vec<PipelineError>,
}

/// One shard's outbound lane and the batch under construction.
#[derive(Debug)]
struct Lane {
    sender: LaneSender<OrTuple, Infallible>,
    pending: Vec<OrTuple>,
    /// Tuples routed here and salvaged; batches and stalls are the
    /// sender's, added at [`Router::close`].
    stats: ShardStats,
}

/// The translator's profiler: routes each translated tuple to its key's
/// lane, diverting batches a dead lane cannot accept to the fallback.
#[derive(Debug)]
struct Router<S> {
    lanes: Vec<Lane>,
    /// First-seen round-robin key→lane assignment: deterministic for a
    /// given event stream, and balance never affects the merged result
    /// (the merge is a key-set union).
    routes: FastU64Map<usize>,
    next_shard: usize,
    /// Consecutive tuples overwhelmingly come from a handful of keys
    /// (instructions running loops, often a couple of them interleaved);
    /// a small recently-used memo answers those ahead of the map lookup.
    route_memo: [(u64, usize); 4],
    memo_slot: usize,
    fallback: Option<S>,
}

impl<S: ShardableSink> Router<S> {
    /// Spawns a worker per sink — `stem` on lane 0 with its
    /// [`ShardableSink::state_keys`] pinned there, `make_sink(i)` on lane
    /// `i` — plus the fallback `make_sink(shards)`.
    fn spawn(
        stem: S,
        shards: usize,
        mut make_sink: impl FnMut(usize) -> S,
    ) -> (Self, Vec<Worker<S>>) {
        let mut routes = FastU64Map::default();
        for key in stem.state_keys() {
            routes.insert(key, 0);
        }
        let sinks = std::iter::once(stem).chain((1..shards).map(&mut make_sink));
        let (lanes, workers) = sinks
            .enumerate()
            .map(|(shard, mut sink)| {
                let name = format!("shard {shard}");
                let (sender, worker) = lane::spawn(name, QUEUE_BATCHES, TUPLE_BATCH, move |rx| {
                    rx.drain(|msg| {
                        let Msg::Batch(_, batch) = msg;
                        sink.tuple_batch(batch);
                    });
                    sink
                });
                let lane = Lane {
                    sender,
                    pending: Vec::with_capacity(TUPLE_BATCH),
                    stats: ShardStats {
                        shard: shard as u64,
                        ..ShardStats::default()
                    },
                };
                (lane, worker)
            })
            .unzip();
        let router = Router {
            lanes,
            routes,
            next_shard: 0,
            route_memo: [(u64::MAX, 0); 4],
            memo_slot: 0,
            fallback: Some(make_sink(shards)),
        };
        (router, workers)
    }

    fn route(&mut self, key: u64) -> usize {
        if let Some(&(_, shard)) = self.route_memo.iter().find(|(k, _)| *k == key) {
            return shard;
        }
        let lanes = self.lanes.len();
        let next_shard = &mut self.next_shard;
        let shard = *self.routes.entry(key).or_insert_with(|| {
            let s = *next_shard;
            *next_shard = (s + 1) % lanes;
            s
        });
        self.route_memo[self.memo_slot] = (key, shard);
        self.memo_slot = (self.memo_slot + 1) % self.route_memo.len();
        shard
    }

    /// Ships lane `shard`'s pending batch; a batch its dead worker
    /// cannot accept goes to the fallback instead.
    fn flush(&mut self, shard: usize) {
        let lane = &mut self.lanes[shard];
        if lane.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut lane.pending);
        lane.pending = lane.sender.ship(0, batch, |lost| {
            salvage_batch(&mut self.fallback, &mut lane.stats, lost);
        });
    }

    /// Flushes every lane's last batch, then hangs up on all the
    /// workers at once, returning the lanes' totals.
    fn close(&mut self) -> Vec<ShardStats> {
        for shard in 0..self.lanes.len() {
            self.flush(shard);
        }
        self.lanes
            .drain(..)
            .map(|lane| {
                let sent = lane.sender.stats();
                ShardStats {
                    batches: sent.batches,
                    stalls: sent.stalls,
                    ..lane.stats
                }
            })
            .collect()
    }
}

impl<S: ShardableSink> OrSink for Router<S> {
    fn tuple(&mut self, t: &OrTuple) {
        let shard = self.route(S::shard_key(t));
        let lane = &mut self.lanes[shard];
        lane.stats.tuples += 1;
        lane.pending.push(*t);
        if lane.pending.len() >= TUPLE_BATCH {
            self.flush(shard);
        }
    }
}

/// What the translator hands back: its session and the lanes' totals.
type Translated<S> = (Session<Router<S>>, Vec<ShardStats>);

/// A probe sink collecting through the pipeline described in the
/// [module docs](self).
///
/// # Examples
///
/// ```
/// use orp_core::sharded::ShardedCdc;
/// use orp_core::{Session, VecOrSink};
/// use orp_trace::{AccessEvent, AllocEvent, AllocSiteId, InstrId, ProbeSink, RawAddress};
///
/// let mut probe = ShardedCdc::spawn(Session::new(VecOrSink::new()), 2, |_| VecOrSink::new());
/// probe.alloc(AllocEvent { site: AllocSiteId(0), base: RawAddress(0x100), size: 16 });
/// probe.access(AccessEvent::load(InstrId(0), RawAddress(0x108), 8));
/// let joined = probe.join().unwrap();
/// assert!(joined.degraded.is_empty());
/// assert_eq!(joined.session.events(), 2);
/// assert_eq!(joined.session.cdc().sink().len(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedCdc<S: ShardableSink> {
    probe: LaneSender<ProbeEvent, Infallible>,
    batch: Vec<ProbeEvent>,
    translator: Option<Worker<Translated<S>>>,
    workers: Vec<Worker<S>>,
}

impl<S: ShardableSink> ShardedCdc<S> {
    /// Continues `session` on the translator thread plus `shards` lane
    /// workers. The session's profiler becomes lane 0's sink with its
    /// [`ShardableSink::state_keys`] pinned to lane 0; `make_sink(i)`
    /// builds the empty sinks of lanes `1..shards` and, as
    /// `make_sink(shards)`, the fallback for dead lanes. All must be
    /// configured like the session's profiler for the merge to be
    /// meaningful.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or a thread cannot be spawned.
    #[must_use]
    pub fn spawn(session: Session<S>, shards: usize, make_sink: impl FnMut(usize) -> S) -> Self {
        assert!(shards > 0, "at least one shard lane is required");
        let mut workers = Vec::new();
        let mut session = session.map_sink(|stem| {
            let (router, lanes) = Router::spawn(stem, shards, make_sink);
            workers = lanes;
            router
        });
        let (probe, translator) =
            lane::spawn("translator", QUEUE_BATCHES, EVENT_BATCH, move |rx| {
                rx.drain(|msg| {
                    let Msg::Batch(_, events) = msg;
                    session.feed(events);
                });
                let lane_stats = session.cdc_mut().sink_mut().close();
                (session, lane_stats)
            });
        ShardedCdc {
            probe,
            batch: Vec::with_capacity(EVENT_BATCH),
            translator: Some(translator),
            workers,
        }
    }

    fn push(&mut self, ev: ProbeEvent) {
        self.batch.push(ev);
        if self.batch.len() >= EVENT_BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.batch);
        // A dead translator's events are dropped and the probe side
        // keeps accepting, so the panic surfaces at join instead of
        // cascading into the probe side.
        self.batch = self.probe.ship(0, batch, |_| {});
    }

    /// Flushes pending events, shuts the pipeline down and merges the
    /// surviving lanes and the fallback into the finished session (its
    /// sink has seen `finish`). A lane that died degrades the result
    /// instead of failing it — see [`ShardedJoin::degraded`].
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] only when the *translator* panicked:
    /// it owns the OMC and the counters, so nothing can be salvaged
    /// without it.
    pub fn join(mut self) -> Result<ShardedJoin<S>, PipelineError> {
        self.flush();
        self.probe.hang_up();
        // The translator winds down first: closing its router (or
        // unwinding past it) hangs up on the lanes, releasing the
        // workers.
        let translated = self.translator.take().expect("join called once").join();
        let mut parts = Vec::with_capacity(self.workers.len() + 1);
        let mut degraded = Vec::new();
        let mut degraded_shards = Vec::new();
        for (shard, worker) in self.workers.drain(..).enumerate() {
            match worker.join() {
                Ok(sink) => parts.push(sink),
                Err(err) => {
                    degraded.push(err);
                    degraded_shards.push(shard as u64);
                }
            }
        }
        let (mut session, lane_stats) = translated?;
        // The fallback is last: merge contracts order parts by shard,
        // and the fallback holds (partial) streams of dead-lane keys —
        // key sets disjoint from every surviving part.
        parts.extend(session.cdc_mut().sink_mut().fallback.take());
        let merge_start = std::time::Instant::now();
        let merged = S::merge(parts);
        let merge_nanos = u64::try_from(merge_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut session = session.map_sink(|_| merged);
        session.degraded |= !degraded.is_empty();
        ProbeSink::finish(&mut session);
        Ok(ShardedJoin {
            session,
            stats: PipelineStats {
                shards: lane_stats,
                merge_nanos,
                degraded_shards,
            },
            degraded,
        })
    }
}

/// Diverts a batch a dead lane could not accept into the fallback sink.
///
/// The fallback is the pipeline's last line of defense, so it gets one
/// of its own: if the fallback sink itself panics, the translator — and
/// with it every lane's routing totals, including the salvaged count
/// accumulated so far — must survive to the join. The panic is caught,
/// the fallback is retired, and later diverted batches are dropped.
/// `salvaged` counts only tuples the fallback actually accepted.
fn salvage_batch<S: ShardableSink>(
    fallback: &mut Option<S>,
    stats: &mut ShardStats,
    batch: &[OrTuple],
) {
    if let Some(sink) = fallback.as_mut() {
        let fed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sink.tuple_batch(batch);
        }));
        if fed.is_ok() {
            stats.salvaged += batch.len() as u64;
        } else {
            *fallback = None;
        }
    }
}

impl<S: ShardableSink> ProbeSink for ShardedCdc<S> {
    fn access(&mut self, ev: AccessEvent) {
        self.push(ProbeEvent::Access(ev));
    }

    fn alloc(&mut self, ev: AllocEvent) {
        self.push(ProbeEvent::Alloc(ev));
    }

    fn free(&mut self, ev: FreeEvent) {
        self.push(ProbeEvent::Free(ev));
    }

    fn finish(&mut self) {
        self.flush();
    }
}

impl<S: ShardableSink> Drop for ShardedCdc<S> {
    fn drop(&mut self) {
        // Unblock and reap the pipeline if `join` was never called.
        self.probe.hang_up();
        if let Some(translator) = self.translator.take() {
            let _ = translator.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lane::LANE_BUFFERS;
    use crate::{SessionSink, VecOrSink};
    use orp_trace::{AllocSiteId, RawAddress};

    fn churn_run(sink: &mut dyn ProbeSink, nodes: u64, passes: u64) {
        for k in 0..nodes {
            sink.alloc(AllocEvent {
                site: AllocSiteId((k % 3) as u32),
                base: RawAddress(0x1000 + k * 64),
                size: 48,
            });
        }
        for p in 0..passes {
            for k in 0..nodes {
                let instr = InstrId(((k + p) % 7) as u32);
                sink.access(AccessEvent::load(
                    instr,
                    RawAddress(0x1000 + k * 64 + (p % 48)),
                    1,
                ));
            }
            // Untracked access and a mid-stream realloc.
            sink.access(AccessEvent::load(InstrId(99), RawAddress(0x10), 1));
            sink.free(FreeEvent {
                base: RawAddress(0x1000 + (p % nodes) * 64),
            });
            sink.alloc(AllocEvent {
                site: AllocSiteId(3),
                base: RawAddress(0x1000 + (p % nodes) * 64),
                size: 32,
            });
        }
        sink.finish();
    }

    fn spawn_vec(shards: usize) -> ShardedCdc<VecOrSink> {
        ShardedCdc::spawn(Session::new(VecOrSink::new()), shards, |_| VecOrSink::new())
    }

    #[test]
    fn sharded_collection_is_identical_to_inline_collection() {
        let mut inline = Session::new(VecOrSink::new());
        churn_run(&mut inline, 50, 40);

        for shards in [1, 2, 3, 8] {
            let mut sharded = spawn_vec(shards);
            churn_run(&mut sharded, 50, 40);
            let joined = sharded.join().expect("pipeline healthy");
            assert!(joined.degraded.is_empty(), "{shards} shards");
            assert!(joined.stats.degraded_shards.is_empty());
            assert_eq!(joined.stats.salvaged_tuples(), 0);
            let session = joined.session;
            assert_eq!(session.events(), inline.events(), "{shards} shards");
            let (cdc, reference) = (session.cdc(), inline.cdc());
            assert_eq!(
                cdc.sink().tuples(),
                reference.sink().tuples(),
                "{shards} shards"
            );
            assert_eq!(cdc.time(), reference.time());
            assert_eq!(cdc.untracked(), reference.untracked());
            assert_eq!(cdc.probe_anomalies(), reference.probe_anomalies());
        }
    }

    #[test]
    fn pipeline_stats_account_for_every_routed_tuple() {
        let mut sharded = spawn_vec(3);
        churn_run(&mut sharded, 50, 40);
        let joined = sharded.join().expect("pipeline healthy");
        let stats = joined.stats;
        assert_eq!(stats.shards.len(), 3);
        let routed: u64 = stats.shards.iter().map(|s| s.tuples).sum();
        assert_eq!(
            routed,
            joined.session.cdc().sink().len() as u64,
            "every tuple counted"
        );
        for (i, s) in stats.shards.iter().enumerate() {
            assert_eq!(s.shard, i as u64);
            assert!(
                s.tuples == 0 || s.batches > 0,
                "a shard with tuples flushed at least one batch: {s:?}"
            );
        }
    }

    /// A sink that panics on every tuple.
    #[derive(Debug)]
    struct Grenade;
    impl OrSink for Grenade {
        fn tuple(&mut self, _: &OrTuple) {
            panic!("sink exploded");
        }
    }
    impl ShardableSink for Grenade {
        fn shard_key(t: &OrTuple) -> u64 {
            u64::from(t.instr.0)
        }
        fn merge(_: Vec<Self>) -> Self {
            Grenade
        }
    }

    #[test]
    fn panicking_shard_worker_is_reported_by_name() {
        let mut sharded = ShardedCdc::spawn(Session::new(Grenade), 2, |_| Grenade);
        sharded.alloc(AllocEvent {
            site: AllocSiteId(0),
            base: RawAddress(0x100),
            size: 64,
        });
        sharded.access(AccessEvent::load(InstrId(0), RawAddress(0x100), 8));
        let joined = sharded.join().expect("the translator survives");
        assert_eq!(joined.degraded.len(), 1);
        let err = &joined.degraded[0];
        assert_eq!(err.worker, "shard 0");
        assert!(err.message.contains("sink exploded"), "{err}");
        assert!(err.to_string().contains("shard 0"));
        assert_eq!(joined.stats.degraded_shards, vec![0]);
    }

    /// A lane that dies early must not wedge the probe side: far more
    /// events than the probe and lane queues hold keep flowing, and the
    /// join still names the dead lane instead of hanging.
    #[test]
    fn batches_keep_flowing_after_lane_death() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let driver = std::thread::spawn(move || {
            let mut sharded = ShardedCdc::spawn(Session::new(Grenade), 1, |_| Grenade);
            sharded.alloc(AllocEvent {
                site: AllocSiteId(0),
                base: RawAddress(0x100),
                size: 64,
            });
            for _ in 0..(EVENT_BATCH.max(TUPLE_BATCH) * (QUEUE_BATCHES + 4)) {
                sharded.access(AccessEvent::load(InstrId(0), RawAddress(0x100), 8));
            }
            let _ = done_tx.send(sharded.join().map(|joined| joined.degraded));
        });
        let degraded = done_rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the join hung after a lane died")
            .expect("the translator survives");
        driver.join().expect("driver thread finished");
        assert_eq!(degraded.len(), 1);
        assert_eq!(degraded[0].worker, "shard 0");
    }

    /// A sink that panics on its first tuple when armed, recording
    /// into a [`VecOrSink`] otherwise. Deterministic: shard 1's worker
    /// always dies on its first delivered batch.
    #[derive(Debug)]
    struct FusedVec {
        armed: bool,
        inner: VecOrSink,
    }
    impl OrSink for FusedVec {
        fn tuple(&mut self, t: &OrTuple) {
            assert!(!self.armed, "armed sink detonated");
            self.inner.tuple(t);
        }
    }
    impl ShardableSink for FusedVec {
        fn shard_key(t: &OrTuple) -> u64 {
            u64::from(t.instr.0)
        }
        fn merge(parts: Vec<Self>) -> Self {
            FusedVec {
                armed: false,
                inner: VecOrSink::merge(parts.into_iter().map(|p| p.inner).collect()),
            }
        }
    }
    impl SessionSink for FusedVec {
        const STATE_NAME: &'static str = "fused-vec";
        fn save_state(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
            self.inner.save_state(w)
        }
        fn restore_state(r: &mut impl std::io::Read) -> std::io::Result<Self> {
            let inner = VecOrSink::restore_state(r)?;
            Ok(FusedVec {
                armed: false,
                inner,
            })
        }
        fn finalize_profile(self, w: &mut impl std::io::Write) -> std::io::Result<()> {
            self.inner.finalize_profile(w)
        }
    }

    fn fused_lane_two(i: usize) -> FusedVec {
        FusedVec {
            armed: i == 1,
            inner: VecOrSink::new(),
        }
    }

    /// Two keys on two lanes: instr 0 is first-seen → lane 0 (survives),
    /// instr 1 → lane 1.
    fn wave(sink: &mut dyn ProbeSink) {
        for i in 0..(TUPLE_BATCH as u64 + 256) {
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
    }

    const ALLOC: AllocEvent = AllocEvent {
        site: AllocSiteId(0),
        base: RawAddress(0x1000),
        size: 64,
    };

    #[test]
    fn salvage_mode_survives_a_dead_worker_and_keeps_surviving_lanes_exact() {
        // Reference: the same stream collected inline.
        let mut inline = Session::new(VecOrSink::new());
        inline.alloc(ALLOC);
        wave(&mut inline);
        wave(&mut inline);
        inline.finish();

        let mut sharded = ShardedCdc::spawn(Session::new(fused_lane_two(0)), 2, fused_lane_two);
        sharded.alloc(ALLOC);
        wave(&mut sharded);
        // Ship wave 1 to the translator, then give shard 1's worker time to
        // receive its first batch, die, and drop its receiver, so wave 2's
        // flushes bounce.
        sharded.finish();
        std::thread::sleep(std::time::Duration::from_millis(100));
        wave(&mut sharded);
        let join = sharded.join().expect("translator survived");

        assert_eq!(join.degraded.len(), 1);
        assert_eq!(join.degraded[0].worker, "shard 1");
        assert!(join.degraded[0].message.contains("detonated"));
        assert_eq!(join.stats.degraded_shards, vec![1]);
        assert_eq!(join.session.events(), inline.events());

        // The surviving lane's key is byte-identical to the inline run.
        let collected = join.session.cdc().sink().inner.tuples();
        let survived: Vec<&OrTuple> = collected.iter().filter(|t| t.instr == InstrId(0)).collect();
        let reference: Vec<&OrTuple> = inline
            .cdc()
            .sink()
            .tuples()
            .iter()
            .filter(|t| t.instr == InstrId(0))
            .collect();
        assert_eq!(survived, reference, "surviving lane degraded");

        // Everything else in the profile came through the fallback, and
        // the stats account for exactly those tuples.
        let salvaged_in_profile = collected.len() - survived.len();
        assert_eq!(join.stats.salvaged_tuples(), salvaged_in_profile as u64);
        assert_eq!(join.stats.shards[1].salvaged, salvaged_in_profile as u64);
        assert_eq!(join.stats.shards[0].salvaged, 0);
        assert!(
            salvaged_in_profile > 0,
            "wave 2 should have bounced off the dead lane into the fallback"
        );
    }

    /// A degraded session's dead-lane keys are partial; a checkpoint of
    /// it would resume into a profile silently missing tuples. The join
    /// marks it, and every checkpoint attempt fails without writing a
    /// byte. A clean join from the same start checkpoints exactly like
    /// the inline session.
    #[test]
    fn degraded_join_never_checkpoints() {
        let mut sharded = ShardedCdc::spawn(Session::new(fused_lane_two(0)), 2, fused_lane_two);
        sharded.alloc(ALLOC);
        wave(&mut sharded);
        let mut joined = sharded.join().expect("translator survived");
        assert_eq!(joined.degraded.len(), 1, "lane 1 must have died");
        for _ in 0..2 {
            let mut snapshot = Vec::new();
            let err = joined
                .session
                .checkpoint(&mut snapshot)
                .expect_err("a degraded session must not checkpoint");
            assert!(err.to_string().contains("degraded"), "{err}");
            assert!(snapshot.is_empty(), "nothing may be written");
        }
        assert_eq!(joined.session.session_stats().checkpoints, 0);

        let disarmed = |_| fused_lane_two(0);
        let mut clean = ShardedCdc::spawn(Session::new(disarmed(0)), 2, disarmed);
        clean.alloc(ALLOC);
        wave(&mut clean);
        let mut clean = clean.join().expect("pipeline healthy");
        assert!(clean.degraded.is_empty());
        let mut inline = Session::new(disarmed(0));
        inline.alloc(ALLOC);
        wave(&mut inline);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        clean
            .session
            .checkpoint(&mut got)
            .expect("clean join checkpoints");
        inline.checkpoint(&mut want).unwrap();
        assert_eq!(got, want);
    }

    /// A sink that takes its time over every batch, so whatever feeds
    /// its lane out-runs it.
    #[derive(Debug, Default)]
    struct Sluggish(VecOrSink);
    impl OrSink for Sluggish {
        fn tuple(&mut self, t: &OrTuple) {
            self.0.tuple(t);
        }
        fn tuple_batch(&mut self, batch: &[OrTuple]) {
            std::thread::sleep(std::time::Duration::from_millis(5));
            self.0.tuple_batch(batch);
        }
    }
    impl ShardableSink for Sluggish {
        fn shard_key(t: &OrTuple) -> u64 {
            u64::from(t.instr.0)
        }
        fn merge(parts: Vec<Self>) -> Self {
            Sluggish(VecOrSink::merge(parts.into_iter().map(|p| p.0).collect()))
        }
    }

    /// The in-flight budget (module docs, "Bounded lanes"): under a feed
    /// that out-runs its lanes, neither the probe lane nor a tuple lane
    /// ever holds more than [`LANE_BUFFERS`] buffers — the feed side's
    /// first one plus those it allocated, since recycling never drops a
    /// buffer. The byte budgets are pinned on purpose: a bigger batch
    /// or a deeper queue must come with new measurements, not only with
    /// higher RSS.
    #[test]
    fn lane_buffers_stay_within_the_documented_budget() {
        assert_eq!(std::mem::size_of::<ProbeEvent>(), 32);
        assert_eq!(std::mem::size_of::<OrTuple>(), 40);
        assert_eq!(
            LANE_BUFFERS * EVENT_BATCH * std::mem::size_of::<ProbeEvent>(),
            1024 * 1024,
            "probe-lane in-flight budget changed"
        );
        assert_eq!(
            LANE_BUFFERS * TUPLE_BATCH * std::mem::size_of::<OrTuple>(),
            1280 * 1024,
            "tuple-lane in-flight budget changed"
        );
        let within_budget = |sent: lane::LaneStats, what: &str| {
            assert!(sent.stalls > 0, "{what}: the feed never out-ran the lane");
            assert!(
                sent.allocated < LANE_BUFFERS as u64,
                "{what}: {} buffers",
                sent.allocated + 1
            );
        };

        // Tuple lanes, fed straight from this thread.
        let (mut router, workers) = Router::spawn(Sluggish::default(), 2, |_| Sluggish::default());
        let mut t = OrTuple {
            instr: InstrId(0),
            kind: orp_trace::AccessKind::Load,
            group: GroupId(0),
            object: crate::ObjectSerial(0),
            offset: 0,
            time: crate::Timestamp(0),
            size: 8,
        };
        // Twelve batches for lane 0, then twelve for lane 1: each lane
        // sees a burst while its sibling idles.
        for i in 0..(24 * TUPLE_BATCH as u64) {
            t.instr = InstrId((i / (12 * TUPLE_BATCH as u64)) as u32);
            t.time = crate::Timestamp(i);
            router.tuple(&t);
        }
        for (shard, lane) in router.lanes.iter().enumerate() {
            within_budget(lane.sender.stats(), &format!("tuple lane {shard}"));
        }
        router.close();
        for worker in workers {
            worker.join().expect("healthy lane");
        }

        // The probe lane: a sluggish tuple lane backs the translator up.
        let mut sharded = ShardedCdc::spawn(Session::new(Sluggish::default()), 1, |_| {
            Sluggish::default()
        });
        sharded.alloc(ALLOC);
        for i in 0..(24 * EVENT_BATCH as u64) {
            sharded.access(AccessEvent::load(
                InstrId(0),
                RawAddress(0x1000 + i % 64),
                1,
            ));
        }
        within_budget(sharded.probe.stats(), "probe lane");
        let joined = sharded.join().expect("pipeline healthy");
        assert_eq!(joined.session.cdc().sink().0.len(), 24 * EVENT_BATCH);
    }

    #[test]
    fn drop_without_join_does_not_hang() {
        let mut sharded = spawn_vec(4);
        sharded.access(AccessEvent::load(InstrId(0), RawAddress(0x100), 8));
        drop(sharded);
    }

    #[test]
    fn instr_group_key_is_injective_on_the_id_spaces() {
        let a = instr_group_key(InstrId(1), GroupId(2));
        let b = instr_group_key(InstrId(2), GroupId(1));
        assert_ne!(a, b);
        assert_eq!(instr_group_key(InstrId(0), GroupId(0)), 0);
    }
}
