//! Parallel pipelined grammar construction.
//!
//! `BENCH_throughput.json` put raw collection near 29 MEPS while every
//! grammar-backed mode sat at ~0.44 MEPS: single-threaded Sequitur
//! construction was the wall, and sharding the *collection* side could
//! not move it. This module parallelizes the grammar stage itself,
//! exploiting the decomposition structure the paper already gives us:
//!
//! WHOMP's OMSG keeps one **independent** Sequitur per horizontal
//! dimension (instruction/group/object/offset) — four embarrassingly
//! parallel consumers ([`PipelinedWhomp`]). The host picks the engine:
//! [`PipelinedWhomp::default_workers`] runs one worker per dimension on
//! a multi-CPU host and inline construction on one CPU.
//!
//! RASG, the paper's baseline, keeps a single record grammar and always
//! grows it inline: one worker can only take batches handed to it, and
//! it measured no faster than inline construction (EXPERIMENTS.md,
//! "RASG on a grammar worker").
//!
//! The hybrid profiler needs no pipeline of its own: it is partitioned
//! by instruction, a [`ShardableSink`](orp_core::ShardableSink), so it
//! grows its grammars in parallel on the lanes of
//! [`ShardedCdc`](orp_core::ShardedCdc) (`run --shards N`), which
//! checkpoint, resume and salvage like any sharded run.
//!
//! # Batching contract
//!
//! The feed side buffers per-stream symbol vectors and ships them as
//! batches over [`orp_core::lane`]s, the bounded, buffer-recycling
//! hand-off every pipeline shares. A stream's symbols reach exactly one
//! worker, in collection order, whatever the batch size — so batch
//! boundaries and thread scheduling are unobservable in the output.
//!
//! # In-flight memory
//!
//! By the lane budget, a one-stream lane never holds more than
//! [`LANE_BUFFERS`](orp_core::lane::LANE_BUFFERS) buffers of
//! [`SYMBOL_BATCH`] symbols: 4 × 2048 × 8 B = 64 KiB per dimension,
//! 256 KiB for the four WHOMP lanes; each
//! further stream on a lane adds its pending buffer (DESIGN.md
//! "Bounded lanes" and §13 have the measurements behind the constants).
//!
//! # Checkpoint barrier
//!
//! [`PipelinedWhomp`] is a [`SessionSink`](orp_core::SessionSink):
//! `quiesce` flushes the pending batches, then `save_state` queues a
//! snapshot request on each lane *behind* those batches. A worker answers
//! only after applying everything queued before the request, so the
//! serialized grammars are exactly the sequential profiler's at the
//! same tuple — the checkpoint bytes are identical to
//! [`WhompProfiler`]'s.
//!
//! # Determinism argument
//!
//! Sequitur is a deterministic function of its input stream. Each
//! dimension's stream arrives at one worker complete and in order, so
//! every per-dimension grammar — and therefore the OMSG container
//! bytes — is byte-identical to sequential construction. The
//! differential tests and golden fixtures pin this down.
//!
//! # Degraded shutdown
//!
//! A dead grammar worker cannot be salvaged like a dead shard lane: its
//! grammar dies with its thread and cannot be re-derived without the
//! consumed prefix. The feed side only keeps accepting (and dropping)
//! symbols — no deadlock, no cascading panic — and the failure surfaces
//! at join as a [`PipelineError`] naming the worker. A checkpoint taken
//! after the death fails with an [`io::Error`] instead of writing a
//! grammar with a hole in it.

use std::io;
use std::time::Instant;

use orp_core::lane::{self, LaneSender, Msg, Reply, Worker, QUEUE_BATCHES};
use orp_core::{OrSink, OrTuple, PipelineError};
use orp_obs::Recorder;
use orp_sequitur::Sequitur;

use crate::WhompProfiler;

/// Symbols per batch shipped to a grammar worker. On the seven-trace
/// WHOMP replay (DESIGN.md §13) 2048 matched 4096 in throughput at
/// ~0.3 MiB less peak RSS; 1024 started to lose throughput to
/// per-batch hand-offs without saving more memory.
#[cfg(not(loom))]
const SYMBOL_BATCH: usize = 2048;
/// Model-checking build: tiny batches so a handful of symbols crosses
/// several channel transitions without exploding the schedule space.
#[cfg(loom)]
const SYMBOL_BATCH: usize = 2;

/// The OMSG dimension names, in stream order.
pub(crate) const DIMS: [&str; 4] = ["instruction", "group", "object", "offset"];

/// One symbol stream's feed-side totals, counted on the collection
/// thread; plain integers bumped inline, published only at join.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GrammarStreamStats {
    /// Stream name: an OMSG dimension.
    pub stream: &'static str,
    /// Symbols shipped into this stream's grammar.
    pub symbols: u64,
    /// Batches flushed onto the worker's queue.
    pub batches: u64,
    /// Flushes that found the queue full and had to block (collection
    /// out-ran grammar construction).
    pub stalls: u64,
    /// Wall-clock nanoseconds the worker spent inside `push_batch` for
    /// this stream.
    pub busy_ns: u64,
}

/// Per-stream grammar-worker totals harvested at join.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GrammarPipelineStats {
    /// Number of grammar workers the pipeline ran.
    pub workers: u64,
    /// One entry per symbol stream.
    pub streams: Vec<GrammarStreamStats>,
}

/// The `(busy, batches, stalls)` counter names for one stream — the
/// [`Recorder`] interface wants `&'static str`, so the known streams
/// are enumerated instead of formatted.
fn stream_counter_names(stream: &str) -> Option<(&'static str, &'static str, &'static str)> {
    match stream {
        "instruction" => Some((
            "grammar.worker_busy_ns.instruction",
            "grammar.batches.instruction",
            "grammar.stalls.instruction",
        )),
        "group" => Some((
            "grammar.worker_busy_ns.group",
            "grammar.batches.group",
            "grammar.stalls.group",
        )),
        "object" => Some((
            "grammar.worker_busy_ns.object",
            "grammar.batches.object",
            "grammar.stalls.object",
        )),
        "offset" => Some((
            "grammar.worker_busy_ns.offset",
            "grammar.batches.offset",
            "grammar.stalls.offset",
        )),
        _ => None,
    }
}

impl GrammarPipelineStats {
    /// Publishes the pipeline's totals (`grammar.*`) onto `rec`. Call
    /// at a phase boundary, after join.
    pub fn record_metrics(&self, rec: &mut dyn Recorder) {
        rec.counter("grammar.workers", self.workers);
        for s in &self.streams {
            if let Some((busy, batches, stalls)) = stream_counter_names(s.stream) {
                rec.span(busy, s.busy_ns);
                rec.counter(batches, s.batches);
                rec.counter(stalls, s.stalls);
            }
        }
    }
}

/// What a grammar worker hands back at shutdown: each stream it owned,
/// with the grammar state and the time spent growing it.
#[derive(Debug)]
struct WorkerStream {
    stream: u8,
    seq: Sequitur,
    busy_ns: u64,
}

/// The serialized grammars a worker hands back for a snapshot request,
/// one `(stream, Sequitur state)` pair per stream it owns.
type SnapshotReply = io::Result<Vec<(u8, Vec<u8>)>>;

/// The grammar lanes' control message, the checkpoint barrier:
/// serialize every owned grammar once all batches queued ahead of this
/// request have been applied.
#[derive(Debug)]
struct Snapshot(Reply<SnapshotReply>);

/// One worker's inbound lane of symbol batches, tagged by stream.
type SymbolLane = LaneSender<u64, Snapshot>;

/// A grammar worker, handing back the streams it owned.
type GrammarWorker = Worker<Vec<WorkerStream>>;

/// Ships `batch` for stream `stream`, returning an empty buffer for the
/// next one, and adds the lane's batch and stall counts to the stream's
/// `stats`. A dead worker's batch is dropped; the panic surfaces at
/// join.
fn ship(
    lane: &mut SymbolLane,
    stream: u8,
    batch: Vec<u64>,
    stats: &mut GrammarStreamStats,
) -> Vec<u64> {
    let (batches, stalls) = (lane.stats().batches, lane.stats().stalls);
    let next = lane.ship(stream, batch, |_| {});
    stats.batches += lane.stats().batches - batches;
    stats.stalls += lane.stats().stalls - stalls;
    next
}

/// The checkpoint error for a grammar worker that is gone: its grammar
/// died with its thread, so no coherent state can be written.
fn dead_worker(index: usize) -> io::Error {
    io::Error::other(format!(
        "grammar worker {index} died; its grammar state is lost"
    ))
}

/// Spawns one grammar worker owning the given `(stream, Sequitur)`
/// pairs; it drains its lane, feeds each batch to the right grammar
/// with [`Sequitur::push_batch`], answers snapshot requests in lane
/// order, and returns the streams at shutdown.
fn spawn_grammar_worker(index: usize, streams: Vec<(u8, Sequitur)>) -> (SymbolLane, GrammarWorker) {
    let name = format!("grammar worker {index}");
    lane::spawn(name, QUEUE_BATCHES, SYMBOL_BATCH, move |rx| {
        let mut streams: Vec<WorkerStream> = streams
            .into_iter()
            .map(|(stream, seq)| WorkerStream {
                stream,
                seq,
                busy_ns: 0,
            })
            .collect();
        rx.drain(|msg| match msg {
            Msg::Batch(stream, batch) => {
                let slot = streams
                    .iter_mut()
                    .find(|s| s.stream == stream)
                    .expect("batch routed to a worker that does not own its stream");
                let start = Instant::now();
                slot.seq.push_batch(batch);
                slot.busy_ns += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
            Msg::Control(Snapshot(reply)) => reply.send(
                streams
                    .iter()
                    .map(|s| {
                        let mut state = Vec::new();
                        s.seq.save_state(&mut state).map(|()| (s.stream, state))
                    })
                    .collect(),
            ),
        });
        streams
    })
}

/// Joins every grammar worker (hang up on their lanes first), reporting
/// the first panic (`grammar worker <i>`).
fn join_grammar_workers(workers: Vec<GrammarWorker>) -> Result<Vec<WorkerStream>, PipelineError> {
    let joined: Vec<_> = workers.into_iter().map(Worker::join).collect();
    let streams: Vec<Vec<WorkerStream>> = joined.into_iter().collect::<Result<_, _>>()?;
    Ok(streams.into_iter().flatten().collect())
}

/// [`WhompProfiler`] with grammar construction moved onto worker
/// threads: an [`OrSink`] whose four dimension streams feed
/// per-dimension Sequitur workers over bounded channels.
///
/// Output is byte-identical to the sequential profiler (DESIGN.md
/// §13); [`PipelinedWhomp::try_join`] hands the
/// reassembled [`WhompProfiler`] back, so finalization reuses the
/// sequential path unchanged. As a [`SessionSink`](orp_core::SessionSink)
/// it checkpoints mid-run through a barrier on every lane, writing the
/// same state bytes as [`WhompProfiler`] under the same state name, so
/// a checkpoint from either resumes on either.
///
/// # Examples
///
/// ```
/// use orp_core::{Cdc, Omc};
/// use orp_trace::{AccessEvent, AllocEvent, AllocSiteId, InstrId, ProbeSink, RawAddress};
/// use orp_whomp::PipelinedWhomp;
///
/// let mut cdc = Cdc::new(Omc::new(), PipelinedWhomp::spawn(4));
/// cdc.alloc(AllocEvent { site: AllocSiteId(0), base: RawAddress(0x100), size: 16 });
/// cdc.access(AccessEvent::load(InstrId(0), RawAddress(0x108), 8));
/// cdc.finish();
/// let (profiler, stats) = cdc.into_parts().1.try_join().unwrap();
/// assert_eq!(profiler.tuples(), 1);
/// assert_eq!(stats.streams.len(), 4);
/// ```
#[derive(Debug)]
pub struct PipelinedWhomp {
    /// Per-dimension batch under construction; all four grow in
    /// lockstep (one symbol per dimension per tuple).
    pending: [Vec<u64>; 4],
    /// Per-dimension feed totals.
    stats: [GrammarStreamStats; 4],
    /// Which lane each dimension routes to (`dim % workers`).
    route: [usize; 4],
    lanes: Vec<SymbolLane>,
    workers: Vec<GrammarWorker>,
    tuples: u64,
}

impl PipelinedWhomp {
    /// The grammar-worker count a WHOMP run uses when none is pinned:
    /// one per dimension when the host has at least two CPUs to overlap
    /// them on, and `0` — inline construction — on a one-CPU host,
    /// where worker threads would only add hand-off cost.
    #[must_use]
    pub fn default_workers() -> usize {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        if cpus >= 2 {
            DIMS.len()
        } else {
            0
        }
    }

    /// Spawns an empty pipelined profiler with `workers` grammar
    /// workers (clamped to the four dimensions; at least one).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a thread cannot be spawned.
    #[must_use]
    pub fn spawn(workers: usize) -> Self {
        Self::from_profiler(WhompProfiler::new(), workers)
    }

    /// Continues a (possibly restored) [`WhompProfiler`] on `workers`
    /// grammar workers. Dimension `d` routes to worker `d % workers`,
    /// which owns that dimension's Sequitur.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or a thread cannot be spawned.
    #[must_use]
    pub fn from_profiler(profiler: WhompProfiler, workers: usize) -> Self {
        assert!(workers > 0, "at least one grammar worker is required");
        let workers = workers.min(DIMS.len());
        let WhompProfiler {
            instr,
            group,
            object,
            offset,
            tuples,
        } = profiler;
        let mut per_worker: Vec<Vec<(u8, Sequitur)>> = (0..workers).map(|_| Vec::new()).collect();
        let mut route = [0usize; 4];
        for (dim, seq) in [instr, group, object, offset].into_iter().enumerate() {
            route[dim] = dim % workers;
            per_worker[dim % workers].push((dim as u8, seq));
        }
        let (lanes, workers) = per_worker
            .into_iter()
            .enumerate()
            .map(|(i, streams)| spawn_grammar_worker(i, streams))
            .unzip();
        PipelinedWhomp {
            pending: std::array::from_fn(|_| Vec::with_capacity(SYMBOL_BATCH)),
            stats: DIMS.map(|stream| GrammarStreamStats {
                stream,
                ..GrammarStreamStats::default()
            }),
            route,
            lanes,
            workers,
            tuples,
        }
    }

    /// Tuples consumed so far (including any restored prefix).
    #[must_use]
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Ships every non-empty pending batch to its lane — the feed half
    /// of the checkpoint barrier, and the last flush before join.
    pub(crate) fn flush(&mut self) {
        for dim in 0..4 {
            if self.pending[dim].is_empty() {
                continue;
            }
            let batch = std::mem::take(&mut self.pending[dim]);
            let lane = &mut self.lanes[self.route[dim]];
            self.pending[dim] = ship(lane, dim as u8, batch, &mut self.stats[dim]);
        }
    }

    /// Serializes the profiler state — byte-identical to
    /// [`WhompProfiler`]'s `save_state` at the same tuple — by asking
    /// every worker for its grammars behind the batches already
    /// shipped. Every lane is asked before any answer is awaited, so
    /// the workers serialize concurrently.
    ///
    /// # Errors
    ///
    /// Fails if a batch is still pending (flush first), or if a worker
    /// has died — its grammar is gone, so there is no state to write.
    pub(crate) fn write_state(&self, w: &mut impl io::Write) -> io::Result<()> {
        if self.pending.iter().any(|p| !p.is_empty()) {
            return Err(io::Error::other(
                "pipelined WHOMP state saved with batches still pending",
            ));
        }
        let replies: Vec<_> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(i, lane)| lane.request(Snapshot).ok_or_else(|| dead_worker(i)))
            .collect::<io::Result<_>>()?;
        let mut dims: [Vec<u8>; 4] = Default::default();
        for (i, reply) in replies.into_iter().enumerate() {
            for (stream, state) in reply.recv().map_err(|_| dead_worker(i))?? {
                dims[stream as usize] = state;
            }
        }
        orp_format::write_varint(w, self.tuples)?;
        for state in &dims {
            w.write_all(state)?;
        }
        Ok(())
    }

    /// Flushes remaining symbols, shuts the workers down and
    /// reassembles the sequential [`WhompProfiler`] plus the worker
    /// totals.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] naming the worker when a grammar
    /// worker panicked (see the module docs on degraded shutdown).
    pub fn try_join(mut self) -> Result<(WhompProfiler, GrammarPipelineStats), PipelineError> {
        self.flush();
        self.lanes.iter_mut().for_each(SymbolLane::hang_up);
        let streams = join_grammar_workers(std::mem::take(&mut self.workers))?;
        let mut stats = GrammarPipelineStats {
            workers: self.lanes.len() as u64,
            streams: self.stats.to_vec(),
        };
        let mut dims: [Option<Sequitur>; 4] = [None, None, None, None];
        for ws in streams {
            stats.streams[ws.stream as usize].busy_ns = ws.busy_ns;
            dims[ws.stream as usize] = Some(ws.seq);
        }
        let [Some(instr), Some(group), Some(object), Some(offset)] = dims else {
            unreachable!("every dimension has exactly one worker stream");
        };
        Ok((
            WhompProfiler {
                instr,
                group,
                object,
                offset,
                tuples: self.tuples,
            },
            stats,
        ))
    }
}

impl OrSink for PipelinedWhomp {
    fn tuple(&mut self, t: &OrTuple) {
        self.pending[0].push(u64::from(t.instr.0));
        self.pending[1].push(u64::from(t.group.0));
        self.pending[2].push(t.object.0);
        self.pending[3].push(t.offset);
        self.tuples += 1;
        for s in &mut self.stats {
            s.symbols += 1;
        }
        if self.pending[0].len() >= SYMBOL_BATCH {
            self.flush();
        }
    }

    fn finish(&mut self) {
        self.flush();
    }
}

impl Drop for PipelinedWhomp {
    fn drop(&mut self) {
        // Unblock and reap the workers if `try_join` was never called.
        self.lanes.iter_mut().for_each(SymbolLane::hang_up);
        let _ = join_grammar_workers(std::mem::take(&mut self.workers));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orp_core::lane::LANE_BUFFERS;

    /// A dead grammar worker must not take the feed side with it: the
    /// lane goes quiet (batches drop), later ships stay panic-free, and
    /// the panic surfaces at join as a named [`PipelineError`]. This is
    /// the same containment contract the sharded pipeline's salvage
    /// path provides — see the module docs for why the grammar itself
    /// is not salvageable.
    #[test]
    fn dead_worker_is_contained_and_named_at_join() {
        let (mut lane, handle) = spawn_grammar_worker(0, vec![(0, Sequitur::new())]);
        let mut stats = GrammarStreamStats::default();

        // Stream 7 is not owned by this worker: the routing `expect`
        // inside the worker loop panics it.
        ship(&mut lane, 7, vec![1, 2, 3], &mut stats);

        // The feed side keeps shipping into the dying lane without
        // panicking or deadlocking; once the hangup is observed the
        // lane is marked dead and batches are dropped.
        for _ in 0..64 {
            ship(&mut lane, 0, vec![4, 5], &mut stats);
        }

        lane.hang_up();
        let err = join_grammar_workers(vec![handle]).expect_err("worker panicked");
        assert_eq!(err.worker, "grammar worker 0");
        assert!(
            err.message.contains("does not own its stream"),
            "panic payload lost: {}",
            err.message
        );
    }

    /// Healthy path through the raw worker primitives: everything
    /// shipped arrives, buffers recycle, and join returns the grammar.
    #[test]
    fn worker_builds_the_same_grammar_as_inline_push() {
        let symbols: Vec<u64> = (0..200u64).map(|i| i % 7).collect();
        let mut reference = Sequitur::new();
        reference.push_batch(&symbols);

        let (mut lane, handle) = spawn_grammar_worker(0, vec![(3, Sequitur::new())]);
        let mut stats = GrammarStreamStats::default();
        let mut buf = Vec::new();
        for chunk in symbols.chunks(9) {
            buf.clear();
            buf.extend_from_slice(chunk);
            buf = ship(&mut lane, 3, std::mem::take(&mut buf), &mut stats);
        }
        lane.hang_up();
        let streams = join_grammar_workers(vec![handle]).expect("healthy worker");
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].stream, 3);
        assert_eq!(stats.batches, symbols.chunks(9).len() as u64);

        let mut got = Vec::new();
        streams[0].seq.save_state(&mut got).unwrap();
        let mut want = Vec::new();
        reference.save_state(&mut want).unwrap();
        assert_eq!(got, want);
    }

    /// A tuple stream with little repetition, so Sequitur works hard
    /// per symbol and the feed side keeps running into full queues.
    fn churning_tuples(n: u64) -> Vec<OrTuple> {
        (0..n)
            .map(|t| {
                let mixed = t.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
                OrTuple {
                    instr: orp_trace::InstrId((mixed % 61) as u32),
                    kind: orp_trace::AccessKind::Load,
                    group: orp_core::GroupId((mixed % 5) as u32),
                    object: orp_core::ObjectSerial(mixed % 997),
                    offset: (mixed % 89) * 8,
                    time: orp_core::Timestamp(t),
                    size: 8,
                }
            })
            .collect()
    }

    /// The in-flight memory bound (module docs, "In-flight memory"): a
    /// lane's live buffers — queued, recycled, inside the worker and
    /// pending — never exceed [`LANE_BUFFERS`], plus one pending buffer
    /// per further stream the lane serves. Recycling never drops a
    /// buffer, so the buffers a lane ever allocated are its peak live
    /// set. The byte budget is pinned here on purpose: a bigger batch or
    /// a deeper queue must come with new measurements (DESIGN.md §13),
    /// not only with higher RSS.
    #[test]
    fn lane_buffers_stay_within_the_documented_budget() {
        assert_eq!(
            LANE_BUFFERS * SYMBOL_BATCH * std::mem::size_of::<u64>(),
            64 * 1024,
            "per-dimension in-flight budget changed"
        );
        let tuples = churning_tuples(24 * SYMBOL_BATCH as u64 + 77);
        for workers in 1..=4 {
            let mut pipe = PipelinedWhomp::spawn(workers);
            for (i, t) in tuples.iter().enumerate() {
                pipe.tuple(t);
                if i == tuples.len() / 2 {
                    // A checkpoint barrier mid-stream ships partial
                    // batches; it must not grow the live set either.
                    pipe.flush();
                    pipe.write_state(&mut Vec::new()).expect("healthy workers");
                }
            }
            pipe.finish();
            for (lane, l) in pipe.lanes.iter().enumerate() {
                let streams = pipe.route.iter().filter(|&&r| r == lane).count();
                let live = streams + l.stats().allocated as usize;
                assert!(
                    live < LANE_BUFFERS + streams,
                    "{workers} workers, lane {lane}: {live} buffers for {streams} streams"
                );
            }
            pipe.try_join().expect("healthy workers");
        }
    }

    /// A checkpoint after a grammar worker died must fail with an
    /// `io::Error` naming the worker — promptly, not by waiting forever
    /// on an answer the dead worker will never send.
    #[test]
    fn checkpoint_with_a_dead_worker_fails_instead_of_hanging() {
        use orp_core::{Cdc, Omc, Session};

        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let driver = std::thread::spawn(move || {
            let mut pipe = PipelinedWhomp::spawn(4);
            for t in &churning_tuples(3 * SYMBOL_BATCH as u64) {
                pipe.tuple(t);
            }
            // Stream 9 belongs to no worker: lane 2's worker panics on it.
            let poison = ship(
                &mut pipe.lanes[2],
                9,
                vec![1],
                &mut GrammarStreamStats::default(),
            );
            drop(poison);
            let mut session = Session::from_cdc(Cdc::new(Omc::new(), pipe));
            let mut first = Vec::new();
            let first = session.checkpoint(&mut first).map_err(|e| e.to_string());
            // A second attempt finds the lane already marked dead.
            let second = session
                .checkpoint(&mut Vec::new())
                .map_err(|e| e.to_string());
            let joined = session.into_cdc().into_parts().1.try_join().map(|_| ());
            let _ = done_tx.send((first, second, joined));
        });
        let (first, second, joined) = done_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("checkpoint with a dead grammar worker hung");
        driver.join().expect("driver thread finished");
        for attempt in [first, second] {
            let err = attempt.expect_err("checkpoint must fail");
            assert!(err.contains("grammar worker 2"), "{err}");
        }
        let err = joined.expect_err("the panic surfaces at join");
        assert_eq!(err.worker, "grammar worker 2");
    }
}
