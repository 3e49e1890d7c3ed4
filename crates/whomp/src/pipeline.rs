//! Parallel pipelined grammar construction.
//!
//! `BENCH_throughput.json` put raw collection near 29 MEPS while every
//! grammar-backed mode sat at ~0.44 MEPS: single-threaded Sequitur
//! construction was the wall, and sharding the *collection* side could
//! not move it. This module parallelizes the grammar stage itself,
//! exploiting the decomposition structure the paper already gives us:
//!
//! * WHOMP's OMSG keeps one **independent** Sequitur per horizontal
//!   dimension (instruction/group/object/offset) — four embarrassingly
//!   parallel consumers ([`PipelinedWhomp`]);
//! * RASG keeps a single record grammar, which still overlaps with the
//!   probe side when moved off-thread ([`PipelinedRasg`]).
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
//! batches over **bounded** channels (back-pressure, not unbounded
//! memory), recycling spent buffers through return channels exactly
//! like [`orp_core::sharded`]. A stream's symbols reach exactly one
//! worker, in collection order, whatever the batch size — so batch
//! boundaries and thread scheduling are unobservable in the output.
//!
//! # In-flight memory
//!
//! A lane's buffers are the ones queued (at most [`QUEUE_BATCHES`]),
//! the one its worker is applying, and one pending batch per stream
//! routed to it; a recycled buffer is one of those parked on the
//! return channel, and a fresh one is allocated only when that channel
//! is empty *after* a send. So a one-stream lane never holds more than
//! [`LANE_BUFFERS`] buffers of [`SYMBOL_BATCH`] symbols: 4 × 2048 × 8 B
//! = 64 KiB per dimension, 256 KiB for the four WHOMP lanes (DESIGN.md
//! §13 has the measurements behind the constants).
//!
//! # Checkpoint barrier
//!
//! [`PipelinedWhomp`] is a [`SessionSink`](orp_core::SessionSink):
//! `quiesce` flushes the pending batches, then `save_state` sends each
//! lane a snapshot request *behind* those batches. A worker answers
//! only after applying everything queued before the request, so the
//! serialized grammars are exactly the sequential profiler's at the
//! same tuple — the checkpoint bytes are identical to
//! [`WhompProfiler`]'s.
//!
//! # Determinism argument
//!
//! Sequitur is a deterministic function of its input stream. Each
//! dimension's stream arrives at one worker complete and in order, so
//! every per-dimension grammar — and therefore the OMSG/RASG
//! container bytes — is byte-identical to sequential construction.
//! The differential tests and golden fixtures pin this down.
//!
//! # Degraded shutdown
//!
//! A grammar worker's death cannot be salvaged the way a dead *shard*
//! lane can (PR 5): the in-progress grammar state dies with the
//! worker's thread, and a replacement could not re-derive it without
//! the already-consumed prefix. The pipeline therefore reuses the
//! salvage path's *containment* contract instead: the feed side keeps
//! accepting (and dropping) symbols after a worker dies — no deadlock,
//! no cascading panic mid-collection — and the failure surfaces as a
//! [`PipelineError`] naming the worker at join, as a dead shard lane
//! does in [`ShardedCdc::join`](orp_core::ShardedCdc::join). A
//! checkpoint taken after the death fails with an [`io::Error`] instead
//! of writing a grammar with a hole in it.

use std::io;
use std::time::Instant;

use orp_core::sharded::panic_message;
use orp_core::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use orp_core::sync::thread::{self, JoinHandle};
use orp_core::{OrSink, OrTuple, PipelineError};
use orp_obs::Recorder;
use orp_sequitur::Sequitur;
use orp_trace::{AccessEvent, ProbeSink};

use crate::{fuse, RasgProfiler, WhompProfiler};

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

/// Bounded queue depth, in batches, of every grammar-worker channel.
/// Two batches cover a worker's scheduling jitter (depth 1 lost ~5%
/// throughput); deeper queues only hold more memory — depth 32 with
/// 8192-symbol batches nearly doubled the replay's peak RSS.
#[cfg(not(loom))]
const QUEUE_BATCHES: usize = 2;
/// Model-checking build: depth 1 makes back-pressure reachable.
#[cfg(loom)]
const QUEUE_BATCHES: usize = 1;

/// The most buffers a lane serving one stream ever holds: the
/// [`QUEUE_BATCHES`] queued, one inside the worker, one pending on the
/// feed side (each further stream on the lane adds its pending buffer).
/// Written out rather than derived, so that raising the queue depth
/// fails the lane-budget test instead of showing up only as RSS.
#[cfg(not(loom))]
const LANE_BUFFERS: usize = 4;
#[cfg(loom)]
const LANE_BUFFERS: usize = QUEUE_BATCHES + 2;
const _: () = assert!(QUEUE_BATCHES + 2 <= LANE_BUFFERS);

/// The OMSG dimension names, in stream order.
pub(crate) const DIMS: [&str; 4] = ["instruction", "group", "object", "offset"];

/// One symbol stream's feed-side totals, counted on the collection
/// thread; plain integers bumped inline, published only at join.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GrammarStreamStats {
    /// Stream name: an OMSG dimension or `"records"` (RASG).
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
        "records" => Some((
            "grammar.worker_busy_ns.records",
            "grammar.batches.records",
            "grammar.stalls.records",
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

    /// Total worker-busy nanoseconds across all streams.
    #[must_use]
    pub fn total_busy_ns(&self) -> u64 {
        self.streams.iter().map(|s| s.busy_ns).sum()
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

/// What travels down a grammar lane.
#[derive(Debug)]
enum LaneMsg {
    /// Symbols for one stream, in collection order.
    Batch(u8, Vec<u64>),
    /// The checkpoint barrier: serialize every owned grammar once all
    /// batches queued ahead of this request have been applied.
    Snapshot(SyncSender<SnapshotReply>),
}

/// Sends `msg` on a bounded lane, counting it in `batches` — or in
/// `stalls` too when the queue was full and the send had to block
/// (collection out-ran grammar construction). A hung-up worker clears
/// `tx`; the message is dropped and the panic surfaces at join.
fn send_counted<T>(tx: &mut Option<SyncSender<T>>, msg: T, batches: &mut u64, stalls: &mut u64) {
    let Some(sender) = tx else {
        return;
    };
    // Non-blocking first, so a full queue is observable as a stall
    // before the blocking send parks this thread.
    let delivered = match sender.try_send(msg) {
        Ok(()) => true,
        Err(TrySendError::Full(msg)) => {
            *stalls += 1;
            sender.send(msg).is_ok()
        }
        Err(TrySendError::Disconnected(_)) => false,
    };
    if delivered {
        *batches += 1;
    } else {
        *tx = None;
    }
}

/// The replacement buffer after a send: a recycled one when the return
/// channel has any, else a fresh allocation counted in `allocated`.
/// Called only *after* the send, so a full queue has already been
/// waited out and the lane holds at most [`LANE_BUFFERS`] buffers.
fn recycle_or_alloc<T>(recycled: &Receiver<Vec<T>>, allocated: &mut usize) -> Vec<T> {
    recycled.try_recv().unwrap_or_else(|_| {
        *allocated += 1;
        Vec::with_capacity(SYMBOL_BATCH)
    })
}

/// One worker's inbound lane: its message channel (`None` once the
/// worker hung up), the buffer-recycling return channel, and how many
/// buffers the lane has allocated.
#[derive(Debug)]
struct SymbolLane {
    tx: Option<SyncSender<LaneMsg>>,
    recycled: Receiver<Vec<u64>>,
    allocated: usize,
}

impl SymbolLane {
    /// Ships `batch` for stream `stream`, returning an empty buffer for
    /// the next one. Stall and batch totals land in `stats`; a dead
    /// worker marks the lane and the batch is dropped — the panic
    /// surfaces at join.
    fn ship(&mut self, stream: u8, batch: Vec<u64>, stats: &mut GrammarStreamStats) -> Vec<u64> {
        let msg = LaneMsg::Batch(stream, batch);
        send_counted(&mut self.tx, msg, &mut stats.batches, &mut stats.stalls);
        recycle_or_alloc(&self.recycled, &mut self.allocated)
    }

    /// Queues a snapshot request behind every batch already shipped,
    /// returning the channel the worker will answer on.
    fn request_snapshot(&self, index: usize) -> io::Result<Receiver<SnapshotReply>> {
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let sent = self
            .tx
            .as_ref()
            .is_some_and(|tx| tx.send(LaneMsg::Snapshot(reply_tx)).is_ok());
        if sent {
            Ok(reply_rx)
        } else {
            Err(dead_worker(index))
        }
    }
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
fn spawn_grammar_worker(
    index: usize,
    streams: Vec<(u8, Sequitur)>,
) -> (SymbolLane, JoinHandle<Vec<WorkerStream>>) {
    let (tx, rx) = mpsc::sync_channel::<LaneMsg>(QUEUE_BATCHES);
    // Mid-ship the feed side holds no buffer for the stream it is
    // shipping, so all of that stream's buffers but the worker's own can
    // be parked here: two slots more than the queue, and recycling never
    // drops (and later reallocates) one.
    let (recycle_tx, recycle_rx) = mpsc::sync_channel::<Vec<u64>>(QUEUE_BATCHES + 2);
    let handle = thread::Builder::new()
        .name(format!("orp-grammar-{index}"))
        .spawn(move || {
            let mut streams: Vec<WorkerStream> = streams
                .into_iter()
                .map(|(stream, seq)| WorkerStream {
                    stream,
                    seq,
                    busy_ns: 0,
                })
                .collect();
            while let Ok(msg) = rx.recv() {
                match msg {
                    LaneMsg::Batch(stream, batch) => {
                        let slot = streams
                            .iter_mut()
                            .find(|s| s.stream == stream)
                            .expect("batch routed to a worker that does not own its stream");
                        let start = Instant::now();
                        slot.seq.push_batch(&batch);
                        slot.busy_ns +=
                            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        let mut spent = batch;
                        spent.clear();
                        let _ = recycle_tx.try_send(spent);
                    }
                    LaneMsg::Snapshot(reply) => {
                        let states = streams
                            .iter()
                            .map(|s| {
                                let mut state = Vec::new();
                                s.seq.save_state(&mut state).map(|()| (s.stream, state))
                            })
                            .collect();
                        let _ = reply.send(states);
                    }
                }
            }
            streams
        })
        .expect("spawn grammar worker");
    (
        SymbolLane {
            tx: Some(tx),
            recycled: recycle_rx,
            allocated: 0,
        },
        handle,
    )
}

/// Joins grammar workers, reporting the first panic as a
/// [`PipelineError`] named `grammar worker <i>`.
fn join_grammar_workers(
    workers: Vec<JoinHandle<Vec<WorkerStream>>>,
) -> Result<Vec<WorkerStream>, PipelineError> {
    let mut streams = Vec::new();
    let mut first_error: Option<PipelineError> = None;
    for (i, handle) in workers.into_iter().enumerate() {
        match handle.join() {
            Ok(mut s) => streams.append(&mut s),
            Err(payload) => {
                let err = PipelineError {
                    worker: format!("grammar worker {i}"),
                    message: panic_message(payload),
                };
                first_error.get_or_insert(err);
            }
        }
    }
    match first_error {
        Some(err) => Err(err),
        None => Ok(streams),
    }
}

/// [`WhompProfiler`] with grammar construction moved onto worker
/// threads: an [`OrSink`] whose four dimension streams feed
/// per-dimension Sequitur workers over bounded channels.
///
/// Output is byte-identical to the sequential profiler (see the
/// [module docs](self)); [`PipelinedWhomp::try_join`] hands the
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
    workers: Vec<JoinHandle<Vec<WorkerStream>>>,
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
        let mut lanes = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for (i, streams) in per_worker.into_iter().enumerate() {
            let (lane, handle) = spawn_grammar_worker(i, streams);
            lanes.push(lane);
            handles.push(handle);
        }
        let mut stats = [GrammarStreamStats::default(); 4];
        for (dim, s) in stats.iter_mut().enumerate() {
            s.stream = DIMS[dim];
        }
        PipelinedWhomp {
            pending: std::array::from_fn(|_| Vec::with_capacity(SYMBOL_BATCH)),
            stats,
            route,
            lanes,
            workers: handles,
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
            self.pending[dim] =
                self.lanes[self.route[dim]].ship(dim as u8, batch, &mut self.stats[dim]);
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
            .map(|(i, lane)| lane.request_snapshot(i))
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
        for lane in &mut self.lanes {
            drop(lane.tx.take());
        }
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
        for lane in &mut self.lanes {
            drop(lane.tx.take());
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// [`RasgProfiler`] with grammar construction moved onto one worker
/// thread, overlapping record-grammar growth with the probe side.
///
/// Implements [`ProbeSink`] directly, like the sequential RASG
/// baseline — no object translation is involved.
#[derive(Debug)]
pub struct PipelinedRasg {
    pending: Vec<u64>,
    stats: GrammarStreamStats,
    lane: SymbolLane,
    worker: Option<JoinHandle<Vec<WorkerStream>>>,
    accesses: u64,
}

impl PipelinedRasg {
    /// Spawns an empty pipelined RASG profiler (always one worker —
    /// there is a single record stream).
    ///
    /// # Panics
    ///
    /// Panics if the worker thread cannot be spawned.
    #[must_use]
    pub fn spawn() -> Self {
        let (lane, handle) = spawn_grammar_worker(0, vec![(0, Sequitur::new())]);
        PipelinedRasg {
            pending: Vec::with_capacity(SYMBOL_BATCH),
            stats: GrammarStreamStats {
                stream: "records",
                ..GrammarStreamStats::default()
            },
            lane,
            worker: Some(handle),
            accesses: 0,
        }
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending);
        self.pending = self.lane.ship(0, batch, &mut self.stats);
    }

    /// Flushes remaining records, shuts the worker down and returns
    /// the sequential [`RasgProfiler`] plus the worker totals.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when the grammar worker panicked.
    pub fn try_join(mut self) -> Result<(RasgProfiler, GrammarPipelineStats), PipelineError> {
        self.flush();
        drop(self.lane.tx.take());
        let mut streams = join_grammar_workers(self.worker.take().into_iter().collect())?;
        let ws = streams.pop().expect("the RASG worker owns one stream");
        let mut stats = self.stats;
        stats.busy_ns = ws.busy_ns;
        Ok((
            RasgProfiler {
                records: ws.seq,
                accesses: self.accesses,
            },
            GrammarPipelineStats {
                workers: 1,
                streams: vec![stats],
            },
        ))
    }
}

impl ProbeSink for PipelinedRasg {
    fn access(&mut self, ev: AccessEvent) {
        self.pending.push(fuse(ev.instr.0, ev.addr.0));
        self.accesses += 1;
        self.stats.symbols += 1;
        if self.pending.len() >= SYMBOL_BATCH {
            self.flush();
        }
    }

    fn finish(&mut self) {
        self.flush();
    }
}

impl Drop for PipelinedRasg {
    fn drop(&mut self) {
        drop(self.lane.tx.take());
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dead grammar worker must not take the feed side with it: the
    /// lane goes quiet (batches drop), later ships stay panic-free, and
    /// the panic surfaces at join as a named [`PipelineError`]. This is
    /// the same containment contract the sharded pipeline's salvage
    /// path provides — see the module docs for why the grammar itself
    /// is not salvageable.
    #[test]
    fn dead_worker_is_contained_and_named_at_join() {
        let (mut lane, handle) = spawn_grammar_worker(0, vec![(0, Sequitur::new())]);
        let mut stats = GrammarStreamStats {
            stream: "records",
            ..GrammarStreamStats::default()
        };

        // Stream 7 is not owned by this worker: the routing `expect`
        // inside the worker loop panics it.
        lane.ship(7, vec![1, 2, 3], &mut stats);

        // The feed side keeps shipping into the dying lane without
        // panicking or deadlocking; once the hangup is observed the
        // lane is marked dead and batches are dropped.
        for _ in 0..64 {
            lane.ship(0, vec![4, 5], &mut stats);
        }

        drop(lane.tx.take());
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
        let mut stats = GrammarStreamStats {
            stream: "records",
            ..GrammarStreamStats::default()
        };
        let mut buf = Vec::new();
        for chunk in symbols.chunks(9) {
            buf.clear();
            buf.extend_from_slice(chunk);
            buf = lane.ship(3, std::mem::take(&mut buf), &mut stats);
        }
        drop(lane.tx.take());
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
                let live = streams + l.allocated;
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
            let poison = pipe.lanes[2].ship(9, vec![1], &mut GrammarStreamStats::default());
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
