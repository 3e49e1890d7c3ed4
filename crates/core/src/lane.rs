//! Bounded lanes: the one thread-to-thread hand-off of every pipeline.
//!
//! The paper's CDC/OMC talk to the profiled program "via
//! thread-to-thread communication" (§3.1). Every such hand-off here — the
//! sharded collector's probe and tuple lanes, `orp-whomp`'s grammar
//! lanes, `orpd`'s per-tenant credit window — is a *lane*: a bounded
//! queue of batches from one feeding thread to one worker thread, with
//! stalls counted, spent buffers recycled, a dead worker latched, control
//! messages ordered behind batches, and a worker panic joined as a
//! [`PipelineError`] (DESIGN.md §8, "Bounded lanes").
//!
//! **Budget.** [`LaneSender::ship`] sends first and only then takes a
//! buffer the worker parked on a return channel `depth + 2` deep,
//! allocating only when none is parked. So an allocation happens only
//! when the feed side holds none of the lane's buffers and none is
//! parked, and a lane fed from one pending batch never holds more than
//! `depth + 2` buffers: `depth` queued, one in the worker, one pending.
//! Each further stream batched onto a lane adds its pending buffer.
//!
//! Channels and threads come from the crate's `sync` facade, so the loom
//! build model-checks every lane (DESIGN.md §10).

use crate::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use crate::sync::thread::{self, JoinHandle};

/// Queue depth, in batches, of every collection and grammar lane: two
/// batches cover a worker's scheduling jitter (depth 1 lost ~5% of the
/// WHOMP replay's throughput); deeper queues only hold more memory —
/// depth 32 with 8192-symbol batches nearly doubled its peak RSS
/// (DESIGN.md "Bounded lanes" and §13). Batch sizes stay per caller.
#[cfg(not(loom))]
pub const QUEUE_BATCHES: usize = 2;
/// Model-checking build: depth 1 makes back-pressure (a full queue
/// blocking the sender) reachable within a few items.
#[cfg(loom)]
pub const QUEUE_BATCHES: usize = 1;

/// The most buffers a lane fed from one pending batch ever holds:
/// [`QUEUE_BATCHES`] queued, one inside the worker, one pending on the
/// feed side (see "Budget" above). Written out rather than derived, so
/// that raising the depth fails the callers' lane-budget tests instead
/// of showing up only as RSS.
pub const LANE_BUFFERS: usize = 4;
const _: () = assert!(QUEUE_BATCHES + 2 <= LANE_BUFFERS);

/// A worker thread of a pipeline died by panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError {
    /// Which thread died: `"translator"` or `"shard 3"` in the sharded
    /// collector, `"grammar worker 1"` in `orp-whomp`'s grammar lanes.
    pub worker: String,
    /// The panic payload, if it was a string.
    pub message: String,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "collection pipeline {} panicked: {}",
            self.worker, self.message
        )
    }
}

impl std::error::Error for PipelineError {}

/// Renders a panic payload as text (panics carry `&str` or `String`
/// payloads in practice).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    text.or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
        .to_owned()
}

/// What travels down a lane.
enum Wire<T, C> {
    Batch(u8, Vec<T>),
    Control(C),
}

/// What a worker is handed, in lane order.
#[derive(Debug)]
pub enum Msg<'a, T, C> {
    /// A batch for one of the lane's streams (lanes carrying a single
    /// stream always ship stream `0`).
    Batch(u8, &'a [T]),
    /// A control message, queued behind every earlier batch.
    Control(C),
}

/// A lane's feed-side totals, bumped on the sending thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LaneStats {
    /// Batches delivered onto the queue.
    pub batches: u64,
    /// Sends that found the queue full and had to block (the feed side
    /// out-ran the worker).
    pub stalls: u64,
    /// Buffers [`LaneSender::ship`] allocated because none was parked;
    /// plus the feed side's first buffer, the most the lane ever held.
    pub allocated: u64,
}

/// The feeding end of a lane.
#[derive(Debug)]
pub struct LaneSender<T, C> {
    /// `None` once the worker hung up (the latch) or the feed side did.
    tx: Option<SyncSender<Wire<T, C>>>,
    recycled: Receiver<Vec<T>>,
    /// Capacity of a freshly allocated buffer.
    batch: usize,
    stats: LaneStats,
}

impl<T, C> LaneSender<T, C> {
    /// Ships `batch` for `stream` and returns an empty buffer for the
    /// next one. When the worker is gone, the batch goes to `lost`
    /// instead (to salvage, or to ignore) and comes back emptied; the
    /// worker's panic surfaces at [`Worker::join`].
    pub fn ship(&mut self, stream: u8, batch: Vec<T>, lost: impl FnOnce(&[T])) -> Vec<T> {
        let msg = Wire::Batch(stream, batch);
        let sent = match &self.tx {
            None => Err(msg),
            Some(tx) => match tx.try_send(msg) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(msg)) => {
                    self.stats.stalls += 1;
                    tx.send(msg).map_err(|mpsc::SendError(msg)| msg)
                }
                Err(TrySendError::Disconnected(msg)) => Err(msg),
            },
        };
        // An error hands back the message sent above: this batch.
        if let Err(Wire::Batch(_, mut batch)) = sent {
            self.tx = None;
            lost(&batch);
            batch.clear();
            return batch;
        }
        self.stats.batches += 1;
        self.recycled.try_recv().unwrap_or_else(|_| {
            self.stats.allocated += 1;
            Vec::with_capacity(self.batch)
        })
    }

    /// Queues `msg` behind every batch already shipped, blocking while
    /// the queue is full. Returns `false` when the worker is gone.
    pub fn control(&self, msg: C) -> bool {
        self.tx
            .as_ref()
            .is_some_and(|tx| tx.send(Wire::Control(msg)).is_ok())
    }

    /// Queues the control message `make` builds around a reply slot,
    /// behind every batch already shipped, and returns the channel the
    /// worker answers on; `None` when the worker is gone. Ask several
    /// lanes before awaiting any answer and their workers reply
    /// concurrently.
    pub fn request<R>(&self, make: impl FnOnce(Reply<R>) -> C) -> Option<Receiver<R>> {
        let (tx, rx) = mpsc::sync_channel(1);
        self.control(make(Reply(tx))).then_some(rx)
    }

    /// The lane's feed-side totals so far.
    #[must_use]
    pub fn stats(&self) -> LaneStats {
        self.stats
    }

    /// Hangs up: the worker applies what is queued, then returns.
    pub fn hang_up(&mut self) {
        self.tx = None;
    }
}

/// The slot a worker answers a [`LaneSender::request`] on.
#[derive(Debug)]
pub struct Reply<R>(SyncSender<R>);

impl<R> Reply<R> {
    /// Answers the request; a requester that stopped waiting is no error.
    pub fn send(self, value: R) {
        let _ = self.0.send(value);
    }
}

/// The worker's end of a lane.
pub struct LaneReceiver<T, C> {
    rx: Receiver<Wire<T, C>>,
    recycle: SyncSender<Vec<T>>,
}

impl<T, C> LaneReceiver<T, C> {
    /// Hands every message to `apply` in lane order until the feed side
    /// hangs up, parking each batch's buffer for reuse once `apply` is
    /// done with it.
    pub fn drain(self, mut apply: impl FnMut(Msg<'_, T, C>)) {
        while let Ok(wire) = self.rx.recv() {
            match wire {
                Wire::Batch(stream, mut batch) => {
                    apply(Msg::Batch(stream, &batch));
                    batch.clear();
                    let _ = self.recycle.try_send(batch);
                }
                Wire::Control(msg) => apply(Msg::Control(msg)),
            }
        }
    }
}

/// A running lane worker, joined by name.
#[derive(Debug)]
pub struct Worker<R> {
    name: String,
    handle: JoinHandle<R>,
}

impl<R> Worker<R> {
    /// Waits for the worker to return.
    ///
    /// # Errors
    ///
    /// A [`PipelineError`] naming the worker when it panicked.
    pub fn join(self) -> Result<R, PipelineError> {
        self.handle.join().map_err(|payload| PipelineError {
            worker: self.name,
            message: panic_message(payload),
        })
    }
}

/// Whether the host has at least two CPUs to overlap worker threads on.
/// Every engine the host picks — grammar workers, collection lanes —
/// asks this one probe; on a one-CPU host a worker thread only adds
/// hand-off cost, so engines stay inline there.
#[must_use]
pub fn multi_cpu() -> bool {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) >= 2
}

/// Spawns the worker `name` behind a lane `depth` batches deep, whose
/// feed side allocates buffers of `batch` items. `work` receives the
/// worker's end and returns the worker's result once it drained the
/// lane.
///
/// # Panics
///
/// Panics if `depth` is zero or the thread cannot be spawned.
pub fn spawn<T, C, R>(
    name: impl Into<String>,
    depth: usize,
    batch: usize,
    work: impl FnOnce(LaneReceiver<T, C>) -> R + Send + 'static,
) -> (LaneSender<T, C>, Worker<R>)
where
    T: Send + 'static,
    C: Send + 'static,
    R: Send + 'static,
{
    assert!(depth > 0, "a lane queues at least one batch");
    let name = name.into();
    let (tx, rx) = mpsc::sync_channel(depth);
    let (recycle, recycled) = mpsc::sync_channel(depth + 2);
    let handle = thread::Builder::new()
        .name(format!("orp-{}", name.replace(' ', "-")))
        .spawn(move || work(LaneReceiver { rx, recycle }))
        .expect("spawn lane worker");
    let sender = LaneSender {
        tx: Some(tx),
        recycled,
        batch,
        stats: LaneStats::default(),
    };
    (sender, Worker { name, handle })
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    /// Spawns a worker that sums every batch of one stream and answers
    /// each request with the running sum.
    fn summer(depth: usize) -> (LaneSender<u64, Reply<u64>>, Worker<u64>) {
        spawn("summer", depth, 4, |rx: LaneReceiver<u64, Reply<u64>>| {
            let mut sum = 0;
            rx.drain(|msg| match msg {
                Msg::Batch(_, batch) => sum += batch.iter().sum::<u64>(),
                Msg::Control(reply) => reply.send(sum),
            });
            sum
        })
    }

    fn unexpected(_: &[u64]) {
        panic!("the worker is alive");
    }

    #[test]
    fn control_messages_queue_behind_batches() {
        let (mut lane, worker) = summer(1);
        let mut buf = lane.ship(0, vec![1, 2, 3], unexpected);
        buf.extend([4, 5]);
        let _ = lane.ship(0, buf, unexpected);
        let answer = lane.request(|reply| reply).expect("worker alive");
        assert_eq!(answer.recv().unwrap(), 15, "the barrier saw both batches");
        lane.hang_up();
        assert_eq!(worker.join().unwrap(), 15);
        assert_eq!(lane.stats().batches, 2);
    }

    #[test]
    fn a_dead_worker_latches_the_lane_and_hands_batches_back() {
        let (mut lane, worker) = spawn("grenade", 1, 4, |rx| {
            rx.drain(|_: Msg<'_, u64, ()>| panic!("worker exploded"));
        });
        let mut undelivered = None;
        for i in 0..64 {
            let _ = lane.ship(0, vec![i], |lost| undelivered = Some(lost.to_vec()));
            if undelivered.is_some() {
                break;
            }
        }
        let first = undelivered.take().expect("the hangup must be observed");
        assert_eq!(first.len(), 1, "handed back whole");
        let next = lane.ship(0, vec![7, 8], |lost| undelivered = Some(lost.to_vec()));
        assert_eq!(undelivered, Some(vec![7, 8]), "latched dead");
        assert!(
            next.is_empty() && next.capacity() >= 2,
            "returned for reuse"
        );
        assert!(!lane.control(()));
        let err = worker.join().expect_err("the worker panicked");
        assert_eq!(err.worker, "grenade");
        assert_eq!(err.message, "worker exploded");
    }
}
