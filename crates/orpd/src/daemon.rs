//! The daemon: accept loop, per-connection readers, per-tenant workers.
//!
//! Thread shape: one accept thread; per connection, a reader thread
//! (the connection handler) and a worker thread joined by an
//! [`orp_core::lane`] whose depth *is* the tenant's credit window. The
//! reader decodes each frame into a buffer the worker recycled, so a
//! steady stream allocates nothing per frame. The reader never profiles
//! and the worker never touches the socket, so a wedged or dying worker
//! cannot corrupt the wire protocol, and a slow wire cannot stall
//! profiling of other tenants.

use std::collections::BTreeSet;
use std::io::{self, BufReader, Write};
use std::os::unix::fs::{FileTypeExt, MetadataExt};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use orp_core::lane::{self, LaneReceiver, Msg};
use orp_core::Session;
use orp_format::{write_varint, AtomicFile, ContainerReader, FormatError, Hello};
use orp_leap::LeapProfiler;
use orp_obs::Stopwatch;
use orp_trace::{next_frame, ProbeEvent, VecSink, MAX_FRAME_BYTES};

use crate::stats::OrpdStats;
use crate::{DONE_CLEAN, DONE_DEGRADED, FRAME_EVENTS, STATUS_BUSY, STATUS_OK, STATUS_SHUTDOWN};

/// How a daemon instance behaves: where it listens, where tenant
/// artifacts live, and how aggressively it checkpoints.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path to listen on. A stale socket (one nobody
    /// listens on) is replaced; any other existing path is refused.
    pub socket: PathBuf,
    /// Directory for per-tenant artifacts: `<dir>/<tenant>.orp` holds
    /// the tenant's latest checkpoint while streaming and its final
    /// profile after a clean finish.
    pub dir: PathBuf,
    /// Write a durable checkpoint every this many events per tenant
    /// (0 disables periodic checkpoints; a disconnect still persists
    /// one).
    pub checkpoint_events: u64,
    /// Frames a tenant may hold in flight — the depth of the lane
    /// between its reader and worker, and the credit window
    /// granted at handshake. Bounds per-tenant daemon memory at
    /// roughly `credit_frames x FRAME_EVENTS` decoded events.
    pub credit_frames: usize,
    /// Test hook: the named tenant's worker panics on its second
    /// frame, exercising the salvage path.
    #[doc(hidden)]
    pub poison_tenant: Option<String>,
}

impl DaemonConfig {
    /// A config with production defaults: checkpoint every 64Ki events,
    /// credit window of 8 frames.
    #[must_use]
    pub fn new(socket: impl Into<PathBuf>, dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            socket: socket.into(),
            dir: dir.into(),
            checkpoint_events: 1 << 16,
            credit_frames: 8,
            poison_tenant: None,
        }
    }
}

/// Everything the connection threads share.
struct Shared {
    config: DaemonConfig,
    stats: Arc<OrpdStats>,
    shutdown: AtomicBool,
    /// Tenants currently mid-stream; a second connection for the same
    /// tenant is refused (`STATUS_BUSY`) so two writers can never race
    /// on one profile.
    active: Mutex<BTreeSet<String>>,
    /// Handles of connection threads not yet joined. The accept loop
    /// reaps finished ones on every accept: an exited thread that is
    /// never joined keeps its stack, so without reaping daemon memory
    /// would grow with every session ever served.
    conns: Mutex<Vec<JoinHandle<()>>>,
}

/// Locks a mutex, surviving poisoning — a panicking connection thread
/// must not take the registry (and with it every future handshake)
/// down with it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A running daemon. Dropping the handle does *not* stop the daemon;
/// use [`Daemon::stop`] (or send a shutdown handshake) then
/// [`Daemon::join`].
pub struct Daemon {
    accept: JoinHandle<io::Result<()>>,
    shared: Arc<Shared>,
    /// The bound socket file's `(dev, ino)`: a clean exit unlinks the
    /// path only while it still names this daemon's own socket.
    socket_id: (u64, u64),
}

impl Daemon {
    /// Binds the socket and starts accepting connections.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` when the socket path names something other than
    /// a socket, `AddrInUse` when a daemon is listening on it; otherwise
    /// propagates socket and artifact-directory creation failures.
    pub fn start(config: DaemonConfig) -> io::Result<Daemon> {
        std::fs::create_dir_all(&config.dir)?;
        clear_stale_socket(&config.socket)?;
        let listener = UnixListener::bind(&config.socket)?;
        let socket_id = file_id(&config.socket)?;
        let shared = Arc::new(Shared {
            config,
            stats: Arc::new(OrpdStats::default()),
            shutdown: AtomicBool::new(false),
            active: Mutex::new(BTreeSet::new()),
            conns: Mutex::new(Vec::new()),
        });
        let accept = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || accept_loop(&listener, &shared)
        });
        Ok(Daemon {
            accept,
            shared,
            socket_id,
        })
    }

    /// The daemon's lifetime totals (live; atomically updated).
    #[must_use]
    pub fn stats(&self) -> &OrpdStats {
        &self.shared.stats
    }

    /// A handle to the totals that outlives [`Daemon::join`] (which
    /// consumes the daemon).
    #[must_use]
    pub fn stats_handle(&self) -> Arc<OrpdStats> {
        Arc::clone(&self.shared.stats)
    }

    /// The socket the daemon listens on.
    #[must_use]
    pub fn socket(&self) -> &Path {
        &self.shared.config.socket
    }

    /// Waits for the accept loop to exit (a shutdown handshake) and for
    /// every connection to drain, then, after a clean exit, unlinks the
    /// socket file if the path still names the one this daemon bound.
    ///
    /// # Errors
    ///
    /// Propagates an accept-loop socket failure.
    pub fn join(self) -> io::Result<()> {
        let result = match self.accept.join() {
            Ok(r) => r,
            Err(_) => Err(io::Error::other("accept thread panicked")),
        };
        // The accept loop is gone, so no handle is added any more.
        let conns = std::mem::take(&mut *lock(&self.shared.conns));
        for handle in conns {
            let _ = handle.join();
        }
        let socket = &self.shared.config.socket;
        if result.is_ok() && file_id(socket).ok() == Some(self.socket_id) {
            // Best effort: a path that vanished or was replaced in the
            // meantime is not this daemon's to remove.
            let _ = std::fs::remove_file(socket);
        }
        result
    }

    /// Sends the daemon its own shutdown handshake, then joins.
    ///
    /// # Errors
    ///
    /// As [`Daemon::join`]; a failed shutdown connection is reported
    /// before joining is attempted.
    pub fn stop(self) -> io::Result<()> {
        crate::client::shutdown_daemon(self.socket())
            .map_err(|e| io::Error::other(e.to_string()))?;
        self.join()
    }
}

/// The `(dev, ino)` identity of the file at `path` (not following a
/// symlink).
fn file_id(path: &Path) -> io::Result<(u64, u64)> {
    let meta = std::fs::symlink_metadata(path)?;
    Ok((meta.dev(), meta.ino()))
}

/// Makes way for binding `path`. An absent path needs nothing, and a
/// socket that refuses connections — a dead daemon's leftover — is
/// unlinked. Anything else stays: a file that is not a socket
/// (`AlreadyExists`), or the socket of a live daemon (`AddrInUse`),
/// which would otherwise share its `--dir` with a second writer. The
/// probe of a live daemon counts there as one disconnected session.
fn clear_stale_socket(path: &Path) -> io::Result<()> {
    let kind = match std::fs::symlink_metadata(path) {
        Ok(meta) => meta.file_type(),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if !kind.is_socket() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!("{} exists and is not a socket", path.display()),
        ));
    }
    match UnixStream::connect(path) {
        Ok(_) => Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("a daemon is already listening on {}", path.display()),
        )),
        Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => std::fs::remove_file(path),
        Err(e) => Err(e),
    }
}

fn accept_loop(listener: &UnixListener, shared: &Arc<Shared>) -> io::Result<()> {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        let handle = std::thread::spawn({
            let shared = Arc::clone(shared);
            move || serve_connection(stream, &shared)
        });
        let mut conns = lock(&shared.conns);
        reap_finished(&mut conns);
        conns.push(handle);
    }
    Ok(())
}

/// Joins (and drops) every connection thread that has already exited,
/// so retained handles are bounded by the live connections.
fn reap_finished(conns: &mut Vec<JoinHandle<()>>) {
    for finished in conns.extract_if(.., |h| h.is_finished()) {
        let _ = finished.join();
    }
}

fn write_ack(out: &mut UnixStream, status: u64, resumed: u64, credits: u64) -> io::Result<()> {
    write_varint(&mut *out, status)?;
    write_varint(&mut *out, resumed)?;
    write_varint(&mut *out, credits)?;
    out.flush()
}

fn serve_connection(stream: UnixStream, shared: &Arc<Shared>) {
    let Ok(mut out) = stream.try_clone() else {
        return;
    };
    let disconnected = || OrpdStats::add(&shared.stats.sessions_disconnected, 1);
    let Ok(mut container) = ContainerReader::new(BufReader::new(stream))
        .map(|reader| reader.with_chunk_limit(MAX_FRAME_BYTES))
    else {
        disconnected();
        return;
    };
    let chunk = container.next_chunk().ok().flatten();
    let Some(hello) = chunk.and_then(|chunk| Hello::decode(&chunk).ok()) else {
        disconnected();
        return;
    };
    if hello.shutdown {
        let _ = write_ack(&mut out, STATUS_SHUTDOWN, 0, 0);
        shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop so it observes the flag; the extra
        // connection is reaped unserved.
        let _ = UnixStream::connect(&shared.config.socket);
        return;
    }
    let Some(claim) = TenantClaim::acquire(shared, &hello.tenant) else {
        OrpdStats::add(&shared.stats.sessions_rejected, 1);
        let _ = write_ack(&mut out, STATUS_BUSY, 0, 0);
        return;
    };
    if serve_tenant(&mut container, &mut out, &hello, claim, shared).is_err() {
        disconnected();
    }
}

/// A tenant's slot in [`Shared::active`], released on drop.
struct TenantClaim<'a> {
    shared: &'a Shared,
    tenant: &'a str,
}

impl<'a> TenantClaim<'a> {
    /// Claims `tenant`, or `None` when another connection holds it.
    fn acquire(shared: &'a Shared, tenant: &'a str) -> Option<Self> {
        let claimed = lock(&shared.active).insert(tenant.to_owned());
        // Build the guard only on success: dropping an unclaimed one
        // would release the other connection's slot.
        claimed.then(|| TenantClaim { shared, tenant })
    }
}

impl Drop for TenantClaim<'_> {
    fn drop(&mut self) {
        lock(&self.shared.active).remove(self.tenant);
    }
}

/// Queued behind a tenant's last frame when its stream ended cleanly.
struct Finish;

#[derive(Default)]
struct WorkerReport {
    degraded: bool,
    events: u64,
    salvaged: u64,
}

fn serve_tenant(
    container: &mut ContainerReader<BufReader<UnixStream>>,
    out: &mut UnixStream,
    hello: &Hello,
    claim: TenantClaim<'_>,
    shared: &Arc<Shared>,
) -> Result<(), FormatError> {
    let path = shared.config.dir.join(format!("{}.orp", hello.tenant));
    let (session, resumed_events) = open_session(&path, hello.resume, shared);
    let credits = shared.config.credit_frames.max(1);
    write_ack(out, STATUS_OK, resumed_events, credits as u64)?;
    OrpdStats::add(&shared.stats.sessions_started, 1);

    let poison = shared.config.poison_tenant.as_deref() == Some(hello.tenant.as_str());
    let (worker_path, worker_shared) = (path.clone(), Arc::clone(shared));
    let (mut frames, worker) = lane::spawn("tenant worker", credits, FRAME_EVENTS, move |rx| {
        tenant_worker(session, rx, &worker_path, &worker_shared, poison)
    });

    let mut frame = Vec::with_capacity(FRAME_EVENTS);
    let streamed = loop {
        // A frame the rule refuses (anything but `TRCE`, an oversized
        // length or count, a malformed record) ends the connection
        // unclean; the tenant's durable state stays as-is.
        let mut sink = VecSink::from(std::mem::take(&mut frame));
        let n = match next_frame(container, &mut sink) {
            Ok(Some(n)) => n,
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        };
        OrpdStats::add(&shared.stats.frames, 1);
        OrpdStats::add(&shared.stats.events, n);
        // A full lane is the backpressure stall: the grant below is
        // delayed until the worker catches up. A dead worker's frame is
        // dropped (the session ends degraded).
        let stalls = frames.stats().stalls;
        frame = frames.ship(0, sink.into_events(), |_| {});
        if frames.stats().stalls > stalls {
            OrpdStats::add(&shared.stats.stalls, 1);
        }
        // No `?` past this point: an error must break into the join
        // path below, or the tenant would be released while its worker
        // still runs (and checkpoints).
        if let Err(e) = write_varint(&mut *out, 1).and_then(|()| out.flush()) {
            break Err(FormatError::from(e));
        }
    };
    if streamed.is_ok() {
        frames.control(Finish);
    }
    frames.hang_up();
    let report = worker.join().unwrap_or(WorkerReport {
        degraded: true,
        ..WorkerReport::default()
    });
    // Release the tenant only now: its worker (and with it every
    // checkpoint and the final profile) is done, so no second writer
    // can race on its artifact. Releasing before DONE means a client
    // that reconnects as soon as it reads DONE is never refused BUSY.
    drop(claim);
    streamed.and_then(|()| {
        let status = if report.degraded {
            OrpdStats::add(&shared.stats.sessions_degraded, 1);
            DONE_DEGRADED
        } else {
            OrpdStats::add(&shared.stats.sessions_finished, 1);
            DONE_CLEAN
        };
        write_varint(&mut *out, status)?;
        write_varint(&mut *out, report.events)?;
        write_varint(&mut *out, report.salvaged)?;
        out.flush()?;
        Ok(())
    })
}

/// Opens the tenant's session: resumed from its durable checkpoint when
/// asked and possible, fresh otherwise. A file that is not a resumable
/// checkpoint (missing, torn, or already a finished profile) falls back
/// to a fresh session with zero resumed events — the client then
/// replays from the start.
fn open_session(path: &Path, resume: bool, shared: &Arc<Shared>) -> (Session<LeapProfiler>, u64) {
    if resume {
        if let Ok(file) = std::fs::File::open(path) {
            let mut reader = BufReader::new(file);
            if let Ok(session) = Session::<LeapProfiler>::resume(&mut reader) {
                OrpdStats::add(&shared.stats.sessions_resumed, 1);
                let events = session.events();
                return (session, events);
            }
        }
    }
    (Session::new(LeapProfiler::new()), 0)
}

fn tenant_worker(
    mut session: Session<LeapProfiler>,
    rx: LaneReceiver<ProbeEvent, Finish>,
    path: &Path,
    shared: &Arc<Shared>,
    poison: bool,
) -> WorkerReport {
    let mut degraded = false;
    let mut salvaged = 0u64;
    let mut batches = 0u64;
    let mut last_checkpoint = session.events();
    let mut clean = false;
    rx.drain(|msg| {
        let batch = match msg {
            Msg::Control(Finish) => {
                clean = true;
                return;
            }
            Msg::Batch(_, batch) => batch,
        };
        batches += 1;
        let fed = !degraded
            && catch_unwind(AssertUnwindSafe(|| {
                assert!(
                    !(poison && batches > 1),
                    "injected tenant worker fault (poison_tenant)"
                );
                session.feed(batch);
            }))
            .is_ok();
        if !fed {
            // A degraded tenant keeps draining so its stream terminates;
            // the events are counted, not profiled.
            degraded = true;
            salvaged += batch.len() as u64;
            OrpdStats::add(&shared.stats.salvaged_events, batch.len() as u64);
        } else if shared.config.checkpoint_events > 0
            && session.events() - last_checkpoint >= shared.config.checkpoint_events
        {
            last_checkpoint = session.events();
            checkpoint_tenant(&mut session, path, shared);
        }
    });
    // A degraded tenant's in-memory profile is suspect: its last durable
    // checkpoint stays untouched as its artifact. On a disconnect,
    // persist progress so a reconnect can resume; a zero-event session
    // skips this, so it never clobbers what an earlier incarnation of
    // the tenant left behind.
    let events = session.events();
    if !degraded && clean {
        let _ = finalize_tenant(session, path);
    } else if !degraded && events > 0 {
        checkpoint_tenant(&mut session, path, shared);
    }
    WorkerReport {
        degraded,
        events,
        salvaged,
    }
}

fn checkpoint_tenant(session: &mut Session<LeapProfiler>, path: &Path, shared: &Arc<Shared>) {
    let clock = Stopwatch::start();
    let wrote = (|| -> io::Result<()> {
        let mut af = AtomicFile::create(path)?;
        session.checkpoint(&mut af)?;
        af.commit()
    })();
    if wrote.is_ok() {
        OrpdStats::add(&shared.stats.checkpoints, 1);
        OrpdStats::add(&shared.stats.checkpoint_nanos, clock.elapsed_nanos());
    }
}

fn finalize_tenant(session: Session<LeapProfiler>, path: &Path) -> io::Result<()> {
    let mut af = AtomicFile::create(path)?;
    session.finalize(&mut af)?;
    af.commit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TenantClient, DONE_CLEAN};
    use orp_trace::{AccessEvent, AllocEvent, AllocSiteId, InstrId, RawAddress};

    #[test]
    fn retained_connection_handles_stay_bounded_across_sessions() {
        let dir = std::env::temp_dir().join(format!("orpd-unit-{}-reap", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let socket = dir.join("orpd.sock");
        let daemon = Daemon::start(DaemonConfig::new(&socket, &dir)).expect("daemon starts");
        let hello = Hello::new("churn").expect("tenant name");
        let events = [
            ProbeEvent::Alloc(AllocEvent {
                site: AllocSiteId(0),
                base: RawAddress(0x1000),
                size: 64,
            }),
            ProbeEvent::Access(AccessEvent::load(InstrId(1), RawAddress(0x1008), 8)),
        ];
        let mut most = 0;
        for _ in 0..300 {
            let mut client = TenantClient::connect(&socket, &hello).expect("session accepted");
            for &ev in &events {
                client.event(ev).expect("event");
            }
            assert_eq!(client.finish().expect("session ends").status, DONE_CLEAN);
            most = most.max(lock(&daemon.shared.conns).len());
        }
        // Sessions run one at a time, so only the connection being
        // served and one still exiting can be unjoined; without reaping
        // this would be 300.
        assert!(
            most <= 3,
            "{most} connection handles retained across 300 sequential sessions"
        );
        daemon.stop().expect("daemon drains");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
