//! The `orpd-churn` load: `TENANTS` client threads, one connection
//! each, running back-to-back tenant sessions over the daemon's wire
//! protocol through `TenantClient`. A closed loop: a tenant starts its
//! next session only after the previous one's DONE ack.
//!
//! The daemon acks DONE before it releases the tenant's slot, so an
//! immediate reconnect of the same tenant can be refused `STATUS_BUSY`
//! ("tenant is already streaming"). The client retries such a handshake,
//! as the status invites. A session starts at the handshake the daemon
//! accepts: the refused attempts are no session, but their wait is in the
//! throughput, and every refusal is counted (`busy_refusals`, and
//! `orpd.sessions.rejected` in the daemon's report). Any other refusal, or
//! a slot still busy after `BUSY_PATIENCE`, fails the session.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use orp_format::Hello;
use orp_orpd::{ClientError, TenantClient, DONE_CLEAN, FRAME_EVENTS, STATUS_BUSY};
use orp_trace::ProbeEvent;

use crate::proc;

/// One tenant session, from connect to the DONE ack.
#[derive(Debug, Clone, Copy)]
pub struct SessionLog {
    /// Start and end, in nanoseconds since the load began.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Connected, streamed every event and got a clean DONE for all of
    /// them.
    pub ok: bool,
}

/// What the load measured.
#[derive(Debug, Default)]
pub struct ChurnLoad {
    pub sessions: Vec<SessionLog>,
    /// Nanoseconds per full frame spent in the client's frame flush,
    /// including the wait for credit.
    pub frame_ns: Vec<u64>,
    /// Events streamed by sessions that ended clean.
    pub events: u64,
    /// Wall time of the whole load.
    pub wall_s: f64,
    /// `(ns since start, daemon VmRSS KiB)` samples, when monitored.
    pub rss: Vec<(u64, u64)>,
    /// Handshakes refused `STATUS_BUSY` and retried.
    pub busy_refusals: u64,
    /// The daemon's VmHWM when the requested session count finished.
    pub hwm_kib: Option<u64>,
}

/// How long a client keeps retrying a `STATUS_BUSY` handshake.
const BUSY_PATIENCE: Duration = Duration::from_secs(1);

/// Connects as `tenant`, retrying while the daemon still holds the
/// tenant's slot from its previous session. Returns the client and when
/// the accepted attempt began.
fn connect(
    socket: &Path,
    hello: &Hello,
    busy: &mut u64,
) -> Result<(TenantClient, Instant), String> {
    let start = Instant::now();
    loop {
        let attempt = Instant::now();
        match TenantClient::connect(socket, hello) {
            Ok(client) => return Ok((client, attempt)),
            Err(ClientError::Rejected { status })
                if status == STATUS_BUSY && start.elapsed() < BUSY_PATIENCE =>
            {
                *busy += 1;
                std::thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Streams `events` once as tenant `tenant`, returning whether the
/// session ended clean with every event, and when it started. Every
/// `FRAME_EVENTS`-th `event` call is the one that flushes a full frame;
/// its duration is the frame's flush time.
fn session(
    socket: &Path,
    tenant: &str,
    events: &[ProbeEvent],
    frame_ns: &mut Vec<u64>,
    busy: &mut u64,
) -> Result<(bool, Instant), String> {
    let hello = Hello::new(tenant).map_err(|e| e.to_string())?;
    let (mut client, started) = connect(socket, &hello, busy)?;
    for (i, &ev) in events.iter().enumerate() {
        if (i + 1) % FRAME_EVENTS == 0 {
            let t = Instant::now();
            client.event(ev).map_err(|e| e.to_string())?;
            frame_ns.push(nanos_since(t));
        } else {
            client.event(ev).map_err(|e| e.to_string())?;
        }
    }
    let done = client.finish().map_err(|e| e.to_string())?;
    Ok((
        done.status == DONE_CLEAN && done.events == events.len() as u64,
        started,
    ))
}

/// Streams `events` once as tenant `tenant`; true when the session
/// ended clean with every event.
pub fn stream_once(socket: &Path, tenant: &str, events: &[ProbeEvent]) -> bool {
    match session(socket, tenant, events, &mut Vec::new(), &mut 0) {
        Ok((ok, _)) => ok,
        Err(e) => {
            eprintln!("perfbench: tenant {tenant}: {e}");
            false
        }
    }
}

/// Runs the load for `seconds`, sampling the daemon's RSS every 20 ms
/// when `monitor` names its pid, and reading its VmHWM once `hwm_after`
/// `(pid, sessions)` sessions have finished.
pub fn drive(
    socket: &Path,
    events: &[ProbeEvent],
    seconds: f64,
    monitor: Option<u32>,
    hwm_after: Option<(u32, usize)>,
) -> ChurnLoad {
    let origin = Instant::now();
    let finished = AtomicUsize::new(0);
    let hwm = OnceLock::new();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut load = ChurnLoad::default();
    std::thread::scope(|scope| {
        let tenants: Vec<_> = (0..crate::TENANTS)
            .map(|t| {
                let (finished, hwm) = (&finished, &hwm);
                scope.spawn(move || {
                    let tenant = format!("t{t}");
                    let mut sessions = Vec::new();
                    let mut frame_ns = Vec::with_capacity(1 << 16);
                    let mut events_ok = 0u64;
                    let mut busy = 0u64;
                    while Instant::now() < deadline {
                        let mut start_ns = nanos_since(origin);
                        let ok = match session(socket, &tenant, events, &mut frame_ns, &mut busy) {
                            Ok((ok, started)) => {
                                start_ns = u64::try_from(started.duration_since(origin).as_nanos())
                                    .unwrap_or(u64::MAX);
                                ok
                            }
                            Err(e) => {
                                eprintln!("perfbench: tenant {tenant}: {e}");
                                false
                            }
                        };
                        if ok {
                            events_ok += events.len() as u64;
                        } else {
                            // Do not spin on a dead daemon.
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        sessions.push(SessionLog {
                            start_ns,
                            end_ns: nanos_since(origin),
                            ok,
                        });
                        if let Some((pid, after)) = hwm_after {
                            if finished.fetch_add(1, Ordering::Relaxed) + 1 == after {
                                let _ = hwm.set(proc::status_kib(pid, "VmHWM"));
                            }
                        }
                    }
                    (sessions, frame_ns, events_ok, busy)
                })
            })
            .collect();
        let sampler = monitor.map(|pid| {
            scope.spawn(move || {
                let mut rss = Vec::new();
                while Instant::now() < deadline {
                    if let Some(kib) = proc::status_kib(pid, "VmRSS") {
                        rss.push((nanos_since(origin), kib));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                rss
            })
        });
        for handle in tenants {
            let (sessions, frame_ns, events_ok, busy) =
                handle.join().expect("tenant client thread panicked");
            load.sessions.extend(sessions);
            load.frame_ns.extend(frame_ns);
            load.events += events_ok;
            load.busy_refusals += busy;
        }
        load.wall_s = origin.elapsed().as_secs_f64();
        if let Some(handle) = sampler {
            load.rss = handle.join().expect("rss sampler thread panicked");
        }
    });
    load.hwm_kib = hwm.into_inner().flatten();
    load.sessions.sort_by_key(|s| s.end_ns);
    load
}
