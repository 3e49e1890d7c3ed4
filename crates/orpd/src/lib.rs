//! `orpd` — a multi-tenant profiling daemon over the session layer.
//!
//! The inline CLI owns one profiling session per process. `orpd` lifts
//! the same session machinery behind a unix-domain socket so many
//! producers ("tenants") can stream probe events concurrently, each
//! into its own isolated [`Session`](orp_core::Session), with bounded per-tenant memory
//! and periodic durable checkpoints. See `DESIGN.md` §17 for the
//! protocol rationale.
//!
//! ## Wire protocol
//!
//! A connection *is* a `.orp` container streamed client→server:
//!
//! ```text
//! client:  MAGIC  version  HELO  TRCE*  END
//! server:  ack(status, resumed_events, credits)  grant*  done(status, events, salvaged)
//! ```
//!
//! The server speaks plain varints. After the handshake `ack`, one
//! `grant` varint is issued per ingested frame; a client holds at most
//! `credits` ungranted frames in flight, so a slow tenant worker
//! backpressures its own producer without unbounding daemon memory.
//! `TRCE` frames follow [the frame rule of trace files](orp_trace::io) —
//! the bytes a tenant sends are the bytes a recorded trace file holds,
//! and the daemon reads them with the same [`orp_trace::next_frame`].
//!
//! ## Isolation
//!
//! Each tenant gets a reader (the connection thread) and a worker
//! thread joined by a bounded channel. The worker owns the tenant's
//! session; if it panics, the reader keeps draining frames (counting
//! them as salvaged) so the tenant's stream terminates cleanly, the
//! tenant's last durable checkpoint survives untouched, and no other
//! tenant notices. Artifacts are only ever replaced via
//! [`AtomicFile`](orp_format::AtomicFile), so a `SIGKILL` at any instant leaves every
//! tenant's `.orp` old-or-new, never torn.

#![forbid(unsafe_code)]

mod client;
mod daemon;
mod stats;

pub use client::{shutdown_daemon, Ack, ClientError, Done, TenantClient};
pub use daemon::{Daemon, DaemonConfig};
pub use stats::OrpdStats;

/// Handshake accepted; the stream may proceed.
pub const STATUS_OK: u64 = 0;
/// Tenant is already streaming on another connection.
pub const STATUS_BUSY: u64 = 1;
/// Shutdown request acknowledged; the daemon is draining.
pub const STATUS_SHUTDOWN: u64 = 2;

/// Stream ingested fully and the tenant's profile was finalized.
pub const DONE_CLEAN: u64 = 0;
/// The tenant's worker died mid-stream; trailing events were drained
/// (salvaged) and the last durable checkpoint was left in place.
pub const DONE_DEGRADED: u64 = 1;

pub use orp_trace::FRAME_EVENTS;
