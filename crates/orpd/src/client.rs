//! The tenant side of the wire: framing, credit accounting, and the
//! handshake/done varint readers.

use std::io::{self, BufReader};
use std::os::unix::net::UnixStream;
use std::path::Path;

use orp_format::{read_varint, ChunkTag, ContainerWriter, FormatError, Hello};
use orp_trace::{encode_batch, ProbeEvent};

use crate::{FRAME_EVENTS, STATUS_OK, STATUS_SHUTDOWN};

/// Anything that can go wrong on the client side of a daemon stream.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed underneath us.
    Io(io::Error),
    /// The daemon (or our own handshake) produced malformed container
    /// bytes.
    Format(FormatError),
    /// The daemon refused the handshake with this status code.
    Rejected {
        /// The `ack` status the daemon answered with (`STATUS_BUSY`,
        /// an unknown code, ...).
        status: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "daemon socket: {e}"),
            ClientError::Format(e) => write!(f, "daemon stream: {e}"),
            ClientError::Rejected { status } => {
                write!(f, "daemon rejected handshake (status {status})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FormatError> for ClientError {
    fn from(e: FormatError) -> Self {
        ClientError::Format(e)
    }
}

/// The daemon's answer to a handshake.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    /// `STATUS_OK`, `STATUS_BUSY`, or `STATUS_SHUTDOWN`.
    pub status: u64,
    /// Events already durable for this tenant (nonzero after a resume).
    pub resumed_events: u64,
    /// Frames the client may hold in flight before waiting for grants.
    pub credits: u64,
}

/// The daemon's end-of-stream verdict.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// `DONE_CLEAN` or `DONE_DEGRADED`.
    pub status: u64,
    /// Events the tenant's session holds (including resumed ones).
    pub events: u64,
    /// Events drained after the tenant's worker died.
    pub salvaged: u64,
}

fn read_ack(r: &mut impl io::Read) -> Result<Ack, ClientError> {
    Ok(Ack {
        status: read_varint(r)?,
        resumed_events: read_varint(r)?,
        credits: read_varint(r)?,
    })
}

/// One tenant's streaming connection to an `orpd` daemon.
///
/// Buffers probe events into `FRAME_EVENTS`-sized frames, sends each as
/// a `TRCE` chunk, and respects the daemon's credit window: when all
/// credits are spent it blocks on the next grant before sending more,
/// so a slow daemon backpressures the producer instead of queueing
/// unboundedly on either side.
pub struct TenantClient {
    writer: ContainerWriter<UnixStream>,
    grants: BufReader<UnixStream>,
    ack: Ack,
    /// Frames that may be sent before the next grant is needed.
    credits: u64,
    pending: Vec<ProbeEvent>,
}

impl TenantClient {
    /// Connects, sends the handshake, and waits for the daemon's ack.
    ///
    /// # Errors
    ///
    /// [`ClientError::Rejected`] when the daemon answers anything but
    /// `STATUS_OK`; socket and codec failures otherwise.
    pub fn connect(socket: &Path, hello: &Hello) -> Result<TenantClient, ClientError> {
        let stream = UnixStream::connect(socket)?;
        let mut writer = ContainerWriter::new(stream.try_clone()?)?;
        hello.encode(&mut writer)?;
        let mut grants = BufReader::new(stream);
        let ack = read_ack(&mut grants)?;
        if ack.status != STATUS_OK {
            return Err(ClientError::Rejected { status: ack.status });
        }
        Ok(TenantClient {
            writer,
            grants,
            ack,
            credits: ack.credits.max(1),
            pending: Vec::with_capacity(FRAME_EVENTS),
        })
    }

    /// The handshake ack this connection was accepted with.
    #[must_use]
    pub fn ack(&self) -> Ack {
        self.ack
    }

    /// Events already durable server-side (nonzero after a resume);
    /// the producer should skip replaying this many.
    #[must_use]
    pub fn resumed_events(&self) -> u64 {
        self.ack.resumed_events
    }

    /// Buffers one event, flushing a full frame onto the wire.
    ///
    /// # Errors
    ///
    /// Propagates frame-flush failures; see [`TenantClient::flush_frame`].
    pub fn event(&mut self, ev: ProbeEvent) -> Result<(), ClientError> {
        self.pending.push(ev);
        if self.pending.len() >= FRAME_EVENTS {
            self.flush_frame()?;
        }
        Ok(())
    }

    /// Sends the buffered events (if any) as one frame, first waiting
    /// for a grant if the credit window is exhausted.
    ///
    /// # Errors
    ///
    /// Socket failures, including the daemon vanishing mid-stream.
    pub fn flush_frame(&mut self) -> Result<(), ClientError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if self.credits == 0 {
            self.take_grant()?;
        }
        let payload = encode_batch(&self.pending)?;
        self.pending.clear();
        self.writer.chunk(ChunkTag::TRACE, &payload)?;
        self.credits -= 1;
        Ok(())
    }

    fn take_grant(&mut self) -> Result<(), ClientError> {
        let _ = read_varint(&mut self.grants)?;
        self.credits += 1;
        Ok(())
    }

    /// Flushes the last partial frame, ends the container, and waits
    /// for the daemon's verdict.
    ///
    /// # Errors
    ///
    /// Socket failures while draining grants or reading the verdict.
    pub fn finish(mut self) -> Result<Done, ClientError> {
        self.flush_frame()?;
        let TenantClient {
            writer,
            mut grants,
            ack,
            credits,
            ..
        } = self;
        writer.finish()?;
        // Drain the grants of the frames still in flight.
        for _ in credits..ack.credits.max(1) {
            let _ = read_varint(&mut grants)?;
        }
        Ok(Done {
            status: read_varint(&mut grants)?,
            events: read_varint(&mut grants)?,
            salvaged: read_varint(&mut grants)?,
        })
    }
}

/// Asks the daemon at `socket` to stop accepting connections and drain.
///
/// # Errors
///
/// [`ClientError::Rejected`] when the daemon answers anything but
/// `STATUS_SHUTDOWN`; socket and codec failures otherwise.
pub fn shutdown_daemon(socket: &Path) -> Result<(), ClientError> {
    let stream = UnixStream::connect(socket)?;
    let mut writer = ContainerWriter::new(stream.try_clone()?)?;
    let mut hello = Hello::new("shutdown")?;
    hello.shutdown = true;
    hello.encode(&mut writer)?;
    let mut reader = BufReader::new(stream);
    let ack = read_ack(&mut reader)?;
    if ack.status != STATUS_SHUTDOWN {
        return Err(ClientError::Rejected { status: ack.status });
    }
    Ok(())
}
