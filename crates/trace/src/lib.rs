//! Memory trace event model for object-relative profiling.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: instrumented programs emit a stream of [`ProbeEvent`]s —
//! memory accesses from *instruction probes* and allocation/deallocation
//! notifications from *object probes* — exactly as the CGO 2004 paper's
//! instrumentation does at the assembly level. Profilers consume the
//! stream through the [`ProbeSink`] trait.
//!
//! The crate also provides the raw-trace *size accounting* used as the
//! baseline for every compression ratio reported by the paper (a raw
//! trace record is an `(instruction-id, address)` pair), and a few stock
//! sinks: [`VecSink`] (materialize), [`CountingSink`] (statistics only),
//! [`NullSink`] (the "native" run used to measure time dilation) and
//! [`TeeSink`] (fan-out).
//!
//! # Examples
//!
//! ```
//! use orp_trace::{AccessEvent, AccessKind, CountingSink, InstrId, ProbeSink, RawAddress};
//!
//! let mut sink = CountingSink::new();
//! sink.access(AccessEvent {
//!     instr: InstrId(7),
//!     kind: AccessKind::Load,
//!     addr: RawAddress(0x6000_0010),
//!     size: 8,
//! });
//! assert_eq!(sink.stats().loads, 1);
//! ```

#![forbid(unsafe_code)]

mod event;
pub mod io;
mod registry;
mod sink;
mod stats;

pub use event::{AccessEvent, AccessKind, AllocEvent, AllocSiteId, FreeEvent, ProbeEvent};
pub use io::{
    decode_batch, encode_batch, next_frame, replay, replay_counted, TraceWriter, FRAME_EVENTS,
    MAX_FRAME_BYTES,
};
pub use registry::{InstrInfo, InstrRegistry, SiteInfo, SiteRegistry};
pub use sink::{CountingSink, NullSink, ProbeSink, TeeSink, VecSink};
pub use stats::TraceStats;

/// A static instruction identifier (a load or store site in the program).
///
/// Instruction ids are assigned by the instrumentation (here, by
/// [`InstrRegistry`]) and are stable across runs of the same program —
/// they play the role of the probe-inserted instruction IDs in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct InstrId(pub u32);

impl std::fmt::Display for InstrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "I{}", self.0)
    }
}

/// A raw virtual address as seen by the traced program.
///
/// Raw addresses are exactly what the paper argues is the *wrong*
/// coordinate system for profiles: they are a product of the allocator,
/// the linker layout, and the OS, and change from run to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RawAddress(pub u64);

impl RawAddress {
    /// Byte offset from `base` to this address.
    ///
    /// Returns `None` when this address lies below `base`.
    ///
    /// ```
    /// use orp_trace::RawAddress;
    /// assert_eq!(RawAddress(0x110).offset_from(RawAddress(0x100)), Some(0x10));
    /// assert_eq!(RawAddress(0x90).offset_from(RawAddress(0x100)), None);
    /// ```
    #[must_use]
    pub fn offset_from(self, base: RawAddress) -> Option<u64> {
        self.0.checked_sub(base.0)
    }
}

impl std::fmt::Display for RawAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl std::fmt::LowerHex for RawAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Number of bytes one raw trace record occupies on disk.
///
/// A raw memory trace records an `(instruction-id, address)` pair per
/// access: 4 bytes of instruction id plus 8 bytes of address. This is
/// the baseline against which the paper's compression ratios (Table 1)
/// are computed.
pub const RAW_RECORD_BYTES: u64 = 12;

/// Size in bytes of a raw `(instruction-id, address)` trace holding
/// `accesses` records.
///
/// ```
/// assert_eq!(orp_trace::raw_trace_bytes(1000), 12_000);
/// ```
#[must_use]
pub fn raw_trace_bytes(accesses: u64) -> u64 {
    accesses * RAW_RECORD_BYTES
}
