//! Object-relative translation and decomposition — the primary
//! contribution of the CGO 2004 paper.
//!
//! Raw-address memory profiles are obscured by allocator, linker and OS
//! artifacts. This crate translates every traced access into the
//! paper's *object-relative* coordinate system
//!
//! ```text
//! (instruction-id, group, object, offset, time-stamp)
//! ```
//!
//! where all objects allocated at one program point form a **group**,
//! each object carries a **serial number** within its group, and the
//! **offset** locates the accessed byte inside the object. Two
//! components realize the translation, mirroring the paper's framework
//! (its Figure 4):
//!
//! * the **object management component** ([`Omc`]) records every object
//!   ever allocated — address range, group, serial, lifetime — and maps
//!   a raw address to `(group, object, offset)`;
//! * the **control and decomposition component** ([`Cdc`]) receives
//!   probe events, queries the OMC, stamps each access with a time
//!   counter and hands [`OrTuple`]s to an [`OrSink`] (a profiler such as
//!   WHOMP or LEAP).
//!
//! The [`decompose`] module implements the paper's two stream
//! manipulations: **horizontal** decomposition (one stream per tuple
//! dimension) and **vertical** decomposition (sub-streams sharing a
//! value in one dimension, e.g. per instruction, then per group).
//!
//! # Examples
//!
//! Translating a two-object "linked list" by hand (the paper's Figure 3
//! scenario):
//!
//! ```
//! use orp_core::{Cdc, Omc, VecOrSink};
//! use orp_trace::{AccessEvent, AllocEvent, AllocSiteId, InstrId, ProbeSink, RawAddress};
//!
//! let mut cdc = Cdc::new(Omc::new(), VecOrSink::new());
//! let site = AllocSiteId(0);
//! // Two nodes of the same group at artifact-laden raw addresses.
//! cdc.alloc(AllocEvent { site, base: RawAddress(0x7230), size: 16 });
//! cdc.alloc(AllocEvent { site, base: RawAddress(0x1480), size: 16 });
//! // The same instruction reads field +8 of both nodes.
//! cdc.access(AccessEvent::load(InstrId(1), RawAddress(0x7238), 8));
//! cdc.access(AccessEvent::load(InstrId(1), RawAddress(0x1488), 8));
//!
//! let tuples = cdc.sink().tuples();
//! // Same group, same offset, consecutive serials: the regularity the
//! // raw addresses hid.
//! assert_eq!(tuples[0].offset, 8);
//! assert_eq!(tuples[1].offset, 8);
//! assert_eq!(tuples[0].group, tuples[1].group);
//! assert_eq!(tuples[0].object.0 + 1, tuples[1].object.0);
//! ```

#![forbid(unsafe_code)]

mod cdc;
pub mod decompose;
pub mod lane;
mod omc;
pub mod sample;
mod session;
pub mod sharded;
mod sink;
mod sync;

pub use cdc::Cdc;
pub use lane::PipelineError;
pub use omc::{FastU64Map, ObjectRecord, Omc, OmcError, TranslateStats, U64Hasher};
pub use sample::{RateController, SampleStats, Sampler, SamplingPolicy};
pub use session::{Session, SessionSink, SessionStats};
pub use sharded::{PipelineStats, ShardStats, ShardableSink, ShardedCdc, ShardedJoin};
pub use sink::{NullOrSink, OrSink, VecOrSink};

use orp_trace::{AccessKind, InstrId};

/// A group identifier: all objects allocated at the same program point.
///
/// The OMC assigns group ids densely in order of first allocation from
/// each site; with compiler-provided type information a site maps to a
/// type, which is why the paper also calls groups "object types".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GroupId(pub u32);

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// An object's serial number within its group (0, 1, 2, … in allocation
/// order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectSerial(pub u64);

impl std::fmt::Display for ObjectSerial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The profiling time-stamp: a counter starting at 0, incremented after
/// every collected access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One object-relative memory access: the paper's 5-tuple, plus the
/// access kind and width needed by dependence post-processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OrTuple {
    /// The static instruction performing the access.
    pub instr: InstrId,
    /// Load or store (a property of `instr`, carried inline for
    /// convenience).
    pub kind: AccessKind,
    /// The accessed object's group.
    pub group: GroupId,
    /// The accessed object's serial number within the group.
    pub object: ObjectSerial,
    /// Byte offset of the access inside the object.
    pub offset: u64,
    /// Collection time-stamp.
    pub time: Timestamp,
    /// Access width in bytes.
    pub size: u8,
}

impl std::fmt::Display for OrTuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "({}, {}, {}, +{}, {})",
            self.instr, self.group, self.object, self.offset, self.time
        )
    }
}
