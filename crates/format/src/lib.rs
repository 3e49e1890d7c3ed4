//! The `.orp` container: one envelope for every profile artifact.
//!
//! The profiling pipeline (probes → OMC/CDC → WHOMP/LEAP/hybrid →
//! post-processors) is a single dataflow, so every artifact it produces
//! — raw traces, Sequitur grammars, OMSG/RASG profiles, LEAP profiles,
//! LMAD sets, phase signatures, and mid-run checkpoints — is stored in
//! the same envelope:
//!
//! ```text
//! magic   8 bytes   89 4F 52 50 0D 0A 1A 0A   ("\x89ORP\r\n\x1a\n")
//! version u32 LE    container format version (currently 1)
//! chunk*            [tag: 4 ASCII bytes][len: varint][payload: len bytes]
//!                   [crc32: u32 LE over tag + payload]
//! "END "            empty terminator chunk (also checksummed)
//! ```
//!
//! The PNG-style magic detects text-mode mangling and truncation at
//! byte 0; the per-chunk CRC detects bit flips before any payload
//! parser runs; the length framing lets readers skip chunk kinds they
//! do not understand. Payload encodings are owned by the producing
//! crates — this crate owns the envelope, the shared integer codecs
//! ([`varint`]), and the typed error surface ([`FormatError`]).
//!
//! # Examples
//!
//! ```
//! use orp_format::{ChunkTag, ContainerReader, ContainerWriter, ProfileKind};
//!
//! let mut buf = Vec::new();
//! let mut w = ContainerWriter::new(&mut buf).unwrap();
//! w.meta(ProfileKind::Trace).unwrap();
//! w.chunk(ChunkTag::TRACE, b"payload").unwrap();
//! w.finish().unwrap();
//!
//! let mut r = ContainerReader::new(buf.as_slice()).unwrap();
//! assert_eq!(r.read_meta().unwrap(), ProfileKind::Trace);
//! let chunk = r.next_chunk().unwrap().unwrap();
//! assert_eq!(chunk.tag, ChunkTag::TRACE);
//! assert_eq!(chunk.payload, b"payload");
//! assert!(r.next_chunk().unwrap().is_none());
//! ```

#![forbid(unsafe_code)]
// Decode paths must route malformed input through `FormatError`; the
// `xtask analyze` no-panic rule enforces the wider family (expect,
// panic!, indexing), this enforces unwrap at compile time too.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod chunk;
mod container;
mod crc;
pub mod durable;
mod error;
mod hello;
pub mod varint;

pub use chunk::{ChunkTag, ProfileKind};
pub use container::{
    read_single_chunk, write_single_chunk, Chunk, ContainerReader, ContainerWriter, IoStats,
    FORMAT_VERSION, MAGIC, MAX_CHUNK_LEN,
};
pub use crc::{crc32, Crc32};
pub use durable::{
    write_bytes_atomic, AtomicFile, FailingRead, FailingWrite, FaultPlan, FaultSpecError,
    RetryRead, RetryWrite, FAULT_PLAN_ENV, INJECTED_MARKER,
};
pub use error::FormatError;
pub use hello::{Hello, HELLO_PROTOCOL_VERSION, MAX_TENANT_LEN};
pub use varint::{
    read_i64_le, read_u32_le, read_u64_le, read_varint, read_zigzag, u32_from_le, u64_from_le,
    varint_len, write_i64_le, write_u32_le, write_u64_le, write_varint, write_zigzag,
    zigzag_decode, zigzag_encode,
};
