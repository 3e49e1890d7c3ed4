//! The typed error surface for container readers.

use std::fmt;
use std::io;

use crate::chunk::ChunkTag;

/// Everything that can go wrong while reading a `.orp` container.
///
/// Readers return this instead of panicking or looping: truncation,
/// bit flips, unknown framing, and malformed payloads each map to a
/// distinct variant so callers (and tests) can tell corruption classes
/// apart.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure other than a clean end-of-file.
    Io(io::Error),
    /// The file does not start with the `.orp` magic.
    BadMagic,
    /// The container version is newer than this reader understands
    /// (or zero).
    UnsupportedVersion(u32),
    /// The stream ended inside the header, a chunk, or before the
    /// `END ` terminator.
    Truncated,
    /// A chunk's stored CRC-32 does not match its contents.
    ChecksumMismatch {
        /// Tag of the damaged chunk.
        tag: ChunkTag,
    },
    /// A chunk declared a payload longer than the reader's chunk limit
    /// ([`crate::MAX_CHUNK_LEN`] unless lowered).
    Oversize {
        /// The declared payload length.
        len: u64,
    },
    /// A well-formed chunk carries a tag the caller cannot interpret.
    UnknownChunk(ChunkTag),
    /// A required chunk never appeared before the terminator.
    MissingChunk(ChunkTag),
    /// A different chunk appeared where a specific one was required.
    UnexpectedChunk {
        /// The tag the caller required.
        expected: ChunkTag,
        /// The tag actually present.
        found: ChunkTag,
    },
    /// The container belongs to a different profile kind than the
    /// caller asked for.
    WrongKind {
        /// Kind code found in the `META` chunk.
        found: u64,
    },
    /// A chunk passed its CRC but its payload violates the payload
    /// encoding's own invariants.
    Malformed(&'static str),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
            FormatError::BadMagic => write!(f, "not an .orp container (bad magic)"),
            FormatError::UnsupportedVersion(v) => {
                write!(f, "unsupported container version {v}")
            }
            FormatError::Truncated => write!(f, "container is truncated"),
            FormatError::ChecksumMismatch { tag } => {
                write!(f, "checksum mismatch in chunk {tag}")
            }
            FormatError::Oversize { len } => {
                write!(f, "chunk declares an oversize payload ({len} bytes)")
            }
            FormatError::UnknownChunk(tag) => write!(f, "unknown chunk {tag}"),
            FormatError::MissingChunk(tag) => write!(f, "missing required chunk {tag}"),
            FormatError::UnexpectedChunk { expected, found } => {
                write!(f, "expected chunk {expected}, found {found}")
            }
            FormatError::WrongKind { found } => {
                write!(f, "container holds a different profile kind (code {found})")
            }
            FormatError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FormatError {
    /// Clean end-of-file inside a read becomes [`FormatError::Truncated`];
    /// anything else stays an I/O error.
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FormatError::Truncated
        } else {
            FormatError::Io(e)
        }
    }
}

impl From<FormatError> for io::Error {
    /// Lets container-aware code slot into `io::Result` call sites
    /// (probe-sink drivers, CLI plumbing) without flattening the error
    /// text.
    fn from(e: FormatError) -> Self {
        match e {
            FormatError::Io(inner) => inner,
            FormatError::Truncated => io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()),
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}
