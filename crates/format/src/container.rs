//! Container envelope: magic + version header, checksummed chunks.

use std::io::{self, Read, Write};

use crate::chunk::{ChunkTag, ProfileKind};
use crate::crc::Crc32;
use crate::error::FormatError;
use crate::varint::{read_varint, varint_len, write_varint};

/// Eight-byte file magic, PNG-style: a high bit to catch 7-bit
/// transport, `ORP`, a CR-LF and a lone LF to catch line-ending
/// translation, and a DOS EOF to stop accidental `type`-style dumps.
pub const MAGIC: [u8; 8] = *b"\x89ORP\r\n\x1a\n";

/// Container format version this crate reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Upper bound on a single chunk's payload length.
///
/// A corrupted length field must not drive allocation: readers reject
/// anything larger with [`FormatError::Oversize`] before touching the
/// payload. Producers batch large streams (traces) into many chunks,
/// so the bound is generous but finite; readers of such streams lower
/// it to their frame size ([`ContainerReader::with_chunk_limit`]).
pub const MAX_CHUNK_LEN: u64 = 1 << 30;

/// Initial payload-buffer allocation cap: a lying length field should
/// cost at most this much memory before EOF surfaces as `Truncated`.
const PREALLOC_CAP: usize = 1 << 20;

/// On-wire totals for one container reader or writer: plain integers
/// bumped inline (observability layers read them at phase boundaries;
/// decode/encode loops themselves never call out).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Chunks processed, including `META` and the `END ` terminator.
    pub chunks: u64,
    /// Bytes on the wire: header, tags, length varints, payloads, CRCs.
    pub bytes: u64,
}

/// One decoded chunk: its tag and verified payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// The four-byte tag.
    pub tag: ChunkTag,
    /// Payload bytes, already CRC-verified.
    pub payload: Vec<u8>,
}

/// Writes a container: header on construction, chunks on demand,
/// `END ` on [`ContainerWriter::finish`].
#[derive(Debug)]
pub struct ContainerWriter<W: Write> {
    writer: W,
    stats: IoStats,
}

impl<W: Write> ContainerWriter<W> {
    /// Writes the magic + version header.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn new(mut writer: W) -> io::Result<Self> {
        writer.write_all(&MAGIC)?;
        writer.write_all(&FORMAT_VERSION.to_le_bytes())?;
        Ok(ContainerWriter {
            writer,
            stats: IoStats {
                chunks: 0,
                bytes: (MAGIC.len() + 4) as u64,
            },
        })
    }

    /// Writes one chunk: tag, varint length, payload, CRC-32 over
    /// tag + payload.
    ///
    /// # Errors
    ///
    /// Rejects payloads over [`MAX_CHUNK_LEN`]; propagates writer
    /// errors.
    pub fn chunk(&mut self, tag: ChunkTag, payload: &[u8]) -> io::Result<()> {
        if payload.len() as u64 > MAX_CHUNK_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "chunk payload exceeds MAX_CHUNK_LEN",
            ));
        }
        self.writer.write_all(&tag.0)?;
        write_varint(&mut self.writer, payload.len() as u64)?;
        self.writer.write_all(payload)?;
        let mut crc = Crc32::new();
        crc.update(&tag.0);
        crc.update(payload);
        self.writer.write_all(&crc.finalize().to_le_bytes())?;
        self.stats.chunks += 1;
        self.stats.bytes += 4 + varint_len(payload.len() as u64) + payload.len() as u64 + 4;
        Ok(())
    }

    /// Writes the `META` chunk describing the profile kind.
    ///
    /// Payload: `varint(kind code)`, then `varint(attribute count)`
    /// (zero today; the hook for future self-description).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn meta(&mut self, kind: ProfileKind) -> io::Result<()> {
        let mut payload = Vec::with_capacity(2);
        write_varint(&mut payload, kind.code())?;
        write_varint(&mut payload, 0)?; // attribute count
        self.chunk(ChunkTag::META, &payload)
    }

    /// Writes the `END ` terminator, flushes, and returns the inner
    /// writer.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn finish(mut self) -> io::Result<W> {
        self.chunk(ChunkTag::END, &[])?;
        self.writer.flush()?;
        Ok(self.writer)
    }

    /// The inner writer, for interleaved non-chunk bookkeeping.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.writer
    }

    /// Chunks and on-wire bytes written so far (header included;
    /// non-chunk bytes written through [`ContainerWriter::get_mut`]
    /// are not counted).
    #[must_use]
    pub fn io_stats(&self) -> IoStats {
        self.stats
    }
}

/// Reads a container: validates the header up front, then yields
/// CRC-verified chunks until the `END ` terminator.
#[derive(Debug)]
pub struct ContainerReader<R: Read> {
    reader: R,
    version: u32,
    done: bool,
    /// Largest payload length accepted.
    limit: u64,
    stats: IoStats,
}

impl<R: Read> ContainerReader<R> {
    /// Validates the magic and version.
    ///
    /// # Errors
    ///
    /// [`FormatError::BadMagic`] / [`FormatError::UnsupportedVersion`]
    /// on header mismatch, [`FormatError::Truncated`] when the stream
    /// ends inside the header.
    pub fn new(mut reader: R) -> Result<Self, FormatError> {
        let mut magic = [0u8; 8];
        reader.read_exact(&mut magic)?;
        if magic != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let mut version = [0u8; 4];
        reader.read_exact(&mut version)?;
        let version = u32::from_le_bytes(version);
        if version == 0 || version > FORMAT_VERSION {
            return Err(FormatError::UnsupportedVersion(version));
        }
        Ok(ContainerReader {
            reader,
            version,
            done: false,
            limit: MAX_CHUNK_LEN,
            stats: IoStats {
                chunks: 0,
                bytes: (MAGIC.len() + 4) as u64,
            },
        })
    }

    /// Lowers the largest chunk payload this reader accepts to `max`
    /// (never above [`MAX_CHUNK_LEN`]): a length field over it fails with
    /// [`FormatError::Oversize`] before any payload byte is buffered.
    #[must_use]
    pub fn with_chunk_limit(mut self, max: u64) -> Self {
        self.limit = max.min(MAX_CHUNK_LEN);
        self
    }

    /// The container's format version.
    #[must_use]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// True once the `END ` terminator has been consumed.
    #[must_use]
    pub fn at_end(&self) -> bool {
        self.done
    }

    /// Reads the next chunk; `Ok(None)` once `END ` is reached.
    ///
    /// # Errors
    ///
    /// Typed [`FormatError`]s for truncation, lengths over the chunk
    /// limit, and checksum mismatches. Never panics and never loops:
    /// every path either consumes input or returns.
    pub fn next_chunk(&mut self) -> Result<Option<Chunk>, FormatError> {
        if self.done {
            return Ok(None);
        }
        let mut tag = [0u8; 4];
        self.reader.read_exact(&mut tag)?;
        let tag = ChunkTag(tag);
        let len = read_varint(&mut self.reader)?;
        if len > self.limit {
            return Err(FormatError::Oversize { len });
        }
        // Cap the speculative allocation: a corrupt length field costs
        // at most PREALLOC_CAP before EOF surfaces as Truncated.
        let len_usize = usize::try_from(len).map_err(|_| FormatError::Oversize { len })?;
        let mut payload = Vec::with_capacity(len_usize.min(PREALLOC_CAP));
        let read = (&mut self.reader)
            .take(len)
            .read_to_end(&mut payload)
            .map_err(FormatError::from)?;
        if read as u64 != len {
            return Err(FormatError::Truncated);
        }
        let mut stored = [0u8; 4];
        self.reader.read_exact(&mut stored)?;
        let mut crc = Crc32::new();
        crc.update(&tag.0);
        crc.update(&payload);
        if crc.finalize() != u32::from_le_bytes(stored) {
            return Err(FormatError::ChecksumMismatch { tag });
        }
        self.stats.chunks += 1;
        self.stats.bytes += 4 + varint_len(len) + len + 4;
        if tag == ChunkTag::END {
            if !payload.is_empty() {
                return Err(FormatError::Malformed("END chunk carries a payload"));
            }
            self.done = true;
            return Ok(None);
        }
        Ok(Some(Chunk { tag, payload }))
    }

    /// Reads the next chunk and requires it to carry `tag`.
    ///
    /// # Errors
    ///
    /// [`FormatError::MissingChunk`] at the terminator,
    /// [`FormatError::UnexpectedChunk`] on a tag mismatch, plus
    /// everything [`ContainerReader::next_chunk`] returns.
    pub fn expect_chunk(&mut self, tag: ChunkTag) -> Result<Vec<u8>, FormatError> {
        match self.next_chunk()? {
            Some(chunk) if chunk.tag == tag => Ok(chunk.payload),
            Some(chunk) => Err(FormatError::UnexpectedChunk {
                expected: tag,
                found: chunk.tag,
            }),
            None => Err(FormatError::MissingChunk(tag)),
        }
    }

    /// Reads the `META` chunk (which must come first) and returns the
    /// profile kind.
    ///
    /// # Errors
    ///
    /// Everything [`ContainerReader::expect_chunk`] returns, plus
    /// [`FormatError::Malformed`] / [`FormatError::WrongKind`] for a
    /// bad `META` payload.
    pub fn read_meta(&mut self) -> Result<ProfileKind, FormatError> {
        let payload = self.expect_chunk(ChunkTag::META)?;
        let mut cursor = payload.as_slice();
        let kind = ProfileKind::from_code(read_varint(&mut cursor)?)?;
        let attrs = read_varint(&mut cursor)?;
        if attrs != 0 {
            return Err(FormatError::Malformed("unsupported META attributes"));
        }
        if !cursor.is_empty() {
            return Err(FormatError::Malformed("trailing bytes in META chunk"));
        }
        Ok(kind)
    }

    /// Drains the remaining chunks through the terminator, verifying
    /// every checksum, and returns the inner reader.
    ///
    /// # Errors
    ///
    /// Everything [`ContainerReader::next_chunk`] returns.
    pub fn drain(mut self) -> Result<R, FormatError> {
        while self.next_chunk()?.is_some() {}
        Ok(self.reader)
    }

    /// The inner reader (positioned after the last consumed chunk).
    pub fn get_mut(&mut self) -> &mut R {
        &mut self.reader
    }

    /// Chunks and on-wire bytes consumed so far (header included; only
    /// fully CRC-verified chunks count).
    #[must_use]
    pub fn io_stats(&self) -> IoStats {
        self.stats
    }
}

/// Writes a complete single-payload container: header, `META`, one
/// chunk, `END `.
///
/// This is the shape of every non-streaming profile file (OMSG, RASG,
/// LEAP, LMAD set, phase signatures, standalone grammars).
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_single_chunk(w: impl Write, kind: ProfileKind, payload: &[u8]) -> io::Result<()> {
    let mut writer = ContainerWriter::new(w)?;
    writer.meta(kind)?;
    writer.chunk(kind.primary_chunk(), payload)?;
    writer.finish()?;
    Ok(())
}

/// Reads a single-payload container written by [`write_single_chunk`],
/// checking the kind, and returns the primary chunk's payload.
///
/// # Errors
///
/// [`FormatError::WrongKind`] when the container holds a different
/// profile kind; otherwise everything the chunk reader returns.
pub fn read_single_chunk(r: impl Read, kind: ProfileKind) -> Result<Vec<u8>, FormatError> {
    let mut reader = ContainerReader::new(r)?;
    let found = reader.read_meta()?;
    if found != kind {
        return Err(FormatError::WrongKind {
            found: found.code(),
        });
    }
    let payload = reader.expect_chunk(kind.primary_chunk())?;
    // Auxiliary metadata (an embedded MREP run report) may trail the
    // primary payload; any other extra chunk stays malformed.
    while let Some(chunk) = reader.next_chunk()? {
        if chunk.tag != ChunkTag::METRICS {
            return Err(FormatError::Malformed("unexpected extra chunk"));
        }
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_container() -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = ContainerWriter::new(&mut buf).unwrap();
        w.meta(ProfileKind::Grammar).unwrap();
        w.chunk(ChunkTag::GRAMMAR, b"grammar bytes").unwrap();
        w.finish().unwrap();
        buf
    }

    #[test]
    fn roundtrip_yields_chunks_in_order() {
        let buf = sample_container();
        let mut r = ContainerReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.version(), FORMAT_VERSION);
        assert_eq!(r.read_meta().unwrap(), ProfileKind::Grammar);
        let chunk = r.next_chunk().unwrap().unwrap();
        assert_eq!(chunk.tag, ChunkTag::GRAMMAR);
        assert_eq!(chunk.payload, b"grammar bytes");
        assert!(r.next_chunk().unwrap().is_none());
        assert!(r.at_end());
    }

    #[test]
    fn io_stats_agree_between_writer_and_reader() {
        let mut w = ContainerWriter::new(Vec::new()).unwrap();
        w.meta(ProfileKind::Grammar).unwrap();
        w.chunk(ChunkTag::GRAMMAR, b"grammar bytes").unwrap();
        // Snapshot before finish(); the terminator adds one more chunk.
        let written = w.io_stats();
        let buf = w.finish().unwrap();
        let mut r = ContainerReader::new(buf.as_slice()).unwrap();
        while r.next_chunk().unwrap().is_some() {}
        let read = r.io_stats();
        assert_eq!(read.chunks, written.chunks + 1, "META + GRMR + END");
        assert_eq!(read.bytes, buf.len() as u64, "every wire byte counted");
    }

    #[test]
    fn single_chunk_reader_tolerates_a_trailing_metrics_chunk() {
        let mut w = ContainerWriter::new(Vec::new()).unwrap();
        w.meta(ProfileKind::Leap).unwrap();
        w.chunk(ChunkTag::LEAP, b"leap payload").unwrap();
        w.chunk(ChunkTag::METRICS, b"{}").unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(
            read_single_chunk(buf.as_slice(), ProfileKind::Leap).unwrap(),
            b"leap payload"
        );
        // Any other trailing tag stays malformed.
        let mut w = ContainerWriter::new(Vec::new()).unwrap();
        w.meta(ProfileKind::Leap).unwrap();
        w.chunk(ChunkTag::LEAP, b"leap payload").unwrap();
        w.chunk(ChunkTag::TRACE, b"stray").unwrap();
        let buf = w.finish().unwrap();
        assert!(matches!(
            read_single_chunk(buf.as_slice(), ProfileKind::Leap),
            Err(FormatError::Malformed(_))
        ));
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut buf = sample_container();
        buf[0] ^= 0xFF;
        assert!(matches!(
            ContainerReader::new(buf.as_slice()),
            Err(FormatError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_typed() {
        let mut buf = sample_container();
        buf[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ContainerReader::new(buf.as_slice()),
            Err(FormatError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn payload_bit_flip_is_a_checksum_mismatch() {
        let mut buf = sample_container();
        // Flip a bit somewhere inside the GRAMMAR payload (after the
        // 12-byte header and the ~7-byte META chunk).
        let idx = buf.len() - 10;
        buf[idx] ^= 0x01;
        let mut r = ContainerReader::new(buf.as_slice()).unwrap();
        let mut result = Ok(None);
        for _ in 0..4 {
            result = r.next_chunk();
            if result.is_err() {
                break;
            }
        }
        assert!(matches!(result, Err(FormatError::ChecksumMismatch { .. })));
    }

    #[test]
    fn truncation_is_typed_everywhere() {
        // Every strict prefix must surface Truncated: the terminator's
        // own CRC is the last thing in the file, so a clean END can
        // never be read from a cut container.
        let buf = sample_container();
        for cut in 0..buf.len() {
            let slice = &buf[..cut];
            let mut r = match ContainerReader::new(slice) {
                Ok(r) => r,
                Err(e) => {
                    assert!(
                        matches!(e, FormatError::Truncated),
                        "header cut at {cut}: {e:?}"
                    );
                    continue;
                }
            };
            let outcome = loop {
                match r.next_chunk() {
                    Ok(Some(_)) => {}
                    Ok(None) => break Ok(()),
                    Err(e) => break Err(e),
                }
            };
            assert!(
                matches!(outcome, Err(FormatError::Truncated)),
                "chunk cut at {cut}: {outcome:?}"
            );
        }
    }

    #[test]
    fn oversize_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(b"HUGE");
        write_varint(&mut buf, MAX_CHUNK_LEN + 1).unwrap();
        let mut r = ContainerReader::new(buf.as_slice()).unwrap();
        assert!(matches!(r.next_chunk(), Err(FormatError::Oversize { .. })));
    }

    #[test]
    fn a_lowered_chunk_limit_refuses_a_longer_length_without_its_payload() {
        let buf = sample_container();
        // META's 2-byte payload fits under 12; GRMR's 13-byte payload
        // does not, and the reader stops at its length field.
        let mut r = ContainerReader::new(buf.as_slice())
            .unwrap()
            .with_chunk_limit(12);
        assert_eq!(r.read_meta().unwrap(), ProfileKind::Grammar);
        assert!(matches!(
            r.next_chunk(),
            Err(FormatError::Oversize { len: 13 })
        ));
        let mut r = ContainerReader::new(buf.as_slice())
            .unwrap()
            .with_chunk_limit(13);
        r.read_meta().unwrap();
        assert_eq!(r.next_chunk().unwrap().unwrap().payload, b"grammar bytes");
    }

    #[test]
    fn single_chunk_helpers_roundtrip_and_check_kind() {
        let mut buf = Vec::new();
        write_single_chunk(&mut buf, ProfileKind::Leap, b"leap payload").unwrap();
        assert_eq!(
            read_single_chunk(buf.as_slice(), ProfileKind::Leap).unwrap(),
            b"leap payload"
        );
        assert!(matches!(
            read_single_chunk(buf.as_slice(), ProfileKind::Omsg),
            Err(FormatError::WrongKind { .. })
        ));
    }
}
