//! Trace files: recording and replaying probe-event streams.
//!
//! The raw traces that pre-object-relative profilers collect (and that
//! the paper's compression ratios are measured against) are streams of
//! probe events. This module gives them a concrete on-disk form so a
//! trace can be recorded once and profiled offline many times —
//! `orprof-cli` uses it for its record/replay commands.
//!
//! A trace file is a `.orp` container ([`orp_format`]) of kind
//! `Trace`: a `META` chunk, then one `TRCE` frame per batch of events,
//! then the terminator. Each `TRCE` payload is `varint(record_count)`
//! followed by one fixed-width little-endian record per event:
//!
//! ```text
//! 0x01 instr:u32 kind:u8 size:u8 addr:u64      (access)
//! 0x02 site:u32 base:u64 size:u64              (alloc)
//! 0x03 base:u64                                (free)
//! ```
//!
//! # The frame rule
//!
//! The same frames carry events over the `orpd` wire, under one rule:
//! a frame holds at most [`FRAME_EVENTS`] records, so its payload is at
//! most [`MAX_FRAME_BYTES`]. Readers open their container with that
//! bound ([`ContainerReader::with_chunk_limit`]), so a longer length
//! field fails with [`FormatError::Oversize`] before any payload byte
//! is buffered, and read through [`next_frame`], which refuses a
//! non-`TRCE` chunk and a count over `FRAME_EVENTS` before decoding a
//! record. Framing bounds writer memory and gives the CRC-32 granular
//! coverage: a bit flip spoils one frame, detectably.

use std::io::{self, Read, Write};

use orp_format::{
    read_varint, u32_from_le, u64_from_le, varint_len, write_u32_le, write_u64_le, write_varint,
    ChunkTag, ContainerReader, ContainerWriter, FormatError, IoStats, ProfileKind,
};

use crate::{
    AccessEvent, AccessKind, AllocEvent, AllocSiteId, FreeEvent, InstrId, ProbeEvent, ProbeSink,
    RawAddress,
};

const TAG_ACCESS: u8 = 1;
const TAG_ALLOC: u8 = 2;
const TAG_FREE: u8 = 3;

/// Record widths after the tag byte (see the module docs).
const ACCESS_LEN: usize = 14;
const ALLOC_LEN: usize = 20;
const FREE_LEN: usize = 8;

/// Most records one `TRCE` frame carries; writers fill frames to it.
pub const FRAME_EVENTS: usize = 4096;

/// Largest `TRCE` payload a frame can need: the count varint plus
/// [`FRAME_EVENTS`] of the widest record (2 + 4096 × 21 = 86,018 B).
pub const MAX_FRAME_BYTES: u64 =
    varint_len(FRAME_EVENTS as u64) + FRAME_EVENTS as u64 * (1 + ALLOC_LEN as u64);

/// A [`ProbeSink`] that writes every event to a trace container.
///
/// Call [`TraceWriter::into_inner`] when done: it writes the final
/// frame and the container terminator. A dropped writer leaves a
/// truncated container, which readers reject — by design, since the
/// trace would be incomplete.
///
/// [`ProbeSink`] methods are infallible, so a mid-stream write failure
/// cannot surface where it happens. Instead the first error is
/// *latched*: recording stops (events are counted but no further bytes
/// move), and the error resurfaces from [`TraceWriter::into_inner`] —
/// the probe side never panics inside a workload, and the failure is
/// reported exactly once, where the caller can handle it.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    container: ContainerWriter<W>,
    /// Events of the frame being filled.
    frame: Vec<ProbeEvent>,
    events: u64,
    /// First write failure, held until `into_inner`.
    error: Option<io::Error>,
}

impl<W: Write> TraceWriter<W> {
    /// Creates a writer, emitting the container header and `META`
    /// chunk immediately.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn new(writer: W) -> io::Result<Self> {
        let mut container = ContainerWriter::new(writer)?;
        container.meta(ProfileKind::Trace)?;
        Ok(TraceWriter {
            container,
            frame: Vec::with_capacity(FRAME_EVENTS),
            events: 0,
            error: None,
        })
    }

    /// Number of events written.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Container-level write totals so far (chunks flushed, bytes
    /// framed). The unflushed in-memory frame is not counted.
    #[must_use]
    pub fn io_stats(&self) -> IoStats {
        self.container.io_stats()
    }

    /// The first write failure, if recording has latched one; the
    /// writer is inert from that point on.
    #[must_use]
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Writes the final frame and the container terminator, returning
    /// the underlying writer.
    ///
    /// # Errors
    ///
    /// Surfaces a latched mid-stream failure first, then any error
    /// from the final writes.
    pub fn into_inner(mut self) -> io::Result<W> {
        self.flush_frame();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.container.finish()
    }

    /// Writes the buffered frame, latching the first failure; after one,
    /// no further bytes move.
    fn flush_frame(&mut self) {
        if self.error.is_none() && !self.frame.is_empty() {
            let written = encode_batch(&self.frame)
                .and_then(|payload| self.container.chunk(ChunkTag::TRACE, &payload));
            self.frame.clear();
            self.error = written.err();
        }
    }

    fn record(&mut self, ev: ProbeEvent) {
        self.events += 1;
        if self.error.is_none() {
            self.frame.push(ev);
            if self.frame.len() >= FRAME_EVENTS {
                self.flush_frame();
            }
        }
    }
}

impl<W: Write> ProbeSink for TraceWriter<W> {
    fn access(&mut self, ev: AccessEvent) {
        self.record(ProbeEvent::Access(ev));
    }

    fn alloc(&mut self, ev: AllocEvent) {
        self.record(ProbeEvent::Alloc(ev));
    }

    fn free(&mut self, ev: FreeEvent) {
        self.record(ProbeEvent::Free(ev));
    }

    fn finish(&mut self) {
        self.flush_frame();
    }
}

/// Encodes one fixed-width trace record.
fn encode_record(b: &mut Vec<u8>, ev: &ProbeEvent) -> io::Result<()> {
    match *ev {
        ProbeEvent::Access(ev) => {
            b.push(TAG_ACCESS);
            write_u32_le(b, ev.instr.0)?;
            b.push(u8::from(ev.kind.is_store()));
            b.push(ev.size);
            write_u64_le(b, ev.addr.0)
        }
        ProbeEvent::Alloc(ev) => {
            b.push(TAG_ALLOC);
            write_u32_le(b, ev.site.0)?;
            write_u64_le(b, ev.base.0)?;
            write_u64_le(b, ev.size)
        }
        ProbeEvent::Free(ev) => {
            b.push(TAG_FREE);
            write_u64_le(b, ev.base.0)
        }
    }
}

/// Encodes a batch of probe events as one `TRCE` frame payload — the
/// framer of both [`TraceWriter`] and the `orpd` client.
///
/// # Errors
///
/// Propagates writer errors (none in practice for an in-memory buffer).
pub fn encode_batch(events: &[ProbeEvent]) -> io::Result<Vec<u8>> {
    // Room for the longest count varint and every record at its widest.
    let mut payload = Vec::with_capacity(10 + events.len() * (1 + ALLOC_LEN));
    write_varint(&mut payload, events.len() as u64)?;
    for ev in events {
        encode_record(&mut payload, ev)?;
    }
    Ok(payload)
}

/// Decodes one `TRCE` payload into `sink`, returning the record count.
/// Inverse of [`encode_batch`]; [`next_frame`] runs it per frame.
///
/// # Errors
///
/// Typed [`FormatError`]s for malformed or trailing bytes.
pub fn decode_batch(payload: &[u8], sink: &mut dyn ProbeSink) -> Result<u64, FormatError> {
    let mut r = payload;
    let count = read_varint(&mut r)?;
    for _ in 0..count {
        let Some((&tag, rest)) = r.split_first() else {
            return Err(FormatError::Truncated);
        };
        r = match tag {
            TAG_ACCESS => {
                let Some((&[i0, i1, i2, i3, kind, size, addr @ ..], rest)) =
                    rest.split_first_chunk::<ACCESS_LEN>()
                else {
                    return Err(short_access(rest));
                };
                sink.access(AccessEvent {
                    instr: InstrId(u32_from_le([i0, i1, i2, i3])),
                    kind: access_kind(kind)?,
                    addr: RawAddress(u64_from_le(addr)),
                    size,
                });
                rest
            }
            TAG_ALLOC => {
                let Some((&[s0, s1, s2, s3, base @ .., z0, z1, z2, z3, z4, z5, z6, z7], rest)) =
                    rest.split_first_chunk::<ALLOC_LEN>()
                else {
                    return Err(FormatError::Truncated);
                };
                sink.alloc(AllocEvent {
                    site: AllocSiteId(u32_from_le([s0, s1, s2, s3])),
                    base: RawAddress(u64_from_le(base)),
                    size: u64_from_le([z0, z1, z2, z3, z4, z5, z6, z7]),
                });
                rest
            }
            TAG_FREE => {
                let Some((&base, rest)) = rest.split_first_chunk::<FREE_LEN>() else {
                    return Err(FormatError::Truncated);
                };
                sink.free(FreeEvent {
                    base: RawAddress(u64_from_le(base)),
                });
                rest
            }
            _ => return Err(FormatError::Malformed("unknown trace record tag")),
        };
    }
    if !r.is_empty() {
        return Err(FormatError::Malformed("trailing bytes in trace batch"));
    }
    Ok(count)
}

fn access_kind(byte: u8) -> Result<AccessKind, FormatError> {
    match byte {
        0 => Ok(AccessKind::Load),
        1 => Ok(AccessKind::Store),
        _ => Err(FormatError::Malformed("bad access kind")),
    }
}

/// The error for an access record cut short. The kind byte is judged
/// as soon as the instruction and kind/size bytes are present, so a bad
/// kind outranks a missing address, exactly as a field-by-field reader
/// reports it.
fn short_access(rest: &[u8]) -> FormatError {
    match rest.get(4..6) {
        Some(&[kind, _]) => access_kind(kind).err().unwrap_or(FormatError::Truncated),
        _ => FormatError::Truncated,
    }
}

/// The read step of trace replay and the `orpd` reader: decodes the
/// next frame into `sink` and returns its record count, or `None` at
/// the terminator. Open `container` with [`MAX_FRAME_BYTES`] as its
/// chunk limit.
///
/// # Errors
///
/// [`FormatError::UnknownChunk`] for any chunk but `TRCE`,
/// [`FormatError::Malformed`] for a count over [`FRAME_EVENTS`], and
/// everything `next_chunk` and [`decode_batch`] return.
pub fn next_frame<R: Read>(
    container: &mut ContainerReader<R>,
    sink: &mut dyn ProbeSink,
) -> Result<Option<u64>, FormatError> {
    let Some(chunk) = container.next_chunk()? else {
        return Ok(None);
    };
    if chunk.tag != ChunkTag::TRACE {
        return Err(FormatError::UnknownChunk(chunk.tag));
    }
    if read_varint(&mut chunk.payload.as_slice())? > FRAME_EVENTS as u64 {
        return Err(FormatError::Malformed("TRCE frame over FRAME_EVENTS"));
    }
    decode_batch(&chunk.payload, sink).map(Some)
}

/// Replays a trace container into any probe sink, returning the number
/// of events replayed.
///
/// # Errors
///
/// Typed [`FormatError`]s: bad magic, unsupported versions, checksum
/// mismatches, truncation, unknown chunks, and malformed records.
pub fn replay(r: &mut impl Read, sink: &mut dyn ProbeSink) -> Result<u64, FormatError> {
    replay_counted(r, sink).map(|(events, _)| events)
}

/// [`replay`], additionally returning the container-level read totals
/// (chunks and framed bytes, CRC-verified) for run reporting.
///
/// # Errors
///
/// As [`replay`].
pub fn replay_counted(
    r: &mut impl Read,
    sink: &mut dyn ProbeSink,
) -> Result<(u64, IoStats), FormatError> {
    let mut container = ContainerReader::new(&mut *r)?.with_chunk_limit(MAX_FRAME_BYTES);
    let kind = container.read_meta()?;
    if kind != ProfileKind::Trace {
        return Err(FormatError::WrongKind { found: kind.code() });
    }
    let mut events = 0u64;
    while let Some(n) = next_frame(&mut container, sink)? {
        events += n;
    }
    let stats = container.io_stats();
    // A trace file holds exactly one container; anything after the
    // terminator is damage.
    if r.read(&mut [0u8; 1])? != 0 {
        return Err(FormatError::Malformed("trailing data after terminator"));
    }
    sink.finish();
    Ok((events, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecSink;
    use orp_format::{read_u32_le, read_u64_le};

    /// Serializes a slice of probe events through a [`TraceWriter`].
    fn to_bytes(events: &[ProbeEvent]) -> io::Result<Vec<u8>> {
        let mut writer = TraceWriter::new(Vec::new())?;
        for &ev in events {
            writer.event(ev);
        }
        writer.into_inner()
    }

    /// The field-by-field `read_exact` decoder the slice parser
    /// replaced, kept as the error-parity reference.
    fn decode_batch_reference(
        payload: &[u8],
        sink: &mut dyn ProbeSink,
    ) -> Result<u64, FormatError> {
        let mut r = payload;
        let count = read_varint(&mut r)?;
        for _ in 0..count {
            let mut tag = [0u8; 1];
            r.read_exact(&mut tag)?;
            match tag[0] {
                TAG_ACCESS => {
                    let instr = InstrId(read_u32_le(&mut r)?);
                    let mut meta = [0u8; 2];
                    r.read_exact(&mut meta)?;
                    let [kind_byte, size] = meta;
                    let kind = match kind_byte {
                        0 => AccessKind::Load,
                        1 => AccessKind::Store,
                        _ => return Err(FormatError::Malformed("bad access kind")),
                    };
                    let addr = RawAddress(read_u64_le(&mut r)?);
                    sink.access(AccessEvent {
                        instr,
                        kind,
                        addr,
                        size,
                    });
                }
                TAG_ALLOC => {
                    sink.alloc(AllocEvent {
                        site: AllocSiteId(read_u32_le(&mut r)?),
                        base: RawAddress(read_u64_le(&mut r)?),
                        size: read_u64_le(&mut r)?,
                    });
                }
                TAG_FREE => {
                    sink.free(FreeEvent {
                        base: RawAddress(read_u64_le(&mut r)?),
                    });
                }
                _ => return Err(FormatError::Malformed("unknown trace record tag")),
            }
        }
        if !r.is_empty() {
            return Err(FormatError::Malformed("trailing bytes in trace batch"));
        }
        Ok(count)
    }

    /// Decodes `payload` with both decoders and requires the same
    /// outcome: the same result or error variant (compared through
    /// `Debug`, which spells out the variant and its message) and the
    /// same events delivered before it.
    fn assert_parity(payload: &[u8], what: &str) {
        let mut got_sink = VecSink::new();
        let got = decode_batch(payload, &mut got_sink);
        let mut want_sink = VecSink::new();
        let want = decode_batch_reference(payload, &mut want_sink);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
        assert_eq!(got_sink.events(), want_sink.events(), "{what}");
    }

    #[test]
    fn decode_errors_match_the_field_by_field_reader() {
        let events = sample_events();
        let payload = encode_batch(&events).unwrap();
        assert_parity(&payload, "clean batch");
        for len in 0..payload.len() {
            assert_parity(&payload[..len], &format!("truncated to {len} bytes"));
        }
        // Every byte through every tag, kind and boundary value, whole
        // and cut short after it: bad kinds, unknown tags and count
        // varints that disagree with the records.
        for pos in 0..payload.len() {
            for value in [0u8, 1, 2, 3, 0x7F, 0x80, 0xFF] {
                let mut damaged = payload.clone();
                damaged[pos] = value;
                assert_parity(&damaged, &format!("byte {pos} set to {value:#x}"));
                for len in pos + 1..damaged.len() {
                    assert_parity(
                        &damaged[..len],
                        &format!("byte {pos} = {value:#x}, cut at {len}"),
                    );
                }
            }
        }
        let mut trailing = payload.clone();
        trailing.extend_from_slice(&[TAG_FREE, 0, 0]);
        assert_parity(&trailing, "trailing bytes");
        assert!(matches!(
            decode_batch(&trailing, &mut VecSink::new()),
            Err(FormatError::Malformed("trailing bytes in trace batch"))
        ));
    }

    #[test]
    fn decode_error_variants_are_typed() {
        let payload = encode_batch(&sample_events()).unwrap();
        // sample_events: alloc (1+20), load (1+14), store (1+14), free (1+8).
        let load = 1 + 21;
        let decode = |bytes: &[u8]| decode_batch(bytes, &mut VecSink::new());
        assert!(matches!(
            decode(&payload[..load + 3]),
            Err(FormatError::Truncated)
        ));
        let mut bad_kind = payload.clone();
        bad_kind[load + 5] = 9;
        assert!(matches!(
            decode(&bad_kind),
            Err(FormatError::Malformed("bad access kind"))
        ));
        // The kind byte is judged before the missing address.
        assert!(matches!(
            decode(&bad_kind[..load + 7]),
            Err(FormatError::Malformed("bad access kind"))
        ));
        let mut bad_tag = payload.clone();
        bad_tag[load] = 0x42;
        assert!(matches!(
            decode(&bad_tag),
            Err(FormatError::Malformed("unknown trace record tag"))
        ));
    }

    fn sample_events() -> Vec<ProbeEvent> {
        vec![
            ProbeEvent::Alloc(AllocEvent {
                site: AllocSiteId(2),
                base: RawAddress(0x100),
                size: 64,
            }),
            ProbeEvent::Access(AccessEvent::load(InstrId(7), RawAddress(0x108), 8)),
            ProbeEvent::Access(AccessEvent::store(InstrId(8), RawAddress(0x110), 4)),
            ProbeEvent::Free(FreeEvent {
                base: RawAddress(0x100),
            }),
        ]
    }

    #[test]
    fn record_replay_roundtrip() {
        let bytes = to_bytes(&sample_events()).unwrap();
        let mut sink = VecSink::new();
        let n = replay(&mut bytes.as_slice(), &mut sink).unwrap();
        assert_eq!(n, 4);
        assert_eq!(sink.events(), sample_events().as_slice());
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = to_bytes(&[]).unwrap();
        let mut sink = VecSink::new();
        assert_eq!(replay(&mut bytes.as_slice(), &mut sink).unwrap(), 0);
        assert!(sink.is_empty());
    }

    #[test]
    fn multi_batch_trace_roundtrips() {
        // Enough events to cross the batch boundary at least twice.
        let mut events = Vec::new();
        for i in 0..(2 * FRAME_EVENTS as u64 + 17) {
            events.push(ProbeEvent::Access(AccessEvent::load(
                InstrId(i as u32),
                RawAddress(0x1000 + i * 8),
                8,
            )));
        }
        let bytes = to_bytes(&events).unwrap();
        let mut sink = VecSink::new();
        let n = replay(&mut bytes.as_slice(), &mut sink).unwrap();
        assert_eq!(n, events.len() as u64);
        assert_eq!(sink.events(), events.as_slice());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = to_bytes(&sample_events()).unwrap();
        bytes[0] = b'X';
        let mut sink = VecSink::new();
        assert!(matches!(
            replay(&mut bytes.as_slice(), &mut sink),
            Err(FormatError::BadMagic)
        ));
    }

    #[test]
    fn truncated_record_is_rejected() {
        let mut bytes = to_bytes(&sample_events()).unwrap();
        bytes.truncate(bytes.len() - 3);
        let mut sink = VecSink::new();
        assert!(matches!(
            replay(&mut bytes.as_slice(), &mut sink),
            Err(FormatError::Truncated)
        ));
    }

    #[test]
    fn bit_flip_is_a_checksum_mismatch() {
        let bytes = to_bytes(&sample_events()).unwrap();
        // Flip one bit inside every byte position in turn; each must be
        // caught (header positions as BadMagic/UnsupportedVersion/
        // Truncated, payload positions as ChecksumMismatch) — never a
        // silent success with altered events.
        let clean: Vec<ProbeEvent> = sample_events();
        for pos in 0..bytes.len() {
            let mut damaged = bytes.clone();
            damaged[pos] ^= 0x40;
            let mut sink = VecSink::new();
            match replay(&mut damaged.as_slice(), &mut sink) {
                Err(_) => {}
                Ok(n) => {
                    // A flip in a length varint's padding can in theory
                    // still parse; events must then be unchanged.
                    assert_eq!(n, 4, "flip at {pos} silently altered the trace");
                    assert_eq!(sink.events(), clean.as_slice());
                }
            }
        }
    }

    #[test]
    fn unknown_record_tag_is_rejected() {
        // Hand-craft a container whose TRCE batch holds a bogus record
        // tag: the envelope is intact (CRC valid) but the payload is
        // malformed.
        let mut payload = Vec::new();
        write_varint(&mut payload, 1).unwrap();
        payload.push(0x7F);
        let mut container = ContainerWriter::new(Vec::new()).unwrap();
        container.meta(ProfileKind::Trace).unwrap();
        container.chunk(ChunkTag::TRACE, &payload).unwrap();
        let bytes = container.finish().unwrap();
        let mut sink = VecSink::new();
        assert!(matches!(
            replay(&mut bytes.as_slice(), &mut sink),
            Err(FormatError::Malformed(_))
        ));
    }

    /// A trace container holding one `TRCE` chunk with `payload`.
    fn one_frame_trace(payload: &[u8]) -> Vec<u8> {
        let mut container = ContainerWriter::new(Vec::new()).unwrap();
        container.meta(ProfileKind::Trace).unwrap();
        container.chunk(ChunkTag::TRACE, payload).unwrap();
        container.finish().unwrap()
    }

    #[test]
    fn a_full_frame_of_the_widest_record_fills_max_frame_bytes() {
        assert_eq!(MAX_FRAME_BYTES, 86_018);
        let alloc = sample_events()[0];
        let payload = encode_batch(&vec![alloc; FRAME_EVENTS]).unwrap();
        assert_eq!(payload.len() as u64, MAX_FRAME_BYTES);
        let mut sink = VecSink::new();
        let n = replay(&mut one_frame_trace(&payload).as_slice(), &mut sink).unwrap();
        assert_eq!(n, FRAME_EVENTS as u64);
    }

    #[test]
    fn a_frame_over_frame_events_is_refused_before_decoding() {
        let free = sample_events()[3];
        let payload = encode_batch(&vec![free; FRAME_EVENTS + 1]).unwrap();
        let mut sink = VecSink::new();
        assert!(matches!(
            replay(&mut one_frame_trace(&payload).as_slice(), &mut sink),
            Err(FormatError::Malformed("TRCE frame over FRAME_EVENTS"))
        ));
        assert!(sink.is_empty(), "no record of the refused frame is fed");
    }

    #[test]
    fn a_chunk_length_over_max_frame_bytes_is_refused_without_its_payload() {
        // The length field alone: the reader must refuse it without
        // waiting for (or buffering) the payload it announces.
        let mut container = ContainerWriter::new(Vec::new()).unwrap();
        container.meta(ProfileKind::Trace).unwrap();
        let mut bytes = container.get_mut().clone();
        bytes.extend_from_slice(&ChunkTag::TRACE.0);
        write_varint(&mut bytes, MAX_FRAME_BYTES + 1).unwrap();
        let mut sink = VecSink::new();
        assert!(matches!(
            replay(&mut bytes.as_slice(), &mut sink),
            Err(FormatError::Oversize { len }) if len == MAX_FRAME_BYTES + 1
        ));
    }

    #[test]
    fn wrong_profile_kind_is_rejected() {
        let mut buf = Vec::new();
        orp_format::write_single_chunk(&mut buf, ProfileKind::Grammar, b"").unwrap();
        let mut sink = VecSink::new();
        assert!(matches!(
            replay(&mut buf.as_slice(), &mut sink),
            Err(FormatError::WrongKind { .. })
        ));
    }

    #[test]
    fn write_failure_is_latched_and_surfaces_at_into_inner() {
        use orp_format::{FailingWrite, FaultPlan};
        // Count the header's write ops, then arrange for the first
        // batch flush to be the failing op.
        let probe = FaultPlan::parse("io-error@n=1000000").unwrap();
        let w = TraceWriter::new(FailingWrite::new(Vec::new(), probe.clone())).unwrap();
        drop(w);
        let header_ops = probe.ops();

        let plan = FaultPlan::parse(&format!("io-error@n={}", header_ops + 1)).unwrap();
        let mut w = TraceWriter::new(FailingWrite::new(Vec::new(), plan)).unwrap();
        assert!(w.error().is_none());
        for i in 0..(2 * FRAME_EVENTS as u64) {
            w.event(ProbeEvent::Access(AccessEvent::load(
                InstrId(i as u32),
                RawAddress(0x1000),
                8,
            )));
        }
        // The first flush failed and latched; later events were counted
        // but not written, and no panic escaped into the probe side.
        assert!(w.error().is_some());
        assert_eq!(w.events(), 2 * FRAME_EVENTS as u64);
        w.finish();
        let err = w.into_inner().expect_err("latched error must surface");
        assert!(err.to_string().contains("injected"), "{err}");
    }

    #[test]
    fn header_write_failure_surfaces_at_construction() {
        use orp_format::{FailingWrite, FaultPlan};
        let plan = FaultPlan::parse("io-error@n=1").unwrap();
        assert!(TraceWriter::new(FailingWrite::new(Vec::new(), plan)).is_err());
    }

    #[test]
    fn writer_counts_events() {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for ev in sample_events() {
            w.event(ev);
        }
        assert_eq!(w.events(), 4);
    }
}
