//! Shared integer codecs: LEB128 varints and zigzag signed mapping.
//!
//! Every payload encoding in the workspace that needs variable-width
//! integers uses these routines; the per-crate copies that used to live
//! in `orp_sequitur::io`, `orp_trace::io` and `orp_lmad::io` are gone.
//! The length model ([`varint_len`]) is part of the paper-facing cost
//! accounting (grammar sizes in Table 1 are computed from it), so the
//! encoding is frozen: little-endian base-128 with a continuation bit,
//! at most 10 bytes for a `u64`.

use std::io::{self, Read, Write};

/// Writes a LEB128 varint.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_varint(w: &mut impl Write, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

/// Reads a LEB128 varint.
///
/// # Errors
///
/// Propagates reader errors; rejects encodings longer than 10 bytes.
pub fn read_varint(r: &mut impl Read) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut buf = [0u8; 1];
        r.read_exact(&mut buf)?;
        let [byte] = buf;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint too long",
            ));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Number of bytes [`write_varint`] emits for `v`.
///
/// ```
/// assert_eq!(orp_format::varint_len(0), 1);
/// assert_eq!(orp_format::varint_len(127), 1);
/// assert_eq!(orp_format::varint_len(128), 2);
/// assert_eq!(orp_format::varint_len(u64::MAX), 10);
/// ```
#[must_use]
pub const fn varint_len(v: u64) -> u64 {
    if v == 0 {
        return 1;
    }
    (64 - v.leading_zeros() as u64).div_ceil(7)
}

/// Maps a signed integer onto the unsigned varint space
/// (0, -1, 1, -2, … → 0, 1, 2, 3, …) so small magnitudes of either
/// sign stay short.
///
/// ```
/// assert_eq!(orp_format::zigzag_encode(0), 0);
/// assert_eq!(orp_format::zigzag_encode(-1), 1);
/// assert_eq!(orp_format::zigzag_encode(1), 2);
/// ```
#[must_use]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
///
/// ```
/// for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
///     assert_eq!(orp_format::zigzag_decode(orp_format::zigzag_encode(v)), v);
/// }
/// ```
#[must_use]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes a fixed-width little-endian `u64`.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_u64_le(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a fixed-width little-endian `u64`.
///
/// # Errors
///
/// Propagates reader errors.
pub fn read_u64_le(r: &mut impl Read) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Writes a fixed-width little-endian `i64`.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_i64_le(w: &mut impl Write, v: i64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a fixed-width little-endian `i64`.
///
/// # Errors
///
/// Propagates reader errors.
pub fn read_i64_le(r: &mut impl Read) -> io::Result<i64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(i64::from_le_bytes(buf))
}

/// Writes a fixed-width little-endian `u32`.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_u32_le(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Reads a fixed-width little-endian `u32`.
///
/// # Errors
///
/// Propagates reader errors.
pub fn read_u32_le(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Decodes a fixed-width little-endian `u32` from its bytes: the
/// slice-parsing counterpart of [`read_u32_le`], for decoders that
/// split whole fixed-width records off a buffer.
#[must_use]
#[inline]
pub fn u32_from_le(bytes: [u8; 4]) -> u32 {
    u32::from_le_bytes(bytes)
}

/// Decodes a fixed-width little-endian `u64` from its bytes (see
/// [`u32_from_le`]).
#[must_use]
#[inline]
pub fn u64_from_le(bytes: [u8; 8]) -> u64 {
    u64::from_le_bytes(bytes)
}

/// Writes a zigzag-mapped signed varint.
///
/// # Errors
///
/// Propagates writer errors.
pub fn write_zigzag(w: &mut impl Write, v: i64) -> io::Result<()> {
    write_varint(w, zigzag_encode(v))
}

/// Reads a zigzag-mapped signed varint.
///
/// # Errors
///
/// Propagates reader errors; rejects encodings longer than 10 bytes.
pub fn read_zigzag(r: &mut impl Read) -> io::Result<i64> {
    Ok(zigzag_decode(read_varint(r)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_and_length_model() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            (1 << 35) - 1,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(buf.len() as u64, varint_len(v), "length model for {v}");
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0x80u8; 11];
        assert!(read_varint(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_varint_is_rejected() {
        let buf = [0x80u8; 3];
        assert!(read_varint(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            write_zigzag(&mut buf, v).unwrap();
            assert_eq!(read_zigzag(&mut buf.as_slice()).unwrap(), v);
        }
    }
}
