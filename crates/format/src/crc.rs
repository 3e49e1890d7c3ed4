//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`).
//!
//! The build environment is offline, so the checksum is hand-rolled
//! rather than pulled from crates.io; the tables are computed at
//! compile time. [`Crc32::update`] folds eight bytes per step
//! (slicing-by-8) and finishes the tail bytewise. Output matches the
//! ubiquitous zlib/PNG CRC-32, which makes container checksums
//! verifiable with standard tools.

/// Slicing-by-8 tables: table 0 is the classic bytewise table, and
/// entry `i` of table `k` is the CRC of byte `i` followed by `k` zero
/// bytes, so eight lookups fold eight input bytes at once.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        // analyze: allow(no-panic): i < 256 by the loop bound; const-evaluated
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            // analyze: allow(no-panic): t < 8 and i < 256 by the loop bounds; const-evaluated
            let prev = tables[t - 1][i];
            // analyze: allow(no-panic): t < 8, i < 256, and a u8 index fits 256; const-evaluated
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// One table lookup, indexed by a byte.
#[inline]
fn at(table: &[u32; 256], byte: u8) -> u32 {
    // analyze: allow(no-panic): a u8 index into a 256-entry table is always in bounds
    table[usize::from(byte)]
}

/// Streaming CRC-32 state.
///
/// ```
/// let mut crc = orp_format::Crc32::new();
/// crc.update(b"123");
/// crc.update(b"456789");
/// assert_eq!(crc.finalize(), orp_format::crc32(b"123456789"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC_TABLES;
        let mut c = self.state;
        let mut rest = bytes;
        while let Some((&[b0, b1, b2, b3, b4, b5, b6, b7], tail)) = rest.split_first_chunk::<8>() {
            let [c0, c1, c2, c3] = c.to_le_bytes();
            c = at(t7, c0 ^ b0)
                ^ at(t6, c1 ^ b1)
                ^ at(t5, c2 ^ b2)
                ^ at(t4, c3 ^ b3)
                ^ at(t3, b4)
                ^ at(t2, b5)
                ^ at(t1, b6)
                ^ at(t0, b7);
            rest = tail;
        }
        for &b in rest {
            c = at(t0, (c as u8) ^ b) ^ (c >> 8);
        }
        self.state = c;
    }

    /// Returns the finished checksum.
    #[must_use]
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise CRC the sliced loop replaced: one table-0 lookup per
    /// byte.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = at(&CRC_TABLES[0], (c as u8) ^ b) ^ (c >> 8);
        }
        !c
    }

    proptest! {
        // Few cases under the interpreter: the property is cheap, Miri is not.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 16 } else { 512 }))]

        #[test]
        fn sliced_matches_bytewise_across_update_splits(
            bytes in proptest::collection::vec(any::<u8>(), 0..200),
            splits in proptest::collection::vec(0usize..200, 0..6),
        ) {
            let mut cuts: Vec<usize> = splits.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                crc.update(&bytes[from..cut]);
                from = cut;
            }
            crc.update(&bytes[from..]);
            prop_assert_eq!(crc.finalize(), bytewise(&bytes));
            prop_assert_eq!(crc32(&bytes), bytewise(&bytes));
        }
    }

    #[test]
    fn matches_reference_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let base = crc32(b"container payload");
        let mut flipped = b"container payload".to_vec();
        flipped[3] ^= 0x10;
        assert_ne!(crc32(&flipped), base);
    }
}
