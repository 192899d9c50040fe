//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) for storage integrity.
//!
//! Adler-32 is the repo's cheap *rolling* checksum, but its error detection
//! is weak on short inputs (the `a` sum covers only ~16 bits of state for
//! records under a few hundred bytes). Segment frames need a checksum whose
//! detection strength is independent of input length, so the record store
//! frames entries with CRC-32: any single burst ≤ 32 bits is detected, and
//! random corruption escapes with probability 2⁻³².
//!
//! Every store write and every verified read checksums the whole frame, so
//! CRC throughput bounds the store's hot path: a byte-at-a-time table loop
//! (~330 MiB/s) cost about as much per 22 KiB frame as the write itself.
//! This implementation is **slicing-by-16**: sixteen 256-entry tables, built
//! at compile time, let each iteration fold 16 input bytes into the state
//! with 16 independent table lookups instead of a 16-step serial chain.
//! The bytes that do not fill a 16-byte block go through the classic
//! bytewise loop (table 0). Output is identical to the bytewise form — and
//! to zlib's `crc32()` — for every input and every split of an incremental
//! update.

/// The reflected IEEE polynomial (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Computes the CRC-32 of `data` (IEEE, reflected, init/xorout `!0` —
/// identical to zlib's `crc32()`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finalize()
}

/// Incremental CRC-32, for checksumming data produced in pieces.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Feeds `data` into the checksum.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(16);
        for block in &mut blocks {
            let mut b: [u8; 16] = block.try_into().expect("chunks_exact yields 16 bytes");
            for (byte, s) in b[..4].iter_mut().zip(crc.to_le_bytes()) {
                *byte ^= s;
            }
            crc = 0;
            for (k, &byte) in b.iter().enumerate() {
                crc ^= TABLES[15 - k][usize::from(byte)];
            }
        }
        for &byte in blocks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][usize::from(crc as u8 ^ byte)];
        }
        self.state = crc;
    }

    /// Returns the final checksum value.
    #[inline]
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::SplitMix64;

    /// The byte-at-a-time table CRC the sliced loop replaced: the
    /// differential oracle.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    fn random_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Reference values from zlib's crc32().
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 256) as u8).collect();
        for split in [0usize, 1, 99, 500, 1000] {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finalize(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_always_detected() {
        let data = b"segment frame integrity check payload".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_oracle_every_short_length_and_offset() {
        let mut rng = SplitMix64::new(0xC3C3_2016);
        let buf = random_bytes(&mut rng, 300 + 16);
        for start in 0..16 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_oracle_random_lengths() {
        let mut rng = SplitMix64::new(0x5EED_C0DE);
        for _ in 0..64 {
            let len = rng.next_below(128 << 10) as usize + 1;
            let start = rng.next_below(16) as usize;
            let buf = random_bytes(&mut rng, start + len);
            assert_eq!(crc32(&buf[start..]), bytewise(&buf[start..]), "start {start} len {len}");
        }
    }

    #[test]
    fn sliced_update_matches_oracle_split_at_every_offset() {
        let mut rng = SplitMix64::new(0x0001_0240);
        let data = random_bytes(&mut rng, 1024);
        let want = bytewise(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn pinned_crc_of_one_mib_pseudo_random_buffer() {
        let mut rng = SplitMix64::new(42);
        let data = random_bytes(&mut rng, 1 << 20);
        assert_eq!(crc32(&data), bytewise(&data));
        // Independently computed with Python's `zlib.crc32` over the same
        // SplitMix64 byte stream.
        assert_eq!(crc32(&data), 0x2466_6A84);
    }
}
