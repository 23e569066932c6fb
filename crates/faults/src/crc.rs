//! CRC-32 (IEEE 802.3 polynomial) — the per-transfer integrity check.
//!
//! PIMnet transfers are statically scheduled, so the receiver knows exactly
//! which bytes to expect in which step; a CRC mismatch on the expected
//! window is the hardware's only signal that a transient DQ/link error
//! happened. This module is the implementation both the functional
//! executor and the tests use. Its one kernel is slicing-by-8 over
//! little-endian `u64` words ([`Crc32::update_words`]): the executor
//! streams a payload's wire words straight into it, and byte input
//! reaches it 8 bytes at a time.

const POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 tables of the reflected CRC-32. `TABLES[0]` is the
/// classic byte table; `TABLES[k][b]` is the CRC contribution of byte `b`
/// followed by `k` zero bytes, so one lookup per byte folds a whole
/// little-endian `u64` at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Streaming CRC-32 state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh checksum.
    #[must_use]
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds bytes into the checksum: whole 8-byte chunks through
    /// [`update_words`](Self::update_words), the tail a byte at a time.
    pub fn update(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(8);
        self.update_words(
            chunks
                .by_ref()
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"))),
        );
        for &b in chunks.remainder() {
            let idx = ((self.state ^ u32::from(b)) & 0xFF) as usize;
            self.state = (self.state >> 8) ^ TABLES[0][idx];
        }
    }

    /// Feeds each word as its 8 little-endian bytes (the slicing-by-8
    /// kernel): equal to [`update`](Self::update) over the concatenated
    /// `to_le_bytes`, without materializing them.
    pub fn update_words(&mut self, words: impl IntoIterator<Item = u64>) {
        let mut state = self.state;
        for w in words {
            let x = w ^ u64::from(state);
            let byte = |k: u32| ((x >> (8 * k)) & 0xFF) as usize;
            state = TABLES[7][byte(0)]
                ^ TABLES[6][byte(1)]
                ^ TABLES[5][byte(2)]
                ^ TABLES[4][byte(3)]
                ^ TABLES[3][byte(4)]
                ^ TABLES[2][byte(5)]
                ^ TABLES[1][byte(6)]
                ^ TABLES[0][byte(7)];
        }
        self.state = state;
    }

    /// Finalized checksum value.
    #[must_use]
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of a byte slice.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = [0x55u8; 64];
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data;
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), clean, "missed flip at {byte}.{bit}");
            }
        }
    }

    /// The byte-at-a-time fold over the classic table: the reference
    /// the slicing-by-8 kernel must reproduce.
    fn bytewise(data: &[u8]) -> u32 {
        let mut state = 0xFFFF_FFFFu32;
        for &b in data {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(b)) & 0xFF) as usize];
        }
        state ^ 0xFFFF_FFFF
    }

    #[test]
    fn update_words_equals_update_over_le_bytes() {
        let mut rng = pim_sim::rng::SimRng::seed_from_u64(0xC3C3);
        for len in 0..=97usize {
            let words: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let mut streamed = Crc32::new();
            streamed.update_words(words.iter().copied());
            assert_eq!(streamed.finish(), crc32(&bytes), "{len} words");
            assert_eq!(crc32(&bytes), bytewise(&bytes), "{len} words");
            // Ragged byte lengths exercise `update`'s byte tail.
            let ragged = &bytes[..bytes.len().saturating_sub(len % 8)];
            assert_eq!(crc32(ragged), bytewise(ragged), "{len} words, ragged");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255).collect();
        let mut c = Crc32::new();
        c.update(&data[..100]);
        c.update(&data[100..]);
        assert_eq!(c.finish(), crc32(&data));
    }
}
