//! Bit-granular readers and writers.
//!
//! Bits are appended in stream order; within each byte, the first bit
//! written occupies the most significant position (matching how the
//! paper's Fig. 5 draws packed bit strings left-to-right).
//!
//! The writer and reader operate word-at-a-time: bits accumulate in a
//! `u64` (left-aligned, stream order = descending significance) and
//! spill to the byte vector eight bytes at a time, so a `push_bits` of
//! any width costs a couple of shift/mask/OR operations instead of one
//! call per bit. Streams and reads are bit-identical to a bit-by-bit
//! writer and reader, which `tests/bitio_golden.rs` keeps as its
//! reference.

/// Append-only bit stream writer.
#[derive(Clone, Debug, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, left-aligned: the first pending bit is bit 63.
    acc: u64,
    /// Number of pending bits in `acc` (0..=63 between calls).
    nbits: u32,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        self.push_bits(u64::from(bit), 1);
    }

    /// Appends the `n` least-significant bits of `value`, most significant
    /// of those first.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    pub fn push_bits(&mut self, value: u64, n: u32) {
        assert!(n <= 64, "cannot push {n} bits");
        if n == 0 {
            return;
        }
        // Left-align the n payload bits (also discards anything above).
        let vtop = value << (64 - n);
        if self.nbits + n < 64 {
            self.acc |= vtop >> self.nbits;
            self.nbits += n;
        } else {
            // Fill the accumulator to exactly 64 bits, spill it, and keep
            // the remainder.
            let take = 64 - self.nbits;
            self.acc |= vtop >> self.nbits;
            self.bytes.extend_from_slice(&self.acc.to_be_bytes());
            let rem = n - take;
            self.nbits = rem;
            self.acc = if rem == 0 { 0 } else { vtop << take };
        }
    }

    /// Appends a slice of bits, packing 64 at a time.
    pub fn push_slice(&mut self, bits: &[bool]) {
        for chunk in bits.chunks(64) {
            let mut v = 0u64;
            for &b in chunk {
                v = (v << 1) | u64::from(b);
            }
            self.push_bits(v, chunk.len() as u32);
        }
    }

    /// Zero-pads to the next byte boundary and reports how many padding
    /// bits were added (0–7). Pending complete bytes spill to the vector,
    /// so this never leaves more than zero pending bits.
    pub fn pad_to_byte(&mut self) -> u32 {
        let pad = (8 - self.nbits % 8) % 8;
        self.nbits += pad; // padding bits are already zero in `acc`
        let full = (self.nbits / 8) as usize;
        self.bytes
            .extend_from_slice(&self.acc.to_be_bytes()[..full]);
        self.acc = 0;
        self.nbits = 0;
        pad
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.nbits as usize
    }

    /// Bytes written so far (the last byte may be partially filled).
    pub fn byte_len(&self) -> usize {
        self.bytes.len() + (self.nbits as usize).div_ceil(8)
    }

    /// Finishes the stream (zero-padding the final byte) and returns the
    /// bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.pad_to_byte();
        self.bytes
    }
}

/// Sequential bit stream reader.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize, // bit position
}

impl<'a> BitReader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit; `None` at end of stream.
    pub fn next_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `n` bits as an integer (first bit read is most significant).
    ///
    /// Returns `None` if fewer than `n` bits remain.
    ///
    /// # Panics
    /// Panics if `n > 64`.
    pub fn read_bits(&mut self, n: u32) -> Option<u64> {
        assert!(n <= 64, "cannot read {n} bits");
        if self.remaining() < n as usize {
            return None;
        }
        if n == 0 {
            return Some(0);
        }
        // A bit-offset read of ≤ 64 bits spans at most 9 bytes; fill a
        // 16-byte window (zero-padded at the tail) and extract with two
        // shifts.
        let start = self.pos / 8;
        let take = (self.bytes.len() - start).min(16);
        let mut buf = [0u8; 16];
        buf[..take].copy_from_slice(&self.bytes[start..start + take]);
        let window = u128::from_be_bytes(buf);
        let off = (self.pos % 8) as u32;
        self.pos += n as usize;
        Some(((window << off) >> (128 - n)) as u64)
    }

    /// Current bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Bits left in the stream.
    pub fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// Skips forward to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        self.pos = self.pos.div_ceil(8) * 8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [
            true, false, true, true, false, false, false, true, true, false,
        ];
        w.push_slice(&pattern);
        assert_eq!(w.bit_len(), 10);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &expect in &pattern {
            assert_eq!(r.next_bit(), Some(expect));
        }
        // Padding bits are zero.
        assert_eq!(r.next_bit(), Some(false));
    }

    #[test]
    fn msb_first_within_byte() {
        let mut w = BitWriter::new();
        w.push(true); // should land in bit 7
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1000_0000]);
    }

    #[test]
    fn push_bits_and_read_bits() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011, 4);
        w.push_bits(0x3ff, 10);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_bits(10), Some(0x3ff));
    }

    #[test]
    fn read_past_end_is_none() {
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0xff));
        assert_eq!(r.read_bits(1), None);
        assert_eq!(r.next_bit(), None);
    }

    #[test]
    fn pad_to_byte_counts_padding() {
        let mut w = BitWriter::new();
        w.push_bits(0b101, 3);
        assert_eq!(w.pad_to_byte(), 5);
        assert_eq!(w.pad_to_byte(), 0);
        assert_eq!(w.bit_len(), 8);
    }

    #[test]
    fn align_to_byte_skips() {
        let bytes = [0b1010_0000u8, 0xab];
        let mut r = BitReader::new(&bytes);
        r.read_bits(3);
        r.align_to_byte();
        assert_eq!(r.bit_pos(), 8);
        assert_eq!(r.read_bits(8), Some(0xab));
    }

    #[test]
    fn sixty_four_bit_values() {
        let mut w = BitWriter::new();
        w.push_bits(u64::MAX, 64);
        w.push_bits(0, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(64), Some(0));
    }

    #[test]
    fn byte_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.byte_len(), 0);
        w.push_bits(0b1, 1);
        assert_eq!(w.byte_len(), 1);
        w.push_bits(0, 7);
        assert_eq!(w.byte_len(), 1);
        w.push_bits(0, 1);
        assert_eq!(w.byte_len(), 2);
        w.push_bits(u64::MAX, 64);
        assert_eq!(w.byte_len(), 10);
        assert_eq!(w.bit_len(), 73);
    }
}
