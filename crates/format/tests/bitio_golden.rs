//! Golden-stream equivalence: the word-at-a-time bit I/O must emit the
//! exact byte stream of a bit-by-bit reference writer for every width
//! and any interleaving, and the readers must decode identically. The
//! references live here, in [`naive`], not in the library.

use naive::{NaiveBitReader, NaiveBitWriter};
use sdformat::{BitReader, BitWriter};
use sdheap::rng::Rng;

/// The bit-by-bit writer and reader the word-at-a-time ones replaced.
mod naive {
    #[derive(Default)]
    pub struct NaiveBitWriter {
        bytes: Vec<u8>,
        /// Bits already used in the last byte (0 = last byte is full/absent).
        partial: u8,
    }

    impl NaiveBitWriter {
        pub fn new() -> Self {
            Self::default()
        }

        pub fn push(&mut self, bit: bool) {
            if self.partial == 0 {
                self.bytes.push(0);
            }
            if bit {
                let last = self.bytes.last_mut().expect("just pushed");
                *last |= 1 << (7 - self.partial);
            }
            self.partial = (self.partial + 1) % 8;
        }

        pub fn push_bits(&mut self, value: u64, n: u32) {
            for i in (0..n).rev() {
                self.push((value >> i) & 1 == 1);
            }
        }

        pub fn push_slice(&mut self, bits: &[bool]) {
            for &b in bits {
                self.push(b);
            }
        }

        pub fn pad_to_byte(&mut self) -> u32 {
            let pad = (8 - u32::from(self.partial)) % 8;
            for _ in 0..pad {
                self.push(false);
            }
            pad
        }

        pub fn bit_len(&self) -> usize {
            if self.partial == 0 {
                self.bytes.len() * 8
            } else {
                (self.bytes.len() - 1) * 8 + self.partial as usize
            }
        }

        pub fn into_bytes(mut self) -> Vec<u8> {
            self.pad_to_byte();
            self.bytes
        }
    }

    pub struct NaiveBitReader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> NaiveBitReader<'a> {
        pub fn new(bytes: &'a [u8]) -> Self {
            NaiveBitReader { bytes, pos: 0 }
        }

        pub fn next_bit(&mut self) -> Option<bool> {
            let byte = self.bytes.get(self.pos / 8)?;
            let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
            self.pos += 1;
            Some(bit)
        }

        pub fn read_bits(&mut self, n: u32) -> Option<u64> {
            if self.bytes.len() * 8 - self.pos < n as usize {
                return None;
            }
            let mut v = 0u64;
            for _ in 0..n {
                v = (v << 1) | u64::from(self.next_bit().expect("checked remaining"));
            }
            Some(v)
        }
    }
}

/// Every width n ∈ 0..=64, across every starting bit offset within a
/// byte, produces identical bytes.
#[test]
fn all_widths_at_all_offsets_match_naive() {
    for n in 0..=64u32 {
        for offset in 0..8u32 {
            let mut fast = BitWriter::new();
            let mut slow = NaiveBitWriter::new();
            fast.push_bits(u64::MAX, offset);
            slow.push_bits(u64::MAX, offset);
            fast.push_bits(0xA5A5_A5A5_A5A5_A5A5, n);
            slow.push_bits(0xA5A5_A5A5_A5A5_A5A5, n);
            assert_eq!(
                fast.into_bytes(),
                slow.into_bytes(),
                "width {n} at offset {offset}"
            );
        }
    }
}

/// Seeded random sequences of mixed-width pushes, single bits, slices
/// and pads produce identical streams.
#[test]
fn random_push_sequences_match_naive() {
    let mut rng = Rng::new(0xB17_601D);
    for round in 0..50 {
        let mut fast = BitWriter::new();
        let mut slow = NaiveBitWriter::new();
        for _ in 0..rng.gen_range_usize(1, 200) {
            match rng.gen_range_u64(0, 4) {
                0 => {
                    let n = rng.gen_range_u64(0, 65) as u32;
                    let v = rng.next_u64();
                    fast.push_bits(v, n);
                    slow.push_bits(v, n);
                }
                1 => {
                    let b = rng.gen_bool(0.5);
                    fast.push(b);
                    slow.push(b);
                }
                2 => {
                    let bits: Vec<bool> = (0..rng.gen_range_usize(0, 150))
                        .map(|_| rng.gen_bool(0.5))
                        .collect();
                    fast.push_slice(&bits);
                    slow.push_slice(&bits);
                }
                _ => {
                    assert_eq!(fast.pad_to_byte(), slow.pad_to_byte());
                }
            }
            assert_eq!(fast.bit_len(), slow.bit_len(), "round {round}");
        }
        assert_eq!(fast.into_bytes(), slow.into_bytes(), "round {round}");
    }
}

/// Pads every seventh push, with widths cycling through 0..=64.
#[test]
fn interleaved_pads_and_pushes_match_naive() {
    let mut fast = BitWriter::new();
    let mut slow = NaiveBitWriter::new();
    for i in 0..100u64 {
        let n = (i % 65) as u32;
        fast.push_bits(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), n);
        slow.push_bits(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), n);
        if i % 7 == 0 {
            assert_eq!(fast.pad_to_byte(), slow.pad_to_byte());
        }
        assert_eq!(fast.bit_len(), slow.bit_len());
    }
    assert_eq!(fast.into_bytes(), slow.into_bytes());
}

/// The word-window reader decodes identically to the bit-by-bit
/// reference for random streams and random read widths.
#[test]
fn readers_decode_identically() {
    let mut rng = Rng::new(0xB17_602D);
    for _ in 0..50 {
        let bytes: Vec<u8> = (0..rng.gen_range_usize(1, 128))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let mut fast = BitReader::new(&bytes);
        let mut slow = NaiveBitReader::new(&bytes);
        loop {
            let n = rng.gen_range_u64(0, 65) as u32;
            let a = fast.read_bits(n);
            let b = slow.read_bits(n);
            assert_eq!(a, b);
            if a.is_none() {
                // Both exhausted: single-bit reads agree too.
                assert_eq!(fast.next_bit(), slow.next_bit());
                break;
            }
        }
    }
}

/// Reads that straddle the maximum 9-byte window (offset 7, width 64)
/// are exact.
#[test]
fn max_straddle_reads_are_exact() {
    let mut w = BitWriter::new();
    w.push_bits(0x7F, 7); // misalign by 7
    w.push_bits(0xDEAD_BEEF_CAFE_F00D, 64);
    let bytes = w.into_bytes();
    let mut r = BitReader::new(&bytes);
    assert_eq!(r.read_bits(7), Some(0x7F));
    assert_eq!(r.read_bits(64), Some(0xDEAD_BEEF_CAFE_F00D));
}
