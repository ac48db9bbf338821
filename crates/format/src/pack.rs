//! The object packing scheme (paper §IV-B, Fig. 5).
//!
//! Each item (a reference's relative address, or an object's layout
//! bitmap) is packed in two steps:
//!
//! 1. take the item's significant bits — for an integer, its minimal
//!    binary representation with leading zeros dropped (value 0 is the
//!    single bit `0`); for a bit string (layout bitmap), the string as-is —
//!    and append a terminating **end bit** `1`;
//! 2. place the bit string into 1 B buckets, zero-padding the final byte.
//!
//! An **end map** carries one bit per payload byte, set on each item's
//! final byte, so the unpacker can split items without explicit lengths:
//! read bytes until the end-map bit is set, strip the trailing zero
//! padding, strip the end bit, and the remaining prefix is the item.
//!
//! This is exactly invertible and much denser than either an 8 B length
//! per object or fixed-size buckets, the two alternatives the paper
//! rejects in §IV-A.

use crate::bitio::BitWriter;
use std::fmt;

/// One bit per payload byte; set bits mark the last byte of each packed
/// item.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EndMap {
    bits: Vec<u8>,
    len: usize,
}

impl EndMap {
    /// An empty end map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one end-map bit.
    pub fn push(&mut self, is_end: bool) {
        if self.len.is_multiple_of(8) {
            self.bits.push(0);
        }
        if is_end {
            *self.bits.last_mut().expect("just pushed") |= 1 << (7 - self.len % 8);
        }
        self.len += 1;
    }

    /// The bit for payload byte `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "end map index {i} out of range {}", self.len);
        (self.bits[i / 8] >> (7 - i % 8)) & 1 == 1
    }

    /// Number of payload bytes covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `n` bits ending an item: `n - 1` clear bits then one set
    /// bit, without per-bit calls.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn push_run(&mut self, n: usize) {
        assert!(n > 0, "an item covers at least one byte");
        let new_len = self.len + n;
        self.bits.resize(new_len.div_ceil(8), 0);
        let last = new_len - 1;
        self.bits[last / 8] |= 1 << (7 - last % 8);
        self.len = new_len;
    }

    /// Number of items (set bits) in the map, by byte popcount.
    pub fn item_count(&self) -> usize {
        let full = self.len / 8;
        let mut count: u32 = self.bits[..full].iter().map(|b| b.count_ones()).sum();
        let rem = self.len % 8;
        if rem > 0 {
            count += (self.bits[full] >> (8 - rem)).count_ones();
        }
        count as usize
    }

    /// Index of the first set bit in `[from, min(limit, len))`.
    ///
    /// Scans a u64 word (8 end-map bytes, i.e. 64 payload bytes) at a
    /// time with `leading_zeros`, so items spanning many bytes — the
    /// dense-graph regime, where one layout bitmap covers hundreds of
    /// payload bytes — cost one word op per 64 bytes instead of a
    /// byte-at-a-time loop.
    pub fn next_set(&self, from: usize, limit: usize) -> Option<usize> {
        let limit = limit.min(self.len);
        if from >= limit {
            return None;
        }
        // Bits past `len` inside the last byte are zero by construction
        // (`push`/`push_run` only ever set bits below `len`), so any set
        // bit found below is a real end mark; only `limit` needs checking.
        let end_byte = limit.div_ceil(8);
        let mut byte = from / 8;
        let first = self.bits[byte] & (0xFF >> (from % 8));
        if first != 0 {
            let idx = byte * 8 + first.leading_zeros() as usize;
            return (idx < limit).then_some(idx);
        }
        byte += 1;
        while byte + 8 <= end_byte {
            let word =
                u64::from_be_bytes(self.bits[byte..byte + 8].try_into().expect("8-byte slice"));
            if word != 0 {
                let idx = byte * 8 + word.leading_zeros() as usize;
                return (idx < limit).then_some(idx);
            }
            byte += 8;
        }
        while byte < end_byte {
            let cur = self.bits[byte];
            if cur != 0 {
                let idx = byte * 8 + cur.leading_zeros() as usize;
                return (idx < limit).then_some(idx);
            }
            byte += 1;
        }
        None
    }

    /// Backing bytes (for size accounting and wire encoding).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bits
    }

    /// Rebuilds from wire bytes plus the covered length.
    ///
    /// # Panics
    /// Panics if `bytes` is shorter than `len` requires.
    pub fn from_bytes(bytes: Vec<u8>, len: usize) -> Self {
        assert!(bytes.len() * 8 >= len, "end map bytes too short");
        EndMap { bits: bytes, len }
    }
}

/// A finished packed array: payload bytes plus the end map.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Packed {
    /// Packed payload bytes.
    pub bytes: Vec<u8>,
    /// End map over the payload.
    pub end_map: EndMap,
    /// Number of packed items.
    pub count: usize,
}

impl fmt::Debug for Packed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packed")
            .field("items", &self.count)
            .field("payload_bytes", &self.bytes.len())
            .field("end_map_bytes", &self.end_map.as_bytes().len())
            .finish()
    }
}

impl Packed {
    /// Total wire size: payload plus end map.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len() + self.end_map.as_bytes().len()
    }

    /// Packs a sequence of integer items (convenience over [`Packer`]).
    pub fn from_values(values: impl IntoIterator<Item = u64>) -> Packed {
        let mut p = Packer::new();
        for v in values {
            p.push_value(v);
        }
        p.finish()
    }

    /// Unpacks all items as integers (convenience over [`Unpacker`]).
    ///
    /// # Panics
    /// Panics if any item is longer than 64 bits — use [`Unpacker`] for
    /// bit-string items.
    pub fn to_values(&self) -> Vec<u64> {
        let mut u = Unpacker::new(self);
        // `count` may come from an untrusted wire header; every item
        // occupies at least one payload byte, so bound the reservation.
        let mut out = Vec::with_capacity(self.count.min(self.bytes.len()));
        while let Some(v) = u.next_value() {
            out.push(v);
        }
        out
    }
}

/// Incremental packer.
///
/// ```
/// use sdformat::pack::{Packer, Unpacker};
/// let mut p = Packer::new();
/// p.push_value(48);                       // a relative address
/// p.push_bits(&[false, false, true]);     // a layout bitmap
/// let packed = p.finish();
/// let mut u = Unpacker::new(&packed);
/// assert_eq!(u.next_value(), Some(48));
/// assert_eq!(u.next_item(), Some(vec![false, false, true]));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Packer {
    payload: BitWriter,
    end_map: EndMap,
    count: usize,
}

impl Packer {
    /// An empty packer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packs an integer item: minimal binary representation (leading
    /// zeros dropped; 0 → single `0` bit), end bit, byte padding.
    pub fn push_value(&mut self, value: u64) {
        let sig = 64 - value.leading_zeros();
        let sig = sig.max(1); // value 0 still contributes one bit
                              // Items always start byte-aligned (padding below), so byte_len()
                              // is exact here.
        let start_byte = self.payload.byte_len();
        self.payload.push_bits(value, sig);
        self.payload.push(true); // end bit
        self.payload.pad_to_byte();
        let end_byte = self.payload.byte_len();
        self.end_map.push_run(end_byte - start_byte);
        self.count += 1;
    }

    /// Packs a raw bit-string item (used for layout bitmaps, whose leading
    /// zeros are significant and therefore kept).
    pub fn push_bits(&mut self, bits: &[bool]) {
        let start_byte = self.payload.byte_len();
        self.payload.push_slice(bits);
        self.payload.push(true); // end bit
        self.payload.pad_to_byte();
        let end_byte = self.payload.byte_len();
        self.end_map.push_run(end_byte - start_byte);
        self.count += 1;
    }

    /// Number of items packed so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Finishes packing.
    pub fn finish(self) -> Packed {
        Packed {
            bytes: self.payload.into_bytes(),
            end_map: self.end_map,
            count: self.count,
        }
    }
}

/// Sequential unpacker over a [`Packed`] array.
#[derive(Clone, Debug)]
pub struct Unpacker<'a> {
    packed: &'a Packed,
    byte_pos: usize,
}

impl<'a> Unpacker<'a> {
    /// An unpacker positioned at the first item.
    pub fn new(packed: &'a Packed) -> Self {
        Unpacker {
            packed,
            byte_pos: 0,
        }
    }

    /// Byte range `[start, end]` of the next item, found by scanning the
    /// end map byte-at-a-time; `None` at end of stream or when the end
    /// map never marks an end (corrupt — terminate the stream).
    fn next_span(&mut self) -> Option<(usize, usize)> {
        if self.byte_pos >= self.packed.bytes.len() {
            return None;
        }
        let start = self.byte_pos;
        let limit = self.packed.bytes.len().min(self.packed.end_map.len());
        match self.packed.end_map.next_set(start, limit) {
            Some(end) => {
                self.byte_pos = end + 1;
                Some((start, end))
            }
            None => {
                // Corrupt: ran off the payload without an end mark.
                self.byte_pos = self.packed.bytes.len();
                None
            }
        }
    }

    /// Unpacks the next item as a bit string (end bit and padding
    /// removed); `None` at end of stream **or on corrupt data** (an end
    /// map that never marks an end, or an item with no end bit) — corrupt
    /// input degrades to early stream termination, never a panic.
    pub fn next_item(&mut self) -> Option<Vec<bool>> {
        let (start, end) = self.next_span()?;
        let slice = &self.packed.bytes[start..=end];
        // Locate the end bit: the lowest set bit of the final non-zero
        // byte. Everything after it is zero padding.
        let Some(last) = slice.iter().rposition(|&b| b != 0) else {
            // Corrupt: an all-zero item has no end bit.
            self.byte_pos = self.packed.bytes.len();
            return None;
        };
        let nbits = (last + 1) * 8 - 1 - slice[last].trailing_zeros() as usize;
        let mut bits: Vec<bool> = Vec::with_capacity(nbits);
        for i in 0..nbits {
            bits.push(slice[i / 8] & (1 << (7 - i % 8)) != 0);
        }
        Some(bits)
    }

    /// Bit length of the next item (end bit and padding excluded) without
    /// materializing it; same corruption semantics as
    /// [`Self::next_item`].
    pub fn next_item_len(&mut self) -> Option<usize> {
        let (start, end) = self.next_span()?;
        let slice = &self.packed.bytes[start..=end];
        let Some(last) = slice.iter().rposition(|&b| b != 0) else {
            self.byte_pos = self.packed.bytes.len();
            return None;
        };
        Some((last + 1) * 8 - 1 - slice[last].trailing_zeros() as usize)
    }

    /// Unpacks the next item as an integer; `None` at end of stream or on
    /// corrupt data (including items longer than 64 bits, which no valid
    /// integer item can be). Decodes straight from the payload bytes —
    /// no intermediate bit vector.
    pub fn next_value(&mut self) -> Option<u64> {
        let (start, end) = self.next_span()?;
        let slice = &self.packed.bytes[start..=end];
        // A valid integer item is ≤ 64 payload bits + end bit → ≤ 9 bytes.
        if slice.len() > 9 {
            self.byte_pos = self.packed.bytes.len();
            return None;
        }
        let mut buf = [0u8; 16];
        buf[..slice.len()].copy_from_slice(slice);
        // Right-align the item's bits so the zero padding and end bit sit
        // at the low end.
        let word = u128::from_be_bytes(buf) >> (128 - slice.len() * 8);
        if word == 0 {
            // Corrupt: an all-zero item has no end bit.
            self.byte_pos = self.packed.bytes.len();
            return None;
        }
        let tz = word.trailing_zeros(); // zero padding below the end bit
        let nbits = slice.len() * 8 - 1 - tz as usize;
        if nbits > 64 {
            self.byte_pos = self.packed.bytes.len();
            return None;
        }
        Some((word >> (tz + 1)) as u64)
    }

    /// Bytes consumed so far.
    pub fn byte_pos(&self) -> usize {
        self.byte_pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_paper_style_values() {
        // Small relative addresses pack into one byte each.
        let p = Packed::from_values([0u64, 1, 8, 64, 127]);
        assert_eq!(p.count, 5);
        assert_eq!(p.to_values(), vec![0, 1, 8, 64, 127]);
        // 0→2 bits, 1→2, 8→5, 64→8, 127→8: all fit in 1 byte each.
        assert_eq!(p.bytes.len(), 5);
        assert_eq!(p.end_map.item_count(), 5);
    }

    #[test]
    fn zero_packs_to_one_byte() {
        let p = Packed::from_values([0u64]);
        assert_eq!(p.bytes.len(), 1);
        // bits: value "0", end bit "1", padding → 0b0100_0000
        assert_eq!(p.bytes[0], 0b0100_0000);
        assert_eq!(p.to_values(), vec![0]);
    }

    #[test]
    fn large_values_span_bytes() {
        let v = 0xdead_beef_u64;
        let p = Packed::from_values([v]);
        // 32 significant bits + end bit = 33 bits → 5 bytes.
        assert_eq!(p.bytes.len(), 5);
        assert_eq!(p.to_values(), vec![v]);
    }

    #[test]
    fn max_u64_roundtrips() {
        let p = Packed::from_values([u64::MAX, 0, u64::MAX]);
        assert_eq!(p.to_values(), vec![u64::MAX, 0, u64::MAX]);
        // 64 sig bits + end bit = 65 bits → 9 bytes per item.
        assert_eq!(p.bytes.len(), 9 * 2 + 1);
    }

    #[test]
    fn bit_string_items_keep_leading_zeros() {
        let bitmap = vec![false, false, false, true, false, true];
        let mut p = Packer::new();
        p.push_bits(&bitmap);
        let packed = p.finish();
        let mut u = Unpacker::new(&packed);
        assert_eq!(u.next_item(), Some(bitmap));
        assert_eq!(u.next_item(), None);
    }

    #[test]
    fn bit_string_all_zeros() {
        // A bitmap of all zeros (object with no references) must survive.
        let bitmap = vec![false; 13];
        let mut p = Packer::new();
        p.push_bits(&bitmap);
        let packed = p.finish();
        assert_eq!(Unpacker::new(&packed).next_item(), Some(bitmap));
    }

    #[test]
    fn bit_string_trailing_ones() {
        // Trailing 1s in the item must not be confused with the end bit.
        let bitmap = vec![true, true, true, true, true, true, true]; // 7 ones
        let mut p = Packer::new();
        p.push_bits(&bitmap);
        let packed = p.finish();
        assert_eq!(Unpacker::new(&packed).next_item(), Some(bitmap));
    }

    #[test]
    fn exact_byte_boundary_item() {
        // 7 bits + end bit = exactly 8: no padding, next item starts clean.
        let bits = vec![true, false, true, false, true, false, true];
        let mut p = Packer::new();
        p.push_bits(&bits);
        p.push_value(5);
        let packed = p.finish();
        let mut u = Unpacker::new(&packed);
        assert_eq!(u.next_item(), Some(bits));
        assert_eq!(u.next_value(), Some(5));
    }

    #[test]
    fn long_bitmap_spans_many_bytes() {
        let bitmap: Vec<bool> = (0..1000).map(|i| i % 7 == 0).collect();
        let mut p = Packer::new();
        p.push_bits(&bitmap);
        let packed = p.finish();
        assert_eq!(Unpacker::new(&packed).next_item(), Some(bitmap));
        assert_eq!(packed.bytes.len(), (1000usize + 1).div_ceil(8)); // 126 bytes
    }

    #[test]
    fn mixed_stream_in_order() {
        let mut p = Packer::new();
        p.push_value(300);
        p.push_bits(&[false, true, false]);
        p.push_value(0);
        assert_eq!(p.count(), 3);
        let packed = p.finish();
        let mut u = Unpacker::new(&packed);
        assert_eq!(u.next_value(), Some(300));
        assert_eq!(u.next_item(), Some(vec![false, true, false]));
        assert_eq!(u.next_value(), Some(0));
        assert_eq!(u.next_item(), None);
        assert_eq!(u.byte_pos(), packed.bytes.len());
    }

    #[test]
    fn end_map_wire_roundtrip() {
        let p = Packed::from_values([5u64, 1000, 3]);
        let rebuilt = EndMap::from_bytes(p.end_map.as_bytes().to_vec(), p.end_map.len());
        assert_eq!(rebuilt, p.end_map);
    }

    #[test]
    fn end_map_counts() {
        let mut m = EndMap::new();
        for i in 0..20 {
            m.push(i % 3 == 2);
        }
        assert_eq!(m.len(), 20);
        assert_eq!(m.item_count(), 6);
        assert!(m.get(2));
        assert!(!m.get(3));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn end_map_bounds() {
        let m = EndMap::new();
        let _ = m.get(0);
    }

    /// Reference next_set: the pre-word-scan byte-at-a-time loop.
    fn next_set_ref(m: &EndMap, from: usize, limit: usize) -> Option<usize> {
        let limit = limit.min(m.len());
        (from..limit).find(|&i| m.get(i))
    }

    #[test]
    fn next_set_matches_reference_on_long_runs() {
        // Dense-graph shape: items spanning many bytes, so the scan
        // crosses several u64 words between set bits.
        let mut m = EndMap::new();
        for run in [1usize, 7, 8, 9, 63, 64, 65, 200, 3, 1000, 1] {
            m.push_run(run);
        }
        for from in 0..m.len() {
            for limit in [from, from + 1, from + 9, from + 100, m.len(), usize::MAX] {
                assert_eq!(
                    m.next_set(from, limit),
                    next_set_ref(&m, from, limit),
                    "from {from}, limit {limit}"
                );
            }
        }
    }

    #[test]
    fn next_set_word_boundaries() {
        // A single end bit at every interesting position around the
        // 8-byte word boundary the fast path reads.
        for pos in [0usize, 7, 8, 15, 55, 56, 63, 64, 65, 127, 128] {
            let mut m = EndMap::new();
            m.push_run(pos + 1); // end bit lands exactly on `pos`
            assert_eq!(m.next_set(0, usize::MAX), Some(pos), "pos {pos}");
            assert_eq!(m.next_set(pos, usize::MAX), Some(pos));
            assert_eq!(m.next_set(pos + 1, usize::MAX), None);
            assert_eq!(m.next_set(0, pos), None, "limit excludes the bit");
            assert_eq!(m.next_set(0, pos + 1), Some(pos));
        }
    }

    #[test]
    fn packing_is_denser_than_fixed_8b() {
        // The motivating comparison from §IV-A: small relative addresses
        // take far fewer bytes than 8 B longs.
        let values: Vec<u64> = (0..1000u64).map(|i| i * 24).collect();
        let p = Packed::from_values(values.iter().copied());
        assert!(
            p.total_bytes() < 1000 * 8 / 2,
            "packed {} bytes, fixed would be 8000",
            p.total_bytes()
        );
    }
}
