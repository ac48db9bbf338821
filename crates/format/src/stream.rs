//! The serialized stream container and its wire encoding.
//!
//! A [`CerealStream`] holds the three decoupled structures of the Cereal
//! format (paper Fig. 4b / Fig. 5b) plus the object-graph size:
//!
//! ```text
//! ┌────────────┬─────────────┬──────────────────────┬──────────────────────┐
//! │   header   │ value array │ packed reference     │ packed layout        │
//! │ (sizes)    │ (8 B words) │ array + end map      │ bitmaps + end map    │
//! └────────────┴─────────────┴──────────────────────┴──────────────────────┘
//! ```
//!
//! The header carries the section sizes so a deserializer (and the DU's
//! three eager prefetchers) can locate all sections up front; the paper
//! counts only the 4 B object-graph size as format overhead, the rest of
//! our header replaces its out-of-band framing.
//!
//! Reference encoding: each item of the reference array is
//! `relative_address + 1`, with `0` reserved for null — the layout bitmap
//! is produced from static type information and therefore marks null
//! slots as references too, so nulls must be representable in the
//! reference array.

use crate::pack::{EndMap, Packed};
use std::fmt;

/// Magic number identifying a Cereal stream (`"CRL1"`).
pub const MAGIC: u32 = 0x4352_4c31;

/// Errors from decoding a serialized stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// The stream is shorter than its header or declared sections.
    Truncated {
        /// Bytes needed.
        needed: usize,
        /// Bytes present.
        have: usize,
    },
    /// The magic number did not match.
    BadMagic(u32),
    /// Internal inconsistency (e.g. value array not word-aligned).
    Corrupt(&'static str),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Truncated { needed, have } => {
                write!(f, "truncated stream: need {needed} bytes, have {have}")
            }
            FormatError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            FormatError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
        }
    }
}

impl std::error::Error for FormatError {}

/// Decoded fixed-size stream header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamHeader {
    /// Size in bytes of the reconstructed object image (the paper's 4 B
    /// "sum of object sizes").
    pub total_object_bytes: u32,
    /// Number of serialized objects.
    pub object_count: u32,
    /// Length of the value array in bytes.
    pub value_bytes: u32,
    /// Packed reference array payload length in bytes.
    pub ref_payload_bytes: u32,
    /// Reference end-map length in bits (== payload bytes covered).
    pub ref_end_bits: u32,
    /// Number of reference items.
    pub ref_count: u32,
    /// Packed layout-bitmap payload length in bytes.
    pub bitmap_payload_bytes: u32,
    /// Bitmap end-map length in bits.
    pub bitmap_end_bits: u32,
    /// Number of bitmap items (== object count).
    pub bitmap_count: u32,
}

impl StreamHeader {
    /// Encoded header size in bytes (magic + 9 × u32).
    pub const BYTES: usize = 4 + 9 * 4;
}

/// An in-memory serialized stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CerealStream {
    /// Byte size of the reconstructed image.
    pub total_object_bytes: u32,
    /// Number of objects in the stream.
    pub object_count: u32,
    /// Value array: headers and primitive words in serialization order.
    pub value_array: Vec<u8>,
    /// Packed reference array (`rel + 1`, 0 = null).
    pub refs: Packed,
    /// Packed per-object layout bitmaps.
    pub bitmaps: Packed,
}

/// Encodes a reference-array item: `None` (null) → 0, `Some(rel)` →
/// `rel + 1`.
pub fn encode_ref(rel: Option<u32>) -> u64 {
    match rel {
        None => 0,
        Some(r) => u64::from(r) + 1,
    }
}

/// Decodes a reference-array item (inverse of [`encode_ref`]).
pub fn decode_ref(item: u64) -> Option<u32> {
    if item == 0 {
        None
    } else {
        Some(u32::try_from(item - 1).expect("relative address exceeds 32 bits"))
    }
}

impl CerealStream {
    /// Serialized wire size in bytes — what Table IV / Fig. 16 account.
    pub fn wire_bytes(&self) -> usize {
        StreamHeader::BYTES
            + self.value_array.len()
            + self.refs.total_bytes()
            + self.bitmaps.total_bytes()
    }

    /// Wire size of the *baseline* (unpacked) format of §IV-A: 8 B per
    /// reference and an 8 B bitmap-length prefix per object instead of the
    /// packed encodings. Used by the packing-ablation experiment.
    pub fn baseline_wire_bytes(&self) -> usize {
        let mut u = crate::pack::Unpacker::new(&self.bitmaps);
        let mut bitmap_payload = 0usize;
        while let Some(len) = u.next_item_len() {
            bitmap_payload += len.div_ceil(8);
        }
        StreamHeader::BYTES
            + self.value_array.len()
            + self.refs.count * 8
            + self.object_count as usize * 8
            + bitmap_payload
    }

    /// Encodes to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_bytes());
        self.to_bytes_into(&mut out);
        out
    }

    /// Encodes to wire bytes into a caller-owned scratch buffer, clearing
    /// it first. Repeated encoders (e.g. the JSBS harness's 1000-rep
    /// loops) reuse one allocation across calls.
    pub fn to_bytes_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(self.wire_bytes());
        let h = [
            MAGIC,
            self.total_object_bytes,
            self.object_count,
            self.value_array.len() as u32,
            self.refs.bytes.len() as u32,
            self.refs.end_map.len() as u32,
            self.refs.count as u32,
            self.bitmaps.bytes.len() as u32,
            self.bitmaps.end_map.len() as u32,
            self.bitmaps.count as u32,
        ];
        for w in h {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&self.value_array);
        out.extend_from_slice(&self.refs.bytes);
        out.extend_from_slice(self.refs.end_map.as_bytes());
        out.extend_from_slice(&self.bitmaps.bytes);
        out.extend_from_slice(self.bitmaps.end_map.as_bytes());
    }

    /// Decodes from wire bytes.
    ///
    /// # Errors
    /// [`FormatError`] on truncation, bad magic, or inconsistent sizes.
    pub fn from_bytes(bytes: &[u8]) -> Result<CerealStream, FormatError> {
        if bytes.len() < StreamHeader::BYTES {
            return Err(FormatError::Truncated {
                needed: StreamHeader::BYTES,
                have: bytes.len(),
            });
        }
        let word =
            |i: usize| u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().expect("4 bytes"));
        if word(0) != MAGIC {
            return Err(FormatError::BadMagic(word(0)));
        }
        let header = StreamHeader {
            total_object_bytes: word(1),
            object_count: word(2),
            value_bytes: word(3),
            ref_payload_bytes: word(4),
            ref_end_bits: word(5),
            ref_count: word(6),
            bitmap_payload_bytes: word(7),
            bitmap_end_bits: word(8),
            bitmap_count: word(9),
        };
        if !header.value_bytes.is_multiple_of(8) {
            return Err(FormatError::Corrupt("value array not word aligned"));
        }
        let ref_end_bytes = (header.ref_end_bits as usize).div_ceil(8);
        let bm_end_bytes = (header.bitmap_end_bits as usize).div_ceil(8);
        let needed = StreamHeader::BYTES
            + header.value_bytes as usize
            + header.ref_payload_bytes as usize
            + ref_end_bytes
            + header.bitmap_payload_bytes as usize
            + bm_end_bytes;
        if bytes.len() < needed {
            return Err(FormatError::Truncated {
                needed,
                have: bytes.len(),
            });
        }
        let mut pos = StreamHeader::BYTES;
        let mut take = |n: usize| {
            let s = &bytes[pos..pos + n];
            pos += n;
            s.to_vec()
        };
        let value_array = take(header.value_bytes as usize);
        let ref_payload = take(header.ref_payload_bytes as usize);
        let ref_end = take(ref_end_bytes);
        let bm_payload = take(header.bitmap_payload_bytes as usize);
        let bm_end = take(bm_end_bytes);
        Ok(CerealStream {
            total_object_bytes: header.total_object_bytes,
            object_count: header.object_count,
            value_array,
            refs: Packed {
                bytes: ref_payload,
                end_map: EndMap::from_bytes(ref_end, header.ref_end_bits as usize),
                count: header.ref_count as usize,
            },
            bitmaps: Packed {
                bytes: bm_payload,
                end_map: EndMap::from_bytes(bm_end, header.bitmap_end_bits as usize),
                count: header.bitmap_count as usize,
            },
        })
    }

    /// Value array interpreted as 8 B little-endian words.
    pub fn value_words(&self) -> Vec<u64> {
        self.value_array
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect()
    }
}

impl Packed {
    /// All items as bit strings (helper for size accounting; streaming
    /// consumers should use [`crate::pack::Unpacker`]).
    pub fn to_items(&self) -> Vec<Vec<bool>> {
        let mut u = crate::pack::Unpacker::new(self);
        // `count` may come from an untrusted wire header; every item
        // occupies at least one payload byte, so bound the reservation.
        let mut out = Vec::with_capacity(self.count.min(self.bytes.len()));
        while let Some(item) = u.next_item() {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::Packer;

    fn sample_stream() -> CerealStream {
        let mut refs = Packer::new();
        refs.push_value(encode_ref(Some(0)));
        refs.push_value(encode_ref(None));
        refs.push_value(encode_ref(Some(48)));
        let mut bitmaps = Packer::new();
        bitmaps.push_bits(&[false, false, false, true, true]);
        bitmaps.push_bits(&[false, false, false, false]);
        let mut value_array = Vec::new();
        for w in [0xaau64, 0x1, 0x0, 0x2a, 0x7u64, 0x2, 0x0, 0x9] {
            value_array.extend_from_slice(&w.to_le_bytes());
        }
        CerealStream {
            total_object_bytes: 72,
            object_count: 2,
            value_array,
            refs: refs.finish(),
            bitmaps: bitmaps.finish(),
        }
    }

    #[test]
    fn wire_roundtrip() {
        let s = sample_stream();
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), s.wire_bytes());
        let decoded = CerealStream::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, s);
    }

    #[test]
    fn ref_encoding_distinguishes_null_from_zero() {
        assert_eq!(encode_ref(None), 0);
        assert_eq!(encode_ref(Some(0)), 1);
        assert_eq!(decode_ref(0), None);
        assert_eq!(decode_ref(1), Some(0));
        assert_eq!(decode_ref(encode_ref(Some(12345))), Some(12345));
    }

    #[test]
    fn bad_magic_rejected() {
        let s = sample_stream();
        let mut bytes = s.to_bytes();
        bytes[0] ^= 0xff;
        assert!(matches!(
            CerealStream::from_bytes(&bytes),
            Err(FormatError::BadMagic(_))
        ));
    }

    #[test]
    fn truncation_rejected_at_header_and_body() {
        let s = sample_stream();
        let bytes = s.to_bytes();
        let err = CerealStream::from_bytes(&bytes[..10]).unwrap_err();
        assert!(matches!(err, FormatError::Truncated { .. }));
        let err = CerealStream::from_bytes(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err, FormatError::Truncated { .. }));
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn unaligned_value_array_rejected() {
        let s = sample_stream();
        let mut bytes = s.to_bytes();
        bytes[4 * 3] = 7; // value_bytes := 7
        assert!(matches!(
            CerealStream::from_bytes(&bytes),
            Err(FormatError::Corrupt(_))
        ));
    }

    #[test]
    fn value_words_decode() {
        let s = sample_stream();
        let words = s.value_words();
        assert_eq!(words.len(), 8);
        assert_eq!(words[0], 0xaa);
        assert_eq!(words[3], 0x2a);
    }

    #[test]
    fn baseline_format_is_larger_for_small_refs() {
        let s = sample_stream();
        assert!(
            s.baseline_wire_bytes() > s.wire_bytes(),
            "packing must beat 8 B refs + 8 B bitmap lengths: {} vs {}",
            s.baseline_wire_bytes(),
            s.wire_bytes()
        );
    }

    #[test]
    fn empty_stream_roundtrips() {
        let s = CerealStream::default();
        let decoded = CerealStream::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(decoded.wire_bytes(), StreamHeader::BYTES);
    }
}
