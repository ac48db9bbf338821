//! Checksummed stream frames: an optional CRC-32 footer over any
//! serialized payload.
//!
//! The distributed stack ships serialized streams across links and disks
//! that can corrupt them. Decoding a corrupted stream is undefined for
//! every backend — Java tags, Kryo varints, protobuf wire types and the
//! Cereal end maps all read garbage as structure — so integrity must be
//! established *before* decoding. The frame is deliberately
//! format-agnostic: `payload ‖ magic (4 B) ‖ crc32(payload) (4 B LE)`,
//! appended to whatever bytes a serializer produced, so every backend
//! (software baselines and the accelerator functional model) gets
//! detection without touching its wire format. A framed stream is
//! byte-identical to the plain stream except for the 8-byte footer —
//! test-enforced — which is what makes checksums zero-cost when
//! disabled.
//!
//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) detects every
//! single-bit and every sub-32-bit burst error, which covers the
//! injected single-byte wire corruptions exactly.

use std::fmt;

/// Frame footer magic (`"CRF1"`), little-endian on the wire.
pub const FRAME_MAGIC: [u8; 4] = *b"CRF1";

/// Footer size in bytes: magic + CRC-32.
pub const FOOTER_BYTES: usize = 8;

/// Errors from verifying a checksummed frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The stream is shorter than a footer or the magic is absent —
    /// either truncation or corruption of the footer itself.
    MissingFooter {
        /// Bytes present.
        have: usize,
    },
    /// The payload's CRC-32 did not match the footer.
    BadChecksum {
        /// CRC stored in the footer.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::MissingFooter { have } => {
                write!(f, "missing or damaged frame footer ({have} bytes)")
            }
            FrameError::BadChecksum { stored, computed } => write!(
                f,
                "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for FrameError {}

/// The CRC-32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
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
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Appends the checksum footer to `payload` in place. The result is the
/// original payload plus [`FOOTER_BYTES`] trailing bytes.
pub fn seal_into(payload: &mut Vec<u8>) {
    let crc = crc32(payload);
    payload.extend_from_slice(&FRAME_MAGIC);
    payload.extend_from_slice(&crc.to_le_bytes());
}

/// Returns `payload` with the checksum footer appended.
pub fn seal(mut payload: Vec<u8>) -> Vec<u8> {
    seal_into(&mut payload);
    payload
}

/// Verifies a framed stream and returns the payload slice (footer
/// stripped).
///
/// # Errors
/// [`FrameError::MissingFooter`] if the stream is too short or the
/// magic bytes are damaged; [`FrameError::BadChecksum`] if the payload
/// does not hash to the stored CRC.
pub fn verify(framed: &[u8]) -> Result<&[u8], FrameError> {
    if framed.len() < FOOTER_BYTES {
        return Err(FrameError::MissingFooter { have: framed.len() });
    }
    let (payload, footer) = framed.split_at(framed.len() - FOOTER_BYTES);
    if footer[..4] != FRAME_MAGIC {
        return Err(FrameError::MissingFooter { have: framed.len() });
    }
    let stored = u32::from_le_bytes(footer[4..8].try_into().expect("4 bytes"));
    let computed = crc32(payload);
    if stored != computed {
        return Err(FrameError::BadChecksum { stored, computed });
    }
    Ok(payload)
}

/// Simulated cost of hashing `len` bytes, in nanoseconds. Modern cores
/// run hardware-assisted CRC-32 at tens of bytes per cycle; 16 B/ns is
/// a conservative sustained figure, charged wherever a frame is sealed
/// or verified on a simulated timeline.
pub fn crc_ns(len: usize) -> f64 {
    len as f64 / 16.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn seal_then_verify_roundtrips() {
        let payload = b"the quick brown fox".to_vec();
        let framed = seal(payload.clone());
        assert_eq!(framed.len(), payload.len() + FOOTER_BYTES);
        assert_eq!(verify(&framed).unwrap(), &payload[..]);
    }

    #[test]
    fn framed_is_plain_plus_footer() {
        let payload: Vec<u8> = (0..200u8).collect();
        let framed = seal(payload.clone());
        assert_eq!(&framed[..payload.len()], &payload[..], "payload untouched");
        assert_eq!(&framed[payload.len()..payload.len() + 4], &FRAME_MAGIC);
    }

    #[test]
    fn any_single_byte_change_is_detected() {
        let framed = seal((0..64u8).collect());
        for pos in 0..framed.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bad = framed.clone();
                bad[pos] ^= mask;
                assert!(
                    verify(&bad).is_err(),
                    "flip at {pos} mask {mask:#x} undetected"
                );
            }
        }
    }

    #[test]
    fn short_streams_report_missing_footer() {
        assert_eq!(verify(b"short"), Err(FrameError::MissingFooter { have: 5 }));
        let err = verify(&[]).unwrap_err();
        assert!(err.to_string().contains("footer"));
    }

    #[test]
    fn checksum_error_reports_both_values() {
        let mut framed = seal(vec![1, 2, 3, 4]);
        framed[0] ^= 0xFF;
        match verify(&framed) {
            Err(FrameError::BadChecksum { stored, computed }) => {
                assert_ne!(stored, computed);
            }
            other => panic!("expected BadChecksum, got {other:?}"),
        }
    }

    #[test]
    fn crc_cost_scales_with_length() {
        assert_eq!(crc_ns(0), 0.0);
        assert_eq!(crc_ns(1600), 100.0);
    }
}
