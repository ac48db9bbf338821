//! Cereal's 8 B object-header extension (paper §V-E, "Header Extension").
//!
//! Cereal extends the JVM so every potentially serializable object carries
//! one extra header word holding the metadata its serialization unit needs:
//!
//! * a 16-bit **serialization counter** used to track visited objects
//!   without a post-traversal clearing pass — an object is "visited" iff
//!   its stored counter equals the current per-unit serialization counter;
//! * an 8-bit **unit ID** with which the first serialization unit to touch
//!   a shared object reserves the header area (other units must fall back
//!   to software serialization);
//! * a 32-bit **relative address** recorded for already-serialized objects.
//!
//! ```text
//!  bits  0..32  relative address (4 B)
//!  bits 32..48  serialization counter (16 bits)
//!  bits 48..56  reserving unit ID (8 bits; 0 = unreserved, stored id+1)
//!  bits 56..64  unused
//! ```

/// Decoded extension word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ExtWord {
    raw: u64,
}

const REL_BITS: u64 = 0xffff_ffff;
const CTR_SHIFT: u32 = 32;
const CTR_BITS: u64 = 0xffff;
const UNIT_SHIFT: u32 = 48;
const UNIT_BITS: u64 = 0xff;

impl ExtWord {
    /// A cleared extension word (what GC resets it to).
    pub fn new() -> Self {
        ExtWord { raw: 0 }
    }

    /// Decode from the raw heap word.
    pub fn from_raw(raw: u64) -> Self {
        ExtWord { raw }
    }

    /// Raw encoding.
    pub fn raw(self) -> u64 {
        self.raw
    }

    /// Recorded relative address of the object in the serialized image.
    pub fn relative_addr(self) -> u32 {
        (self.raw & REL_BITS) as u32
    }

    /// Records a relative address.
    pub fn with_relative_addr(self, rel: u32) -> Self {
        ExtWord {
            raw: (self.raw & !REL_BITS) | u64::from(rel),
        }
    }

    /// Stored serialization counter.
    pub fn counter(self) -> u16 {
        ((self.raw >> CTR_SHIFT) & CTR_BITS) as u16
    }

    /// Stores the serialization counter.
    pub fn with_counter(self, c: u16) -> Self {
        ExtWord {
            raw: (self.raw & !(CTR_BITS << CTR_SHIFT)) | (u64::from(c) << CTR_SHIFT),
        }
    }

    /// The unit that reserved this header, if any.
    pub fn reserving_unit(self) -> Option<u8> {
        let v = ((self.raw >> UNIT_SHIFT) & UNIT_BITS) as u8;
        v.checked_sub(1)
    }

    /// Reserves the header for `unit` (stored as `unit + 1` so that zero
    /// means unreserved).
    ///
    /// # Panics
    /// Panics if `unit == u8::MAX` (unrepresentable).
    pub fn with_reserving_unit(self, unit: u8) -> Self {
        assert!(unit < u8::MAX, "unit id {unit} out of range");
        ExtWord {
            raw: (self.raw & !(UNIT_BITS << UNIT_SHIFT)) | (u64::from(unit + 1) << UNIT_SHIFT),
        }
    }

    /// `true` when the object was visited during serialization pass
    /// `current` — the counter-compare scheme that removes the need to
    /// clear visited bits after every traversal.
    pub fn visited_in(self, current: u16) -> bool {
        self.counter() == current && current != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_pack_independently() {
        let e = ExtWord::new()
            .with_relative_addr(0xdead_beef)
            .with_counter(0x1234)
            .with_reserving_unit(5);
        assert_eq!(e.relative_addr(), 0xdead_beef);
        assert_eq!(e.counter(), 0x1234);
        assert_eq!(e.reserving_unit(), Some(5));
        let e2 = e.with_counter(1);
        assert_eq!(e2.relative_addr(), 0xdead_beef);
        assert_eq!(e2.reserving_unit(), Some(5));
    }

    #[test]
    fn unreserved_by_default() {
        assert_eq!(ExtWord::new().reserving_unit(), None);
        assert_eq!(
            ExtWord::new().with_reserving_unit(0).reserving_unit(),
            Some(0)
        );
    }

    #[test]
    fn visited_semantics() {
        let e = ExtWord::new().with_counter(7);
        assert!(e.visited_in(7));
        assert!(!e.visited_in(8));
        // Counter 0 never counts as visited (it is the cleared state).
        assert!(!ExtWord::new().visited_in(0));
    }

    #[test]
    fn raw_roundtrip() {
        let e = ExtWord::new()
            .with_counter(65535)
            .with_relative_addr(u32::MAX);
        assert_eq!(ExtWord::from_raw(e.raw()), e);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unit_255_rejected() {
        let _ = ExtWord::new().with_reserving_unit(u8::MAX);
    }
}
