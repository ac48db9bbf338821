//! Mark word bit fields.
//!
//! The paper (§II, "Java Object Layout") describes HotSpot's 8 B mark word
//! as: a 31-bit identity hash code, a 3-bit synchronization state, 6 bits of
//! GC state, and 25 unused bits. We pack them as:
//!
//! ```text
//!  bits  0..3   synchronization state (3 bits)
//!  bits  3..9   GC state              (6 bits)
//!  bits  9..40  identity hash code    (31 bits)
//!  bits 40..64  unused                (24 bits kept zero; the paper's count
//!                                      of 25 includes one reserved bit we
//!                                      fold into the sync field's padding)
//! ```

/// A decoded HotSpot-style mark word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct MarkWord {
    raw: u64,
}

const SYNC_SHIFT: u32 = 0;
const SYNC_BITS: u64 = 0b111;
const GC_SHIFT: u32 = 3;
const GC_BITS: u64 = 0b11_1111;
const HASH_SHIFT: u32 = 9;
const HASH_BITS: u64 = 0x7fff_ffff;

impl MarkWord {
    /// A zeroed mark word (unlocked, no hash).
    pub fn new() -> Self {
        MarkWord { raw: 0 }
    }

    /// Decode from a raw heap word.
    pub fn from_raw(raw: u64) -> Self {
        MarkWord { raw }
    }

    /// The raw 8 B encoding stored in the heap.
    pub fn raw(self) -> u64 {
        self.raw
    }

    /// The 31-bit identity hash code.
    pub fn identity_hash(self) -> u32 {
        ((self.raw >> HASH_SHIFT) & HASH_BITS) as u32
    }

    /// Sets the identity hash (truncated to 31 bits), returning the updated
    /// word.
    pub fn with_identity_hash(self, hash: u32) -> Self {
        let raw =
            (self.raw & !(HASH_BITS << HASH_SHIFT)) | ((u64::from(hash) & HASH_BITS) << HASH_SHIFT);
        MarkWord { raw }
    }

    /// The 3-bit synchronization state.
    pub fn sync_state(self) -> u8 {
        ((self.raw >> SYNC_SHIFT) & SYNC_BITS) as u8
    }

    /// Sets the 3-bit synchronization state.
    pub fn with_sync_state(self, s: u8) -> Self {
        let raw =
            (self.raw & !(SYNC_BITS << SYNC_SHIFT)) | ((u64::from(s) & SYNC_BITS) << SYNC_SHIFT);
        MarkWord { raw }
    }

    /// The 6 GC state bits.
    pub fn gc_bits(self) -> u8 {
        ((self.raw >> GC_SHIFT) & GC_BITS) as u8
    }

    /// Sets the 6 GC state bits.
    pub fn with_gc_bits(self, g: u8) -> Self {
        let raw = (self.raw & !(GC_BITS << GC_SHIFT)) | ((u64::from(g) & GC_BITS) << GC_SHIFT);
        MarkWord { raw }
    }

    /// Mark word with all mutable runtime state cleared but the identity
    /// hash preserved — what "header stripping" (paper Fig. 16) must keep to
    /// re-construct `hashCode()`-dependent behaviour.
    pub fn stripped(self) -> Self {
        MarkWord::new().with_identity_hash(self.identity_hash())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_independent() {
        let m = MarkWord::new()
            .with_identity_hash(0x1234_5678)
            .with_sync_state(0b101)
            .with_gc_bits(0b10_1010);
        assert_eq!(m.identity_hash(), 0x1234_5678);
        assert_eq!(m.sync_state(), 0b101);
        assert_eq!(m.gc_bits(), 0b10_1010);
        // Updating one field leaves the others intact.
        let m2 = m.with_identity_hash(1);
        assert_eq!(m2.identity_hash(), 1);
        assert_eq!(m2.sync_state(), 0b101);
        assert_eq!(m2.gc_bits(), 0b10_1010);
    }

    #[test]
    fn hash_truncates_to_31_bits() {
        let m = MarkWord::new().with_identity_hash(u32::MAX);
        assert_eq!(m.identity_hash(), 0x7fff_ffff);
    }

    #[test]
    fn roundtrips_raw() {
        let m = MarkWord::new().with_identity_hash(77).with_gc_bits(3);
        assert_eq!(MarkWord::from_raw(m.raw()), m);
    }

    #[test]
    fn stripped_keeps_only_hash() {
        let m = MarkWord::new()
            .with_identity_hash(99)
            .with_sync_state(7)
            .with_gc_bits(63);
        let s = m.stripped();
        assert_eq!(s.identity_hash(), 99);
        assert_eq!(s.sync_state(), 0);
        assert_eq!(s.gc_bits(), 0);
    }

    #[test]
    fn unused_bits_stay_zero() {
        let m = MarkWord::new()
            .with_identity_hash(u32::MAX)
            .with_sync_state(u8::MAX)
            .with_gc_bits(u8::MAX);
        assert_eq!(m.raw() >> 40, 0, "upper 24 bits must remain unused");
    }
}
