//! Typed object views and per-object layout queries.
//!
//! [`ObjectView`] bundles a heap, a registry and an address and answers the
//! layout questions serializers ask: which words are references, how large
//! is the object, what is its layout bitmap (1 bit per 8 B word; 1 =
//! reference — paper §IV-A, Fig. 4).

use crate::heap::Heap;
use crate::klass::{FieldKind, Klass, KlassId, KlassRegistry, RefSlots};
use crate::word::Addr;

/// Word offset of the mark word within an object.
pub const MARK_OFFSET: usize = 0;
/// Word offset of the klass pointer within an object.
pub const KLASS_OFFSET: usize = 1;
/// Word offset of Cereal's extension word within an object.
pub const EXT_OFFSET: usize = 2;
/// Header size in words: mark word + klass pointer + Cereal extension.
pub const HEADER_WORDS: usize = 3;

/// A read-only typed view over one object. The klass and the object size
/// are resolved once, when the view is made; every layout query reads
/// them from there.
#[derive(Clone, Copy)]
pub struct ObjectView<'h> {
    heap: &'h Heap,
    addr: Addr,
    id: KlassId,
    klass: &'h Klass,
    words: usize,
}

impl<'h> ObjectView<'h> {
    /// View of the object at `addr`.
    ///
    /// # Panics
    /// Panics if `addr` does not hold a live object.
    pub fn new(heap: &'h Heap, reg: &'h KlassRegistry, addr: Addr) -> Self {
        let id = heap.klass_of(reg, addr);
        let klass = reg.get(id);
        let words = if klass.is_array() {
            klass.array_words(heap.array_len(addr))
        } else {
            klass.instance_words()
        };
        ObjectView {
            heap,
            addr,
            id,
            klass,
            words,
        }
    }

    /// The object's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// The object's klass id.
    pub fn klass_id(&self) -> KlassId {
        self.id
    }

    /// The object's type descriptor.
    pub fn klass(&self) -> &'h Klass {
        self.klass
    }

    /// Total object size in words, header included.
    pub fn size_words(&self) -> usize {
        self.words
    }

    /// Total object size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_words() as u64 * crate::word::WORD_BYTES
    }

    /// The kind of the word at offset `w` (0-based from the object start):
    /// header and length words are values; field/element words follow the
    /// klass layout. This is the per-word specification the slot queries
    /// below agree with.
    ///
    /// # Panics
    /// Panics if `w` is outside the object.
    pub fn word_kind(&self, w: usize) -> FieldKind {
        assert!(w < self.size_words(), "word {w} outside object");
        let k = self.klass;
        if w < HEADER_WORDS {
            return FieldKind::Value(crate::klass::ValueType::Long);
        }
        if let Some(elem) = k.array_elem() {
            if w == HEADER_WORDS {
                FieldKind::Value(crate::klass::ValueType::Long) // length word
            } else {
                elem
            }
        } else {
            k.fields()[w - HEADER_WORDS].kind
        }
    }

    /// The object's layout bitmap: one bit per word, set for reference
    /// slots. Its length in bits times 8 equals the object size in bytes,
    /// exactly as the paper derives object size from the bitmap.
    pub fn layout_bits(&self) -> Vec<bool> {
        let mut bits = vec![false; self.words];
        for w in self.ref_offsets() {
            bits[w] = true;
        }
        bits
    }

    /// Word offsets (from object start) of all reference slots, in order
    /// ([`Klass::ref_slots`]).
    #[inline]
    pub fn ref_offsets(&self) -> RefSlots<'h> {
        self.klass.ref_slots(self.words)
    }

    /// The references held by this object, in layout order (nulls
    /// included as `Addr::NULL`).
    #[inline]
    pub fn references(&self) -> impl DoubleEndedIterator<Item = Addr> + ExactSizeIterator + 'h {
        let (heap, addr) = (self.heap, self.addr);
        self.ref_offsets()
            .map(move |w| Addr(heap.load(addr.add_words(w as u64))))
    }

    /// Raw word at offset `w`.
    pub fn word(&self, w: usize) -> u64 {
        self.heap.load(self.addr.add_words(w as u64))
    }
}

impl std::fmt::Debug for ObjectView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectView")
            .field("addr", &self.addr)
            .field("klass", &self.klass().name())
            .field("size_words", &self.size_words())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::klass::ValueType;

    fn setup() -> (Heap, KlassRegistry, Addr, Addr) {
        let mut reg = KlassRegistry::new();
        let node = reg.register(Klass::new(
            "Node",
            vec![
                FieldKind::Value(ValueType::Long),
                FieldKind::Ref,
                FieldKind::Ref,
            ],
        ));
        let refarr = reg.register(Klass::array("Object[]", FieldKind::Ref));
        let mut heap = Heap::new(8192);
        let n = heap.alloc(&reg, node).unwrap();
        let a = heap.alloc_array(&reg, refarr, 4).unwrap();
        let mut h2 = heap.clone();
        h2.set_ref(n, 1, a);
        (h2, reg, n, a)
    }

    #[test]
    fn layout_bits_mark_references() {
        let (heap, reg, n, _) = setup();
        let v = heap.object(&reg, n);
        // header(3 values) + long + ref + ref
        assert_eq!(
            v.layout_bits(),
            vec![false, false, false, false, true, true]
        );
        assert_eq!(v.ref_offsets().collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(v.size_bytes(), 48);
    }

    #[test]
    fn array_layout_includes_length_word() {
        let (heap, reg, _, a) = setup();
        let v = heap.object(&reg, a);
        // header(3) + length + 4 ref elements
        assert_eq!(
            v.layout_bits(),
            vec![false, false, false, false, true, true, true, true]
        );
        assert_eq!(v.size_words(), 8);
    }

    #[test]
    fn primitive_array_has_no_reference_slots() {
        let mut reg = KlassRegistry::new();
        let longs = reg.register(Klass::array("long[]", FieldKind::Value(ValueType::Long)));
        let mut heap = Heap::new(8192);
        let a = heap.alloc_array(&reg, longs, 100).unwrap();
        let v = heap.object(&reg, a);
        assert_eq!(v.size_words(), 104);
        assert_eq!(v.ref_offsets().len(), 0);
        assert_eq!(v.references().count(), 0);
        assert!(v.layout_bits().iter().all(|&b| !b));
    }

    #[test]
    fn references_in_layout_order() {
        let (heap, reg, n, a) = setup();
        let v = heap.object(&reg, n);
        assert_eq!(v.references().collect::<Vec<_>>(), vec![a, Addr::NULL]);
    }

    #[test]
    #[should_panic(expected = "outside object")]
    fn word_kind_bounds_checked() {
        let (heap, reg, n, _) = setup();
        let v = heap.object(&reg, n);
        let _ = v.word_kind(6);
    }

    #[test]
    fn debug_shows_klass() {
        let (heap, reg, n, _) = setup();
        let s = format!("{:?}", heap.object(&reg, n));
        assert!(s.contains("Node"));
    }
}
