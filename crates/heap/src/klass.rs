//! Type descriptors ("klasses") and the klass registry.
//!
//! In HotSpot, the second header word of every object points to a type
//! descriptor holding the object layout — in particular the offsets of all
//! reference fields — and the total object size (paper §II, Fig. 1(a)).
//! Serializers consult it to locate references; Cereal's object metadata
//! manager fetches it from memory (§V-B).
//!
//! To make that fetch a *real* memory access in the simulation, every
//! registered klass is assigned a descriptor address in a reserved metadata
//! region of the address space ([`KlassRegistry::META_BASE`]); the heap
//! stores this address in each object's klass-pointer word.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;

use crate::object::HEADER_WORDS;
use crate::word::Addr;

/// Index of a registered class. Also serves as the integer "class ID" used
/// by the Kryo/Skyway baselines and by Cereal's Klass Pointer / Class ID
/// tables.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct KlassId(pub u32);

impl KlassId {
    /// Raw integer id.
    pub fn get(self) -> u32 {
        self.0
    }
}

impl fmt::Display for KlassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "klass#{}", self.0)
    }
}

/// Primitive Java field types. All occupy one 8 B word in our layout (as in
/// HotSpot with 8 B field alignment); the distinction matters only for the
/// Java S/D baseline, which embeds field-type metadata in its stream.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ValueType {
    /// `long` / generic 64-bit payload.
    Long,
    /// `double` floating point.
    Double,
    /// `int` (stored widened to a word).
    Int,
    /// `boolean` (stored widened to a word).
    Boolean,
    /// `byte` (stored widened to a word).
    Byte,
    /// `char` (stored widened to a word).
    Char,
}

impl ValueType {
    /// JVM-style single-character type signature, embedded by the Java S/D
    /// baseline in its field metadata.
    pub fn signature(self) -> char {
        match self {
            ValueType::Long => 'J',
            ValueType::Double => 'D',
            ValueType::Int => 'I',
            ValueType::Boolean => 'Z',
            ValueType::Byte => 'B',
            ValueType::Char => 'C',
        }
    }
}

/// The kind of one field slot: a primitive value or a reference.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FieldKind {
    /// Primitive value of the given type.
    Value(ValueType),
    /// Reference to another object (absolute address; 0 = null).
    Ref,
}

impl FieldKind {
    /// `true` for reference slots.
    pub fn is_ref(self) -> bool {
        matches!(self, FieldKind::Ref)
    }
}

/// One named field of an instance klass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Field {
    /// Field name (used by the Java S/D baseline's string metadata and its
    /// reflection model).
    pub name: String,
    /// Value or reference.
    pub kind: FieldKind,
}

/// A type descriptor: name, field layout, and (for arrays) element kind.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Klass {
    name: String,
    fields: Vec<Field>,
    array_elem: Option<FieldKind>,
    /// Word offsets of an instance's reference slots, derived from
    /// `fields` once when the klass is built.
    ref_offsets: Vec<usize>,
}

/// The reference slots of one object, as word offsets from the object
/// start in layout order ([`Klass::ref_slots`]). Borrows only the klass,
/// so a caller may write the heap while it iterates.
#[derive(Clone, Debug)]
pub enum RefSlots<'k> {
    /// An instance's precomputed field offsets.
    Fields(std::slice::Iter<'k, usize>),
    /// A reference array's element words (empty for a primitive array).
    Elements(Range<usize>),
}

impl Iterator for RefSlots<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            RefSlots::Fields(it) => it.next().copied(),
            RefSlots::Elements(r) => r.next(),
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            RefSlots::Fields(it) => it.size_hint(),
            RefSlots::Elements(r) => r.size_hint(),
        }
    }
}

impl DoubleEndedIterator for RefSlots<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<usize> {
        match self {
            RefSlots::Fields(it) => it.next_back().copied(),
            RefSlots::Elements(r) => r.next_back(),
        }
    }
}

impl ExactSizeIterator for RefSlots<'_> {}

impl Klass {
    /// An instance klass with auto-named fields (`f0`, `f1`, …).
    pub fn new(name: impl Into<String>, kinds: Vec<FieldKind>) -> Self {
        let fields = kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Field {
                name: format!("f{i}"),
                kind,
            })
            .collect();
        Klass::build(name.into(), fields, None)
    }

    /// An instance klass with explicit field names.
    pub fn with_named_fields(
        name: impl Into<String>,
        fields: Vec<(impl Into<String>, FieldKind)>,
    ) -> Self {
        let fields = fields
            .into_iter()
            .map(|(n, kind)| Field {
                name: n.into(),
                kind,
            })
            .collect();
        Klass::build(name.into(), fields, None)
    }

    /// An array klass whose elements are all `elem` (e.g. `double[]`,
    /// `Object[]`). Array objects carry a length word after the header.
    pub fn array(name: impl Into<String>, elem: FieldKind) -> Self {
        Klass::build(name.into(), Vec::new(), Some(elem))
    }

    fn build(name: String, fields: Vec<Field>, array_elem: Option<FieldKind>) -> Self {
        let ref_offsets = fields
            .iter()
            .enumerate()
            .filter(|(_, f)| f.kind.is_ref())
            .map(|(i, _)| HEADER_WORDS + i)
            .collect();
        Klass {
            name,
            fields,
            array_elem,
            ref_offsets,
        }
    }

    /// Class name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declared instance fields (empty for array klasses).
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// `Some(elem)` when this is an array klass.
    pub fn array_elem(&self) -> Option<FieldKind> {
        self.array_elem
    }

    /// `true` for array klasses.
    pub fn is_array(&self) -> bool {
        self.array_elem.is_some()
    }

    /// Number of declared fields (0 for arrays).
    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }

    /// Word offsets (from object start, header included) of the reference
    /// slots of an *instance* of this klass; empty for arrays, whose slots
    /// depend on the per-object length ([`Klass::ref_slots`]).
    pub fn ref_offsets(&self) -> &[usize] {
        &self.ref_offsets
    }

    /// The reference slots of an object of this klass that is
    /// `size_words` long: a reference array's elements
    /// (`HEADER_WORDS + 1..size_words`), none for a primitive array, and
    /// [`Klass::ref_offsets`] for an instance. Every layout query of
    /// [`crate::ObjectView`] derives from this.
    #[inline]
    pub fn ref_slots(&self, size_words: usize) -> RefSlots<'_> {
        match self.array_elem {
            Some(FieldKind::Ref) => RefSlots::Elements(HEADER_WORDS + 1..size_words),
            Some(FieldKind::Value(_)) => RefSlots::Elements(0..0),
            None => RefSlots::Fields(self.ref_offsets.iter()),
        }
    }

    /// Maximal runs of adjacent primitive fields, as `(first_index, len)`
    /// pairs in declaration order — the layout query plan compilers use to
    /// turn contiguous non-reference fields into single copy runs.
    /// Reference slots break runs; a klass with no primitive fields yields
    /// no runs.
    pub fn prim_runs(&self) -> Vec<(usize, usize)> {
        let mut runs = Vec::new();
        let mut start = None;
        for (i, f) in self.fields.iter().enumerate() {
            match (f.kind.is_ref(), start) {
                (false, None) => start = Some(i),
                (false, Some(_)) => {}
                (true, Some(s)) => {
                    runs.push((s, i - s));
                    start = None;
                }
                (true, None) => {}
            }
        }
        if let Some(s) = start {
            runs.push((s, self.fields.len() - s));
        }
        runs
    }

    /// Total instance size in words (header + fields) for non-array
    /// klasses.
    ///
    /// # Panics
    /// Panics if called on an array klass (array size is per-object).
    pub fn instance_words(&self) -> usize {
        assert!(
            !self.is_array(),
            "instance_words is undefined for array klass {}",
            self.name
        );
        HEADER_WORDS + self.fields.len()
    }

    /// Size in words of an array instance with `len` elements: header,
    /// length word, elements.
    pub fn array_words(&self, len: usize) -> usize {
        assert!(self.is_array(), "{} is not an array klass", self.name);
        HEADER_WORDS + 1 + len
    }

    /// Approximate size of the in-memory type descriptor in words — what
    /// the object metadata manager must fetch. Two words of fixed metadata
    /// (size, flags) plus one layout word per 64 fields.
    pub fn descriptor_words(&self) -> usize {
        2 + self.fields.len().div_ceil(64).max(1)
    }
}

/// Registry of all klasses known to the runtime, with name lookup and
/// descriptor addresses.
///
/// Shared by the serializing and deserializing sides, mirroring the type
/// registries of Kryo ("the same type registry must be used for
/// deserialization") and Skyway's global registry.
#[derive(Clone, Debug, Default)]
pub struct KlassRegistry {
    klasses: Vec<Klass>,
    by_name: HashMap<String, KlassId>,
}

impl KlassRegistry {
    /// Start of the reserved metadata region holding type descriptors.
    pub const META_BASE: u64 = 0x1000_0000;
    /// Byte stride between descriptor slots (fixed-size slots keep the
    /// address ↔ id mapping arithmetic).
    pub const META_SLOT_BYTES: u64 = 256;

    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a klass, returning its id. Registering the same name twice
    /// returns the existing id (and debug-asserts the layouts agree).
    pub fn register(&mut self, klass: Klass) -> KlassId {
        if let Some(&id) = self.by_name.get(klass.name()) {
            debug_assert_eq!(
                &self.klasses[id.0 as usize],
                &klass,
                "re-registration of {} with a different layout",
                klass.name()
            );
            return id;
        }
        let id = KlassId(self.klasses.len() as u32);
        self.by_name.insert(klass.name().to_owned(), id);
        self.klasses.push(klass);
        id
    }

    /// Looks a klass up by id.
    ///
    /// # Panics
    /// Panics if the id was not issued by this registry.
    pub fn get(&self, id: KlassId) -> &Klass {
        &self.klasses[id.0 as usize]
    }

    /// Looks a klass id up by name — the string lookup the Java S/D
    /// baseline performs during type resolution.
    pub fn lookup(&self, name: &str) -> Option<KlassId> {
        self.by_name.get(name).copied()
    }

    /// Number of registered klasses.
    pub fn len(&self) -> usize {
        self.klasses.len()
    }

    /// `true` when no klass is registered.
    pub fn is_empty(&self) -> bool {
        self.klasses.is_empty()
    }

    /// Iterates over `(id, klass)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (KlassId, &Klass)> {
        self.klasses
            .iter()
            .enumerate()
            .map(|(i, k)| (KlassId(i as u32), k))
    }

    /// Descriptor address of a klass — the value stored in objects'
    /// klass-pointer words.
    pub fn meta_addr(&self, id: KlassId) -> Addr {
        Addr(Self::META_BASE + u64::from(id.0) * Self::META_SLOT_BYTES)
    }

    /// Inverse of [`Self::meta_addr`].
    ///
    /// Returns `None` for addresses outside the metadata region or not on a
    /// registered slot.
    pub fn id_of_meta_addr(&self, addr: Addr) -> Option<KlassId> {
        let off = addr.get().checked_sub(Self::META_BASE)?;
        if off % Self::META_SLOT_BYTES != 0 {
            return None;
        }
        let id = KlassId(u32::try_from(off / Self::META_SLOT_BYTES).ok()?);
        (usize::try_from(id.0).unwrap() < self.klasses.len()).then_some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut reg = KlassRegistry::new();
        let a = reg.register(Klass::new("A", vec![FieldKind::Ref]));
        let b = reg.register(Klass::new("B", vec![]));
        assert_ne!(a, b);
        assert_eq!(reg.lookup("A"), Some(a));
        assert_eq!(reg.lookup("B"), Some(b));
        assert_eq!(reg.lookup("C"), None);
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
    }

    #[test]
    fn reregistration_is_idempotent() {
        let mut reg = KlassRegistry::new();
        let a1 = reg.register(Klass::new("A", vec![FieldKind::Ref]));
        let a2 = reg.register(Klass::new("A", vec![FieldKind::Ref]));
        assert_eq!(a1, a2);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn meta_addr_roundtrip() {
        let mut reg = KlassRegistry::new();
        let ids: Vec<_> = (0..5)
            .map(|i| reg.register(Klass::new(format!("K{i}"), vec![])))
            .collect();
        for id in ids {
            let addr = reg.meta_addr(id);
            assert_eq!(reg.id_of_meta_addr(addr), Some(id));
        }
        // Unknown or unaligned addresses decode to None.
        assert_eq!(
            reg.id_of_meta_addr(Addr(KlassRegistry::META_BASE + 7)),
            None
        );
        assert_eq!(
            reg.id_of_meta_addr(Addr(
                KlassRegistry::META_BASE + 100 * KlassRegistry::META_SLOT_BYTES
            )),
            None
        );
        assert_eq!(reg.id_of_meta_addr(Addr(0x10)), None);
    }

    #[test]
    fn ref_offsets_skip_header() {
        let k = Klass::new(
            "K",
            vec![
                FieldKind::Value(ValueType::Long),
                FieldKind::Ref,
                FieldKind::Value(ValueType::Int),
                FieldKind::Ref,
            ],
        );
        assert_eq!(k.ref_offsets(), vec![4, 6]); // header is 3 words
        assert_eq!(k.instance_words(), 7);
    }

    #[test]
    fn prim_runs_coalesce_and_split_on_refs() {
        let k = Klass::new(
            "K",
            vec![
                FieldKind::Value(ValueType::Long),
                FieldKind::Value(ValueType::Int),
                FieldKind::Ref,
                FieldKind::Value(ValueType::Double),
                FieldKind::Ref,
                FieldKind::Ref,
                FieldKind::Value(ValueType::Byte),
                FieldKind::Value(ValueType::Char),
            ],
        );
        assert_eq!(k.prim_runs(), vec![(0, 2), (3, 1), (6, 2)]);
        let all_refs = Klass::new("R", vec![FieldKind::Ref; 3]);
        assert_eq!(all_refs.prim_runs(), vec![]);
        let all_prims = Klass::new("P", vec![FieldKind::Value(ValueType::Long); 4]);
        assert_eq!(all_prims.prim_runs(), vec![(0, 4)]);
        let empty = Klass::new("E", vec![]);
        assert_eq!(empty.prim_runs(), vec![]);
    }

    #[test]
    fn ref_slots_follow_the_layout() {
        let k = Klass::new("K", vec![FieldKind::Ref, FieldKind::Value(ValueType::Long)]);
        assert_eq!(k.ref_slots(5).collect::<Vec<_>>(), vec![3]);
        let refs = Klass::array("Object[]", FieldKind::Ref);
        assert_eq!(refs.ref_slots(7).rev().collect::<Vec<_>>(), vec![6, 5, 4]);
        assert!(refs.ref_offsets().is_empty());
        let longs = Klass::array("long[]", FieldKind::Value(ValueType::Long));
        assert_eq!(longs.ref_slots(1 << 20).len(), 0);
    }

    #[test]
    fn array_sizes() {
        let k = Klass::array("long[]", FieldKind::Value(ValueType::Long));
        assert!(k.is_array());
        assert_eq!(k.array_words(0), 4); // header + length word
        assert_eq!(k.array_words(10), 14);
    }

    #[test]
    #[should_panic(expected = "undefined for array klass")]
    fn instance_words_panics_for_arrays() {
        let k = Klass::array("Object[]", FieldKind::Ref);
        let _ = k.instance_words();
    }

    #[test]
    fn named_fields_and_signatures() {
        let k = Klass::with_named_fields(
            "Point",
            vec![
                ("x", FieldKind::Value(ValueType::Double)),
                ("y", FieldKind::Value(ValueType::Double)),
            ],
        );
        assert_eq!(k.fields()[0].name, "x");
        assert_eq!(ValueType::Double.signature(), 'D');
        assert_eq!(ValueType::Long.signature(), 'J');
        assert_eq!(ValueType::Boolean.signature(), 'Z');
    }

    #[test]
    fn descriptor_words_scale_with_fields() {
        let small = Klass::new("S", vec![FieldKind::Ref; 3]);
        let large = Klass::new("L", vec![FieldKind::Ref; 130]);
        assert_eq!(small.descriptor_words(), 3);
        assert_eq!(large.descriptor_words(), 5); // 2 + ceil(130/64)
    }
}
