//! The managed heap: a flat word array with a bump allocator.
//!
//! Addresses are absolute byte addresses starting at [`Heap::DEFAULT_BASE`]
//! (1 GB-aligned, matching the paper's 1 GB huge-page assumption for
//! Cereal's TLB, §V-E). Every object occupies `HEADER_WORDS` header words
//! (mark word, klass pointer, Cereal extension) followed by its field or
//! array words.

use crate::ext::ExtWord;
use crate::klass::{KlassId, KlassRegistry};
use crate::mark::MarkWord;
use crate::object::{ObjectView, EXT_OFFSET, HEADER_WORDS, KLASS_OFFSET, MARK_OFFSET};
use crate::word::{Addr, WORD_BYTES};
use std::fmt;

/// Errors returned by heap operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeapError {
    /// The bump allocator ran out of capacity.
    OutOfMemory {
        /// Words requested by the failing allocation.
        requested_words: usize,
        /// Words still available.
        available_words: usize,
    },
}

impl fmt::Display for HeapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapError::OutOfMemory {
                requested_words,
                available_words,
            } => write!(
                f,
                "heap out of memory: requested {requested_words} words, {available_words} available"
            ),
        }
    }
}

impl std::error::Error for HeapError {}

/// A word-addressed managed heap with HotSpot-style object layout.
#[derive(Clone)]
pub struct Heap {
    base: Addr,
    words: Vec<u64>,
    top: usize,
    allocated_objects: u64,
    hash_seed: u64,
}

impl fmt::Debug for Heap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Heap")
            .field("base", &self.base)
            .field("capacity_words", &self.words.len())
            .field("used_words", &self.top)
            .field("allocated_objects", &self.allocated_objects)
            .finish()
    }
}

impl Heap {
    /// Default heap base: 1 GB, so the whole heap sits in one huge page of
    /// the paper's TLB model.
    pub const DEFAULT_BASE: u64 = 0x4000_0000;

    /// A heap of `capacity_bytes` at the default base.
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is not a multiple of 8.
    pub fn new(capacity_bytes: u64) -> Self {
        Self::with_base(Addr(Self::DEFAULT_BASE), capacity_bytes)
    }

    /// A heap at an explicit word-aligned base address. Deserializers use
    /// this to reconstruct at a chosen target region.
    ///
    /// # Panics
    /// Panics if the base is unaligned or the capacity is not a multiple
    /// of 8.
    pub fn with_base(base: Addr, capacity_bytes: u64) -> Self {
        assert!(base.is_word_aligned(), "heap base must be word aligned");
        assert_eq!(
            capacity_bytes % WORD_BYTES,
            0,
            "capacity must be whole words"
        );
        Heap {
            base,
            words: vec![0; (capacity_bytes / WORD_BYTES) as usize],
            top: 0,
            allocated_objects: 0,
            hash_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Heap base address.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.top as u64 * WORD_BYTES
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.words.len() as u64 * WORD_BYTES
    }

    /// Number of objects allocated so far.
    pub fn object_count(&self) -> u64 {
        self.allocated_objects
    }

    /// First free address (the bump pointer).
    pub fn top_addr(&self) -> Addr {
        self.base.add_words(self.top as u64)
    }

    #[inline]
    fn index_of(&self, addr: Addr) -> usize {
        debug_assert!(addr.is_word_aligned(), "unaligned access at {addr}");
        let idx = addr.words_since(self.base) as usize;
        debug_assert!(
            idx < self.top.max(self.words.len()),
            "access beyond heap at {addr}"
        );
        idx
    }

    /// Reads the word at `addr`.
    ///
    /// # Panics
    /// Panics (debug) on unaligned or out-of-heap addresses.
    #[inline]
    pub fn load(&self, addr: Addr) -> u64 {
        self.words[self.index_of(addr)]
    }

    /// Writes the word at `addr`.
    #[inline]
    pub fn store(&mut self, addr: Addr, value: u64) {
        let i = self.index_of(addr);
        self.words[i] = value;
    }

    /// `true` if `addr` points into this heap's allocated region.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.get() >= self.base.get() && addr.get() < self.top_addr().get()
    }

    fn alloc_words(&mut self, words: usize) -> Result<Addr, HeapError> {
        if self.top + words > self.words.len() {
            return Err(HeapError::OutOfMemory {
                requested_words: words,
                available_words: self.words.len() - self.top,
            });
        }
        let addr = self.base.add_words(self.top as u64);
        self.top += words;
        Ok(addr)
    }

    fn next_identity_hash(&mut self) -> u32 {
        // Identity hashes only need to be well distributed and
        // deterministic for reproducible runs.
        (crate::rng::splitmix64(&mut self.hash_seed) & 0x7fff_ffff) as u32
    }

    /// Allocates an instance of `klass`, zero-initialized, with a fresh
    /// identity hash in the mark word.
    ///
    /// # Errors
    /// [`HeapError::OutOfMemory`] when capacity is exhausted.
    ///
    /// # Panics
    /// Panics if `klass` is an array klass (use [`Heap::alloc_array`]).
    pub fn alloc(&mut self, reg: &KlassRegistry, klass: KlassId) -> Result<Addr, HeapError> {
        let k = reg.get(klass);
        let words = k.instance_words();
        let addr = self.alloc_words(words)?;
        self.init_header(reg, addr, klass);
        Ok(addr)
    }

    /// Allocates an array of `len` elements of array klass `klass`.
    ///
    /// # Errors
    /// [`HeapError::OutOfMemory`] when capacity is exhausted.
    ///
    /// # Panics
    /// Panics if `klass` is not an array klass.
    pub fn alloc_array(
        &mut self,
        reg: &KlassRegistry,
        klass: KlassId,
        len: usize,
    ) -> Result<Addr, HeapError> {
        let k = reg.get(klass);
        let words = k.array_words(len);
        let addr = self.alloc_words(words)?;
        self.init_header(reg, addr, klass);
        self.store(addr.add_words(HEADER_WORDS as u64), len as u64);
        Ok(addr)
    }

    /// Reserves raw words with an already-initialized header elsewhere —
    /// used by deserializers that reconstruct objects by block copy.
    ///
    /// # Errors
    /// [`HeapError::OutOfMemory`] when capacity is exhausted.
    pub fn alloc_raw(&mut self, words: usize) -> Result<Addr, HeapError> {
        self.alloc_words(words)
    }

    /// Notes that `n` reconstructed objects now live in raw-allocated
    /// space (keeps [`Heap::object_count`] meaningful after deserialization).
    pub fn note_reconstructed_objects(&mut self, n: u64) {
        self.allocated_objects += n;
    }

    fn init_header(&mut self, reg: &KlassRegistry, addr: Addr, klass: KlassId) {
        let hash = self.next_identity_hash();
        self.store(
            addr.add_words(MARK_OFFSET as u64),
            MarkWord::new().with_identity_hash(hash).raw(),
        );
        self.store(
            addr.add_words(KLASS_OFFSET as u64),
            reg.meta_addr(klass).get(),
        );
        self.store(addr.add_words(EXT_OFFSET as u64), ExtWord::new().raw());
        self.allocated_objects += 1;
    }

    /// A typed view of the object at `addr`.
    pub fn object<'h>(&'h self, reg: &'h KlassRegistry, addr: Addr) -> ObjectView<'h> {
        ObjectView::new(self, reg, addr)
    }

    /// Mark word of the object at `addr`.
    pub fn mark_word(&self, addr: Addr) -> MarkWord {
        MarkWord::from_raw(self.load(addr.add_words(MARK_OFFSET as u64)))
    }

    /// Overwrites the mark word.
    pub fn set_mark_word(&mut self, addr: Addr, m: MarkWord) {
        self.store(addr.add_words(MARK_OFFSET as u64), m.raw());
    }

    /// Klass id of the object at `addr` (decoded from its klass pointer).
    ///
    /// # Panics
    /// Panics if the klass pointer does not decode against `reg` — i.e. the
    /// address does not hold a live object.
    pub fn klass_of(&self, reg: &KlassRegistry, addr: Addr) -> KlassId {
        let ptr = Addr(self.load(addr.add_words(KLASS_OFFSET as u64)));
        reg.id_of_meta_addr(ptr)
            .unwrap_or_else(|| panic!("no object at {addr}: bad klass pointer {ptr}"))
    }

    /// Cereal extension word of the object at `addr`.
    pub fn ext_word(&self, addr: Addr) -> ExtWord {
        ExtWord::from_raw(self.load(addr.add_words(EXT_OFFSET as u64)))
    }

    /// Overwrites the Cereal extension word.
    pub fn set_ext_word(&mut self, addr: Addr, e: ExtWord) {
        self.store(addr.add_words(EXT_OFFSET as u64), e.raw());
    }

    /// Value of declared field `i` (not for arrays).
    #[inline]
    pub fn field(&self, addr: Addr, i: usize) -> u64 {
        self.load(addr.add_words((HEADER_WORDS + i) as u64))
    }

    /// Sets declared field `i` to a primitive value.
    #[inline]
    pub fn set_field(&mut self, addr: Addr, i: usize, value: u64) {
        self.store(addr.add_words((HEADER_WORDS + i) as u64), value);
    }

    /// Reads declared field `i` as a reference (`None` = null).
    #[inline]
    pub fn ref_field(&self, addr: Addr, i: usize) -> Option<Addr> {
        let v = self.field(addr, i);
        (v != 0).then_some(Addr(v))
    }

    /// Sets declared field `i` to a reference.
    #[inline]
    pub fn set_ref(&mut self, addr: Addr, i: usize, target: Addr) {
        self.set_field(addr, i, target.get());
    }

    /// Slice over declared fields `first..first + len` of the instance at
    /// `addr` — the batched read the compiled-plan run interpreters use,
    /// with one bounds check per run instead of one per field.
    #[inline]
    pub fn field_words(&self, addr: Addr, first: usize, len: usize) -> &[u64] {
        let i = self.index_of(addr.add_words((HEADER_WORDS + first) as u64));
        &self.words[i..i + len]
    }

    /// Mutable slice over declared fields `first..first + len` of the
    /// instance at `addr`.
    #[inline]
    pub fn field_words_mut(&mut self, addr: Addr, first: usize, len: usize) -> &mut [u64] {
        let i = self.index_of(addr.add_words((HEADER_WORDS + first) as u64));
        &mut self.words[i..i + len]
    }

    /// Slice over elements `first..first + len` of the array at `addr`.
    #[inline]
    pub fn array_words_slice(&self, addr: Addr, first: usize, len: usize) -> &[u64] {
        let i = self.index_of(addr.add_words((HEADER_WORDS + 1 + first) as u64));
        &self.words[i..i + len]
    }

    /// Mutable slice over elements `first..first + len` of the array at
    /// `addr`.
    #[inline]
    pub fn array_words_slice_mut(&mut self, addr: Addr, first: usize, len: usize) -> &mut [u64] {
        let i = self.index_of(addr.add_words((HEADER_WORDS + 1 + first) as u64));
        &mut self.words[i..i + len]
    }

    /// Length of the array object at `addr`.
    #[inline]
    pub fn array_len(&self, addr: Addr) -> usize {
        self.load(addr.add_words(HEADER_WORDS as u64)) as usize
    }

    /// Element `i` of the array object at `addr`.
    #[inline]
    pub fn array_elem(&self, addr: Addr, i: usize) -> u64 {
        self.load(addr.add_words((HEADER_WORDS + 1 + i) as u64))
    }

    /// Sets element `i` of the array object at `addr`.
    #[inline]
    pub fn set_array_elem(&mut self, addr: Addr, i: usize, value: u64) {
        self.store(addr.add_words((HEADER_WORDS + 1 + i) as u64), value);
    }

    /// Total size in words of the object at `addr` (header included).
    pub fn object_words(&self, reg: &KlassRegistry, addr: Addr) -> usize {
        self.object(reg, addr).size_words()
    }

    /// Clears every allocated object's extension word — the metadata reset
    /// the paper piggybacks on garbage collection (§V-E) so serialization
    /// counters and unit reservations cannot go stale.
    pub fn gc_clear_serialization_metadata(&mut self, reg: &KlassRegistry) {
        let mut cursor = self.base;
        let end = self.top_addr();
        while cursor.get() < end.get() {
            let words = self.object_words(reg, cursor) as u64;
            self.set_ext_word(cursor, ExtWord::new());
            cursor = cursor.add_words(words);
        }
    }

    /// Iterates over the addresses of all allocated objects in allocation
    /// order. Only valid when every allocation went through
    /// [`Heap::alloc`]/[`Heap::alloc_array`] (not raw block copies).
    pub fn iter_objects<'h>(&'h self, reg: &'h KlassRegistry) -> impl Iterator<Item = Addr> + 'h {
        let mut cursor = self.base;
        let end = self.top_addr();
        std::iter::from_fn(move || {
            if cursor.get() >= end.get() {
                return None;
            }
            let addr = cursor;
            cursor = cursor.add_words(self.object_words(reg, addr) as u64);
            Some(addr)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::klass::{FieldKind, Klass, ValueType};

    fn registry() -> (KlassRegistry, KlassId, KlassId) {
        let mut reg = KlassRegistry::new();
        let node = reg.register(Klass::new(
            "Node",
            vec![FieldKind::Value(ValueType::Long), FieldKind::Ref],
        ));
        let arr = reg.register(Klass::array("long[]", FieldKind::Value(ValueType::Long)));
        (reg, node, arr)
    }

    #[test]
    fn alloc_initializes_header() {
        let (reg, node, _) = registry();
        let mut heap = Heap::new(4096);
        let a = heap.alloc(&reg, node).unwrap();
        assert_eq!(heap.klass_of(&reg, a), node);
        assert_ne!(heap.mark_word(a).identity_hash(), 0);
        assert_eq!(heap.ext_word(a), ExtWord::new());
        assert_eq!(heap.object_count(), 1);
        assert_eq!(heap.used_bytes(), 5 * WORD_BYTES);
    }

    #[test]
    fn identity_hashes_differ() {
        let (reg, node, _) = registry();
        let mut heap = Heap::new(4096);
        let a = heap.alloc(&reg, node).unwrap();
        let b = heap.alloc(&reg, node).unwrap();
        assert_ne!(
            heap.mark_word(a).identity_hash(),
            heap.mark_word(b).identity_hash()
        );
    }

    #[test]
    fn fields_and_refs() {
        let (reg, node, _) = registry();
        let mut heap = Heap::new(4096);
        let a = heap.alloc(&reg, node).unwrap();
        let b = heap.alloc(&reg, node).unwrap();
        heap.set_field(a, 0, 99);
        heap.set_ref(a, 1, b);
        assert_eq!(heap.field(a, 0), 99);
        assert_eq!(heap.ref_field(a, 1), Some(b));
        assert_eq!(heap.ref_field(b, 1), None);
    }

    #[test]
    fn field_and_array_slices_match_scalar_access() {
        let (reg, node, arr) = registry();
        let mut heap = Heap::new(4096);
        let a = heap.alloc(&reg, node).unwrap();
        heap.set_field(a, 0, 11);
        heap.set_field(a, 1, 22);
        assert_eq!(heap.field_words(a, 0, 2), &[11, 22]);
        heap.field_words_mut(a, 0, 2)[1] = 33;
        assert_eq!(heap.field(a, 1), 33);

        let v = heap.alloc_array(&reg, arr, 4).unwrap();
        for i in 0..4 {
            heap.set_array_elem(v, i, i as u64 + 1);
        }
        assert_eq!(heap.array_words_slice(v, 1, 2), &[2, 3]);
        heap.array_words_slice_mut(v, 0, 4)[3] = 9;
        assert_eq!(heap.array_elem(v, 3), 9);
    }

    #[test]
    fn arrays() {
        let (reg, _, arr) = registry();
        let mut heap = Heap::new(4096);
        let a = heap.alloc_array(&reg, arr, 5).unwrap();
        assert_eq!(heap.array_len(a), 5);
        for i in 0..5 {
            heap.set_array_elem(a, i, (i * i) as u64);
        }
        assert_eq!(heap.array_elem(a, 4), 16);
        assert_eq!(heap.object_words(&reg, a), HEADER_WORDS + 1 + 5);
    }

    #[test]
    fn out_of_memory() {
        let (reg, node, _) = registry();
        let mut heap = Heap::new(5 * WORD_BYTES); // exactly one Node
        heap.alloc(&reg, node).unwrap();
        let err = heap.alloc(&reg, node).unwrap_err();
        assert!(matches!(err, HeapError::OutOfMemory { .. }));
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn iter_objects_walks_allocation_order() {
        let (reg, node, arr) = registry();
        let mut heap = Heap::new(4096);
        let a = heap.alloc(&reg, node).unwrap();
        let b = heap.alloc_array(&reg, arr, 3).unwrap();
        let c = heap.alloc(&reg, node).unwrap();
        let all: Vec<_> = heap.iter_objects(&reg).collect();
        assert_eq!(all, vec![a, b, c]);
    }

    #[test]
    fn gc_clears_extension_words() {
        let (reg, node, _) = registry();
        let mut heap = Heap::new(4096);
        let a = heap.alloc(&reg, node).unwrap();
        let b = heap.alloc(&reg, node).unwrap();
        heap.set_ext_word(a, ExtWord::new().with_counter(3).with_reserving_unit(1));
        heap.set_ext_word(b, ExtWord::new().with_relative_addr(64));
        heap.gc_clear_serialization_metadata(&reg);
        assert_eq!(heap.ext_word(a), ExtWord::new());
        assert_eq!(heap.ext_word(b), ExtWord::new());
    }

    #[test]
    fn custom_base() {
        let (reg, node, _) = registry();
        let base = Addr(0x8000_0000);
        let mut heap = Heap::with_base(base, 4096);
        let a = heap.alloc(&reg, node).unwrap();
        assert_eq!(a, base);
        assert!(heap.contains(a));
        assert!(!heap.contains(Addr(0x100)));
    }

    #[test]
    fn debug_is_informative() {
        let heap = Heap::new(1024);
        let s = format!("{heap:?}");
        assert!(s.contains("capacity_words"));
    }
}
