//! Functional model of Cereal's serialization and deserialization
//! (paper §IV + §V-B/§V-C data paths, minus timing).
//!
//! [`encode`] performs exactly what the serialization unit does:
//!
//! 1. the header-manager traversal — breadth-first over the object graph,
//!    FIFO as references stream in from the object handler — assigning
//!    each first-visited object its **relative address** (the running sum
//!    of serialized object sizes) and recording visited-state in the
//!    object's header extension via the serialization counter (§V-E);
//! 2. the object handler's split of every object word into the **value
//!    array** (mark word, class ID from the Klass Pointer Table, zeroed
//!    extension slot, primitive fields) and the **reference array**
//!    (relative addresses, object-packed);
//! 3. the object metadata manager's **layout bitmaps**, object-packed.
//!
//! [`decode`] performs the deserialization unit's reconstruction: walk the
//! unpacked layout bitmaps block by block, pull values and references from
//! their decoupled streams, translate class IDs back through the Class ID
//! Table, and write the image contiguously at the destination base.
//!
//! Both directions also extract the *workload descriptors* the timing
//! models in [`crate::su`] and [`crate::du`] replay against the memory
//! system.

use sdformat::layout::LayoutCounts;
use sdformat::pack::Packer;
use sdformat::stream::{decode_ref, encode_ref, CerealStream};
use sdheap::{
    Addr, ExtWord, Heap, KlassRegistry, MarkWord, EXT_OFFSET, HEADER_WORDS, KLASS_OFFSET,
    MARK_OFFSET,
};
use serializers::{RecordStarts, SerError};
use std::collections::VecDeque;

use crate::tables::ClassTables;

/// One header-manager traversal step.
#[derive(Clone, Debug, PartialEq)]
pub enum SerEvent {
    /// First visit: the full SU pipeline runs for this object.
    New(ObjVisit),
    /// Re-visit of an already-serialized object: the header manager only
    /// reads the recorded relative address from the header.
    Revisit {
        /// Object address (for memory-traffic accounting).
        addr: u64,
    },
}

/// Per-object information the SU pipeline needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjVisit {
    /// Object base address.
    pub addr: u64,
    /// Type-descriptor address fetched by the object metadata manager.
    pub meta_addr: u64,
    /// Descriptor size in bytes.
    pub meta_bytes: u32,
    /// Object size in bytes (header included).
    pub size_bytes: u32,
    /// Bytes this object contributes to the value array.
    pub value_bytes: u32,
    /// Number of reference slots.
    pub refs: u32,
}

/// Everything the SU timing model replays.
#[derive(Clone, Debug, Default)]
pub struct SerWorkload {
    /// Traversal steps in header-manager order.
    pub events: Vec<SerEvent>,
    /// Total value-array bytes written.
    pub value_bytes: u64,
    /// Packed reference array bytes (payload + end map).
    pub ref_bytes: u64,
    /// Packed layout-bitmap bytes (payload + end map).
    pub bitmap_bytes: u64,
    /// Deserialized-image size in bytes.
    pub image_bytes: u64,
}

/// Everything the DU timing model replays.
#[derive(Clone, Debug, Default)]
pub struct DeWorkload {
    /// Deserialized-image size in bytes.
    pub image_bytes: u64,
    /// Objects reconstructed.
    pub object_count: u64,
    /// Value-array bytes consumed.
    pub value_bytes: u64,
    /// Packed reference bytes consumed (payload + end map).
    pub ref_bytes: u64,
    /// Reference items consumed.
    pub ref_count: u64,
    /// Packed bitmap bytes consumed (payload + end map).
    pub bitmap_bytes: u64,
    /// Per-64 B-block value/reference word counts, in image order — what
    /// the layout manager hands the block manager.
    pub per_block: Vec<LayoutCounts>,
}

/// Result of a functional serialization.
#[derive(Clone, Debug)]
pub struct SerOutcome {
    /// The serialized stream.
    pub stream: CerealStream,
    /// The workload descriptor for the SU timing model.
    pub workload: SerWorkload,
}

/// Serializes the graph rooted at `root`, updating header extensions with
/// the serialization counter `counter` on behalf of unit `unit`.
///
/// # Errors
/// * [`SerError::Unsupported`] when a shared object's header is reserved
///   by a different unit (the SU refuses it, §V-E) or a class is not
///   registered in the Klass Pointer Table.
pub fn encode<'a>(
    heap: &'a mut Heap,
    reg: &'a KlassRegistry,
    tables: &'a ClassTables,
    counter: u16,
    unit: u8,
    strip_mark_words: bool,
) -> EncodeCall<'a> {
    EncodeCall {
        heap,
        reg,
        tables,
        counter,
        unit,
        strip_mark_words,
    }
}

/// Builder-style carrier so `encode(...).run(root)` reads naturally while
/// keeping the argument list typed.
pub struct EncodeCall<'a> {
    heap: &'a mut Heap,
    reg: &'a KlassRegistry,
    tables: &'a ClassTables,
    counter: u16,
    unit: u8,
    strip_mark_words: bool,
}

impl EncodeCall<'_> {
    /// Runs the serialization from `root`.
    ///
    /// # Errors
    /// See [`encode`].
    pub fn run(self, root: Addr) -> Result<SerOutcome, SerError> {
        let mut marks = HeaderMarks {
            heap: self.heap,
            counter: self.counter,
            unit: self.unit,
            strip_mark_words: self.strip_mark_words,
            events: Vec::new(),
        };
        let (stream, image_bytes) = traverse(&mut marks, self.reg, self.tables, root)?;
        let workload = SerWorkload {
            events: marks.events,
            value_bytes: stream.value_array.len() as u64,
            ref_bytes: stream.refs.total_bytes() as u64,
            bitmap_bytes: stream.bitmaps.total_bytes() as u64,
            image_bytes,
        };
        Ok(SerOutcome { stream, workload })
    }
}

/// The SU's visited state: the serialization counter, relative address
/// and reserving unit in each object's header extension (§V-E), plus
/// the traversal steps the SU timing model replays.
struct HeaderMarks<'a> {
    heap: &'a mut Heap,
    counter: u16,
    unit: u8,
    strip_mark_words: bool,
    events: Vec<SerEvent>,
}

impl HeaderMarks<'_> {
    /// The relative address recorded for `addr`, if it was visited; an
    /// error if another unit reserved its header (the SU refuses, §V-E).
    fn visited(&mut self, addr: Addr) -> Result<Option<u32>, SerError> {
        let ext = self.heap.ext_word(addr);
        if !ext.visited_in(self.counter) {
            return Ok(None);
        }
        if ext.reserving_unit() != Some(self.unit) {
            return Err(SerError::Unsupported(
                "shared object reserved by another serialization unit",
            ));
        }
        self.events.push(SerEvent::Revisit { addr: addr.get() });
        Ok(Some(ext.relative_addr()))
    }

    /// Records the first visit of `addr`, assigned relative address `rel`.
    fn first_visit(&mut self, reg: &KlassRegistry, addr: Addr, rel: u32) {
        let view = self.heap.object(reg, addr);
        let size = view.size_bytes() as u32;
        let refs = view.ref_offsets().len() as u32;
        let klass = view.klass_id();
        // The extension word is runtime-private and never travels
        // (paper Fig. 4 serializes a 16 B header: mark word + class
        // ID); stripping additionally drops the mark word.
        let value_bytes = size - refs * 8 - 8 - if self.strip_mark_words { 8 } else { 0 };
        self.heap.set_ext_word(
            addr,
            ExtWord::new()
                .with_counter(self.counter)
                .with_relative_addr(rel)
                .with_reserving_unit(self.unit),
        );
        self.events.push(SerEvent::New(ObjVisit {
            addr: addr.get(),
            meta_addr: reg.meta_addr(klass).get(),
            meta_bytes: reg.get(klass).descriptor_words() as u32 * 8,
            size_bytes: size,
            value_bytes,
            refs,
        }));
    }
}

/// The SU's serialization data path. Returns the stream and the image
/// size in bytes.
///
/// 1. The header-manager traversal: breadth-first, FIFO as references
///    stream in, assigning each first-visited object its relative
///    address (the running sum of object sizes).
/// 2. The object handler's split of every object word into the value
///    array and the reference array, and the metadata manager's layout
///    bitmaps.
fn traverse(
    marks: &mut HeaderMarks,
    reg: &KlassRegistry,
    tables: &ClassTables,
    root: Addr,
) -> Result<(CerealStream, u64), SerError> {
    let mut order: Vec<Addr> = Vec::new();
    let mut ref_items: Vec<Option<u32>> = Vec::new();
    let mut next_rel: u64 = 0;

    // Header-manager visit: the relative address of `addr` and whether
    // this was its first visit.
    let mut visit = |marks: &mut HeaderMarks, addr: Addr| -> Result<(u32, bool), SerError> {
        if let Some(rel) = marks.visited(addr)? {
            return Ok((rel, false));
        }
        let rel = u32::try_from(next_rel)
            .map_err(|_| SerError::Unsupported("object graph exceeds 4 GB image"))?;
        let view = marks.heap.object(reg, addr);
        // Verify registration (the CAM lookup the object handler does).
        tables.id_of(reg.meta_addr(view.klass_id()))?;
        next_rel += view.size_bytes();
        marks.first_visit(reg, addr, rel);
        order.push(addr);
        Ok((rel, true))
    };
    if !root.is_null() {
        let mut queue: VecDeque<Addr> = VecDeque::new();
        visit(marks, root)?;
        queue.push_back(root);
        while let Some(obj) = queue.pop_front() {
            for t in marks.heap.object(reg, obj).references() {
                if t.is_null() {
                    ref_items.push(None);
                    continue;
                }
                let (rel, fresh) = visit(marks, t)?;
                ref_items.push(Some(rel));
                if fresh {
                    queue.push_back(t);
                }
            }
        }
    }

    let (heap, strip_mark_words) = (&*marks.heap, marks.strip_mark_words);
    let mut value_array = Vec::new();
    let mut ref_packer = Packer::new();
    let mut bitmap_packer = Packer::new();
    for &addr in &order {
        let view = heap.object(reg, addr);
        let bits = view.layout_bits();
        for (w, &is_ref) in bits.iter().enumerate() {
            if is_ref {
                continue;
            }
            let word = match w {
                MARK_OFFSET if strip_mark_words => continue,
                KLASS_OFFSET => u64::from(tables.id_of(Addr(view.word(KLASS_OFFSET)))?),
                EXT_OFFSET => continue, // runtime-private, regenerated
                _ => view.word(w),
            };
            value_array.extend_from_slice(&word.to_le_bytes());
        }
        bitmap_packer.push_bits(&bits);
    }
    for &item in &ref_items {
        ref_packer.push_value(encode_ref(item));
    }

    let stream = CerealStream {
        total_object_bytes: next_rel as u32,
        object_count: order.len() as u32,
        value_array,
        refs: ref_packer.finish(),
        bitmaps: bitmap_packer.finish(),
    };
    Ok((stream, next_rel))
}

/// Reconstructs a stream into `dst`, returning the root address and the
/// DU workload descriptor.
///
/// The bitmaps tile the image, one record each. Every reference must
/// land on a record start, and every record must match the layout of the
/// class its id names (size, array length and reference slots), so an
/// `Ok` heap always walks. These checks are functional only: the DU
/// workload, and so DU timing, does not see them.
///
/// # Errors
/// [`SerError::Malformed`] on inconsistent streams,
/// [`SerError::UnknownClassId`] for unregistered classes, heap errors on
/// exhaustion.
pub fn decode(
    stream: &CerealStream,
    tables: &ClassTables,
    dst: &mut Heap,
    strip_mark_words: bool,
) -> Result<(Addr, DeWorkload), SerError> {
    if stream.object_count == 0 {
        return Ok((Addr::NULL, DeWorkload::default()));
    }
    let bitmaps = stream.bitmaps.to_items();
    if bitmaps.len() != stream.object_count as usize {
        return Err(SerError::Malformed("bitmap count mismatch"));
    }
    if bitmaps.iter().any(Vec::is_empty) {
        return Err(SerError::Malformed("empty record bitmap"));
    }
    // The header's image size is untrusted: nothing is sized from it
    // until the bitmaps, whose bits the payload bounds, tile it exactly.
    let image_words: u64 = bitmaps.iter().map(|bits| bits.len() as u64).sum();
    let image_bytes = u64::from(stream.total_object_bytes);
    if image_words * 8 != image_bytes {
        return Err(SerError::Malformed("bitmaps do not cover declared image"));
    }
    let base = dst.alloc_raw(image_words as usize)?;
    let mut starts = RecordStarts::new(image_bytes);
    let mut offset_words: u64 = 0;
    for bits in &bitmaps {
        starts.insert(offset_words * 8);
        offset_words += bits.len() as u64;
    }

    let values = stream.value_words();
    let mut value_iter = values.iter().copied();
    let mut ref_unpacker = sdformat::pack::Unpacker::new(&stream.refs);
    let mut ref_count = 0u64;

    let mut image_bits: Vec<bool> = Vec::with_capacity(image_words as usize);
    let mut offset_words: u64 = 0;
    for bits in &bitmaps {
        let record = base.add_words(offset_words);
        let mut class_id = None;
        for (w, &is_ref) in bits.iter().enumerate() {
            let addr = record.add_words(w as u64);
            let word = if is_ref {
                let item = ref_unpacker
                    .next_value()
                    .ok_or(SerError::Malformed("reference array underrun"))?;
                ref_count += 1;
                if item > u64::from(u32::MAX) {
                    return Err(SerError::Malformed("reference item out of range"));
                }
                match decode_ref(item) {
                    None => 0,
                    Some(rel) => {
                        if !starts.contains(u64::from(rel)) {
                            return Err(SerError::Malformed("reference to no record start"));
                        }
                        base.add_bytes(u64::from(rel)).get()
                    }
                }
            } else {
                match w {
                    EXT_OFFSET => 0, // cleared extension word, regenerated
                    MARK_OFFSET if strip_mark_words => {
                        // Header stripping: re-construct a fresh mark word;
                        // the identity hash is not preserved (the overhead
                        // the paper notes for hashcode-dependent code).
                        MarkWord::new()
                            .with_identity_hash((offset_words as u32).wrapping_mul(2654435761)
                                & 0x7fff_ffff)
                            .raw()
                    }
                    KLASS_OFFSET => {
                        let id = value_iter
                            .next()
                            .ok_or(SerError::Malformed("value array underrun"))?;
                        let id = u32::try_from(id)
                            .map_err(|_| SerError::Malformed("class id too large"))?;
                        class_id = Some(id);
                        tables.addr_of(id)?.get()
                    }
                    _ => value_iter
                        .next()
                        .ok_or(SerError::Malformed("value array underrun"))?,
                }
            };
            dst.store(addr, word);
        }
        let id = class_id.ok_or(SerError::Malformed("record without a class id"))?;
        let array_len = (bits.len() > HEADER_WORDS)
            .then(|| dst.load(record.add_words(HEADER_WORDS as u64)));
        if !tables.fits(id, bits, array_len) {
            return Err(SerError::Malformed("record does not match its class layout"));
        }
        image_bits.extend_from_slice(bits);
        offset_words += bits.len() as u64;
    }
    if value_iter.next().is_some() {
        return Err(SerError::Malformed("value array overrun"));
    }
    dst.note_reconstructed_objects(u64::from(stream.object_count));

    let workload = DeWorkload {
        image_bytes,
        object_count: u64::from(stream.object_count),
        value_bytes: stream.value_array.len() as u64,
        ref_bytes: stream.refs.total_bytes() as u64,
        ref_count,
        bitmap_bytes: stream.bitmaps.total_bytes() as u64,
        per_block: LayoutCounts::per_block(&image_bits),
    };
    Ok((base, workload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdheap::builder::Init;
    use sdheap::{isomorphic, isomorphic_with, FieldKind, GraphBuilder, IsoOptions, ValueType};

    fn tables_for(reg: &KlassRegistry) -> ClassTables {
        let mut t = ClassTables::new(4096);
        t.register_all(reg).unwrap();
        t
    }

    fn diamond() -> (Heap, KlassRegistry, Addr) {
        let mut b = GraphBuilder::new(1 << 18);
        let k = b.klass(
            "N",
            vec![FieldKind::Value(ValueType::Long), FieldKind::Ref, FieldKind::Ref],
        );
        let c = b.object(k, &[Init::Val(3), Init::Null, Init::Null]).unwrap();
        let x = b.object(k, &[Init::Val(2), Init::Ref(c), Init::Null]).unwrap();
        let a = b.object(k, &[Init::Val(1), Init::Ref(x), Init::Ref(c)]).unwrap();
        let (heap, reg) = b.finish();
        (heap, reg, a)
    }

    #[test]
    fn roundtrips_with_identity_hashes() {
        let (mut heap, reg, root) = diamond();
        let tables = tables_for(&reg);
        let out = encode(&mut heap, &reg, &tables, 1, 0, false).run(root).unwrap();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        let (new_root, _) = decode(&out.stream, &tables, &mut dst, false).unwrap();
        assert!(isomorphic(&heap, &reg, root, &dst, new_root));
        assert_eq!(new_root, dst.base(), "root reconstructs at the image base");
    }

    #[test]
    fn traversal_is_breadth_first() {
        let (mut heap, reg, root) = diamond();
        let tables = tables_for(&reg);
        let out = encode(&mut heap, &reg, &tables, 1, 0, false).run(root).unwrap();
        // BFS order: a, x, c → events New(a), New(x), New(c) with the
        // revisit of c (from x) after both.
        let kinds: Vec<bool> = out
            .workload
            .events
            .iter()
            .map(|e| matches!(e, SerEvent::New(_)))
            .collect();
        assert_eq!(kinds, vec![true, true, true, false]);
        assert_eq!(out.stream.object_count, 3);
    }

    #[test]
    fn relative_addresses_are_size_prefix_sums() {
        let (mut heap, reg, root) = diamond();
        let tables = tables_for(&reg);
        encode(&mut heap, &reg, &tables, 1, 0, false).run(root).unwrap();
        // Each object is 48 B; BFS order a, x, c.
        let x = heap.ref_field(root, 1).unwrap();
        let c = heap.ref_field(root, 2).unwrap();
        assert_eq!(heap.ext_word(root).relative_addr(), 0);
        assert_eq!(heap.ext_word(x).relative_addr(), 48);
        assert_eq!(heap.ext_word(c).relative_addr(), 96);
    }

    #[test]
    fn visited_counter_makes_second_pass_cheap_to_verify() {
        let (mut heap, reg, root) = diamond();
        let tables = tables_for(&reg);
        encode(&mut heap, &reg, &tables, 1, 0, false).run(root).unwrap();
        // A second serialization with a new counter re-traverses from
        // scratch (old marks are stale), producing an identical stream.
        let out2 = encode(&mut heap, &reg, &tables, 2, 0, false).run(root).unwrap();
        assert_eq!(out2.stream.object_count, 3);
    }

    #[test]
    fn shared_object_reserved_by_other_unit_falls_back() {
        let (mut heap, reg, root) = diamond();
        let tables = tables_for(&reg);
        let c = heap.ref_field(root, 2).unwrap();
        // Unit 3 currently holds c's header for counter 7.
        heap.set_ext_word(
            c,
            ExtWord::new().with_counter(7).with_relative_addr(0).with_reserving_unit(3),
        );
        let err = encode(&mut heap, &reg, &tables, 7, 0, false).run(root).unwrap_err();
        assert!(matches!(err, SerError::Unsupported(_)));
    }

    #[test]
    fn nulls_survive() {
        let (mut heap, reg, root) = diamond();
        let tables = tables_for(&reg);
        let out = encode(&mut heap, &reg, &tables, 1, 0, false).run(root).unwrap();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        let (new_root, _) = decode(&out.stream, &tables, &mut dst, false).unwrap();
        let c = dst.ref_field(new_root, 2).unwrap();
        assert_eq!(dst.ref_field(c, 1), None);
        assert_eq!(dst.ref_field(c, 2), None);
    }

    #[test]
    fn arrays_and_cycles_roundtrip() {
        let mut b = GraphBuilder::new(1 << 18);
        let n = b.klass("Node", vec![FieldKind::Ref]);
        let oarr = b.array_klass("Object[]", FieldKind::Ref);
        let darr = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
        let data = b.value_array(darr, &[1, 2, 3, 4, 5]).unwrap();
        let x = b.object(n, &[Init::Null]).unwrap();
        let arr = b.ref_array(oarr, &[x, data, Addr::NULL]).unwrap();
        b.link(x, 0, arr);
        let (mut heap, reg) = b.finish();
        let tables = tables_for(&reg);
        let out = encode(&mut heap, &reg, &tables, 1, 0, false).run(arr).unwrap();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        let (new_root, wl) = decode(&out.stream, &tables, &mut dst, false).unwrap();
        assert!(isomorphic(&heap, &reg, arr, &dst, new_root));
        assert_eq!(wl.object_count, 3);
        assert_eq!(wl.ref_count, 4, "3 array slots + 1 field");
    }

    #[test]
    fn header_strip_saves_8b_per_object() {
        let (mut heap, reg, root) = diamond();
        let tables = tables_for(&reg);
        let full = encode(&mut heap, &reg, &tables, 1, 0, false).run(root).unwrap();
        let stripped = encode(&mut heap, &reg, &tables, 2, 0, true).run(root).unwrap();
        assert_eq!(
            full.stream.value_array.len() - stripped.stream.value_array.len(),
            3 * 8
        );
        // Stripped streams still reconstruct, modulo identity hashes.
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        let (new_root, _) = decode(&stripped.stream, &tables, &mut dst, true).unwrap();
        assert!(isomorphic_with(
            &heap,
            &reg,
            root,
            &dst,
            new_root,
            IsoOptions {
                check_identity_hash: false
            }
        ));
    }

    #[test]
    fn null_root_is_empty_stream() {
        let (mut heap, reg, _) = diamond();
        let tables = tables_for(&reg);
        let out = encode(&mut heap, &reg, &tables, 1, 0, false).run(Addr::NULL).unwrap();
        assert_eq!(out.stream.object_count, 0);
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 12);
        let (root, wl) = decode(&out.stream, &tables, &mut dst, false).unwrap();
        assert!(root.is_null());
        assert_eq!(wl.object_count, 0);
    }

    #[test]
    fn corrupt_streams_rejected() {
        let (mut heap, reg, root) = diamond();
        let tables = tables_for(&reg);
        let out = encode(&mut heap, &reg, &tables, 1, 0, false).run(root).unwrap();

        // Truncated value array.
        let mut s = out.stream.clone();
        s.value_array.truncate(s.value_array.len() - 8);
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        assert!(matches!(
            decode(&s, &tables, &mut dst, false),
            Err(SerError::Malformed(_))
        ));

        // Unregistered class id.
        let empty_tables = ClassTables::new(4);
        let mut dst2 = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        assert!(decode(&out.stream, &empty_tables, &mut dst2, false).is_err());

        // Image size lies.
        let mut s3 = out.stream.clone();
        s3.total_object_bytes = 8;
        let mut dst3 = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        assert!(matches!(
            decode(&s3, &tables, &mut dst3, false),
            Err(SerError::Malformed(_))
        ));

        // Well-formed streams whose records or references disagree with
        // the image: each would otherwise decode into a heap that does
        // not walk.
        let mut b = GraphBuilder::new(1 << 18);
        let k = b.klass(
            "N",
            vec![FieldKind::Value(ValueType::Long), FieldKind::Ref, FieldKind::Ref],
        );
        let arr = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
        let data = b.value_array(arr, &[1, 2, 3, 4, 5, 6, 7]).unwrap();
        let c = b.object(k, &[Init::Val(3), Init::Null, Init::Null]).unwrap();
        let x = b.object(k, &[Init::Val(2), Init::Ref(c), Init::Ref(data)]).unwrap();
        let a = b.object(k, &[Init::Val(1), Init::Ref(x), Init::Ref(c)]).unwrap();
        let (mut heap, reg) = b.finish();
        let tables = tables_for(&reg);
        let out = encode(&mut heap, &reg, &tables, 1, 0, false).run(a).unwrap();
        let rejects = |s: &CerealStream| {
            let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
            matches!(decode(s, &tables, &mut dst, false), Err(SerError::Malformed(_)))
        };

        // The first reference points into the root's header, not at a
        // record start.
        let mut s = out.stream.clone();
        let mut items = s.refs.to_values();
        items[0] = sdformat::stream::encode_ref(Some(8));
        s.refs = sdformat::pack::Packed::from_values(items);
        assert!(rejects(&s), "reference to a non-start");

        // The double[]'s length word (value 11, after three 3-word
        // objects, its mark word and its class id) disagrees with its
        // 11-word bitmap.
        let mut s = out.stream.clone();
        s.value_array[11 * 8..12 * 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(rejects(&s), "array length against bitmap");
    }

    #[test]
    fn image_size_is_checked_before_allocating() {
        // One object with a one-word bitmap that declares a 4 GB image:
        // the bitmaps disprove it before `dst` is asked for the space.
        let mut bitmaps = Packer::new();
        bitmaps.push_bits(&[false]);
        let s = CerealStream {
            total_object_bytes: 0xFFFF_FFF8,
            object_count: 1,
            value_array: Vec::new(),
            refs: sdformat::pack::Packed::from_values([]),
            bitmaps: bitmaps.finish(),
        };
        let (_, reg, _) = diamond();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 12);
        assert!(matches!(
            decode(&s, &tables_for(&reg), &mut dst, false),
            Err(SerError::Malformed(_))
        ));
    }

    #[test]
    fn workload_descriptors_account_sizes() {
        let (mut heap, reg, root) = diamond();
        let tables = tables_for(&reg);
        let out = encode(&mut heap, &reg, &tables, 1, 0, false).run(root).unwrap();
        let w = &out.workload;
        assert_eq!(w.image_bytes, 3 * 48);
        assert_eq!(w.value_bytes, out.stream.value_array.len() as u64);
        // 3 objects × (mark + class ID + 1 long) = 9 value words; the
        // extension word never travels.
        assert_eq!(w.value_bytes, 9 * 8);
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        let (_, dw) = decode(&out.stream, &tables, &mut dst, false).unwrap();
        assert_eq!(dw.image_bytes, w.image_bytes);
        assert_eq!(dw.per_block.len(), (3 * 48usize).div_ceil(64));
        let total_words: u32 = dw.per_block.iter().map(|b| b.values + b.refs).sum();
        assert_eq!(total_words, 18);
    }
}
