//! The relocatable-image codec shared by Skyway and Archive.
//!
//! Both backends serialize an object graph as one contiguous image of raw
//! object records in depth-first reachability order (root first). Each
//! record is the object's words with three rewrites: the klass pointer
//! becomes the integer klass id, the runtime-private extension word
//! becomes zero, and every reference becomes the byte offset of its
//! target within the image, plus one (`0` = null). Deserialization
//! checks the image's structure ([`ArchiveView::check`]: the record walk,
//! then every reference against the one set of record starts), copies it
//! in bulk, restores each klass pointer and rebases each reference.
//!
//! What differs is the [`Dialect`]: the stream header in front of the
//! image, and the narration — Skyway's sequential reference-adjustment
//! walk versus Archive's validate-then-copy. Dispatch is static.
//!
//! The byte streams and narrated op sequences are pinned by the frozen
//! fixtures in `tests/golden_serde.rs`.

use crate::api::SerError;
use crate::archive::ArchiveView;
use crate::plan::{plans_for, Plan};
use crate::trace::{Op, OpBuf, TraceSink, IN_STREAM_BASE, OUT_STREAM_BASE};
use sdheap::{
    reachable, Addr, ExtWord, Heap, KlassId, KlassRegistry, Reachable, EXT_OFFSET, HEADER_WORDS,
    KLASS_OFFSET,
};
use std::collections::HashMap;

/// One backend's stream header and narration.
pub(crate) trait Dialect {
    /// Stream bytes ahead of the record image.
    const HEAD_BYTES: usize;

    /// Writes and narrates the stream header.
    fn write_head(out: &mut Vec<u8>, ops: &mut OpBuf, image_bytes: u32, records: u32);

    /// Checks the header and the record image, narrating into `sink`
    /// what the dialect charges for it.
    fn validate<'a>(
        bytes: &'a [u8],
        reg: &KlassRegistry,
        sink: &mut dyn TraceSink,
    ) -> Result<ArchiveView<'a>, SerError>;

    /// Serialize: narrates reading the klass or ext word at `addr`
    /// before it is rewritten.
    fn rewrite_header_word(ops: &mut OpBuf, addr: u64);

    /// Deserialize: narrates reading the klass id at `addr` before the
    /// klass pointer is stored over it.
    fn restore_klass(ops: &mut OpBuf, addr: u64);

    /// Deserialize: narrates rebasing one reference slot, between its
    /// load and its store.
    fn rebase(ops: &mut OpBuf, null: bool);
}

/// Encodes a reference word: 0 = null, otherwise image byte offset + 1.
#[inline]
fn encode_rel(rel: Option<u64>) -> u64 {
    rel.map_or(0, |r| r + 1)
}

/// Decodes a reference word written by [`encode_rel`].
#[inline]
pub(crate) fn decode_rel(word: u64) -> Option<u64> {
    word.checked_sub(1)
}

/// Word indices of the reference slots of a record of `plan`, given its
/// array length (ignored for instances).
pub(crate) fn ref_words(plan: &Plan, len: u64) -> impl Iterator<Item = u64> + '_ {
    let (elems, fields) = match plan.array_elem {
        Some(elem) if elem.is_ref() => (0..len, &[][..]),
        Some(_) => (0..0, &[][..]),
        None => (0..0, &plan.ref_slots[..]),
    };
    let first_elem = HEADER_WORDS as u64 + 1;
    elems.map(move |j| first_elem + j).chain(
        fields
            .iter()
            .map(|&slot| HEADER_WORDS as u64 + u64::from(slot)),
    )
}

/// The set of record starts of one image, one bit per image word. Every
/// decoded reference must hit a member.
#[derive(Clone, Debug)]
pub struct RecordStarts {
    bits: Vec<u64>,
}

impl RecordStarts {
    /// An empty set over an image of `image_bytes`.
    pub fn new(image_bytes: u64) -> Self {
        RecordStarts {
            bits: vec![0; (image_bytes / 8).div_ceil(64) as usize],
        }
    }

    /// Adds the record starting at byte offset `off` (word aligned, in
    /// the image).
    pub fn insert(&mut self, off: u64) {
        let w = off / 8;
        self.bits[(w / 64) as usize] |= 1 << (w % 64);
    }

    /// `true` if a record starts at byte offset `off`.
    pub fn contains(&self, off: u64) -> bool {
        let w = off / 8;
        off.is_multiple_of(8)
            && self
                .bits
                .get((w / 64) as usize)
                .is_some_and(|b| b & (1 << (w % 64)) != 0)
    }
}

/// Serializes the graph rooted at `root` as a `D` image.
pub(crate) fn serialize<D: Dialect>(
    heap: &Heap,
    reg: &KlassRegistry,
    root: Addr,
    sink: &mut dyn TraceSink,
) -> Result<Vec<u8>, SerError> {
    let plans = plans_for(reg);
    let mut ops = OpBuf::for_sink(sink);

    // Layout pass: the reachability walk assigns each record its image
    // offset, recorded in a hash table; the plan sizes every record.
    let order = reachable(heap, reg, root, Reachable::DepthFirst);
    let mut rel_of: HashMap<Addr, u64> = HashMap::with_capacity(order.len());
    let mut records: Vec<(KlassId, u64)> = Vec::with_capacity(order.len());
    let mut offset = 0u64;
    for &addr in &order {
        // Visited check + header fetch to size the object.
        ops.push(Op::HashLookup);
        ops.load_word_dep(addr.get());
        ops.load_word_dep(addr.add_words(KLASS_OFFSET as u64).get());
        let id = heap.klass_of(reg, addr);
        let plan = plans.plan(id);
        let words = if plan.is_array() {
            (HEADER_WORDS + 1 + heap.array_len(addr)) as u64
        } else {
            u64::from(plan.instance_bytes) / 8
        };
        rel_of.insert(addr, offset);
        records.push((id, words));
        offset += words * 8;
    }
    let total = u32::try_from(offset).map_err(|_| SerError::Unsupported("image exceeds 4 GiB"))?;

    let mut out = Vec::with_capacity(D::HEAD_BYTES + total as usize);
    D::write_head(&mut out, &mut ops, total, order.len() as u32);

    // Emission pass: one wire word per object word, each narrated as a
    // load from the heap and a store to the stream.
    let put = |out: &mut Vec<u8>, ops: &mut OpBuf, word: u64| {
        ops.store(OUT_STREAM_BASE + out.len() as u64, 8);
        out.extend_from_slice(&word.to_le_bytes());
    };
    for (&addr, &(id, words)) in order.iter().zip(&records) {
        let plan = plans.plan(id);
        // Header: the mark word travels, the klass pointer becomes the
        // type id, the ext word stays home.
        ops.load(addr.get(), 8);
        put(&mut out, &mut ops, heap.load(addr));
        D::rewrite_header_word(&mut ops, addr.add_words(KLASS_OFFSET as u64).get());
        ops.push(Op::HashLookup);
        put(&mut out, &mut ops, u64::from(id.get()));
        D::rewrite_header_word(&mut ops, addr.add_words(EXT_OFFSET as u64).get());
        put(&mut out, &mut ops, 0);
        for w in HEADER_WORDS as u64..words {
            let at = addr.add_words(w);
            ops.load(at.get(), 8);
            let word = heap.load(at);
            let is_ref = match plan.array_elem {
                Some(elem) => w > HEADER_WORDS as u64 && elem.is_ref(),
                None => plan.kinds[(w - HEADER_WORDS as u64) as usize].is_ref(),
            };
            let wire = if is_ref {
                ops.push(Op::HashLookup);
                ops.push(Op::Alu(1));
                let target = (word != 0).then(|| rel_of[&Addr(word)]);
                encode_rel(target)
            } else {
                word
            };
            put(&mut out, &mut ops, wire);
        }
        ops.maybe_flush(sink);
    }
    ops.flush(sink);
    Ok(out)
}

/// Reconstructs a `D` image into `dst`, returning the root (null for the
/// empty image).
pub(crate) fn deserialize<D: Dialect>(
    bytes: &[u8],
    reg: &KlassRegistry,
    dst: &mut Heap,
    sink: &mut dyn TraceSink,
) -> Result<Addr, SerError> {
    let view = D::validate(bytes, reg, sink)?;
    if view.starts.is_empty() {
        return Ok(Addr::NULL);
    }
    let base = dst.alloc_raw(view.image.len() / 8)?;
    let mut ops = OpBuf::for_sink(sink);

    // Bulk copy: one sequential read and write of the whole image.
    for (i, chunk) in view.image.chunks_exact(8).enumerate() {
        ops.load(IN_STREAM_BASE + (D::HEAD_BYTES + i * 8) as u64, 8);
        ops.store(base.add_words(i as u64).get(), 8);
        dst.store(
            base.add_words(i as u64),
            u64::from_le_bytes(chunk.try_into().expect("8")),
        );
        ops.maybe_flush(sink);
    }

    // Fix-up walk in image order: restore each klass pointer, rebase each
    // reference. Validation proved every size and target, so nothing here
    // can fail.
    for (&off, &id) in view.starts.iter().zip(&view.ids) {
        let at = base.add_bytes(u64::from(off));
        let klass = at.add_words(KLASS_OFFSET as u64);
        D::restore_klass(&mut ops, klass.get());
        ops.store(klass.get(), 8);
        dst.store(klass, reg.meta_addr(id).get());
        dst.set_ext_word(at, ExtWord::new());
        let plan = view.plans.plan(id);
        let len = if plan.is_array() {
            dst.array_len(at) as u64
        } else {
            0
        };
        for w in ref_words(plan, len) {
            let slot = at.add_words(w);
            ops.load(slot.get(), 8);
            let rel = decode_rel(dst.load(slot));
            D::rebase(&mut ops, rel.is_none());
            ops.store(slot.get(), 8);
            dst.store(slot, rel.map_or(0, |r| base.add_bytes(r).get()));
        }
        ops.maybe_flush(sink);
    }
    ops.flush(sink);
    dst.note_reconstructed_objects(view.starts.len() as u64);
    Ok(base)
}

/// Graphs and a round trip shared by the image dialects' tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use crate::{NullSink, Serializer};
    use sdheap::builder::Init;
    use sdheap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};

    /// Three `N(long, ref, ref)` objects: a → x → c and a → c.
    pub(crate) fn diamond() -> (Heap, KlassRegistry, Addr) {
        let mut b = GraphBuilder::new(1 << 16);
        let k = b.klass(
            "N",
            vec![
                FieldKind::Value(ValueType::Long),
                FieldKind::Ref,
                FieldKind::Ref,
            ],
        );
        let c = b
            .object(k, &[Init::Val(3), Init::Null, Init::Null])
            .unwrap();
        let x = b
            .object(k, &[Init::Val(2), Init::Ref(c), Init::Null])
            .unwrap();
        let a = b
            .object(k, &[Init::Val(1), Init::Ref(x), Init::Ref(c)])
            .unwrap();
        let (heap, reg) = b.finish();
        (heap, reg, a)
    }

    /// An `Object[4]` root holding a node twice, a shared `double[]` and
    /// a null; the node points back at the root.
    pub(crate) fn graph_with_arrays() -> (Heap, KlassRegistry, Addr) {
        let mut b = GraphBuilder::new(1 << 18);
        let n = b.klass("Node", vec![FieldKind::Ref]);
        let arr = b.array_klass("Object[]", FieldKind::Ref);
        let d = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
        let data = b
            .value_array(
                d,
                &[f64::to_bits(0.5), f64::to_bits(2.5), f64::to_bits(-1.0)],
            )
            .unwrap();
        let x = b.object(n, &[Init::Null]).unwrap();
        let container = b.ref_array(arr, &[x, data, Addr::NULL, x]).unwrap();
        b.link(x, 0, container); // cycle through the array
        let (heap, reg) = b.finish();
        (heap, reg, container)
    }

    /// Serializes with `ser` and reconstructs at `0x2_0000_0000`.
    pub(crate) fn roundtrip(
        ser: &dyn Serializer,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
    ) -> (Heap, Addr) {
        let bytes = ser.serialize(heap, reg, root, &mut NullSink).unwrap();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), heap.capacity_bytes());
        let new_root = ser
            .deserialize(&bytes, reg, &mut dst, &mut NullSink)
            .unwrap();
        (dst, new_root)
    }
}
