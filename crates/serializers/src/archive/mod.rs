//! The zero-copy "Archive" backend (rkyv-style, ROADMAP item 1).
//!
//! Every other backend in this repository *reconstructs* objects on
//! deserialize: bytes in, a fresh heap out. The Cereal paper attacks the
//! cost of that reconstruction with a hardware DU; the rkyv line of work
//! attacks it from the format side instead — lay the serialized image
//! out so that deserialization is **pointer validation plus in-place
//! access**, with no heap rebuild at all. This module is that software
//! rival:
//!
//! * **Wire format** — the relocatable image of `crate::image` (records
//!   in depth-first order, klass ids, zeroed ext words, references as
//!   image offset + 1) behind a 16-byte header: magic, format version,
//!   image size and record count. Skyway ships the same image.
//! * **Deserialize** — [`ArchiveView::validate`] checks the buffer
//!   *once* (bounds, 8-byte alignment, strictly-advancing record walk,
//!   klass tags, array lengths, and that every encoded offset lands on a
//!   validated record start) and then serves field reads and graph
//!   traversal directly over the wire bytes. No copy, no allocation, no
//!   reference rebasing: the validation cost is proportional to the
//!   *structure* (records + references), not the payload, which is why
//!   the archive wins biggest on dense value data.
//!
//! [`Archive`] also implements the ordinary [`Serializer`] contract —
//! its `deserialize` validates and then materializes a heap through the
//! shared image codec, so it slots
//! into every reconstruction-shaped consumer (block-store reloads, the
//! cross-serializer isomorphism suites) — but the shuffle reducers and
//! the cached-RDD job fold straight off the validated view.
//!
//! Corruption never panics and never grants access: every mutation of a
//! valid archive surfaces as a typed [`ArchiveError`] (seeded
//! property-tested), which composes beneath the CRC frame the engines
//! add on the wire.

use crate::api::{SerError, Serializer};
use crate::image::{self, decode_rel, ref_words, RecordStarts};
use crate::plan::plans_for;
use crate::trace::{Op, OpBuf, TraceSink, IN_STREAM_BASE, OUT_STREAM_BASE};
use sdheap::{
    reachable, Addr, Heap, KlassId, KlassRegistry, Reachable, HEADER_WORDS, KLASS_OFFSET,
};
use std::fmt;
use std::rc::Rc;

/// Archive image magic (first header bytes).
pub const MAGIC: [u8; 4] = *b"ARCV";
/// Wire-format version — golden tests pin the layout per version.
pub const VERSION: u32 = 1;
/// Header bytes ahead of the record image: magic, version, image bytes,
/// record count (all little-endian `u32`-sized fields).
pub const HEADER_BYTES: usize = 16;

/// Byte offset of one array-length word past the object header.
const LEN_WORD: usize = HEADER_WORDS;

/// Typed validation failures. Every way untrusted bytes can be wrong
/// maps to one variant; [`ArchiveView::validate`] never panics and never
/// returns a view over a buffer that failed any check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArchiveError {
    /// Fewer bytes than the fixed header.
    TruncatedHeader,
    /// The magic bytes are not [`MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// Header-declared image size disagrees with the buffer.
    ImageSizeMismatch {
        /// Bytes the header declared.
        declared: u64,
        /// Bytes actually present past the header.
        actual: u64,
    },
    /// The image size is not a multiple of the 8-byte word.
    Unaligned,
    /// A record's klass tag names no registered klass.
    UnknownClassId {
        /// Image offset of the record.
        offset: u32,
        /// The tag found on the wire.
        id: u64,
    },
    /// An array record's length word overruns the image.
    ArrayOverrun {
        /// Image offset of the record.
        offset: u32,
        /// The length found on the wire.
        len: u64,
    },
    /// A record (header, or sized body) overruns the image.
    RecordOverrun {
        /// Image offset of the record.
        offset: u32,
    },
    /// The record walk ended on a different count than the header.
    CountMismatch {
        /// Records the header declared.
        declared: u32,
        /// Records the walk found.
        walked: u32,
    },
    /// An encoded reference does not land on a validated record start.
    DanglingRef {
        /// Image offset of the record holding the reference.
        offset: u32,
        /// The (decoded) target offset found on the wire.
        target: u64,
    },
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::TruncatedHeader => write!(f, "truncated archive header"),
            ArchiveError::BadMagic => write!(f, "bad archive magic"),
            ArchiveError::BadVersion(v) => write!(f, "unknown archive version {v}"),
            ArchiveError::ImageSizeMismatch { declared, actual } => {
                write!(
                    f,
                    "image size mismatch: declared {declared}, actual {actual}"
                )
            }
            ArchiveError::Unaligned => write!(f, "image size not word-aligned"),
            ArchiveError::UnknownClassId { offset, id } => {
                write!(f, "unknown class id {id} at offset {offset}")
            }
            ArchiveError::ArrayOverrun { offset, len } => {
                write!(f, "array length {len} at offset {offset} overruns image")
            }
            ArchiveError::RecordOverrun { offset } => {
                write!(f, "record at offset {offset} overruns image")
            }
            ArchiveError::CountMismatch { declared, walked } => {
                write!(
                    f,
                    "record count mismatch: declared {declared}, walked {walked}"
                )
            }
            ArchiveError::DanglingRef { offset, target } => {
                write!(f, "dangling reference at offset {offset} to {target}")
            }
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<ArchiveError> for SerError {
    fn from(e: ArchiveError) -> Self {
        match e {
            ArchiveError::UnknownClassId { id, .. } if u32::try_from(id).is_ok() => {
                SerError::UnknownClassId(id as u32)
            }
            ArchiveError::UnknownClassId { .. } => SerError::Malformed("class id exceeds u32"),
            ArchiveError::TruncatedHeader => SerError::Malformed("truncated archive header"),
            ArchiveError::BadMagic => SerError::Malformed("bad archive magic"),
            ArchiveError::BadVersion(_) => SerError::Malformed("unknown archive version"),
            ArchiveError::ImageSizeMismatch { .. } => SerError::Malformed("image size mismatch"),
            ArchiveError::Unaligned => SerError::Malformed("image size not word-aligned"),
            ArchiveError::ArrayOverrun { .. } => SerError::Malformed("array length exceeds image"),
            ArchiveError::RecordOverrun { .. } => SerError::Malformed("record overruns image"),
            ArchiveError::CountMismatch { .. } => SerError::Malformed("record count mismatch"),
            ArchiveError::DanglingRef { .. } => SerError::Malformed("dangling relative reference"),
        }
    }
}

/// A validated, directly addressable archive image.
///
/// Construction goes through [`ArchiveView::validate`] only; every
/// accessor afterwards is a plain slice read over the wire bytes — no
/// heap, no copies. Objects are named by their image byte offset (the
/// value [`ArchiveView::root`] and the `*_ref` accessors hand out);
/// passing an offset that validation did not produce is a programming
/// error (debug-asserted), not a reachable state for untrusted input.
pub struct ArchiveView<'a> {
    /// The record image (header stripped).
    pub(crate) image: &'a [u8],
    // (Debug is implemented by hand below: the image can be megabytes.)
    /// Validated record start offsets, ascending.
    pub(crate) starts: Vec<u32>,
    /// Klass of each record, aligned with `starts`.
    pub(crate) ids: Vec<KlassId>,
    /// Compiled plans of the registry the image was validated against.
    pub(crate) plans: Rc<crate::plan::PlanCache>,
}

impl fmt::Debug for ArchiveView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArchiveView")
            .field("image_bytes", &self.image.len())
            .field("records", &self.starts.len())
            .finish()
    }
}

impl<'a> ArchiveView<'a> {
    /// Validates `bytes` as an archive over `reg` and returns the
    /// zero-copy view. One pass walks the records (bounds, alignment,
    /// klass tags, array lengths; the cursor strictly advances and must
    /// land exactly on the image end — the walk itself is the
    /// acyclicity proof for the record layout), then every reference
    /// slot is checked to encode null or a validated record start.
    ///
    /// The work is narrated into `sink` like any deserializer's: this
    /// *is* Archive's deserialization cost, and it scales with records
    /// and references, not payload bytes.
    ///
    /// # Errors
    /// A typed [`ArchiveError`] for every possible defect; never panics
    /// on arbitrary input.
    pub fn validate(
        bytes: &'a [u8],
        reg: &KlassRegistry,
        sink: &mut dyn TraceSink,
    ) -> Result<ArchiveView<'a>, ArchiveError> {
        let mut buf = OpBuf::for_sink(sink);
        buf.load(IN_STREAM_BASE, HEADER_BYTES as u32);
        buf.push(Op::Alu(2));
        let r = Self::validate_inner(bytes, reg, &mut buf);
        buf.flush(sink);
        r
    }

    fn validate_inner(
        bytes: &'a [u8],
        reg: &KlassRegistry,
        buf: &mut OpBuf,
    ) -> Result<ArchiveView<'a>, ArchiveError> {
        if bytes.len() < HEADER_BYTES {
            return Err(ArchiveError::TruncatedHeader);
        }
        if bytes[0..4] != MAGIC {
            return Err(ArchiveError::BadMagic);
        }
        let word32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4"));
        let version = word32(4);
        if version != VERSION {
            return Err(ArchiveError::BadVersion(version));
        }
        let total = u64::from(word32(8));
        let image = &bytes[HEADER_BYTES..];
        if image.len() as u64 != total {
            return Err(ArchiveError::ImageSizeMismatch {
                declared: total,
                actual: image.len() as u64,
            });
        }
        if !total.is_multiple_of(8) {
            return Err(ArchiveError::Unaligned);
        }
        Self::check(image, word32(12), HEADER_BYTES, reg, buf)
    }

    /// Checks the structure of a word-aligned record `image` that the
    /// stream header says holds `declared_count` records, narrating into
    /// `buf` as reads at `head_bytes` past [`IN_STREAM_BASE`]. This is
    /// the image check both image dialects run before reconstruction;
    /// Skyway passes a silent `buf`.
    pub(crate) fn check(
        image: &'a [u8],
        declared_count: u32,
        head_bytes: usize,
        reg: &KlassRegistry,
        buf: &mut OpBuf,
    ) -> Result<ArchiveView<'a>, ArchiveError> {
        let total = image.len() as u64;
        let stream = |off: u64| IN_STREAM_BASE + head_bytes as u64 + off;
        let word = |off: u64| {
            u64::from_le_bytes(image[off as usize..off as usize + 8].try_into().expect("8"))
        };
        let plans = plans_for(reg);

        // Pass 1 — the record walk. The cursor advances by each record's
        // self-declared size; every step is bounds-checked before any
        // size-dependent read, so the walk either lands exactly on the
        // image end or fails typed. Unlike Skyway's adjustment walk this
        // only touches the klass tag (and array length) of each record —
        // the payload words stay untouched.
        // The header's count is untrusted: reserve no more records than
        // the image can hold (every record is at least a header).
        let max_records = total / (HEADER_WORDS as u64 * 8);
        let reserve = u64::from(declared_count).min(max_records) as usize;
        let mut starts: Vec<u32> = Vec::with_capacity(reserve);
        let mut ids: Vec<KlassId> = Vec::with_capacity(reserve);
        let mut start_set = RecordStarts::new(total);
        let mut cursor = 0u64;
        while cursor < total {
            let offset = cursor as u32;
            if total - cursor < (HEADER_WORDS as u64) * 8 {
                return Err(ArchiveError::RecordOverrun { offset });
            }
            // The next record's position depends on this record's size,
            // but the cursor only ever moves forward through one packed
            // buffer — a streaming scan, narrated like the byte-stream
            // parsers' sequential reads (plain loads), not like heap
            // pointer chasing: the paper's §III chain is per random
            // *address*; a monotone stride is prefetch-covered.
            buf.load(stream(cursor + 8 * KLASS_OFFSET as u64), 8);
            buf.push(Op::Alu(2));
            let raw_id = word(cursor + 8 * KLASS_OFFSET as u64);
            if raw_id >= reg.len() as u64 {
                return Err(ArchiveError::UnknownClassId { offset, id: raw_id });
            }
            let id = KlassId(raw_id as u32);
            let plan = plans.plan(id);
            let size_words = if plan.is_array() {
                if total - cursor < (HEADER_WORDS as u64 + 1) * 8 {
                    return Err(ArchiveError::RecordOverrun { offset });
                }
                buf.load(stream(cursor + 8 * LEN_WORD as u64), 8);
                buf.push(Op::Alu(1));
                let len = word(cursor + 8 * LEN_WORD as u64);
                let elem_words_left = (total - cursor) / 8 - (HEADER_WORDS as u64 + 1);
                if len > elem_words_left {
                    return Err(ArchiveError::ArrayOverrun { offset, len });
                }
                HEADER_WORDS as u64 + 1 + len
            } else {
                u64::from(plan.instance_bytes) / 8
            };
            if size_words * 8 > total - cursor {
                return Err(ArchiveError::RecordOverrun { offset });
            }
            starts.push(offset);
            ids.push(id);
            start_set.insert(cursor);
            cursor += size_words * 8;
        }
        if starts.len() as u64 != u64::from(declared_count) {
            return Err(ArchiveError::CountMismatch {
                declared: declared_count,
                walked: starts.len() as u32,
            });
        }

        // Pass 2 — reference validation: every encoded offset must be
        // null or a member of the record-start set, so every access the
        // view will ever serve is in bounds and on a record boundary
        // before any access is granted.
        for (&off, &id) in starts.iter().zip(&ids) {
            let plan = plans.plan(id);
            let base = u64::from(off);
            let len = if plan.is_array() {
                word(base + 8 * LEN_WORD as u64)
            } else {
                0
            };
            for w in ref_words(plan, len) {
                let at = base + w * 8;
                buf.load(stream(at), 8);
                buf.push(Op::Alu(2));
                buf.push(Op::Branch);
                if let Some(rel) = decode_rel(word(at)) {
                    if !start_set.contains(rel) {
                        return Err(ArchiveError::DanglingRef {
                            offset: off,
                            target: rel,
                        });
                    }
                }
            }
        }

        Ok(ArchiveView {
            image,
            starts,
            ids,
            plans,
        })
    }

    /// Number of validated records.
    pub fn object_count(&self) -> u32 {
        self.starts.len() as u32
    }

    /// The root record's offset — the serialized graph's root is always
    /// the first record. `None` for the empty (null-root) archive.
    pub fn root(&self) -> Option<u32> {
        self.starts.first().copied()
    }

    /// Validated record start offsets, ascending.
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// Raw image word at byte offset `off`.
    #[inline]
    fn word(&self, off: u64) -> u64 {
        u64::from_le_bytes(
            self.image[off as usize..off as usize + 8]
                .try_into()
                .expect("8"),
        )
    }

    #[inline]
    fn debug_check_obj(&self, obj: u32) {
        debug_assert!(
            self.starts.binary_search(&obj).is_ok(),
            "offset {obj} is not a validated record start"
        );
    }

    /// The klass of the record at `obj`.
    pub fn klass_id(&self, obj: u32) -> KlassId {
        self.debug_check_obj(obj);
        KlassId(self.word(u64::from(obj) + 8 * KLASS_OFFSET as u64) as u32)
    }

    /// The record's mark word (identity hash travels with the archive).
    pub fn mark_word(&self, obj: u32) -> u64 {
        self.debug_check_obj(obj);
        self.word(u64::from(obj))
    }

    /// Length of the array record at `obj`.
    pub fn array_len(&self, obj: u32) -> usize {
        self.debug_check_obj(obj);
        self.word(u64::from(obj) + 8 * LEN_WORD as u64) as usize
    }

    /// Raw element word `j` of the array record at `obj`.
    pub fn array_word(&self, obj: u32, j: usize) -> u64 {
        debug_assert!(j < self.array_len(obj));
        self.word(u64::from(obj) + 8 * (HEADER_WORDS + 1 + j) as u64)
    }

    /// Element `j` of a reference array, decoded to the target record's
    /// offset (`None` = null).
    pub fn array_elem_ref(&self, obj: u32, j: usize) -> Option<u32> {
        decode_rel(self.array_word(obj, j)).map(|rel| rel as u32)
    }

    /// Raw field word `idx` (declaration order) of the instance record
    /// at `obj` — primitive bits exactly as the source heap held them.
    pub fn field(&self, obj: u32, idx: usize) -> u64 {
        self.debug_check_obj(obj);
        self.word(u64::from(obj) + 8 * (HEADER_WORDS + idx) as u64)
    }

    /// Reference field `idx`, decoded to the target record's offset
    /// (`None` = null).
    pub fn field_ref(&self, obj: u32, idx: usize) -> Option<u32> {
        decode_rel(self.field(obj, idx)).map(|rel| rel as u32)
    }

    /// A narrated full-image data fold: the wrapping sum of every data
    /// word (primitive fields, array lengths, value-array elements)
    /// across all records, reading straight off the wire. This is the
    /// "consume everything" stand-in the crossover study uses as
    /// Archive's post-validate access cost; the mirror walk over a
    /// reconstructed heap produces the bit-identical sum.
    pub fn fold_words(&self, sink: &mut dyn TraceSink) -> u64 {
        let mut buf = OpBuf::for_sink(sink);
        let mut sum = 0u64;
        let stream = |off: u64| IN_STREAM_BASE + HEADER_BYTES as u64 + off;
        for (i, &off) in self.starts.iter().enumerate() {
            let plan = self.plans.plan(self.ids[i]);
            let base = u64::from(off);
            match plan.array_elem {
                Some(elem) => {
                    buf.load(stream(base + 8 * LEN_WORD as u64), 8);
                    let len = self.word(base + 8 * LEN_WORD as u64);
                    sum = sum.wrapping_add(len);
                    if !elem.is_ref() {
                        for j in 0..len {
                            let at = base + 8 * (HEADER_WORDS as u64 + 1 + j);
                            buf.load(stream(at), 8);
                            buf.push(Op::Alu(1));
                            sum = sum.wrapping_add(self.word(at));
                        }
                    }
                }
                None => {
                    for p in &plan.prims {
                        let at = base + 8 * (HEADER_WORDS as u64 + u64::from(p.idx));
                        buf.load(stream(at), 8);
                        buf.push(Op::Alu(1));
                        sum = sum.wrapping_add(self.word(at));
                    }
                }
            }
            buf.maybe_flush(sink);
        }
        buf.flush(sink);
        sum
    }
}

/// The mirror of [`ArchiveView::fold_words`] over a live heap: the same
/// data words in the same (depth-first reachability) order, so the sums
/// are bit-identical — the crossover study's equivalence anchor.
pub fn fold_words_heap(heap: &Heap, reg: &KlassRegistry, root: Addr) -> u64 {
    let mut sum = 0u64;
    let plans = plans_for(reg);
    for addr in reachable(heap, reg, root, Reachable::DepthFirst) {
        let plan = plans.plan(heap.klass_of(reg, addr));
        match plan.array_elem {
            Some(elem) => {
                let len = heap.array_len(addr);
                sum = sum.wrapping_add(len as u64);
                if !elem.is_ref() {
                    for j in 0..len {
                        sum = sum.wrapping_add(heap.array_elem(addr, j));
                    }
                }
            }
            None => {
                for p in &plan.prims {
                    sum = sum.wrapping_add(heap.field(addr, p.idx as usize));
                }
            }
        }
    }
    sum
}

/// The zero-copy archive serializer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Archive;

impl Archive {
    /// A new instance.
    pub fn new() -> Self {
        Archive
    }
}

impl Serializer for Archive {
    fn name(&self) -> &str {
        "Archive"
    }

    fn serialize_into(
        &self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
        sink: &mut dyn TraceSink,
        out: &mut Vec<u8>,
    ) -> Result<usize, SerError> {
        // The layout pass sizes the image exactly, so a fresh buffer holds
        // less memory than growing a reused one.
        *out = image::serialize::<Self>(heap, reg, root, sink)?;
        Ok(out.len())
    }

    /// Reconstructing deserialization for consumers that need a live
    /// heap (isomorphism suites, block-store reloads): validate, then
    /// materialize. The zero-copy consumers skip this entirely and read
    /// through [`ArchiveView`].
    fn deserialize(
        &self,
        bytes: &[u8],
        reg: &KlassRegistry,
        dst: &mut Heap,
        sink: &mut dyn TraceSink,
    ) -> Result<Addr, SerError> {
        image::deserialize::<Self>(bytes, reg, dst, sink)
    }

    fn preserves_identity_hash(&self) -> bool {
        true
    }
}

/// The archive dialect: a 16-byte header, validation narrated before
/// the copy, and the ALU op of every reference rebase charged alike.
impl image::Dialect for Archive {
    const HEAD_BYTES: usize = HEADER_BYTES;

    fn write_head(out: &mut Vec<u8>, ops: &mut OpBuf, image_bytes: u32, records: u32) {
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&image_bytes.to_le_bytes());
        out.extend_from_slice(&records.to_le_bytes());
        ops.store(OUT_STREAM_BASE, HEADER_BYTES as u32);
    }

    fn validate<'a>(
        bytes: &'a [u8],
        reg: &KlassRegistry,
        sink: &mut dyn TraceSink,
    ) -> Result<ArchiveView<'a>, SerError> {
        Ok(ArchiveView::validate(bytes, reg, sink)?)
    }

    fn rewrite_header_word(_: &mut OpBuf, _: u64) {}

    fn restore_klass(_: &mut OpBuf, _: u64) {}

    fn rebase(ops: &mut OpBuf, _null: bool) {
        ops.push(Op::Alu(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::fixtures::{self, diamond, graph_with_arrays};
    use crate::kryo::Kryo;
    use crate::trace::{CountingSink, NullSink};
    use sdheap::{isomorphic, ExtWord, FieldKind, GraphBuilder, ValueType};

    fn roundtrip(heap: &mut Heap, reg: &KlassRegistry, root: Addr) -> (Heap, Addr) {
        fixtures::roundtrip(&Archive::new(), heap, reg, root)
    }

    #[test]
    fn reconstructing_roundtrip_is_isomorphic_with_hashes() {
        let (mut heap, reg, a) = diamond();
        let (dst, root) = roundtrip(&mut heap, &reg, a);
        assert!(isomorphic(&heap, &reg, a, &dst, root));
    }

    #[test]
    fn roundtrips_arrays_and_cycles() {
        let (mut heap, reg, root) = graph_with_arrays();
        let (dst, new_root) = roundtrip(&mut heap, &reg, root);
        assert!(isomorphic(&heap, &reg, root, &dst, new_root));
    }

    #[test]
    fn null_root_archives_to_empty_image() {
        let mut b = GraphBuilder::new(1 << 12);
        b.klass("N", vec![FieldKind::Value(ValueType::Long)]);
        let (mut heap, reg) = b.finish();
        let bytes = Archive::new()
            .serialize(&mut heap, &reg, Addr::NULL, &mut NullSink)
            .unwrap();
        assert_eq!(bytes.len(), HEADER_BYTES);
        let view = ArchiveView::validate(&bytes, &reg, &mut NullSink).unwrap();
        assert_eq!(view.object_count(), 0);
        assert!(view.root().is_none());
        let mut dst = Heap::new(1 << 12);
        let root = Archive::new()
            .deserialize(&bytes, &reg, &mut dst, &mut NullSink)
            .unwrap();
        assert!(root.is_null());
    }

    #[test]
    fn view_reads_match_the_source_heap() {
        let (mut heap, reg, root) = graph_with_arrays();
        let bytes = Archive::new()
            .serialize(&mut heap, &reg, root, &mut NullSink)
            .unwrap();
        let view = ArchiveView::validate(&bytes, &reg, &mut NullSink).unwrap();
        let r = view.root().expect("non-empty");
        assert_eq!(view.array_len(r), 4);
        // Element 1 is the shared double[]; element 2 is null; 0 and 3
        // alias the same node.
        let data = view.array_elem_ref(r, 1).expect("non-null");
        assert_eq!(view.array_len(data), 3);
        assert_eq!(view.array_word(data, 0), f64::to_bits(0.5));
        assert_eq!(view.array_word(data, 2), f64::to_bits(-1.0));
        assert!(view.array_elem_ref(r, 2).is_none());
        assert_eq!(view.array_elem_ref(r, 0), view.array_elem_ref(r, 3));
        // The cycle: node's ref field points back at the root record.
        let node = view.array_elem_ref(r, 0).expect("non-null");
        assert_eq!(view.field_ref(node, 0), Some(r));
        // Identity hash travels on the wire.
        assert_eq!(view.mark_word(r), heap.load(root));
    }

    #[test]
    fn validation_grants_access_with_zero_stores_and_allocs() {
        let (mut heap, reg, root) = graph_with_arrays();
        let bytes = Archive::new()
            .serialize(&mut heap, &reg, root, &mut NullSink)
            .unwrap();
        let mut counts = CountingSink::new();
        let view = ArchiveView::validate(&bytes, &reg, &mut counts).unwrap();
        assert_eq!(counts.stores, 0, "validate must not write");
        assert_eq!(counts.allocs, 0, "validate must not allocate");
        // And it is structurally cheaper than reconstruction, which
        // copies every word of the image.
        let mut de_counts = CountingSink::new();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        Archive::new()
            .deserialize(&bytes, &reg, &mut dst, &mut de_counts)
            .unwrap();
        assert!(
            counts.loads < de_counts.loads && counts.load_bytes < de_counts.load_bytes,
            "validate ({} loads) must touch less than reconstruct ({} loads)",
            counts.loads,
            de_counts.loads
        );
        drop(view);
    }

    #[test]
    fn fold_words_matches_the_heap_walk() {
        for (mut heap, reg, root) in [diamond(), graph_with_arrays()] {
            let bytes = Archive::new()
                .serialize(&mut heap, &reg, root, &mut NullSink)
                .unwrap();
            let view = ArchiveView::validate(&bytes, &reg, &mut NullSink).unwrap();
            assert_eq!(
                view.fold_words(&mut NullSink),
                fold_words_heap(&heap, &reg, root),
                "zero-copy fold must be bit-identical to the heap walk"
            );
        }
    }

    #[test]
    fn ext_word_does_not_travel() {
        let (mut heap, reg, a) = diamond();
        heap.set_ext_word(a, ExtWord::new().with_counter(99).with_relative_addr(7));
        let (dst, root) = roundtrip(&mut heap, &reg, a);
        assert_eq!(dst.ext_word(root), ExtWord::new());
    }

    #[test]
    fn stream_is_larger_than_kryo_but_header_fixed() {
        let (mut heap, reg, a) = diamond();
        let arc = Archive::new()
            .serialize(&mut heap, &reg, a, &mut NullSink)
            .unwrap();
        let kryo = Kryo::new()
            .serialize(&mut heap, &reg, a, &mut NullSink)
            .unwrap();
        assert!(
            arc.len() > kryo.len(),
            "headers travel: {} vs {}",
            arc.len(),
            kryo.len()
        );
        assert_eq!(&arc[0..4], &MAGIC);
        assert_eq!(arc.len(), HEADER_BYTES + 3 * (3 + 3) * 8);
    }

    #[test]
    fn corrupt_archives_fail_typed() {
        let (mut heap, reg, a) = diamond();
        let bytes = Archive::new()
            .serialize(&mut heap, &reg, a, &mut NullSink)
            .unwrap();
        // Baseline sanity.
        assert!(ArchiveView::validate(&bytes, &reg, &mut NullSink).is_ok());
        // Truncated header.
        assert_eq!(
            ArchiveView::validate(&bytes[..7], &reg, &mut NullSink).unwrap_err(),
            ArchiveError::TruncatedHeader
        );
        // Bad magic.
        let mut evil = bytes.clone();
        evil[0] ^= 0xff;
        assert_eq!(
            ArchiveView::validate(&evil, &reg, &mut NullSink).unwrap_err(),
            ArchiveError::BadMagic
        );
        // Bad version.
        let mut evil = bytes.clone();
        evil[4] = 9;
        assert!(matches!(
            ArchiveView::validate(&evil, &reg, &mut NullSink).unwrap_err(),
            ArchiveError::BadVersion(9)
        ));
        // Truncated image.
        assert!(matches!(
            ArchiveView::validate(&bytes[..bytes.len() - 8], &reg, &mut NullSink).unwrap_err(),
            ArchiveError::ImageSizeMismatch { .. }
        ));
        // Unknown klass tag.
        let mut evil = bytes.clone();
        let klass_at = HEADER_BYTES + 8 * KLASS_OFFSET;
        evil[klass_at..klass_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            ArchiveView::validate(&evil, &reg, &mut NullSink).unwrap_err(),
            ArchiveError::UnknownClassId { offset: 0, .. }
        ));
        // Dangling reference (first ref field of the first record).
        let mut evil = bytes.clone();
        let ref_at = HEADER_BYTES + 8 * (HEADER_WORDS + 1);
        evil[ref_at..ref_at + 8].copy_from_slice(&(12345u64).to_le_bytes());
        assert!(matches!(
            ArchiveView::validate(&evil, &reg, &mut NullSink).unwrap_err(),
            ArchiveError::DanglingRef { .. }
        ));
        // Record count lies.
        let mut evil = bytes.clone();
        evil[12..16].copy_from_slice(&7u32.to_le_bytes());
        assert!(matches!(
            ArchiveView::validate(&evil, &reg, &mut NullSink).unwrap_err(),
            ArchiveError::CountMismatch {
                declared: 7,
                walked: 3
            }
        ));
        // And the Serializer-facing path surfaces the same defects as
        // SerError (the engines' typed error channel).
        let mut dst = Heap::new(1 << 16);
        let err = Archive::new()
            .deserialize(&bytes[..bytes.len() - 8], &reg, &mut dst, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, SerError::Malformed(_)));
    }

    #[test]
    fn array_length_overrun_is_rejected() {
        let (mut heap, reg, root) = graph_with_arrays();
        let bytes = Archive::new()
            .serialize(&mut heap, &reg, root, &mut NullSink)
            .unwrap();
        // The root record is the Object[4]; inflate its length word.
        let len_at = HEADER_BYTES + 8 * LEN_WORD;
        let mut evil = bytes.clone();
        evil[len_at..len_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert!(matches!(
            ArchiveView::validate(&evil, &reg, &mut NullSink).unwrap_err(),
            ArchiveError::ArrayOverrun { offset: 0, .. }
        ));
    }
}
