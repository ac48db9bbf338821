//! The Skyway baseline (paper §II).
//!
//! Skyway "transfers an object by a simple memory copy": the serialized
//! body is the raw words of every reachable object — headers included —
//! with two rewrites applied on the way out:
//!
//! * the klass pointer is replaced by a global integer **type ID**
//!   (automatic type registration; no per-class user effort);
//! * every reference is converted from an absolute address to a
//!   **relative address** (byte offset of the target within the
//!   serialized image).
//!
//! Deserialization is one bulk copy followed by a **sequential reference
//! adjustment** walk — the step the paper singles out as Skyway's residual
//! inefficiency and the one Cereal parallelizes away: each object's klass
//! word must be re-resolved and each reference rebased, in stream order,
//! before the next object's layout is even known.
//!
//! Because headers travel with the data, reconstructed objects keep their
//! identity hashes, and the stream is larger than Kryo's ("the object is
//! serialized as is including reference fields and headers").
//!
//! The image is the one [`crate::Archive`] ships, so both run the codec
//! in `crate::image`; this module supplies Skyway's dialect: an 8-byte
//! header and the narration above. The codec checks every reference
//! against the set of record starts before adjusting it, un-narrated.

use crate::api::{SerError, Serializer};
use crate::archive::ArchiveView;
use crate::image;
use crate::trace::{NullSink, Op, OpBuf, TraceSink, IN_STREAM_BASE, OUT_STREAM_BASE};
use sdheap::{Addr, Heap, KlassRegistry};

/// Stream header: image bytes and object count, each a `u32`.
const HEAD_BYTES: usize = 8;

/// The Skyway serializer baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct Skyway;

impl Skyway {
    /// A new instance.
    pub fn new() -> Self {
        Skyway
    }
}

impl Serializer for Skyway {
    fn name(&self) -> &str {
        "Skyway"
    }

    fn serialize(
        &self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
        sink: &mut dyn TraceSink,
    ) -> Result<Vec<u8>, SerError> {
        image::serialize::<Self>(heap, reg, root, sink)
    }

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

/// The Skyway dialect: an 8-byte header, and the sequential adjustment
/// walk's narration. Serialization reads every word it copies, rewritten
/// or not. Deserialization charges no validation; instead each record's
/// klass id is a dependent load (the next record's position waits on
/// it), and only non-null references pay the rebasing add.
impl image::Dialect for Skyway {
    const HEAD_BYTES: usize = HEAD_BYTES;

    fn write_head(out: &mut Vec<u8>, ops: &mut OpBuf, image_bytes: u32, records: u32) {
        for word in [image_bytes, records] {
            ops.store(OUT_STREAM_BASE + out.len() as u64, 4);
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    fn validate<'a>(
        bytes: &'a [u8],
        reg: &KlassRegistry,
        sink: &mut dyn TraceSink,
    ) -> Result<ArchiveView<'a>, SerError> {
        if bytes.len() < HEAD_BYTES {
            return Err(SerError::Malformed("truncated header"));
        }
        let mut ops = OpBuf::for_sink(sink);
        ops.load(IN_STREAM_BASE, HEAD_BYTES as u32);
        ops.flush(sink);
        let word32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4"));
        let image = &bytes[HEAD_BYTES..];
        if image.len() as u64 != u64::from(word32(0)) {
            return Err(SerError::Malformed("body size mismatch"));
        }
        if !image.len().is_multiple_of(8) {
            return Err(SerError::Malformed("unaligned body"));
        }
        // The structural checks are not narrated: Skyway trusts its
        // input, and its modeled cost is the adjustment walk alone.
        let mut silent = OpBuf::for_sink(&NullSink);
        Ok(ArchiveView::check(image, word32(4), HEAD_BYTES, reg, &mut silent)?)
    }

    fn rewrite_header_word(ops: &mut OpBuf, addr: u64) {
        ops.load(addr, 8);
    }

    fn restore_klass(ops: &mut OpBuf, addr: u64) {
        ops.load_word_dep(addr);
    }

    fn rebase(ops: &mut OpBuf, null: bool) {
        if !null {
            ops.push(Op::Alu(1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::fixtures::{self, diamond, graph_with_arrays};
    use crate::kryo::Kryo;
    use crate::trace::CountingSink;
    use sdheap::{isomorphic, ExtWord, HEADER_WORDS};

    fn roundtrip(heap: &mut Heap, reg: &KlassRegistry, root: Addr) -> (Heap, Addr) {
        fixtures::roundtrip(&Skyway::new(), heap, reg, root)
    }

    #[test]
    fn roundtrips_with_identity_hashes() {
        let (mut heap, reg, a) = diamond();
        let (dst, root) = roundtrip(&mut heap, &reg, a);
        // Strict isomorphism: Skyway copies headers, hashes survive.
        assert!(isomorphic(&heap, &reg, a, &dst, root));
    }

    #[test]
    fn root_lands_at_image_base() {
        let (mut heap, reg, a) = diamond();
        let (dst, root) = roundtrip(&mut heap, &reg, a);
        assert_eq!(root, dst.base());
    }

    #[test]
    fn roundtrips_arrays_and_cycles() {
        let (mut heap, reg, container) = graph_with_arrays();
        let (dst, root) = roundtrip(&mut heap, &reg, container);
        assert!(isomorphic(&heap, &reg, container, &dst, root));
    }

    #[test]
    fn stream_is_larger_than_kryo() {
        let (mut heap, reg, a) = diamond();
        let sky = Skyway::new().serialize(&mut heap, &reg, a, &mut NullSink).unwrap();
        let kryo = Kryo::new().serialize(&mut heap, &reg, a, &mut NullSink).unwrap();
        assert!(
            sky.len() > kryo.len(),
            "skyway {} must exceed kryo {} (headers travel)",
            sky.len(),
            kryo.len()
        );
    }

    #[test]
    fn ext_word_does_not_travel() {
        let (mut heap, reg, a) = diamond();
        heap.set_ext_word(a, ExtWord::new().with_counter(99).with_relative_addr(7));
        let (dst, root) = roundtrip(&mut heap, &reg, a);
        assert_eq!(dst.ext_word(root), ExtWord::new());
    }

    #[test]
    fn no_reflection_and_bulk_copy_shape() {
        let (mut heap, reg, a) = diamond();
        let mut ser_counts = CountingSink::new();
        let bytes = Skyway::new().serialize(&mut heap, &reg, a, &mut ser_counts).unwrap();
        assert_eq!(ser_counts.reflect_calls, 0);
        let mut de_counts = CountingSink::new();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 16);
        Skyway::new().deserialize(&bytes, &reg, &mut dst, &mut de_counts).unwrap();
        // Deserialization re-touches every ref word: copy + adjustment.
        assert!(de_counts.stores >= de_counts.loads / 2);
        assert_eq!(de_counts.allocs, 0, "no per-object allocation: bulk copy");
    }

    #[test]
    fn rejects_corrupt_streams() {
        let (mut heap, reg, a) = diamond();
        let bytes = Skyway::new().serialize(&mut heap, &reg, a, &mut NullSink).unwrap();
        let mut dst = Heap::new(1 << 16);
        // Truncated body.
        let err = Skyway::new()
            .deserialize(&bytes[..bytes.len() - 8], &reg, &mut dst, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, SerError::Malformed(_)));
        // Unknown type id.
        let empty = KlassRegistry::new();
        let mut dst2 = Heap::new(1 << 16);
        let err = Skyway::new()
            .deserialize(&bytes, &empty, &mut dst2, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, SerError::UnknownClassId(_)));
        // Out-of-image relative address.
        let mut evil = bytes.clone();
        let ref_word_off = 8 + (HEADER_WORDS + 1) * 8; // first object's first ref
        evil[ref_word_off..ref_word_off + 8]
            .copy_from_slice(&(u32::MAX as u64).to_le_bytes());
        let mut dst3 = Heap::new(1 << 16);
        let err = Skyway::new()
            .deserialize(&evil, &reg, &mut dst3, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, SerError::Malformed(_)));
        // In-image relative addresses that miss every record start (the
        // records sit at 0, 48 and 96): inside a header, inside a field,
        // unaligned.
        for rel in [8u64, 12, 16, 24, 56] {
            let mut evil = bytes.clone();
            evil[ref_word_off..ref_word_off + 8].copy_from_slice(&(rel + 1).to_le_bytes());
            let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 16);
            let err = Skyway::new()
                .deserialize(&evil, &reg, &mut dst, &mut NullSink)
                .unwrap_err();
            assert!(matches!(err, SerError::Malformed(_)), "rel {rel}: {err:?}");
        }
    }
}
