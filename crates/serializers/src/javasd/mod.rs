//! The Java built-in serializer baseline (paper §II, Fig. 1(b)).
//!
//! Faithful to the structure that makes Java S/D slow and its streams
//! large:
//!
//! * class and field **names are embedded as strings**, with name lengths,
//!   field counts and per-field type signatures;
//! * deserialization resolves types by **string lookup** and sets fields
//!   through the `java.lang.reflect` model (a reflective call plus a
//!   string-keyed field lookup per field — the "well-known source of
//!   computational overhead");
//! * nested objects are written **inline, depth-first**, with back
//!   references (`TC_REFERENCE` + handle) preserving sharing;
//! * primitives are written at their Java widths, big-endian.
//!
//! The implementation is iterative (explicit frame stack) so that
//! million-element linked lists serialize without blowing the Rust stack,
//! but the produced byte stream is exactly what the recursive algorithm
//! would emit.

use crate::api::{SerError, Serializer};
use crate::trace::TraceSink;
use sdheap::{Addr, Heap, KlassRegistry, ValueType};

mod compiled;

/// Stream magic, mirroring `java.io.ObjectStreamConstants.STREAM_MAGIC`.
const STREAM_MAGIC: u16 = 0xaced;
/// Stream version.
const STREAM_VERSION: u16 = 5;

const TC_NULL: u8 = 0x70;
const TC_REFERENCE: u8 = 0x71;
const TC_CLASSDESC: u8 = 0x72;
const TC_OBJECT: u8 = 0x73;
const TC_ARRAY: u8 = 0x75;
const TC_CLASSREF: u8 = 0x76;

/// Byte width of a primitive in the stream.
fn prim_width(vt: ValueType) -> u32 {
    match vt {
        ValueType::Long | ValueType::Double => 8,
        ValueType::Int => 4,
        ValueType::Char => 2,
        ValueType::Byte | ValueType::Boolean => 1,
    }
}

/// The Java built-in serializer.
#[derive(Clone, Copy, Debug, Default)]
pub struct JavaSd;

impl JavaSd {
    /// A new instance.
    pub fn new() -> Self {
        JavaSd
    }
}

impl Serializer for JavaSd {
    fn name(&self) -> &str {
        "Java"
    }

    fn serialize(
        &self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
        sink: &mut dyn TraceSink,
    ) -> Result<Vec<u8>, SerError> {
        let mut out = Vec::new();
        self.serialize_into(heap, reg, root, sink, &mut out)?;
        Ok(out)
    }

    fn serialize_into(
        &self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
        sink: &mut dyn TraceSink,
        out: &mut Vec<u8>,
    ) -> Result<usize, SerError> {
        compiled::serialize_into(heap, reg, root, sink, out)
    }

    fn deserialize(
        &self,
        bytes: &[u8],
        reg: &KlassRegistry,
        dst: &mut Heap,
        sink: &mut dyn TraceSink,
    ) -> Result<Addr, SerError> {
        compiled::deserialize(bytes, reg, dst, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CountingSink, NullSink};
    use sdheap::builder::Init;
    use sdheap::{isomorphic_with, FieldKind, GraphBuilder, IsoOptions};

    fn roundtrip(heap: &mut Heap, reg: &KlassRegistry, root: Addr) -> (Heap, Addr) {
        let ser = JavaSd::new();
        let bytes = ser
            .serialize(heap, reg, root, &mut NullSink)
            .expect("serialize");
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), heap.capacity_bytes());
        let new_root = ser
            .deserialize(&bytes, reg, &mut dst, &mut NullSink)
            .expect("deserialize");
        (dst, new_root)
    }

    fn assert_iso(heap: &Heap, reg: &KlassRegistry, a: Addr, dst: &Heap, b: Addr) {
        assert!(isomorphic_with(
            heap,
            reg,
            a,
            dst,
            b,
            IsoOptions {
                check_identity_hash: false
            }
        ));
    }

    #[test]
    fn roundtrips_simple_object() {
        let mut b = GraphBuilder::new(1 << 16);
        let k = b.klass(
            "Point",
            vec![
                FieldKind::Value(ValueType::Long),
                FieldKind::Value(ValueType::Int),
            ],
        );
        let o = b.object(k, &[Init::Val(123456789), Init::Val(42)]).unwrap();
        let (mut heap, reg) = b.finish();
        let (dst, root) = roundtrip(&mut heap, &reg, o);
        assert_iso(&heap, &reg, o, &dst, root);
    }

    #[test]
    fn roundtrips_shared_and_cyclic() {
        let mut b = GraphBuilder::new(1 << 16);
        let k = b.klass("N", vec![FieldKind::Ref, FieldKind::Ref]);
        let x = b.object(k, &[Init::Null, Init::Null]).unwrap();
        let y = b.object(k, &[Init::Ref(x), Init::Ref(x)]).unwrap();
        b.link(x, 0, y); // cycle
        let (mut heap, reg) = b.finish();
        let (dst, root) = roundtrip(&mut heap, &reg, y);
        assert_iso(&heap, &reg, y, &dst, root);
    }

    #[test]
    fn roundtrips_arrays() {
        let mut b = GraphBuilder::new(1 << 16);
        let d = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
        let o = b.array_klass("Object[]", FieldKind::Ref);
        let data = b.value_array(d, &[f64::to_bits(1.5), f64::to_bits(-2.5)]).unwrap();
        let arr = b.ref_array(o, &[data, Addr::NULL, data]).unwrap();
        let (mut heap, reg) = b.finish();
        let (dst, root) = roundtrip(&mut heap, &reg, arr);
        assert_iso(&heap, &reg, arr, &dst, root);
    }

    #[test]
    fn deep_list_does_not_overflow() {
        let mut b = GraphBuilder::new(1 << 24);
        let k = b.klass("L", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
        let mut head = b.object(k, &[Init::Val(0), Init::Null]).unwrap();
        for i in 1..50_000u64 {
            head = b.object(k, &[Init::Val(i), Init::Ref(head)]).unwrap();
        }
        let (mut heap, reg) = b.finish();
        let (dst, root) = roundtrip(&mut heap, &reg, head);
        assert_iso(&heap, &reg, head, &dst, root);
    }

    #[test]
    fn stream_contains_class_and_field_names() {
        let mut b = GraphBuilder::new(1 << 16);
        let k = b.klass(
            "com.example.VeryDescriptiveClassName",
            vec![FieldKind::Value(ValueType::Long)],
        );
        let o = b.object(k, &[Init::Val(1)]).unwrap();
        let (mut heap, reg) = b.finish();
        let bytes = JavaSd::new()
            .serialize(&mut heap, &reg, o, &mut NullSink)
            .unwrap();
        let s = String::from_utf8_lossy(&bytes);
        assert!(s.contains("VeryDescriptiveClassName"));
        assert!(s.contains("f0"), "field names embedded");
    }

    #[test]
    fn class_descriptor_written_once() {
        let mut b = GraphBuilder::new(1 << 16);
        let k = b.klass("Node", vec![FieldKind::Ref]);
        let a = b.object(k, &[Init::Null]).unwrap();
        let c = b.object(k, &[Init::Ref(a)]).unwrap();
        let (mut heap, reg) = b.finish();
        let bytes = JavaSd::new()
            .serialize(&mut heap, &reg, c, &mut NullSink)
            .unwrap();
        let hay = String::from_utf8_lossy(&bytes);
        assert_eq!(hay.matches("Node").count(), 1, "second object uses TC_CLASSREF");
    }

    #[test]
    fn emits_reflection_heavy_trace() {
        let mut b = GraphBuilder::new(1 << 16);
        let k = b.klass(
            "K",
            vec![FieldKind::Value(ValueType::Long), FieldKind::Value(ValueType::Long)],
        );
        let o = b.object(k, &[Init::Val(1), Init::Val(2)]).unwrap();
        let (mut heap, reg) = b.finish();
        let mut counts = CountingSink::new();
        JavaSd::new().serialize(&mut heap, &reg, o, &mut counts).unwrap();
        assert_eq!(counts.reflect_calls, 2, "one reflective call per field");
        assert!(counts.str_compare_bytes > 0);
        assert!(counts.dependent_loads >= 3, "header + klass + field chase");
    }

    #[test]
    fn null_root_roundtrips() {
        let mut b = GraphBuilder::new(1 << 12);
        let _ = b.klass("K", vec![]);
        let (mut heap, reg) = b.finish();
        let (dst, root) = roundtrip(&mut heap, &reg, Addr::NULL);
        assert!(root.is_null());
        assert_eq!(dst.object_count(), 0);
    }

    #[test]
    fn rejects_garbage() {
        let reg = KlassRegistry::new();
        let mut dst = Heap::new(1 << 12);
        let err = JavaSd::new()
            .deserialize(&[1, 2, 3], &reg, &mut dst, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, SerError::Malformed(_)));
    }

    #[test]
    fn rejects_unknown_class() {
        let mut b = GraphBuilder::new(1 << 16);
        let k = b.klass("Known", vec![]);
        let o = b.object(k, &[]).unwrap();
        let (mut heap, reg) = b.finish();
        let bytes = JavaSd::new()
            .serialize(&mut heap, &reg, o, &mut NullSink)
            .unwrap();
        let other_reg = KlassRegistry::new(); // class not registered here
        let mut dst = Heap::new(1 << 12);
        let err = JavaSd::new()
            .deserialize(&bytes, &other_reg, &mut dst, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, SerError::UnknownClass(_)));
    }
}
