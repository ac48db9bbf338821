//! The Kryo baseline (paper §II, Fig. 1(c)).
//!
//! Kryo's optimizations over Java S/D, all reproduced here:
//!
//! * **integer class numbering** — every manually registered class is
//!   identified by a compact varint class ID; no strings in the stream;
//! * varint encoding for lengths, handles and `int` fields; a 1 B
//!   null-check/tag byte per reference;
//! * **optimized reflection** (the ReflectAsm model): field access is a
//!   generated accessor — a plain call — rather than a string-keyed
//!   reflective lookup;
//! * reference tracking via an identity map so shared objects and cycles
//!   serialize once.
//!
//! Deserialization resolves class IDs by direct table index — no string
//! matching — which is where Kryo's large deserialization speedup over
//! Java S/D comes from (paper Fig. 10).

use crate::api::{SerError, Serializer};
use crate::runner::{self, body_word, De, Dialect, Head, Reader, Ser, Writer};
use crate::trace::{Op, OpBuf, TraceSink};
use sdheap::{Addr, Heap, KlassId, KlassRegistry, ValueType};

const TAG_NULL: u8 = 0;
const TAG_NEW: u8 = 1;
const TAG_REF: u8 = 2;

/// The Kryo serializer baseline.
///
/// Requires all serialized classes to be present in the shared
/// [`KlassRegistry`] — the registry *is* the manual type registration the
/// real Kryo demands ("the same type registry must be used for
/// deserialization").
#[derive(Clone, Copy, Debug, Default)]
pub struct Kryo;

impl Kryo {
    /// A new instance.
    pub fn new() -> Self {
        Kryo
    }
}

impl Serializer for Kryo {
    fn name(&self) -> &str {
        "Kryo"
    }

    fn serialize_into(
        &self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
        sink: &mut dyn TraceSink,
        out: &mut Vec<u8>,
    ) -> Result<usize, SerError> {
        runner::serialize_into::<Self>(heap, reg, root, sink, out)
    }

    fn deserialize(
        &self,
        bytes: &[u8],
        reg: &KlassRegistry,
        dst: &mut Heap,
        sink: &mut dyn TraceSink,
    ) -> Result<Addr, SerError> {
        runner::deserialize::<Self>(bytes, reg, dst, sink)
    }
}

/// The Kryo dialect: a tag byte plus the class-id varint, little-endian
/// fixed widths with varint `int`s, and generated accessors (one call per
/// field access and reference store).
impl Dialect for Kryo {
    type SerState = ();
    type DeState = ();

    #[inline]
    fn write_head(s: &mut Ser<'_, Self>, addr: Addr) -> Option<KlassId> {
        s.w.ops.push(Op::Call);
        s.w.ops.push(Op::Branch);
        if addr.is_null() {
            s.w.put(&[TAG_NULL]);
            return None;
        }
        s.w.ops.push(Op::HashLookup);
        if let Some(&h) = s.handles.get(&addr) {
            s.w.put(&[TAG_REF]);
            s.w.put_varint(h);
            return None;
        }
        s.w.put(&[TAG_NEW]);
        s.w.ops.load_word_dep(addr.add_words(1).get());
        s.w.ops.push(Op::HashLookup);
        let id = s.heap.klass_of(s.reg, addr);
        let plan = s.plans.plan(id);
        s.w.put_varint_bytes(&plan.id_varint);
        if plan.is_array() {
            s.w.ops.load_word_dep(body_word(addr, 0));
            s.w.put_varint(s.heap.array_len(addr) as u64);
        }
        Some(id)
    }

    #[inline]
    fn read_head(d: &mut De<'_, Self>) -> Result<Head, SerError> {
        d.r.ops.push(Op::Call);
        d.r.ops.push(Op::Branch);
        Ok(match d.r.array::<1>()?[0] {
            TAG_NULL => Head::Ref(Addr::NULL),
            TAG_REF => {
                let h = d.r.get_varint()?;
                d.r.ops.push(Op::HashLookup);
                Head::Ref(d.object(h, "bad handle")?)
            }
            TAG_NEW => {
                let raw = d.r.get_class_id()?;
                d.r.ops.push(Op::Alu(1));
                let id = d.klass(raw)?;
                if d.plans.plan(id).is_array() {
                    Head::Array(id, d.r.get_varint()?)
                } else {
                    Head::Object(id)
                }
            }
            _ => return Err(SerError::Malformed("unknown tag")),
        })
    }

    #[inline]
    fn put_prim(w: &mut Writer, vt: ValueType, word: u64) {
        match vt {
            ValueType::Long | ValueType::Double => w.put(&word.to_le_bytes()),
            ValueType::Int => w.put_varint(word & 0xffff_ffff),
            ValueType::Char => w.put(&(word as u16).to_le_bytes()),
            ValueType::Byte | ValueType::Boolean => w.put(&[word as u8]),
        }
    }

    #[inline]
    fn get_prim(r: &mut Reader<'_>, vt: ValueType) -> Result<u64, SerError> {
        Ok(match vt {
            ValueType::Long | ValueType::Double => u64::from_le_bytes(r.array()?),
            ValueType::Int => r.get_varint()?,
            ValueType::Char => u16::from_le_bytes(r.array()?).into(),
            ValueType::Byte | ValueType::Boolean => r.array::<1>()?[0].into(),
        })
    }

    #[inline]
    fn field_access(ops: &mut OpBuf, _name_len: u32) {
        ops.push(Op::Call);
    }

    #[inline]
    fn ref_store(ops: &mut OpBuf) {
        ops.push(Op::Call);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::javasd::JavaSd;
    use crate::trace::{CountingSink, NullSink};
    use sdheap::builder::Init;
    use sdheap::{isomorphic_with, FieldKind, GraphBuilder, IsoOptions, ValueType};

    fn roundtrip(heap: &mut Heap, reg: &KlassRegistry, root: Addr) -> (Heap, Addr) {
        let ser = Kryo::new();
        let bytes = ser.serialize(heap, reg, root, &mut NullSink).unwrap();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), heap.capacity_bytes());
        let new_root = ser
            .deserialize(&bytes, reg, &mut dst, &mut NullSink)
            .unwrap();
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

    fn diamond() -> (Heap, KlassRegistry, Addr) {
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

    #[test]
    fn roundtrips_shared_graph() {
        let (mut heap, reg, a) = diamond();
        let (dst, root) = roundtrip(&mut heap, &reg, a);
        assert_iso(&heap, &reg, a, &dst, root);
    }

    #[test]
    fn roundtrips_cycle() {
        let mut b = GraphBuilder::new(1 << 16);
        let k = b.klass("C", vec![FieldKind::Ref]);
        let x = b.object(k, &[Init::Null]).unwrap();
        let y = b.object(k, &[Init::Ref(x)]).unwrap();
        b.link(x, 0, y);
        let (mut heap, reg) = b.finish();
        let (dst, root) = roundtrip(&mut heap, &reg, x);
        assert_iso(&heap, &reg, x, &dst, root);
    }

    #[test]
    fn roundtrips_primitive_widths() {
        let mut b = GraphBuilder::new(1 << 16);
        let k = b.klass(
            "W",
            vec![
                FieldKind::Value(ValueType::Long),
                FieldKind::Value(ValueType::Double),
                FieldKind::Value(ValueType::Int),
                FieldKind::Value(ValueType::Char),
                FieldKind::Value(ValueType::Byte),
                FieldKind::Value(ValueType::Boolean),
            ],
        );
        let o = b
            .object(
                k,
                &[
                    Init::Val(u64::MAX),
                    Init::Val(f64::to_bits(3.125)),
                    Init::Val(0xffff_ffff),
                    Init::Val(0xbeef),
                    Init::Val(0x7f),
                    Init::Val(1),
                ],
            )
            .unwrap();
        let (mut heap, reg) = b.finish();
        let (dst, root) = roundtrip(&mut heap, &reg, o);
        assert_iso(&heap, &reg, o, &dst, root);
    }

    #[test]
    fn roundtrips_deep_list() {
        let mut b = GraphBuilder::new(1 << 24);
        let k = b.klass("L", vec![FieldKind::Value(ValueType::Int), FieldKind::Ref]);
        let mut head = b.object(k, &[Init::Val(0), Init::Null]).unwrap();
        for i in 1..50_000u64 {
            head = b
                .object(k, &[Init::Val(i & 0xffff_ffff), Init::Ref(head)])
                .unwrap();
        }
        let (mut heap, reg) = b.finish();
        let (dst, root) = roundtrip(&mut heap, &reg, head);
        assert_iso(&heap, &reg, head, &dst, root);
    }

    #[test]
    fn stream_is_much_smaller_than_javasd() {
        let (mut heap, reg, a) = diamond();
        let kryo_bytes = Kryo::new()
            .serialize(&mut heap, &reg, a, &mut NullSink)
            .unwrap();
        let java_bytes = JavaSd::new()
            .serialize(&mut heap, &reg, a, &mut NullSink)
            .unwrap();
        assert!(
            kryo_bytes.len() * 2 < java_bytes.len(),
            "kryo {} vs java {}",
            kryo_bytes.len(),
            java_bytes.len()
        );
        // And no class-name strings anywhere.
        assert!(!String::from_utf8_lossy(&kryo_bytes).contains('N'));
    }

    #[test]
    fn no_reflection_in_trace() {
        let (mut heap, reg, a) = diamond();
        let mut ser_counts = CountingSink::new();
        let bytes = Kryo::new()
            .serialize(&mut heap, &reg, a, &mut ser_counts)
            .unwrap();
        assert_eq!(ser_counts.reflect_calls, 0);
        assert_eq!(ser_counts.str_compare_bytes, 0);
        let mut de_counts = CountingSink::new();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 16);
        Kryo::new()
            .deserialize(&bytes, &reg, &mut dst, &mut de_counts)
            .unwrap();
        assert_eq!(de_counts.reflect_calls, 0);
        assert_eq!(de_counts.str_compare_bytes, 0);
    }

    #[test]
    fn unknown_class_id_rejected() {
        let (mut heap, reg, a) = diamond();
        let bytes = Kryo::new()
            .serialize(&mut heap, &reg, a, &mut NullSink)
            .unwrap();
        let empty = KlassRegistry::new();
        let mut dst = Heap::new(1 << 12);
        let err = Kryo::new()
            .deserialize(&bytes, &empty, &mut dst, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, SerError::UnknownClassId(_)));
    }

    #[test]
    fn truncated_stream_rejected() {
        let (mut heap, reg, a) = diamond();
        let bytes = Kryo::new()
            .serialize(&mut heap, &reg, a, &mut NullSink)
            .unwrap();
        // Class id 2^32 + 0 must not alias klass 0 (`N`: a long, two refs).
        let wide_id = [
            &[TAG_NEW, 0x80, 0x80, 0x80, 0x80, 0x10][..],
            &[0; 8],
            &[TAG_NULL, TAG_NULL],
        ]
        .concat();
        for input in [&bytes[..bytes.len() - 3], &wide_id] {
            let mut dst = Heap::new(1 << 16);
            let err = Kryo::new()
                .deserialize(input, &reg, &mut dst, &mut NullSink)
                .unwrap_err();
            assert!(matches!(err, SerError::Malformed(_)), "{err:?}");
        }
    }
}
