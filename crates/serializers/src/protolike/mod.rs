//! A codegen-style binary serializer — the JSBS "generated code" class
//! (protobuf/thrift/avro-specific), mechanistically.
//!
//! Models what compile-time generation buys over Kryo's runtime
//! registration (paper §I: a "compilation-based approach to obviate the
//! need for extracting field information at runtime"):
//!
//! * field access is **inlined generated code** — straight-line ALU, no
//!   accessor call, no dispatch;
//! * integers are **zigzag varints**, doubles fixed 8 B, exactly the
//!   protobuf wire types;
//! * class identity is a compact schema tag (polymorphism via `oneof`);
//! * reference sharing still needs an identity map (message formats are
//!   trees; graph support bolts on the same `@id` trick Kryo uses).
//!
//! It lands between Kryo and the hand-optimized manual class in Fig. 12,
//! which is where JSBS puts protostuff/thrift.

use crate::api::{SerError, Serializer};
use crate::runner::{self, De, Dialect, Head, Reader, Ser, Writer};
use crate::trace::{Op, OpBuf, TraceSink};
use sdheap::{Addr, Heap, KlassId, KlassRegistry, ValueType};

const TAG_NULL: u8 = 0;
const TAG_NEW: u8 = 1;
const TAG_REF: u8 = 2;

/// Zigzag encoding: small magnitudes (of either sign) become small
/// varints.
fn zigzag(v: u64) -> u64 {
    let s = v as i64;
    ((s << 1) ^ (s >> 63)) as u64
}

fn unzigzag(v: u64) -> u64 {
    ((v >> 1) as i64 ^ -((v & 1) as i64)) as u64
}

/// The codegen serializer.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProtoLike;

impl ProtoLike {
    /// A new instance.
    pub fn new() -> Self {
        ProtoLike
    }
}

impl Serializer for ProtoLike {
    fn name(&self) -> &str {
        "ProtoLike"
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

/// The ProtoLike dialect: a tag byte plus the class-id varint, zigzag
/// varint integers with `Alu(2)` of inlined shifting per primitive, and
/// generated code inlined (no narration for field access or reference
/// stores).
impl Dialect for ProtoLike {
    type SerState = ();
    type DeState = ();

    #[inline]
    fn write_head(s: &mut Ser<'_, Self>, addr: Addr) -> Option<KlassId> {
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
        let id = s.heap.klass_of(s.reg, addr);
        let plan = s.plans.plan(id);
        s.w.put_varint_bytes(&plan.id_varint);
        if plan.is_array() {
            s.w.put_varint(s.heap.array_len(addr) as u64);
        }
        Some(id)
    }

    #[inline]
    fn read_head(d: &mut De<'_, Self>) -> Result<Head, SerError> {
        d.r.ops.push(Op::Branch);
        Ok(match d.r.array::<1>()?[0] {
            TAG_NULL => Head::Ref(Addr::NULL),
            TAG_REF => {
                let h = d.r.get_varint()?;
                Head::Ref(d.object(h, "bad handle")?)
            }
            TAG_NEW => {
                let raw = d.r.get_class_id()?;
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
        w.ops.push(Op::Alu(2));
        match vt {
            ValueType::Double => w.put(&word.to_le_bytes()),
            ValueType::Long | ValueType::Int => w.put_varint(zigzag(word)),
            ValueType::Char => w.put(&(word as u16).to_le_bytes()),
            ValueType::Byte | ValueType::Boolean => w.put(&[word as u8]),
        }
    }

    #[inline]
    fn get_prim(r: &mut Reader<'_>, vt: ValueType) -> Result<u64, SerError> {
        r.ops.push(Op::Alu(2));
        Ok(match vt {
            ValueType::Double => u64::from_le_bytes(r.array()?),
            ValueType::Long | ValueType::Int => unzigzag(r.get_varint()?),
            ValueType::Char => u16::from_le_bytes(r.array()?).into(),
            ValueType::Byte | ValueType::Boolean => r.array::<1>()?[0].into(),
        })
    }

    #[inline]
    fn field_access(_ops: &mut OpBuf, _name_len: u32) {}

    #[inline]
    fn ref_store(_ops: &mut OpBuf) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{CountingSink, NullSink};
    use sdheap::builder::Init;
    use sdheap::{isomorphic_with, FieldKind, GraphBuilder, IsoOptions, ValueType};

    #[test]
    fn zigzag_roundtrips() {
        for v in [0u64, 1, u64::MAX, 0x7fff_ffff_ffff_ffff, 42, !42 + 1] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small negative (two's-complement) values stay small.
        let minus_one = u64::MAX;
        assert!(zigzag(minus_one) < 4);
    }

    fn graph() -> (Heap, KlassRegistry, Addr) {
        let mut b = GraphBuilder::new(1 << 18);
        let k = b.klass(
            "N",
            vec![FieldKind::Value(ValueType::Long), FieldKind::Ref, FieldKind::Ref],
        );
        let c = b.object(k, &[Init::Val(3), Init::Null, Init::Null]).unwrap();
        let x = b.object(k, &[Init::Val(2), Init::Ref(c), Init::Null]).unwrap();
        let a = b.object(k, &[Init::Val(1), Init::Ref(x), Init::Ref(c)]).unwrap();
        b.link(c, 1, a); // cycle
        let (heap, reg) = b.finish();
        (heap, reg, a)
    }

    #[test]
    fn roundtrips_cyclic_graphs() {
        let (mut heap, reg, root) = graph();
        let ser = ProtoLike::new();
        let bytes = ser.serialize(&mut heap, &reg, root, &mut NullSink).unwrap();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        let new_root = ser.deserialize(&bytes, &reg, &mut dst, &mut NullSink).unwrap();
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
    fn smaller_than_kryo_for_small_magnitudes() {
        // Zigzag varints shrink small longs that Kryo stores as 8 B.
        let (mut heap, reg, root) = graph();
        let proto = ProtoLike::new().serialize(&mut heap, &reg, root, &mut NullSink).unwrap();
        let kryo = crate::Kryo::new().serialize(&mut heap, &reg, root, &mut NullSink).unwrap();
        assert!(proto.len() < kryo.len(), "proto {} vs kryo {}", proto.len(), kryo.len());
    }

    #[test]
    fn cheaper_trace_than_kryo() {
        let (mut heap, reg, root) = graph();
        let mut proto_c = CountingSink::new();
        ProtoLike::new().serialize(&mut heap, &reg, root, &mut proto_c).unwrap();
        let mut kryo_c = CountingSink::new();
        crate::Kryo::new().serialize(&mut heap, &reg, root, &mut kryo_c).unwrap();
        assert!(
            proto_c.calls < kryo_c.calls,
            "generated code makes fewer calls: {} vs {}",
            proto_c.calls,
            kryo_c.calls
        );
    }

    #[test]
    fn rejects_corrupt_input() {
        let (_, reg, _) = graph();
        // Class id 2^32 + 0 must not alias klass 0 (`N`: a long, two refs).
        let wide_id = [TAG_NEW, 0x80, 0x80, 0x80, 0x80, 0x10, 0, TAG_NULL, TAG_NULL];
        for input in [&[9, 9, 9][..], &[], &wide_id] {
            let mut dst = Heap::new(1 << 12);
            assert!(ProtoLike::new()
                .deserialize(input, &reg, &mut dst, &mut NullSink)
                .is_err());
        }
    }
}
