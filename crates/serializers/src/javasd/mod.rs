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
use crate::runner::{self, body_word, De, Dialect, Head, Reader, Ser, Writer};
use crate::trace::{Op, OpBuf, TraceSink};
use sdheap::{Addr, FieldKind, Heap, KlassId, KlassRegistry, ValueType};

const TC_NULL: u8 = 0x70;
const TC_REFERENCE: u8 = 0x71;
const TC_CLASSDESC: u8 = 0x72;
const TC_OBJECT: u8 = 0x73;
const TC_ARRAY: u8 = 0x75;
const TC_CLASSREF: u8 = 0x76;

/// Byte width of a primitive in the stream.
#[inline]
fn prim_width(vt: ValueType) -> usize {
    match vt {
        ValueType::Long | ValueType::Double => 8,
        ValueType::Int => 4,
        ValueType::Char => 2,
        ValueType::Byte | ValueType::Boolean => 1,
    }
}

/// Writes the descriptor of klass `id`, or a `TC_CLASSREF` to the one
/// already written. A descriptor takes a handle from the counter it
/// shares with objects.
fn write_class_desc(s: &mut Ser<'_, JavaSd>, id: KlassId) {
    s.w.ops.push(Op::HashLookup);
    let slot = id.get() as usize;
    if let Some(&Some(h)) = s.state.get(slot) {
        s.w.put(&[TC_CLASSREF]);
        s.w.put(&(h as u32).to_be_bytes());
        return;
    }
    let k = s.reg.get(id);
    let name = k.name().as_bytes();
    s.w.put(&[TC_CLASSDESC]);
    s.w.ops.push(Op::Alu(name.len() as u32));
    s.w.put(&(name.len() as u16).to_be_bytes());
    s.w.put(name);
    let suid = name
        .iter()
        .fold(0u64, |a, &b| a.wrapping_mul(31).wrapping_add(b.into()));
    s.w.put(&suid.to_be_bytes());
    s.w.put(&[0x02]);
    // Array klasses have no fields.
    s.w.put(&(k.fields().len() as u16).to_be_bytes());
    for f in k.fields() {
        let sig = match f.kind {
            FieldKind::Value(vt) => vt.signature(),
            FieldKind::Ref => 'L',
        };
        s.w.put(&[sig as u8]);
        let fname = f.name.as_bytes();
        s.w.ops.push(Op::Alu(fname.len() as u32));
        s.w.put(&(fname.len() as u16).to_be_bytes());
        s.w.put(fname);
    }
    if s.state.len() <= slot {
        s.state.resize(slot + 1, None);
    }
    s.state[slot] = Some(s.next_handle);
    s.next_handle += 1;
}

/// Reads a class descriptor or a `TC_CLASSREF`, resolving the class by
/// name.
fn read_class_desc(d: &mut De<'_, JavaSd>) -> Result<KlassId, SerError> {
    match d.r.array::<1>()?[0] {
        TC_CLASSREF => {
            let h = u32::from_be_bytes(d.r.array()?) as usize;
            d.r.ops.push(Op::HashLookup);
            d.state
                .get(h)
                .copied()
                .flatten()
                .ok_or(SerError::Malformed("bad class handle"))
        }
        TC_CLASSDESC => {
            let len = u16::from_be_bytes(d.r.array()?) as usize;
            let name = std::str::from_utf8(d.r.take(len)?)
                .map_err(|_| SerError::Malformed("class name not UTF-8"))?;
            let _suid = d.r.take(8)?;
            let _flags = d.r.take(1)?;
            d.r.ops.push(Op::HashLookup);
            d.r.ops.push(Op::StrCompare(len as u32));
            let id = d
                .reg
                .lookup(name)
                .ok_or_else(|| SerError::UnknownClass(name.to_owned()))?;
            let nfields = u16::from_be_bytes(d.r.array()?);
            for _ in 0..nfields {
                let _sig = d.r.take(1)?;
                let flen = u16::from_be_bytes(d.r.array()?) as usize;
                let _fname = d.r.take(flen)?;
                d.r.ops.push(Op::StrCompare(flen as u32));
            }
            // The descriptor takes a handle number but names no object.
            let h = d.handles.len();
            d.handles.push(Addr::NULL);
            d.state.resize(h + 1, None);
            d.state[h] = Some(id);
            Ok(id)
        }
        _ => Err(SerError::Malformed("expected class descriptor")),
    }
}

/// The Java S/D dialect: `TC_*` tags, class descriptors sharing one handle
/// counter with objects, big-endian primitives at their Java widths, and
/// reflective field access.
impl Dialect for JavaSd {
    /// `STREAM_MAGIC` and `STREAM_VERSION` of `java.io.ObjectStreamConstants`.
    const MAGIC: &'static [([u8; 2], &'static str)] = &[
        ([0xac, 0xed], "bad stream magic"),
        ([0x00, 0x05], "bad stream version"),
    ];
    /// Handle of each klass's descriptor, by klass id.
    type SerState = Vec<Option<u64>>;
    /// The klass of each handle that names a class descriptor.
    type DeState = Vec<Option<KlassId>>;

    #[inline]
    fn write_head(s: &mut Ser<'_, Self>, addr: Addr) -> Option<KlassId> {
        s.w.ops.push(Op::Call);
        s.w.ops.push(Op::Branch);
        if addr.is_null() {
            s.w.put(&[TC_NULL]);
            return None;
        }
        s.w.ops.load_word_dep(addr.get());
        s.w.ops.push(Op::HashLookup);
        if let Some(&h) = s.handles.get(&addr) {
            s.w.put(&[TC_REFERENCE]);
            s.w.put(&(h as u32).to_be_bytes());
            return None;
        }
        s.w.ops.load_word_dep(addr.add_words(1).get());
        let id = s.heap.klass_of(s.reg, addr);
        s.w.ops.load_word_dep(s.reg.meta_addr(id).get());
        let is_array = s.reg.get(id).is_array();
        s.w.put(&[if is_array { TC_ARRAY } else { TC_OBJECT }]);
        write_class_desc(s, id);
        if is_array {
            s.w.ops.load_word_dep(body_word(addr, 0));
            s.w.put(&(s.heap.array_len(addr) as u32).to_be_bytes());
        }
        Some(id)
    }

    #[inline]
    fn read_head(d: &mut De<'_, Self>) -> Result<Head, SerError> {
        d.r.ops.push(Op::Call);
        d.r.ops.push(Op::Branch);
        Ok(match d.r.array::<1>()?[0] {
            TC_NULL => Head::Ref(Addr::NULL),
            TC_REFERENCE => {
                let h = u32::from_be_bytes(d.r.array()?);
                d.r.ops.push(Op::HashLookup);
                if let Some(Some(_)) = d.state.get(h as usize) {
                    return Err(SerError::Malformed("bad object handle"));
                }
                Head::Ref(d.object(h.into(), "bad object handle")?)
            }
            TC_OBJECT => Head::Object(read_class_desc(d)?),
            TC_ARRAY => {
                let id = read_class_desc(d)?;
                Head::Array(id, u32::from_be_bytes(d.r.array()?).into())
            }
            _ => return Err(SerError::Malformed("unknown type tag")),
        })
    }

    #[inline]
    fn put_prim(w: &mut Writer, vt: ValueType, word: u64) {
        w.put(&word.to_be_bytes()[8 - prim_width(vt)..]);
    }

    #[inline]
    fn get_prim(r: &mut Reader<'_>, vt: ValueType) -> Result<u64, SerError> {
        let w = prim_width(vt);
        let mut be = [0u8; 8];
        be[8 - w..].copy_from_slice(r.take(w)?);
        Ok(u64::from_be_bytes(be))
    }

    #[inline]
    fn field_access(ops: &mut OpBuf, name_len: u32) {
        ops.push(Op::ReflectCall);
        ops.push(Op::StrCompare(name_len));
    }

    #[inline]
    fn ref_store(ops: &mut OpBuf) {
        ops.push(Op::ReflectCall);
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
        let mut b = GraphBuilder::new(1 << 12);
        let k = b.klass("K", vec![FieldKind::Ref]);
        let o = b.object(k, &[Init::Null]).unwrap();
        let (mut heap, reg) = b.finish();
        let mut stream = JavaSd::new()
            .serialize(&mut heap, &reg, o, &mut NullSink)
            .unwrap();
        // The field's trailing TC_NULL becomes a back-reference to handle
        // 0, which names the class descriptor, not an object.
        assert_eq!(stream.pop(), Some(TC_NULL));
        stream.extend_from_slice(&[TC_REFERENCE, 0, 0, 0, 0]);
        for input in [&[1, 2, 3][..], &stream] {
            let mut dst = Heap::new(1 << 12);
            let err = JavaSd::new()
                .deserialize(input, &reg, &mut dst, &mut NullSink)
                .unwrap_err();
            assert!(matches!(err, SerError::Malformed(_)), "{err:?}");
        }
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
