//! A JSON-style text serializer — the JSBS "text" class, mechanistically.
//!
//! Models the gson/jackson family: objects become `{...}` documents with
//! **field names spelled out as text**, numbers printed in decimal, and
//! object identity preserved through `@id`/`@r` keys (the `$id`/`$ref`
//! convention text serializers use when reference support is enabled).
//! Serialization is string formatting; deserialization is character-level
//! parsing — both heavy on per-byte ALU work and branches, which is
//! exactly why the text class sits at the slow end of Fig. 12.
//!
//! Wire shape (whitespace-free):
//!
//! ```text
//! {"@c":"Node","@id":0,"f0":123,"f1":{"@r":0},"f2":null}
//! {"@c":"double[]","@id":1,"e":[1.5,-2.0]}
//! ```

mod compiled;

use crate::api::{SerError, Serializer};
use crate::trace::TraceSink;
use sdheap::{Addr, Heap, KlassRegistry, ValueType};

/// The JSON-like text serializer.
#[derive(Clone, Copy, Debug, Default)]
pub struct JsonLike;

impl JsonLike {
    /// A new instance.
    pub fn new() -> Self {
        JsonLike
    }
}

/// Parser recursion limit — real text parsers overflow or cap nesting;
/// we cap and return an error (JSBS graphs are shallow).
const MAX_DEPTH: usize = 200;

/// Parses a primitive literal per its Java type.
fn parse_value(vt: ValueType, text: &str) -> Result<u64, SerError> {
    match vt {
        ValueType::Double => text
            .parse::<f64>()
            .map(f64::to_bits)
            .map_err(|_| SerError::Malformed("bad double literal")),
        ValueType::Boolean => match text {
            "true" => Ok(1),
            "false" => Ok(0),
            _ => Err(SerError::Malformed("bad boolean literal")),
        },
        _ => text
            .parse::<u64>()
            .map_err(|_| SerError::Malformed("bad integer literal")),
    }
}

impl Serializer for JsonLike {
    fn name(&self) -> &str {
        "JsonLike"
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

    fn dag() -> (Heap, KlassRegistry, Addr) {
        let mut b = GraphBuilder::new(1 << 18);
        let k = b.klass(
            "N",
            vec![
                FieldKind::Value(ValueType::Long),
                FieldKind::Value(ValueType::Double),
                FieldKind::Ref,
                FieldKind::Ref,
            ],
        );
        let d = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
        let shared = b
            .value_array(d, &[f64::to_bits(1.5), f64::to_bits(-2.25)])
            .unwrap();
        let x = b
            .object(k, &[Init::Val(7), Init::Val(f64::to_bits(0.5)), Init::Ref(shared), Init::Null])
            .unwrap();
        let root = b
            .object(k, &[Init::Val(1), Init::Val(f64::to_bits(3.0)), Init::Ref(x), Init::Ref(shared)])
            .unwrap();
        let (heap, reg) = b.finish();
        (heap, reg, root)
    }

    #[test]
    fn roundtrips_dags_with_sharing() {
        let (mut heap, reg, root) = dag();
        let ser = JsonLike::new();
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
    fn output_is_readable_text() {
        let (mut heap, reg, root) = dag();
        let bytes = JsonLike::new().serialize(&mut heap, &reg, root, &mut NullSink).unwrap();
        let text = String::from_utf8(bytes).expect("valid UTF-8");
        assert!(text.starts_with("{\"@c\":\"N\""));
        assert!(text.contains("\"f1\":3.0") || text.contains("\"f1\":3"));
        assert!(text.contains("\"@r\":"), "shared array uses a back reference");
        assert!(text.contains("1.5"));
    }

    #[test]
    fn text_is_larger_than_java_sd() {
        let (mut heap, reg, root) = dag();
        let json = JsonLike::new().serialize(&mut heap, &reg, root, &mut NullSink).unwrap();
        let kryo = crate::Kryo::new().serialize(&mut heap, &reg, root, &mut NullSink).unwrap();
        assert!(json.len() > kryo.len() * 2, "json {} vs kryo {}", json.len(), kryo.len());
    }

    #[test]
    fn parsing_is_alu_heavy() {
        let (mut heap, reg, root) = dag();
        let bytes = JsonLike::new().serialize(&mut heap, &reg, root, &mut NullSink).unwrap();
        let mut counts = CountingSink::new();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        JsonLike::new().deserialize(&bytes, &reg, &mut dst, &mut counts).unwrap();
        assert!(
            counts.alu > bytes.len() as u64 / 2,
            "char-level parsing: {} alu for {} bytes",
            counts.alu,
            bytes.len()
        );
    }

    #[test]
    fn rejects_garbage_and_unknown_classes() {
        let reg = KlassRegistry::new();
        let mut dst = Heap::new(1 << 12);
        assert!(JsonLike::new()
            .deserialize(b"[1,2,3]", &reg, &mut dst, &mut NullSink)
            .is_err());
        assert!(matches!(
            JsonLike::new().deserialize(
                b"{\"@c\":\"Ghost\",\"@id\":0}",
                &reg,
                &mut dst,
                &mut NullSink
            ),
            Err(SerError::UnknownClass(_))
        ));
    }

    #[test]
    fn overly_deep_text_is_rejected_not_crashed() {
        let mut b = GraphBuilder::new(1 << 24);
        let k = b.klass("L", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
        let mut head = b.object(k, &[Init::Val(0), Init::Null]).unwrap();
        for i in 1..5_000u64 {
            head = b.object(k, &[Init::Val(i), Init::Ref(head)]).unwrap();
        }
        let (mut heap, reg) = b.finish();
        let bytes = JsonLike::new().serialize(&mut heap, &reg, head, &mut NullSink).unwrap();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 24);
        let err = JsonLike::new()
            .deserialize(&bytes, &reg, &mut dst, &mut NullSink)
            .unwrap_err();
        assert!(matches!(err, SerError::Malformed("nesting too deep")));
    }

    #[test]
    fn deep_lists_do_not_overflow_serialization() {
        let mut b = GraphBuilder::new(1 << 22);
        let k = b.klass("L", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
        let mut head = b.object(k, &[Init::Val(0), Init::Null]).unwrap();
        for i in 1..20_000u64 {
            head = b.object(k, &[Init::Val(i), Init::Ref(head)]).unwrap();
        }
        let (mut heap, reg) = b.finish();
        // Serialization must not recurse (explicit stack).
        let bytes = JsonLike::new().serialize(&mut heap, &reg, head, &mut NullSink).unwrap();
        assert!(bytes.len() > 20_000 * 10);
    }
}
