//! Failure injection: flipping bytes in valid streams must never panic
//! any deserializer — corrupt input yields `Err` (or, where the
//! corruption lands in payload bytes, a well-formed but different
//! graph), never a crash. Every `Ok` is walked from the returned root
//! ([`common::graph_digest`]) to check that the graph is well formed.
//!
//! Formerly proptest properties; now deterministic seeded loops so the
//! suite runs offline.

use cereal_repro::accel::CerealSerializer;
use cereal_repro::baselines::{JavaSd, JsonLike, Kryo, NullSink, ProtoLike, Serializer, Skyway};
use cereal_repro::heap::builder::Init;
use cereal_repro::heap::rng::Rng;
use cereal_repro::heap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};
use common::graph_digest;

mod common;

fn sample_graph() -> (Heap, KlassRegistry, Addr) {
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
    let (heap, reg) = b.finish();
    (heap, reg, a)
}

/// Decodes `bytes` and, on `Ok`, walks the result. Returns why the
/// returned graph does not walk, if it does not.
fn decode_and_walk(ser: &dyn Serializer, bytes: &[u8], reg: &KlassRegistry) -> Option<String> {
    let mut dst = Heap::with_base(Addr(0x40_0000_0000), 1 << 20);
    // Must not panic. Err is fine; Ok means the corruption landed in
    // payload bytes and still decoded to *some* graph, which must walk.
    let root = ser.deserialize(bytes, reg, &mut dst, &mut NullSink).ok()?;
    graph_digest(&dst, reg, root).err()
}

fn corrupt_and_decode(ser: &dyn Serializer, flips: &[(u16, u8)]) -> Option<String> {
    let (mut heap, reg, root) = sample_graph();
    let mut bytes = ser.serialize(&mut heap, &reg, root, &mut NullSink).expect("ok");
    for &(pos, mask) in flips {
        if bytes.is_empty() {
            break;
        }
        let i = pos as usize % bytes.len();
        bytes[i] ^= mask | 1; // always change something
    }
    decode_and_walk(ser, &bytes, &reg).map(|why| format!("flips {flips:?}: {why}"))
}

const CASES: usize = 256;

fn corruption_cases(seed: u64, ser: &dyn Serializer) {
    let mut rng = Rng::new(seed);
    let mut unwalkable = Vec::new();
    for _ in 0..CASES {
        let flips: Vec<(u16, u8)> = (0..rng.gen_range_usize(1, 8))
            .map(|_| (rng.next_u64() as u16, rng.next_u64() as u8))
            .collect();
        unwalkable.extend(corrupt_and_decode(ser, &flips));
    }
    assert!(
        unwalkable.is_empty(),
        "{}: {} Ok decodes do not walk:\n{}",
        ser.name(),
        unwalkable.len(),
        unwalkable.join("\n")
    );
}

#[test]
fn javasd_survives_corruption() {
    corruption_cases(0xC0_0001, &JavaSd::new());
}

#[test]
fn kryo_survives_corruption() {
    corruption_cases(0xC0_0002, &Kryo::new());
}

#[test]
fn skyway_survives_corruption() {
    corruption_cases(0xC0_0003, &Skyway::new());
}

#[test]
fn cereal_survives_corruption() {
    corruption_cases(0xC0_0004, &CerealSerializer::new());
}

#[test]
fn jsonlike_survives_corruption() {
    corruption_cases(0xC0_0005, &JsonLike::new());
}

#[test]
fn protolike_survives_corruption() {
    corruption_cases(0xC0_0006, &ProtoLike::new());
}

/// Truncation at any point must be rejected or decode cleanly.
#[test]
fn all_survive_truncation() {
    let mut rng = Rng::new(0xC0_0007);
    for _ in 0..CASES {
        let cut_seed = rng.next_u64() as u16;
        for ser in [
            &JavaSd::new() as &dyn Serializer,
            &Kryo::new(),
            &Skyway::new(),
            &JsonLike::new(),
            &ProtoLike::new(),
            &CerealSerializer::new(),
        ] {
            let (mut heap, reg, root) = sample_graph();
            let bytes = ser.serialize(&mut heap, &reg, root, &mut NullSink).expect("ok");
            let cut = (cut_seed as usize) % bytes.len();
            if let Some(why) = decode_and_walk(ser, &bytes[..cut], &reg) {
                panic!("{} cut at {cut}: {why}", ser.name());
            }
        }
    }
}
