//! Seeded randomized integration tests for the Cereal accelerator:
//! random object graphs must round-trip exactly (identity hashes
//! included), and packing invariants must hold on the produced streams.
//!
//! Formerly proptest properties; now deterministic loops over the
//! in-repo PRNG so the suite runs offline.

use cereal_repro::accel::CerealSerializer;
use cereal_repro::baselines::{NullSink, Serializer};
use cereal_repro::heap::builder::Init;
use cereal_repro::heap::rng::Rng;
use cereal_repro::heap::{
    isomorphic, Addr, FieldKind, GraphBuilder, GraphStats, Heap, KlassRegistry, ValueType,
};

struct GraphRecipe {
    nodes: Vec<(u8, u64, [u8; 3])>,
}

fn random_recipe(rng: &mut Rng) -> GraphRecipe {
    let n = rng.gen_range_usize(1, 40);
    GraphRecipe {
        nodes: (0..n)
            .map(|_| {
                (
                    rng.next_u64() as u8,
                    rng.next_u64(),
                    [
                        rng.next_u64() as u8,
                        rng.next_u64() as u8,
                        rng.next_u64() as u8,
                    ],
                )
            })
            .collect(),
    }
}

fn build(recipe: &GraphRecipe) -> (Heap, KlassRegistry, Addr) {
    let mut b = GraphBuilder::new(1 << 22);
    let k0 = b.klass("A", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
    let k1 = b.klass(
        "B",
        vec![
            FieldKind::Ref,
            FieldKind::Ref,
            FieldKind::Value(ValueType::Int),
        ],
    );
    let k2 = b.klass("C", vec![FieldKind::Value(ValueType::Double)]);
    let k3 = b.array_klass("Object[]", FieldKind::Ref);

    let mut addrs = Vec::with_capacity(recipe.nodes.len());
    for &(pick, value, edges) in &recipe.nodes {
        let addr = match pick % 4 {
            0 => b.object(k0, &[Init::Val(value), Init::Null]).unwrap(),
            1 => b
                .object(
                    k1,
                    &[Init::Null, Init::Null, Init::Val(value & 0xffff_ffff)],
                )
                .unwrap(),
            2 => b.object(k2, &[Init::Val(value)]).unwrap(),
            _ => b
                .ref_array(k3, &vec![Addr::NULL; (edges[0] % 4) as usize])
                .unwrap(),
        };
        addrs.push(addr);
    }
    let n = addrs.len();
    for (i, &(pick, _, edges)) in recipe.nodes.iter().enumerate() {
        let target = |e: u8| {
            if e == 0 {
                Addr::NULL
            } else {
                addrs[(e as usize) % n]
            }
        };
        match pick % 4 {
            0 => b.link(addrs[i], 1, target(edges[0])),
            1 => {
                b.link(addrs[i], 0, target(edges[0]));
                b.link(addrs[i], 1, target(edges[1]));
            }
            2 => {}
            _ => {
                for (slot, &e) in edges.iter().take((edges[0] % 4) as usize).enumerate() {
                    b.set_array_ref(addrs[i], slot, target(e));
                }
            }
        }
    }
    let root = addrs[0];
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

const CASES: usize = 48;

/// The accelerator round-trips arbitrary graphs with *strict*
/// isomorphism — identity hashes survive header copies.
#[test]
fn cereal_roundtrips_random_graphs() {
    let mut rng = Rng::new(0xCE_0001);
    for i in 0..CASES {
        let (mut heap, reg, root) = build(&random_recipe(&mut rng));
        let ser = CerealSerializer::new();
        let bytes = ser
            .serialize(&mut heap, &reg, root, &mut NullSink)
            .expect("ok");
        let mut dst = Heap::with_base(Addr(0x40_0000_0000), heap.capacity_bytes());
        let new_root = ser
            .deserialize(&bytes, &reg, &mut dst, &mut NullSink)
            .expect("ok");
        assert!(isomorphic(&heap, &reg, root, &dst, new_root), "case {i}");
    }
}

/// Serializing twice (new serialization counters) yields the exact same
/// stream — the visited-counter scheme leaves no residue.
#[test]
fn cereal_is_deterministic_across_counters() {
    let mut rng = Rng::new(0xCE_0002);
    for i in 0..CASES {
        let (mut heap, reg, root) = build(&random_recipe(&mut rng));
        let ser = CerealSerializer::new();
        let a = ser
            .serialize(&mut heap, &reg, root, &mut NullSink)
            .expect("ok");
        let b = ser
            .serialize(&mut heap, &reg, root, &mut NullSink)
            .expect("ok");
        assert_eq!(a, b, "case {i}");
    }
}

/// Stream accounting invariants: image size = total reachable object
/// bytes; one bitmap per object; one packed reference per reachable
/// reference slot.
#[test]
fn stream_accounting_matches_graph_stats() {
    let mut rng = Rng::new(0xCE_0003);
    for i in 0..CASES {
        let (mut heap, reg, root) = build(&random_recipe(&mut rng));
        let ser = CerealSerializer::new();
        let bytes = ser
            .serialize(&mut heap, &reg, root, &mut NullSink)
            .expect("ok");
        let stream = sdformat::CerealStream::from_bytes(&bytes).expect("decodable");
        let stats = GraphStats::measure(&heap, &reg, root);
        assert_eq!(
            u64::from(stream.total_object_bytes),
            stats.total_bytes,
            "case {i}"
        );
        assert_eq!(stream.object_count as usize, stats.objects);
        assert_eq!(stream.bitmaps.count, stats.objects);
        assert_eq!(stream.refs.count, stats.ref_slots);
        // Value array covers every non-reference word except the
        // runtime-private extension word (one per object, regenerated).
        assert_eq!(
            stream.value_array.len(),
            (stats.value_words - stats.objects) * 8
        );
    }
}
