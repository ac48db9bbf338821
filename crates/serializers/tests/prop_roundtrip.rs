//! Seeded randomized round-trip tests: every serializer must reconstruct
//! an isomorphic copy of arbitrary random object graphs.
//!
//! Formerly proptest properties; now deterministic loops over the
//! in-repo PRNG so the suite runs offline.

use sdheap::builder::Init;
use sdheap::rng::Rng;
use sdheap::{
    isomorphic_with, Addr, FieldKind, GraphBuilder, Heap, IsoOptions, KlassRegistry, ValueType,
};
use serializers::{JavaSd, Kryo, NullSink, Serializer, Skyway};

/// A compact recipe for a random object graph.
///
/// Per object: (class pick 0..3, long value, up to 3 edges as indices
/// into the object list *modulo* position, allowing forward/cyclic
/// edges).
struct GraphRecipe {
    nodes: Vec<(u8, u64, [u8; 3])>,
}

fn random_recipe(rng: &mut Rng) -> GraphRecipe {
    let n = rng.gen_range_usize(1, 40);
    GraphRecipe {
        nodes: (0..n)
            .map(|_| {
                let pick = rng.next_u64() as u8;
                let value = rng.next_u64();
                let edges = [
                    rng.next_u64() as u8,
                    rng.next_u64() as u8,
                    rng.next_u64() as u8,
                ];
                (pick, value, edges)
            })
            .collect(),
    }
}

/// Builds a heap from a recipe. Classes:
/// 0: {long, ref}  1: {ref, ref, int}  2: {long}  3: ref-array of up to 3
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
    let k2 = b.klass("C", vec![FieldKind::Value(ValueType::Long)]);
    let k3 = b.array_klass("Object[]", FieldKind::Ref);

    // First pass: allocate all objects with null refs.
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
            _ => {
                let len = (edges[0] % 4) as usize;
                b.ref_array(k3, &vec![Addr::NULL; len]).unwrap()
            }
        };
        addrs.push(addr);
    }
    // Second pass: wire edges (may create sharing and cycles).
    let n = addrs.len();
    for (i, &(pick, _, edges)) in recipe.nodes.iter().enumerate() {
        let target = |e: u8| -> Addr {
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
                let len = (edges[0] % 4) as usize;
                for (slot, &e) in edges.iter().take(len).enumerate() {
                    b.set_array_ref(addrs[i], slot, target(e));
                }
            }
        }
    }
    let root = addrs[0];
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

fn roundtrip_ok(ser: &dyn Serializer, heap: &mut Heap, reg: &KlassRegistry, root: Addr) -> bool {
    let bytes = match ser.serialize(heap, reg, root, &mut NullSink) {
        Ok(b) => b,
        Err(_) => return false,
    };
    let mut dst = Heap::with_base(Addr(0x2_0000_0000), heap.capacity_bytes());
    let new_root = match ser.deserialize(&bytes, reg, &mut dst, &mut NullSink) {
        Ok(r) => r,
        Err(_) => return false,
    };
    isomorphic_with(
        heap,
        reg,
        root,
        &dst,
        new_root,
        IsoOptions {
            check_identity_hash: ser.preserves_identity_hash(),
        },
    )
}

const CASES: usize = 64;

#[test]
fn javasd_roundtrips_random_graphs() {
    let mut rng = Rng::new(0x5E_0001);
    for i in 0..CASES {
        let (mut heap, reg, root) = build(&random_recipe(&mut rng));
        assert!(
            roundtrip_ok(&JavaSd::new(), &mut heap, &reg, root),
            "case {i}"
        );
    }
}

#[test]
fn kryo_roundtrips_random_graphs() {
    let mut rng = Rng::new(0x5E_0002);
    for i in 0..CASES {
        let (mut heap, reg, root) = build(&random_recipe(&mut rng));
        assert!(
            roundtrip_ok(&Kryo::new(), &mut heap, &reg, root),
            "case {i}"
        );
    }
}

#[test]
fn skyway_roundtrips_random_graphs() {
    let mut rng = Rng::new(0x5E_0003);
    for i in 0..CASES {
        let (mut heap, reg, root) = build(&random_recipe(&mut rng));
        assert!(
            roundtrip_ok(&Skyway::new(), &mut heap, &reg, root),
            "case {i}"
        );
    }
}

/// Serialized sizes always order Kryo ≤ Java S/D (integer IDs beat
/// embedded strings).
#[test]
fn kryo_never_larger_than_javasd() {
    let mut rng = Rng::new(0x5E_0004);
    for _ in 0..CASES {
        let (mut heap, reg, root) = build(&random_recipe(&mut rng));
        let kryo = Kryo::new()
            .serialize(&mut heap, &reg, root, &mut NullSink)
            .unwrap();
        let java = JavaSd::new()
            .serialize(&mut heap, &reg, root, &mut NullSink)
            .unwrap();
        assert!(
            kryo.len() <= java.len(),
            "kryo {} > java {}",
            kryo.len(),
            java.len()
        );
    }
}
