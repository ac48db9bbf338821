//! End-to-end shape validation of the paper's headline result (Fig. 10):
//! on microbenchmark-style graphs, Cereal beats Kryo which beats Java
//! S/D; deserialization speedups dwarf serialization speedups; and the
//! Vanilla ablation lands between Kryo and full Cereal.
//!
//! Eight concurrent requests keep all units busy (operation-level
//! parallelism), matching the paper's 8-SU/8-DU throughput accounting.

use cereal::Accelerator;
use sdheap::builder::Init;
use sdheap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};
use serializers::{JavaSd, Kryo, Serializer};
use sim::Cpu;

const REQUESTS: usize = 8;

fn tree(depth: u32) -> (Heap, KlassRegistry, Addr) {
    let mut b = GraphBuilder::new(1 << 26);
    let node = b.klass(
        "TreeNode",
        vec![
            FieldKind::Value(ValueType::Long),
            FieldKind::Ref,
            FieldKind::Ref,
        ],
    );
    fn build(b: &mut GraphBuilder, node: sdheap::KlassId, depth: u32, seed: u64) -> Addr {
        if depth == 0 {
            return Addr::NULL;
        }
        let l = build(b, node, depth - 1, seed * 2);
        let r = build(b, node, depth - 1, seed * 2 + 1);
        b.object(
            node,
            &[
                Init::Val(seed),
                if l.is_null() {
                    Init::Null
                } else {
                    Init::Ref(l)
                },
                if r.is_null() {
                    Init::Null
                } else {
                    Init::Ref(r)
                },
            ],
        )
        .unwrap()
    }
    let root = build(&mut b, node, depth, 1);
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// CPU baseline: time for `REQUESTS` sequential S/D ops (single core, as
/// in the paper's per-serializer comparison).
fn cpu_times(ser: &dyn Serializer, heap: &mut Heap, reg: &KlassRegistry, root: Addr) -> (f64, f64) {
    let mut ser_cpu = Cpu::host();
    let mut bytes = Vec::new();
    for _ in 0..REQUESTS {
        bytes = ser.serialize(heap, reg, root, &mut ser_cpu).unwrap();
    }
    let mut de_cpu = Cpu::host();
    for _ in 0..REQUESTS {
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), heap.capacity_bytes());
        ser.deserialize(&bytes, reg, &mut dst, &mut de_cpu).unwrap();
    }
    (ser_cpu.report().ns, de_cpu.report().ns)
}

/// Accelerator: makespan for `REQUESTS` concurrent S/D ops.
fn accel_times(
    mut accel: Accelerator,
    heap: &mut Heap,
    reg: &KlassRegistry,
    root: Addr,
) -> (f64, f64) {
    accel.register_all(reg).unwrap();
    heap.gc_clear_serialization_metadata(reg); // reset stale visited marks
    let mut bytes = Vec::new();
    for _ in 0..REQUESTS {
        bytes = accel.serialize(heap, reg, root).unwrap().bytes;
    }
    let ser_ns = accel.report().ser_makespan_ns;
    accel.reset_meters();
    for _ in 0..REQUESTS {
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), heap.capacity_bytes());
        accel.deserialize(&bytes, &mut dst).unwrap();
    }
    let de_ns = accel.report().de_makespan_ns;
    (ser_ns, de_ns)
}

#[test]
fn fig10_ordering_holds() {
    let (mut heap, reg, root) = tree(13); // 8191 nodes
    let (java_s, java_d) = cpu_times(&JavaSd::new(), &mut heap, &reg, root);
    let (kryo_s, kryo_d) = cpu_times(&Kryo::new(), &mut heap, &reg, root);
    let (cer_s, cer_d) = accel_times(Accelerator::paper(), &mut heap, &reg, root);
    let (van_s, van_d) = accel_times(Accelerator::vanilla(), &mut heap, &reg, root);

    let su = |x: f64| java_s / x;
    let du = |x: f64| java_d / x;
    println!(
        "ser speedups vs Java: kryo {:.2} vanilla {:.2} cereal {:.2}",
        su(kryo_s),
        su(van_s),
        su(cer_s)
    );
    println!(
        "de  speedups vs Java: kryo {:.2} vanilla {:.2} cereal {:.2}",
        du(kryo_d),
        du(van_d),
        du(cer_d)
    );

    // Ordering: Cereal > Vanilla ≥ Kryo on serialization; Cereal > Vanilla
    // and Cereal > Kryo on deserialization.
    assert!(cer_s < van_s, "pipelining must help serialization");
    assert!(cer_s < kryo_s, "Cereal must beat Kryo serialization");
    assert!(cer_d < van_d, "4 reconstructors must beat 1");
    assert!(cer_d < kryo_d, "Cereal must beat Kryo deserialization");
    assert!(kryo_s < java_s && kryo_d < java_d);

    // Magnitudes: paper reports 26.5× ser / 364× deser average speedups
    // over Java S/D; our substrate must land in the same decade.
    assert!(
        su(cer_s) > 8.0,
        "Cereal ser speedup too small: {}",
        su(cer_s)
    );
    assert!(
        du(cer_d) > 50.0,
        "Cereal deser speedup too small: {}",
        du(cer_d)
    );
    // Deserialization gains exceed serialization gains.
    assert!(du(cer_d) > su(cer_s));
}

#[test]
fn cereal_roundtrip_on_tree_is_exact() {
    let (mut heap, reg, root) = tree(10);
    let mut accel = Accelerator::paper();
    accel.register_all(&reg).unwrap();
    let bytes = accel.serialize(&mut heap, &reg, root).unwrap().bytes;
    let mut dst = Heap::with_base(Addr(0x2_0000_0000), heap.capacity_bytes());
    let de = accel.deserialize(&bytes, &mut dst).unwrap();
    assert!(sdheap::isomorphic(&heap, &reg, root, &dst, de.root));
}
