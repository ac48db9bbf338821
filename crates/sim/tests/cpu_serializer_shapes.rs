//! Cross-crate validation: running the functional serializers through the
//! CPU model must reproduce the paper's §III observations (Fig. 3):
//! low IPC, high LLC miss rates, single-digit bandwidth utilization, and
//! Kryo ≈ 2–5× faster than Java S/D on serialization but an order of
//! magnitude faster on deserialization.

use sdheap::builder::Init;
use sdheap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};
use serializers::{JavaSd, Kryo, Serializer};
use sim::{Cpu, CpuReport};

/// A binary tree of `depth` levels (2^depth - 1 nodes).
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

fn measure(
    ser: &dyn Serializer,
    heap: &mut Heap,
    reg: &KlassRegistry,
    root: Addr,
) -> (CpuReport, CpuReport) {
    let mut ser_cpu = Cpu::host();
    let bytes = ser.serialize(heap, reg, root, &mut ser_cpu).unwrap();
    let mut de_cpu = Cpu::host();
    let mut dst = Heap::with_base(Addr(0x2_0000_0000), heap.capacity_bytes());
    ser.deserialize(&bytes, reg, &mut dst, &mut de_cpu).unwrap();
    (ser_cpu.report(), de_cpu.report())
}

#[test]
fn fig3_shapes_hold_on_a_tree() {
    let (mut heap, reg, root) = tree(14); // 16383 nodes, ~786 KB
    let (java_ser, java_de) = measure(&JavaSd::new(), &mut heap, &reg, root);
    let (kryo_ser, kryo_de) = measure(&Kryo::new(), &mut heap, &reg, root);

    // Fig. 3(a): IPC around 1 for both (well below the 4-wide peak).
    for (name, r) in [("java ser", java_ser), ("kryo ser", kryo_ser)] {
        assert!(
            r.ipc > 0.2 && r.ipc < 2.5,
            "{name}: S/D should be latency-bound, IPC {} cycles {}",
            r.ipc,
            r.cycles
        );
    }

    // Fig. 3(c): single-core S/D uses a small fraction of DRAM bandwidth.
    assert!(
        java_ser.bandwidth_util < 0.15,
        "java bw util {}",
        java_ser.bandwidth_util
    );
    assert!(
        kryo_ser.bandwidth_util < 0.2,
        "kryo bw util {}",
        kryo_ser.bandwidth_util
    );

    // Fig. 3(d): Kryo beats Java S/D moderately on serialization...
    let ser_speedup = java_ser.ns / kryo_ser.ns;
    assert!(
        ser_speedup > 1.3 && ser_speedup < 8.0,
        "kryo ser speedup {ser_speedup}"
    );
    // ...and dramatically on deserialization (no strings, no reflection).
    let de_speedup = java_de.ns / kryo_de.ns;
    assert!(
        de_speedup > 8.0,
        "kryo deser speedup should be an order of magnitude, got {de_speedup}"
    );
    assert!(de_speedup > ser_speedup * 2.0);
}

#[test]
fn larger_graphs_take_proportionally_longer() {
    let (mut h1, r1, root1) = tree(10);
    let (mut h2, r2, root2) = tree(13); // 8× the nodes
    let (a, _) = measure(&Kryo::new(), &mut h1, &r1, root1);
    let (b, _) = measure(&Kryo::new(), &mut h2, &r2, root2);
    let ratio = b.ns / a.ns;
    assert!(
        ratio > 4.0 && ratio < 20.0,
        "8× nodes should cost roughly 8× time, got {ratio}"
    );
}
