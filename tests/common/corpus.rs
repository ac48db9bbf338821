//! The 18-graph corpus the serializer fixtures run over: five
//! handcrafted shapes, every microbenchmark at `Scale::Tiny`, the JSBS
//! media object, and the first batch of every Spark application at
//! `Scale::Tiny`; with the six software backends that run on it.

use cereal_repro::baselines::{Archive, JavaSd, JsonLike, Kryo, ProtoLike, Serializer, Skyway};
use cereal_repro::bench_workloads::{media_content, MicroBench, Scale, SparkApp};
use cereal_repro::heap::builder::Init;
use cereal_repro::heap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};

/// Destination-heap base for every reconstruction (fixed, because heap
/// addresses are part of the narrated ops).
pub const DST_BASE: u64 = 0x40_0000_0000;

/// Every software backend; the five binary ones come first.
pub fn backends() -> [(&'static str, Box<dyn Serializer>); 6] {
    [
        ("JavaSd", Box::new(JavaSd::new())),
        ("Kryo", Box::new(Kryo::new())),
        ("ProtoLike", Box::new(ProtoLike::new())),
        ("Skyway", Box::new(Skyway::new())),
        ("Archive", Box::new(Archive::new())),
        ("JsonLike", Box::new(JsonLike::new())),
    ]
}

pub type Graph = (Heap, KlassRegistry, Addr);

/// Mixed-width fields with interleaved refs (runs split at every ref),
/// diamond sharing of a value array.
pub fn diamond() -> Graph {
    let mut b = GraphBuilder::new(1 << 18);
    let m = b.klass(
        "Mixed",
        vec![
            FieldKind::Value(ValueType::Long),
            FieldKind::Value(ValueType::Int),
            FieldKind::Value(ValueType::Char),
            FieldKind::Value(ValueType::Byte),
            FieldKind::Ref,
            FieldKind::Value(ValueType::Boolean),
            FieldKind::Value(ValueType::Double),
            FieldKind::Ref,
            FieldKind::Value(ValueType::Int),
        ],
    );
    let d = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
    let shared = b
        .value_array(d, &[f64::to_bits(1.5), f64::to_bits(-2.25), 0])
        .unwrap();
    let left = b
        .object(
            m,
            &[
                Init::Val(0x0123_4567_89ab_cdef),
                Init::Val(0xffff_fffe),
                Init::Val(0x41),
                Init::Val(0x7f),
                Init::Ref(shared),
                Init::Val(1),
                Init::Val(f64::to_bits(0.5)),
                Init::Null,
                Init::Val(42),
            ],
        )
        .unwrap();
    let root = b
        .object(
            m,
            &[
                Init::Val(1),
                Init::Val(2),
                Init::Val(3),
                Init::Val(4),
                Init::Ref(left),
                Init::Val(0),
                Init::Val(f64::to_bits(-3.75)),
                Init::Ref(shared),
                Init::Val(5),
            ],
        )
        .unwrap();
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// A two-node cycle (exercises the back-reference paths).
pub fn cycle() -> Graph {
    let mut b = GraphBuilder::new(1 << 16);
    let k = b.klass("C", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
    let a = b.object(k, &[Init::Val(1), Init::Null]).unwrap();
    let c = b.object(k, &[Init::Val(2), Init::Ref(a)]).unwrap();
    let (mut heap, reg) = b.finish();
    heap.set_ref(a, 1, c);
    (heap, reg, c)
}

/// Value arrays of every formatting class plus a ref array with nulls
/// and sharing.
pub fn arrays() -> Graph {
    let mut b = GraphBuilder::new(1 << 18);
    let l = b.array_klass("long[]", FieldKind::Value(ValueType::Long));
    let d = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
    let o = b.array_klass("Object[]", FieldKind::Ref);
    let longs = b.value_array(l, &[0, 1, u64::MAX, 300, 1 << 40]).unwrap();
    let doubles = b
        .value_array(d, &[f64::to_bits(0.0), f64::to_bits(6.25e3)])
        .unwrap();
    let empty = b.value_array(l, &[]).unwrap();
    let root = b
        .ref_array(o, &[longs, Addr::NULL, doubles, longs, empty])
        .unwrap();
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// A linked list deep enough to stress resumable frames but within the
/// text parser's recursion cap.
pub fn deep_list() -> Graph {
    let mut b = GraphBuilder::new(1 << 20);
    let k = b.klass("L", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
    let mut head = b.object(k, &[Init::Val(0), Init::Null]).unwrap();
    for i in 1..150u64 {
        head = b.object(k, &[Init::Val(i), Init::Ref(head)]).unwrap();
    }
    let (heap, reg) = b.finish();
    (heap, reg, head)
}

/// A registry with klasses but a null root.
pub fn null_root() -> Graph {
    let mut b = GraphBuilder::new(1 << 12);
    b.klass("N", vec![FieldKind::Value(ValueType::Long)]);
    let (heap, reg) = b.finish();
    (heap, reg, Addr::NULL)
}

pub fn corpus() -> Vec<(&'static str, Graph)> {
    let mut graphs = vec![
        ("diamond", diamond()),
        ("cycle", cycle()),
        ("arrays", arrays()),
        ("deep_list", deep_list()),
        ("null_root", null_root()),
    ];
    for bench in MicroBench::all() {
        graphs.push((bench.name(), bench.build(Scale::Tiny)));
    }
    graphs.push(("media_content", media_content()));
    for app in SparkApp::all() {
        let ds = app.build(Scale::Tiny);
        let root = ds.batches[0];
        graphs.push((app.name(), (ds.heap, ds.reg, root)));
    }
    graphs
}
