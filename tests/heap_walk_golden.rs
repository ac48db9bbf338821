//! Frozen traversal orders of `sdheap::reachable`, and the per-object
//! layout queries checked against their word-by-word definition.
//!
//! Every software serializer walks the heap in one of `reachable`'s two
//! orders, so a change to that walk moves every stream and narrated op.
//! For each graph of the serializer corpus ([`common::corpus`]) and for
//! a graph dominated by long primitive arrays, a row in [`ROWS`] pins
//! the length and an FNV-1a-64 of the depth-first and of the
//! breadth-first address sequence.
//!
//! For every reachable object the test also checks `layout_bits`,
//! `ref_offsets` and `references` against
//! `ObjectView::word_kind`, the per-word specification: bit `w` is set
//! iff word `w` is a reference slot, the offsets are the set bits in
//! order, and the references are the words loaded at those offsets.
//!
//! On a mismatch the test prints the actual rows.

use cereal_repro::heap::builder::Init;
use cereal_repro::heap::{
    reachable, Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, Reachable, ValueType,
};
use common::corpus::{corpus, Graph};
use common::Fnv;

mod common;

/// `(graph, dfs_len, dfs_fnv, bfs_len, bfs_fnv)`.
type Row = (&'static str, usize, u64, usize, u64);

// One row per line, as the test prints them.
#[rustfmt::skip]
const ROWS: &[Row] = &[
    ("diamond", 3, 0x88e8234167156f65, 3, 0x88e8234167156f65),
    ("cycle", 2, 0x8ad482db5dbfb64d, 2, 0x8ad482db5dbfb64d),
    ("arrays", 4, 0x0bc58d4a7144b9cd, 4, 0x0bc58d4a7144b9cd),
    ("deep_list", 150, 0x63bf1c0bae32093f, 150, 0x63bf1c0bae32093f),
    ("null_root", 0, 0xcbf29ce484222325, 0, 0xcbf29ce484222325),
    ("Tree-narrow", 254, 0xbd84c92337e68c65, 254, 0xc6f1738352e9efa5),
    ("Tree-wide", 584, 0xe4fd958124d27602, 584, 0xbdc306262b1e4782),
    ("List-small", 128, 0x9127ab877f029c8d, 128, 0x9127ab877f029c8d),
    ("List-large", 512, 0x6c58a05c62e77065, 512, 0x6c58a05c62e77065),
    ("Graph-sparse", 130, 0xaa9af274f94292a7, 130, 0x27c1136beedc89f7),
    ("Graph-dense", 130, 0xcb1f6b7db5fc1085, 130, 0x942513f5f7fea1c5),
    ("media_content", 15, 0x7226fd0a1568f5cf, 15, 0x9513e00f4893feef),
    ("NWeight", 5574, 0x5c2584c2d3c7ff43, 5574, 0x4d9599a7735f9fb3),
    ("SVM", 513, 0xbe65acdb21846749, 513, 0x81e76ece4643d219),
    ("Bayes", 769, 0x6a2986eba2c180c0, 769, 0x7630adc3c7c016a8),
    ("LR", 513, 0x4354307d5695cde1, 513, 0x51a255f2c106e2dd),
    ("Terasort", 769, 0x76ff860735fc81f5, 769, 0x5392a1be8dc76c95),
    ("ALS", 513, 0xae7ef21c2bdfb14d, 513, 0x7318661d214e950d),
    ("long_arrays", 5, 0x9d150b1d2a410f7d, 5, 0x0b060779dca7d17d),
];

/// A holder whose fields reach two long value arrays (one of 2^16
/// elements), a double array and a reference array that shares one of
/// them: a walk that visits array elements word by word shows here.
fn long_arrays() -> Graph {
    let mut b = GraphBuilder::new(1 << 21);
    let holder = b.klass(
        "Holder",
        vec![
            FieldKind::Value(ValueType::Long),
            FieldKind::Ref,
            FieldKind::Ref,
            FieldKind::Value(ValueType::Int),
            FieldKind::Ref,
        ],
    );
    let longs = b.array_klass("long[]", FieldKind::Value(ValueType::Long));
    let doubles = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
    let objects = b.array_klass("Object[]", FieldKind::Ref);
    let big: Vec<u64> = (0..1u64 << 16).map(|i| i.wrapping_mul(0x9e37)).collect();
    let big = b.value_array(longs, &big).unwrap();
    let small = b.value_array(longs, &[7, 8, 9]).unwrap();
    let ds: Vec<u64> = (0..4096).map(|i| f64::to_bits(i as f64 * 0.5)).collect();
    let ds = b.value_array(doubles, &ds).unwrap();
    let shared = b
        .ref_array(objects, &[small, Addr::NULL, big, small])
        .unwrap();
    let root = b
        .object(
            holder,
            &[
                Init::Val(1),
                Init::Ref(shared),
                Init::Ref(ds),
                Init::Val(2),
                Init::Ref(big),
            ],
        )
        .unwrap();
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

fn graphs() -> Vec<(&'static str, Graph)> {
    let mut graphs = corpus();
    graphs.push(("long_arrays", long_arrays()));
    graphs
}

fn digest(addrs: &[Addr]) -> u64 {
    let mut h = Fnv::new();
    for a in addrs {
        h.eat(&a.get().to_le_bytes());
    }
    h.0
}

fn list<T>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    items.into_iter().collect()
}

/// Checks every layout query of the object at `addr` against its
/// `word_kind` definition.
fn check_layout(name: &str, heap: &Heap, reg: &KlassRegistry, addr: Addr) {
    let v = heap.object(reg, addr);
    let spec: Vec<bool> = (0..v.size_words())
        .map(|w| v.word_kind(w).is_ref())
        .collect();
    assert_eq!(v.layout_bits(), spec, "{name}: layout_bits of {addr}");
    let offsets: Vec<usize> = (0..spec.len()).filter(|&w| spec[w]).collect();
    assert_eq!(
        list(v.ref_offsets()),
        offsets,
        "{name}: ref_offsets of {addr}"
    );
    let targets: Vec<Addr> = offsets.iter().map(|&w| Addr(v.word(w))).collect();
    assert_eq!(
        list(v.references()),
        targets,
        "{name}: references of {addr}"
    );
}

#[test]
fn walk_orders_and_layout_queries_match_the_frozen_rows() {
    let mut actual: Vec<Row> = Vec::new();
    for (name, (heap, reg, root)) in graphs() {
        let dfs = reachable(&heap, &reg, root, Reachable::DepthFirst);
        let bfs = reachable(&heap, &reg, root, Reachable::BreadthFirst);
        for &addr in &dfs {
            check_layout(name, &heap, &reg, addr);
        }
        actual.push((name, dfs.len(), digest(&dfs), bfs.len(), digest(&bfs)));
    }
    if actual != ROWS {
        println!("actual rows:");
        for (name, dl, dh, bl, bh) in &actual {
            println!("    ({name:?}, {dl}, {dh:#018x}, {bl}, {bh:#018x}),");
        }
        panic!("the heap walk moved; the actual rows are printed above");
    }
}
