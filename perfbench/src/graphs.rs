//! Seeded object graphs for the serializer workloads.
//!
//! The shapes are the paper's Table II microbenchmarks
//! ([`MicroBench::params`]) plus JSBS `media_content`, perf's shared-leaf
//! plan graph and a payload-dense `double[]` graph. The seed picks
//! payload values (and so their encoded widths), graph edges, and a node
//! count within [`JITTER`] of the nominal size, so every seed is nearly
//! the same amount of work on different inputs — and no simulated
//! result is the same number for every seed.

use sdheap::builder::Init;
use sdheap::rng::Rng;
use sdheap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};
use workloads::{MicroBench, Scale};

/// One object graph and its source-side fold (the round-trip oracle).
pub struct Graph {
    /// Display name.
    pub name: String,
    pub heap: Heap,
    pub reg: KlassRegistry,
    pub root: Addr,
    /// `fold_words_heap` of the source graph.
    pub fold: u64,
}

impl Graph {
    fn new(name: String, (heap, reg, root): (Heap, KlassRegistry, Addr)) -> Graph {
        let fold = serializers::fold_words_heap(&heap, &reg, root);
        Graph {
            name,
            heap,
            reg,
            root,
            fold,
        }
    }
}

/// A payload word of seeded width, so varint and packed encodings see
/// the full range of value sizes.
fn payload(rng: &mut Rng) -> u64 {
    rng.next_u64() >> rng.gen_range_u64(0, 64)
}

fn heap_bytes_for(objects: usize, extra_words_per_obj: usize) -> u64 {
    ((objects * (6 + extra_words_per_obj) * 8) as u64 * 4).max(1 << 16)
}

/// A `fanout`-ary tree of `count` nodes with seeded payloads.
fn tree(fanout: usize, count: usize, rng: &mut Rng) -> (Heap, KlassRegistry, Addr) {
    let mut b = GraphBuilder::new(heap_bytes_for(count, fanout));
    let kinds: Vec<FieldKind> = std::iter::once(FieldKind::Value(ValueType::Long))
        .chain(std::iter::repeat_n(FieldKind::Ref, fanout))
        .collect();
    let node = b.klass(format!("TreeNode{fanout}"), kinds);
    let mut levels = Vec::new();
    let (mut total, mut width) = (0usize, 1usize);
    while total < count {
        let take = width.min(count - total);
        levels.push(take);
        total += take;
        width = width.saturating_mul(fanout);
    }
    let mut below: Vec<Addr> = Vec::new();
    for &n in levels.iter().rev() {
        let mut level = Vec::with_capacity(n);
        let mut children = below.iter().copied();
        for _ in 0..n {
            let mut inits = vec![Init::Val(payload(rng))];
            inits.extend((0..fanout).map(|_| children.next().map_or(Init::Null, Init::Ref)));
            level.push(b.object(node, &inits).expect("heap sized for the tree"));
        }
        below = level;
    }
    let root = below[0];
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// A linked list of `count` nodes with seeded payloads.
fn list(count: usize, rng: &mut Rng) -> (Heap, KlassRegistry, Addr) {
    let mut b = GraphBuilder::new(heap_bytes_for(count, 1));
    let node = b.klass(
        "ListNode",
        vec![FieldKind::Value(ValueType::Long), FieldKind::Ref],
    );
    let mut head = b
        .object(node, &[Init::Val(payload(rng)), Init::Null])
        .expect("sized");
    for _ in 1..count {
        head = b
            .object(node, &[Init::Val(payload(rng)), Init::Ref(head)])
            .expect("sized");
    }
    let (heap, reg) = b.finish();
    (heap, reg, head)
}

/// `nodes` nodes, each with an `edges`-slot adjacency array of seeded
/// random targets, all reachable from a spine under the root.
fn graph(nodes: usize, edges: usize, rng: &mut Rng) -> (Heap, KlassRegistry, Addr) {
    let mut b = GraphBuilder::new(heap_bytes_for(nodes, edges + 6));
    let node = b.klass(
        "GraphNode",
        vec![FieldKind::Value(ValueType::Long), FieldKind::Ref],
    );
    let adj = b.array_klass("GraphNode[]", FieldKind::Ref);
    let addrs: Vec<Addr> = (0..nodes)
        .map(|_| {
            b.object(node, &[Init::Val(payload(rng)), Init::Null])
                .expect("sized")
        })
        .collect();
    for &a in &addrs {
        let arr = b.ref_array(adj, &vec![Addr::NULL; edges]).expect("sized");
        for slot in 0..edges {
            b.set_array_ref(arr, slot, addrs[rng.gen_range_usize(0, nodes)]);
        }
        b.link(a, 1, arr);
    }
    let spine = b.ref_array(adj, &addrs).expect("sized");
    let root = b
        .object(node, &[Init::Val(u64::MAX), Init::Ref(spine)])
        .expect("sized");
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// `arrays` seeded `double[len]` arrays under one `Object[]`: almost
/// every byte is payload.
fn dense_arrays(arrays: usize, len: usize, rng: &mut Rng) -> (Heap, KlassRegistry, Addr) {
    let mut b = GraphBuilder::new(((arrays * (len + 8) + len) * 8 * 2) as u64);
    let d = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
    let o = b.array_klass("Object[]", FieldKind::Ref);
    let roots: Vec<Addr> = (0..arrays)
        .map(|_| {
            let vals: Vec<u64> = (0..len)
                .map(|_| f64::to_bits(rng.gen_f64() * 1e3))
                .collect();
            b.value_array(d, &vals).expect("sized")
        })
        .collect();
    let root = b.ref_array(o, &roots).expect("sized");
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// Perf's plan stress graph: 512 records of mixed-width primitives, all
/// sharing one leaf, under an `Object[]` — the shape where per-object
/// field walking and shared-reference tracking cost the most.
fn shared_leaf(rng: &mut Rng) -> (Heap, KlassRegistry, Addr) {
    use FieldKind::{Ref, Value};
    use ValueType::{Boolean, Byte, Char, Double, Int, Long};
    let mut b = GraphBuilder::new(1 << 18);
    let r = b.klass(
        "R",
        vec![
            Value(Long),
            Value(Int),
            Value(Char),
            Value(Byte),
            Value(Boolean),
            Value(Double),
            Ref,
            Value(Long),
            Value(Int),
            Value(Double),
            Value(Long),
            Value(Int),
            Value(Long),
        ],
    );
    let leaf_k = b.klass("Leaf", vec![Value(Long)]);
    let arr = b.array_klass("Object[]", Ref);
    let leaf = b.object(leaf_k, &[Init::Val(7)]).expect("sized");
    let objects: Vec<Addr> = (0..jittered(512, rng))
        .map(|_| {
            let mut v = || rng.next_u64();
            let inits = [
                Init::Val(v()),
                Init::Val(v() & 0xffff_ffff),
                Init::Val(v() & 0xffff),
                Init::Val(v() & 0xff),
                Init::Val(v() & 1),
                Init::Val(f64::to_bits(v() as f64)),
                Init::Ref(leaf),
                Init::Val(v()),
                Init::Val(v() & 0xffff_ffff),
                Init::Val(f64::to_bits(0.5)),
                Init::Val(v()),
                Init::Val(v() & 0xffff_ffff),
                Init::Val(v()),
            ];
            b.object(r, &inits).expect("sized")
        })
        .collect();
    let root = b.ref_array(arr, &objects).expect("sized");
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// Largest relative change the seed makes to a shape's node count.
const JITTER: f64 = 0.01;

/// `n` moved by at most [`JITTER`] of itself.
fn jittered(n: usize, rng: &mut Rng) -> usize {
    ((n as f64) * rng.gen_range_f64(1.0 - JITTER, 1.0 + JITTER)).round() as usize
}

/// A Table II shape at `scale` (nominal node count from
/// [`MicroBench::params`]).
pub fn micro(bench: MicroBench, scale: Scale, seed: u64) -> Graph {
    let (arity, count) = bench.params(scale);
    micro_sized(bench, count, arity, seed, scale_label(scale))
}

/// A Table II shape of nominal node count `count`.
pub fn micro_sized(bench: MicroBench, count: usize, arity: usize, seed: u64, label: &str) -> Graph {
    let mut rng = Rng::new(seed ^ shape_salt(bench.name()));
    let count = jittered(count, &mut rng);
    let g = match bench {
        MicroBench::TreeNarrow | MicroBench::TreeWide => tree(arity, count, &mut rng),
        MicroBench::ListSmall | MicroBench::ListLarge => list(count, &mut rng),
        MicroBench::GraphSparse | MicroBench::GraphDense => graph(count, arity, &mut rng),
    };
    Graph::new(format!("{}/{label}", bench.name()), g)
}

/// The payload-dense `double[]` graph (about 64 arrays of 256).
pub fn double_arrays(seed: u64) -> Graph {
    let mut rng = Rng::new(seed ^ shape_salt("double[]"));
    let arrays = jittered(64, &mut rng);
    Graph::new("double[]".into(), dense_arrays(arrays, 256, &mut rng))
}

/// Perf's shared-leaf plan graph.
pub fn plan_graph(seed: u64) -> Graph {
    let mut rng = Rng::new(seed ^ shape_salt("shared-leaf"));
    Graph::new("shared-leaf".into(), shared_leaf(&mut rng))
}

/// JSBS `media_content` (fixed content: the JSBS object has no seed).
pub fn media() -> Graph {
    Graph::new("media_content".into(), workloads::media_content())
}

/// The five small Tiny shapes (List-large excluded: it is List-small
/// with more nodes).
pub fn tiny_shapes(seed: u64) -> Vec<Graph> {
    [
        MicroBench::TreeNarrow,
        MicroBench::TreeWide,
        MicroBench::ListSmall,
        MicroBench::GraphSparse,
        MicroBench::GraphDense,
    ]
    .into_iter()
    .map(|b| micro(b, Scale::Tiny, seed))
    .collect()
}

fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Scaled => "scaled",
        Scale::Tiny => "tiny",
    }
}

/// Per-shape seed salt (FNV-1a of the name), so shapes built from one
/// seed draw independent streams.
fn shape_salt(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
