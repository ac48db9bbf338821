//! Microbenchmarks: Tree, List and Graph object shapes (paper §VI-A,
//! Fig. 9, Table II).
//!
//! Each benchmark builds an object graph with the paper's shape at one of
//! three scales: the paper's Table II sizes, a default `Scaled` variant
//! (1/64, for laptop-speed experiment runs — speedups are ratios and
//! insensitive to this), and `Tiny` for tests. The scale in use is always
//! printed by the experiment harness.

use sdheap::builder::Init;
use sdheap::rng::Rng;
use sdheap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};

/// The six Table II configurations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MicroBench {
    /// Binary tree, 2,097,150 nodes at paper scale.
    TreeNarrow,
    /// 8-ary tree, 19,173,960 nodes at paper scale.
    TreeWide,
    /// Linked list of 524,288 nodes.
    ListSmall,
    /// Linked list of 2,097,152 nodes.
    ListLarge,
    /// 4,096 nodes, 1 out-edge each.
    GraphSparse,
    /// 4,096 nodes, 4,095 out-edges each (fully connected).
    GraphDense,
}

/// Workload size selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Table II sizes (slow; multi-GB heaps for TreeWide).
    Paper,
    /// ~1/64 of the paper sizes — the default for experiment runs.
    Scaled,
    /// Hundreds of objects — for unit tests.
    Tiny,
}

impl MicroBench {
    /// All six benchmarks in Table II order.
    pub fn all() -> [MicroBench; 6] {
        [
            MicroBench::TreeNarrow,
            MicroBench::TreeWide,
            MicroBench::ListSmall,
            MicroBench::ListLarge,
            MicroBench::GraphSparse,
            MicroBench::GraphDense,
        ]
    }

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            MicroBench::TreeNarrow => "Tree-narrow",
            MicroBench::TreeWide => "Tree-wide",
            MicroBench::ListSmall => "List-small",
            MicroBench::ListLarge => "List-large",
            MicroBench::GraphSparse => "Graph-sparse",
            MicroBench::GraphDense => "Graph-dense",
        }
    }

    /// (fanout/edges, node count) at the given scale.
    pub fn params(&self, scale: Scale) -> (usize, usize) {
        // Table II: tree(narrow leaf 2 / wide leaf 8), list lengths,
        // graph(4096 nodes, 1 or 4095 edges).
        match (self, scale) {
            (MicroBench::TreeNarrow, Scale::Paper) => (2, 2_097_150),
            (MicroBench::TreeNarrow, Scale::Scaled) => (2, 32_766),
            (MicroBench::TreeNarrow, Scale::Tiny) => (2, 254),
            (MicroBench::TreeWide, Scale::Paper) => (8, 19_173_960),
            (MicroBench::TreeWide, Scale::Scaled) => (8, 299_592),
            (MicroBench::TreeWide, Scale::Tiny) => (8, 584),
            (MicroBench::ListSmall, Scale::Paper) => (1, 524_288),
            (MicroBench::ListSmall, Scale::Scaled) => (1, 8_192),
            (MicroBench::ListSmall, Scale::Tiny) => (1, 128),
            (MicroBench::ListLarge, Scale::Paper) => (1, 2_097_152),
            (MicroBench::ListLarge, Scale::Scaled) => (1, 32_768),
            (MicroBench::ListLarge, Scale::Tiny) => (1, 512),
            (MicroBench::GraphSparse, Scale::Paper) => (1, 4_096),
            (MicroBench::GraphSparse, Scale::Scaled) => (1, 4_096),
            (MicroBench::GraphSparse, Scale::Tiny) => (1, 64),
            (MicroBench::GraphDense, Scale::Paper) => (4_095, 4_096),
            (MicroBench::GraphDense, Scale::Scaled) => (511, 512),
            (MicroBench::GraphDense, Scale::Tiny) => (63, 64),
        }
    }

    /// Builds the benchmark's object graph.
    pub fn build(&self, scale: Scale) -> (Heap, KlassRegistry, Addr) {
        let (arity, count) = self.params(scale);
        match self {
            MicroBench::TreeNarrow | MicroBench::TreeWide => build_tree(arity, count),
            MicroBench::ListSmall | MicroBench::ListLarge => build_list(count),
            MicroBench::GraphSparse | MicroBench::GraphDense => build_graph(count, arity),
        }
    }
}

/// Heap budget: objects are ≤ 48 B + edge arrays; 4× headroom.
fn heap_bytes_for(objects: usize, extra_words_per_obj: usize) -> u64 {
    ((objects * (6 + extra_words_per_obj) * 8) as u64 * 4).max(1 << 16)
}

/// A `fanout`-ary tree with `count` nodes (Fig. 9(a)): each node holds a
/// payload and `fanout` child references.
fn build_tree(fanout: usize, count: usize) -> (Heap, KlassRegistry, Addr) {
    let mut b = GraphBuilder::new(heap_bytes_for(count, fanout));
    let kinds: Vec<FieldKind> = std::iter::once(FieldKind::Value(ValueType::Long))
        .chain(std::iter::repeat_n(FieldKind::Ref, fanout))
        .collect();
    let node = b.klass(format!("TreeNode{fanout}"), kinds);

    // Plan level sizes top-down (1, fanout, fanout², …, truncated to
    // `count` total), then build bottom-up so children exist before their
    // parents — no recursion, exact node count.
    let mut levels = Vec::new();
    let mut total = 0usize;
    let mut width = 1usize;
    while total < count {
        let take = width.min(count - total);
        levels.push(take);
        total += take;
        width = width.saturating_mul(fanout);
    }
    let mut below: Vec<Addr> = Vec::new();
    for &n in levels.iter().rev() {
        let mut level = Vec::with_capacity(n);
        let mut child_iter = below.iter().copied();
        for i in 0..n {
            let mut inits = vec![Init::Val(i as u64)];
            for _ in 0..fanout {
                inits.push(match child_iter.next() {
                    Some(c) => Init::Ref(c),
                    None => Init::Null,
                });
            }
            level.push(b.object(node, &inits).expect("heap sized for workload"));
        }
        below = level;
    }
    let root = below[0];
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// A singly linked list of `count` nodes (Fig. 9(b)).
fn build_list(count: usize) -> (Heap, KlassRegistry, Addr) {
    let mut b = GraphBuilder::new(heap_bytes_for(count, 1));
    let node = b.klass(
        "ListNode",
        vec![FieldKind::Value(ValueType::Long), FieldKind::Ref],
    );
    let mut head = b.object(node, &[Init::Val(0), Init::Null]).expect("sized");
    for i in 1..count as u64 {
        head = b
            .object(node, &[Init::Val(i), Init::Ref(head)])
            .expect("sized");
    }
    let (heap, reg) = b.finish();
    (heap, reg, head)
}

/// A random directed graph (Fig. 9(c)): `nodes` nodes, each with an
/// `edges`-slot adjacency array of references to random nodes.
fn build_graph(nodes: usize, edges: usize) -> (Heap, KlassRegistry, Addr) {
    let mut b = GraphBuilder::new(heap_bytes_for(nodes, edges + 6));
    let node = b.klass(
        "GraphNode",
        vec![FieldKind::Value(ValueType::Long), FieldKind::Ref],
    );
    let adj = b.array_klass("GraphNode[]", FieldKind::Ref);
    let mut rng = Rng::new(0xCE7EA1);

    let mut addrs = Vec::with_capacity(nodes);
    for i in 0..nodes {
        let a = b
            .object(node, &[Init::Val(i as u64), Init::Null])
            .expect("sized");
        addrs.push(a);
    }
    for &a in &addrs {
        let arr = b.ref_array(adj, &vec![Addr::NULL; edges]).expect("sized");
        for slot in 0..edges {
            let t = addrs[rng.gen_range_usize(0, nodes)];
            b.set_array_ref(arr, slot, t);
        }
        b.link(a, 1, arr);
    }
    // Chain every node from the root so the whole graph is reachable even
    // if random edges leave islands: node 0's adjacency covers others via
    // randomness at dense settings; for sparse settings we root a spine.
    let spine = b.ref_array(adj, &addrs).expect("sized");
    let root = b
        .object(node, &[Init::Val(u64::MAX), Init::Ref(spine)])
        .expect("sized");
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdheap::{reachable, GraphStats, Reachable};

    #[test]
    fn tree_narrow_has_requested_nodes() {
        let (heap, reg, root) = MicroBench::TreeNarrow.build(Scale::Tiny);
        let n = reachable(&heap, &reg, root, Reachable::DepthFirst).len();
        // Exact count (+ up to 1 adoption root).
        assert!((254..=256).contains(&n), "got {n}");
    }

    #[test]
    fn tree_wide_has_higher_fanout() {
        let (heap, reg, root) = MicroBench::TreeWide.build(Scale::Tiny);
        let view = heap.object(&reg, root);
        assert_eq!(view.ref_offsets().len(), 8);
        let s = GraphStats::measure(&heap, &reg, root);
        assert!(s.objects >= 584);
    }

    #[test]
    fn lists_are_chains() {
        let (heap, reg, root) = MicroBench::ListSmall.build(Scale::Tiny);
        let s = GraphStats::measure(&heap, &reg, root);
        assert_eq!(s.objects, 128);
        assert_eq!(s.live_refs, 127, "a chain has n-1 links");
    }

    #[test]
    fn graphs_are_fully_reachable_and_ref_heavy() {
        for bench in [MicroBench::GraphSparse, MicroBench::GraphDense] {
            let (heap, reg, root) = bench.build(Scale::Tiny);
            let s = GraphStats::measure(&heap, &reg, root);
            // 64 nodes + 64 adjacency arrays + spine + root.
            assert!(
                s.objects >= 64 * 2,
                "{}: {} objects",
                bench.name(),
                s.objects
            );
        }
        let (heap, reg, root) = MicroBench::GraphDense.build(Scale::Tiny);
        let dense = GraphStats::measure(&heap, &reg, root);
        let (h2, r2, root2) = MicroBench::GraphSparse.build(Scale::Tiny);
        let sparse = GraphStats::measure(&h2, &r2, root2);
        assert!(
            dense.ref_slots > sparse.ref_slots * 10,
            "dense {} vs sparse {}",
            dense.ref_slots,
            sparse.ref_slots
        );
    }

    #[test]
    fn graph_generation_is_deterministic() {
        let (h1, r1, root1) = MicroBench::GraphSparse.build(Scale::Tiny);
        let (h2, _, root2) = MicroBench::GraphSparse.build(Scale::Tiny);
        assert!(sdheap::isomorphic_with(
            &h1,
            &r1,
            root1,
            &h2,
            root2,
            sdheap::IsoOptions {
                check_identity_hash: false
            }
        ));
    }

    #[test]
    fn paper_scale_params_match_table2() {
        assert_eq!(MicroBench::TreeNarrow.params(Scale::Paper), (2, 2_097_150));
        assert_eq!(MicroBench::TreeWide.params(Scale::Paper), (8, 19_173_960));
        assert_eq!(MicroBench::ListSmall.params(Scale::Paper), (1, 524_288));
        assert_eq!(MicroBench::ListLarge.params(Scale::Paper), (1, 2_097_152));
        assert_eq!(MicroBench::GraphSparse.params(Scale::Paper), (1, 4_096));
        assert_eq!(MicroBench::GraphDense.params(Scale::Paper), (4_095, 4_096));
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<_> = MicroBench::all().iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "Tree-narrow",
                "Tree-wide",
                "List-small",
                "List-large",
                "Graph-sparse",
                "Graph-dense"
            ]
        );
    }
}
