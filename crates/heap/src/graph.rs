//! Object-graph traversal and structural comparison.
//!
//! Serialization is "a recursive traversal of object graph from the
//! top-level object" (paper §I); every serializer in this repository
//! traverses with one of the two orders provided here, and every round-trip
//! test checks reconstruction with [`isomorphic`].

use std::collections::{HashMap, HashSet, VecDeque};

use crate::heap::Heap;
use crate::klass::{FieldKind, KlassRegistry};
use crate::object::{EXT_OFFSET, HEADER_WORDS, KLASS_OFFSET, MARK_OFFSET};
use crate::word::{Addr, WORD_BYTES};

/// Traversal order over an object graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reachable {
    /// Depth-first preorder, children in field order — the order of the
    /// recursive software serializers (Java S/D, Kryo).
    DepthFirst,
    /// Breadth-first — the order of Cereal's header-manager work queue,
    /// which processes objects FIFO as references stream in.
    BreadthFirst,
}

/// All objects reachable from `root`, deduplicated, in the given traversal
/// order. The null root yields an empty vector.
///
/// # Panics
/// Panics if a reachable address is not a live object of `heap`.
pub fn reachable(heap: &Heap, reg: &KlassRegistry, root: Addr, order: Reachable) -> Vec<Addr> {
    if root.is_null() {
        return Vec::new();
    }
    let mut seen = Visited::new(heap);
    let mut out = Vec::new();
    match order {
        // Explicit-stack preorder: children pushed in reverse field order
        // and the visited check done at pop time reproduce the recursive
        // preorder exactly (including on shared/cyclic structure), without
        // call-stack depth proportional to the graph — a scaled linked
        // list overflows a worker thread's 2 MiB stack otherwise.
        Reachable::DepthFirst => {
            let mut stack = vec![root];
            while let Some(addr) = stack.pop() {
                if !seen.insert(addr) {
                    continue;
                }
                out.push(addr);
                let refs = heap.object(reg, addr).references();
                stack.extend(refs.rev().filter(|r| !r.is_null()));
            }
        }
        Reachable::BreadthFirst => {
            let mut queue = VecDeque::new();
            seen.insert(root);
            queue.push_back(root);
            while let Some(addr) = queue.pop_front() {
                out.push(addr);
                for r in heap.object(reg, addr).references() {
                    if !r.is_null() && seen.insert(r) {
                        queue.push_back(r);
                    }
                }
            }
        }
    }
    out
}

/// The visited set of one walk: one bit per allocated heap word, set at
/// an object's first word. `used_words / 8` bytes, freed with the walk.
struct Visited {
    base: u64,
    bits: Vec<u64>,
}

impl Visited {
    fn new(heap: &Heap) -> Self {
        let words = (heap.used_bytes() / WORD_BYTES) as usize;
        Visited {
            base: heap.base().get(),
            bits: vec![0; words.div_ceil(64)],
        }
    }

    /// Marks `addr`; `true` when it was not marked yet.
    ///
    /// # Panics
    /// Panics if `addr` is not a word-aligned address below the heap's
    /// allocation top, so no object can be walked from it.
    #[inline]
    fn insert(&mut self, addr: Addr) -> bool {
        let delta = addr.get().wrapping_sub(self.base);
        let w = (delta / WORD_BYTES) as usize;
        let slot = match self.bits.get_mut(w / 64) {
            Some(slot) if delta.is_multiple_of(WORD_BYTES) => slot,
            _ => panic!("no object at {addr}: outside the allocated heap"),
        };
        let bit = 1u64 << (w % 64);
        let fresh = *slot & bit == 0;
        *slot |= bit;
        fresh
    }
}

/// Aggregate statistics of an object graph, used by workload reports and
/// size-accounting tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphStats {
    /// Number of distinct reachable objects.
    pub objects: usize,
    /// Total size of all reachable objects in bytes (headers included).
    pub total_bytes: u64,
    /// Total reference slots (null or not).
    pub ref_slots: usize,
    /// Non-null reference slots.
    pub live_refs: usize,
    /// Total value words (headers and array-length words included).
    pub value_words: usize,
}

impl GraphStats {
    /// Computes statistics over everything reachable from `root`.
    pub fn measure(heap: &Heap, reg: &KlassRegistry, root: Addr) -> GraphStats {
        let mut s = GraphStats::default();
        for addr in reachable(heap, reg, root, Reachable::DepthFirst) {
            let v = heap.object(reg, addr);
            let refs = v.references();
            s.objects += 1;
            s.total_bytes += v.size_bytes();
            s.ref_slots += refs.len();
            s.value_words += v.size_words() - refs.len();
            s.live_refs += refs.filter(|r| !r.is_null()).count();
        }
        s
    }
}

/// Options for [`isomorphic_with`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IsoOptions {
    /// Require identity hashes to match. Header-copying serializers
    /// (Skyway, Cereal) preserve the mark word's hash; re-allocating
    /// serializers (Java S/D, Kryo) give reconstructed objects fresh
    /// hashes, exactly as the real libraries do.
    pub check_identity_hash: bool,
}

impl Default for IsoOptions {
    fn default() -> Self {
        IsoOptions {
            check_identity_hash: true,
        }
    }
}

/// Structural equality of two object graphs, possibly in different heaps.
///
/// Two graphs are isomorphic when a bijection between their reachable
/// objects maps `root_a` to `root_b` and preserves klass, object size,
/// every primitive field/element word, the identity hash in the mark word,
/// and the reference structure (including null positions and sharing).
///
/// The synchronization/GC bits of the mark word and Cereal's extension word
/// are runtime-private and excluded — serialization is not required to
/// preserve them (the paper's header-stripping discussion makes exactly
/// this split).
pub fn isomorphic(
    heap_a: &Heap,
    reg: &KlassRegistry,
    root_a: Addr,
    heap_b: &Heap,
    root_b: Addr,
) -> bool {
    isomorphic_with(heap_a, reg, root_a, heap_b, root_b, IsoOptions::default())
}

/// [`isomorphic`] with explicit [`IsoOptions`].
pub fn isomorphic_with(
    heap_a: &Heap,
    reg: &KlassRegistry,
    root_a: Addr,
    heap_b: &Heap,
    root_b: Addr,
    opts: IsoOptions,
) -> bool {
    if root_a.is_null() || root_b.is_null() {
        return root_a.is_null() && root_b.is_null();
    }
    let mut map: HashMap<Addr, Addr> = HashMap::new();
    let mut stack = vec![(root_a, root_b)];
    while let Some((a, b)) = stack.pop() {
        match map.get(&a) {
            Some(&mapped) => {
                if mapped != b {
                    return false; // sharing structure differs
                }
                continue;
            }
            None => {
                map.insert(a, b);
            }
        }
        let va = heap_a.object(reg, a);
        let vb = heap_b.object(reg, b);
        if va.klass_id() != vb.klass_id() || va.size_words() != vb.size_words() {
            return false;
        }
        if opts.check_identity_hash
            && heap_a.mark_word(a).identity_hash() != heap_b.mark_word(b).identity_hash()
        {
            return false;
        }
        for w in 0..va.size_words() {
            match (w, va.word_kind(w)) {
                (MARK_OFFSET | KLASS_OFFSET | EXT_OFFSET, _) => {} // handled above / excluded
                (_, FieldKind::Ref) => {
                    let (ra, rb) = (Addr(va.word(w)), Addr(vb.word(w)));
                    match (ra.is_null(), rb.is_null()) {
                        (true, true) => {}
                        (false, false) => stack.push((ra, rb)),
                        _ => return false,
                    }
                }
                (_, FieldKind::Value(_)) => {
                    if va.word(w) != vb.word(w) {
                        return false;
                    }
                }
            }
        }
    }
    // The bijection must be injective on the B side too.
    let mut targets = HashSet::new();
    map.values().all(|t| targets.insert(*t)) && HEADER_WORDS == 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::klass::{Klass, ValueType};

    fn node_registry() -> (KlassRegistry, crate::klass::KlassId) {
        let mut reg = KlassRegistry::new();
        let node = reg.register(Klass::new(
            "Node",
            vec![
                FieldKind::Value(ValueType::Long),
                FieldKind::Ref,
                FieldKind::Ref,
            ],
        ));
        (reg, node)
    }

    /// Builds `a -> (b, c)`, `b -> (c, null)` with values 1,2,3.
    fn diamond(heap: &mut Heap, reg: &KlassRegistry, node: crate::klass::KlassId) -> Addr {
        let a = heap.alloc(reg, node).unwrap();
        let b = heap.alloc(reg, node).unwrap();
        let c = heap.alloc(reg, node).unwrap();
        heap.set_field(a, 0, 1);
        heap.set_field(b, 0, 2);
        heap.set_field(c, 0, 3);
        heap.set_ref(a, 1, b);
        heap.set_ref(a, 2, c);
        heap.set_ref(b, 1, c);
        a
    }

    #[test]
    fn reachable_dedups_shared_objects() {
        let (reg, node) = node_registry();
        let mut heap = Heap::new(4096);
        let a = diamond(&mut heap, &reg, node);
        let dfs = reachable(&heap, &reg, a, Reachable::DepthFirst);
        assert_eq!(dfs.len(), 3, "c is shared but visited once");
        let bfs = reachable(&heap, &reg, a, Reachable::BreadthFirst);
        assert_eq!(bfs.len(), 3);
        assert_eq!(dfs[0], a);
        assert_eq!(bfs[0], a);
    }

    #[test]
    fn dfs_and_bfs_orders_differ_when_expected() {
        let (reg, node) = node_registry();
        let mut heap = Heap::new(8192);
        // a -> (b, c); b -> (d, -): DFS = a b d c, BFS = a b c d.
        let a = heap.alloc(&reg, node).unwrap();
        let b = heap.alloc(&reg, node).unwrap();
        let c = heap.alloc(&reg, node).unwrap();
        let d = heap.alloc(&reg, node).unwrap();
        heap.set_ref(a, 1, b);
        heap.set_ref(a, 2, c);
        heap.set_ref(b, 1, d);
        assert_eq!(
            reachable(&heap, &reg, a, Reachable::DepthFirst),
            vec![a, b, d, c]
        );
        assert_eq!(
            reachable(&heap, &reg, a, Reachable::BreadthFirst),
            vec![a, b, c, d]
        );
    }

    #[test]
    fn reachable_handles_cycles() {
        let (reg, node) = node_registry();
        let mut heap = Heap::new(4096);
        let a = heap.alloc(&reg, node).unwrap();
        let b = heap.alloc(&reg, node).unwrap();
        heap.set_ref(a, 1, b);
        heap.set_ref(b, 1, a); // cycle
        assert_eq!(reachable(&heap, &reg, a, Reachable::DepthFirst).len(), 2);
    }

    #[test]
    fn null_root_is_empty() {
        let (reg, _) = node_registry();
        let heap = Heap::new(64);
        assert!(reachable(&heap, &reg, Addr::NULL, Reachable::DepthFirst).is_empty());
    }

    #[test]
    fn stats_count_refs_and_bytes() {
        let (reg, node) = node_registry();
        let mut heap = Heap::new(4096);
        let a = diamond(&mut heap, &reg, node);
        let s = GraphStats::measure(&heap, &reg, a);
        assert_eq!(s.objects, 3);
        assert_eq!(s.total_bytes, 3 * 48);
        assert_eq!(s.ref_slots, 6);
        assert_eq!(s.live_refs, 3);
        assert_eq!(s.value_words, 3 * 4); // header(3) + one long each
    }

    #[test]
    fn isomorphic_accepts_identical_copy() {
        let (reg, node) = node_registry();
        let mut h1 = Heap::new(4096);
        let a = diamond(&mut h1, &reg, node);
        let h2 = h1.clone();
        assert!(isomorphic(&h1, &reg, a, &h2, a));
    }

    #[test]
    fn isomorphic_detects_value_change() {
        let (reg, node) = node_registry();
        let mut h1 = Heap::new(4096);
        let a = diamond(&mut h1, &reg, node);
        let mut h2 = h1.clone();
        let b = h1.ref_field(a, 1).unwrap();
        h2.set_field(b, 0, 42);
        assert!(!isomorphic(&h1, &reg, a, &h2, a));
    }

    #[test]
    fn isomorphic_detects_broken_sharing() {
        let (reg, node) = node_registry();
        let mut h1 = Heap::new(4096);
        let a1 = diamond(&mut h1, &reg, node);

        // Same shape but c duplicated instead of shared.
        let mut h2 = Heap::new(4096);
        let a = h2.alloc(&reg, node).unwrap();
        let b = h2.alloc(&reg, node).unwrap();
        let c1 = h2.alloc(&reg, node).unwrap();
        let c2 = h2.alloc(&reg, node).unwrap();
        h2.set_field(a, 0, 1);
        h2.set_field(b, 0, 2);
        h2.set_field(c1, 0, 3);
        h2.set_field(c2, 0, 3);
        // Copy identity hashes so only sharing differs.
        let b1 = h1.ref_field(a1, 1).unwrap();
        let c_shared = h1.ref_field(a1, 2).unwrap();
        h2.set_mark_word(a, h1.mark_word(a1));
        h2.set_mark_word(b, h1.mark_word(b1));
        h2.set_mark_word(c1, h1.mark_word(c_shared));
        h2.set_mark_word(c2, h1.mark_word(c_shared));
        h2.set_ref(a, 1, b);
        h2.set_ref(a, 2, c1);
        h2.set_ref(b, 1, c2);
        assert!(!isomorphic(&h1, &reg, a1, &h2, a));
    }

    #[test]
    fn isomorphic_detects_null_mismatch() {
        let (reg, node) = node_registry();
        let mut h1 = Heap::new(4096);
        let a = diamond(&mut h1, &reg, node);
        let mut h2 = h1.clone();
        let b = h1.ref_field(a, 1).unwrap();
        h2.set_ref(b, 1, Addr::NULL);
        assert!(!isomorphic(&h1, &reg, a, &h2, a));
    }

    #[test]
    fn isomorphic_ignores_ext_and_sync_state() {
        let (reg, node) = node_registry();
        let mut h1 = Heap::new(4096);
        let a = diamond(&mut h1, &reg, node);
        let mut h2 = h1.clone();
        h2.set_ext_word(a, crate::ext::ExtWord::new().with_counter(9));
        h2.set_mark_word(a, h1.mark_word(a).with_sync_state(3));
        assert!(isomorphic(&h1, &reg, a, &h2, a));
    }

    #[test]
    fn isomorphic_modulo_hash() {
        let (reg, node) = node_registry();
        let mut h1 = Heap::new(4096);
        let a = diamond(&mut h1, &reg, node);
        let mut h2 = h1.clone();
        h2.set_mark_word(a, crate::mark::MarkWord::new().with_identity_hash(1));
        assert!(!isomorphic(&h1, &reg, a, &h2, a));
        assert!(isomorphic_with(
            &h1,
            &reg,
            a,
            &h2,
            a,
            IsoOptions {
                check_identity_hash: false
            }
        ));
    }

    #[test]
    fn isomorphic_null_roots() {
        let (reg, node) = node_registry();
        let mut h1 = Heap::new(4096);
        let a = diamond(&mut h1, &reg, node);
        assert!(isomorphic(&h1, &reg, Addr::NULL, &h1, Addr::NULL));
        assert!(!isomorphic(&h1, &reg, a, &h1, Addr::NULL));
    }
}
