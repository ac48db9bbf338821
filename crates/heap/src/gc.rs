//! A semispace copying collector.
//!
//! Cereal's JVM extension leans on garbage collection twice (§V-E): the
//! per-object serialization metadata (counter, unit reservation) is
//! cleared "during the Java garbage collection", and a serialization
//! counter about to overflow can "force the garbage collection by
//! invoking System.gc()". This module provides that collector for the
//! `sdheap` substrate: a classic Cheney-style semispace copy that
//!
//! * evacuates every object reachable from the given roots into a fresh
//!   to-space (compacting the heap),
//! * rewrites all references (including root addresses),
//! * preserves mark words — identity hashes survive collection, exactly
//!   as HotSpot guarantees — and
//! * clears the Cereal extension word of every survivor, which is the
//!   §V-E metadata reset.

use crate::ext::ExtWord;
use crate::heap::{Heap, HeapError};
use crate::klass::KlassRegistry;
use crate::word::Addr;
use std::collections::HashMap;

/// Statistics of one collection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GcStats {
    /// Objects evacuated to to-space.
    pub live_objects: u64,
    /// Bytes evacuated.
    pub live_bytes: u64,
    /// Bytes reclaimed (from-space used minus live).
    pub reclaimed_bytes: u64,
}

impl GcStats {
    /// Simulated stop-the-world pause for this collection, in
    /// nanoseconds: a copying collector's cost is dominated by moving the
    /// survivors (~8 B/ns of copy bandwidth) plus a fixed per-object
    /// overhead for scanning and forwarding (~4 ns). A cost model, not a
    /// measurement — it lets timeline simulations (the shuffle service's
    /// GC-pressure mode) charge collections into simulated time on the
    /// same scale as the CPU and accelerator models.
    pub fn simulated_cost_ns(&self) -> f64 {
        self.live_bytes as f64 / 8.0 + self.live_objects as f64 * 4.0
    }
}

/// Collects `heap`, keeping everything reachable from `roots`. Returns
/// the new heap (same base and capacity), the relocated roots in input
/// order, and collection statistics.
///
/// # Errors
/// [`HeapError::OutOfMemory`] if the survivors do not fit the new space
/// (cannot happen when `roots` are drawn from `heap`, since live ≤ used).
///
/// # Panics
/// Panics if a root is not a valid object address.
pub fn collect(
    heap: &Heap,
    reg: &KlassRegistry,
    roots: &[Addr],
) -> Result<(Heap, Vec<Addr>, GcStats), HeapError> {
    let mut to_space = Heap::with_base(heap.base(), heap.capacity_bytes());
    // Forwarding table: from-space address → to-space address. (A real
    // collector stores forwarding pointers in headers; a side table keeps
    // from-space immutable so the caller's heap is untouched on error.)
    let mut forward: HashMap<Addr, Addr> = HashMap::new();
    let mut stats = GcStats::default();

    // Cheney queue: evacuate roots, then scan to-space linearly.
    let evacuate = |obj: Addr,
                    to_space: &mut Heap,
                    forward: &mut HashMap<Addr, Addr>,
                    stats: &mut GcStats|
     -> Result<Addr, HeapError> {
        if let Some(&new) = forward.get(&obj) {
            return Ok(new);
        }
        let words = heap.object_words(reg, obj);
        let new = to_space.alloc_raw(words)?;
        for w in 0..words {
            to_space.store(new.add_words(w as u64), heap.load(obj.add_words(w as u64)));
        }
        // §V-E: serialization metadata does not survive collection.
        to_space.set_ext_word(new, ExtWord::new());
        forward.insert(obj, new);
        stats.live_objects += 1;
        stats.live_bytes += words as u64 * 8;
        Ok(new)
    };

    let mut new_roots = Vec::with_capacity(roots.len());
    for &root in roots {
        if root.is_null() {
            new_roots.push(Addr::NULL);
            continue;
        }
        new_roots.push(evacuate(root, &mut to_space, &mut forward, &mut stats)?);
    }

    // Scan pointer: fix references of evacuated objects, evacuating their
    // targets on first touch.
    let mut scan = to_space.base();
    while scan.get() < to_space.top_addr().get() {
        // The object is fully copied; its klass pointer is valid. The
        // slots borrow only the klass, so the loop may evacuate.
        let view = to_space.object(reg, scan);
        let words = view.size_words();
        for w in reg.get(view.klass_id()).ref_slots(words) {
            let old = Addr(to_space.load(scan.add_words(w as u64)));
            if old.is_null() {
                continue;
            }
            let new = evacuate(old, &mut to_space, &mut forward, &mut stats)?;
            to_space.store(scan.add_words(w as u64), new.get());
        }
        scan = scan.add_words(words as u64);
    }

    to_space.note_reconstructed_objects(stats.live_objects);
    stats.reclaimed_bytes = heap.used_bytes().saturating_sub(stats.live_bytes);
    Ok((to_space, new_roots, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{GraphBuilder, Init};
    use crate::graph::{isomorphic, reachable, Reachable};
    use crate::klass::{FieldKind, ValueType};

    fn setup() -> (Heap, KlassRegistry, Addr, Addr) {
        let mut b = GraphBuilder::new(1 << 16);
        let k = b.klass(
            "N",
            vec![
                FieldKind::Value(ValueType::Long),
                FieldKind::Ref,
                FieldKind::Ref,
            ],
        );
        // Live graph: a -> (b, c), b -> (c, -) with a cycle c -> a.
        let c = b
            .object(k, &[Init::Val(3), Init::Null, Init::Null])
            .unwrap();
        let bb = b
            .object(k, &[Init::Val(2), Init::Ref(c), Init::Null])
            .unwrap();
        let a = b
            .object(k, &[Init::Val(1), Init::Ref(bb), Init::Ref(c)])
            .unwrap();
        b.link(c, 1, a);
        // Garbage: a detached chain.
        let g1 = b
            .object(k, &[Init::Val(100), Init::Null, Init::Null])
            .unwrap();
        let _g2 = b
            .object(k, &[Init::Val(101), Init::Ref(g1), Init::Null])
            .unwrap();
        let (heap, reg) = b.finish();
        (heap, reg, a, c)
    }

    #[test]
    fn collection_preserves_the_live_graph() {
        let (heap, reg, a, _) = setup();
        let (new_heap, roots, stats) = collect(&heap, &reg, &[a]).unwrap();
        assert_eq!(stats.live_objects, 3);
        assert!(isomorphic(&heap, &reg, a, &new_heap, roots[0]));
    }

    #[test]
    fn garbage_is_reclaimed() {
        let (heap, reg, a, _) = setup();
        let (new_heap, _, stats) = collect(&heap, &reg, &[a]).unwrap();
        assert_eq!(stats.reclaimed_bytes, 2 * 48, "two garbage objects");
        assert_eq!(new_heap.used_bytes(), 3 * 48);
        assert!(new_heap.used_bytes() < heap.used_bytes());
    }

    #[test]
    fn identity_hashes_survive_but_ext_words_do_not() {
        let (mut heap, reg, a, c) = setup();
        heap.set_ext_word(a, ExtWord::new().with_counter(9).with_reserving_unit(2));
        let hash = heap.mark_word(a).identity_hash();
        let (new_heap, roots, _) = collect(&heap, &reg, &[a, c]).unwrap();
        assert_eq!(new_heap.mark_word(roots[0]).identity_hash(), hash);
        assert_eq!(new_heap.ext_word(roots[0]), ExtWord::new());
    }

    #[test]
    fn multiple_roots_share_one_copy() {
        let (heap, reg, a, c) = setup();
        let (new_heap, roots, stats) = collect(&heap, &reg, &[a, c]).unwrap();
        assert_eq!(stats.live_objects, 3, "c reachable from a: no duplicate");
        // The c reachable through a must be the same object as root c.
        let c_via_a = new_heap.ref_field(roots[0], 2).unwrap();
        assert_eq!(c_via_a, roots[1]);
    }

    #[test]
    fn null_roots_pass_through() {
        let (heap, reg, a, _) = setup();
        let (_, roots, _) = collect(&heap, &reg, &[Addr::NULL, a]).unwrap();
        assert!(roots[0].is_null());
        assert!(!roots[1].is_null());
    }

    #[test]
    fn collection_compacts_allocation_order() {
        let (heap, reg, a, _) = setup();
        let (new_heap, roots, _) = collect(&heap, &reg, &[a]).unwrap();
        // Survivors sit contiguously from the base (Cheney order: BFS).
        let all = reachable(&new_heap, &reg, roots[0], Reachable::BreadthFirst);
        assert_eq!(all[0], new_heap.base());
        let total: usize = all
            .iter()
            .map(|&o| new_heap.object_words(&reg, o) * 8)
            .sum();
        assert_eq!(total as u64, new_heap.used_bytes());
    }

    #[test]
    fn arrays_survive_collection() {
        let mut b = GraphBuilder::new(1 << 16);
        let arr = b.array_klass("Object[]", FieldKind::Ref);
        let darr = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
        let data = b.value_array(darr, &[7, 8, 9]).unwrap();
        let root = b.ref_array(arr, &[data, Addr::NULL, data]).unwrap();
        let (heap, reg) = b.finish();
        let (new_heap, roots, stats) = collect(&heap, &reg, &[root]).unwrap();
        assert_eq!(stats.live_objects, 2);
        assert!(isomorphic(&heap, &reg, root, &new_heap, roots[0]));
    }
}
