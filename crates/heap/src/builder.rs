//! Ergonomic object-graph construction.
//!
//! [`GraphBuilder`] owns a heap and a klass registry and offers one-call
//! object construction, so tests and workload generators can build graphs
//! without spelling out header bookkeeping.
//!
//! ```
//! use sdheap::{GraphBuilder, FieldKind, ValueType};
//! use sdheap::builder::Init;
//!
//! let mut b = GraphBuilder::new(1 << 16);
//! let node = b.klass("Node", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
//! let leaf = b.object(node, &[Init::Val(7), Init::Null]).unwrap();
//! let root = b.object(node, &[Init::Val(1), Init::Ref(leaf)]).unwrap();
//! let (heap, reg) = b.finish();
//! assert_eq!(heap.ref_field(root, 1), Some(leaf));
//! assert_eq!(reg.get(heap.klass_of(&reg, root)).name(), "Node");
//! ```

use crate::heap::{Heap, HeapError};
use crate::klass::{FieldKind, Klass, KlassId, KlassRegistry};
use crate::word::Addr;

/// Initial value for one field slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Init {
    /// Primitive value.
    Val(u64),
    /// Reference to an existing object.
    Ref(Addr),
    /// Null reference (or zero value).
    Null,
}

impl Init {
    fn word(self) -> u64 {
        match self {
            Init::Val(v) => v,
            Init::Ref(a) => a.get(),
            Init::Null => 0,
        }
    }
}

/// Builder owning a heap and registry.
#[derive(Debug)]
pub struct GraphBuilder {
    heap: Heap,
    reg: KlassRegistry,
}

impl GraphBuilder {
    /// A builder with a fresh heap of `capacity_bytes` and an empty
    /// registry.
    pub fn new(capacity_bytes: u64) -> Self {
        GraphBuilder {
            heap: Heap::new(capacity_bytes),
            reg: KlassRegistry::new(),
        }
    }

    /// Registers (or re-uses) an instance klass.
    pub fn klass(&mut self, name: impl Into<String>, kinds: Vec<FieldKind>) -> KlassId {
        self.reg.register(Klass::new(name, kinds))
    }

    /// Registers (or re-uses) an array klass.
    pub fn array_klass(&mut self, name: impl Into<String>, elem: FieldKind) -> KlassId {
        self.reg.register(Klass::array(name, elem))
    }

    /// Allocates an instance and initializes all fields.
    ///
    /// # Errors
    /// Propagates [`HeapError::OutOfMemory`].
    ///
    /// # Panics
    /// Panics if the number of initializers does not match the klass.
    pub fn object(&mut self, klass: KlassId, inits: &[Init]) -> Result<Addr, HeapError> {
        let nfields = self.reg.get(klass).num_fields();
        assert_eq!(
            inits.len(),
            nfields,
            "klass {} has {nfields} fields, got {} initializers",
            self.reg.get(klass).name(),
            inits.len()
        );
        let addr = self.heap.alloc(&self.reg, klass)?;
        for (i, init) in inits.iter().enumerate() {
            self.heap.set_field(addr, i, init.word());
        }
        Ok(addr)
    }

    /// Allocates a primitive array initialized from `values`.
    ///
    /// # Errors
    /// Propagates [`HeapError::OutOfMemory`].
    pub fn value_array(&mut self, klass: KlassId, values: &[u64]) -> Result<Addr, HeapError> {
        let addr = self.heap.alloc_array(&self.reg, klass, values.len())?;
        for (i, v) in values.iter().enumerate() {
            self.heap.set_array_elem(addr, i, *v);
        }
        Ok(addr)
    }

    /// Allocates a reference array initialized from `targets`.
    ///
    /// # Errors
    /// Propagates [`HeapError::OutOfMemory`].
    pub fn ref_array(&mut self, klass: KlassId, targets: &[Addr]) -> Result<Addr, HeapError> {
        let addr = self.heap.alloc_array(&self.reg, klass, targets.len())?;
        for (i, t) in targets.iter().enumerate() {
            self.heap.set_array_elem(addr, i, t.get());
        }
        Ok(addr)
    }

    /// Sets a reference field after construction (for cycles and
    /// back-edges).
    pub fn link(&mut self, from: Addr, field: usize, to: Addr) {
        self.heap.set_ref(from, field, to);
    }

    /// Sets a reference-array element after construction.
    pub fn set_array_ref(&mut self, arr: Addr, idx: usize, target: Addr) {
        self.heap.set_array_elem(arr, idx, target.get());
    }

    /// Read access to the heap under construction.
    pub fn heap(&self) -> &Heap {
        &self.heap
    }

    /// Read access to the registry under construction.
    pub fn registry(&self) -> &KlassRegistry {
        &self.reg
    }

    /// Consumes the builder, returning the finished heap and registry.
    pub fn finish(self) -> (Heap, KlassRegistry) {
        (self.heap, self.reg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{reachable, Reachable};
    use crate::klass::ValueType;

    #[test]
    fn builds_linked_list() {
        let mut b = GraphBuilder::new(1 << 16);
        let node = b.klass(
            "ListNode",
            vec![FieldKind::Value(ValueType::Long), FieldKind::Ref],
        );
        let mut next = Init::Null;
        let mut head = Addr::NULL;
        for i in (0..10u64).rev() {
            head = b.object(node, &[Init::Val(i), next]).unwrap();
            next = Init::Ref(head);
        }
        let (heap, reg) = b.finish();
        let all = reachable(&heap, &reg, head, Reachable::DepthFirst);
        assert_eq!(all.len(), 10);
        assert_eq!(heap.field(head, 0), 0);
    }

    #[test]
    fn builds_arrays() {
        let mut b = GraphBuilder::new(1 << 16);
        let longs = b.array_klass("long[]", FieldKind::Value(ValueType::Long));
        let objs = b.array_klass("Object[]", FieldKind::Ref);
        let data = b.value_array(longs, &[1, 2, 3]).unwrap();
        let arr = b.ref_array(objs, &[data, Addr::NULL, data]).unwrap();
        let (heap, reg) = b.finish();
        assert_eq!(heap.array_len(arr), 3);
        assert_eq!(heap.array_elem(arr, 0), data.get());
        let all = reachable(&heap, &reg, arr, Reachable::BreadthFirst);
        assert_eq!(all.len(), 2, "data array shared, null skipped");
    }

    #[test]
    fn link_creates_cycles() {
        let mut b = GraphBuilder::new(1 << 16);
        let node = b.klass("N", vec![FieldKind::Ref]);
        let a = b.object(node, &[Init::Null]).unwrap();
        let c = b.object(node, &[Init::Ref(a)]).unwrap();
        b.link(a, 0, c);
        let (heap, reg) = b.finish();
        assert_eq!(reachable(&heap, &reg, a, Reachable::DepthFirst).len(), 2);
    }

    #[test]
    #[should_panic(expected = "initializers")]
    fn wrong_arity_panics() {
        let mut b = GraphBuilder::new(1 << 16);
        let node = b.klass("N", vec![FieldKind::Ref]);
        let _ = b.object(node, &[]);
    }
}
