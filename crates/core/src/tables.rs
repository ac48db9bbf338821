//! The accelerator's class-translation tables (paper §V-B, §V-C, §V-E).
//!
//! * **Klass Pointer Table** — a CAM (4 KB) used during serialization by
//!   the object handler to translate a klass *address* found in an object
//!   header into the compact class ID stored in the value array.
//! * **Class ID Table** — an SRAM (2 KB) used during deserialization by
//!   the block reconstructors to translate a class ID back into a klass
//!   address.
//!
//! Both are populated by the `RegisterClass` software call and are capped
//! at 4 K entries — "more than enough to run various real-world
//! applications" (§V-E) — and registration fails beyond that, which is
//! the hardware limitation the paper discusses.

use sdheap::{Addr, KlassId, KlassRegistry, HEADER_WORDS};
use serializers::SerError;
use std::collections::HashMap;

/// The paired translation tables.
#[derive(Clone, Debug)]
pub struct ClassTables {
    /// klass address → class ID (serialization direction, the CAM).
    by_addr: HashMap<u64, u32>,
    /// class ID → klass address (deserialization direction, the SRAM),
    /// with the class's record layout for checking untrusted streams.
    by_id: HashMap<u32, (u64, Shape)>,
    capacity: usize,
}

/// The layout bitmap a record of one class must carry.
#[derive(Clone, Debug)]
enum Shape {
    /// An instance: one bit per word, set for reference slots.
    Instance(Vec<bool>),
    /// An array: whether its elements are references.
    Array(bool),
}

impl ClassTables {
    /// Empty tables with the given entry capacity.
    pub fn new(capacity: usize) -> Self {
        ClassTables {
            by_addr: HashMap::new(),
            by_id: HashMap::new(),
            capacity,
        }
    }

    /// Registers a class (the `RegisterClass(Class Type)` call). Idempotent
    /// for already-registered classes.
    ///
    /// # Errors
    /// [`SerError::Unsupported`] once the hardware table is full.
    pub fn register(&mut self, reg: &KlassRegistry, id: KlassId) -> Result<(), SerError> {
        let addr = reg.meta_addr(id).get();
        if self.by_addr.contains_key(&addr) {
            return Ok(());
        }
        if self.by_addr.len() >= self.capacity {
            return Err(SerError::Unsupported(
                "Klass Pointer Table full: too many serializable class types",
            ));
        }
        let k = reg.get(id);
        let shape = match k.array_elem() {
            Some(elem) => Shape::Array(elem.is_ref()),
            None => {
                let mut bits = vec![false; k.instance_words()];
                for &w in k.ref_offsets() {
                    bits[w] = true;
                }
                Shape::Instance(bits)
            }
        };
        self.by_addr.insert(addr, id.get());
        self.by_id.insert(id.get(), (addr, shape));
        Ok(())
    }

    /// Registers every class in the registry (the common setup path).
    ///
    /// # Errors
    /// [`SerError::Unsupported`] once the hardware table is full.
    pub fn register_all(&mut self, reg: &KlassRegistry) -> Result<(), SerError> {
        for (id, _) in reg.iter() {
            self.register(reg, id)?;
        }
        Ok(())
    }

    /// CAM lookup: klass address → class ID (serialization).
    ///
    /// # Errors
    /// [`SerError::UnknownClass`] if the class was never registered.
    pub fn id_of(&self, klass_addr: Addr) -> Result<u32, SerError> {
        self.by_addr
            .get(&klass_addr.get())
            .copied()
            .ok_or(SerError::Unsupported(
                "klass address not registered with the accelerator",
            ))
    }

    /// SRAM lookup: class ID → klass address (deserialization).
    ///
    /// # Errors
    /// [`SerError::UnknownClassId`] for unregistered IDs.
    pub fn addr_of(&self, class_id: u32) -> Result<Addr, SerError> {
        self.by_id
            .get(&class_id)
            .map(|&(a, _)| Addr(a))
            .ok_or(SerError::UnknownClassId(class_id))
    }

    /// `true` if a record with layout bitmap `bits` can be an object of
    /// class `class_id`. `array_len` is the record's word past the
    /// header, if it has one: an array's declared length.
    pub(crate) fn fits(&self, class_id: u32, bits: &[bool], array_len: Option<u64>) -> bool {
        match self.by_id.get(&class_id) {
            Some((_, Shape::Instance(layout))) => bits == &layout[..],
            Some(&(_, Shape::Array(refs))) => {
                match (array_len, bits.split_at_checked(HEADER_WORDS + 1)) {
                    (Some(len), Some((head, elems))) => {
                        len == elems.len() as u64
                            && !head.contains(&true)
                            && elems.iter().all(|&b| b == refs)
                    }
                    _ => false,
                }
            }
            None => false,
        }
    }

    /// Registered entry count.
    pub fn len(&self) -> usize {
        self.by_addr.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.by_addr.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdheap::Klass;

    fn registry(n: usize) -> KlassRegistry {
        let mut reg = KlassRegistry::new();
        for i in 0..n {
            reg.register(Klass::new(format!("K{i}"), vec![]));
        }
        reg
    }

    #[test]
    fn roundtrip_translation() {
        let reg = registry(3);
        let mut t = ClassTables::new(16);
        t.register_all(&reg).unwrap();
        for (id, _) in reg.iter() {
            let addr = reg.meta_addr(id);
            assert_eq!(t.id_of(addr).unwrap(), id.get());
            assert_eq!(t.addr_of(id.get()).unwrap(), addr);
        }
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn registration_is_idempotent() {
        let reg = registry(1);
        let mut t = ClassTables::new(16);
        t.register(&reg, KlassId(0)).unwrap();
        t.register(&reg, KlassId(0)).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn capacity_enforced() {
        let reg = registry(5);
        let mut t = ClassTables::new(4);
        let err = t.register_all(&reg).unwrap_err();
        assert!(matches!(err, SerError::Unsupported(_)));
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn unregistered_lookups_fail() {
        let t = ClassTables::new(4);
        assert!(t.id_of(Addr(0x1234)).is_err());
        assert!(matches!(t.addr_of(7), Err(SerError::UnknownClassId(7))));
        assert!(t.is_empty());
    }
}
