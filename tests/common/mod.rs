//! Helpers shared by the integration tests: an FNV-1a-64 digest, a
//! graph walk that does not trust the heap it walks, and the serializer
//! fixture corpus ([`corpus`]).

// Each test crate uses a subset of these helpers.
#![allow(dead_code)]

pub mod corpus;

use cereal_repro::heap::{Addr, Heap, KlassRegistry, HEADER_WORDS, KLASS_OFFSET};
use std::collections::{HashMap, HashSet};

/// Streaming FNV-1a-64.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.eat(bytes);
        h.0
    }
}

/// Address-free digest of the graph reachable from `root`: depth-first
/// (the order of `sdheap::reachable`), each object's klass id, array
/// length, primitive words, and references as the depth-first index of
/// their target (+1; 0 is null).
///
/// The walk checks what a decoder handed back before reading it: every
/// object must lie word-aligned inside the heap's allocated region and
/// carry a registered klass pointer, and an array's length is bounded by
/// that region before its elements are read. `Err` names the first
/// object that fails, so a decoder's `Ok` over an unwalkable heap is an
/// ordinary test failure rather than a panic or an abort.
pub fn graph_digest(heap: &Heap, reg: &KlassRegistry, root: Addr) -> Result<u64, String> {
    let end = heap.top_addr().get();
    // Checks that a whole object of a registered klass lies at `addr`.
    let check_object = |addr: Addr| -> Result<(), String> {
        let room = |words: u64| {
            addr.is_word_aligned() && heap.contains(addr) && (end - addr.get()) / 8 >= words
        };
        if !room(HEADER_WORDS as u64) {
            return Err(format!("no object at {addr}"));
        }
        let klass = Addr(heap.load(addr.add_words(KLASS_OFFSET as u64)));
        let id = reg
            .id_of_meta_addr(klass)
            .ok_or_else(|| format!("bad klass pointer {klass} at {addr}"))?;
        let k = reg.get(id);
        let words = if k.is_array() {
            if !room(HEADER_WORDS as u64 + 1) {
                return Err(format!("array header past the heap at {addr}"));
            }
            (HEADER_WORDS + 1) as u64 + heap.array_len(addr) as u64
        } else {
            k.instance_words() as u64
        };
        if !room(words) {
            return Err(format!("object past the heap at {addr}"));
        }
        Ok(())
    };

    // Preorder with an explicit stack, children pushed in reverse field
    // order and the visited check at pop time, as `sdheap::reachable`.
    let mut order = Vec::new();
    let mut seen = HashSet::new();
    let mut stack = if root.is_null() {
        Vec::new()
    } else {
        vec![root]
    };
    while let Some(addr) = stack.pop() {
        if !seen.insert(addr) {
            continue;
        }
        check_object(addr)?;
        order.push(addr);
        let refs = heap.object(reg, addr).references();
        stack.extend(refs.iter().rev().filter(|r| !r.is_null()));
    }

    let index: HashMap<u64, u64> = order
        .iter()
        .enumerate()
        .map(|(i, a)| (a.get(), i as u64 + 1))
        .collect();
    let slot = |word: u64, is_ref: bool| {
        if is_ref {
            index.get(&word).copied().unwrap_or(0)
        } else {
            word
        }
    };
    let mut h = Fnv::new();
    for &addr in &order {
        let id = heap.klass_of(reg, addr);
        h.eat(&id.get().to_le_bytes());
        let k = reg.get(id);
        match k.array_elem() {
            Some(elem) => {
                let len = heap.array_len(addr);
                h.eat(&(len as u64).to_le_bytes());
                for i in 0..len {
                    h.eat(&slot(heap.array_elem(addr, i), elem.is_ref()).to_le_bytes());
                }
            }
            None => {
                for (i, f) in k.fields().iter().enumerate() {
                    h.eat(&slot(heap.field(addr, i), f.kind.is_ref()).to_le_bytes());
                }
            }
        }
    }
    Ok(h.0)
}
