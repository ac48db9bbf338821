//! `sdheap` — a HotSpot-like managed heap substrate.
//!
//! The Cereal paper (ISCA 2020) accelerates serialization of *Java objects
//! as laid out by the HotSpot JVM*. This crate reproduces that memory layout
//! so the serializers and the accelerator model in the sibling crates
//! generate the same address streams the paper describes:
//!
//! * every object starts with a 16 B header — an 8 B **mark word**
//!   (31-bit identity hash, 3-bit synchronization state, 6-bit GC state)
//!   followed by an 8 B **klass pointer** to the type descriptor;
//! * Cereal's JVM extension (paper §V-E) adds one more 8 B **extension
//!   word** per serializable object holding the visited-tracking counter,
//!   the reserving unit ID, and the recorded relative address;
//! * all fields are 8 B aligned and 8 B wide (one *word* each), either a
//!   primitive value or a reference (absolute byte address; 0 is null);
//! * type descriptors (klasses) live in a dedicated metadata region of the
//!   same address space, so fetching an object's layout is a real memory
//!   access with a real address, exactly what the accelerator's object
//!   metadata manager must pay for.
//!
//! # Example
//!
//! ```
//! use sdheap::{Heap, KlassRegistry, Klass, FieldKind, ValueType};
//!
//! let mut reg = KlassRegistry::new();
//! let pair = reg.register(Klass::new("Pair", vec![
//!     FieldKind::Value(ValueType::Long),
//!     FieldKind::Ref,
//! ]));
//! let mut heap = Heap::new(1 << 20);
//! let inner = heap.alloc(&reg, pair).unwrap();
//! let outer = heap.alloc(&reg, pair).unwrap();
//! heap.set_field(outer, 0, 42);
//! heap.set_ref(outer, 1, inner);
//! assert_eq!(heap.field(outer, 0), 42);
//! assert_eq!(heap.ref_field(outer, 1), Some(inner));
//! ```

pub mod builder;
pub mod ext;
pub mod gc;
pub mod graph;
pub mod heap;
pub mod klass;
pub mod mark;
pub mod object;
pub mod rng;
pub mod word;

pub use builder::GraphBuilder;
pub use ext::ExtWord;
pub use gc::{collect, GcStats};
pub use graph::{isomorphic, isomorphic_with, reachable, GraphStats, IsoOptions, Reachable};
pub use heap::{Heap, HeapError};
pub use klass::{FieldKind, Klass, KlassId, KlassRegistry, ValueType};
pub use mark::MarkWord;
pub use object::{ObjectView, EXT_OFFSET, HEADER_WORDS, KLASS_OFFSET, MARK_OFFSET};
pub use word::{Addr, WORD_BYTES};
