//! `serializers` — functional, trace-instrumented software serializer
//! baselines over the `sdheap` object model.
//!
//! The Cereal paper compares against three software serializers, all
//! re-implemented here from their descriptions in §II:
//!
//! | Baseline | Type metadata | Field access | Stream body |
//! |---|---|---|---|
//! | [`JavaSd`] | class/field **name strings** | `java.lang.reflect` model | per-field, big-endian |
//! | [`Kryo`] | registered integer **class IDs** | generated accessors | varints + fixed widths |
//! | [`Skyway`] | automatic integer type IDs | none — raw copy | relocatable image, 8 B header |
//! | [`JsonLike`] | class/field names **as text** | text formatting/parsing | human-readable JSON |
//! | [`ProtoLike`] | schema tags (codegen) | inlined generated code | zigzag varints |
//! | [`Archive`] | integer klass tags | none — validate in place | relocatable image, 16 B header, zero-copy reads |
//!
//! Java S/D, Kryo and ProtoLike are dialects of one plan runner; Skyway
//! and Archive are dialects of one relocatable-image codec (the same
//! record image behind different headers and narration). Every backend
//! narrates through [`OpBuf`].
//!
//! Every backend here (and Cereal's functional model in the `cereal`
//! crate) implements the common [`Serializer`] trait, really produces and
//! parses bytes (every graph round-trips through
//! [`sdheap::isomorphic_with`]), and narrates the work a CPU would perform
//! into a [`TraceSink`] that the `sim` crate turns into cycles, cache
//! misses and DRAM bandwidth.
//!
//! # Example
//!
//! ```
//! use sdheap::{GraphBuilder, FieldKind, ValueType, Heap, Addr};
//! use sdheap::builder::Init;
//! use serializers::{Kryo, Serializer, NullSink};
//!
//! let mut b = GraphBuilder::new(1 << 16);
//! let k = b.klass("Pair", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
//! let inner = b.object(k, &[Init::Val(2), Init::Null])?;
//! let outer = b.object(k, &[Init::Val(1), Init::Ref(inner)])?;
//! let (mut heap, reg) = b.finish();
//!
//! let kryo = Kryo::new();
//! let mut sink = NullSink;
//! let bytes = kryo.serialize(&mut heap, &reg, outer, &mut sink)?;
//! let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 16);
//! let root = kryo.deserialize(&bytes, &reg, &mut dst, &mut sink)?;
//! assert_eq!(dst.field(root, 0), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod api;
pub mod archive;
mod image;
pub mod javasd;
pub mod jsonlike;
pub mod kryo;
pub mod plan;
pub mod protolike;
mod runner;
pub mod skyway;
pub mod trace;

pub use api::{SerError, Serializer};
pub use archive::{fold_words_heap, Archive, ArchiveError, ArchiveView};
pub use image::RecordStarts;
pub use javasd::JavaSd;
pub use jsonlike::JsonLike;
pub use kryo::Kryo;
pub use plan::{Plan, PlanCache};
pub use protolike::ProtoLike;
pub use skyway::Skyway;
pub use trace::{CountingSink, NullSink, Op, OpBuf, TraceSink, IN_STREAM_BASE, OUT_STREAM_BASE};
