//! `cereal` — the paper's primary contribution: a specialized
//! architecture for object serialization (Jang et al., ISCA 2020),
//! reproduced as a functional + cycle-level-timing model.
//!
//! The crate provides:
//!
//! * [`functional`] — the format/hardware co-designed serialization and
//!   deserialization data paths (paper §IV, §V-B, §V-C), producing real
//!   bytes that round-trip through `sdheap` graphs;
//! * [`su`] / [`du`] — timing models of the Serialization Unit (header
//!   manager, object metadata manager, object handler, reference array
//!   writer; Fig. 7) and Deserialization Unit (layout manager, block
//!   manager, block reconstructors; Fig. 8) over the shared `sim`
//!   memory system;
//! * [`accel`] — the top level of Fig. 6: command queue, request
//!   scheduler, 8 SU + 8 DU with operation-level parallelism;
//! * [`iface`] — the paper's software interface (`Initialize`,
//!   `RegisterClass`, `WriteObject`, `ReadObject`) plus a
//!   [`serializers::Serializer`] adapter;
//! * [`tables`] — the Klass Pointer Table (CAM) and Class ID Table
//!   (SRAM) with their 4 K-class hardware limit (§V-E);
//! * [`energy`] — Table V's area/power inventory and the Fig. 17 energy
//!   accounting;
//! * [`config`] — Table I parameters and the "Cereal Vanilla" ablation.
//!
//! # Example
//!
//! ```
//! use sdheap::{GraphBuilder, FieldKind, ValueType, Heap, Addr};
//! use sdheap::builder::Init;
//! use cereal::Accelerator;
//!
//! let mut b = GraphBuilder::new(1 << 16);
//! let k = b.klass("Pair", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
//! let inner = b.object(k, &[Init::Val(2), Init::Null])?;
//! let outer = b.object(k, &[Init::Val(1), Init::Ref(inner)])?;
//! let (mut heap, reg) = b.finish();
//!
//! let mut accel = Accelerator::paper();
//! accel.register_all(&reg)?;
//! let ser = accel.serialize(&mut heap, &reg, outer)?;
//! let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 16);
//! let de = accel.deserialize(&ser.bytes, &mut dst)?;
//! assert_eq!(dst.field(de.root, 0), 1);
//! println!("serialized in {:.1} ns on SU{}", ser.run.busy_ns(), ser.unit);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod accel;
pub mod config;
pub mod du;
pub mod energy;
pub mod functional;
pub mod iface;
pub mod su;
pub mod tables;

pub use accel::{AccelReport, Accelerator, DeResult, SerMeta, SerResult};
pub use config::CerealConfig;
pub use du::DeserializationUnit;
pub use iface::{
    initialize, read_object, write_object, CerealSerializer, ObjectInputStream, ObjectOutputStream,
};
pub use su::{SerializationUnit, UnitRun};
pub use tables::ClassTables;
