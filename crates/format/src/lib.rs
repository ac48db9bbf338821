//! `sdformat` — the Cereal serialization format (paper §IV).
//!
//! Cereal co-designs the byte format with the accelerator so that values,
//! references and object layouts can be processed independently and in
//! parallel. A serialized stream consists of three decoupled structures
//! plus the total deserialized size:
//!
//! * a **value array** — every non-reference word of every object
//!   (headers included, klass pointers translated to class IDs), written
//!   in serialization order;
//! * a **packed reference array** — the relative address of every
//!   reference slot's target, compressed with the object packing scheme;
//! * **packed layout bitmaps** — per object, one bit per 8 B word
//!   (1 = reference slot), compressed with the same packing scheme;
//! * the **object graph size** — the byte size of the reconstructed image.
//!
//! The *object packing scheme* (§IV-B) drops leading zeros from each item,
//! appends an end bit, pads to 1 B buckets, and maintains an **end map**
//! (one bit per byte, set on each item's final byte) so the deserializer
//! can split items without per-item length fields.
//!
//! This crate owns the bit-exact encoding: [`bitio`] (bit streams),
//! [`pack`] (the packing scheme), [`layout`] (bitmap construction),
//! [`varint`] (LEB128, used by the Kryo baseline), [`stream`] (the
//! whole-stream container and its wire encoding) and [`frame`] (the
//! optional CRC-32 footer that gives every backend corruption detection
//! on hostile wires and disks). Turning an object graph into a stream
//! is the accelerator's job and lives in the `cereal` crate.

pub mod bitio;
pub mod frame;
pub mod layout;
pub mod pack;
pub mod stream;
pub mod varint;

pub use bitio::{BitReader, BitWriter};
pub use frame::{crc32, crc_ns, seal, seal_into, verify, FrameError, FOOTER_BYTES, FRAME_MAGIC};
pub use layout::LayoutCounts;
pub use pack::{EndMap, Packed, Packer, Unpacker};
pub use stream::{CerealStream, FormatError, StreamHeader};
pub use varint::{read_varint, write_varint};
