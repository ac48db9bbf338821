//! Pack/stream round trips on the scaled-down micro workloads: the
//! accelerator's serialized bytes must parse back into a `CerealStream`
//! that re-encodes to identical wire bytes, and the packing kernel must
//! round-trip workload-derived integer sequences. Guards the wire format
//! across hot-path rewrites of the bit I/O and pack layers.

use cereal::{Accelerator, CerealConfig};
use sdformat::{CerealStream, Packed};
use sdheap::{Addr, Heap};
use store::DST_BASE;
use workloads::{MicroBench, Scale};

fn serialize_tiny(mb: MicroBench) -> (Vec<u8>, u64) {
    let (mut heap, reg, root) = mb.build(Scale::Tiny);
    let mut accel = Accelerator::new(CerealConfig::paper());
    accel.register_all(&reg).expect("register classes");
    heap.gc_clear_serialization_metadata(&reg);
    let bytes = accel
        .serialize(&mut heap, &reg, root)
        .expect("serialize")
        .bytes;
    // Reconstruction must still work on the same accelerator's tables.
    let mut dst = Heap::with_base(Addr(DST_BASE), heap.capacity_bytes());
    accel.deserialize(&bytes, &mut dst).expect("deserialize");
    (bytes, heap.capacity_bytes())
}

#[test]
fn micro_streams_roundtrip_on_the_wire() {
    for mb in MicroBench::all() {
        let (bytes, _) = serialize_tiny(mb);
        let stream = CerealStream::from_bytes(&bytes).expect("parse stream");
        let mut rebytes = Vec::new();
        stream.to_bytes_into(&mut rebytes);
        assert_eq!(bytes, rebytes, "{}: wire round trip", mb.name());
        assert_eq!(stream.to_bytes(), rebytes, "{}: to_bytes agrees", mb.name());
    }
}

#[test]
fn workload_values_pack_roundtrip() {
    for mb in MicroBench::all() {
        let (bytes, _) = serialize_tiny(mb);
        let stream = CerealStream::from_bytes(&bytes).expect("parse stream");
        // The value section of a real workload stream, re-packed through
        // the integer path, must survive a pack → unpack round trip.
        let vals = stream.value_words();
        let packed = Packed::from_values(vals.iter().copied());
        assert_eq!(packed.count, vals.len(), "{}", mb.name());
        assert_eq!(packed.to_values(), vals, "{}: value round trip", mb.name());
    }
}
