//! Reference-heavy graph analytics: where Cereal's object packing shines.
//!
//! Builds the paper's Graph microbenchmark (Fig. 9c), serializes it with
//! every serializer, and shows how the packed reference array keeps the
//! stream compact while the accelerator's block-parallel deserialization
//! keeps reconstruction bandwidth-bound.
//!
//! ```sh
//! cargo run --release --example graph_analytics
//! ```

use cereal_repro::accel::Accelerator;
use cereal_repro::baselines::{JavaSd, Kryo, NullSink, Serializer, Skyway};
use cereal_repro::bench_workloads::{MicroBench, Scale};
use cereal_repro::heap::{Addr, GraphStats, Heap};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (mut heap, reg, root) = MicroBench::GraphDense.build(Scale::Tiny);
    let stats = GraphStats::measure(&heap, &reg, root);
    println!(
        "dense random graph: {} objects, {} live references, {} KB in heap\n",
        stats.objects,
        stats.live_refs,
        stats.total_bytes >> 10
    );

    println!(
        "{:<10} {:>10} {:>14}",
        "serializer", "bytes", "bytes/reference"
    );
    for ser in [
        &JavaSd::new() as &dyn Serializer,
        &Kryo::new(),
        &Skyway::new(),
    ] {
        let bytes = ser.serialize(&mut heap, &reg, root, &mut NullSink)?;
        println!(
            "{:<10} {:>10} {:>14.2}",
            ser.name(),
            bytes.len(),
            bytes.len() as f64 / stats.live_refs as f64
        );
    }

    let mut accel = Accelerator::paper();
    accel.register_all(&reg)?;
    let ser = accel.serialize(&mut heap, &reg, root)?;
    println!(
        "{:<10} {:>10} {:>14.2}",
        "Cereal",
        ser.bytes.len(),
        ser.bytes.len() as f64 / stats.live_refs as f64
    );

    // Decompose the Cereal stream: the packed reference array is the
    // interesting part on this workload.
    let stream = sdformat::CerealStream::from_bytes(&ser.bytes)?;
    println!(
        "\nCereal stream sections: value array {} B, packed references {} B \
         ({} refs, {:.2} B/ref), packed bitmaps {} B",
        stream.value_array.len(),
        stream.refs.total_bytes(),
        stream.refs.count,
        stream.refs.total_bytes() as f64 / stream.refs.count as f64,
        stream.bitmaps.total_bytes(),
    );
    println!(
        "unpacked baseline format (§IV-A) would be {} B → packing saves {:.1}%",
        stream.baseline_wire_bytes(),
        (1.0 - stream.wire_bytes() as f64 / stream.baseline_wire_bytes() as f64) * 100.0,
    );

    // Round-trip and verify.
    let mut dst = Heap::with_base(Addr(0x2_0000_0000), heap.capacity_bytes());
    let de = accel.deserialize(&ser.bytes, &mut dst)?;
    assert!(sdheap::isomorphic(&heap, &reg, root, &dst, de.root));
    println!("\nround trip verified: every edge, shared node and identity hash intact");
    Ok(())
}
