//! Quickstart: build an object graph, serialize it with the Cereal
//! accelerator, reconstruct it, and compare against the software
//! baselines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cereal_repro::accel::Accelerator;
use cereal_repro::baselines::{JavaSd, Kryo, NullSink, Serializer, Skyway};
use cereal_repro::heap::builder::Init;
use cereal_repro::heap::{isomorphic, Addr, FieldKind, GraphBuilder, Heap, ValueType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a small object graph on the HotSpot-like heap: a ring of
    //    sensor records sharing one calibration table.
    let mut b = GraphBuilder::new(1 << 20);
    let table_k = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
    let record_k = b.klass(
        "SensorRecord",
        vec![
            FieldKind::Value(ValueType::Long),   // timestamp
            FieldKind::Value(ValueType::Double), // reading
            FieldKind::Ref,                      // calibration (shared)
            FieldKind::Ref,                      // next record (ring)
        ],
    );
    let calibration = b.value_array(table_k, &[1.0f64, 0.5, -0.25].map(f64::to_bits))?;
    let mut records = Vec::new();
    for i in 0..5u64 {
        let r = b.object(
            record_k,
            &[
                Init::Val(1_700_000_000 + i),
                Init::Val(f64::to_bits(20.0 + i as f64 * 0.1)),
                Init::Ref(calibration),
                Init::Null,
            ],
        )?;
        records.push(r);
    }
    for i in 0..records.len() {
        b.link(records[i], 3, records[(i + 1) % records.len()]); // close the ring
    }
    let root = records[0];
    let (mut heap, reg) = b.finish();

    // 2. Serialize with the Cereal accelerator (Initialize + RegisterClass
    //    + WriteObject from the paper's §V-A interface).
    let mut accel = Accelerator::paper();
    accel.register_all(&reg)?;
    let ser = accel.serialize(&mut heap, &reg, root)?;
    println!(
        "Cereal serialized {} objects into {} bytes in {:.0} ns on SU{}",
        sdheap::reachable(&heap, &reg, root, sdheap::Reachable::BreadthFirst).len(),
        ser.bytes.len(),
        ser.run.busy_ns(),
        ser.unit,
    );

    // 3. Reconstruct into a fresh heap and verify isomorphism — sharing,
    //    the cycle, and even identity hashes survive.
    let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 20);
    let de = accel.deserialize(&ser.bytes, &mut dst)?;
    assert!(isomorphic(&heap, &reg, root, &dst, de.root));
    println!(
        "reconstructed at {} in {:.0} ns on DU{}; graphs are isomorphic",
        de.root,
        de.run.busy_ns(),
        de.unit
    );

    // 4. Compare stream sizes with the software baselines.
    for ser in [
        &JavaSd::new() as &dyn Serializer,
        &Kryo::new(),
        &Skyway::new(),
    ] {
        let bytes = ser.serialize(&mut heap, &reg, root, &mut NullSink)?;
        println!("{:>8}: {} bytes", ser.name(), bytes.len());
    }
    println!("{:>8}: {} bytes", "Cereal", ser.bytes.len());
    Ok(())
}
