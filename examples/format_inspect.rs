//! Format anatomy: serialize a tiny graph and dump every structure of
//! the Cereal format — value array, packed reference array with its end
//! map, packed layout bitmaps — mirroring the paper's Fig. 4 and Fig. 5.
//!
//! ```sh
//! cargo run --release --example format_inspect
//! ```

use cereal_repro::accel::{Accelerator, ClassTables};
use cereal_repro::format::pack::Unpacker;
use cereal_repro::format::stream::decode_ref;
use cereal_repro::heap::builder::Init;
use cereal_repro::heap::{Addr, FieldKind, GraphBuilder, Heap, ValueType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Fig. 4 example: objA → objB, objC; objB → objD.
    let mut b = GraphBuilder::new(1 << 16);
    let k = b.klass(
        "Obj",
        vec![
            FieldKind::Value(ValueType::Long),
            FieldKind::Ref,
            FieldKind::Ref,
        ],
    );
    let obj_d = b.object(k, &[Init::Val(0xD), Init::Null, Init::Null])?;
    let obj_c = b.object(k, &[Init::Val(0xC), Init::Null, Init::Null])?;
    let obj_b = b.object(k, &[Init::Val(0xB), Init::Ref(obj_d), Init::Null])?;
    let obj_a = b.object(k, &[Init::Val(0xA), Init::Ref(obj_b), Init::Ref(obj_c)])?;
    let (mut heap, reg) = b.finish();

    let mut accel = Accelerator::paper();
    accel.register_all(&reg)?;
    let ser = accel.serialize(&mut heap, &reg, obj_a)?;
    let stream = sdformat::CerealStream::from_bytes(&ser.bytes)?;

    println!("== Cereal serialized format (paper Fig. 4b / Fig. 5b) ==\n");
    println!(
        "object graph size: {} bytes ({} objects)",
        stream.total_object_bytes, stream.object_count
    );

    println!(
        "\nvalue array ({} bytes, 8 B words):",
        stream.value_array.len()
    );
    for (i, w) in stream.value_words().iter().enumerate() {
        // Each object contributes 3 value words here (mark word, class
        // ID, one payload word) — references live in the reference
        // array, and the runtime-private extension word never travels.
        let role = match i % 3 {
            0 => "mark word",
            1 => "class ID",
            _ => "value",
        };
        println!("  word {i:2}: {w:#018x}  {role}");
    }

    println!(
        "\npacked reference array ({} payload bytes + {} end-map bytes, {} items):",
        stream.refs.bytes.len(),
        stream.refs.end_map.as_bytes().len(),
        stream.refs.count
    );
    print!("  payload:");
    for byte in &stream.refs.bytes {
        print!(" {byte:08b}");
    }
    println!();
    print!("  end map:");
    for byte in stream.refs.end_map.as_bytes() {
        print!(" {byte:08b}");
    }
    println!();
    let mut u = Unpacker::new(&stream.refs);
    let mut i = 0;
    while let Some(item) = u.next_value() {
        match decode_ref(item) {
            Some(rel) => println!("  ref {i}: relative address {rel}"),
            None => println!("  ref {i}: null"),
        }
        i += 1;
    }

    println!(
        "\npacked layout bitmaps ({} payload bytes, 1 bit per 8 B word, 1 = reference):",
        stream.bitmaps.bytes.len()
    );
    for (obj, bits) in stream.bitmaps.to_items().iter().enumerate() {
        let s: String = bits.iter().map(|&b| if b { '1' } else { '0' }).collect();
        println!("  obj {obj}: {s}  (object size {} bytes)", bits.len() * 8);
    }

    // And show the reconstruction (Fig. 4c).
    let mut dst = Heap::with_base(Addr(0x8000), 1 << 16);
    let mut tables = ClassTables::new(16);
    tables.register_all(&reg)?;
    let (root, _) = cereal::functional::decode(&stream, &tables, &mut dst, false)?;
    println!("\nreconstructed at base {} (paper uses 8000):", dst.base());
    for addr in [
        root,
        dst.ref_field(root, 1).unwrap(),
        dst.ref_field(root, 2).unwrap(),
    ] {
        println!(
            "  {}: payload {:#x}, refs {:?}",
            addr,
            dst.field(addr, 0),
            (dst.ref_field(addr, 1), dst.ref_field(addr, 2)),
        );
    }
    Ok(())
}
