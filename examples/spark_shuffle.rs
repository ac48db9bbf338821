//! A Spark-style shuffle: many record batches serialized per partition,
//! compared across Java S/D, Kryo, and the Cereal accelerator — the
//! scenario the paper's introduction motivates.
//!
//! ```sh
//! cargo run --release --example spark_shuffle
//! ```

use cereal_repro::accel::CerealConfig;
use cereal_repro::baselines::{JavaSd, Kryo, Serializer};
use cereal_repro::bench_workloads::{Scale, SparkApp};
use cereal_repro::heap::{Addr, Heap};
use sim::Cpu;

fn main() {
    let app = SparkApp::Svm;
    println!(
        "shuffling {} ({}, Table III input {} MB, scaled)",
        app.name(),
        app.workload_type(),
        app.input_mb()
    );
    let mut ds = app.build(Scale::Tiny);
    let batches = ds.batches.clone();
    println!("{} partitions of 256 records each\n", batches.len());

    // Software baselines: a single executor core serializes each
    // partition in turn.
    for ser in [&JavaSd::new() as &dyn Serializer, &Kryo::new()] {
        let mut cpu = Cpu::host();
        let mut total_bytes = 0u64;
        for &root in &batches {
            let bytes = ser
                .serialize(&mut ds.heap, &ds.reg, root, &mut cpu)
                .expect("serialize");
            total_bytes += bytes.len() as u64;
        }
        let r = cpu.report();
        println!(
            "{:>8}: {:>10.1} us, {:>8} KB shuffled, IPC {:.2}, {:.1}% of DRAM bandwidth",
            ser.name(),
            r.ns / 1e3,
            total_bytes >> 10,
            r.ipc,
            r.bandwidth_util * 100.0,
        );
    }

    // Cereal: the same partitions fan out across 8 serialization units.
    let mut accel = cereal::Accelerator::new(CerealConfig::paper());
    accel.register_all(&ds.reg).expect("register");
    ds.heap.gc_clear_serialization_metadata(&ds.reg);
    let mut total_bytes = 0u64;
    let mut streams = Vec::new();
    for &root in &batches {
        let s = accel.serialize(&mut ds.heap, &ds.reg, root).expect("serialize");
        total_bytes += s.bytes.len() as u64;
        streams.push(s.bytes);
    }
    let rep = accel.report();
    println!(
        "{:>8}: {:>10.1} us, {:>8} KB shuffled, {} units, {:.1}% of DRAM bandwidth",
        "Cereal",
        rep.ser_makespan_ns / 1e3,
        total_bytes >> 10,
        rep.ser_requests.min(8),
        rep.bandwidth_util * 100.0,
    );

    // Receive side: deserialize every partition and spot-check one.
    accel.reset_meters();
    let mut last_root = Addr::NULL;
    let mut dst = Heap::with_base(Addr(0x40_0000_0000), ds.heap.capacity_bytes());
    for s in &streams {
        last_root = accel.deserialize(s, &mut dst).expect("deserialize").root;
    }
    let rep = accel.report();
    println!(
        "\nreceive side: {:.1} us for {} partitions ({:.1}% bandwidth)",
        rep.de_makespan_ns / 1e3,
        rep.de_requests,
        rep.bandwidth_util * 100.0,
    );
    assert!(sdheap::isomorphic(
        &ds.heap,
        &ds.reg,
        *batches.last().expect("non-empty"),
        &dst,
        last_root
    ));
    println!("last partition verified isomorphic after the round trip");
}
