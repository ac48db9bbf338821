//! End-to-end accelerator integration: the §V-A software interface over
//! real workloads, unit scaling, and ablation sanity.

use cereal_repro::accel::{
    initialize, read_object, write_object, Accelerator, CerealConfig, ObjectInputStream,
    ObjectOutputStream,
};
use cereal_repro::bench_workloads::{MicroBench, Scale, SparkApp};
use cereal_repro::heap::{isomorphic, Addr, Heap};

#[test]
fn write_read_object_over_a_whole_spark_dataset() {
    let mut ds = SparkApp::Bayes.build(Scale::Tiny);
    let mut accel = initialize(CerealConfig::paper());
    accel.register_all(&ds.reg).expect("register");

    let mut oos = ObjectOutputStream::new();
    let batches = ds.batches.clone();
    for &batch in &batches {
        write_object(&mut accel, &mut oos, &mut ds.heap, &ds.reg, batch).expect("write");
    }
    let wire = oos.into_bytes();

    let mut ois = ObjectInputStream::new(&wire);
    let mut dst = Heap::with_base(Addr(0x40_0000_0000), ds.heap.capacity_bytes());
    for &batch in &batches {
        let root = read_object(&mut accel, &mut ois, &mut dst).expect("read");
        assert!(isomorphic(&ds.heap, &ds.reg, batch, &dst, root));
    }
    assert!(ois.is_exhausted());

    let report = accel.report();
    assert_eq!(report.ser_requests as usize, batches.len());
    assert_eq!(report.de_requests as usize, batches.len());
    assert!(report.bandwidth_util > 0.0 && report.bandwidth_util <= 1.0);
}

#[test]
fn more_units_never_hurt_throughput() {
    let (mut heap, reg, root) = MicroBench::ListSmall.build(Scale::Tiny);
    let mut prev = f64::INFINITY;
    for units in [1usize, 2, 4, 8] {
        let cfg = CerealConfig {
            num_su: units,
            num_du: units,
            ..CerealConfig::paper()
        };
        let mut accel = Accelerator::new(cfg);
        accel.register_all(&reg).expect("register");
        heap.gc_clear_serialization_metadata(&reg);
        for _ in 0..8 {
            accel.serialize(&mut heap, &reg, root).expect("serialize");
        }
        let t = accel.report().ser_makespan_ns;
        assert!(
            t <= prev * 1.05,
            "{units} units took {t} ns, worse than fewer units ({prev} ns)"
        );
        prev = t;
    }
}

#[test]
fn more_reconstructors_never_hurt_deserialization() {
    let (mut heap, reg, root) = MicroBench::TreeNarrow.build(Scale::Tiny);
    let bytes = {
        let mut accel = Accelerator::paper();
        accel.register_all(&reg).expect("register");
        accel
            .serialize(&mut heap, &reg, root)
            .expect("serialize")
            .bytes
    };
    let mut prev = f64::INFINITY;
    for recon in [1usize, 2, 4, 8] {
        let cfg = CerealConfig {
            reconstructors_per_du: recon,
            ..CerealConfig::paper()
        };
        let mut accel = Accelerator::new(cfg);
        accel.register_all(&reg).expect("register");
        let mut dst = Heap::with_base(Addr(0x40_0000_0000), heap.capacity_bytes());
        let de = accel.deserialize(&bytes, &mut dst).expect("deserialize");
        assert!(
            de.run.busy_ns() <= prev * 1.05,
            "{recon} reconstructors took {} ns, worse than fewer ({prev} ns)",
            de.run.busy_ns()
        );
        prev = de.run.busy_ns();
    }
}

#[test]
fn vanilla_ablation_is_slower_but_correct() {
    let (mut heap, reg, root) = MicroBench::GraphSparse.build(Scale::Tiny);
    let mut paper = Accelerator::paper();
    let mut vanilla = Accelerator::vanilla();
    paper.register_all(&reg).expect("register");
    vanilla.register_all(&reg).expect("register");

    heap.gc_clear_serialization_metadata(&reg);
    let a = paper.serialize(&mut heap, &reg, root).expect("serialize");
    heap.gc_clear_serialization_metadata(&reg);
    let b = vanilla.serialize(&mut heap, &reg, root).expect("serialize");
    assert_eq!(a.bytes, b.bytes, "ablation changes timing, not the format");
    assert!(b.run.busy_ns() > a.run.busy_ns());

    let mut dst = Heap::with_base(Addr(0x40_0000_0000), heap.capacity_bytes());
    let de = vanilla
        .deserialize(&b.bytes, &mut dst)
        .expect("deserialize");
    assert!(isomorphic(&heap, &reg, root, &dst, de.root));
}

#[test]
fn header_strip_config_roundtrips_modulo_hash() {
    let cfg = CerealConfig {
        strip_mark_words: true,
        ..CerealConfig::paper()
    };
    let (mut heap, reg, root) = MicroBench::ListSmall.build(Scale::Tiny);
    let mut accel = Accelerator::new(cfg);
    accel.register_all(&reg).expect("register");
    let ser = accel.serialize(&mut heap, &reg, root).expect("serialize");

    let mut full = Accelerator::paper();
    full.register_all(&reg).expect("register");
    heap.gc_clear_serialization_metadata(&reg);
    let full_ser = full.serialize(&mut heap, &reg, root).expect("serialize");
    assert!(
        ser.bytes.len() < full_ser.bytes.len(),
        "stripping must shrink the stream: {} vs {}",
        ser.bytes.len(),
        full_ser.bytes.len()
    );

    let mut dst = Heap::with_base(Addr(0x40_0000_0000), heap.capacity_bytes());
    let de = accel
        .deserialize(&ser.bytes, &mut dst)
        .expect("deserialize");
    assert!(cereal_repro::heap::isomorphic_with(
        &heap,
        &reg,
        root,
        &dst,
        de.root,
        cereal_repro::heap::IsoOptions {
            check_identity_hash: false
        }
    ));
}

#[test]
fn class_table_capacity_is_a_hard_hardware_limit() {
    let mut reg = cereal_repro::heap::KlassRegistry::new();
    for i in 0..5000 {
        reg.register(cereal_repro::heap::Klass::new(format!("C{i}"), vec![]));
    }
    let mut accel = Accelerator::paper();
    let err = accel.register_all(&reg).unwrap_err();
    assert!(err.to_string().contains("unsupported"), "{err}");
    assert_eq!(accel.registered_classes(), 4096);
}
