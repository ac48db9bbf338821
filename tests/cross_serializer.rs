//! Cross-crate integration: every serializer — the three software
//! baselines and the Cereal accelerator — must reconstruct isomorphic
//! graphs for every workload family in the repository.

use cereal_repro::accel::CerealSerializer;
use cereal_repro::baselines::{
    Archive, JavaSd, JsonLike, Kryo, NullSink, ProtoLike, Serializer, Skyway,
};
use cereal_repro::bench_workloads::{media_content, MicroBench, Scale, SparkApp};
use cereal_repro::heap::{isomorphic_with, Addr, Heap, IsoOptions, KlassRegistry};

fn all_serializers() -> Vec<Box<dyn Serializer>> {
    vec![
        Box::new(JavaSd::new()),
        Box::new(Kryo::new()),
        Box::new(Skyway::new()),
        Box::new(ProtoLike::new()),
        Box::new(Archive::new()),
        Box::new(CerealSerializer::new()),
    ]
}

/// Serializers that additionally support text round trips without cycles
/// through arrays (real JSON libraries reject those too).
fn acyclic_extra_serializers() -> Vec<Box<dyn Serializer>> {
    vec![Box::new(JsonLike::new())]
}

fn assert_roundtrip(
    ser: &dyn Serializer,
    heap: &mut Heap,
    reg: &KlassRegistry,
    root: Addr,
    what: &str,
) {
    // Reset any stale Cereal visited marks from earlier serializers.
    heap.gc_clear_serialization_metadata(reg);
    let bytes = ser
        .serialize(heap, reg, root, &mut NullSink)
        .unwrap_or_else(|e| panic!("{what}/{}: serialize failed: {e}", ser.name()));
    let mut dst = Heap::with_base(Addr(0x40_0000_0000), heap.capacity_bytes());
    let new_root = ser
        .deserialize(&bytes, reg, &mut dst, &mut NullSink)
        .unwrap_or_else(|e| panic!("{what}/{}: deserialize failed: {e}", ser.name()));
    assert!(
        isomorphic_with(
            heap,
            reg,
            root,
            &dst,
            new_root,
            IsoOptions {
                check_identity_hash: ser.preserves_identity_hash()
            }
        ),
        "{what}/{}: reconstructed graph is not isomorphic",
        ser.name()
    );
}

#[test]
fn every_serializer_roundtrips_every_microbenchmark() {
    for bench in MicroBench::all() {
        let (mut heap, reg, root) = bench.build(Scale::Tiny);
        for ser in all_serializers() {
            assert_roundtrip(ser.as_ref(), &mut heap, &reg, root, bench.name());
        }
    }
}

#[test]
fn every_serializer_roundtrips_the_jsbs_object() {
    let (mut heap, reg, root) = media_content();
    for ser in all_serializers()
        .into_iter()
        .chain(acyclic_extra_serializers())
    {
        assert_roundtrip(ser.as_ref(), &mut heap, &reg, root, "media-content");
    }
}

#[test]
fn every_serializer_roundtrips_every_spark_batch() {
    for app in SparkApp::all() {
        let mut ds = app.build(Scale::Tiny);
        let root = ds.batches[0];
        for ser in all_serializers()
            .into_iter()
            .chain(acyclic_extra_serializers())
        {
            assert_roundtrip(ser.as_ref(), &mut ds.heap, &ds.reg, root, app.name());
        }
    }
}

#[test]
fn stream_sizes_keep_their_characteristic_order() {
    // Kryo ≤ Java everywhere; Skyway and Cereal carry headers and sit
    // above Kryo on value-heavy workloads.
    for bench in [MicroBench::TreeNarrow, MicroBench::ListSmall] {
        let (mut heap, reg, root) = bench.build(Scale::Tiny);
        let sizes: Vec<(String, usize)> = all_serializers()
            .iter()
            .map(|s| {
                heap.gc_clear_serialization_metadata(&reg);
                let b = s
                    .serialize(&mut heap, &reg, root, &mut NullSink)
                    .expect("ok");
                (s.name().to_string(), b.len())
            })
            .collect();
        let get = |n: &str| sizes.iter().find(|(name, _)| name == n).expect("present").1;
        assert!(get("Kryo") < get("Java"), "{}: {sizes:?}", bench.name());
        assert!(get("Kryo") < get("Skyway"), "{}: {sizes:?}", bench.name());
        assert!(get("Kryo") < get("Archive"), "{}: {sizes:?}", bench.name());
        assert!(get("Kryo") < get("Cereal"), "{}: {sizes:?}", bench.name());
    }
}

#[test]
fn serializers_are_independent_of_each_other() {
    // Running one serializer must not corrupt the heap for the next —
    // including Cereal, which writes header extensions.
    let (mut heap, reg, root) = MicroBench::GraphSparse.build(Scale::Tiny);
    let cereal = CerealSerializer::new();
    let before = cereal
        .serialize(&mut heap, &reg, root, &mut NullSink)
        .expect("ok");
    let _ = JavaSd::new()
        .serialize(&mut heap, &reg, root, &mut NullSink)
        .expect("ok");
    let _ = Skyway::new()
        .serialize(&mut heap, &reg, root, &mut NullSink)
        .expect("ok");
    let after = cereal
        .serialize(&mut heap, &reg, root, &mut NullSink)
        .expect("ok");
    assert_eq!(
        before, after,
        "stream must be reproducible after other serializers ran"
    );
}
