//! The aggregation batch layout: a freshly built partition carries no
//! serialization metadata, and the batch folds reject what is not a
//! batch of records.

use sdheap::Addr;
use workloads::spark::agg::{coalesce, fold_heap_batch};
use workloads::{AggConfig, Fold, KeySkew};

fn tiny() -> AggConfig {
    AggConfig {
        mappers: 2,
        records_per_mapper: 40,
        distinct_keys: 8,
        skew: KeySkew::Uniform,
        seed: 11,
    }
}

/// Mappers and cached-RDD rebuilds hand a just-built partition (plus its
/// coalesced batch) straight to the Cereal serializer, with no metadata
/// clearing walk first: every object must start with a zero ext word.
#[test]
fn a_fresh_partition_and_its_batch_have_zero_ext_words() {
    let mut part = tiny().build_partition(1);
    coalesce(&mut part.heap, &part.reg, part.batch_klass, &part.records);
    let mut objects = 0;
    for obj in part.heap.iter_objects(&part.reg) {
        assert_eq!(part.heap.ext_word(obj).raw(), 0, "object {obj:?} has a non-zero ext word");
        objects += 1;
    }
    // Each record is an Event plus its payload array; one batch array.
    assert_eq!(objects, 2 * part.records.len() + 1);
}

#[test]
fn heap_fold_rejects_null_roots_and_elements() {
    let mut part = tiny().build_partition(0);
    assert_eq!(fold_heap_batch(&part.heap, Addr::NULL, &mut Fold::new()), None);
    let holed = [part.records[0], Addr::NULL];
    let holed = coalesce(&mut part.heap, &part.reg, part.batch_klass, &holed);
    assert_eq!(fold_heap_batch(&part.heap, holed, &mut Fold::new()), None);
}
