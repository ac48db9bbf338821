//! Per-backend corruption detection: for every serialization backend —
//! the six software formats and the Cereal accelerator — a single
//! flipped bit anywhere in a checksummed stream surfaces as a typed
//! checksum error before the backend decodes a byte.

use sdheap::rng::Rng;
use store::{Backend, Engine, EngineError};
use telemetry::NoopSink;
use workloads::AggConfig;

fn sample(backend: Backend) -> (Vec<u8>, sdheap::KlassRegistry, u64) {
    let agg = AggConfig {
        mappers: 1,
        records_per_mapper: 48,
        distinct_keys: 8,
        seed: 0xBAD_B17,
        skew: workloads::KeySkew::Uniform,
    };
    let part = agg.build_partition(0);
    let mut heap = part.heap;
    let reg = part.reg;
    let mut engine = Engine::new(backend, &reg);
    if backend == Backend::Cereal {
        heap.gc_clear_serialization_metadata(&reg);
    }
    let batch = heap
        .alloc_array(&reg, part.batch_klass, part.records.len())
        .expect("batch fits");
    for (j, &r) in part.records.iter().enumerate() {
        heap.set_array_elem(batch, j, r.get());
    }
    let (bytes, _) = engine.serialize(&mut heap, &reg, batch, true, &mut NoopSink);
    (bytes, reg, agg.heap_capacity())
}

/// Every backend: an intact checksummed stream round-trips; any single
/// flipped bit is reported as [`EngineError::Checksum`] — never a panic,
/// never a silently wrong reconstruction.
#[test]
fn every_backend_detects_single_bit_corruption() {
    for &backend in Backend::ALL {
        let (framed, reg, capacity) = sample(backend);
        let mut engine = Engine::new(backend, &reg);
        engine
            .deserialize(&framed, &reg, capacity, true, &mut NoopSink)
            .unwrap_or_else(|e| panic!("{}: intact stream rejected: {e}", backend.name()));

        let mut rng = Rng::new(0xF11B_0000 ^ backend as u64);
        for _ in 0..40 {
            let bit = rng.gen_range_usize(0, framed.len() * 8);
            let mut bad = framed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            match engine.deserialize(&bad, &reg, capacity, true, &mut NoopSink) {
                Err(EngineError::Checksum(_)) => {}
                Err(e) => panic!(
                    "{}: bit {bit} produced {e} instead of a checksum error",
                    backend.name()
                ),
                Ok(_) => panic!(
                    "{}: bit-{bit} corruption decoded without detection",
                    backend.name()
                ),
            }
        }
    }
}

/// Verification is charged to the simulated clock: a checksummed
/// deserialization is strictly slower than the plain one by the CRC
/// scan cost.
#[test]
fn checksum_verification_costs_simulated_time() {
    let backend = Backend::Kryo;
    let (framed, reg, capacity) = sample(backend);
    let plain = &framed[..framed.len() - sdformat::FOOTER_BYTES];
    let mut engine = Engine::new(backend, &reg);
    let mut de =
        |bytes, checksum| engine.deserialize(bytes, &reg, capacity, checksum, &mut NoopSink);
    let (_, _, ns_plain) = de(plain, false).unwrap();
    let (_, _, ns_checked) = de(&framed, true).unwrap();
    let expected = sdformat::crc_ns(plain.len());
    assert!(expected > 0.0);
    assert!(
        (ns_checked - ns_plain - expected).abs() < 1e-9,
        "checksum path must cost exactly crc_ns more ({ns_checked} vs {ns_plain} + {expected})"
    );
}
