//! Spark-like aggregation (`reduceByKey`) shuffle workload.
//!
//! The canonical Spark shuffle: every mapper holds a partition of keyed
//! event records, partitions them by `key % reducers`, serializes each
//! partition, and ships it; reducers deserialize and fold `(count, sum)`
//! per key. This module generates the *map-side inputs* — one
//! independent heap per mapper, all sharing an identically-constructed
//! klass registry so any executor (or a reducer with
//! [`AggConfig::registry`]) can decode any other's streams.
//!
//! Record shape, chosen so serializers do representative work:
//!
//! ```text
//! Event { key: long, value: double, payload: ref } -> long[PAYLOAD_WORDS]
//! ```
//!
//! Generation is deterministic per `(seed, mapper)`, and
//! [`AggConfig::expected_fold`] recomputes the exact aggregation result
//! (same f64 accumulation order as a shuffle that preserves per-mapper
//! record order) without touching a heap — the shuffle service's
//! correctness anchor.

use crate::zipf::Zipf;
use sdheap::builder::Init;
use sdheap::rng::Rng;
use sdheap::{Addr, FieldKind, GraphBuilder, Heap, KlassId, KlassRegistry, ValueType};
use std::collections::BTreeMap;

/// Words in each record's payload array.
pub const PAYLOAD_WORDS: usize = 8;

/// Approximate heap bytes per record: Event (3 header + 3 fields) plus
/// its payload array (3 header + 1 length + `PAYLOAD_WORDS`), used by
/// the shuffle service's coalescing estimate.
pub const RECORD_HEAP_BYTES: u64 = (6 + 4 + PAYLOAD_WORDS as u64) * 8;

/// A per-key `(count, sum)` aggregate — what every consumer of the
/// dataset folds its records into.
pub type Fold = BTreeMap<u64, (u64, f64)>;

/// Folds one record into `fold`.
pub fn fold_record(fold: &mut Fold, key: u64, value: f64) {
    let e = fold.entry(key).or_insert((0, 0.0));
    e.0 += 1;
    e.1 += value;
}

/// Merges folds in the given order. Where folds share keys the order is
/// part of the result's definition (the sums are f64).
pub fn merge_folds<'f>(folds: impl IntoIterator<Item = &'f Fold>) -> Fold {
    let mut merged = Fold::new();
    for fold in folds {
        for (&k, &(c, s)) in fold {
            let e = merged.entry(k).or_insert((0, 0.0));
            e.0 += c;
            e.1 += s;
        }
    }
    merged
}

/// Key-popularity distribution of the generated records.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeySkew {
    /// Keys drawn uniformly from `[0, distinct_keys)`.
    Uniform,
    /// Keys drawn Zipf(θ)-skewed: key `k` has probability `∝ (k+1)^-θ`,
    /// so key 0 is the hottest — and lands on reducer 0 under the
    /// shuffle's `key % reducers` routing.
    Zipf(f64),
}

impl KeySkew {
    /// Display form used in report JSON (`"uniform"`, `"zipf(1.10)"`).
    pub fn label(&self) -> String {
        match self {
            KeySkew::Uniform => "uniform".to_string(),
            KeySkew::Zipf(theta) => format!("zipf({theta:.2})"),
        }
    }
}

/// One mapper's key source: uniform draw or a precomputed Zipf CDF.
enum KeySampler {
    Uniform(u64),
    Zipf(Zipf),
}

impl KeySampler {
    fn draw(&self, rng: &mut Rng) -> u64 {
        match self {
            KeySampler::Uniform(n) => rng.gen_range_u64(0, *n),
            KeySampler::Zipf(z) => z.sample(rng),
        }
    }
}

/// Aggregation dataset parameters.
#[derive(Clone, Copy, Debug)]
pub struct AggConfig {
    /// Map-side executors (each gets an independent partition + heap).
    pub mappers: usize,
    /// Records per mapper.
    pub records_per_mapper: usize,
    /// Key space: keys are drawn from `[0, distinct_keys)`.
    pub distinct_keys: u64,
    /// Key-popularity distribution.
    pub skew: KeySkew,
    /// Base PRNG seed; mapper `m` derives its own stream from it.
    pub seed: u64,
}

/// One mapper's generated partition.
#[derive(Debug)]
pub struct AggPartition {
    /// The mapper's private heap.
    pub heap: Heap,
    /// Klass registry — identical (ids and names) for every mapper of
    /// the same config.
    pub reg: KlassRegistry,
    /// The partition's records, in generation order.
    pub records: Vec<Addr>,
    /// `Object[]` klass for coalescing records into shipped batches.
    pub batch_klass: KlassId,
}

impl AggConfig {
    /// Heap capacity each executor needs: the records themselves plus
    /// headroom for coalesced batch arrays (and a reducer's
    /// reconstruction of any single shipped batch fits too).
    pub fn heap_capacity(&self) -> u64 {
        (self.records_per_mapper as u64 * RECORD_HEAP_BYTES) * 2 + (1 << 16)
    }

    fn rng_for(&self, mapper: usize) -> Rng {
        Rng::new(self.seed ^ (mapper as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn key_sampler(&self) -> KeySampler {
        match self.skew {
            KeySkew::Uniform => KeySampler::Uniform(self.distinct_keys),
            KeySkew::Zipf(theta) => KeySampler::Zipf(Zipf::new(self.distinct_keys, theta)),
        }
    }

    /// Registers the workload's klasses in a fixed order, so every
    /// caller sees the same [`KlassId`]s.
    fn install_klasses(b: &mut GraphBuilder) -> (KlassId, KlassId, KlassId) {
        let payload = b.array_klass("long[]", FieldKind::Value(ValueType::Long));
        let event = b.klass(
            "Event",
            vec![
                FieldKind::Value(ValueType::Long),   // key
                FieldKind::Value(ValueType::Double), // value
                FieldKind::Ref,                      // payload
            ],
        );
        let batch = b.array_klass("Object[]", FieldKind::Ref);
        (payload, event, batch)
    }

    /// The shared klass registry, for executors that never build records
    /// (reducers decoding incoming streams).
    pub fn registry(&self) -> KlassRegistry {
        let mut b = GraphBuilder::new(1 << 12);
        Self::install_klasses(&mut b);
        let (_, reg) = b.finish();
        reg
    }

    /// Builds mapper `m`'s partition.
    ///
    /// # Panics
    /// Panics if `m >= self.mappers`.
    pub fn build_partition(&self, m: usize) -> AggPartition {
        assert!(m < self.mappers, "mapper {m} out of {}", self.mappers);
        let mut b = GraphBuilder::new(self.heap_capacity());
        let (payload_k, event_k, batch_klass) = Self::install_klasses(&mut b);
        let sampler = self.key_sampler();
        let mut rng = self.rng_for(m);
        let mut records = Vec::with_capacity(self.records_per_mapper);
        for _ in 0..self.records_per_mapper {
            let key = sampler.draw(&mut rng);
            let value = rng.gen_range_f64(0.0, 100.0);
            let payload: Vec<u64> = (0..PAYLOAD_WORDS).map(|_| rng.next_u64()).collect();
            let arr = b.value_array(payload_k, &payload).expect("capacity sized for records");
            let rec = b
                .object(
                    event_k,
                    &[
                        Init::Val(key),
                        Init::Val(f64::to_bits(value)),
                        Init::Ref(arr),
                    ],
                )
                .expect("capacity sized for records");
            records.push(rec);
        }
        let (heap, reg) = b.finish();
        AggPartition {
            heap,
            reg,
            records,
            batch_klass,
        }
    }

    /// The exact aggregation result: per key, `(count, sum-of-values)`,
    /// with values accumulated in `(mapper, generation)` order — the
    /// order a shuffle that preserves per-mapper record order folds in,
    /// so sums match bit for bit.
    pub fn expected_fold(&self) -> Fold {
        let mut fold = Fold::new();
        let sampler = self.key_sampler();
        for m in 0..self.mappers {
            let mut rng = self.rng_for(m);
            for _ in 0..self.records_per_mapper {
                let key = sampler.draw(&mut rng);
                let value = rng.gen_range_f64(0.0, 100.0);
                for _ in 0..PAYLOAD_WORDS {
                    rng.next_u64();
                }
                fold_record(&mut fold, key, value);
            }
        }
        fold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> AggConfig {
        AggConfig {
            mappers: 3,
            records_per_mapper: 40,
            distinct_keys: 8,
            skew: KeySkew::Uniform,
            seed: 7,
        }
    }

    #[test]
    fn partitions_are_deterministic_and_disjointly_seeded() {
        let cfg = tiny();
        let a = cfg.build_partition(1);
        let b = cfg.build_partition(1);
        assert_eq!(a.records.len(), b.records.len());
        for (&x, &y) in a.records.iter().zip(&b.records) {
            assert_eq!(x, y);
            assert_eq!(a.heap.field(x, 0), b.heap.field(y, 0), "same keys");
        }
        let c = cfg.build_partition(2);
        let same_keys = a
            .records
            .iter()
            .zip(&c.records)
            .all(|(&x, &y)| a.heap.field(x, 0) == c.heap.field(y, 0));
        assert!(!same_keys, "different mappers draw different key streams");
    }

    #[test]
    fn registry_matches_partition_registry() {
        let cfg = tiny();
        let part = cfg.build_partition(0);
        let reg = cfg.registry();
        let kid = part.heap.klass_of(&part.reg, part.records[0]);
        assert_eq!(reg.get(kid).name(), part.reg.get(kid).name());
        assert_eq!(reg.get(part.batch_klass).name(), "Object[]");
    }

    #[test]
    fn zipf_skew_concentrates_keys_and_replays_in_expected_fold() {
        let mut cfg = tiny();
        cfg.records_per_mapper = 400;
        cfg.distinct_keys = 16;
        cfg.skew = KeySkew::Zipf(1.2);
        let expected = cfg.expected_fold();
        // Key 0 is the hottest by a wide margin.
        let hot = expected[&0].0;
        let total: u64 = expected.values().map(|v| v.0).sum();
        assert_eq!(total, (cfg.mappers * cfg.records_per_mapper) as u64);
        assert!(
            hot as f64 > total as f64 * 0.3,
            "zipf(1.2) head key holds a large share, got {hot}/{total}"
        );
        // The heap contents replay the same stream.
        let mut fold: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
        for m in 0..cfg.mappers {
            let p = cfg.build_partition(m);
            for &r in &p.records {
                let e = fold.entry(p.heap.field(r, 0)).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += f64::from_bits(p.heap.field(r, 1));
            }
        }
        assert_eq!(fold.len(), expected.len());
        for (k, v) in &expected {
            assert_eq!(fold[k].0, v.0, "count for key {k}");
            assert_eq!(fold[k].1.to_bits(), v.1.to_bits(), "sum for key {k}");
        }
    }

    #[test]
    fn skew_labels() {
        assert_eq!(KeySkew::Uniform.label(), "uniform");
        assert_eq!(KeySkew::Zipf(1.1).label(), "zipf(1.10)");
    }

    #[test]
    fn expected_fold_matches_heap_contents() {
        let cfg = tiny();
        let expected = cfg.expected_fold();
        let mut fold: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
        for m in 0..cfg.mappers {
            let p = cfg.build_partition(m);
            for &r in &p.records {
                let key = p.heap.field(r, 0);
                let value = f64::from_bits(p.heap.field(r, 1));
                let e = fold.entry(key).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += value;
            }
        }
        let total: u64 = expected.values().map(|v| v.0).sum();
        assert_eq!(total, (cfg.mappers * cfg.records_per_mapper) as u64);
        assert_eq!(fold.len(), expected.len());
        for (k, v) in &expected {
            assert_eq!(fold[k].0, v.0, "count for key {k}");
            assert!((fold[k].1 - v.1).abs() < 1e-9, "sum for key {k}");
        }
    }
}
