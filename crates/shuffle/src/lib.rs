//! `shuffle` — a simulated multi-executor shuffle service.
//!
//! The Cereal paper motivates serialization hardware with the data
//! movement inside analytics frameworks: a Spark shuffle is *serialize →
//! wire → deserialize*, repeated across every mapper/reducer pair. This
//! crate closes that loop end to end over the sibling crates' models:
//!
//! * **map executors** — `N` executors, each owning a private [`sdheap`]
//!   heap and PRNG-seeded partition of a Spark-like aggregation dataset
//!   ([`workloads::AggConfig`]). Each partitions its records by
//!   `key % reducers`, coalesces them into batches, and serializes every
//!   batch with any software [`serializers::Serializer`] (timed on the
//!   [`sim::Cpu`] host model) or the Cereal accelerator (timed by its
//!   unit models);
//! * **the fabric** — batches ship over a [`sim::net::Fabric`] full mesh
//!   of time-bucket-ledger links, so fan-out contends at each sender's
//!   egress NIC and incast at each receiver's ingress NIC;
//! * **reduce executors** — one per partition; each deserializes its
//!   incoming batches in deterministic `(mapper, sequence)` order and
//!   folds `(count, sum)` per key. The fold is checked against the
//!   dataset's independently computed expected aggregate;
//! * **flow control** — a bounded per-reducer in-flight window: a sender
//!   blocks while a reducer's undeserialized bytes would exceed the
//!   configured watermark (classic shuffle backpressure), and the report
//!   counts the blocks and the waiting time;
//! * **GC pressure mode** — optionally each mapper runs
//!   [`sdheap::gc::collect`] between record waves; live roots are
//!   relocated, shipped batches become reclaimable garbage, and the
//!   collector's simulated pause
//!   ([`sdheap::GcStats::simulated_cost_ns`]) is charged into the
//!   mapper's timeline;
//! * **map-side spill** — with [`ShuffleConfig::spill_bytes`] set, each
//!   mapper's serialized batches live in a [`store::BlockStore`]:
//!   batches past the budget spill to a simulated SSD and are read back
//!   when the shuffle files are served, with the disk time charged on
//!   the mapper's clock;
//! * **fault injection & recovery** — with [`ShuffleConfig::faults`]
//!   set, a seeded [`sim::FaultInjector`] loses and corrupts wire
//!   transfers (reducers detect corruption through the CRC frame;
//!   retransmissions pay timeout and exponential backoff on the
//!   simulated clock), kills mappers mid-stage (Spark-style
//!   re-execution), fails spill reads (device-level retries), and
//!   faults accelerator requests (the partition degrades to the
//!   configured software serializer). Every class is recovered, so the
//!   fold exactly matches the fault-free aggregate; anomalies surface
//!   as typed [`ShuffleError`]s, never panics.
//!
//! Executors really run on threads ([`ShuffleConfig::jobs`]), but every
//! number in the report is composed from per-executor simulated clocks
//! in a fixed order, so the report is byte-identical for any job count —
//! enforced by test.

pub mod exec;
pub mod faults;
pub mod reduce;
pub mod report;
pub mod service;
pub mod timeline;

pub use exec::{run_mapper, run_mapper_sunk, GcTotals, MapOutcome, Message, SpillTotals};
pub use faults::{Attempt, FaultSpec, FaultTotals, MsgPlan, ShuffleError};
pub use reduce::{run_reducer_sunk, ReduceOutcome};
pub use report::{fold_checksum, BackendReport, ShuffleReport};
pub use service::{run_backend_sunk, run_suite, BackendRun};
pub use store::Backend;
pub use timeline::{compose_sunk, NetStats};

use sim::LinkConfig;
use workloads::{AggConfig, KeySkew};

/// Shuffle service configuration.
#[derive(Clone, Copy, Debug)]
pub struct ShuffleConfig {
    /// Map-side executors.
    pub mappers: usize,
    /// Reduce-side executors (= shuffle partitions).
    pub reducers: usize,
    /// Records per map executor.
    pub records_per_mapper: usize,
    /// Distinct aggregation keys.
    pub distinct_keys: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Key popularity distribution — [`KeySkew::Zipf`] concentrates
    /// records on the hot reducers.
    pub skew: KeySkew,
    /// Coalescing threshold: a partition's pending records are flushed
    /// into one serialized batch once their estimated heap bytes reach
    /// this size (the remainder flushes at end of input).
    pub flush_bytes: u64,
    /// Backpressure watermark: a sender blocks while the destination
    /// reducer's in-flight (sent but not yet deserialized) bytes would
    /// exceed this.
    pub watermark_bytes: u64,
    /// Map-side spill threshold: each mapper keeps its serialized
    /// batches in a [`store::BlockStore`] with this memory budget, so
    /// batches past the budget spill to a simulated SSD and are read
    /// back (both charged on the mapper's clock) when the shuffle files
    /// are served. `0` disables the store (batches stay in memory).
    pub spill_bytes: u64,
    /// Pair-link model for the fabric.
    pub link: LinkConfig,
    /// Display name for the link preset.
    pub link_name: &'static str,
    /// Run a garbage collection on each mapper between record waves.
    pub gc_pressure: bool,
    /// Number of record waves per mapper when `gc_pressure` is on.
    pub gc_waves: usize,
    /// Worker threads for executor fan-out (does not affect results).
    pub jobs: usize,
    /// Seal every serialized stream with the [`sdformat::frame`] CRC
    /// footer; reducers verify before decoding. Required for
    /// wire-corruption injection to be detectable.
    pub checksum: bool,
    /// Fault injection (`None` = the fault-free happy path, bit-for-bit
    /// identical to the pre-fault service).
    pub faults: Option<FaultSpec>,
}

impl ShuffleConfig {
    /// Small configuration for tests and `--smoke` runs.
    pub fn smoke() -> Self {
        ShuffleConfig {
            mappers: 4,
            reducers: 4,
            records_per_mapper: 256,
            distinct_keys: 32,
            seed: 0x5EED_0BEE,
            skew: KeySkew::Uniform,
            flush_bytes: 4 << 10,
            watermark_bytes: 16 << 10,
            spill_bytes: 0,
            link: LinkConfig::ten_gbe(),
            link_name: "10GbE",
            gc_pressure: false,
            gc_waves: 4,
            jobs: 1,
            checksum: false,
            faults: None,
        }
    }

    /// Full experiment configuration.
    pub fn full() -> Self {
        ShuffleConfig {
            mappers: 8,
            reducers: 8,
            records_per_mapper: 2048,
            distinct_keys: 256,
            seed: 0x5EED_0BEE,
            skew: KeySkew::Uniform,
            flush_bytes: 16 << 10,
            watermark_bytes: 64 << 10,
            spill_bytes: 0,
            link: LinkConfig::ten_gbe(),
            link_name: "10GbE",
            gc_pressure: false,
            gc_waves: 4,
            jobs: 1,
            checksum: false,
            faults: None,
        }
    }

    /// The dataset this configuration shuffles.
    pub fn agg(&self) -> AggConfig {
        AggConfig {
            mappers: self.mappers,
            records_per_mapper: self.records_per_mapper,
            distinct_keys: self.distinct_keys,
            seed: self.seed,
            skew: self.skew,
        }
    }
}
