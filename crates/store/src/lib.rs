//! `store` — a simulated block manager: serialized block caching with
//! LRU eviction, disk spill, and lineage recomputation.
//!
//! Spark keeps its cached RDDs, broadcast variables and shuffle outputs
//! in a `BlockManager`: a bounded memory region of blocks that evicts
//! least-recently-used entries to disk — or drops them and recomputes
//! from lineage — under pressure. With `MEMORY_SER` storage, every
//! block is a *serialized* object graph, so every cache read pays a
//! deserialization and every recomputation pays a serialization: the
//! block manager is where the paper's serialization tax compounds
//! across iterations. This crate closes that loop over the sibling
//! crates' models:
//!
//! * [`Engine`] — per-executor serialization engines (any software
//!   [`serializers::Serializer`] timed on the engine's own [`sim::Cpu`]
//!   host core, or a private Cereal accelerator), shared with the
//!   `shuffle` crate;
//! * [`BlockStore`] — the block manager itself: bounded memory, LRU
//!   eviction, spill to a [`sim::Disk`] seek + bandwidth time-bucket
//!   ledger, and a [`MissPolicy`] choosing between disk fetch and
//!   lineage recomputation (with [`MissPolicy::Auto`] comparing the
//!   modeled costs). The spill file holds real bytes: reloads are
//!   byte-identical, test-enforced per backend;
//! * [`rdd`] — an iterative Spark-like consumer: a cached
//!   [`workloads::AggConfig`] dataset re-read over N passes at several
//!   memory-budget fractions, charging deserialization on every hit,
//!   disk time on every fetch, and rebuild + GC pressure
//!   ([`sdheap::GcStats::simulated_cost_ns`]) + re-serialization on
//!   every recomputation;
//! * [`report`] — deterministic JSON reports, byte-identical for any
//!   worker-thread count ([`par_map`] fans out partition builds; the
//!   store simulation itself is strictly sequential).

pub mod block;
pub mod engine;
pub mod par;
pub mod rdd;
pub mod report;

pub use block::{
    Access, AccessOutcome, BlockSource, BlockStore, MissPolicy, NoLineage, StoreConfig,
    StoreError, StoreStats,
};
pub use engine::{Backend, Engine, EngineError, SerTiming, DST_BASE};
pub use par::par_map;
pub use rdd::{
    build_part, run_rdd_sunk, AccessPattern, PartBuild, PassStats, RddConfig, RddOutcome,
};
pub use report::{run_suite, RunRecord, StoreReport};
