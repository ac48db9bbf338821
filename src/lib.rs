//! `cereal-repro` — umbrella crate of the Cereal (ISCA 2020)
//! reproduction.
//!
//! Re-exports the whole stack so examples and downstream users need a
//! single dependency:
//!
//! * [`heap`] (`sdheap`) — the HotSpot-like managed heap;
//! * [`format`](mod@format) (`sdformat`) — the Cereal serialization format;
//! * [`baselines`] (`serializers`) — Java S/D, Kryo and Skyway;
//! * [`arch`] (`sim`) — DRAM/cache/CPU/MAI/TLB models;
//! * [`accel`] (`cereal`) — the Cereal accelerator itself;
//! * [`bench_workloads`] (`workloads`) — microbenchmarks, JSBS, Spark.
//!
//! See `examples/quickstart.rs` for the five-minute tour, DESIGN.md for
//! the system inventory, and EXPERIMENTS.md for paper-vs-measured
//! results.

pub use cereal as accel;
pub use sdformat as format;
pub use sdheap as heap;
pub use serializers as baselines;
pub use sim as arch;
pub use workloads as bench_workloads;
