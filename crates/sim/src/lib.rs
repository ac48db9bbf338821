//! `sim` — the architecture-simulation substrate shared by the CPU
//! baselines and the Cereal accelerator model.
//!
//! * [`dram`] — the DDR4-2400 4-channel bandwidth/latency model of
//!   Table I; the single meter behind every bandwidth-utilization figure.
//! * [`cache`] — the host's three-level set-associative hierarchy
//!   (32 KB / 1 MB / 11 MB, LRU, write-back).
//! * [`cpu`] — a trace-driven CPU timing model that consumes the op
//!   streams emitted by the `serializers` crate and reproduces the §III
//!   bottleneck analysis (dependent-load serialization, window-limited
//!   MLP, reflection/hash pointer chases).
//! * [`mai`] — the accelerator's Memory Access Interface: 64-entry
//!   coalescing request CAM, reorder buffers, atomic RMW.
//! * [`tlb`] — the 128-entry, 1 GB-huge-page TLB.
//! * [`net`] — a point-to-point network link for end-to-end shuffle
//!   experiments.
//! * [`disk`] — a block device (seek + bandwidth ledger) for the block
//!   store's spill files.
//! * [`ledger`] — the time-bucket capacity ledger every
//!   bandwidth-limited device above books on (one per DRAM channel,
//!   network link and disk).
//! * [`fault`] — the seeded fault streams ([`fault::stream`], plain
//!   PRNGs scoped by entity id) and the shuffle/store fault rates
//!   ([`FaultConfig`]: wire corruption, link loss, disk read errors,
//!   mapper death, accelerator faults, spill corruption) behind the
//!   recovery experiments.
//!
//! The `cereal` crate builds the SU/DU pipeline models on top of
//! [`mai`]+[`dram`]; the experiment harness builds the software baselines
//! on top of [`cpu`].

pub mod cache;
pub mod cpu;
pub mod disk;
pub mod dram;
pub mod fault;
pub mod ledger;
pub mod mai;
pub mod net;
pub mod tlb;

pub use cache::{Cache, Hierarchy, HitLevel, LevelConfig};
pub use cpu::{Cpu, CpuConfig, CpuReport, OpCosts, OP_CLASS_NAMES};
pub use disk::{Disk, DiskConfig, DiskWindow};
pub use dram::{Dram, DramConfig};
pub use fault::FaultConfig;
pub use mai::{Mai, MaiConfig, MaiStats, ReorderBuffer};
pub use net::{Link, LinkConfig, NetWindow};
pub use tlb::{Tlb, TlbConfig};
