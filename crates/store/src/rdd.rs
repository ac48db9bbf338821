//! An iterative Spark-like job over a cached, serialized dataset.
//!
//! The job materializes an [`workloads::AggConfig`] dataset as one
//! serialized block per partition in a [`BlockStore`], then re-reads the
//! whole dataset for `passes` iterations — the canonical iterative
//! workload (e.g. gradient descent over a cached training set) that
//! Spark's `MEMORY_SER` storage level serves. Every pass pays
//! deserialization on hits (serialized caching trades CPU for space —
//! the paper's motivation), disk time on fetches, and full lineage
//! recomputation (graph rebuild + GC pressure + re-serialization) on
//! dropped blocks.
//!
//! Determinism: partition builds fan out over real threads
//! ([`RddConfig::jobs`]) but produce only per-partition values; the
//! store simulation itself is a second, strictly sequential phase over
//! those values, so every reported number is byte-identical for any job
//! count (test-enforced).

use sdheap::gc;
use sdheap::{Addr, Heap, KlassRegistry};
use sim::{DiskConfig, FaultConfig};
use telemetry::ids::{DRIVER_PID, T_DISK, T_MAIN};
use telemetry::{EntityId, FlowEvent, Instant, NoopSink, Sink, Span};
use workloads::spark::agg;
use workloads::{merge_folds, AggConfig, Fold};

use crate::block::{
    AccessOutcome, BlockSource, BlockStore, MissPolicy, StoreConfig, StoreError, StoreStats,
};
use crate::engine::{Backend, Engine};
use crate::par::par_map;

/// Order in which a pass visits the cached partitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AccessPattern {
    /// Every partition once, in order — the full-scan iteration.
    Scan,
    /// `partitions` Zipf-distributed samples per pass (hot partitions
    /// re-read, cold ones starved) with the given skew exponent.
    Zipf(f64),
}

impl AccessPattern {
    /// Display label for reports.
    pub fn label(&self) -> String {
        match self {
            AccessPattern::Scan => "scan".to_string(),
            AccessPattern::Zipf(theta) => format!("zipf({theta:.2})"),
        }
    }
}

/// Cached-RDD job configuration.
#[derive(Clone, Copy, Debug)]
pub struct RddConfig {
    /// The dataset; one block per mapper partition.
    pub agg: AggConfig,
    /// Serialization backend for every block.
    pub backend: Backend,
    /// Memory region as a fraction of the dataset's serialized size.
    pub memory_fraction: f64,
    /// Re-read passes after materialization.
    pub passes: usize,
    /// Eviction/miss policy.
    pub policy: MissPolicy,
    /// Spill device model.
    pub disk: DiskConfig,
    /// Pass access order.
    pub access: AccessPattern,
    /// Worker threads for partition builds (does not affect results).
    pub jobs: usize,
    /// Whether blocks carry the [`sdformat::frame`] CRC footer (sealed
    /// at serialization, verified on every read).
    pub checksum: bool,
    /// Spill-reload fault injection (`None` = fault-free).
    pub fault: Option<FaultConfig>,
}

/// One partition, built and measured (phase 1, parallel).
pub struct PartBuild {
    /// The serialized block.
    pub bytes: Vec<u8>,
    /// Engine busy time serializing the block.
    pub ser_ns: f64,
    /// Engine busy time reading the block (paid on every re-read): the
    /// in-place validation for Archive, the reconstruction otherwise.
    pub de_ns: f64,
    /// Lineage rebuild cost: GC pressure of reconstructing the graph
    /// plus re-serialization.
    pub recompute_ns: f64,
    /// Per-key `(count, sum)` folded by that read.
    pub fold: Fold,
}

/// Per-pass counters (deltas over the pass).
#[derive(Clone, Copy, Debug, Default)]
pub struct PassStats {
    /// Accesses served from memory.
    pub hits: u64,
    /// Accesses served from disk.
    pub disk_fetches: u64,
    /// Accesses recomputed from lineage.
    pub recomputes: u64,
    /// Simulated time the pass took (store time + deserialization).
    pub ns: f64,
}

/// Everything one cached-RDD job produced.
pub struct RddOutcome {
    /// Serialized dataset size (sum of block lengths).
    pub dataset_bytes: u64,
    /// The store's memory budget.
    pub budget_bytes: u64,
    /// Simulated time to build, serialize and cache every partition.
    pub materialize_ns: f64,
    /// Per-pass counters, in pass order.
    pub passes: Vec<PassStats>,
    /// End-to-end simulated time (materialization + every pass).
    pub total_ns: f64,
    /// Store lifetime counters.
    pub store: StoreStats,
    /// Spill-device read bytes.
    pub disk_read_bytes: u64,
    /// Spill-device write bytes.
    pub disk_write_bytes: u64,
    /// Spill-device seeks.
    pub disk_seeks: u64,
    /// Whether every reconstructed fold matched the source data.
    pub fold_ok: bool,
}

/// Rebuilds partition `m` from lineage: graph construction, coalescing,
/// a fresh engine's serialization, and the GC pressure of the rebuild
/// ([`sdheap::GcStats::simulated_cost_ns`] over the live batch). Returns
/// the stream, its engine busy time, and the total rebuild cost.
fn rebuild(cfg: &RddConfig, m: usize) -> (Vec<u8>, f64, f64, Heap, KlassRegistry, Addr) {
    let part = cfg.agg.build_partition(m);
    let mut heap = part.heap;
    let reg = part.reg;
    let batch = agg::coalesce(&mut heap, &reg, part.batch_klass, &part.records);
    // The engine (and its host core) is dropped before the collection's
    // semispace is allocated, so the two never coexist.
    let (bytes, t) = Engine::new(cfg.backend, &reg).serialize(
        &mut heap,
        &reg,
        batch,
        cfg.checksum,
        &mut NoopSink,
    );
    let (_, _, stats) =
        gc::collect(&heap, &reg, &[batch]).expect("live batch fits the semispace");
    let recompute_ns = stats.simulated_cost_ns() + t.busy_ns;
    (bytes, t.busy_ns, recompute_ns, heap, reg, batch)
}

/// Builds and measures partition `m` (phase 1): rebuilds it, then reads
/// the block back once through [`Engine::fold_batch`] (an Archive block
/// folds in place, every other backend reconstructs) and asserts, on
/// every run, that the read's fold equals the source heap's.
pub fn build_part(cfg: &RddConfig, m: usize) -> PartBuild {
    let (bytes, ser_ns, recompute_ns, heap, reg, batch) = rebuild(cfg, m);
    let mut src_fold = Fold::new();
    agg::fold_heap_batch(&heap, batch, &mut src_fold).expect("the coalesced batch holds records");
    // A fresh engine for the read: a Cereal deserialize must not run on
    // the accelerator that just serialized, whose units and DRAM are
    // still busy from it.
    let mut fold = Fold::new();
    let (_, de_ns) = Engine::new(cfg.backend, &reg)
        .fold_batch(&bytes, &reg, cfg.agg.heap_capacity(), cfg.checksum, &mut fold, &mut NoopSink)
        .expect("freshly serialized block reads back");
    assert_eq!(fold, src_fold, "partition {m}: reading the block changed the fold");
    PartBuild { bytes, ser_ns, de_ns, recompute_ns, fold }
}

/// Lineage for the job's blocks: really rebuilds the partition and
/// asserts the stream is byte-identical to what was cached.
struct Lineage<'a> {
    cfg: &'a RddConfig,
    parts: &'a [PartBuild],
}

impl BlockSource for Lineage<'_> {
    fn recompute(&mut self, id: usize) -> Result<(Vec<u8>, f64), StoreError> {
        let (bytes, _, recompute_ns, _, _, _) = rebuild(self.cfg, id);
        assert_eq!(
            bytes, self.parts[id].bytes,
            "partition {id}: lineage recomputation must reproduce the stream"
        );
        Ok((bytes, recompute_ns))
    }
}

/// Books the store-counter deltas one `put`/`get` produced as telemetry
/// counters (and an `evict` instant when the operation evicted blocks),
/// so `store.*` counters are derived at the event sites rather than
/// copied from the final [`StoreStats`].
fn book_store_deltas<S: Sink>(sink: &mut S, before: &StoreStats, after: &StoreStats, now_ns: f64) {
    if after.evictions > before.evictions {
        let blocks = after.evictions - before.evictions;
        let bytes = after.evicted_bytes - before.evicted_bytes;
        sink.count("store.evictions", blocks);
        sink.count("store.evicted_bytes", bytes);
        sink.instant(Instant {
            entity: EntityId { pid: DRIVER_PID, tid: T_MAIN },
            name: "evict",
            t_ns: now_ns,
            attrs: vec![("blocks", blocks.into()), ("bytes", bytes.into())],
        });
    }
    if after.spills > before.spills {
        sink.count("store.spills", after.spills - before.spills);
        sink.count("store.spilled_bytes", after.spilled_bytes - before.spilled_bytes);
    }
    if after.read_retries > before.read_retries {
        sink.count("store.read_retries", after.read_retries - before.read_retries);
    }
    if after.checksum_errors > before.checksum_errors {
        sink.count("store.checksum_errors", after.checksum_errors - before.checksum_errors);
    }
}

/// The partition visit order of pass `pass`.
fn pass_order(cfg: &RddConfig, pass: usize) -> Vec<usize> {
    let n = cfg.agg.mappers;
    match cfg.access {
        AccessPattern::Scan => (0..n).collect(),
        AccessPattern::Zipf(theta) => {
            // SkewSampler reproduces the historical Zipf::new + Rng::new
            // stream draw for draw, so report bytes are unchanged.
            let mut skew =
                workloads::SkewSampler::new(n as u64, theta, cfg.agg.seed ^ (0xD15C_0000 + pass as u64));
            (0..n).map(|_| skew.draw() as usize).collect()
        }
    }
}

/// Runs the cached-RDD job: parallel partition builds, then a sequential
/// store simulation (materialize + `passes` re-reads).
///
/// The phase-2 driver timeline is emitted into `sink` as spans on the
/// driver entity — one `materialize` span per partition,
/// `read.fetch`/`read.recompute` spans and `hit` instants per access,
/// `deserialize` spans for every cache read, `evict` instants, and the
/// spill device's busy windows as `disk.read`/`disk.write` spans on the
/// driver's disk lane. Counters (`store.*`) are booked at the event
/// sites so they reconcile with [`StoreStats`] by construction. The
/// returned outcome is identical for any sink; callers that do not
/// trace pass [`NoopSink`].
///
/// # Errors
/// Propagates [`StoreError`] from faulted accesses the store cannot
/// recover (e.g. corruption injected without checksums).
pub fn run_rdd_sunk<S: Sink>(cfg: &RddConfig, sink: &mut S) -> Result<RddOutcome, StoreError> {
    let n = cfg.agg.mappers;
    let parts: Vec<PartBuild> = par_map(cfg.jobs, n, |m| build_part(cfg, m));

    // Round-trip check: merged folds (partition order) must equal the
    // dataset's expected aggregate — exact counts, value sums to f64
    // accumulation-order tolerance.
    let fold = merge_folds(parts.iter().map(|p| &p.fold));
    let expected = cfg.agg.expected_fold();
    let fold_ok = fold.len() == expected.len()
        && fold.iter().zip(expected.iter()).all(|((k1, (c1, s1)), (k2, (c2, s2)))| {
            k1 == k2 && c1 == c2 && (s1 - s2).abs() <= 1e-6 * s2.abs().max(1.0)
        });

    let dataset_bytes: u64 = parts.iter().map(|p| p.bytes.len() as u64).sum();
    let budget_bytes = (dataset_bytes as f64 * cfg.memory_fraction).ceil() as u64;
    let mut store = BlockStore::new(StoreConfig {
        memory_budget: budget_bytes,
        disk: cfg.disk,
        policy: cfg.policy,
        fault: cfg.fault,
        checksum: cfg.checksum,
    });
    let driver = EntityId { pid: DRIVER_PID, tid: T_MAIN };
    if S::ENABLED {
        sink.name_process(DRIVER_PID, "driver");
        sink.name_thread(DRIVER_PID, T_MAIN, "driver");
        sink.name_thread(DRIVER_PID, T_DISK, "block-store disk");
        store.record_disk_tape();
    }

    // Phase 2: one sequential driver timeline.
    let mut now = 0.0f64;
    for (m, p) in parts.iter().enumerate() {
        let start = now;
        let before = store.stats();
        now += p.recompute_ns; // initial build + serialize
        let (id, done) = store.put(p.bytes.clone(), p.recompute_ns, now);
        debug_assert_eq!(id, m);
        now = done;
        if S::ENABLED {
            sink.count("store.puts", 1);
            sink.span(Span {
                entity: driver,
                name: "materialize",
                t0_ns: start,
                t1_ns: now,
                attrs: vec![
                    ("partition", (m as u64).into()),
                    ("bytes", (p.bytes.len() as u64).into()),
                ],
            });
            book_store_deltas(sink, &before, &store.stats(), now);
        }
    }
    let materialize_ns = now;

    let mut lineage = Lineage { cfg, parts: &parts };
    let mut passes = Vec::with_capacity(cfg.passes);
    let mut flow_seq = 0u64;
    for pass in 0..cfg.passes {
        let before = store.stats();
        let start = now;
        for m in pass_order(cfg, pass) {
            let at = now;
            let pre = store.stats();
            let access = store.get(m, now, &mut lineage)?;
            now = access.done_ns;
            if S::ENABLED {
                let part = ("partition", telemetry::AttrValue::from(m as u64));
                match access.outcome {
                    AccessOutcome::Hit => {
                        sink.count("store.hits", 1);
                        sink.instant(Instant {
                            entity: driver,
                            name: "hit",
                            t_ns: at,
                            attrs: vec![part],
                        });
                    }
                    AccessOutcome::DiskFetch => {
                        sink.count("store.disk_fetches", 1);
                        sink.span(Span {
                            entity: driver,
                            name: "read.fetch",
                            t0_ns: at,
                            t1_ns: now,
                            attrs: vec![part],
                        });
                        // Causal edge: the spill device's read feeds
                        // the driver's resume.
                        sink.flow(FlowEvent {
                            id: flow_seq,
                            name: "flow.spill",
                            src: EntityId { pid: DRIVER_PID, tid: T_DISK },
                            t0_ns: at,
                            dst: driver,
                            t1_ns: now,
                        });
                        flow_seq += 1;
                    }
                    AccessOutcome::Recomputed => {
                        sink.count("store.recomputes", 1);
                        sink.span(Span {
                            entity: driver,
                            name: "read.recompute",
                            t0_ns: at,
                            t1_ns: now,
                            attrs: vec![part],
                        });
                    }
                }
                book_store_deltas(sink, &pre, &store.stats(), now);
            }
            match access.outcome {
                // Serialized caching pays deserialization on every read;
                // recomputation hands over the live graph directly.
                AccessOutcome::Hit | AccessOutcome::DiskFetch => {
                    if S::ENABLED {
                        sink.span(Span {
                            entity: driver,
                            name: "deserialize",
                            t0_ns: now,
                            t1_ns: now + parts[m].de_ns,
                            attrs: vec![("partition", (m as u64).into())],
                        });
                    }
                    now += parts[m].de_ns;
                }
                AccessOutcome::Recomputed => {}
            }
        }
        let after = store.stats();
        if S::ENABLED {
            sink.observe("store.pass_ns", now - start);
        }
        passes.push(PassStats {
            hits: after.hits - before.hits,
            disk_fetches: after.disk_fetches - before.disk_fetches,
            recomputes: after.recomputes - before.recomputes,
            ns: now - start,
        });
    }

    if S::ENABLED {
        store.emit_disk_tape(sink, EntityId { pid: DRIVER_PID, tid: T_DISK });
        sink.count("store.disk_read_bytes", store.disk().read_bytes());
        sink.count("store.disk_write_bytes", store.disk().write_bytes());
        sink.count("store.disk_seeks", store.disk().seeks());
    }

    Ok(RddOutcome {
        dataset_bytes,
        budget_bytes,
        materialize_ns,
        passes,
        total_ns: now,
        store: store.stats(),
        disk_read_bytes: store.disk().read_bytes(),
        disk_write_bytes: store.disk().write_bytes(),
        disk_seeks: store.disk().seeks(),
        fold_ok,
    })
}
