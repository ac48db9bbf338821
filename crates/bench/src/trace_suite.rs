//! The telemetry demonstration run behind `--bin trace`: one traced
//! shuffle backend (checksums, GC pressure, map-side spill and fault
//! injection all on, so every instrumented path emits), one traced
//! cached-RDD workload under a tight memory budget, and one accelerator
//! round trip on its device lanes — all recorded into a single
//! [`Recorder`] — plus the reconciliation check that the trace's
//! counters agree with the untraced reports' numbers.
//!
//! Everything here is deterministic: the recorder's merged stream, the
//! Chrome trace rendered from it, and the metrics JSON are byte-
//! identical for any worker-thread count (test- and CI-enforced).

use cereal::Accelerator;
use sdheap::{Addr, Heap};
use shuffle::{run_backend_sunk, BackendRun, ShuffleConfig};
use store::{run_rdd_sunk, AccessPattern, MissPolicy, RddConfig, RddOutcome, DST_BASE};
use telemetry::ids::ACCEL_PID;
use telemetry::{Recon, Recorder};
use workloads::{MicroBench, Scale};

/// Seed for the injected faults (shared with the faults experiment so
/// the schedules are comparable).
pub const FAULT_SEED: u64 = 0xFA17_5EED;

/// Everything the traced demonstration produced.
pub struct TraceRun {
    /// The merged telemetry of all three sections.
    pub recorder: Recorder,
    /// The shuffle section's untraced-equivalent run.
    pub shuffle: BackendRun,
    /// The shuffle configuration that produced it.
    pub shuffle_cfg: ShuffleConfig,
    /// The cached-RDD section's untraced-equivalent outcome.
    pub rdd: RddOutcome,
}

/// The shuffle configuration the trace demonstrates: the smoke dataset
/// with checksummed frames, GC pressure, map-side spill and a 5% fault
/// sweep, on the accelerator backend (so accelerator counters, fallback
/// serialization and CPU op-class histograms all appear).
pub fn shuffle_cfg(jobs: usize) -> ShuffleConfig {
    let mut cfg = ShuffleConfig::smoke();
    cfg.jobs = jobs;
    cfg.checksum = true;
    cfg.gc_pressure = true;
    cfg.spill_bytes = cfg.flush_bytes;
    cfg.faults = Some(sim::FaultConfig::uniform(0.05, FAULT_SEED));
    cfg
}

/// The cached-RDD configuration the trace demonstrates: a tight budget
/// (hits, disk fetches, evictions and spills all fire) with checksummed
/// blocks and transient-fault injection.
pub fn rdd_cfg(jobs: usize) -> RddConfig {
    RddConfig {
        agg: workloads::AggConfig {
            mappers: 6,
            records_per_mapper: 128,
            distinct_keys: 64,
            seed: 0x5EED_B10C,
            skew: workloads::KeySkew::Uniform,
        },
        // The zero-copy backend: re-read passes charge validate-only
        // decode while the spans/counters still reconcile exactly.
        backend: store::Backend::Archive,
        memory_fraction: 0.4,
        passes: 3,
        policy: MissPolicy::Auto,
        disk: sim::DiskConfig::ssd(),
        access: AccessPattern::Scan,
        jobs,
        checksum: true,
        fault: Some(sim::FaultConfig::uniform(0.05, FAULT_SEED)),
    }
}

/// Runs the three traced sections into one recorder.
///
/// # Panics
/// Panics when any section fails — the demonstration runs recovered
/// fault schedules, so a failure is a telemetry-layer bug.
pub fn run(jobs: usize) -> TraceRun {
    let mut rec = Recorder::new();

    let scfg = shuffle_cfg(jobs);
    let shuffle =
        run_backend_sunk(&scfg, shuffle::Backend::Cereal, &mut rec).expect("traced shuffle");

    let rcfg = rdd_cfg(jobs);
    let rdd = run_rdd_sunk(&rcfg, &mut rec).expect("traced cached-RDD run");

    // Accelerator round trip on the device's own lanes: one SU
    // serialization, one DU deserialization.
    let (mut heap, reg, root) = MicroBench::ListSmall.build(Scale::Tiny);
    let mut accel = Accelerator::paper();
    accel.register_all(&reg).expect("register classes");
    let mut stream = Vec::new();
    accel
        .serialize_into_traced(&mut heap, &reg, root, &mut stream, &mut rec, ACCEL_PID)
        .expect("accelerator serialize");
    let mut dst = Heap::with_base(Addr(DST_BASE), heap.capacity_bytes());
    accel
        .deserialize_traced(&stream, &mut dst, &mut rec, ACCEL_PID)
        .expect("accelerator deserialize");

    TraceRun {
        recorder: rec,
        shuffle,
        shuffle_cfg: scfg,
        rdd,
    }
}

/// Cross-checks every exported counter that has a report-side twin.
/// Counters must match exactly; histogram sums (f64) to accumulation
/// tolerance. An all-green [`Recon`] is the acceptance criterion the
/// trace binary and the reconciliation test enforce.
pub fn reconcile(run: &TraceRun) -> Recon {
    let m = &run.recorder.metrics;
    let rep = &run.shuffle.report;
    let f = rep.faults.expect("trace shuffle runs with fault injection");
    let gc = rep.gc.expect("trace shuffle runs under GC pressure");
    let spill = rep.spill.expect("trace shuffle runs with map-side spill");
    let s = &run.rdd.store;

    let hsum = |name: &str| m.histogram(name).map_or(0.0, |h| h.sum);
    let mut r = Recon::new(1e-6);
    // Shuffle: booked at flush/decode/compose event sites, compared
    // against the report's independently summed totals.
    r.exact(
        "shuffle.messages",
        m.counter("shuffle.messages"),
        rep.messages,
    );
    r.exact(
        "shuffle.wire_bytes",
        m.counter("shuffle.wire_bytes"),
        rep.wire_bytes,
    );
    r.exact("shuffle.records", m.counter("shuffle.records"), rep.records);
    r.exact(
        "shuffle.backpressure_blocks",
        m.counter("shuffle.backpressure_blocks"),
        rep.net.backpressure_blocks,
    );
    r.exact(
        "shuffle.gc_collections",
        m.counter("shuffle.gc_collections"),
        gc.collections,
    );
    r.exact("shuffle.spills", m.counter("shuffle.spills"), spill.spills);
    r.exact(
        "shuffle.spilled_bytes",
        m.counter("shuffle.spilled_bytes"),
        spill.spilled_bytes,
    );
    r.exact(
        "shuffle.spill_fetches",
        m.counter("shuffle.spill_fetches"),
        spill.fetches,
    );
    r.exact("shuffle.retries", m.counter("shuffle.retries"), f.retries);
    r.exact(
        "shuffle.lost_messages",
        m.counter("shuffle.lost_messages"),
        f.lost_messages,
    );
    r.exact(
        "shuffle.wire_corruptions",
        m.counter("shuffle.wire_corruptions"),
        f.wire_corruptions,
    );
    r.exact(
        "shuffle.checksum_errors",
        m.counter("shuffle.checksum_errors"),
        f.checksum_errors,
    );
    r.exact(
        "shuffle.mapper_deaths",
        m.counter("shuffle.mapper_deaths"),
        f.mapper_deaths,
    );
    r.exact(
        "shuffle.accel_faults",
        m.counter("shuffle.accel_faults"),
        f.accel_faults,
    );
    r.exact(
        "shuffle.spill_retries",
        m.counter("shuffle.spill_retries"),
        f.spill_retries,
    );
    r.exact(
        "shuffle.fabric_bytes",
        m.counter("shuffle.fabric_bytes"),
        f.fabric_bytes,
    );
    r.close(
        "shuffle.ser_busy_ns",
        hsum("shuffle.ser_busy_ns"),
        rep.ser_busy_ns,
    );
    r.close(
        "shuffle.de_busy_ns",
        hsum("shuffle.de_busy_ns"),
        rep.de_busy_ns,
    );
    r.close(
        "shuffle.gc_pause_ns",
        hsum("shuffle.gc_pause_ns"),
        gc.pause_ns,
    );
    // Store: hit/miss counters booked per access, evictions and
    // spills as per-operation deltas.
    r.exact("store.hits", m.counter("store.hits"), s.hits);
    r.exact(
        "store.disk_fetches",
        m.counter("store.disk_fetches"),
        s.disk_fetches,
    );
    r.exact(
        "store.recomputes",
        m.counter("store.recomputes"),
        s.recomputes,
    );
    r.exact("store.evictions", m.counter("store.evictions"), s.evictions);
    r.exact(
        "store.evicted_bytes",
        m.counter("store.evicted_bytes"),
        s.evicted_bytes,
    );
    r.exact("store.spills", m.counter("store.spills"), s.spills);
    r.exact(
        "store.spilled_bytes",
        m.counter("store.spilled_bytes"),
        s.spilled_bytes,
    );
    r.exact(
        "store.read_retries",
        m.counter("store.read_retries"),
        s.read_retries,
    );
    r.exact(
        "store.checksum_errors",
        m.counter("store.checksum_errors"),
        s.checksum_errors,
    );
    r.exact(
        "store.disk_read_bytes",
        m.counter("store.disk_read_bytes"),
        run.rdd.disk_read_bytes,
    );
    r.exact(
        "store.disk_write_bytes",
        m.counter("store.disk_write_bytes"),
        run.rdd.disk_write_bytes,
    );
    r.exact(
        "store.disk_seeks",
        m.counter("store.disk_seeks"),
        run.rdd.disk_seeks,
    );
    // Accelerator requests: one per non-faulted shuffle batch on each
    // side (faulted batches degrade to the software fallback), plus the
    // demonstration round trip.
    let accel_batches = rep.messages - f.accel_faults;
    r.exact(
        "accel.ser_requests",
        m.counter("accel.ser_requests"),
        accel_batches + 1,
    );
    r.exact(
        "accel.de_requests",
        m.counter("accel.de_requests"),
        accel_batches + 1,
    );
    r
}
