//! Store-suite reports and their JSON rendering.
//!
//! Every field is derived from simulated clocks and deterministic
//! counters — nothing wall-clock, nothing machine-dependent — so the
//! rendered JSON is byte-identical across runs and job counts
//! (test- and CI-enforced for `--jobs 1` vs `--jobs 4`). All rendering
//! goes through the workspace's one [`JsonWriter`].

use crate::block::StoreError;
use crate::rdd::{run_rdd_sunk, AccessPattern, RddConfig, RddOutcome};
use telemetry::{JsonWriter, NoopSink};

/// One cached-RDD run: the knobs that varied plus the outcome.
pub struct RunRecord {
    /// Backend display name.
    pub backend: &'static str,
    /// Memory budget as a fraction of the serialized dataset.
    pub memory_fraction: f64,
    /// Policy display name.
    pub policy: &'static str,
    /// Spill-device display name.
    pub disk: &'static str,
    /// Access-pattern label.
    pub access: String,
    /// Whether the run used checksummed frames or fault injection (the
    /// fault fields render only when set, so fault-free reports stay
    /// byte-identical to the pre-fault harness).
    pub faulted: bool,
    /// The run's measurements.
    pub outcome: RddOutcome,
}

impl RunRecord {
    /// Runs one configuration and records it.
    ///
    /// # Errors
    /// Propagates [`StoreError`] from unrecoverable faulted accesses.
    pub fn run(cfg: &RddConfig) -> Result<RunRecord, StoreError> {
        Ok(RunRecord {
            backend: cfg.backend.name(),
            memory_fraction: cfg.memory_fraction,
            policy: cfg.policy.name(),
            disk: cfg.disk.name,
            access: cfg.access.label(),
            faulted: cfg.checksum || cfg.fault.is_some_and(|f| f.enabled()),
            outcome: run_rdd_sunk(cfg, &mut NoopSink)?,
        })
    }

    fn render(&self, w: &mut JsonWriter) {
        let o = &self.outcome;
        let s = &o.store;
        w.begin_obj();
        w.field_str("backend", self.backend);
        w.field_f64("memory_fraction", self.memory_fraction, 2);
        w.field_str("policy", self.policy);
        w.field_str("disk", self.disk);
        w.field_str("access", &self.access);
        w.field_u64("dataset_bytes", o.dataset_bytes);
        w.field_u64("budget_bytes", o.budget_bytes);
        w.field_u64("hits", s.hits);
        w.field_u64("disk_fetches", s.disk_fetches);
        w.field_u64("recomputes", s.recomputes);
        w.field_u64("evictions", s.evictions);
        w.field_u64("evicted_bytes", s.evicted_bytes);
        w.field_u64("spills", s.spills);
        w.field_u64("spilled_bytes", s.spilled_bytes);
        w.field_u64("disk_read_bytes", o.disk_read_bytes);
        w.field_u64("disk_write_bytes", o.disk_write_bytes);
        w.field_u64("disk_seeks", o.disk_seeks);
        w.field_f64("materialize_ns", o.materialize_ns, 3);
        w.field_f64("total_ns", o.total_ns, 3);
        w.field_bool("fold_ok", o.fold_ok);
        // Appended only for faulted/checksummed runs: fault-free JSON
        // stays free of the fault fields.
        if self.faulted {
            w.field_u64("read_retries", s.read_retries);
            w.field_f64("retry_ns", s.retry_ns, 3);
            w.field_u64("checksum_errors", s.checksum_errors);
        }
        w.key("passes");
        w.begin_arr();
        for p in &o.passes {
            w.begin_obj();
            w.field_u64("hits", p.hits);
            w.field_u64("disk_fetches", p.disk_fetches);
            w.field_u64("recomputes", p.recomputes);
            w.field_f64("ns", p.ns, 3);
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
}

/// A full store-suite run.
pub struct StoreReport {
    /// Dataset partitions (= mappers).
    pub partitions: usize,
    /// Records per partition.
    pub records_per_partition: usize,
    /// Distinct aggregation keys.
    pub distinct_keys: u64,
    /// Dataset seed.
    pub seed: u64,
    /// Re-read passes per run.
    pub passes: usize,
    /// The runs, in matrix order.
    pub runs: Vec<RunRecord>,
}

impl StoreReport {
    /// Renders the report as deterministic JSON (job count and wall
    /// clock deliberately excluded).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("generated_by", "block store suite");
        w.key("config");
        w.begin_obj();
        w.field_u64("partitions", self.partitions as u64);
        w.field_u64("records_per_partition", self.records_per_partition as u64);
        w.field_u64("distinct_keys", self.distinct_keys);
        w.field_u64("seed", self.seed);
        w.field_u64("passes", self.passes as u64);
        w.end_obj();
        w.key("runs");
        w.begin_arr();
        for r in &self.runs {
            r.render(&mut w);
        }
        w.end_arr();
        w.end_obj();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

/// The standard suite matrix: every requested backend at every memory
/// fraction (scan access, auto policy, SSD), then a policy-crossover
/// section (HDD vs NVMe × fetch/recompute/auto on Kryo), then a
/// skewed-re-read section showing the hit-rate gradient under Zipf
/// access.
pub fn run_suite(
    base: &RddConfig,
    backends: &[crate::Backend],
    fractions: &[f64],
) -> Result<StoreReport, StoreError> {
    let mut runs = Vec::new();
    for &backend in backends {
        for &frac in fractions {
            runs.push(RunRecord::run(&RddConfig {
                backend,
                memory_fraction: frac,
                ..*base
            })?);
        }
    }
    // Policy crossover: a slow-seek device flips the auto policy to
    // recomputation, a fast one to fetching.
    for disk in [sim::DiskConfig::hdd(), sim::DiskConfig::nvme()] {
        for policy in [
            crate::MissPolicy::Fetch,
            crate::MissPolicy::Recompute,
            crate::MissPolicy::Auto,
        ] {
            runs.push(RunRecord::run(&RddConfig {
                backend: crate::Backend::Kryo,
                memory_fraction: 0.5,
                policy,
                disk,
                ..*base
            })?);
        }
    }
    // Skewed re-reads: hot partitions stay resident, the tail thrashes.
    for &frac in fractions {
        runs.push(RunRecord::run(&RddConfig {
            backend: crate::Backend::Kryo,
            memory_fraction: frac,
            access: AccessPattern::Zipf(1.1),
            ..*base
        })?);
    }
    Ok(StoreReport {
        partitions: base.agg.mappers,
        records_per_partition: base.agg.records_per_mapper,
        distinct_keys: base.agg.distinct_keys,
        seed: base.agg.seed,
        passes: base.passes,
        runs,
    })
}
