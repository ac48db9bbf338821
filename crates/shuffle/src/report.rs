//! Shuffle reports and their JSON rendering.
//!
//! Every field is derived from simulated clocks and deterministic
//! counters — nothing wall-clock, nothing machine-dependent — so the
//! rendered JSON is byte-identical across runs and job counts. All
//! rendering goes through the workspace's one [`JsonWriter`].

use crate::exec::{GcTotals, SpillTotals};
use crate::faults::FaultTotals;
use crate::timeline::NetStats;
use crate::ShuffleConfig;
use store::Backend;
use telemetry::{per_sec, JsonWriter};

/// One backend's end-to-end shuffle measurements.
#[derive(Clone, Debug)]
pub struct BackendReport {
    /// Backend display name.
    pub name: &'static str,
    /// Serialized batches shipped.
    pub messages: u64,
    /// Total wire bytes.
    pub wire_bytes: u64,
    /// Records shuffled.
    pub records: u64,
    /// Summed serialization busy time across mappers.
    pub ser_busy_ns: f64,
    /// Slowest mapper's completion (serialization + GC pauses).
    pub map_makespan_ns: f64,
    /// Summed deserialization busy time across reducers.
    pub de_busy_ns: f64,
    /// Fabric and flow-control statistics.
    pub net: NetStats,
    /// GC activity summed over mappers (`None` when GC pressure is off).
    pub gc: Option<GcTotals>,
    /// Spill activity summed over mappers (`None` when spilling is off).
    pub spill: Option<SpillTotals>,
    /// Fault and recovery counters (`None` when injection is off; the
    /// field renders only when set, so fault-free reports stay
    /// byte-identical to the pre-fault service).
    pub faults: Option<FaultTotals>,
    /// FNV-1a digest of the merged `(key, count, sum)` aggregate —
    /// identical across backends, coalescing settings and job counts.
    pub fold_checksum: u64,
}

impl BackendReport {
    /// Records per second of end-to-end simulated time.
    pub fn records_per_sec(&self) -> f64 {
        per_sec(self.records, self.net.makespan_ns)
    }

    fn render(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.field_str("name", self.name);
        w.field_u64("messages", self.messages);
        w.field_u64("wire_bytes", self.wire_bytes);
        w.field_u64("records", self.records);
        w.field_f64("ser_busy_ns", self.ser_busy_ns, 3);
        w.field_f64("map_makespan_ns", self.map_makespan_ns, 3);
        w.field_f64("de_busy_ns", self.de_busy_ns, 3);
        w.field_f64("net_ns", self.net.net_ns, 3);
        w.field_f64("makespan_ns", self.net.makespan_ns, 3);
        w.field_f64("records_per_sec", self.records_per_sec(), 1);
        w.field_u64("backpressure_blocks", self.net.backpressure_blocks);
        w.field_f64("backpressure_wait_ns", self.net.backpressure_wait_ns, 3);
        w.field_f64("ingress_utilization", self.net.ingress_utilization, 4);
        w.key("gc");
        match &self.gc {
            None => w.null_val(),
            Some(g) => {
                w.begin_obj();
                w.field_u64("collections", g.collections);
                w.field_f64("pause_ns", g.pause_ns, 3);
                w.field_u64("reclaimed_bytes", g.reclaimed_bytes);
                w.field_u64("live_bytes", g.live_bytes);
                w.end_obj();
            }
        }
        w.key("spill");
        match &self.spill {
            None => w.null_val(),
            Some(s) => {
                w.begin_obj();
                w.field_u64("spills", s.spills);
                w.field_u64("spilled_bytes", s.spilled_bytes);
                w.field_f64("spill_ns", s.spill_ns, 3);
                w.field_u64("fetches", s.fetches);
                w.field_f64("fetch_ns", s.fetch_ns, 3);
                w.end_obj();
            }
        }
        // Rendered only for fault-injected runs: fault-free JSON stays
        // free of the fault block.
        if let Some(f) = &self.faults {
            w.key("faults");
            w.begin_obj();
            w.field_u64("retries", f.retries);
            w.field_u64("lost_messages", f.lost_messages);
            w.field_u64("wire_corruptions", f.wire_corruptions);
            w.field_u64("checksum_errors", f.checksum_errors);
            w.field_u64("mapper_deaths", f.mapper_deaths);
            w.field_f64("reexec_ns", f.reexec_ns, 3);
            w.field_u64("accel_faults", f.accel_faults);
            w.field_f64("fallback_ns", f.fallback_ns, 3);
            w.field_u64("spill_retries", f.spill_retries);
            w.field_f64("recovery_ns", f.recovery_ns, 3);
            w.field_u64("fabric_bytes", f.fabric_bytes);
            w.field_f64("goodput", f.goodput(self.wire_bytes), 6);
            w.end_obj();
        }
        w.field_str("fold_checksum", &format!("{:016x}", self.fold_checksum));
        w.end_obj();
    }
}

/// A full suite run: configuration plus one report per backend.
#[derive(Clone, Debug)]
pub struct ShuffleReport {
    /// The configuration that produced these numbers.
    pub config: ShuffleConfig,
    /// Per-backend results in run order.
    pub backends: Vec<BackendReport>,
}

impl ShuffleReport {
    /// Renders the report as deterministic JSON (job count and wall
    /// clock deliberately excluded).
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("generated_by", "shuffle service");
        w.key("config");
        w.begin_obj();
        w.field_u64("mappers", c.mappers as u64);
        w.field_u64("reducers", c.reducers as u64);
        w.field_u64("records_per_mapper", c.records_per_mapper as u64);
        w.field_u64("distinct_keys", c.distinct_keys);
        w.field_u64("seed", c.seed);
        w.field_str("skew", &c.skew.label());
        w.field_u64("flush_bytes", c.flush_bytes);
        w.field_u64("watermark_bytes", c.watermark_bytes);
        w.field_u64("spill_bytes", c.spill_bytes);
        w.field_str("link", c.link_name);
        w.field_bool("gc_pressure", c.gc_pressure);
        w.field_u64("gc_waves", c.gc_waves as u64);
        // Appended only when checksums or fault injection are on, so the
        // fault-free config block stays free of the fault fields.
        if c.checksum || c.faults.is_some() {
            w.field_bool("checksum", c.checksum);
            if let Some(f) = &c.faults {
                w.field_u64("fault_seed", f.seed);
                w.field_str("fallback", Backend::FALLBACK.name());
                w.key("rates");
                w.begin_obj();
                for (name, rate) in [
                    ("wire_corruption", f.wire_corruption),
                    ("link_loss", f.link_loss),
                    ("disk_read_error", f.disk_read_error),
                    ("mapper_death", f.mapper_death),
                    ("accel_fault", f.accel_fault),
                    ("spill_corruption", f.spill_corruption),
                ] {
                    w.key(name);
                    // `Display` keeps the configured probability exact
                    // (0.02, not 0.020000).
                    w.raw_val(&format!("{rate}"));
                }
                w.end_obj();
            }
        }
        w.end_obj();
        w.key("backends");
        w.begin_arr();
        for b in &self.backends {
            b.render(&mut w);
        }
        w.end_arr();
        w.end_obj();
        let mut out = w.finish();
        out.push('\n');
        out
    }
}

/// FNV-1a over the merged aggregate, for cross-backend/cross-run
/// equality checks that survive JSON round trips. Public because the
/// cluster scheduler digests job folds with the same function, so its
/// checksums are comparable to shuffle-report checksums.
pub fn fold_checksum(fold: &workloads::Fold) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_be_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for (&k, &(count, sum)) in fold {
        mix(k);
        mix(count);
        mix(sum.to_bits());
    }
    h
}
