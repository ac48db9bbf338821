//! The fault-injection experiment (`cargo run --release --bin faults`).
//!
//! Sweeps fault rates across shuffle backends (wire loss/corruption,
//! mapper deaths, accelerator faults, spill read errors — all injected
//! at once at the sweep rate) and across the block store (transient
//! read errors and spill-image corruption), then writes
//! `BENCH_FAULTS.json` with the recovery economics: goodput, retry
//! counts, re-executed maps, the share of the makespan spent
//! recovering, and the makespan inflation against the fault-free
//! baseline. Every number is simulated time or a deterministic counter,
//! and every fault draw comes from streams scoped by stable entity ids,
//! so the file is byte-identical for any `--jobs` value (CI diffs a
//! 1-job run against a 4-job run).
//!
//! The rate-0.0 sweep point doubles as a self-check: the harness
//! asserts it reproduces the fault-free baseline's numbers exactly.
//!
//! Flags: `--smoke` (small config), `--jobs N` (worker threads),
//! `--out PATH` (default `BENCH_FAULTS.json`).

use cereal_bench::table::{ns, Table};
use shuffle::{run_backend_sunk, Backend, FaultSpec, ShuffleConfig};
use sim::FaultConfig;
use store::{run_rdd_sunk, AccessPattern, MissPolicy, RddConfig};
use telemetry::{ratio, JsonWriter, NoopSink};
use workloads::{AggConfig, KeySkew};

const FAULT_SEED: u64 = 0xFA17_5EED;

/// Writes a fault rate with `Display` precision (0.05, not 0.050000).
fn rate_field(w: &mut JsonWriter, k: &str, rate: f64) {
    w.key(k);
    w.raw_val(&format!("{rate}"));
}

struct ShuffleRow {
    backend: &'static str,
    rate: f64,
    report: shuffle::BackendReport,
    baseline_makespan_ns: f64,
}

impl ShuffleRow {
    fn render(&self, w: &mut JsonWriter) {
        let f = self.report.faults.expect("sweep rows carry fault counters");
        w.begin_obj();
        w.field_str("backend", self.backend);
        rate_field(w, "rate", self.rate);
        w.field_f64("makespan_ns", self.report.net.makespan_ns, 3);
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
        w.field_f64("goodput", f.goodput(self.report.wire_bytes), 6);
        w.field_f64("recovery_share", ratio(f.recovery_ns, self.report.net.makespan_ns), 6);
        w.field_f64(
            "makespan_inflation",
            ratio(self.report.net.makespan_ns, self.baseline_makespan_ns),
            6,
        );
        w.field_str("fold_checksum", &format!("{:016x}", self.report.fold_checksum));
        w.end_obj();
    }
}

struct StoreRow {
    rate: f64,
    total_ns: f64,
    stats: store::StoreStats,
    baseline_total_ns: f64,
}

impl StoreRow {
    fn render(&self, w: &mut JsonWriter) {
        let s = &self.stats;
        w.begin_obj();
        rate_field(w, "rate", self.rate);
        w.field_f64("total_ns", self.total_ns, 3);
        w.field_u64("read_retries", s.read_retries);
        w.field_f64("retry_ns", s.retry_ns, 3);
        w.field_u64("checksum_errors", s.checksum_errors);
        w.field_u64("recomputes", s.recomputes);
        w.field_u64("disk_fetches", s.disk_fetches);
        w.field_f64("total_inflation", ratio(self.total_ns, self.baseline_total_ns), 6);
        w.end_obj();
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let jobs = cereal_bench::jobs_arg(&args);
    let out_path = cereal_bench::out_path(&args, "BENCH_FAULTS.json");

    let rates: &[f64] = if smoke { &[0.0, 0.05] } else { &[0.0, 0.01, 0.05, 0.15] };
    let backends = [Backend::Kryo, Backend::Archive, Backend::Cereal];

    // ---- Shuffle sweep -------------------------------------------------
    // Checksummed frames throughout (wire corruption must be
    // detectable); map-side spilling on so disk read errors fire too.
    let mut shuffle_cfg = if smoke { ShuffleConfig::smoke() } else { ShuffleConfig::full() };
    shuffle_cfg.jobs = jobs;
    shuffle_cfg.checksum = true;
    shuffle_cfg.spill_bytes = shuffle_cfg.flush_bytes;
    eprintln!(
        "faults: shuffle {} mappers x {} records -> {} reducers, rates {rates:?}, {jobs} jobs",
        shuffle_cfg.mappers, shuffle_cfg.records_per_mapper, shuffle_cfg.reducers
    );

    let mut shuffle_rows: Vec<ShuffleRow> = Vec::new();
    let mut baselines: Vec<(&'static str, f64, u64, u64)> = Vec::new();
    for backend in backends {
        let base_run = run_backend_sunk(&shuffle_cfg, backend, &mut NoopSink).unwrap_or_else(|e| {
            eprintln!("fault-free {} run failed: {e}", backend.name());
            std::process::exit(1);
        });
        let base = base_run.report;
        baselines.push((base.name, base.net.makespan_ns, base.wire_bytes, base.fold_checksum));
        for &rate in rates {
            let mut cfg = shuffle_cfg;
            cfg.faults = Some(FaultSpec::uniform(rate, FAULT_SEED));
            let run = run_backend_sunk(&cfg, backend, &mut NoopSink).unwrap_or_else(|e| {
                eprintln!("{} at rate {rate} failed: {e}", backend.name());
                std::process::exit(1);
            });
            assert_eq!(
                run.report.fold_checksum, base.fold_checksum,
                "{} at rate {rate}: recovery must preserve the aggregate",
                backend.name()
            );
            if rate == 0.0 {
                // Self-check: zero-rate injection is the fault-free path.
                assert_eq!(run.report.wire_bytes, base.wire_bytes);
                assert_eq!(run.report.messages, base.messages);
                assert_eq!(run.report.net, base.net);
            }
            shuffle_rows.push(ShuffleRow {
                backend: backend.name(),
                rate,
                report: run.report,
                baseline_makespan_ns: base.net.makespan_ns,
            });
        }
    }

    let mut t = Table::new(&[
        "backend", "rate", "retries", "lost", "corrupt", "deaths", "accel", "spill",
        "goodput", "recovery", "makespan", "x base",
    ]);
    for r in &shuffle_rows {
        let f = r.report.faults.expect("sweep rows carry fault counters");
        t.row(vec![
            r.backend.to_string(),
            format!("{}", r.rate),
            f.retries.to_string(),
            f.lost_messages.to_string(),
            f.wire_corruptions.to_string(),
            f.mapper_deaths.to_string(),
            f.accel_faults.to_string(),
            f.spill_retries.to_string(),
            format!("{:.3}", f.goodput(r.report.wire_bytes)),
            ns(f.recovery_ns),
            ns(r.report.net.makespan_ns),
            format!("{:.2}", r.report.net.makespan_ns / r.baseline_makespan_ns),
        ]);
    }
    eprintln!("{}", t.render());

    // ---- Block-store sweep ---------------------------------------------
    // A tight budget forces spill-and-reload, so transient read errors
    // and corrupt spill images (recovered through lineage) both fire.
    let (partitions, records, passes) = if smoke { (6, 128, 3) } else { (12, 1024, 4) };
    let store_cfg = RddConfig {
        agg: AggConfig {
            mappers: partitions,
            records_per_mapper: records,
            distinct_keys: 64,
            seed: 0x5EED_B10C,
            skew: KeySkew::Uniform,
        },
        backend: store::Backend::Kryo,
        memory_fraction: 0.25,
        passes,
        policy: MissPolicy::Fetch,
        disk: sim::DiskConfig::ssd(),
        access: AccessPattern::Scan,
        jobs,
        checksum: true,
        fault: None,
    };
    let base = run_rdd_sunk(&store_cfg, &mut NoopSink).unwrap_or_else(|e| {
        eprintln!("fault-free store run failed: {e}");
        std::process::exit(1);
    });
    assert!(base.fold_ok, "fault-free store run must fold correctly");

    let mut store_rows: Vec<StoreRow> = Vec::new();
    for &rate in rates {
        let mut cfg = store_cfg.clone();
        cfg.fault = Some(FaultConfig::uniform(rate, FAULT_SEED));
        let out = run_rdd_sunk(&cfg, &mut NoopSink).unwrap_or_else(|e| {
            eprintln!("store at rate {rate} failed: {e}");
            std::process::exit(1);
        });
        assert!(out.fold_ok, "store at rate {rate}: recovery must preserve the fold");
        if rate == 0.0 {
            assert_eq!(out.total_ns, base.total_ns, "zero-rate store run is fault-free");
            assert_eq!(out.store, base.store);
        }
        store_rows.push(StoreRow {
            rate,
            total_ns: out.total_ns,
            stats: out.store,
            baseline_total_ns: base.total_ns,
        });
    }

    let mut t = Table::new(&["rate", "retries", "crc errs", "recomp", "fetches", "total", "x base"]);
    for r in &store_rows {
        t.row(vec![
            format!("{}", r.rate),
            r.stats.read_retries.to_string(),
            r.stats.checksum_errors.to_string(),
            r.stats.recomputes.to_string(),
            r.stats.disk_fetches.to_string(),
            ns(r.total_ns),
            format!("{:.2}", r.total_ns / r.baseline_total_ns),
        ]);
    }
    eprintln!("{}", t.render());

    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("generated_by", "cereal-bench --bin faults");
    w.field_bool("smoke", smoke);
    w.field_u64("fault_seed", FAULT_SEED);
    w.key("rates");
    w.begin_arr();
    for &rate in rates {
        w.raw_val(&format!("{rate}"));
    }
    w.end_arr();
    w.key("shuffle_baseline");
    w.begin_arr();
    for &(name, makespan_ns, wire_bytes, fold_checksum) in &baselines {
        w.begin_obj();
        w.field_str("backend", name);
        w.field_f64("makespan_ns", makespan_ns, 3);
        w.field_u64("wire_bytes", wire_bytes);
        w.field_str("fold_checksum", &format!("{fold_checksum:016x}"));
        w.end_obj();
    }
    w.end_arr();
    w.key("shuffle_sweep");
    w.begin_arr();
    for r in &shuffle_rows {
        r.render(&mut w);
    }
    w.end_arr();
    w.key("store_baseline");
    w.begin_obj();
    w.field_f64("total_ns", base.total_ns, 3);
    w.field_u64("disk_fetches", base.store.disk_fetches);
    w.end_obj();
    w.key("store_sweep");
    w.begin_arr();
    for r in &store_rows {
        r.render(&mut w);
    }
    w.end_arr();
    w.end_obj();
    let mut json = w.finish();
    json.push('\n');
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");
}
