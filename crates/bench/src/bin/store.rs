//! The block-store experiment (`cargo run --release --bin store`).
//!
//! Runs the iterative cached-RDD workload through the block manager:
//! every requested backend at several memory-budget fractions (scan
//! access, auto policy, SSD), a policy-crossover section (HDD vs NVMe ×
//! fetch/recompute/auto), and a Zipf-skewed re-read section — then
//! writes `BENCH_STORE.json`. Every number in the JSON is simulated
//! time or a deterministic counter — the file is byte-identical for any
//! `--jobs` value (CI diffs a 1-job run against a 4-job run).
//!
//! Flags: `--smoke` (small config), `--jobs N` (worker threads),
//! `--out PATH` (default `BENCH_STORE.json`).

use cereal_bench::table::{ns, Table};
use store::{run_suite, AccessPattern, Backend, MissPolicy, RddConfig, StoreReport};
use workloads::{AggConfig, KeySkew};

fn summarize(report: &StoreReport) {
    let mut t = Table::new(&[
        "backend", "frac", "policy", "disk", "access", "hits", "fetch", "recomp", "evict", "total",
    ]);
    for r in &report.runs {
        let o = &r.outcome;
        t.row(vec![
            r.backend.to_string(),
            format!("{:.2}", r.memory_fraction),
            r.policy.to_string(),
            r.disk.to_string(),
            r.access.clone(),
            o.store.hits.to_string(),
            o.store.disk_fetches.to_string(),
            o.store.recomputes.to_string(),
            o.store.evictions.to_string(),
            ns(o.total_ns),
        ]);
    }
    eprintln!("{}", t.render());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let jobs = cereal_bench::jobs_arg(&args);
    let out_path = cereal_bench::out_path(&args, "BENCH_STORE.json");

    let (partitions, records, passes) = if smoke { (6, 128, 3) } else { (12, 1024, 4) };
    let base = RddConfig {
        agg: AggConfig {
            mappers: partitions,
            records_per_mapper: records,
            distinct_keys: 64,
            seed: 0x5EED_B10C,
            skew: KeySkew::Uniform,
        },
        backend: Backend::Kryo,
        memory_fraction: 1.0,
        passes,
        policy: MissPolicy::Auto,
        disk: sim::DiskConfig::ssd(),
        access: AccessPattern::Scan,
        jobs,
        checksum: false,
        fault: None,
    };
    let backends = [
        Backend::Java,
        Backend::Kryo,
        Backend::Skyway,
        Backend::Archive,
        Backend::Cereal,
    ];
    let fractions = [0.25, 0.5, 1.0];
    eprintln!("store: {partitions} partitions x {records} records, {passes} passes, {jobs} jobs");

    let report = match run_suite(&base, &backends, &fractions) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("store suite failed: {e}");
            std::process::exit(1);
        }
    };
    summarize(&report);

    let json = report.to_json();
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");
}
