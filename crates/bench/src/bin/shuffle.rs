//! The shuffle-service experiment (`cargo run --release --bin shuffle`).
//!
//! Runs the Spark-like aggregation workload through the multi-executor
//! shuffle service for every software serializer and the Cereal
//! accelerator, then once more under GC pressure, and writes
//! `BENCH_SHUFFLE.json`. Every number in the JSON is simulated time or a
//! deterministic counter — the file is byte-identical for any `--jobs`
//! value (CI diffs a 1-job run against a 4-job run).
//!
//! Flags: `--smoke` (small config), `--jobs N` (worker threads),
//! `--out PATH` (default `BENCH_SHUFFLE.json`).

use cereal_bench::table::{ns, Table};
use shuffle::{run_suite, Backend, ShuffleConfig, ShuffleReport};
use telemetry::json::nest;

fn summarize(title: &str, report: &ShuffleReport) {
    eprintln!("{title}");
    let mut t = Table::new(&[
        "backend",
        "msgs",
        "wire KB",
        "ser busy",
        "de busy",
        "net",
        "makespan",
        "Mrec/s",
        "blocks",
        "gc pause",
    ]);
    for b in &report.backends {
        t.row(vec![
            b.name.to_string(),
            b.messages.to_string(),
            format!("{}", b.wire_bytes >> 10),
            ns(b.ser_busy_ns),
            ns(b.de_busy_ns),
            ns(b.net.net_ns),
            ns(b.net.makespan_ns),
            format!("{:.2}", b.records_per_sec() / 1e6),
            b.net.backpressure_blocks.to_string(),
            b.gc.map_or("-".into(), |g| ns(g.pause_ns)),
        ]);
    }
    eprintln!("{}", t.render());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let jobs = cereal_bench::jobs_arg(&args);
    let out_path = cereal_bench::out_path(&args, "BENCH_SHUFFLE.json");

    let mut cfg = if smoke { ShuffleConfig::smoke() } else { ShuffleConfig::full() };
    cfg.jobs = jobs;
    eprintln!(
        "shuffle: {} mappers x {} records -> {} reducers over {}, {} jobs",
        cfg.mappers, cfg.records_per_mapper, cfg.reducers, cfg.link_name, cfg.jobs
    );

    // Main sweep: every backend, GC pressure off.
    let main = run_suite(&cfg, Backend::ALL).unwrap_or_else(|e| {
        eprintln!("shuffle suite failed: {e}");
        std::process::exit(1);
    });
    summarize("all backends:", &main);

    // GC-pressure sweep: the fastest software baseline and the
    // accelerator, with collections between record waves.
    let mut gc_cfg = cfg;
    gc_cfg.gc_pressure = true;
    let gc = run_suite(&gc_cfg, &[Backend::Kryo, Backend::Cereal]).unwrap_or_else(|e| {
        eprintln!("shuffle gc suite failed: {e}");
        std::process::exit(1);
    });
    summarize("under GC pressure:", &gc);

    let json = format!(
        "{{\n\
         \x20 \"generated_by\": \"cereal-bench --bin shuffle\",\n\
         \x20 \"smoke\": {smoke},\n\
         \x20 \"main\": {},\n\
         \x20 \"gc_pressure\": {}\n\
         }}\n",
        nest(&main.to_json()),
        nest(&gc.to_json()),
    );
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");
}
