//! The telemetry experiment (`cargo run --release --bin trace`).
//!
//! Runs the traced demonstration suite — a fault-injected shuffle on
//! the accelerator backend, a tight-budget cached-RDD workload, and an
//! accelerator round trip — through one [`telemetry::Recorder`], then:
//!
//! * writes the Chrome trace-event JSON (load it in Perfetto or
//!   `chrome://tracing`) to `target/trace.json` (or `--trace-out`);
//! * writes `BENCH_TRACE.json` (or `--out`): the metrics registry plus
//!   the counter-reconciliation table against the untraced reports;
//! * exits non-zero if any exported counter disagrees with its
//!   report-side twin.
//!
//! Both files are byte-identical for any `--jobs` value (CI diffs a
//! 1-job run against a 4-job run).
//!
//! Flags: `--jobs N` (worker threads), `--out PATH`,
//! `--trace-out PATH`.

use cereal_bench::trace_suite;
use telemetry::{chrome_trace, JsonWriter};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs = cereal_bench::jobs_arg(&args);
    let out_path = cereal_bench::out_path(&args, "BENCH_TRACE.json");
    let trace_path = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "target/trace.json".to_string());

    eprintln!("trace: running traced shuffle + store + accelerator, {jobs} jobs");
    let run = trace_suite::run(jobs);
    let rec = &run.recorder;
    eprintln!(
        "trace: {} spans, {} instants, {} processes",
        rec.spans.len(),
        rec.instants.len(),
        rec.process_names.len()
    );

    let trace = chrome_trace(rec);
    if let Some(dir) = std::path::Path::new(&trace_path).parent() {
        std::fs::create_dir_all(dir).expect("create trace dir");
    }
    std::fs::write(&trace_path, &trace).expect("write chrome trace");
    println!("wrote {trace_path}");

    let recon = trace_suite::reconcile(&run);
    recon.eprint_failures("trace");
    eprintln!("trace: {}/{} counters reconcile", recon.passed(), recon.total());

    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("generated_by", "cereal-bench --bin trace");
    w.field_u64("spans", rec.spans.len() as u64);
    w.field_u64("instants", rec.instants.len() as u64);
    w.field_u64("processes", rec.process_names.len() as u64);
    w.field_bool("reconciled", recon.all_ok());
    w.key("reconciliation");
    recon.render(&mut w);
    w.key("metrics");
    w.raw_val(&rec.metrics.to_json());
    w.end_obj();
    let mut json = w.finish();
    json.push('\n');
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if !recon.all_ok() {
        eprintln!("trace: {} counters FAILED to reconcile", recon.failures());
        std::process::exit(1);
    }
}
