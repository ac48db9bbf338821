//! The telemetry layer's two acceptance properties, on the real
//! demonstration suite:
//!
//! 1. **thread-count determinism** — the merged trace (Chrome JSON and
//!    metrics JSON) is byte-identical for 1 and 4 worker threads;
//! 2. **counter reconciliation** — every exported counter with a
//!    report-side twin matches it (exactly for counters, to
//!    accumulation tolerance for histogram sums);
//!
//! plus the guarantee that tracing never perturbs the simulation: the
//! traced run's report equals the untraced run's.

use cereal_bench::trace_suite;
use telemetry::{chrome_trace, NoopSink};

#[test]
fn trace_is_byte_identical_across_job_counts() {
    let one = trace_suite::run(1);
    let four = trace_suite::run(4);
    assert_eq!(
        chrome_trace(&one.recorder),
        chrome_trace(&four.recorder),
        "chrome trace differs between 1 and 4 jobs"
    );
    assert_eq!(
        one.recorder.metrics.to_json(),
        four.recorder.metrics.to_json(),
        "metrics registry differs between 1 and 4 jobs"
    );
}

#[test]
fn every_counter_reconciles_with_the_reports() {
    let run = trace_suite::run(2);
    let recon = trace_suite::reconcile(&run);
    assert!(recon.total() >= 30, "reconciliation table lost checks");
    let failed: Vec<String> = recon
        .checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{}: traced {} != reported {}", c.name, c.traced, c.reported))
        .collect();
    assert!(failed.is_empty(), "counters out of agreement:\n{}", failed.join("\n"));
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let traced = trace_suite::run(2);
    let plain = shuffle::run_backend_sunk(
        &trace_suite::shuffle_cfg(2),
        shuffle::Backend::Cereal,
        &mut NoopSink,
    )
    .expect("untraced shuffle");
    let t = &traced.shuffle.report;
    let p = &plain.report;
    assert_eq!(t.messages, p.messages);
    assert_eq!(t.wire_bytes, p.wire_bytes);
    assert_eq!(t.records, p.records);
    assert_eq!(t.ser_busy_ns.to_bits(), p.ser_busy_ns.to_bits());
    assert_eq!(t.de_busy_ns.to_bits(), p.de_busy_ns.to_bits());
    assert_eq!(t.net, p.net);
    assert_eq!(t.fold_checksum, p.fold_checksum);

    let rdd = store::run_rdd_sunk(&trace_suite::rdd_cfg(2), &mut NoopSink).expect("untraced rdd");
    assert_eq!(traced.rdd.store, rdd.store);
    assert_eq!(traced.rdd.total_ns.to_bits(), rdd.total_ns.to_bits());
}

#[test]
fn the_demonstrated_shuffle_config_validates() {
    for jobs in [1, 4] {
        assert_eq!(trace_suite::shuffle_cfg(jobs).validate(), Ok(()));
    }
}
