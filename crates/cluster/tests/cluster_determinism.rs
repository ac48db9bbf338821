//! The cluster's determinism contract: every reported number is a pure
//! function of the configuration — worker-thread count and telemetry
//! sinks must not change anything.

use cluster::{run_cluster, run_cluster_sunk, ClusterConfig};
use telemetry::Recorder;

#[test]
fn outcome_is_identical_for_any_thread_count() {
    let mut cfg = ClusterConfig::smoke();
    cfg.jobs = 1;
    let one = run_cluster(&cfg).expect("cluster runs");
    cfg.jobs = 4;
    let four = run_cluster(&cfg).expect("cluster runs");
    assert_eq!(one, four, "outcome must not depend on --jobs");
    assert_eq!(one.jobs_completed, one.arrivals, "the run drains");
    assert!(one.makespan_ns > 0.0);
}

#[test]
fn outcome_is_identical_under_speculation_for_any_thread_count() {
    let mut cfg = ClusterConfig::smoke();
    cfg.straggler_rate = 0.2;
    cfg.speculation = true;
    cfg.jobs = 1;
    let one = run_cluster(&cfg).expect("cluster runs");
    cfg.jobs = 4;
    let four = run_cluster(&cfg).expect("cluster runs");
    assert_eq!(one, four);
}

#[test]
fn tracing_does_not_change_the_outcome() {
    let cfg = ClusterConfig::smoke();
    let untraced = run_cluster(&cfg).expect("cluster runs");
    let mut rec = Recorder::new();
    let traced = run_cluster_sunk(&cfg, &mut rec).expect("cluster runs");
    assert_eq!(untraced, traced, "the sink must be observation-only");
    assert!(rec.events() > 0, "the recorder saw the run");
}

#[test]
fn trace_carries_per_executor_lanes_and_task_spans() {
    let cfg = ClusterConfig::smoke();
    let mut rec = Recorder::new();
    let out = run_cluster_sunk(&cfg, &mut rec).expect("cluster runs");
    // Executor lanes are named lazily, only for executors that ran.
    let lanes = rec
        .process_names
        .iter()
        .filter(|(&pid, _)| pid >= telemetry::ids::CLUSTER_PID_BASE)
        .count();
    assert_eq!(lanes as u64, out.executors_used);
    assert!(rec.spans.iter().any(|s| s.name == "task.map"));
    assert!(rec.spans.iter().any(|s| s.name == "task.reduce"));
    assert!(rec.spans.iter().any(|s| s.name == "task.materialize"));
    assert!(rec.spans.iter().any(|s| s.name == "task.scan"));
    assert!(rec.instants.iter().any(|i| i.name == "job.arrival"));
    let trace = telemetry::chrome_trace(&rec);
    assert!(
        trace.contains("\"exec 0\""),
        "executor lanes reach the trace"
    );
}
