//! Scheduler behavior under contention: DU context sharing, tenant
//! skew, and queueing under overload.

use cluster::{run_cluster, ClusterConfig};

/// A configuration that keeps the cluster busy enough to contend for
/// everything: few executors per node, one DU context, high load.
fn contended_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::smoke();
    cfg.executors = 16;
    cfg.executors_per_node = 8;
    cfg.du_contexts_per_node = 1;
    cfg.target_load = 1.5;
    cfg.job_arrivals = 32;
    cfg
}

#[test]
fn du_contexts_are_contended_and_more_of_them_helps() {
    let scarce = run_cluster(&contended_cfg()).expect("cluster runs");
    assert!(scarce.du_waits > 0, "one DU context per node must queue");
    assert!(scarce.du_wait_ns > 0.0);

    let mut plenty_cfg = contended_cfg();
    plenty_cfg.du_contexts_per_node = 8;
    let plenty = run_cluster(&plenty_cfg).expect("cluster runs");
    assert!(
        plenty.du_wait_ns < scarce.du_wait_ns,
        "8 DU contexts per node must wait less than 1: {} vs {}",
        plenty.du_wait_ns,
        scarce.du_wait_ns
    );
    // Contention moves time, never answers.
    assert_eq!(plenty.fold_checksum, scarce.fold_checksum);
    assert!(plenty.makespan_ns <= scarce.makespan_ns);
}

#[test]
fn tenant_skew_concentrates_completed_jobs() {
    let mut cfg = ClusterConfig::smoke();
    cfg.job_arrivals = 64;
    cfg.tenant_theta = 1.4;
    let out = run_cluster(&cfg).expect("cluster runs");
    let jobs: Vec<u64> = out.per_tenant.iter().map(|t| t.jobs).collect();
    assert_eq!(jobs.iter().sum::<u64>(), out.jobs_completed);
    let hottest = *jobs.iter().max().expect("tenants exist");
    let mean = out.jobs_completed as f64 / cfg.tenants as f64;
    assert!(
        hottest as f64 > 1.5 * mean,
        "theta 1.4 must concentrate jobs on a hot tenant: {jobs:?}"
    );
}

#[test]
fn overload_queues_attempts_and_never_oversubscribes_executors() {
    let mut cfg = ClusterConfig::smoke();
    cfg.executors = 8;
    cfg.executors_per_node = 8;
    cfg.target_load = 3.0;
    let out = run_cluster(&cfg).expect("cluster runs");
    assert!(out.max_queue_depth > 0, "overload must queue work");
    assert!(out.max_running <= cfg.executors as u64);
    assert!(out.executors_used <= cfg.executors as u64);
    assert_eq!(out.jobs_completed, out.arrivals, "the queue still drains");
}

#[test]
fn reduce_inputs_and_remote_scans_cross_the_fabric() {
    let out = run_cluster(&ClusterConfig::smoke()).expect("cluster runs");
    assert!(
        out.fabric_messages > 0,
        "shuffle fetches must use the fabric"
    );
    assert!(out.fabric_bytes > 0);
    assert!(out.busy_ns > 0.0);
    let util = out.utilization(ClusterConfig::smoke().executors);
    assert!(util > 0.0 && util <= 1.0, "utilization {util} out of range");
}

#[test]
fn more_executors_do_not_hurt_the_makespan() {
    let mut cfg = ClusterConfig::smoke();
    cfg.executors = 16;
    let small = run_cluster(&cfg).expect("cluster runs");
    cfg.executors = 64;
    let big = run_cluster(&cfg).expect("cluster runs");
    // Arrival times differ (load calibration), so compare queueing
    // effects via mean sojourn instead of raw makespan.
    assert!(
        big.mean_latency_ns() <= small.mean_latency_ns(),
        "4x executors at equal load must not raise mean job latency: {} vs {}",
        big.mean_latency_ns(),
        small.mean_latency_ns()
    );
    assert_eq!(big.fold_checksum, small.fold_checksum);
}
