//! Recovery invariance: the fault domain may move time, never answers.
//!
//! Every scenario here injects some mix of executor crashes, node
//! failures, clean task failures, DU device failures, retries and
//! admission control — and checks that (a) every arrival reaches
//! exactly one terminal state, (b) degraded decodes reproduce the
//! healthy run's fold digest, (c) the fault ledger is internally
//! consistent, and (d) a zero-rate fault config is a byte-identical
//! no-op.

use cluster::sched::run_cluster_sunk;
use cluster::{
    build_profiles, run_cluster, ClusterConfig, ClusterFaultConfig, ClusterOutcome, StageKind,
};
use store::Backend;
use telemetry::ids::T_FAIL;
use telemetry::Recorder;

fn faulted_smoke() -> ClusterConfig {
    let mut cfg = ClusterConfig::smoke();
    cfg.straggler_rate = 0.05;
    cfg.speculation = true;
    cfg.fault.exec_crash_rate = 0.05;
    cfg
}

fn assert_terminal_accounting(out: &ClusterOutcome) {
    assert_eq!(
        out.jobs_completed + out.jobs_shed + out.jobs_failed,
        out.arrivals,
        "every arrival must complete, shed, or fail"
    );
    assert_eq!(
        out.heartbeat_deaths + out.fetch_fail_deaths,
        out.exec_crashes,
        "every crash is declared dead exactly once"
    );
    assert_eq!(
        out.restarts, out.exec_crashes,
        "every declared death brings a replacement"
    );
}

#[test]
fn zero_rate_fault_config_is_byte_identical_noop() {
    let mut base = ClusterConfig::smoke();
    base.straggler_rate = 0.05;
    base.speculation = true;
    let fault_free = run_cluster(&base).expect("fault-free run");

    // Same run with the fault domain configured but every rate at zero
    // (and different detection/retry knobs, which must all be inert).
    let mut zeroed = base;
    zeroed.fault = ClusterFaultConfig {
        heartbeat_period_ns: 7_000.0,
        heartbeat_misses: 9,
        restart_ns: 1.0,
        blacklist_threshold: 1,
        blacklist_cooldown_ns: 1.0,
        job_retry_budget: 0,
        retry_backoff_ns: 1.0,
        ..ClusterFaultConfig::none()
    };
    assert!(!zeroed.fault.enabled());
    let zero_rate = run_cluster(&zeroed).expect("zero-rate run");
    assert_eq!(
        fault_free, zero_rate,
        "zero-rate fault config must be a no-op"
    );
    assert_eq!(fault_free.exec_crashes, 0);
    assert_eq!(fault_free.jobs_failed, 0);
    assert_eq!(fault_free.jobs_completed, fault_free.arrivals);
}

#[test]
fn executor_crashes_recover_with_exact_folds() {
    let cfg = faulted_smoke();
    let out = run_cluster(&cfg).expect("crashes must be recovered, not errors");
    assert_terminal_accounting(&out);
    assert!(
        out.exec_crashes > 0,
        "crash rate 0.05 must fire in the smoke run"
    );
    assert!(out.jobs_completed > 0, "most jobs must still complete");
    assert!(
        out.crash_requeues + out.recomputes > 0,
        "kills and lost outputs must be re-enqueued"
    );
    assert!(
        out.wasted_ns > 0.0,
        "killed attempts represent thrown-away work"
    );
    assert!(out.goodput() > 0.0 && out.goodput() <= 1.0);
}

#[test]
fn node_failures_crash_whole_nodes_and_recover() {
    let mut cfg = ClusterConfig::smoke();
    cfg.fault.node_fail_rate = 0.03;
    let out = run_cluster(&cfg).expect("node failures must not corrupt folds");
    assert_terminal_accounting(&out);
    assert!(out.node_crashes > 0, "node-failure rate must fire");
    assert!(
        out.exec_crashes >= out.node_crashes,
        "a node failure crashes at least its dispatching executor"
    );
}

#[test]
fn task_failures_retry_blacklist_and_rejoin() {
    let mut cfg = ClusterConfig::smoke();
    cfg.fault.task_fail_rate = 0.25;
    cfg.fault.blacklist_threshold = 2;
    let out = run_cluster(&cfg).expect("clean failures must not corrupt folds");
    assert_terminal_accounting(&out);
    assert!(out.task_failures > 0);
    assert!(out.task_retries > 0, "failed tasks must retry with backoff");
    assert!(
        out.blacklists > 0,
        "threshold 2 at rate 0.25 must blacklist someone"
    );
    assert_eq!(
        out.blacklist_rejoins, out.blacklists,
        "with no crashes, every blacklisted executor rejoins"
    );
    assert!(
        out.recompute_share() > 0.0,
        "retried work books as recompute"
    );
}

#[test]
fn du_device_failure_degrades_to_software_fallback() {
    let mut cfg = ClusterConfig::smoke();
    cfg.fault.du_fail_rate = 0.25;
    let healthy = run_cluster(&ClusterConfig::smoke()).expect("healthy run");
    let out = run_cluster(&cfg).expect("degraded decodes must reproduce exact folds");
    assert_terminal_accounting(&out);
    assert!(out.du_device_failures > 0, "DU-failure rate must fire");
    assert!(
        out.degraded_tasks > 0,
        "failed nodes must run degraded decodes"
    );
    assert_eq!(
        out.jobs_completed, out.arrivals,
        "degradation alone never loses a job"
    );
    assert_eq!(
        out.fold_checksum, healthy.fold_checksum,
        "degraded runs complete the same jobs with the same answers"
    );
    // The degrade semantics live in the profile: Cereal tenants carry a
    // distinct software-fallback decode profile (for scans, the paper's
    // validate-vs-deserialize gap makes it strictly slower), everyone
    // else is untouched by DU failure.
    let profiles = build_profiles(&cfg).expect("profiles with fallback");
    for p in &profiles {
        let cereal = p.template.backend == Backend::Cereal;
        for stage in p.stages.iter().filter(|st| st.kind.decodes()) {
            for task in &stage.tasks {
                if !cereal {
                    assert_eq!(task.fallback_ns, task.service_ns);
                } else if stage.kind == StageKind::Scan {
                    assert!(task.fallback_ns > task.service_ns);
                } else {
                    assert_ne!(task.fallback_ns, task.service_ns);
                }
            }
        }
    }
}

#[test]
fn retry_exhaustion_fails_jobs_not_answers() {
    let mut cfg = ClusterConfig::smoke();
    cfg.fault.task_fail_rate = 0.5;
    cfg.fault.blacklist_threshold = 0;
    cfg.fault.job_retry_budget = 1;
    let out = run_cluster(&cfg).expect("exhaustion must abort, not corrupt");
    assert_terminal_accounting(&out);
    assert!(
        out.jobs_failed > 0,
        "a 1-retry budget at rate 0.5 must exhaust"
    );
    assert!(out.jobs_completed < out.arrivals);
}

#[test]
fn admission_control_sheds_past_the_watermark() {
    let mut cfg = ClusterConfig::smoke();
    cfg.target_load = 4.0;
    cfg.fault.shed_queue_depth = 4;
    let out = run_cluster(&cfg).expect("shedding must not corrupt survivors");
    assert_terminal_accounting(&out);
    assert!(
        out.jobs_shed > 0,
        "4× overload past a depth-4 watermark must shed"
    );
    assert!(out.jobs_completed > 0, "admitted jobs still complete");
    assert!(out.shed_rate() > 0.0 && out.shed_rate() < 1.0);
}

#[test]
fn combined_fault_storm_is_thread_count_invariant() {
    let mut cfg = faulted_smoke();
    cfg.fault.node_fail_rate = 0.01;
    cfg.fault.task_fail_rate = 0.1;
    cfg.fault.du_fail_rate = 0.1;
    cfg.fault.blacklist_threshold = 2;
    cfg.jobs = 1;
    let a = run_cluster(&cfg).expect("storm run, 1 thread");
    cfg.jobs = 4;
    let b = run_cluster(&cfg).expect("storm run, 4 threads");
    assert_eq!(a, b, "fault schedules must be independent of --jobs");
    assert_terminal_accounting(&a);
    assert!(a.exec_crashes > 0 && a.task_failures > 0 && a.du_device_failures > 0);
}

#[test]
fn traced_faulted_run_matches_untraced_and_books_fail_lanes() {
    let mut cfg = faulted_smoke();
    cfg.fault.task_fail_rate = 0.1;
    cfg.fault.blacklist_threshold = 2;
    let untraced = run_cluster(&cfg).expect("untraced faulted run");
    let mut rec = Recorder::new();
    let traced = run_cluster_sunk(&cfg, &mut rec).expect("traced faulted run");
    assert_eq!(untraced, traced, "tracing must never change an outcome");
    assert_eq!(
        rec.metrics.counter("cluster.exec_crashes"),
        traced.exec_crashes
    );
    assert_eq!(
        rec.metrics.counter("cluster.task_failures"),
        traced.task_failures
    );
    assert_eq!(
        rec.metrics.counter("cluster.heartbeat_deaths")
            + rec.metrics.counter("cluster.fetch_fail_deaths"),
        traced.exec_crashes
    );
    assert!(
        rec.instants
            .iter()
            .any(|e| e.name == "exec.crash" && e.entity.tid == T_FAIL),
        "crashes must land on the T_FAIL lanes"
    );
    assert!(
        rec.spans
            .iter()
            .any(|s| s.name == "fail.undetected" && s.entity.tid == T_FAIL),
        "the undetected window must be spanned on T_FAIL"
    );
}
