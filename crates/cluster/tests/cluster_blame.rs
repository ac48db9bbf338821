//! The causal critical-path blame contract, on real scheduler runs:
//!
//! 1. **conservation** — across healthy, straggler/speculation, fault-
//!    storm and blacklist scenarios, [`telemetry::critpath::analyze`]
//!    succeeds and every job's nine blame categories sum exactly (to
//!    f64 tolerance) to its latency — the analyzer enforces this as a
//!    hard error, so success *is* the property;
//! 2. **boundedness** — the critical path (slowest job) never exceeds
//!    the run's makespan;
//! 3. **attribution** — scenario knobs move blame into the category
//!    built for them (speculation waste, recovery waste);
//! 4. **no perturbation** — the traced run that feeds the analysis
//!    reports the same outcome as the untraced run.

use cluster::{run_cluster, run_cluster_sunk, ClusterConfig, ClusterOutcome};
use telemetry::critpath::{self, Analysis, CATEGORIES};
use telemetry::Recorder;

/// Runs `cfg` traced and untraced, asserts the no-perturbation law, and
/// returns the analysis (the conservation law is enforced inside).
fn analyze_scenario(label: &str, cfg: &ClusterConfig) -> (Analysis, ClusterOutcome) {
    let untraced = run_cluster(cfg).expect("untraced run");
    let mut rec = Recorder::new();
    let traced = run_cluster_sunk(cfg, &mut rec).expect("traced run");
    assert_eq!(
        traced, untraced,
        "{label}: tracing perturbed the simulation"
    );
    let a = critpath::analyze(&rec, traced.makespan_ns)
        .unwrap_or_else(|e| panic!("{label}: blame analysis failed: {e}"));
    assert_eq!(
        a.jobs.len() as u64,
        traced.jobs_completed,
        "{label}: every completed job gets a blame row"
    );
    assert!(
        a.critical_path_ns <= a.makespan_ns * (1.0 + 1e-9),
        "{label}: critical path {} exceeds makespan {}",
        a.critical_path_ns,
        a.makespan_ns
    );
    let per_tenant: u64 = a.tenants.iter().map(|t| t.jobs).sum();
    assert_eq!(
        per_tenant, traced.jobs_completed,
        "{label}: tenant rows partition the jobs"
    );
    for t in &a.tenants {
        assert!(
            t.p50_ns <= t.p95_ns && t.p95_ns <= t.p99_ns,
            "{label}: percentiles ordered"
        );
    }
    (a, traced)
}

fn total(a: &Analysis, cat: &str) -> f64 {
    let i = CATEGORIES
        .iter()
        .position(|c| *c == cat)
        .expect("known category");
    a.total_blame()[i]
}

#[test]
fn healthy_run_conserves_and_has_no_waste_blame() {
    let cfg = ClusterConfig::smoke();
    let (a, _) = analyze_scenario("healthy", &cfg);
    assert_eq!(total(&a, "recovery"), 0.0, "no faults, no recovery blame");
    assert_eq!(
        total(&a, "speculation"),
        0.0,
        "no stragglers, no speculation blame"
    );
    assert_eq!(
        total(&a, "blacklist"),
        0.0,
        "no blacklisting, no drain blame"
    );
    assert!(total(&a, "serde") > 0.0, "serialization always shows up");
}

#[test]
fn straggler_speculation_run_conserves() {
    let mut cfg = ClusterConfig::smoke();
    cfg.straggler_rate = 0.2;
    cfg.speculation = true;
    let (a, out) = analyze_scenario("straggler+spec", &cfg);
    assert!(out.spec_wins > 0, "the scenario actually speculates");
    // A winning copy's pend starts at its (late) launch: the wait shows
    // up as speculation blame whenever a copy won on the barrier.
    assert!(
        total(&a, "speculation") > 0.0,
        "speculative wins leave speculation blame"
    );
}

#[test]
fn fault_storm_conserves_and_blames_recovery() {
    let mut cfg = ClusterConfig::smoke();
    cfg.straggler_rate = 0.1;
    cfg.speculation = true;
    cfg.fault.exec_crash_rate = 0.05;
    cfg.fault.task_fail_rate = 0.08;
    cfg.fault.du_fail_rate = 0.1;
    cfg.fault.blacklist_threshold = 2;
    cfg.fault.heartbeat_period_ns = 50_000.0;
    let (a, out) = analyze_scenario("fault-storm", &cfg);
    assert!(out.task_retries + out.crash_requeues + out.recomputes > 0);
    assert!(
        total(&a, "recovery") > 0.0,
        "re-run attempts leave recovery blame"
    );
}

#[test]
fn slow_heartbeat_conserves() {
    let mut cfg = ClusterConfig::smoke();
    cfg.fault.exec_crash_rate = 0.05;
    cfg.fault.heartbeat_period_ns = 200_000.0;
    analyze_scenario("slow-heartbeat", &cfg);
}

#[test]
fn analysis_is_deterministic_across_thread_counts() {
    let mut cfg = ClusterConfig::smoke();
    cfg.straggler_rate = 0.1;
    cfg.speculation = true;
    cfg.jobs = 1;
    let mut rec1 = Recorder::new();
    let out1 = run_cluster_sunk(&cfg, &mut rec1).expect("run");
    cfg.jobs = 4;
    let mut rec4 = Recorder::new();
    let out4 = run_cluster_sunk(&cfg, &mut rec4).expect("run");
    let a1 = critpath::analyze(&rec1, out1.makespan_ns).expect("analysis");
    let a4 = critpath::analyze(&rec4, out4.makespan_ns).expect("analysis");
    assert_eq!(a1, a4, "blame analysis must not depend on --jobs");
}

#[test]
fn trace_carries_causal_flow_edges_and_timeline_samples() {
    let mut cfg = ClusterConfig::smoke();
    cfg.straggler_rate = 0.2;
    cfg.speculation = true;
    let mut rec = Recorder::new();
    run_cluster_sunk(&cfg, &mut rec).expect("traced run");
    assert!(
        rec.flows.iter().any(|f| f.name == "flow.fetch"),
        "shuffle fetch edges"
    );
    assert!(
        rec.flows.iter().any(|f| f.name == "flow.du"),
        "DU handoff edges"
    );
    assert!(
        rec.flows.iter().any(|f| f.name == "flow.spec"),
        "speculation edges"
    );
    for f in &rec.flows {
        assert!(f.t1_ns >= f.t0_ns, "causal edges run forward in time");
    }
    // The gauge timeline lands on the fixed simulated-clock grid.
    let bucket = cfg.timeline_bucket_ns;
    assert!(bucket > 0.0, "smoke config samples the timeline");
    assert!(!rec.samples.is_empty(), "the timeline sampled");
    for s in &rec.samples {
        let k = s.t_ns / bucket;
        assert!(
            (k - k.round()).abs() < 1e-9,
            "sample at {} is off the {}-ns grid",
            s.t_ns,
            bucket
        );
        if s.name == "cluster.timeline.utilization" {
            assert!((0.0..=1.0).contains(&s.value), "utilization is a fraction");
        }
    }
    // The chrome export renders the edges as s/f pairs.
    let trace = telemetry::chrome_trace(&rec);
    assert!(trace.contains("\"ph\":\"s\"") && trace.contains("\"ph\":\"f\""));
    assert!(trace.contains("\"cat\":\"flow.fetch\""));
}
