//! `ClusterConfig::validate`: nonsense configs are typed errors from
//! `run_cluster`, never a panic or a silent clamp, and every config the
//! repository ships passes unchanged.

use cluster::{run_cluster, ClusterConfig, ClusterError};

/// Runs `cfg` and expects rejection naming `field`, before any work.
fn assert_rejected(cfg: &ClusterConfig, field: &str) {
    match run_cluster(cfg) {
        Err(ClusterError::InvalidConfig(why)) => {
            assert!(why.contains(field), "{why:?} should name {field}")
        }
        other => panic!("expected InvalidConfig({field}), got {other:?}"),
    }
}

#[test]
fn zero_counts_are_rejected() {
    type Zero = fn(&mut ClusterConfig);
    let fields: [(&str, Zero); 7] = [
        ("executors", |c| c.executors = 0),
        ("tenants", |c| c.tenants = 0),
        ("executors_per_node", |c| c.executors_per_node = 0),
        ("du_contexts_per_node", |c| c.du_contexts_per_node = 0),
        // No tasks: a job could never complete.
        ("template_mappers", |c| c.template_mappers = 0),
        ("template_keys", |c| c.template_keys = 0),
        ("heartbeat_misses", |c| c.fault.heartbeat_misses = 0),
    ];
    for (field, zero) in fields {
        let mut cfg = ClusterConfig::smoke();
        zero(&mut cfg);
        assert_rejected(&cfg, field);
    }
}

#[test]
fn non_positive_or_non_finite_scales_are_rejected() {
    type Set = fn(&mut ClusterConfig, f64);
    let fields: [(&str, Set, &[f64]); 5] = [
        (
            "target_load",
            |c, x| c.target_load = x,
            &[0.0, -0.5, f64::NAN, f64::INFINITY],
        ),
        // A non-finite threshold schedules the laggard re-check off the
        // event clock.
        (
            "spec_multiplier",
            |c, x| c.spec_multiplier = x,
            &[f64::NAN, f64::INFINITY],
        ),
        // A zero-bandwidth fetch never ends: the fabric ledger tries to
        // book an unbounded busy window.
        ("link.bytes_per_ns", |c, x| c.link.bytes_per_ns = x, &[0.0]),
        // Zero skew (uniform tenants) is valid.
        (
            "tenant_theta",
            |c, x| c.tenant_theta = x,
            &[-0.5, f64::NAN, f64::INFINITY],
        ),
        (
            "heartbeat_period_ns",
            |c, x| c.fault.heartbeat_period_ns = x,
            &[0.0, -1.0, f64::NAN, f64::INFINITY],
        ),
    ];
    for (field, set, bad) in fields {
        for &x in bad {
            let mut cfg = ClusterConfig::smoke();
            set(&mut cfg, x);
            assert_rejected(&cfg, field);
        }
    }
}

#[test]
fn negative_or_non_finite_delays_are_rejected() {
    type Set = fn(&mut ClusterConfig, f64);
    let fields: [(&str, Set); 4] = [
        ("latency_ns", |c, x| c.link.latency_ns = x),
        ("restart_ns", |c, x| c.fault.restart_ns = x),
        ("blacklist_cooldown_ns", |c, x| {
            c.fault.blacklist_cooldown_ns = x
        }),
        ("retry_backoff_ns", |c, x| c.fault.retry_backoff_ns = x),
    ];
    for (field, set) in fields {
        // A negative delay schedules an event before `now`; a
        // non-finite one schedules it off the event clock.
        for x in [-1.0, f64::NAN, f64::INFINITY] {
            let mut cfg = ClusterConfig::smoke();
            set(&mut cfg, x);
            assert_rejected(&cfg, field);
        }
        let mut cfg = ClusterConfig::smoke();
        set(&mut cfg, 0.0);
        cfg.validate()
            .unwrap_or_else(|e| panic!("{field} = 0: {e}"));
    }
}

#[test]
fn rates_outside_unit_interval_are_rejected() {
    type Set = fn(&mut ClusterConfig, f64);
    let fields: [(&str, Set); 5] = [
        ("straggler_rate", |c, r| c.straggler_rate = r),
        ("exec_crash_rate", |c, r| c.fault.exec_crash_rate = r),
        ("node_fail_rate", |c, r| c.fault.node_fail_rate = r),
        ("task_fail_rate", |c, r| c.fault.task_fail_rate = r),
        ("du_fail_rate", |c, r| c.fault.du_fail_rate = r),
    ];
    for (field, set) in fields {
        for rate in [-0.01, 1.01, f64::NAN] {
            let mut cfg = ClusterConfig::smoke();
            set(&mut cfg, rate);
            assert_rejected(&cfg, field);
        }
        // Both ends of [0, 1] are valid.
        for rate in [0.0, 1.0] {
            let mut cfg = ClusterConfig::smoke();
            set(&mut cfg, rate);
            cfg.validate()
                .unwrap_or_else(|e| panic!("{field} = {rate}: {e}"));
        }
    }
}

#[test]
fn straggler_factor_below_one_is_rejected() {
    // An infinite factor would finish a straggler off the event clock.
    for factor in [0.99, 0.0, f64::NAN, f64::INFINITY] {
        let mut cfg = ClusterConfig::smoke();
        cfg.straggler_factor = factor;
        assert_rejected(&cfg, "straggler_factor");
    }
}

#[test]
fn spec_quantile_outside_half_open_unit_interval_is_rejected() {
    for q in [0.0, -0.1, 1.01, f64::NAN] {
        let mut cfg = ClusterConfig::smoke();
        cfg.spec_quantile = q;
        assert_rejected(&cfg, "spec_quantile");
    }
    let mut cfg = ClusterConfig::smoke();
    cfg.spec_quantile = 1.0;
    cfg.validate().expect("a quantile of 1 is valid");
}
