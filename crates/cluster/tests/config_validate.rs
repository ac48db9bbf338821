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
fn zero_executors_are_rejected() {
    let mut cfg = ClusterConfig::smoke();
    cfg.executors = 0;
    assert_rejected(&cfg, "executors");
}

#[test]
fn zero_tenants_are_rejected() {
    let mut cfg = ClusterConfig::smoke();
    cfg.tenants = 0;
    assert_rejected(&cfg, "tenants");
}

#[test]
fn non_positive_or_non_finite_target_load_is_rejected() {
    for load in [0.0, -0.5, f64::NAN, f64::INFINITY] {
        let mut cfg = ClusterConfig::smoke();
        cfg.target_load = load;
        assert_rejected(&cfg, "target_load");
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
    for factor in [0.99, 0.0, f64::NAN] {
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
