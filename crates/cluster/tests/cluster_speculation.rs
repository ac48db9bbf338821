//! Speculative re-execution: it fires on straggling tasks, it helps,
//! and it never changes an answer.

use cluster::{run_cluster, ClusterConfig};

fn straggling_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::smoke();
    cfg.straggler_rate = 0.15;
    cfg.straggler_factor = 8.0;
    cfg
}

#[test]
fn speculation_fires_and_wins_on_stragglers() {
    let mut cfg = straggling_cfg();
    cfg.speculation = true;
    let out = run_cluster(&cfg).expect("cluster runs");
    assert!(
        out.stragglers > 0,
        "the straggler model must fire at this rate"
    );
    assert!(
        out.spec_launches > 0,
        "laggards must get speculative copies"
    );
    assert!(
        out.spec_wins > 0,
        "8x stragglers must lose to nominal re-runs"
    );
    assert!(out.spec_wins <= out.spec_launches);
    assert_eq!(out.jobs_completed, out.arrivals);
}

#[test]
fn speculative_winners_reproduce_the_fault_free_fold_exactly() {
    // The same arrivals with no stragglers and no speculation...
    let mut fault_free = ClusterConfig::smoke();
    fault_free.straggler_rate = 0.0;
    let clean = run_cluster(&fault_free).expect("cluster runs");
    // ...versus a straggler-riddled run rescued by speculation: time
    // moves, answers must not.
    let mut cfg = straggling_cfg();
    cfg.speculation = true;
    let spec = run_cluster(&cfg).expect("cluster runs");
    assert!(
        spec.spec_wins > 0,
        "some answers come from speculative attempts"
    );
    assert_eq!(
        spec.fold_checksum, clean.fold_checksum,
        "first-completion-wins must preserve every job's fold bit for bit"
    );
}

#[test]
fn speculation_reduces_straggler_makespan_inflation() {
    let base = {
        let mut cfg = ClusterConfig::smoke();
        cfg.straggler_rate = 0.0;
        run_cluster(&cfg).expect("cluster runs")
    };
    let off = run_cluster(&straggling_cfg()).expect("cluster runs");
    let on = {
        let mut cfg = straggling_cfg();
        cfg.speculation = true;
        run_cluster(&cfg).expect("cluster runs")
    };
    assert!(
        off.makespan_ns > base.makespan_ns,
        "8x stragglers must inflate the makespan"
    );
    assert!(
        on.makespan_ns < off.makespan_ns,
        "speculation must claw back straggler inflation: on {} vs off {}",
        on.makespan_ns,
        off.makespan_ns
    );
}

#[test]
fn zero_rate_runs_never_speculate() {
    let mut cfg = ClusterConfig::smoke();
    cfg.straggler_rate = 0.0;
    cfg.speculation = true;
    let out = run_cluster(&cfg).expect("cluster runs");
    assert_eq!(out.stragglers, 0);
    assert_eq!(out.spec_launches, 0, "no laggards, no copies");
    assert_eq!(out.spec_wins, 0);
    // Speculation-on at rate 0 is byte-identical to speculation-off.
    cfg.speculation = false;
    assert_eq!(out, run_cluster(&cfg).expect("cluster runs"));
}
