//! Frozen scheduler outcomes.
//!
//! Four smoke-size clusters, one per scheduler path that matters: a
//! healthy run; stragglers with speculation; a fault storm (executor
//! crashes, node failures, clean task failures, blacklisting and DU
//! device failures); and retry exhaustion under admission shedding,
//! which is the only path through job aborts. For each, [`ROWS`] pins
//! the makespan's bits, the terminal job counts, the attempts launched,
//! the fold checksum, and an FNV-1a-64 over the whole
//! [`ClusterOutcome`] `{:?}` rendering — so any drift in any reported
//! number fails here. Each config also runs traced into a [`Recorder`]:
//! the traced outcome must equal the untraced one, and the row pins
//! FNV-1a-64 of the Chrome trace and of the metrics registry's `{:?}`,
//! so a moved span, flow, instant, sample or counter fails too. On a
//! mismatch the test prints the actual rows.

use cluster::{run_cluster, run_cluster_sunk, ClusterConfig, ClusterOutcome};
use telemetry::{chrome_trace, Recorder};

fn healthy() -> ClusterConfig {
    ClusterConfig::smoke()
}

fn speculation() -> ClusterConfig {
    let mut cfg = ClusterConfig::smoke();
    cfg.straggler_rate = 0.15;
    cfg.straggler_factor = 8.0;
    cfg.speculation = true;
    cfg
}

fn fault_storm() -> ClusterConfig {
    let mut cfg = speculation();
    cfg.straggler_rate = 0.05;
    cfg.fault.exec_crash_rate = 0.05;
    cfg.fault.node_fail_rate = 0.01;
    cfg.fault.task_fail_rate = 0.1;
    cfg.fault.du_fail_rate = 0.1;
    cfg.fault.blacklist_threshold = 2;
    cfg
}

fn exhaustion_and_shedding() -> ClusterConfig {
    // Speculative copies still racing when a job aborts must be
    // cancelled with it.
    let mut cfg = speculation();
    cfg.spec_quantile = 0.25;
    cfg.target_load = 16.0;
    cfg.fault.task_fail_rate = 0.2;
    cfg.fault.blacklist_threshold = 0;
    cfg.fault.job_retry_budget = 1;
    cfg.fault.shed_queue_depth = 4;
    cfg
}

#[derive(Debug, PartialEq)]
struct Row {
    name: &'static str,
    makespan_bits: u64,
    completed: u64,
    shed: u64,
    failed: u64,
    tasks_launched: u64,
    fold_checksum: u64,
    debug_fnv: u64,
    trace_fnv: u64,
    metrics_fnv: u64,
}

const ROWS: [Row; 4] = [
    Row {
        name: "healthy",
        makespan_bits: 0x410cae03f49f4a0c,
        completed: 24,
        shed: 0,
        failed: 0,
        tasks_launched: 228,
        fold_checksum: 0xa63b7208039d28aa,
        debug_fnv: 0x6be13aa09def9ee6,
        trace_fnv: 0xe026077f01830701,
        metrics_fnv: 0x63ae36daaaf4ce03,
    },
    Row {
        name: "speculation",
        makespan_bits: 0x4115a1cbdd4d394f,
        completed: 24,
        shed: 0,
        failed: 0,
        tasks_launched: 260,
        fold_checksum: 0xa63b7208039d28aa,
        debug_fnv: 0x3d4023605324459b,
        trace_fnv: 0x8a8df06b5cf89dff,
        metrics_fnv: 0xc39c6ed59bdf236b,
    },
    Row {
        name: "fault_storm",
        makespan_bits: 0x4127cb54582d82d6,
        completed: 24,
        shed: 0,
        failed: 0,
        tasks_launched: 324,
        fold_checksum: 0xa63b7208039d28aa,
        debug_fnv: 0xd0a4c2e8b3d24bfe,
        trace_fnv: 0xe1ba7bc7f611607c,
        metrics_fnv: 0xb1ed47c244b1de74,
    },
    Row {
        name: "exhaustion_and_shedding",
        makespan_bits: 0x411281fec93780c7,
        completed: 9,
        shed: 5,
        failed: 10,
        tasks_launched: 172,
        fold_checksum: 0x59256d49bbf39a44,
        debug_fnv: 0x80efda1ef0413d2d,
        trace_fnv: 0x1a3334b505e8b614,
        metrics_fnv: 0xf4e2b12b9d859ef2,
    },
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn row(name: &'static str, out: &ClusterOutcome, rec: &Recorder) -> Row {
    Row {
        name,
        makespan_bits: out.makespan_ns.to_bits(),
        completed: out.jobs_completed,
        shed: out.jobs_shed,
        failed: out.jobs_failed,
        tasks_launched: out.tasks_launched,
        fold_checksum: out.fold_checksum,
        debug_fnv: fnv1a(format!("{out:?}").as_bytes()),
        trace_fnv: fnv1a(chrome_trace(rec).as_bytes()),
        metrics_fnv: fnv1a(format!("{:?}", rec.metrics).as_bytes()),
    }
}

#[test]
fn cluster_outcomes_match_frozen_rows() {
    let configs: [(&'static str, ClusterConfig); 4] = [
        ("healthy", healthy()),
        ("speculation", speculation()),
        ("fault_storm", fault_storm()),
        ("exhaustion_and_shedding", exhaustion_and_shedding()),
    ];
    let outs: Vec<ClusterOutcome> = configs
        .iter()
        .map(|(name, cfg)| run_cluster(cfg).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect();
    let [healthy, spec, storm, abort] = &outs[..] else {
        unreachable!()
    };
    // Each config really exercises the path it is named for.
    assert_eq!(healthy.jobs_completed, healthy.arrivals);
    assert!(
        spec.spec_launches > 0,
        "stragglers must earn speculative copies"
    );
    assert!(
        storm.exec_crashes > 0
            && storm.node_crashes > 0
            && storm.task_failures > 0
            && storm.blacklists > 0
            && storm.du_device_failures > 0,
        "the storm must fire every fault kind: {storm:?}"
    );
    assert!(abort.jobs_failed > 0, "retry exhaustion must abort jobs");
    assert!(abort.jobs_shed > 0, "overload must shed arrivals");

    let actual: Vec<Row> = configs
        .iter()
        .zip(&outs)
        .map(|((name, cfg), out)| {
            let mut rec = Recorder::new();
            let traced =
                run_cluster_sunk(cfg, &mut rec).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(&traced, out, "{name}: traced outcome != untraced");
            row(name, out, &rec)
        })
        .collect();
    if actual.as_slice() != ROWS.as_slice() {
        let mut text = String::new();
        for r in &actual {
            text.push_str(&format!(
                "    Row {{\n        name: {:?},\n        makespan_bits: {:#018x},\n        \
                 completed: {},\n        shed: {},\n        failed: {},\n        \
                 tasks_launched: {},\n        fold_checksum: {:#018x},\n        \
                 debug_fnv: {:#018x},\n        trace_fnv: {:#018x},\n        \
                 metrics_fnv: {:#018x},\n    }},\n",
                r.name,
                r.makespan_bits,
                r.completed,
                r.shed,
                r.failed,
                r.tasks_launched,
                r.fold_checksum,
                r.debug_fnv,
                r.trace_fnv,
                r.metrics_fnv
            ));
        }
        panic!("cluster outcomes drifted; actual rows:\n{text}");
    }
}
