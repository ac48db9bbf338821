//! The cluster-scheduler experiment (`cargo run --release --bin cluster`).
//!
//! Sweeps the event-driven multi-tenant cluster across four healthy
//! axes — executor count, tenant-arrival skew, DU contexts per node,
//! and straggler rate (the last with speculation off and on) — plus
//! five fault axes: executor-crash rate, heartbeat period (at a fixed
//! crash rate), blacklist threshold (at a fixed task-failure rate),
//! DU-device-failure rate, and admission watermark under overload.
//! Writes `BENCH_CLUSTER.json`. Every number is simulated time or a
//! deterministic counter: the file is byte-identical for any `--jobs`
//! value (CI diffs a 1-job run against a 4-job run).
//!
//! Several self-checks ride along and exit non-zero on failure:
//!
//! * **speculation** — at every straggler rate, the speculation-on run
//!   must complete the same jobs with the same fold digests at a
//!   makespan no worse than speculation-off; at rate 0 it must launch
//!   zero copies;
//! * **fault accounting** — every fault cell must account for every
//!   arrival (completed + shed + failed), pair every crash with exactly
//!   one detection and one restart, and the crash-0 cell (with
//!   detection knobs deliberately tweaked) must be byte-identical to a
//!   run with no fault domain at all;
//! * **telemetry reconciliation** — one healthy cell and one fault-storm
//!   cell re-run under a [`Recorder`] and every `cluster.*` counter the
//!   scheduler booked at its event site is checked against the report's
//!   independently accumulated fields (the fabric ledger cross-checks
//!   the fabric counters), gauges against the tracked maxima, histogram
//!   count/sum against the latency and waste totals, and the traced
//!   outcome against the untraced one.
//!
//! Flags: `--smoke` (small config), `--jobs N` (worker threads),
//! `--out PATH` (default `BENCH_CLUSTER.json`).

use cereal_bench::table::{ns, Table};
use cluster::sched::TENANT_JOB_COUNTERS;
use cluster::{run_cluster, run_cluster_sunk, CellResult, ClusterConfig, ClusterOutcome};
use telemetry::critpath::{self, Analysis, Timeline};
use telemetry::{JsonWriter, Recon, Recorder};

fn run_cell(cfg: &ClusterConfig) -> CellResult {
    let outcome = run_cluster(cfg).unwrap_or_else(|e| {
        eprintln!(
            "cluster cell failed ({} executors, {} tenants): {e}",
            cfg.executors, cfg.tenants
        );
        std::process::exit(1);
    });
    CellResult { cfg: *cfg, outcome }
}

/// Runs one fault-sweep cell and asserts the terminal-accounting
/// invariants every faulted run must satisfy: no arrival may vanish,
/// every crash is detected exactly once, every death brings a restart.
fn run_fault_cell(cfg: &ClusterConfig) -> CellResult {
    let cell = run_cell(cfg);
    let o = &cell.outcome;
    assert_eq!(
        o.jobs_completed + o.jobs_shed + o.jobs_failed,
        o.arrivals,
        "fault cell lost a job: {} completed + {} shed + {} failed != {} arrivals",
        o.jobs_completed,
        o.jobs_shed,
        o.jobs_failed,
        o.arrivals
    );
    assert_eq!(
        o.heartbeat_deaths + o.fetch_fail_deaths,
        o.exec_crashes,
        "every crash must be declared dead exactly once"
    );
    assert_eq!(o.restarts, o.exec_crashes, "every declared death must restart");
    cell
}

/// Re-runs `cfg` under a recorder and reconciles every booked counter,
/// gauge and histogram against the report's own accumulators. Returns
/// the checklist plus the recorder so the causal critical-path analysis
/// reuses the same trace.
fn reconcile(cfg: &ClusterConfig, untraced: &ClusterOutcome) -> (Recon, Recorder) {
    let mut rec = Recorder::new();
    let traced = run_cluster_sunk(cfg, &mut rec).unwrap_or_else(|e| {
        eprintln!("traced cluster run failed: {e}");
        std::process::exit(1);
    });
    let m = &rec.metrics;
    let mut r = Recon::new(1e-9);
    r.cond(traced == *untraced, "traced outcome == untraced outcome");
    r.exact("arrivals", m.counter("cluster.arrivals"), traced.arrivals);
    r.exact("jobs_completed", m.counter("cluster.jobs_completed"), traced.jobs_completed);
    r.exact("tasks_launched", m.counter("cluster.tasks_launched"), traced.tasks_launched);
    r.exact("tasks_completed", m.counter("cluster.tasks_completed"), traced.tasks_completed);
    r.exact("stragglers", m.counter("cluster.stragglers"), traced.stragglers);
    r.exact("spec_launches", m.counter("cluster.spec_launches"), traced.spec_launches);
    r.exact("spec_wins", m.counter("cluster.spec_wins"), traced.spec_wins);
    r.exact("du_waits", m.counter("cluster.du_waits"), traced.du_waits);
    // The outcome's fabric numbers come from the fabric's own ledgers,
    // the counters from event-site booking — a genuine cross-check.
    r.exact("fabric_messages", m.counter("cluster.fabric_messages"), traced.fabric_messages);
    r.exact("fabric_bytes", m.counter("cluster.fabric_bytes"), traced.fabric_bytes);
    // The fault ledger: every counter the fault domain books at its
    // event site (all zero, and checked to be zero, on healthy cells).
    r.exact("jobs_shed", m.counter("cluster.jobs_shed"), traced.jobs_shed);
    r.exact("jobs_failed", m.counter("cluster.jobs_failed"), traced.jobs_failed);
    r.exact("exec_crashes", m.counter("cluster.exec_crashes"), traced.exec_crashes);
    r.exact("node_crashes", m.counter("cluster.node_crashes"), traced.node_crashes);
    r.exact("heartbeat_deaths", m.counter("cluster.heartbeat_deaths"), traced.heartbeat_deaths);
    r.exact("fetch_fail_deaths", m.counter("cluster.fetch_fail_deaths"), traced.fetch_fail_deaths);
    r.exact("crash_task_kills", m.counter("cluster.crash_task_kills"), traced.crash_task_kills);
    r.exact("task_failures", m.counter("cluster.task_failures"), traced.task_failures);
    r.exact("task_retries", m.counter("cluster.task_retries"), traced.task_retries);
    r.exact("crash_requeues", m.counter("cluster.crash_requeues"), traced.crash_requeues);
    r.exact("recomputes", m.counter("cluster.recomputes"), traced.recomputes);
    r.exact("blacklists", m.counter("cluster.blacklists"), traced.blacklists);
    r.exact("blacklist_rejoins", m.counter("cluster.blacklist_rejoins"), traced.blacklist_rejoins);
    r.exact("restarts", m.counter("cluster.restarts"), traced.restarts);
    r.exact(
        "du_device_failures",
        m.counter("cluster.du_device_failures"),
        traced.du_device_failures,
    );
    r.exact("degraded_tasks", m.counter("cluster.degraded_tasks"), traced.degraded_tasks);
    match m.histogram("cluster.wasted_ns") {
        Some(h) => r.close("wasted_ns sum", h.sum, traced.wasted_ns),
        None => r.cond(traced.wasted_ns == 0.0, "wasted_ns histogram missing"),
    }
    match m.histogram("cluster.recompute_service_ns") {
        Some(h) => r.close("recompute_service_ns sum", h.sum, traced.recompute_busy_ns),
        None => {
            r.cond(traced.recompute_busy_ns == 0.0, "recompute_service_ns histogram missing");
        }
    }
    let per_tenant: u64 = TENANT_JOB_COUNTERS
        .iter()
        .take(cfg.tenants)
        .map(|&name| m.counter(name))
        .sum();
    r.exact("per-tenant job counters", per_tenant, traced.jobs_completed);
    match m.histogram("cluster.job_latency_ns") {
        Some(h) => {
            r.exact("job_latency_ns count", h.count, traced.jobs_completed);
            r.close("job_latency_ns sum", h.sum, traced.job_latency_sum_ns);
            r.close("job_latency_ns max", h.max, traced.job_latency_max_ns);
        }
        None => r.cond(false, "job_latency_ns histogram missing"),
    }
    match m.histogram("cluster.du_wait_ns") {
        Some(h) => {
            r.exact("du_wait_ns count", h.count, traced.du_waits);
            r.close("du_wait_ns sum", h.sum, traced.du_wait_ns);
        }
        None => r.cond(traced.du_waits == 0, "du_wait_ns histogram missing"),
    }
    match m.histogram("cluster.task_service_ns") {
        Some(h) => r.exact("task_service_ns count", h.count, traced.tasks_launched),
        None => r.cond(false, "task_service_ns histogram missing"),
    }
    match m.gauge_value("cluster.queue_depth") {
        Some(g) => r.close("queue_depth max", g.max, traced.max_queue_depth as f64),
        None => r.cond(false, "queue_depth gauge missing"),
    }
    match m.gauge_value("cluster.running_tasks") {
        Some(g) => r.close("running_tasks max", g.max, traced.max_running as f64),
        None => r.cond(false, "running_tasks gauge missing"),
    }
    let lanes = rec
        .process_names
        .keys()
        .filter(|&&pid| pid >= telemetry::ids::CLUSTER_PID_BASE)
        .count() as u64;
    r.exact("per-executor trace lanes", lanes, traced.executors_used);
    (r, rec)
}

/// Runs the causal critical-path analysis on a traced cell. The blame
/// conservation law (categories sum to job latency, critical path
/// bounded by the makespan) is enforced inside [`critpath::analyze`];
/// a violation is a telemetry-layer bug and exits non-zero.
fn blame_cell(label: &str, rec: &Recorder, outcome: &ClusterOutcome) -> Analysis {
    let a = critpath::analyze(rec, outcome.makespan_ns).unwrap_or_else(|e| {
        eprintln!("cluster: {label} critical-path analysis FAILED: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "cluster: {label} blame over {} jobs: dominant {}, critical path {}",
        a.jobs.len(),
        a.dominant_category(),
        ns(a.critical_path_ns)
    );
    a
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let jobs = cereal_bench::jobs_arg(&args);
    let out_path = cereal_bench::out_path(&args, "BENCH_CLUSTER.json");

    // The base cell: a ≥512-executor multi-tenant cluster even in smoke
    // mode (the whole point of the lazy fabric).
    let mut base = ClusterConfig::smoke();
    base.executors = 512;
    base.executors_per_node = 8;
    base.du_contexts_per_node = 2;
    base.jobs = jobs;
    if !smoke {
        base.tenants = 8;
        base.job_arrivals = 96;
        base.template_mappers = 6;
        base.template_records = 384;
        base.template_keys = 64;
    }

    let executor_axis: &[usize] = if smoke { &[64, 512] } else { &[128, 512, 1024] };
    let theta_axis: &[f64] = if smoke { &[0.0, 1.1] } else { &[0.0, 0.8, 1.3] };
    let du_axis: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 8] };
    let straggler_axis: &[f64] = if smoke { &[0.0, 0.1] } else { &[0.0, 0.05, 0.15] };

    eprintln!(
        "cluster: base {} executors / {} nodes, {} tenants, {} arrivals, {jobs} jobs",
        base.executors,
        base.nodes(),
        base.tenants,
        base.job_arrivals
    );

    // ---- Executor-scale sweep ------------------------------------------
    let mut scale_cells = Vec::new();
    for &e in executor_axis {
        let mut cfg = base;
        cfg.executors = e;
        scale_cells.push(run_cell(&cfg));
    }

    // ---- Tenant-skew sweep ---------------------------------------------
    let mut skew_cells = Vec::new();
    for &theta in theta_axis {
        let mut cfg = base;
        cfg.tenant_theta = theta;
        skew_cells.push(run_cell(&cfg));
    }

    // ---- DU-context sweep ----------------------------------------------
    // Fewer executors per node at high load keeps Cereal decode waves
    // colliding on the per-node contexts.
    let mut du_cells = Vec::new();
    for &du in du_axis {
        let mut cfg = base;
        cfg.executors = 128;
        cfg.target_load = 1.2;
        cfg.du_contexts_per_node = du;
        du_cells.push(run_cell(&cfg));
    }

    // ---- Straggler × speculation sweep ---------------------------------
    let mut straggler_cells = Vec::new();
    for &rate in straggler_axis {
        for spec in [false, true] {
            let mut cfg = base;
            cfg.straggler_rate = rate;
            cfg.speculation = spec;
            straggler_cells.push(run_cell(&cfg));
        }
    }
    // Speculation self-checks: same answers, no worse makespan, and no
    // copies without stragglers.
    for pair in straggler_cells.chunks(2) {
        let (off, on) = (&pair[0], &pair[1]);
        assert_eq!(
            on.outcome.fold_checksum, off.outcome.fold_checksum,
            "speculation changed an answer at rate {}",
            on.cfg.straggler_rate
        );
        assert_eq!(on.outcome.jobs_completed, off.outcome.jobs_completed);
        assert!(
            on.outcome.makespan_ns <= off.outcome.makespan_ns,
            "speculation must not hurt the makespan at rate {}: on {} vs off {}",
            on.cfg.straggler_rate,
            on.outcome.makespan_ns,
            off.outcome.makespan_ns
        );
        if on.cfg.straggler_rate == 0.0 {
            assert_eq!(on.outcome.spec_launches, 0, "no stragglers, no copies");
            assert_eq!(on.outcome, off.outcome, "rate-0 speculation is a no-op");
        }
    }
    let clean_makespan = straggler_cells[0].outcome.makespan_ns;

    // ---- Fault sweeps ----------------------------------------------------
    // All fault cells run with stragglers + speculation on: recovery has
    // to coexist with the speculative copies, not assume a quiet cluster.
    let crash_axis: &[f64] = if smoke { &[0.0, 0.05] } else { &[0.0, 0.05, 0.15] };
    let heartbeat_axis: &[f64] =
        if smoke { &[10_000.0, 200_000.0] } else { &[10_000.0, 50_000.0, 200_000.0] };
    let blacklist_axis: &[u32] = if smoke { &[0, 2] } else { &[0, 2, 6] };
    let du_fail_axis: &[f64] = if smoke { &[0.0, 0.25] } else { &[0.0, 0.05, 0.25] };
    let shed_axis: &[usize] = if smoke { &[0, 4] } else { &[0, 8] };

    let mut fault_base = base;
    fault_base.straggler_rate = *straggler_axis.last().expect("axis non-empty");
    fault_base.speculation = true;

    // Crash-rate sweep, with the detection knobs deliberately off their
    // defaults so the crash-0 cell proves they are inert at rate 0.
    let mut crash_cells = Vec::new();
    for &rate in crash_axis {
        let mut cfg = fault_base;
        cfg.fault.exec_crash_rate = rate;
        cfg.fault.heartbeat_period_ns = 50_000.0;
        cfg.fault.blacklist_threshold = 2;
        crash_cells.push(run_fault_cell(&cfg));
    }
    let fault_free = run_cell(&fault_base);
    assert_eq!(
        crash_cells[0].outcome, fault_free.outcome,
        "a zero-rate fault config must be a byte-identical no-op"
    );

    // Heartbeat-period sweep at a fixed crash rate: slower detection
    // leaves doomed attempts undetected longer, inflating waste.
    let mut heartbeat_cells = Vec::new();
    for &period in heartbeat_axis {
        let mut cfg = fault_base;
        cfg.fault.exec_crash_rate = 0.05;
        cfg.fault.heartbeat_period_ns = period;
        heartbeat_cells.push(run_fault_cell(&cfg));
    }

    // Blacklist-threshold sweep at a fixed clean-task-failure rate
    // (threshold 0 disables blacklisting — the baseline).
    let mut blacklist_cells = Vec::new();
    for &threshold in blacklist_axis {
        let mut cfg = fault_base;
        cfg.fault.task_fail_rate = 0.08;
        cfg.fault.blacklist_threshold = threshold;
        blacklist_cells.push(run_fault_cell(&cfg));
    }

    // DU-device-failure sweep: failed nodes degrade to the software
    // fallback backend; no job may be lost, only slowed.
    let mut du_fail_cells = Vec::new();
    for &rate in du_fail_axis {
        let mut cfg = fault_base;
        cfg.fault.du_fail_rate = rate;
        let cell = run_fault_cell(&cfg);
        assert_eq!(
            cell.outcome.jobs_completed, cell.outcome.arrivals,
            "DU degradation alone must never lose a job"
        );
        du_fail_cells.push(cell);
    }
    assert_eq!(
        du_fail_cells[0].outcome.fold_checksum,
        du_fail_cells.last().expect("cells").outcome.fold_checksum,
        "degraded decodes must reproduce the healthy fold digest"
    );

    // Admission-control sweep under 4x overload on a small cluster —
    // the full fleet drains too fast for the backlog to ever reach the
    // watermark (watermark 0 = off).
    let mut shed_cells = Vec::new();
    for &depth in shed_axis {
        let mut cfg = fault_base;
        cfg.executors = 64;
        cfg.target_load = 4.0;
        cfg.fault.shed_queue_depth = depth;
        shed_cells.push(run_fault_cell(&cfg));
    }

    let mut t = Table::new(&[
        "sweep", "exec", "theta", "du/node", "rate", "spec", "makespan", "mean lat",
        "du waits", "spec wins", "x clean",
    ]);
    let mut table_row = |label: &str, c: &CellResult, baseline_ns: f64| {
        t.row(vec![
            label.to_string(),
            c.cfg.executors.to_string(),
            format!("{}", c.cfg.tenant_theta),
            c.cfg.du_contexts_per_node.to_string(),
            format!("{}", c.cfg.straggler_rate),
            if c.cfg.speculation { "on" } else { "off" }.to_string(),
            ns(c.outcome.makespan_ns),
            ns(c.outcome.mean_latency_ns()),
            c.outcome.du_waits.to_string(),
            c.outcome.spec_wins.to_string(),
            if baseline_ns > 0.0 {
                format!("{:.2}", c.outcome.makespan_ns / baseline_ns)
            } else {
                "-".to_string()
            },
        ]);
    };
    for c in &scale_cells {
        table_row("scale", c, 0.0);
    }
    for c in &skew_cells {
        table_row("skew", c, 0.0);
    }
    for c in &du_cells {
        table_row("du", c, 0.0);
    }
    for c in &straggler_cells {
        table_row("straggler", c, clean_makespan);
    }
    eprintln!("{}", t.render());

    // ---- Fault table -----------------------------------------------------
    // Makespan inflation ("x base") is against each sweep's own first
    // cell: crash 0, the fastest heartbeat, threshold 0, DU-fail 0,
    // watermark off.
    let mut ft = Table::new(&[
        "sweep", "crash", "hb ns", "blk", "du fail", "shed", "makespan", "goodput",
        "recompute", "shed rate", "failed", "x base",
    ]);
    let mut fault_row = |label: &str, c: &CellResult, baseline_ns: f64| {
        let o = &c.outcome;
        ft.row(vec![
            label.to_string(),
            format!("{}", c.cfg.fault.exec_crash_rate),
            format!("{}", c.cfg.fault.heartbeat_period_ns),
            c.cfg.fault.blacklist_threshold.to_string(),
            format!("{}", c.cfg.fault.du_fail_rate),
            c.cfg.fault.shed_queue_depth.to_string(),
            ns(o.makespan_ns),
            format!("{:.4}", o.goodput()),
            format!("{:.4}", o.recompute_share()),
            format!("{:.4}", o.shed_rate()),
            o.jobs_failed.to_string(),
            format!("{:.2}", o.makespan_ns / baseline_ns),
        ]);
    };
    for c in &crash_cells {
        fault_row("crash", c, crash_cells[0].outcome.makespan_ns);
    }
    for c in &heartbeat_cells {
        fault_row("heartbeat", c, heartbeat_cells[0].outcome.makespan_ns);
    }
    for c in &blacklist_cells {
        fault_row("blacklist", c, blacklist_cells[0].outcome.makespan_ns);
    }
    for c in &du_fail_cells {
        fault_row("du-fail", c, du_fail_cells[0].outcome.makespan_ns);
    }
    for c in &shed_cells {
        fault_row("admission", c, shed_cells[0].outcome.makespan_ns);
    }
    eprintln!("{}", ft.render());

    // ---- Telemetry reconciliation --------------------------------------
    // The most eventful cell: stragglers, speculation, DU contention.
    let mut recon_cfg = base;
    recon_cfg.executors = 128;
    recon_cfg.target_load = 1.2;
    recon_cfg.straggler_rate = *straggler_axis.last().expect("axis non-empty");
    recon_cfg.speculation = true;
    let recon_cell = run_cell(&recon_cfg);
    let (recon, recon_rec) = reconcile(&recon_cfg, &recon_cell.outcome);
    recon.eprint_failures("cluster");
    eprintln!(
        "cluster: telemetry reconciliation {}/{} checks passed",
        recon.passed(),
        recon.total()
    );

    // And the most faulted cell: a crash + task-failure + DU-failure
    // storm with blacklisting, so every fault counter is non-trivially
    // exercised against the trace.
    let mut fault_recon_cfg = recon_cfg;
    fault_recon_cfg.fault.exec_crash_rate = 0.05;
    fault_recon_cfg.fault.task_fail_rate = 0.08;
    fault_recon_cfg.fault.du_fail_rate = 0.1;
    fault_recon_cfg.fault.blacklist_threshold = 2;
    let fault_recon_cell = run_fault_cell(&fault_recon_cfg);
    let (fault_recon, fault_rec) = reconcile(&fault_recon_cfg, &fault_recon_cell.outcome);
    fault_recon.eprint_failures("cluster");
    eprintln!(
        "cluster: fault-storm reconciliation {}/{} checks passed",
        fault_recon.passed(),
        fault_recon.total()
    );

    // ---- Causal critical-path blame ------------------------------------
    // Where did every nanosecond of job latency go? The healthy cell's
    // latency should be queue/compute/serde-dominated; the fault storm
    // shifts blame into recovery, blacklist drain and speculation waste.
    let blame = blame_cell("healthy", &recon_rec, &recon_cell.outcome);
    let fault_blame = blame_cell("fault-storm", &fault_rec, &fault_recon_cell.outcome);
    let timeline = Timeline::from_recorder(&recon_rec);

    let mut w = JsonWriter::new();
    w.begin_obj();
    w.field_str("generated_by", "cereal-bench --bin cluster");
    w.field_bool("smoke", smoke);
    w.field_u64("base_executors", base.executors as u64);
    w.field_u64("base_tenants", base.tenants as u64);
    w.field_u64("base_arrivals", base.job_arrivals as u64);
    for (key, cells) in [
        ("scale_sweep", &scale_cells),
        ("skew_sweep", &skew_cells),
        ("du_sweep", &du_cells),
        ("straggler_sweep", &straggler_cells),
        ("crash_sweep", &crash_cells),
        ("heartbeat_sweep", &heartbeat_cells),
        ("blacklist_sweep", &blacklist_cells),
        ("du_failure_sweep", &du_fail_cells),
        ("admission_sweep", &shed_cells),
    ] {
        w.key(key);
        w.begin_arr();
        for c in cells {
            c.render(&mut w);
        }
        w.end_arr();
    }
    w.key("reconciliation");
    w.begin_obj();
    w.field_u64("checks", recon.total());
    w.field_u64("failures", recon.failures());
    w.field_u64("fault_checks", fault_recon.total());
    w.field_u64("fault_failures", fault_recon.failures());
    w.end_obj();
    w.key("blame");
    blame.render(&mut w);
    w.key("fault_blame");
    fault_blame.render(&mut w);
    w.key("timeline");
    timeline.render(&mut w);
    w.end_obj();
    let mut json = w.finish();
    json.push('\n');
    std::fs::write(&out_path, &json).expect("write report");
    println!("wrote {out_path}");

    if recon.failures() + fault_recon.failures() > 0 {
        eprintln!(
            "cluster: {} reconciliation checks failed",
            recon.failures() + fault_recon.failures()
        );
        std::process::exit(1);
    }
}
