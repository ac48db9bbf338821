//! `cluster`: the event-driven scheduler at 1024 executors.
//!
//! Open Zipf-tenant arrivals, stragglers with speculation on, and a
//! crash rate low enough that every job still completes. Set-up builds
//! the tenant profiles (the only serializer work here); each timed
//! iteration is one whole `run_cluster`, which rebuilds them and then
//! runs the event loop, plus the staged tenant shuffles of [`Probe`].
//! One traced run after timing gives the job sojourn percentiles and the
//! critical-path blame, and must reproduce the untraced outcome exactly.

use std::time::Instant;

use cluster::{
    build_profiles, run_cluster, run_cluster_sunk, template, ClusterConfig, ClusterFaultConfig,
    ClusterOutcome, JobKind, JobProfile,
};
use shuffle::ShuffleConfig;
use store::Backend;
use telemetry::{critpath, NoopSink, Recorder};

use crate::clock::Clock;
use crate::harness::{self, guard, rank_percentile, Ctx, Iter, Run};
use crate::shuffle_store::{staged, Fold, Stats};

/// Arrivals per run: enough that the event loop outweighs the profile
/// build and the p99 sojourn has well over ten jobs beyond it.
const ARRIVALS: usize = 6000;

fn config(ctx: &Ctx) -> ClusterConfig {
    ClusterConfig {
        executors: 1024,
        executors_per_node: 8,
        tenants: 8,
        tenant_theta: 1.1,
        job_arrivals: ARRIVALS,
        target_load: 0.7,
        straggler_rate: 0.05,
        speculation: true,
        fault: ClusterFaultConfig {
            exec_crash_rate: 0.0005,
            ..ClusterFaultConfig::none()
        },
        seed: ctx.seed,
        jobs: ctx.threads,
        timeline_bucket_ns: 0.0,
        ..ClusterConfig::smoke()
    }
}

/// Simulated Cereal SU+DU ns of one job of each Cereal tenant.
fn accel_ns(profiles: &[JobProfile]) -> f64 {
    let mut ns = 0.0;
    for prof in profiles {
        if prof.template.backend == Backend::Cereal {
            for s in 0..prof.stages() {
                for t in 0..prof.stage_tasks(s) {
                    let (ser, de, _) = prof.components(s, t);
                    ns += (ser + de) * prof.service_ns(s, t);
                }
            }
        }
    }
    ns
}

fn build(ctx: &Ctx, cfg: &ClusterConfig) -> Result<f64, String> {
    let profiles = ctx.clock.span("cluster.profile_s", || build_profiles(cfg));
    profiles
        .map(|p| accel_ns(&p))
        .map_err(|e| format!("profiles: {e}"))
}

/// The profile build's serializer work, timed by stage. The cluster
/// calls serializers only inside `build_profiles`, which is one call;
/// so every iteration also runs each shuffle tenant's dataset through
/// the staged shuffle on the tenant's backend (as the profile build
/// runs it: square, no spill, no frames, one thread per task). This
/// gives the cluster's `ser_MBps` (map stage), `de_MBps` (reduce stage),
/// `small_rt_per_s` (batches per second of both) and `sim_uops_per_s`
/// (the executors' simulated micro-ops per host second of both).
struct Probe {
    tenants: Vec<Tenant>,
}

struct Tenant {
    shuffle: ShuffleConfig,
    backend: Backend,
    expected: Fold,
    stats: Stats,
    uops: u64,
}

impl Probe {
    /// One untimed traced pass per tenant, counting its micro-ops.
    fn new(cfg: &ClusterConfig) -> Result<Probe, String> {
        let mut tenants = Vec::new();
        for t in (0..cfg.tenants).map(|i| template(cfg, i)) {
            if !matches!(t.kind, JobKind::Shuffle) {
                continue;
            }
            let shuffle = ShuffleConfig {
                mappers: t.agg.mappers,
                reducers: t.agg.mappers,
                records_per_mapper: t.agg.records_per_mapper,
                distinct_keys: t.agg.distinct_keys,
                seed: t.agg.seed,
                skew: t.agg.skew,
                jobs: 1,
                ..ShuffleConfig::smoke()
            };
            let mut rec = Recorder::new();
            let s = guard("staged shuffle", || {
                staged(&Clock::new(false), &shuffle, t.backend, &mut rec)
            })?;
            let expected = shuffle.agg().expected_fold();
            if s.fold != expected {
                return Err(format!(
                    "{}: tenant shuffle fold differs from its dataset",
                    t.backend.name()
                ));
            }
            tenants.push(Tenant {
                shuffle,
                backend: t.backend,
                expected,
                stats: s.stats,
                uops: rec.metrics.counter("cpu.uops"),
            });
        }
        Ok(Probe { tenants })
    }

    /// One timed pass over every tenant into `it`.
    fn pass(&self, it: &mut Iter) {
        let off = Clock::new(false);
        for (i, t) in self.tenants.iter().enumerate() {
            let r = guard("staged shuffle", || {
                staged(&off, &t.shuffle, t.backend, &mut NoopSink)
            });
            let Some(s) = it.tally.op(r) else { continue };
            it.tally.op(if s.fold == t.expected && s.stats == t.stats {
                Ok(())
            } else {
                Err(format!("{}: tenant shuffle drifted", t.backend.name()))
            });
            let op = format!("tenant{i}");
            let mb = t.stats.wire_bytes as f64 / 1e6;
            let both = s.map_s + s.reduce_s;
            it.sample("ser_MBps", op.clone(), s.map_s, mb);
            it.sample("de_MBps", op.clone(), s.reduce_s, mb);
            it.sample("small_rt_per_s", op.clone(), both, t.stats.messages as f64);
            it.sample("sim_uops_per_s", op, both, t.uops as f64);
        }
    }
}

/// The simulated fingerprint of an outcome.
fn fingerprint(o: &ClusterOutcome, it: &mut Iter) {
    it.sim_u64("jobs_completed", o.jobs_completed);
    it.sim_u64("tasks_launched", o.tasks_launched);
    it.sim_u64("spec_launches", o.spec_launches);
    it.sim_u64("spec_wins", o.spec_wins);
    it.sim_u64("du_waits", o.du_waits);
    it.sim_u64("exec_crashes", o.exec_crashes);
    it.sim_u64("max_queue_depth", o.max_queue_depth);
    it.sim_u64("fabric_bytes", o.fabric_bytes);
    it.sim_u64("fold_checksum", o.fold_checksum);
    it.sim_f64("makespan_ns", o.makespan_ns);
    it.sim_f64("job_latency_sum_ns", o.job_latency_sum_ns);
    it.sim_f64("du_wait_ns", o.du_wait_ns);
    it.sim_f64("busy_ns", o.busy_ns);
}

fn check(o: &ClusterOutcome, it: &mut Iter) {
    it.tally.op(
        if o.jobs_shed == 0 && o.jobs_failed == 0 && o.jobs_completed == o.arrivals {
            Ok(())
        } else {
            Err(format!(
                "cluster: {} of {} jobs completed ({} shed, {} failed)",
                o.jobs_completed, o.arrivals, o.jobs_shed, o.jobs_failed
            ))
        },
    );
}

pub fn run(ctx: &Ctx) -> Run {
    let cfg = config(ctx);
    let setup = harness::setup(ctx, harness::SETUP_REPS, || {
        guard("profiles", || build(ctx, &cfg))
    });
    let accel = match setup.value {
        Ok(a) => a,
        Err(e) => return Run::failed(e),
    };
    let probe = match Probe::new(&cfg) {
        Ok(p) => p,
        Err(e) => return Run::failed(e),
    };
    let outcome = std::cell::RefCell::new(None);
    let timed = harness::timed(ctx, &mut (), |ctx, _| {
        let mut it = Iter::default();
        let r = it.part("run_cluster", |_| {
            guard("run_cluster", || {
                ctx.clock
                    .span("cluster.run", || run_cluster(&cfg))
                    .map_err(|e| format!("run_cluster: {e}"))
            })
        });
        if let Some(o) = it.tally.op(r) {
            check(&o, &mut it);
            fingerprint(&o, &mut it);
            it.tasks = o.tasks_launched;
            it.sim_metric("makespan_sim_ns", o.makespan_ns);
            *outcome.borrow_mut() = Some(o);
        }
        ctx.clock.span("bench.stand_in_s", || probe.pass(&mut it));
        it
    });
    let mut run = timed.into_run(setup.setup_s);
    for (k, v) in setup.layers {
        run.layers.entry(k).or_insert(v);
    }
    let Some(untraced) = outcome.into_inner() else {
        return run;
    };
    let wall = run.e2e["wall_s"];
    let profile_s = run.layers.get("cluster.profile_s").copied();
    run.e2e.insert("accel_sd_sim_ns", accel);
    run.sim.push(("accel_ns".into(), accel.to_bits()));
    for t in &probe.tenants {
        run.sim.push(("probe/uops".into(), t.uops));
    }

    // The traced twin: identical outcome, then sojourn percentiles and
    // the critical-path blame from its trace.
    let mut rec = Recorder::new();
    let t0 = Instant::now();
    let traced = guard("traced run_cluster", || {
        run_cluster_sunk(&cfg, &mut rec).map_err(|e| e.to_string())
    });
    let record_s = t0.elapsed().as_secs_f64();
    let Some(traced) = run.tally.op(traced) else {
        return run;
    };
    run.tally.op(if traced == untraced {
        Ok(())
    } else {
        Err("traced cluster outcome differs from untraced".into())
    });
    let t0 = Instant::now();
    let analysis = guard("critpath", || {
        critpath::analyze(&rec, traced.makespan_ns).map_err(|e| format!("{e:?}"))
    });
    let critpath_s = t0.elapsed().as_secs_f64();
    // The Chrome export only matters to the traced run's per-layer cost.
    let (chrome_bytes, chrome_s) = if ctx.clock.on() {
        let t0 = Instant::now();
        (
            telemetry::chrome_trace(&rec).len(),
            t0.elapsed().as_secs_f64(),
        )
    } else {
        (0, 0.0)
    };
    drop(rec);
    let Some(a) = run.tally.op(analysis) else {
        return run;
    };
    let lat: Vec<f64> = a.jobs.iter().map(|j| j.latency_ns).collect();
    run.tally.op(
        if lat.len() as u64 == traced.jobs_completed && lat.len() >= 1000 {
            Ok(())
        } else {
            Err(format!(
                "{} job latencies for {} completed jobs",
                lat.len(),
                traced.jobs_completed
            ))
        },
    );
    let (p50, p99) = (rank_percentile(&lat, 0.5), rank_percentile(&lat, 0.99));
    run.e2e.insert("job_p50_sim_ns", p50);
    run.e2e.insert("job_p99_sim_ns", p99);
    run.sim.push(("job_p50_ns".into(), p50.to_bits()));
    run.sim.push(("job_p99_ns".into(), p99.to_bits()));

    let o = &untraced;
    let blame = a.total_blame();
    let total: f64 = blame.iter().sum();
    let layers = &mut run.layers;
    if let Some(p) = profile_s {
        layers.insert(
            "cluster.loop_s",
            layers.get("cluster.run").copied().unwrap_or(wall) - p,
        );
    }
    layers.insert("cluster.tasks_launched", o.tasks_launched as f64);
    layers.insert(
        "cluster.spec_win_ratio",
        o.spec_wins as f64 / o.spec_launches.max(1) as f64,
    );
    layers.insert("cluster.du_waits", o.du_waits as f64);
    layers.insert("cluster.du_wait_sim_ns", o.du_wait_ns);
    layers.insert("cluster.goodput", o.goodput());
    layers.insert("cluster.utilization", o.utilization(cfg.executors));
    layers.insert("cluster.max_queue_depth", o.max_queue_depth as f64);
    layers.insert("sim.net.fabric_bytes", o.fabric_bytes as f64);
    for (i, name) in CRITPATH_SHARES.iter().enumerate() {
        layers.insert(name, blame[i] / total);
    }
    layers.insert("telemetry.record_s", record_s - wall);
    layers.insert("telemetry.critpath_s", critpath_s);
    layers.insert("telemetry.chrome_s", chrome_s);
    run.notes.push(format!(
        "cluster: {} jobs, {} attempts, traced run {record_s:.3} s, {chrome_bytes} B of Chrome trace",
        o.jobs_completed, o.tasks_launched
    ));
    run
}

/// Per-layer names of the critical-path categories, in
/// [`critpath::CATEGORIES`] order.
const CRITPATH_SHARES: [&str; 9] = [
    "critpath.queue_share",
    "critpath.compute_share",
    "critpath.serde_share",
    "critpath.fetch_share",
    "critpath.du_wait_share",
    "critpath.gc_share",
    "critpath.recovery_share",
    "critpath.speculation_share",
    "critpath.blacklist_share",
];
