//! Job profiles: each tenant's template executed for real, once.
//!
//! The scheduler needs per-task service times and inter-task transfer
//! sizes. Rather than inventing synthetic numbers, every tenant's
//! template runs through the *actual* executors —
//! [`shuffle::run_mapper`]/[`shuffle::run_reducer_sunk`] for shuffle jobs,
//! [`store::build_part`] for cached-RDD jobs — exactly once, and the
//! measurements become the profile that every job instance of that
//! tenant replays under contention. Whatever the template, a profile is
//! one table: stages of tasks ([`StageProfile`], [`TaskProfile`]). The
//! executors' per-task folds are merged here into the profile digest;
//! since every attempt replays this fixed profile, a completed job's
//! answer *is* that digest.
//!
//! Builds fan out over [`store::par_map`] (per-task results are pure
//! functions of the template), so `--jobs` changes wall-clock only.

use crate::job::{template, JobKind, TenantTemplate};
use crate::{ClusterConfig, ClusterError};
use shuffle::{fold_checksum, run_mapper, run_reducer_sunk, Message, ShuffleConfig};
use store::{build_part, par_map, Backend, MissPolicy, RddConfig};
use telemetry::NoopSink;
use workloads::{merge_folds, Fold};

/// Whether this tenant needs a software-fallback decode profile: only
/// when DU device failures can fire and the tenant actually decodes on
/// the DU (Cereal backend) with a *different* configured fallback.
fn profiles_fallback(cfg: &ClusterConfig, t: &TenantTemplate) -> bool {
    cfg.fault.du_fail_rate > 0.0
        && t.backend == Backend::Cereal
        && cfg.fault.fallback != t.backend
}

/// What a stage's tasks do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StageKind {
    /// Shuffle map tasks: build, partition and serialize a batch.
    Map,
    /// Shuffle reduce tasks: fetch every mapper's batches and decode.
    Reduce,
    /// Cached-RDD materialization: build and serialize each partition.
    Materialize,
    /// One scan pass: read each cached partition.
    Scan,
}

impl StageKind {
    /// The span name a winning attempt of this stage is traced under.
    pub fn span_name(self) -> &'static str {
        match self {
            StageKind::Map => "task.map",
            StageKind::Reduce => "task.reduce",
            StageKind::Materialize => "task.materialize",
            StageKind::Scan => "task.scan",
        }
    }

    /// Whether the stage's tasks decode serialized data (and so need a
    /// DU context under the Cereal backend).
    pub fn decodes(self) -> bool {
        matches!(self, StageKind::Reduce | StageKind::Scan)
    }
}

/// One profiled task.
#[derive(Clone, Debug)]
pub struct TaskProfile {
    /// Simulated service time: a mapper's full clock (build + shuffle +
    /// serialize), a reducer's summed decode, a partition's lineage cost
    /// (graph build + GC pressure + serialization), or one scan pass's
    /// read (deserialize, or validate-only for the zero-copy backend).
    pub service_ns: f64,
    /// Service on a DU-failed node. A decode task pays its decode under
    /// the configured software fallback backend (a degraded node falls
    /// back end to end: the fallback engine produces and decodes the
    /// data, and the fold is bit-identical). Equals `service_ns` for
    /// non-decode tasks and when fallback profiling is off.
    pub fallback_ns: f64,
    /// Blame-category fractions `(ser, de, gc)` of the service window.
    /// Decode tasks are pure deserialization. Map/materialize tasks
    /// split between serialization (engine busy time / full clock,
    /// capped at 1: the accelerator's units serialize in parallel),
    /// GC pressure, and (the remainder) compute.
    pub components: (f64, f64, f64),
    /// The stage-0 outputs this task fetches, as `(stage-0 task, wire
    /// bytes)` in deterministic `(mapper, seq)` order; empty in stage 0.
    pub inputs: Vec<(usize, u64)>,
}

impl TaskProfile {
    /// A task whose fallback service equals its service.
    fn new(service_ns: f64, components: (f64, f64, f64), inputs: Vec<(usize, u64)>) -> Self {
        TaskProfile { service_ns, fallback_ns: service_ns, components, inputs }
    }
}

/// One stage of a job: every task runs after the previous stage's
/// barrier.
#[derive(Clone, Debug)]
pub struct StageProfile {
    /// What the stage's tasks do.
    pub kind: StageKind,
    /// The stage's tasks, in task-index order.
    pub tasks: Vec<TaskProfile>,
}

/// One tenant's complete job profile.
#[derive(Clone, Debug)]
pub struct JobProfile {
    /// The template this profile measures.
    pub template: TenantTemplate,
    /// The task graph: a map stage then a reduce stage, or a
    /// materialize stage then one scan stage per pass.
    pub stages: Vec<StageProfile>,
    /// FNV-1a digest of the job's merged fold — the answer of every
    /// completed job instance.
    pub fold_checksum: u64,
    /// Tasks per job instance.
    pub tasks: u64,
    /// Summed nominal task service per job instance.
    pub total_service_ns: f64,
}

impl JobProfile {
    fn new(t: &TenantTemplate, stages: Vec<StageProfile>, fold: &Fold, total: f64) -> Self {
        JobProfile {
            template: *t,
            tasks: stages.iter().map(|st| st.tasks.len() as u64).sum(),
            stages,
            fold_checksum: fold_checksum(fold),
            total_service_ns: total,
        }
    }

    /// Stages per job instance.
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// Tasks in stage `s`.
    pub fn stage_tasks(&self, s: usize) -> usize {
        self.stages[s].tasks.len()
    }

    /// Nominal service of task `t` in stage `s`.
    pub fn service_ns(&self, s: usize, t: usize) -> f64 {
        self.stages[s].tasks[t].service_ns
    }

    /// Nominal service of task `t` in stage `s` on a DU-failed node.
    pub fn fallback_service_ns(&self, s: usize, t: usize) -> f64 {
        self.stages[s].tasks[t].fallback_ns
    }

    /// Blame-category fractions `(ser, de, gc)` of task `t`'s service
    /// window in stage `s`, measured during profiling.
    pub fn components(&self, s: usize, t: usize) -> (f64, f64, f64) {
        self.stages[s].tasks[t].components
    }
}

/// The shuffle configuration a tenant template profiles under:
/// fault-free, spill-free, square (reducers = mappers), single-threaded
/// per task.
fn shuffle_cfg(t: &TenantTemplate) -> ShuffleConfig {
    ShuffleConfig {
        mappers: t.agg.mappers,
        reducers: t.agg.mappers,
        records_per_mapper: t.agg.records_per_mapper,
        distinct_keys: t.agg.distinct_keys,
        seed: t.agg.seed,
        skew: t.agg.skew,
        flush_bytes: 4 << 10,
        watermark_bytes: 1 << 30,
        spill_bytes: 0,
        link: sim::LinkConfig::ten_gbe(),
        link_name: "10GbE",
        gc_pressure: false,
        gc_waves: 1,
        jobs: 1,
        checksum: false,
        faults: None,
    }
}

/// One run of the shuffle template: its tasks and the reducers' folds.
struct ShufflePass {
    maps: Vec<TaskProfile>,
    reduces: Vec<TaskProfile>,
    folds: Vec<Fold>,
}

/// Runs the shuffle template under `backend`: every mapper, then every
/// reducer over its batches in `(mapper, seq)` order.
fn shuffle_pass(
    cfg: &ClusterConfig,
    sc: &ShuffleConfig,
    backend: Backend,
) -> Result<ShufflePass, ClusterError> {
    let mut maps = Vec::with_capacity(sc.mappers);
    let mut all_msgs: Vec<Message> = Vec::new();
    for out in par_map(cfg.jobs, sc.mappers, |m| run_mapper(sc, backend, m)) {
        let out = out?;
        let ser_frac =
            if out.clock_ns > 0.0 { (out.ser_busy_ns / out.clock_ns).min(1.0) } else { 0.0 };
        maps.push(TaskProfile::new(out.clock_ns, (ser_frac, 0.0, 0.0), Vec::new()));
        all_msgs.extend(out.messages);
    }
    let reg = sc.agg().registry();
    let cap = sc.agg().heap_capacity();
    let mut reduces = Vec::with_capacity(sc.reducers);
    let mut folds = Vec::with_capacity(sc.reducers);
    for out in par_map(cfg.jobs, sc.reducers, |r| {
        let mut msgs: Vec<&Message> = all_msgs.iter().filter(|m| m.dst == r).collect();
        msgs.sort_by_key(|m| (m.src, m.seq));
        let inputs = msgs.iter().map(|m| (m.src, m.bytes.len() as u64)).collect();
        run_reducer_sunk(backend, &reg, cap, &msgs, &[], false, r, &mut NoopSink)
            .map(|out| (inputs, out))
    }) {
        let (inputs, out) = out?;
        reduces.push(TaskProfile::new(out.de_busy_ns, (0.0, 1.0, 0.0), inputs));
        folds.push(out.fold);
    }
    Ok(ShufflePass { maps, reduces, folds })
}

fn profile_shuffle(cfg: &ClusterConfig, t: &TenantTemplate) -> Result<JobProfile, ClusterError> {
    let sc = shuffle_cfg(t);
    let ShufflePass { maps, mut reduces, folds } = shuffle_pass(cfg, &sc, t.backend)?;
    if profiles_fallback(cfg, t) {
        // A DU-failed node degrades end-to-end to the software fallback
        // format (PR 4 semantics): profile the fallback decode by
        // re-running the template under that backend and demand the
        // per-task folds stay bit-identical — degradation moves time,
        // never answers.
        let fb = shuffle_pass(cfg, &sc, cfg.fault.fallback)?;
        if fb.folds != folds {
            return Err(ClusterError::ProfileFoldMismatch { tenant: t.tenant });
        }
        for (r, fb) in reduces.iter_mut().zip(fb.reduces) {
            r.fallback_ns = fb.service_ns;
        }
    }
    // Reducers own disjoint key ranges (key % reducers), so merging in
    // reducer order reproduces the expected aggregate bit for bit.
    let merged = merge_folds(&folds);
    if merged != sc.agg().expected_fold() {
        return Err(ClusterError::ProfileFoldMismatch { tenant: t.tenant });
    }
    let total: f64 = maps.iter().map(|m| m.service_ns).sum::<f64>()
        + reduces.iter().map(|r| r.service_ns).sum::<f64>();
    let stages = vec![
        StageProfile { kind: StageKind::Map, tasks: maps },
        StageProfile { kind: StageKind::Reduce, tasks: reduces },
    ];
    Ok(JobProfile::new(t, stages, &merged, total))
}

fn profile_scan(cfg: &ClusterConfig, t: &TenantTemplate, passes: usize) -> JobProfile {
    let rc = RddConfig {
        agg: t.agg,
        backend: t.backend,
        memory_fraction: 1.0,
        passes: 0,
        policy: MissPolicy::Fetch,
        disk: sim::DiskConfig::ssd(),
        access: store::AccessPattern::Scan,
        jobs: 1,
        checksum: false,
        fault: None,
    };
    let fb = profiles_fallback(cfg, t).then_some(cfg.fault.fallback);
    let parts: Vec<(TaskProfile, TaskProfile, Fold)> = par_map(cfg.jobs, t.agg.mappers, |m| {
        // `build_part` runs the real materialize + re-read cycle and
        // asserts the reconstructed fold matches the source data.
        let p = build_part(&rc, m);
        // A DU-failed node re-materializes and reads its blocks in the
        // software fallback format (PR 4 semantics): profile that read
        // cost too, and demand the fold stays bit-identical.
        let fallback_ns = match fb {
            Some(b) => {
                let fp = build_part(&RddConfig { backend: b, ..rc }, m);
                assert_eq!(
                    fp.fold, p.fold,
                    "fallback backend changed a partition fold"
                );
                fp.de_ns
            }
            None => p.de_ns,
        };
        // The lineage cost is exactly GC pressure + serialization
        // (`PartBuild::recompute_ns`), so the two fractions partition
        // the materialize window.
        let ser_frac =
            if p.recompute_ns > 0.0 { (p.ser_ns / p.recompute_ns).min(1.0) } else { 0.0 };
        let gc_frac = if p.recompute_ns > 0.0 { 1.0 - ser_frac } else { 0.0 };
        let read = TaskProfile {
            service_ns: p.de_ns,
            fallback_ns,
            components: (0.0, 1.0, 0.0),
            inputs: vec![(m, p.bytes.len() as u64)],
        };
        (TaskProfile::new(p.recompute_ns, (ser_frac, 0.0, gc_frac), Vec::new()), read, p.fold)
    });
    // Partitions share keys, so the merge order (partition order) is
    // part of the digest's definition.
    let merged = merge_folds(parts.iter().map(|(_, _, fold)| fold));
    let total: f64 = parts
        .iter()
        .map(|(mat, read, _)| mat.service_ns + passes as f64 * read.service_ns)
        .sum();
    let (materialize, reads): (Vec<_>, Vec<_>) =
        parts.into_iter().map(|(mat, read, _)| (mat, read)).unzip();
    let mut stages = vec![StageProfile { kind: StageKind::Materialize, tasks: materialize }];
    let scan = StageProfile { kind: StageKind::Scan, tasks: reads };
    stages.extend(std::iter::repeat_n(scan, passes));
    JobProfile::new(t, stages, &merged, total)
}

/// Builds every tenant's profile. Within a tenant, task builds fan out
/// over `cfg.jobs` worker threads; results are independent of the
/// thread count.
///
/// # Errors
/// Propagates executor errors and profile fold mismatches.
pub fn build_profiles(cfg: &ClusterConfig) -> Result<Vec<JobProfile>, ClusterError> {
    (0..cfg.tenants)
        .map(|i| {
            let t = template(cfg, i);
            match t.kind {
                JobKind::Shuffle => profile_shuffle(cfg, &t),
                JobKind::Scan { passes } => Ok(profile_scan(cfg, &t, passes)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_deterministic_across_thread_counts() {
        let mut cfg = ClusterConfig::smoke();
        cfg.tenants = 2;
        cfg.jobs = 1;
        let a = build_profiles(&cfg).expect("profiles build");
        cfg.jobs = 4;
        let b = build_profiles(&cfg).expect("profiles build");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fold_checksum, y.fold_checksum);
            assert_eq!(x.tasks, y.tasks);
            assert_eq!(x.total_service_ns, y.total_service_ns);
        }
    }

    #[test]
    fn shuffle_profile_carries_inputs_and_positive_services() {
        let mut cfg = ClusterConfig::smoke();
        cfg.tenants = 1;
        let p = &build_profiles(&cfg).expect("profiles build")[0];
        let [maps, reduces] = &p.stages[..] else {
            panic!("tenant 0 is a shuffle template");
        };
        assert_eq!((maps.kind, reduces.kind), (StageKind::Map, StageKind::Reduce));
        assert_eq!(maps.tasks.len(), cfg.template_mappers);
        assert_eq!(reduces.tasks.len(), cfg.template_mappers);
        assert!(maps.tasks.iter().all(|m| m.service_ns > 0.0));
        for r in &reduces.tasks {
            assert!(!r.inputs.is_empty(), "every reducer receives batches");
            assert!(r.inputs.iter().all(|&(src, b)| src < maps.tasks.len() && b > 0));
        }
    }
}
