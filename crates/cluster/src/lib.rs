//! `cluster` — a deterministic event-driven cluster scheduler.
//!
//! The sibling crates simulate one job at a time on a hand-rolled
//! per-run timeline: nothing ever *contends*. This crate replaces that
//! timeline with a discrete-event scheduler over 100s–1000s of
//! executors, so the serialization economics the paper measures finally
//! meet cluster reality — queueing, sharing, and stragglers:
//!
//! * **open arrivals** — a seeded Poisson-style job generator
//!   ([`job::arrivals`]) on the simulated clock; each arrival draws its
//!   tenant from a Zipf-skewed [`workloads::SkewSampler`], so a few hot
//!   tenants dominate the cluster the way hot keys dominate a shuffle;
//! * **real work, profiled once** — each tenant's job template is
//!   executed *for real* exactly once ([`profile`]): shuffle map tasks
//!   run [`shuffle::run_mapper`], reduce tasks run
//!   [`shuffle::run_reducer_sunk`], cached-RDD tasks run
//!   [`store::build_part`] — producing per-task service times and
//!   message bytes as one table of stages of tasks, plus the fold digest
//!   of the job's answer. The scheduler then replays those fixed
//!   profiles under contention, so a completed job's answer is its
//!   profile digest and scheduling can never change an answer;
//! * **a shared fabric** — every inter-executor transfer (reduce input
//!   fetches, cached-block reads) is charged on one
//!   [`sim::net::Fabric`] full mesh whose lazy pair links make
//!   1000-executor meshes affordable;
//! * **DU context sharing** — executors are grouped into nodes; each
//!   node owns `du_contexts_per_node` Cereal accelerator
//!   deserialization contexts. Cereal-backend reduce/scan tasks queue
//!   for a context, and the queueing delay is charged on the event
//!   clock — the paper's accelerator, finally shared;
//! * **speculative re-execution** — a seeded straggler model inflates
//!   some task services; once a stage is mostly done, running tasks
//!   lagging the completed-task median get a speculative copy
//!   (first-completion-wins, the loser killed and its executor and DU
//!   context reclaimed). Copies replay the same profile, so folds stay
//!   bit-identical — speculation moves time, never answers;
//! * **a cluster fault domain** — seeded executor crashes and whole-node
//!   failures ([`ClusterFaultConfig`]'s rates, drawn from
//!   [`sim::fault::stream`]s keyed by the stable executor entity ids), a
//!   heartbeat/lease
//!   failure detector on the event clock (miss-threshold → declared
//!   dead, in-flight attempts killed with DU reservations refunded,
//!   lost stage-0 outputs recomputed Spark-style), fetch failures that
//!   detect silent deaths ahead of the heartbeat timeout, per-executor
//!   failure accounting with blacklisting (drain + seeded-cooldown
//!   rejoin), DU device failures that degrade a node's Cereal decodes
//!   to a profiled software fallback, bounded job-level retries with
//!   exponential backoff, and admission control that sheds arrivals
//!   past a queue-depth watermark. Every recovery path replays the same
//!   fixed profile — jobs either complete with the profile digest or
//!   are reported shed / exhausted-retries, never silently wrong;
//! * **telemetry twins** — [`run_cluster_sunk`] books every counter,
//!   gauge and span at the event site (fault lifecycle on the `T_FAIL`
//!   lanes); the `cluster` bench binary reconciles the exported
//!   counters against the report and exits non-zero on any mismatch.
//!
//! Determinism: profile building fans out over real threads
//! ([`ClusterConfig::jobs`] via [`store::par_map`]), but per-task
//! results are pure functions of the config; the event loop itself is
//! strictly sequential with FIFO tie-breaking ([`event::EventQueue`]).
//! Every reported number is therefore byte-identical for any job count
//! (test- and CI-enforced).

pub mod event;
pub mod job;
pub mod profile;
pub mod report;
pub mod sched;

pub use event::EventQueue;
pub use job::{arrivals, template, Arrival, JobKind, TenantTemplate};
pub use profile::{build_profiles, JobProfile, StageKind, StageProfile, TaskProfile};
pub use report::CellResult;
pub use sched::{run_cluster, run_cluster_sunk, ClusterOutcome, TenantStats};

use sim::LinkConfig;

/// Errors the cluster scheduler can surface. A nonsensical config is
/// rejected before any work runs. Profile building runs real executors,
/// so their typed errors propagate.
#[derive(Debug)]
pub enum ClusterError {
    /// [`ClusterConfig::validate`] rejected the config; the message
    /// names the offending field and the range it must lie in.
    InvalidConfig(&'static str),
    /// A profile-building shuffle executor failed.
    Shuffle(shuffle::ShuffleError),
    /// A tenant's profiled shuffle fold did not match the dataset's
    /// independently computed expected aggregate.
    ProfileFoldMismatch {
        /// The offending tenant.
        tenant: usize,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::InvalidConfig(why) => write!(f, "invalid cluster config: {why}"),
            ClusterError::Shuffle(e) => write!(f, "profile shuffle executor failed: {e}"),
            ClusterError::ProfileFoldMismatch { tenant } => {
                write!(f, "tenant {tenant}: profiled fold != expected aggregate")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<shuffle::ShuffleError> for ClusterError {
    fn from(e: shuffle::ShuffleError) -> Self {
        ClusterError::Shuffle(e)
    }
}

/// The cluster fault domain: seeded executor crashes, whole-node
/// failures, spurious task failures, DU device failures, and the
/// recovery machinery that answers them (heartbeat detection,
/// blacklisting, retries with backoff, admission control).
///
/// This config is the only home of the four rates. Each is a
/// per-dispatch probability drawn from a scoped [`sim::fault::stream`]
/// — executor streams keyed by the executor's stable telemetry entity
/// id (`CLUSTER_PID_BASE + e`), node streams by the node index — so the
/// fault schedule is a pure function of `(seed, entity)` and
/// byte-identical for any `--jobs` thread count.
#[derive(Clone, Copy, Debug)]
pub struct ClusterFaultConfig {
    /// Probability per dispatched attempt that the hosting executor
    /// crashes mid-service (silent — detected by heartbeat or by a
    /// later fetch failure).
    pub exec_crash_rate: f64,
    /// Probability per dispatched attempt that the hosting executor's
    /// whole node fails, crashing every executor on it.
    pub node_fail_rate: f64,
    /// Probability per dispatched attempt that the attempt fails
    /// cleanly (the executor survives and reports the failure).
    pub task_fail_rate: f64,
    /// Probability per DU-context acquisition that the node's DU device
    /// fails permanently, degrading the node's Cereal decodes to the
    /// profiled [`store::Backend::FALLBACK`] software backend.
    pub du_fail_rate: f64,
    /// Heartbeat/lease period on the event clock (ns).
    pub heartbeat_period_ns: f64,
    /// Consecutive missed heartbeats before a crashed executor is
    /// declared dead.
    pub heartbeat_misses: u32,
    /// Time from a declared death until the replacement executor
    /// re-registers (ns).
    pub restart_ns: f64,
    /// Clean task failures on one executor before it is blacklisted
    /// (0 disables blacklisting).
    pub blacklist_threshold: u32,
    /// Base cooldown before a blacklisted executor rejoins (ns); the
    /// actual cooldown is jittered by the executor's fault stream.
    pub blacklist_cooldown_ns: f64,
    /// Task re-enqueues (of any cause) a job may consume before it is
    /// aborted as exhausted-retries.
    pub job_retry_budget: u32,
    /// Base backoff before retrying a cleanly failed task (ns); doubles
    /// per prior failure of that task ([`sim::fault::exp_backoff_ns`]).
    pub retry_backoff_ns: f64,
    /// Admission-control watermark: arrivals finding this many pending
    /// attempts already queued are shed (0 disables shedding).
    pub shed_queue_depth: usize,
}

impl ClusterFaultConfig {
    /// No faults and no admission control: the scheduler behaves
    /// exactly as if the fault domain did not exist.
    pub fn none() -> Self {
        ClusterFaultConfig {
            exec_crash_rate: 0.0,
            node_fail_rate: 0.0,
            task_fail_rate: 0.0,
            du_fail_rate: 0.0,
            heartbeat_period_ns: 25_000.0,
            heartbeat_misses: 3,
            restart_ns: 150_000.0,
            blacklist_threshold: 3,
            blacklist_cooldown_ns: 200_000.0,
            job_retry_budget: 24,
            retry_backoff_ns: 5_000.0,
            shed_queue_depth: 0,
        }
    }

    /// Whether any fault draw or admission gate can fire. When false
    /// the scheduler skips the fault machinery entirely, keeping the
    /// fault-free path a byte-identical no-op.
    pub fn enabled(&self) -> bool {
        self.exec_crash_rate > 0.0
            || self.node_fail_rate > 0.0
            || self.task_fail_rate > 0.0
            || self.du_fail_rate > 0.0
            || self.shed_queue_depth > 0
    }
}

/// Cluster experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Executors in the cluster (fabric endpoints, task slots).
    pub executors: usize,
    /// Executors per physical node (DU contexts are per node).
    pub executors_per_node: usize,
    /// Cereal DU deserialization contexts per node — the shared,
    /// contended accelerator resource.
    pub du_contexts_per_node: usize,
    /// Tenants (distinct job templates).
    pub tenants: usize,
    /// Zipf exponent of the tenant-arrival skew (0 = uniform).
    pub tenant_theta: f64,
    /// Jobs arriving over the run (open arrivals).
    pub job_arrivals: usize,
    /// Target executor utilization the arrival rate is calibrated to.
    pub target_load: f64,
    /// Map tasks (= reduce tasks = cached partitions) per job template.
    pub template_mappers: usize,
    /// Records per map task in the templates.
    pub template_records: usize,
    /// Distinct aggregation keys in the templates.
    pub template_keys: u64,
    /// Pair-link model of the shared fabric.
    pub link: LinkConfig,
    /// Probability a task draws a straggler (seeded per task).
    pub straggler_rate: f64,
    /// Service-time multiplier of a straggling task.
    pub straggler_factor: f64,
    /// Whether speculative re-execution is on.
    pub speculation: bool,
    /// Fraction of a stage that must complete before its laggards are
    /// eligible for speculation.
    pub spec_quantile: f64,
    /// A running task is a laggard when its elapsed time exceeds this
    /// multiple of the stage's completed-task median service.
    pub spec_multiplier: f64,
    /// The cluster fault domain (crash/failure rates, detection,
    /// blacklisting, retries, admission control).
    pub fault: ClusterFaultConfig,
    /// Master seed (arrivals, tenant skew, straggler draws, fault
    /// streams, datasets).
    pub seed: u64,
    /// Worker threads for profile building (does not affect results).
    pub jobs: usize,
    /// Simulated-clock bucket width for the traced gauge timeline
    /// (utilization, queue depth, blacklist, DU occupancy). `0`
    /// disables sampling; ignored entirely when tracing is off.
    pub timeline_bucket_ns: f64,
}

impl ClusterConfig {
    /// Small configuration for tests and `--smoke` runs.
    pub fn smoke() -> Self {
        ClusterConfig {
            executors: 64,
            executors_per_node: 8,
            du_contexts_per_node: 2,
            tenants: 4,
            tenant_theta: 1.1,
            job_arrivals: 24,
            target_load: 0.7,
            template_mappers: 4,
            template_records: 192,
            template_keys: 32,
            link: LinkConfig::ten_gbe(),
            straggler_rate: 0.0,
            straggler_factor: 8.0,
            speculation: false,
            spec_quantile: 0.5,
            spec_multiplier: 1.5,
            fault: ClusterFaultConfig::none(),
            seed: 0x0C10_57E2_5EED,
            jobs: 1,
            timeline_bucket_ns: 50_000.0,
        }
    }

    /// Rejects configs the scheduler cannot run meaningfully: no
    /// executors, tenants, executors per node, DU contexts per node,
    /// template mappers, template keys or heartbeat misses; a target
    /// load, speculation multiplier, link bandwidth or heartbeat period
    /// that is not a positive finite number; a tenant skew, link
    /// latency, restart, blacklist cooldown or retry backoff that is
    /// negative or not finite (a delay would put an event off the clock
    /// or before `now`); a probability outside `[0, 1]` (or NaN); a
    /// straggler factor below 1 or infinite; or a speculation quantile
    /// outside `(0, 1]`.
    ///
    /// # Errors
    /// [`ClusterError::InvalidConfig`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ClusterError> {
        let invalid = |why| Err(ClusterError::InvalidConfig(why));
        let f = &self.fault;
        for (zero, why) in [
            (self.executors == 0, "executors must be > 0"),
            (self.tenants == 0, "tenants must be > 0"),
            (self.executors_per_node == 0, "executors_per_node must be > 0"),
            (self.du_contexts_per_node == 0, "du_contexts_per_node must be > 0"),
            (self.template_mappers == 0, "template_mappers must be > 0"),
            (self.template_keys == 0, "template_keys must be > 0"),
            (f.heartbeat_misses == 0, "fault.heartbeat_misses must be > 0"),
        ] {
            if zero {
                return invalid(why);
            }
        }
        for (x, why) in [
            (self.target_load, "target_load must be finite and > 0"),
            (self.spec_multiplier, "spec_multiplier must be finite and > 0"),
            (self.link.bytes_per_ns, "link.bytes_per_ns must be finite and > 0"),
            (f.heartbeat_period_ns, "fault.heartbeat_period_ns must be finite and > 0"),
        ] {
            if !(x.is_finite() && x > 0.0) {
                return invalid(why);
            }
        }
        for (x, why) in [
            (self.tenant_theta, "tenant_theta must be finite and >= 0"),
            (self.link.latency_ns, "link.latency_ns must be finite and >= 0"),
            (f.restart_ns, "fault.restart_ns must be finite and >= 0"),
            (f.blacklist_cooldown_ns, "fault.blacklist_cooldown_ns must be finite and >= 0"),
            (f.retry_backoff_ns, "fault.retry_backoff_ns must be finite and >= 0"),
        ] {
            if !(x.is_finite() && x >= 0.0) {
                return invalid(why);
            }
        }
        for (rate, why) in [
            (self.straggler_rate, "straggler_rate must be in [0, 1]"),
            (f.exec_crash_rate, "fault.exec_crash_rate must be in [0, 1]"),
            (f.node_fail_rate, "fault.node_fail_rate must be in [0, 1]"),
            (f.task_fail_rate, "fault.task_fail_rate must be in [0, 1]"),
            (f.du_fail_rate, "fault.du_fail_rate must be in [0, 1]"),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return invalid(why);
            }
        }
        if !(self.straggler_factor.is_finite() && self.straggler_factor >= 1.0) {
            return invalid("straggler_factor must be finite and >= 1");
        }
        if !(self.spec_quantile > 0.0 && self.spec_quantile <= 1.0) {
            return invalid("spec_quantile must be in (0, 1]");
        }
        Ok(())
    }

    /// Nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.executors.div_ceil(self.executors_per_node)
    }
}
