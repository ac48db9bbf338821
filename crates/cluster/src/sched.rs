//! The event-driven scheduler: open arrivals, stage barriers, DU
//! sharing, straggler detection, speculative re-execution, and the
//! cluster fault domain (crashes, detection, blacklisting, degraded-DU
//! scheduling, retries, admission control).
//!
//! One strictly sequential event loop over [`crate::EventQueue`]:
//! arrivals enqueue a job's first stage, task-finish events advance
//! stage barriers, and a dispatcher greedily places pending task
//! attempts onto free executors (lowest index first, FIFO queue) after
//! every event. Reduce/scan attempts fetch their inputs over the shared
//! [`Fabric`] and — under the Cereal backend — queue for one of the
//! node's DU contexts, with the wait charged on the event clock.
//!
//! Stragglers are seeded per-task draws that inflate the original
//! attempt's service. Once `spec_quantile` of a stage has completed,
//! any running original whose elapsed compute time exceeds
//! `spec_multiplier ×` the larger of the stage's completed-task median
//! and its own profiled nominal gets one speculative copy at nominal
//! service; the first attempt to finish wins, the other is
//! killed on the spot (executor freed, DU context refunded if nobody
//! queued behind it). Winner and loser replay the same fixed profile,
//! so a completed job's answer is its profile digest.
//!
//! # The fault domain
//!
//! When [`crate::ClusterFaultConfig::enabled`], every dispatched
//! attempt draws the config's rates from scoped [`sim::fault::stream`]s
//! — the executor's stream is keyed by its stable telemetry entity id
//! (`CLUSTER_PID_BASE + e`), the node's by the node index — so the
//! fault schedule is a pure function of `(seed, entity)`. A Cereal
//! decode dispatch first draws DU failure (unless the node's DU has
//! already failed); every dispatch then draws node failure (unless a
//! node crash is already pending), executor crash and task failure.
//! Each draw happens at any rate, 0 included, so one class's rate
//! never shifts another's schedule:
//!
//! * **executor crashes** land at an interior fraction of the running
//!   attempt's service. A crash is *silent*: the attempt is doomed but
//!   nothing reacts until the heartbeat detector (miss-threshold ×
//!   period on the event clock) declares the executor dead — or a
//!   later dispatch trips over the crashed executor's outputs and
//!   declares it dead early (fetch-failure detection). Declaration
//!   kills the doomed attempt (DU reservation refunded, task
//!   re-enqueued), marks every live job's stage-0 outputs held by that
//!   executor as lost (lineage recompute, Spark-style), and schedules a
//!   replacement executor after `restart_ns`;
//! * **node failures** crash every executor on the node at once;
//! * **clean task failures** leave the executor alive; the task retries
//!   after exponential backoff, and an executor accumulating
//!   `blacklist_threshold` failures is blacklisted — drained and
//!   rejoined after a seeded cooldown;
//! * **DU device failures** permanently degrade the node: its Cereal
//!   decode attempts skip the DU queue and replay the profiled
//!   software-fallback service instead (PR 4 degrade semantics);
//! * **bounded retries + admission control**: every re-enqueue consumes
//!   the job's retry budget (exhaustion aborts the job — reported, not
//!   silent), and arrivals past the `shed_queue_depth` watermark are
//!   shed instead of collapsing the queue.
//!
//! Every recovery path replays the same fixed profile, so any job that
//! completes answers with its profile digest; jobs that cannot are
//! reported shed or failed — never a silent wrong answer.

use crate::event::EventQueue;
use crate::profile::{build_profiles, JobProfile, StageKind};
use crate::{ClusterConfig, ClusterError};
use sdheap::rng::Rng;
use shuffle::fold_checksum;
use sim::fault::{exp_backoff_ns, interior, stream};
use sim::net::Fabric;
use std::collections::{BTreeSet, VecDeque};
use store::Backend;
use telemetry::ids::{CLUSTER_PID_BASE, DRIVER_PID, T_DU, T_FAIL, T_MAIN};
use telemetry::rate::{per_sec, ratio};
use telemetry::{EntityId, FlowEvent, Instant, NoopSink, Sample, Sink, Span};

/// PRNG scope of the per-task straggler draws.
const STRAGGLER_SCOPE: u64 = 0x57A6_61E2_0000;
/// Scope mixed into the master seed for the cluster fault streams.
const CLUSTER_FAULT_SCOPE: u64 = 0xFA17_C105_7E20;
/// Scope of the per-node fault streams (executor streams use the
/// executor's telemetry entity id `CLUSTER_PID_BASE + e` directly).
const NODE_FAULT_SCOPE: u64 = 0x0DEF_A170_0000;

/// Per-tenant counter names (static, as the metrics registry requires).
/// Tenants beyond this table still run; only their per-tenant counters
/// are folded into the last slot.
pub const TENANT_JOB_COUNTERS: [&str; 8] = [
    "cluster.tenant0.jobs",
    "cluster.tenant1.jobs",
    "cluster.tenant2.jobs",
    "cluster.tenant3.jobs",
    "cluster.tenant4.jobs",
    "cluster.tenant5.jobs",
    "cluster.tenant6.jobs",
    "cluster.tenant7.jobs",
];

/// Per-tenant accumulators.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TenantStats {
    /// Jobs of this tenant that completed.
    pub jobs: u64,
    /// Summed sojourn time (completion − arrival) of those jobs.
    pub latency_sum_ns: f64,
}

/// Everything one cluster run produced. Every field is a deterministic
/// function of the configuration — byte-identical for any worker-thread
/// count.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterOutcome {
    /// Jobs that arrived (= `cfg.job_arrivals`).
    pub arrivals: u64,
    /// Jobs that ran to completion. With the fault domain off this is
    /// always `arrivals`; with it on,
    /// `jobs_completed + jobs_shed + jobs_failed == arrivals`.
    pub jobs_completed: u64,
    /// Task attempts dispatched (originals + speculative copies +
    /// retries + recomputes).
    pub tasks_launched: u64,
    /// Tasks completed (one winning attempt each; recompleted
    /// recomputes count again).
    pub tasks_completed: u64,
    /// Tasks whose straggler draw hit.
    pub stragglers: u64,
    /// Speculative copies dispatched.
    pub spec_launches: u64,
    /// Speculative copies that finished first.
    pub spec_wins: u64,
    /// DU context acquisitions that had to queue.
    pub du_waits: u64,
    /// Total DU queueing delay.
    pub du_wait_ns: f64,
    /// Messages crossing the fabric (input fetches).
    pub fabric_messages: u64,
    /// Bytes crossing the fabric.
    pub fabric_bytes: u64,
    /// Completion time of the last job to reach a terminal state.
    pub makespan_ns: f64,
    /// Summed job sojourn time (completed jobs).
    pub job_latency_sum_ns: f64,
    /// Largest job sojourn time.
    pub job_latency_max_ns: f64,
    /// Deepest the pending-attempt queue ever got.
    pub max_queue_depth: u64,
    /// Most attempts ever running at once.
    pub max_running: u64,
    /// Distinct executors that ran at least one attempt.
    pub executors_used: u64,
    /// Summed service of winning attempts (for utilization).
    pub busy_ns: f64,
    /// Executor crashes (individual, including those from node
    /// failures).
    pub exec_crashes: u64,
    /// Whole-node failures.
    pub node_crashes: u64,
    /// Crashed executors declared dead by the heartbeat detector.
    pub heartbeat_deaths: u64,
    /// Crashed executors declared dead early by a fetch failure.
    pub fetch_fail_deaths: u64,
    /// Running attempts killed because their executor was declared
    /// dead.
    pub crash_task_kills: u64,
    /// Clean (executor-survives) task failures.
    pub task_failures: u64,
    /// Task re-enqueues scheduled with backoff after a clean failure.
    pub task_retries: u64,
    /// Task re-enqueues after a crash killed the running attempt.
    pub crash_requeues: u64,
    /// Completed stage-0 outputs lost with their executor and
    /// re-enqueued (lineage recomputes).
    pub recomputes: u64,
    /// Executors blacklisted for repeated task failures.
    pub blacklists: u64,
    /// Blacklisted executors that rejoined after cooldown.
    pub blacklist_rejoins: u64,
    /// Dead executors replaced after `restart_ns`.
    pub restarts: u64,
    /// DU devices that failed (at most one per node; permanent).
    pub du_device_failures: u64,
    /// Cereal decode attempts that ran degraded on the software
    /// fallback because their node's DU device had failed.
    pub degraded_tasks: u64,
    /// Arrivals shed by admission control.
    pub jobs_shed: u64,
    /// Jobs aborted after exhausting their retry budget.
    pub jobs_failed: u64,
    /// Compute thrown away: killed, failed, and cancelled attempts'
    /// elapsed work (speculative losers included).
    pub wasted_ns: f64,
    /// Winning service of re-enqueued attempts (retries, crash
    /// requeues, recomputes) — the recompute pressure.
    pub recompute_busy_ns: f64,
    /// Per-tenant stats, indexed by tenant.
    pub per_tenant: Vec<TenantStats>,
    /// FNV-1a digest over every job's fold digest, in arrival order
    /// (shed/failed jobs contribute a zero digest).
    pub fold_checksum: u64,
}

impl ClusterOutcome {
    /// Mean job sojourn time (`0.0` when nothing completed).
    pub fn mean_latency_ns(&self) -> f64 {
        ratio(self.job_latency_sum_ns, self.jobs_completed as f64)
    }

    /// Average executor utilization over the makespan (`0.0` on an
    /// empty run or zero executors).
    pub fn utilization(&self, executors: usize) -> f64 {
        ratio(self.busy_ns, self.makespan_ns * executors as f64)
    }

    /// Fraction of all compute that landed in winning attempts.
    pub fn goodput(&self) -> f64 {
        ratio(self.busy_ns, self.busy_ns + self.wasted_ns)
    }

    /// Fraction of winning compute that was re-execution (retries,
    /// crash requeues, lineage recomputes).
    pub fn recompute_share(&self) -> f64 {
        ratio(self.recompute_busy_ns, self.busy_ns)
    }

    /// Fraction of arrivals shed by admission control.
    pub fn shed_rate(&self) -> f64 {
        ratio(self.jobs_shed as f64, self.arrivals as f64)
    }

    /// Completed jobs per second of simulated time.
    pub fn throughput_per_sec(&self) -> f64 {
        per_sec(self.jobs_completed, self.makespan_ns)
    }
}

#[derive(Clone, Copy, Debug)]
enum Event {
    /// Job `job` arrives.
    Arrival(usize),
    /// Attempt `a` reaches its scheduled finish time.
    Finish(usize),
    /// Re-examine the original attempt `a` for speculation.
    SpecCheck(usize),
    /// Executor `exec` crashes silently (stale if `gen` moved on).
    Crash { exec: usize, gen: u32 },
    /// Every executor on `node` crashes at once.
    NodeCrash { node: usize },
    /// Attempt `a` fails cleanly (its executor survives).
    TaskFail(usize),
    /// The heartbeat detector declares crashed executor `exec` dead.
    Dead { exec: usize, gen: u32 },
    /// Executor `exec` re-registers (restart or blacklist rejoin).
    Up { exec: usize, gen: u32 },
    /// Retry task `(job, stage, task)` after its backoff.
    Retry {
        job: usize,
        stage: usize,
        task: usize,
    },
}

/// An executor's health, driving what the dispatcher may use and what
/// the failure detector believes.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ExecState {
    /// In service (free or running).
    Alive,
    /// Crashed at `at_ns` but not yet declared dead — its running
    /// attempt is doomed and its outputs are silently gone.
    Crashed { at_ns: f64 },
    /// Declared dead; a replacement registers after `restart_ns`.
    Dead,
    /// Pulled from service for repeated task failures; rejoins after a
    /// seeded cooldown.
    Blacklisted,
}

/// Per-executor health record. `gen` bumps on every state transition;
/// scheduled `Crash`/`Dead`/`Up` events carry the gen they were minted
/// under and are dropped as stale if it moved on.
#[derive(Clone, Copy, Debug)]
struct ExecHealth {
    state: ExecState,
    gen: u32,
    /// Clean task failures since the last rejoin (blacklist counter).
    fails: u32,
    /// The attempt currently running on this executor.
    running: Option<usize>,
}

/// Why an attempt exists — its stable causal origin. The critical-path
/// analysis reads this off the winning span to decide whether the
/// stage's pre-queue wait was ordinary queueing, speculation delay, or
/// recovery waste. The last three are also why a task is re-enqueued.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Origin {
    /// First attempt of a freshly enqueued stage.
    Fresh,
    /// Speculative copy of a laggard original.
    Spec,
    /// Re-enqueue after a clean task failure's backoff.
    Retry,
    /// Re-enqueue after its executor was declared dead mid-run.
    Crash,
    /// Re-enqueue of a completed output lost with its executor.
    Recompute,
}

impl Origin {
    fn label(self) -> &'static str {
        match self {
            Origin::Fresh => "fresh",
            Origin::Spec => "spec",
            Origin::Retry => "retry",
            Origin::Crash => "crash",
            Origin::Recompute => "recompute",
        }
    }

    /// Whether a winning attempt of this origin books as re-execution
    /// pressure.
    fn is_recompute(self) -> bool {
        matches!(self, Origin::Retry | Origin::Crash | Origin::Recompute)
    }
}

/// Why a crashed executor is being declared dead.
#[derive(Clone, Copy, Debug)]
enum DeathCause {
    Heartbeat,
    FetchFail,
}

/// The live fault machinery — only constructed when the fault domain
/// is enabled, so the fault-free path stays a byte-identical no-op.
struct Faults {
    /// Per-executor fault streams, keyed by `CLUSTER_PID_BASE + e`
    /// (crashes, clean task failures, blacklist cooldown jitter).
    exec: Vec<Rng>,
    /// Per-node fault streams (node failures, DU device failures).
    node: Vec<Rng>,
    /// A `NodeCrash` event is already scheduled for this node.
    node_crash_pending: Vec<bool>,
    /// The node's DU device has failed (permanent; decodes degrade).
    du_failed: Vec<bool>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum JobStatus {
    Live,
    Completed,
    /// Rejected by admission control on arrival.
    Shed,
    /// Aborted after exhausting its retry budget.
    Failed,
}

#[derive(Clone, Debug)]
struct TaskState {
    /// Service of the original attempt (straggler-adjusted).
    service_ns: f64,
    /// Nominal service (what a speculative copy runs at).
    nominal_ns: f64,
    completed: bool,
    /// Executor holding this task's output (the winner's).
    winner_exec: usize,
    original: Option<usize>,
    spec: Option<usize>,
    /// Whether a deferred speculation re-check is already scheduled.
    spec_check: bool,
    /// Clean failures of this task (exponential-backoff exponent).
    fails: u32,
    /// A backoff `Retry` event is already scheduled.
    retry_pending: bool,
    /// Causal source of the pending retry: the failing executor's fault
    /// lane and the failure time, threaded into the retried attempt's
    /// recovery flow edge.
    retry_src: Option<(EntityId, f64)>,
}

#[derive(Clone, Debug)]
struct StageState {
    tasks: Vec<TaskState>,
    done: usize,
    /// Winning services of completed tasks, for the laggard median.
    completed_services: Vec<f64>,
}

#[derive(Clone, Debug)]
struct JobState {
    tenant: usize,
    arrival_ns: f64,
    /// Index of the currently running stage.
    stage: usize,
    stages: Vec<StageState>,
    status: JobStatus,
    /// Re-enqueues consumed from the job's retry budget.
    retries_used: u32,
    /// Every attempt this job created, ascending (ids are handed out in
    /// order), so a terminal job cancels its leftovers without scanning
    /// the whole attempt table.
    attempts: Vec<usize>,
}

#[derive(Clone, Copy, Debug)]
struct AttemptInfo {
    job: usize,
    stage: usize,
    task: usize,
    /// Stable causal origin: fresh / speculative / retry / crash
    /// requeue / lineage recompute.
    origin: Origin,
    /// Causal edge into this attempt: the entity and time whose failure
    /// or laggardness spawned it, drawn as a flow arrow at dispatch.
    flow_from: Option<(EntityId, f64, &'static str)>,
    dispatched: bool,
    cancelled: bool,
    /// Its executor crashed mid-service; the kill lands when the crash
    /// is detected.
    doomed: bool,
    finished: bool,
    exec: usize,
    /// When the attempt entered the pending queue.
    pend_ns: f64,
    start_ns: f64,
    /// When the attempt's input fetches completed (= dispatch time for
    /// stage-0 attempts).
    fetch_done_ns: f64,
    /// When compute began: dispatch + input fetches + DU wait. The
    /// laggard test measures elapsed *compute* time from here, so fetch
    /// and queueing delays (which the scheduler observed) never count
    /// against a task.
    work_start_ns: f64,
    finish_ns: f64,
    /// DU context this attempt holds: `(node, ctx)`.
    du: Option<(usize, usize)>,
}

impl AttemptInfo {
    fn is_spec(&self) -> bool {
        matches!(self.origin, Origin::Spec)
    }
}

struct Sched<'a, S: Sink> {
    cfg: &'a ClusterConfig,
    profiles: &'a [JobProfile],
    jobs: Vec<JobState>,
    attempts: Vec<AttemptInfo>,
    pending: VecDeque<usize>,
    pending_live: usize,
    free: BTreeSet<usize>,
    fabric: Fabric,
    /// Per-node DU context free times.
    du_free: Vec<Vec<f64>>,
    q: EventQueue<Event>,
    /// Executors that ran at least one attempt (and, traced, got named).
    exec_used: Vec<bool>,
    execs: Vec<ExecHealth>,
    faults: Option<Faults>,
    running: u64,
    out: ClusterOutcome,
    /// Monotonic flow-event id (the event loop is sequential on the
    /// simulated clock, so the numbering is deterministic).
    flow_seq: u64,
    sink: &'a mut S,
}

/// Mixes `(job, stage, task)` into a straggler-scope word.
fn task_scope(job: usize, stage: usize, task: usize) -> u64 {
    ((job as u64) << 24) ^ ((stage as u64) << 16) ^ task as u64
}

impl<'a, S: Sink> Sched<'a, S> {
    fn profile(&self, j: usize) -> &'a JobProfile {
        &self.profiles[self.jobs[j].tenant]
    }

    fn exec_entity(&self, e: usize) -> EntityId {
        EntityId {
            pid: CLUSTER_PID_BASE + e as u32,
            tid: T_MAIN,
        }
    }

    fn fail_entity(&self, e: usize) -> EntityId {
        EntityId {
            pid: CLUSTER_PID_BASE + e as u32,
            tid: T_FAIL,
        }
    }

    fn node_of(&self, e: usize) -> usize {
        e / self.cfg.executors_per_node
    }

    /// Marks executor `e` used, naming its trace lanes on first use.
    fn use_exec(&mut self, e: usize) {
        if self.exec_used[e] {
            return;
        }
        self.exec_used[e] = true;
        if S::ENABLED {
            let pid = CLUSTER_PID_BASE + e as u32;
            self.sink.name_process(pid, &format!("exec {e}"));
            self.sink.name_thread(pid, T_MAIN, "task");
            self.sink.name_thread(pid, T_DU, "du wait");
            if self.faults.is_some() {
                self.sink.name_thread(pid, T_FAIL, "faults");
            }
        }
    }

    fn fail_instant(&mut self, e: usize, name: &'static str, t_ns: f64) {
        if S::ENABLED {
            let entity = self.fail_entity(e);
            self.sink.instant(Instant {
                entity,
                name,
                t_ns,
                attrs: vec![],
            });
        }
    }

    fn driver_fail_instant(&mut self, name: &'static str, t_ns: f64, job: usize) {
        if S::ENABLED {
            self.sink.instant(Instant {
                entity: EntityId {
                    pid: DRIVER_PID,
                    tid: T_FAIL,
                },
                name,
                t_ns,
                attrs: vec![("job", (job as u64).into())],
            });
        }
    }

    /// Records a causal edge: work at `src` (time `t0`) caused work at
    /// `dst` (time `t1`).
    fn flow(&mut self, name: &'static str, src: EntityId, t0: f64, dst: EntityId, t1: f64) {
        if S::ENABLED {
            let id = self.flow_seq;
            self.flow_seq += 1;
            self.sink.flow(FlowEvent {
                id,
                name,
                src,
                t0_ns: t0,
                dst,
                t1_ns: t1,
            });
        }
    }

    /// Emits the fixed-grid gauge snapshot at bucket boundary `t`:
    /// executor utilization, live queue depth, blacklisted executors,
    /// and busy DU contexts — the post-run timeline is rebuilt from
    /// these samples.
    fn emit_timeline(&mut self, t: f64) {
        if !S::ENABLED {
            return;
        }
        let driver = EntityId {
            pid: DRIVER_PID,
            tid: T_MAIN,
        };
        let util = self.running as f64 / self.cfg.executors as f64;
        let blacklisted = self
            .execs
            .iter()
            .filter(|h| matches!(h.state, ExecState::Blacklisted))
            .count() as f64;
        let du_busy = self
            .du_free
            .iter()
            .flatten()
            .filter(|&&free| free > t)
            .count() as f64;
        for (name, value) in [
            ("cluster.timeline.utilization", util),
            ("cluster.timeline.queue_depth", self.pending_live as f64),
            ("cluster.timeline.blacklisted", blacklisted),
            ("cluster.timeline.du_busy", du_busy),
        ] {
            self.sink.sample(Sample {
                entity: driver,
                name,
                t_ns: t,
                value,
            });
        }
    }

    /// Queues one attempt for a task. A speculative copy takes the
    /// task's speculation slot; any other attempt becomes its original
    /// and resets that slot, so the new attempt can earn its own copy.
    /// `flow_from` is the causal edge into the attempt (the failure or
    /// laggard that spawned it), drawn at dispatch.
    fn push_attempt(
        &mut self,
        now: f64,
        j: usize,
        s: usize,
        t: usize,
        origin: Origin,
        flow_from: Option<(EntityId, f64, &'static str)>,
    ) {
        let a = self.attempts.len();
        self.attempts.push(AttemptInfo {
            job: j,
            stage: s,
            task: t,
            origin,
            flow_from,
            dispatched: false,
            cancelled: false,
            doomed: false,
            finished: false,
            exec: 0,
            pend_ns: now,
            start_ns: 0.0,
            fetch_done_ns: 0.0,
            work_start_ns: 0.0,
            finish_ns: 0.0,
            du: None,
        });
        self.jobs[j].attempts.push(a);
        let task = &mut self.jobs[j].stages[s].tasks[t];
        if origin == Origin::Spec {
            task.spec = Some(a);
        } else {
            task.original = Some(a);
            task.spec = None;
            task.spec_check = false;
        }
        self.pending.push_back(a);
        self.pending_live += 1;
    }

    /// Creates stage `s` of job `j` and queues one original attempt per
    /// task, drawing each task's straggler fate from its scoped stream.
    /// The driver's `stage.ready` instant is the stage's causal birth:
    /// the blame analysis anchors the stage window here, and — because
    /// the same `now` flows to the predecessor stage's winning span —
    /// the anchor matches that span's end *exactly*.
    fn enqueue_stage(&mut self, now: f64, j: usize, s: usize) {
        if S::ENABLED {
            self.sink.instant(Instant {
                entity: EntityId {
                    pid: DRIVER_PID,
                    tid: T_MAIN,
                },
                name: "stage.ready",
                t_ns: now,
                attrs: vec![("job", (j as u64).into()), ("stage", (s as u64).into())],
            });
        }
        let profiled = &self.profile(j).stages[s].tasks;
        let mut tasks = Vec::with_capacity(profiled.len());
        for (t, tp) in profiled.iter().enumerate() {
            let nominal = tp.service_ns;
            let mut service = nominal;
            if self.cfg.straggler_rate > 0.0 {
                let mut rng =
                    sdheap::rng::Rng::new(self.cfg.seed ^ STRAGGLER_SCOPE ^ task_scope(j, s, t));
                if rng.gen_f64() < self.cfg.straggler_rate {
                    service = nominal * self.cfg.straggler_factor;
                    self.out.stragglers += 1;
                    self.sink.count("cluster.stragglers", 1);
                }
            }
            tasks.push(TaskState {
                service_ns: service,
                nominal_ns: nominal,
                completed: false,
                winner_exec: 0,
                original: None,
                spec: None,
                spec_check: false,
                fails: 0,
                retry_pending: false,
                retry_src: None,
            });
        }
        self.jobs[j].stages.push(StageState {
            tasks,
            done: 0,
            completed_services: Vec::new(),
        });
        for t in 0..profiled.len() {
            self.push_attempt(now, j, s, t, Origin::Fresh, None);
        }
    }

    /// Whether attempt `a`'s inputs are fetchable right now. Stage-0
    /// attempts always are; later stages need every source stage-0 task
    /// completed with its winner's executor still holding the output.
    /// Tripping over a *crashed* (undetected) winner is the
    /// fetch-failure path: the executor is declared dead on the spot,
    /// which re-enqueues the lost outputs, and the attempt stays queued.
    fn inputs_ready(&mut self, now: f64, a: usize) -> bool {
        let info = self.attempts[a];
        let mut ready = true;
        let mut crashed: Vec<usize> = Vec::new();
        for &(src, _) in &self.profile(info.job).stages[info.stage].tasks[info.task].inputs {
            let st = &self.jobs[info.job].stages[0].tasks[src];
            if !st.completed {
                ready = false;
                continue;
            }
            let w = st.winner_exec;
            if matches!(self.execs[w].state, ExecState::Crashed { .. }) {
                ready = false;
                if !crashed.contains(&w) {
                    crashed.push(w);
                }
            }
        }
        for w in crashed {
            self.declare_dead(now, w, DeathCause::FetchFail);
        }
        ready
    }

    /// Greedily places pending attempts on free executors. Attempts
    /// whose inputs are not fetchable (lost outputs being recomputed)
    /// stay queued, in order, ahead of newer work.
    fn dispatch(&mut self, now: f64) {
        let mut blocked: Vec<usize> = Vec::new();
        while !self.free.is_empty() {
            let a = loop {
                match self.pending.pop_front() {
                    Some(a) if self.attempts[a].cancelled => continue,
                    Some(a) => break Some(a),
                    None => break None,
                }
            };
            let Some(a) = a else { break };
            if self.faults.is_some() && !self.inputs_ready(now, a) {
                blocked.push(a);
                continue;
            }
            self.pending_live -= 1;
            let e = *self.free.iter().next().expect("checked non-empty");
            self.free.remove(&e);
            self.use_exec(e);
            let info = self.attempts[a];
            let (j, s, t) = (info.job, info.stage, info.task);
            let profile = self.profile(j);
            let kind = profile.stages[s].kind;
            let tp = &profile.stages[s].tasks[t];
            let task = &self.jobs[j].stages[s].tasks[t];
            let (t_service, t_nominal) = (task.service_ns, task.nominal_ns);
            let mut service = if info.is_spec() { t_nominal } else { t_service };

            // The causal edge that spawned this attempt (recovery or
            // speculation), now that we know where it landed.
            if S::ENABLED {
                if let Some((src, t0, name)) = info.flow_from {
                    self.flow(name, src, t0, self.exec_entity(e), now);
                }
            }

            // Input fetches over the shared fabric, all issued at
            // dispatch time; the ledgers serialize contending flows.
            // Each fetch draws a flow arrow from the source output's
            // executor to this attempt's arrival. A scan reads a block
            // its own executor cached without the fabric; a reducer
            // still fetches a co-located mapper's batch through it.
            let mut ready = now;
            for &(src, bytes) in &tp.inputs {
                let from = self.jobs[j].stages[0].tasks[src].winner_exec;
                if kind == StageKind::Scan && from == e {
                    continue;
                }
                let arr = self.fabric.send(from, e, bytes, now);
                ready = ready.max(arr);
                self.sink.count("cluster.fabric_messages", 1);
                self.sink.count("cluster.fabric_bytes", bytes);
                if S::ENABLED {
                    self.flow(
                        "flow.fetch",
                        self.exec_entity(from),
                        now,
                        self.exec_entity(e),
                        arr,
                    );
                }
            }

            // Decode stages on the Cereal backend queue for one of the
            // node's shared DU contexts — unless the node's DU device
            // has failed, in which case the decode degrades to the
            // profiled software fallback on the host core (no queue).
            let mut du = None;
            let mut start = ready;
            if profile.template.backend == Backend::Cereal && kind.decodes() {
                let node = self.node_of(e);
                let mut degraded = false;
                let mut du_failed_now = false;
                if let Some(fx) = &mut self.faults {
                    if !fx.du_failed[node] && fx.node[node].gen_bool(self.cfg.fault.du_fail_rate) {
                        fx.du_failed[node] = true;
                        du_failed_now = true;
                    }
                    degraded = fx.du_failed[node];
                }
                if du_failed_now {
                    self.out.du_device_failures += 1;
                    self.sink.count("cluster.du_device_failures", 1);
                    self.fail_instant(e, "du.fail", now);
                }
                if degraded {
                    // Replay the fallback profile; originals keep their
                    // straggler inflation.
                    let fb = tp.fallback_ns;
                    service = if info.is_spec() {
                        fb
                    } else {
                        fb * (t_service / t_nominal)
                    };
                    self.out.degraded_tasks += 1;
                    self.sink.count("cluster.degraded_tasks", 1);
                } else {
                    let pool = &self.du_free[node];
                    let ctx = (0..pool.len())
                        .min_by(|&x, &y| pool[x].partial_cmp(&pool[y]).expect("finite"))
                        .expect("every node has at least one DU context");
                    start = ready.max(pool[ctx]);
                    let wait = start - ready;
                    if wait > 0.0 {
                        self.out.du_waits += 1;
                        self.out.du_wait_ns += wait;
                        self.sink.count("cluster.du_waits", 1);
                        self.sink.observe("cluster.du_wait_ns", wait);
                        if S::ENABLED {
                            self.sink.span(Span {
                                entity: EntityId {
                                    pid: CLUSTER_PID_BASE + e as u32,
                                    tid: T_DU,
                                },
                                name: "du.wait",
                                t0_ns: ready,
                                t1_ns: start,
                                attrs: vec![("node", (node as u64).into())],
                            });
                            // DU-queue handoff: the wait lane releases
                            // the attempt back to the task lane.
                            self.flow(
                                "flow.du",
                                EntityId {
                                    pid: CLUSTER_PID_BASE + e as u32,
                                    tid: T_DU,
                                },
                                ready,
                                EntityId {
                                    pid: CLUSTER_PID_BASE + e as u32,
                                    tid: T_MAIN,
                                },
                                start,
                            );
                        }
                    }
                    self.du_free[node][ctx] = start + service;
                    du = Some((node, ctx));
                }
            }

            let finish = start + service;
            let at = &mut self.attempts[a];
            at.dispatched = true;
            at.exec = e;
            at.start_ns = now;
            at.fetch_done_ns = ready;
            at.work_start_ns = start;
            at.finish_ns = finish;
            at.du = du;
            self.execs[e].running = Some(a);
            self.q.push(finish, Event::Finish(a));
            self.running += 1;
            self.out.max_running = self.out.max_running.max(self.running);
            self.out.tasks_launched += 1;
            self.sink.count("cluster.tasks_launched", 1);
            self.sink.observe("cluster.task_service_ns", service);
            if info.is_spec() {
                self.out.spec_launches += 1;
                self.sink.count("cluster.spec_launches", 1);
                if S::ENABLED {
                    self.sink.instant(Instant {
                        entity: self.exec_entity(e),
                        name: "spec.launch",
                        t_ns: now,
                        attrs: vec![("job", (j as u64).into()), ("task", (t as u64).into())],
                    });
                }
            }

            // Fault draws for this placement, in fixed order: the
            // node's stream (whole-node failure), then the executor's
            // (crash, clean task failure). Fractions land the event at
            // an interior point of the service, so a drawn crash always
            // beats the drawing attempt's finish.
            let node = self.node_of(e);
            let rates = &self.cfg.fault;
            if let Some(fx) = &mut self.faults {
                if !fx.node_crash_pending[node] {
                    if let Some(frac) = interior(&mut fx.node[node], rates.node_fail_rate) {
                        fx.node_crash_pending[node] = true;
                        self.q
                            .push(start + frac * service, Event::NodeCrash { node });
                    }
                }
                if let Some(frac) = interior(&mut fx.exec[e], rates.exec_crash_rate) {
                    let gen = self.execs[e].gen;
                    self.q
                        .push(start + frac * service, Event::Crash { exec: e, gen });
                }
                if let Some(frac) = interior(&mut fx.exec[e], rates.task_fail_rate) {
                    self.q.push(start + frac * service, Event::TaskFail(a));
                }
            }
        }
        for &a in blocked.iter().rev() {
            self.pending.push_front(a);
        }
        self.sink
            .gauge("cluster.queue_depth", self.pending_live as f64);
        self.sink
            .gauge("cluster.running_tasks", self.running as f64);
        self.out.max_queue_depth = self.out.max_queue_depth.max(self.pending_live as u64);
    }

    /// Kills a losing/obsolete attempt: frees its executor (if the
    /// executor is still alive), refunds its DU context if nothing
    /// queued behind it, and books the thrown-away work.
    fn cancel(&mut self, loser: usize, now: f64) {
        let info = self.attempts[loser];
        if info.cancelled || info.finished {
            return;
        }
        self.attempts[loser].cancelled = true;
        if info.dispatched {
            self.running -= 1;
            self.execs[info.exec].running = None;
            if matches!(self.execs[info.exec].state, ExecState::Alive) {
                self.free.insert(info.exec);
            }
            if let Some((node, ctx)) = info.du {
                // Only refund if no later acquisition already queued on
                // this context (its free time would have moved past ours).
                if self.du_free[node][ctx] == info.finish_ns {
                    self.du_free[node][ctx] = now;
                }
            }
            // Work stops at the kill — or at the crash, if the attempt
            // was doomed before being cancelled.
            let end = match self.execs[info.exec].state {
                ExecState::Crashed { at_ns } if info.doomed => at_ns.min(now),
                _ => now,
            };
            let wasted = (end - info.work_start_ns).max(0.0);
            self.out.wasted_ns += wasted;
            self.sink.observe("cluster.wasted_ns", wasted);
            if S::ENABLED {
                self.sink.span(Span {
                    entity: self.exec_entity(info.exec),
                    name: "task.killed",
                    t0_ns: info.start_ns,
                    t1_ns: now,
                    attrs: vec![("job", (info.job as u64).into())],
                });
            }
        } else {
            // Still queued: the dispatcher will skip the cancelled
            // entry, so it stops being live now.
            self.pending_live -= 1;
        }
    }

    /// Crashes one executor: its running attempt is doomed (killed at
    /// detection), its outputs silently gone, and the heartbeat
    /// detector will declare it dead `misses` periods after the crash's
    /// period boundary.
    fn crash_exec(&mut self, now: f64, e: usize) {
        if !matches!(
            self.execs[e].state,
            ExecState::Alive | ExecState::Blacklisted
        ) {
            return;
        }
        self.execs[e].state = ExecState::Crashed { at_ns: now };
        self.execs[e].gen += 1;
        let gen = self.execs[e].gen;
        self.out.exec_crashes += 1;
        self.sink.count("cluster.exec_crashes", 1);
        self.fail_instant(e, "exec.crash", now);
        if let Some(a) = self.execs[e].running {
            self.attempts[a].doomed = true;
        } else {
            self.free.remove(&e);
        }
        let p = self.cfg.fault.heartbeat_period_ns;
        let misses = f64::from(self.cfg.fault.heartbeat_misses);
        let detect = (now / p).floor() * p + misses * p;
        self.q.push(detect, Event::Dead { exec: e, gen });
    }

    /// A crashed executor is declared dead (by heartbeat timeout or a
    /// fetch failure): its doomed attempt is killed with the DU
    /// reservation refunded and the task re-enqueued, every live job's
    /// stage-0 outputs it held are re-enqueued for lineage recompute,
    /// and a replacement executor registers after `restart_ns`.
    fn declare_dead(&mut self, now: f64, e: usize, cause: DeathCause) {
        let ExecState::Crashed { at_ns } = self.execs[e].state else {
            return;
        };
        match cause {
            DeathCause::Heartbeat => {
                self.out.heartbeat_deaths += 1;
                self.sink.count("cluster.heartbeat_deaths", 1);
            }
            DeathCause::FetchFail => {
                self.out.fetch_fail_deaths += 1;
                self.sink.count("cluster.fetch_fail_deaths", 1);
            }
        }
        if S::ENABLED {
            let detector = match cause {
                DeathCause::Heartbeat => "heartbeat",
                DeathCause::FetchFail => "fetch_fail",
            };
            self.sink.span(Span {
                entity: self.fail_entity(e),
                name: "fail.undetected",
                t0_ns: at_ns,
                t1_ns: now,
                attrs: vec![("detector", detector.into())],
            });
        }
        // Kill the doomed attempt while the state still says Crashed,
        // so the thrown-away work is measured up to the crash instant,
        // not the (later) detection.
        if let Some(a) = self.execs[e].running {
            let info = self.attempts[a];
            debug_assert!(info.doomed, "a crashed executor's attempt must be doomed");
            self.out.crash_task_kills += 1;
            self.sink.count("cluster.crash_task_kills", 1);
            self.cancel(a, now);
            let src = self.fail_entity(e);
            self.requeue_task(
                now,
                info.job,
                info.stage,
                info.task,
                Origin::Crash,
                Some(src),
            );
        }
        self.execs[e].state = ExecState::Dead;
        self.execs[e].gen += 1;
        let gen = self.execs[e].gen;
        // Completed stage-0 outputs held by this executor are gone;
        // later stages fetch them, so re-enqueue their tasks (lineage
        // recompute). Only stage-0 outputs are ever fetched.
        for j in 0..self.jobs.len() {
            if self.jobs[j].status != JobStatus::Live || self.jobs[j].stages.is_empty() {
                continue;
            }
            for t in 0..self.jobs[j].stages[0].tasks.len() {
                let task = &self.jobs[j].stages[0].tasks[t];
                if task.completed && task.winner_exec == e {
                    self.jobs[j].stages[0].tasks[t].completed = false;
                    self.jobs[j].stages[0].done -= 1;
                    let src = self.fail_entity(e);
                    self.requeue_task(now, j, 0, t, Origin::Recompute, Some(src));
                }
            }
        }
        self.q
            .push(now + self.cfg.fault.restart_ns, Event::Up { exec: e, gen });
    }

    /// A clean task failure: the executor survives and reports it. The
    /// task retries after exponential backoff; the executor's failure
    /// count may trip the blacklist.
    fn on_task_fail(&mut self, now: f64, a: usize) {
        let info = self.attempts[a];
        if info.cancelled || info.finished || info.doomed {
            return;
        }
        let (j, s, t) = (info.job, info.stage, info.task);
        let e = info.exec;
        self.out.task_failures += 1;
        self.sink.count("cluster.task_failures", 1);
        if S::ENABLED {
            self.sink.span(Span {
                entity: self.fail_entity(e),
                name: "task.fail",
                t0_ns: info.start_ns,
                t1_ns: now,
                attrs: vec![("job", (j as u64).into()), ("task", (t as u64).into())],
            });
        }
        self.cancel(a, now);
        self.jobs[j].stages[s].tasks[t].fails += 1;
        self.execs[e].fails += 1;
        let threshold = self.cfg.fault.blacklist_threshold;
        if threshold > 0
            && self.execs[e].fails >= threshold
            && matches!(self.execs[e].state, ExecState::Alive)
        {
            // Pull it from service; it rejoins after a seeded cooldown.
            self.execs[e].state = ExecState::Blacklisted;
            self.execs[e].gen += 1;
            let gen = self.execs[e].gen;
            self.free.remove(&e);
            self.out.blacklists += 1;
            self.sink.count("cluster.blacklists", 1);
            self.fail_instant(e, "exec.blacklist", now);
            let jitter = self.faults.as_mut().map_or(0.0, |fx| fx.exec[e].gen_f64());
            let cooldown = self.cfg.fault.blacklist_cooldown_ns * (1.0 + jitter);
            self.q.push(now + cooldown, Event::Up { exec: e, gen });
        }
        let src = self.fail_entity(e);
        self.requeue_task(now, j, s, t, Origin::Retry, Some(src));
    }

    /// An executor re-registers: a replacement after a declared death,
    /// or a blacklisted executor's cooldown expiring.
    fn on_up(&mut self, now: f64, e: usize, gen: u32) {
        if self.execs[e].gen != gen {
            return;
        }
        match self.execs[e].state {
            ExecState::Dead => {
                self.out.restarts += 1;
                self.sink.count("cluster.restarts", 1);
                self.fail_instant(e, "exec.up", now);
            }
            ExecState::Blacklisted => {
                self.out.blacklist_rejoins += 1;
                self.sink.count("cluster.blacklist_rejoins", 1);
                self.fail_instant(e, "exec.rejoin", now);
            }
            // Gen guards make other states unreachable here.
            ExecState::Alive | ExecState::Crashed { .. } => return,
        }
        self.execs[e].state = ExecState::Alive;
        self.execs[e].gen += 1;
        self.execs[e].fails = 0;
        self.free.insert(e);
    }

    /// Re-enqueues a task after a clean failure (`Retry`, after
    /// backoff), a crash or a lost output — unless a sibling attempt is
    /// still racing, a retry is already scheduled, or the job's retry
    /// budget is exhausted (which aborts the job). `src` is the failing
    /// entity, threaded into the replacement attempt's recovery flow
    /// edge.
    fn requeue_task(
        &mut self,
        now: f64,
        j: usize,
        s: usize,
        t: usize,
        origin: Origin,
        src: Option<EntityId>,
    ) {
        if self.jobs[j].status != JobStatus::Live {
            return;
        }
        {
            let task = &self.jobs[j].stages[s].tasks[t];
            if task.completed || task.retry_pending {
                return;
            }
            let live = |ao: Option<usize>| {
                ao.is_some_and(|a| {
                    let i = &self.attempts[a];
                    !i.cancelled && !i.doomed && !i.finished
                })
            };
            if live(task.original) || live(task.spec) {
                return;
            }
        }
        if self.jobs[j].retries_used >= self.cfg.fault.job_retry_budget {
            self.abort_job(now, j);
            return;
        }
        self.jobs[j].retries_used += 1;
        let edge = src.map(|en| (en, now, "flow.recovery"));
        match origin {
            Origin::Retry => {
                self.out.task_retries += 1;
                self.sink.count("cluster.task_retries", 1);
                let task = &mut self.jobs[j].stages[s].tasks[t];
                task.retry_pending = true;
                task.retry_src = src.map(|en| (en, now));
                let delay = exp_backoff_ns(
                    self.cfg.fault.retry_backoff_ns,
                    task.fails.saturating_sub(1),
                );
                self.q.push(
                    now + delay,
                    Event::Retry {
                        job: j,
                        stage: s,
                        task: t,
                    },
                );
            }
            Origin::Crash => {
                self.out.crash_requeues += 1;
                self.sink.count("cluster.crash_requeues", 1);
                self.push_attempt(now, j, s, t, origin, edge);
            }
            Origin::Recompute => {
                self.out.recomputes += 1;
                self.sink.count("cluster.recomputes", 1);
                self.push_attempt(now, j, s, t, origin, edge);
            }
            Origin::Fresh | Origin::Spec => unreachable!("only failures re-enqueue"),
        }
    }

    /// A task's backoff expired: re-enqueue it (if its job is still
    /// live and nothing completed it meanwhile).
    fn on_retry(&mut self, now: f64, j: usize, s: usize, t: usize) {
        let src = self.jobs[j].stages[s].tasks[t].retry_src.take();
        self.jobs[j].stages[s].tasks[t].retry_pending = false;
        if self.jobs[j].status != JobStatus::Live || self.jobs[j].stages[s].tasks[t].completed {
            return;
        }
        let edge = src.map(|(en, t0)| (en, t0, "flow.recovery"));
        self.push_attempt(now, j, s, t, Origin::Retry, edge);
    }

    /// Aborts a job that exhausted its retry budget: reported as
    /// failed — never a silent wrong answer — and every outstanding
    /// attempt is killed.
    fn abort_job(&mut self, now: f64, j: usize) {
        self.jobs[j].status = JobStatus::Failed;
        self.out.jobs_failed += 1;
        self.out.makespan_ns = self.out.makespan_ns.max(now);
        self.sink.count("cluster.jobs_failed", 1);
        self.driver_fail_instant("job.failed", now, j);
        self.cancel_job(now, j);
    }

    /// Cancels every attempt job `j` created, in creation order — the
    /// order free-set inserts, DU refunds and waste sums are booked in.
    fn cancel_job(&mut self, now: f64, j: usize) {
        for a in std::mem::take(&mut self.jobs[j].attempts) {
            self.cancel(a, now);
        }
    }

    /// Once enough of a stage has completed, give each running laggard
    /// one speculative copy — or schedule a re-check for the moment it
    /// would become a laggard.
    fn maybe_speculate(&mut self, now: f64, j: usize, s: usize) {
        if !self.cfg.speculation {
            return;
        }
        let stage = &self.jobs[j].stages[s];
        let total = stage.tasks.len();
        if stage.done == total {
            return;
        }
        let quota = (self.cfg.spec_quantile * total as f64).ceil() as usize;
        if stage.done < quota.max(1) {
            return;
        }
        let mut sorted = stage.completed_services.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = sorted[sorted.len() / 2];
        let candidates: Vec<usize> = (0..total)
            .filter(|&t| {
                let task = &self.jobs[j].stages[s].tasks[t];
                !task.completed && task.spec.is_none()
            })
            .collect();
        for t in candidates {
            let Some(orig) = self.jobs[j].stages[s].tasks[t].original else {
                continue;
            };
            let oi = self.attempts[orig];
            if !oi.dispatched || oi.cancelled || oi.doomed || oi.finished {
                continue;
            }
            // A task is a laggard when its elapsed *compute* time (the
            // scheduler watched its fetches and DU wait end) exceeds
            // the multiplier over the stage median — or over its own
            // profiled nominal, so naturally long tasks (a hot skewed
            // reducer) are not re-run just for being long.
            let nominal = self.jobs[j].stages[s].tasks[t].nominal_ns;
            let threshold = self.cfg.spec_multiplier * median.max(nominal);
            if now - oi.work_start_ns > threshold {
                self.launch_spec(now, j, s, t);
            } else if !self.jobs[j].stages[s].tasks[t].spec_check {
                // Not lagging yet: re-check exactly when it would be.
                self.jobs[j].stages[s].tasks[t].spec_check = true;
                self.q
                    .push(oi.work_start_ns + threshold, Event::SpecCheck(orig));
            }
        }
    }

    fn launch_spec(&mut self, now: f64, j: usize, s: usize, t: usize) {
        // The causal edge: the laggard original's lane spawned this
        // copy.
        let flow_from = self.jobs[j].stages[s].tasks[t].original.and_then(|o| {
            let oi = self.attempts[o];
            oi.dispatched
                .then(|| (self.exec_entity(oi.exec), now, "flow.spec"))
        });
        self.push_attempt(now, j, s, t, Origin::Spec, flow_from);
    }

    /// A deferred laggard re-check: the original is a laggard *now* if
    /// it is still running — the stage quantile was already met when
    /// the check was scheduled.
    fn on_spec_check(&mut self, now: f64, orig: usize) {
        if !self.cfg.speculation {
            return;
        }
        let oi = self.attempts[orig];
        if oi.cancelled || oi.doomed || oi.finished {
            return;
        }
        let (j, s, t) = (oi.job, oi.stage, oi.task);
        if self.jobs[j].stages[s].tasks[t].completed
            || self.jobs[j].stages[s].tasks[t].spec.is_some()
            // A requeue replaced this attempt; the new one re-earns its
            // own speculation.
            || self.jobs[j].stages[s].tasks[t].original != Some(orig)
        {
            return;
        }
        self.launch_spec(now, j, s, t);
    }

    fn on_finish(&mut self, now: f64, a: usize) {
        let info = self.attempts[a];
        if info.cancelled || info.doomed {
            // Killed earlier, or its executor crashed mid-service (the
            // kill lands at detection).
            return;
        }
        self.attempts[a].finished = true;
        self.running -= 1;
        self.execs[info.exec].running = None;
        self.free.insert(info.exec);
        let (j, s, t) = (info.job, info.stage, info.task);
        // The booked service is what this attempt actually ran for:
        // finish − compute start (covers degraded-DU fallback replay,
        // speculative nominals and straggler inflation alike).
        let service = info.finish_ns - info.work_start_ns;

        // First completion wins; the sibling attempt (if any) dies now.
        let other = {
            let task = &self.jobs[j].stages[s].tasks[t];
            debug_assert!(
                !task.completed,
                "second finisher should have been cancelled"
            );
            if info.is_spec() {
                task.original
            } else {
                task.spec
            }
        };
        if let Some(o) = other {
            if o != a {
                if S::ENABLED {
                    let oi = self.attempts[o];
                    if oi.dispatched && !oi.cancelled && !oi.finished {
                        // The win kills the racing sibling — a causal
                        // edge from winner to loser.
                        self.flow(
                            "flow.spec_kill",
                            self.exec_entity(info.exec),
                            now,
                            self.exec_entity(oi.exec),
                            now,
                        );
                    }
                }
                self.cancel(o, now);
            }
        }
        {
            let task = &mut self.jobs[j].stages[s].tasks[t];
            task.completed = true;
            task.winner_exec = info.exec;
        }
        let stage = &mut self.jobs[j].stages[s];
        stage.done += 1;
        stage.completed_services.push(service);
        let stage_done = stage.done == stage.tasks.len();
        self.out.tasks_completed += 1;
        self.out.busy_ns += service;
        if info.origin.is_recompute() {
            self.out.recompute_busy_ns += service;
            self.sink.observe("cluster.recompute_service_ns", service);
        }
        self.sink.count("cluster.tasks_completed", 1);
        if S::ENABLED {
            // The winning span carries the attempt's full causal
            // identity: coordinates, origin, queueing milestones, and
            // the profiled component fractions of its service window —
            // everything the critical-path blame analysis needs.
            let (ser_frac, de_frac, gc_frac) = self.profile(j).components(s, t);
            self.sink.span(Span {
                entity: self.exec_entity(info.exec),
                name: self.profile(j).stages[s].kind.span_name(),
                t0_ns: info.start_ns,
                t1_ns: now,
                attrs: vec![
                    ("job", (j as u64).into()),
                    ("stage", (s as u64).into()),
                    ("task", (t as u64).into()),
                    ("tenant", (self.jobs[j].tenant as u64).into()),
                    ("origin", info.origin.label().into()),
                    ("pend", info.pend_ns.into()),
                    ("fetch_done", info.fetch_done_ns.into()),
                    ("work_start", info.work_start_ns.into()),
                    ("ser_frac", ser_frac.into()),
                    ("de_frac", de_frac.into()),
                    ("gc_frac", gc_frac.into()),
                ],
            });
        }
        if info.is_spec() {
            self.out.spec_wins += 1;
            self.sink.count("cluster.spec_wins", 1);
            if S::ENABLED {
                self.sink.instant(Instant {
                    entity: self.exec_entity(info.exec),
                    name: "spec.win",
                    t_ns: now,
                    attrs: vec![("job", (j as u64).into()), ("task", (t as u64).into())],
                });
            }
        }

        // A recompleted stage-0 recompute must not re-advance a job
        // already past that barrier.
        if self.jobs[j].stage != s {
            return;
        }
        if stage_done {
            if s + 1 < self.profile(j).stages() {
                self.jobs[j].stage = s + 1;
                self.enqueue_stage(now, j, s + 1);
            } else {
                self.complete_job(now, j);
            }
        } else {
            self.maybe_speculate(now, j, s);
        }
    }

    /// Books a job's completion. Every attempt replayed the fixed
    /// profile, so the job's answer is the profile digest (folded into
    /// [`ClusterOutcome::fold_checksum`] at the end of the run).
    fn complete_job(&mut self, now: f64, j: usize) {
        let tenant = self.jobs[j].tenant;
        self.jobs[j].status = JobStatus::Completed;
        let latency = now - self.jobs[j].arrival_ns;
        self.out.jobs_completed += 1;
        self.out.makespan_ns = self.out.makespan_ns.max(now);
        self.out.job_latency_sum_ns += latency;
        self.out.job_latency_max_ns = self.out.job_latency_max_ns.max(latency);
        self.out.per_tenant[tenant].jobs += 1;
        self.out.per_tenant[tenant].latency_sum_ns += latency;
        self.sink.count("cluster.jobs_completed", 1);
        self.sink.observe("cluster.job_latency_ns", latency);
        self.sink.count(
            TENANT_JOB_COUNTERS[tenant.min(TENANT_JOB_COUNTERS.len() - 1)],
            1,
        );
        if S::ENABLED {
            // The job's causal terminus: the final stage's barrier span
            // ends at this exact `now`.
            self.sink.instant(Instant {
                entity: EntityId {
                    pid: DRIVER_PID,
                    tid: T_MAIN,
                },
                name: "job.complete",
                t_ns: now,
                attrs: vec![
                    ("job", (j as u64).into()),
                    ("tenant", (tenant as u64).into()),
                ],
            });
        }
        // Spurious in-flight recomputes of this job's stage-0 outputs
        // are obsolete now.
        if self.faults.is_some() {
            self.cancel_job(now, j);
        }
    }
}

/// Runs the cluster to completion (untraced).
///
/// # Errors
/// Rejects an invalid config ([`ClusterConfig::validate`]) before any
/// work runs; propagates profile-building failures.
// Untraced wrapper kept because the frozen `perfbench/` calls it.
pub fn run_cluster(cfg: &ClusterConfig) -> Result<ClusterOutcome, ClusterError> {
    run_cluster_sunk(cfg, &mut NoopSink)
}

/// [`run_cluster`] with a telemetry sink: `job.arrival`/`stage.ready`/
/// `job.complete` instants on the driver lane (the causal anchors the
/// blame analysis keys on), per-executor `task.*` spans carrying each
/// winning attempt's causal identity (job/stage/task/tenant
/// coordinates, origin, queueing milestones, profiled component
/// fractions), `du.wait` spans, `spec.launch`/`spec.win` instants,
/// causal flow edges (`flow.fetch` per input transfer, `flow.du` per
/// DU-queue handoff, `flow.recovery` from a failure to its replacement
/// attempt, `flow.spec` from a laggard to its copy, `flow.spec_kill`
/// from a winner to the sibling it kills), fixed-grid
/// `cluster.timeline.*` gauge samples every
/// [`ClusterConfig::timeline_bucket_ns`], the fault lifecycle on the
/// `T_FAIL` lanes (`exec.crash`/`fail.undetected`/`task.fail`/
/// `exec.blacklist`/`exec.up`/`du.fail`, driver `job.shed`/
/// `job.failed`), queue-depth and running-task gauges, and every
/// `cluster.*` counter booked at its event site. The returned outcome
/// is identical to the untraced path for any sink.
///
/// # Errors
/// Same as [`run_cluster`].
pub fn run_cluster_sunk<S: Sink>(
    cfg: &ClusterConfig,
    sink: &mut S,
) -> Result<ClusterOutcome, ClusterError> {
    cfg.validate()?;
    let profiles = build_profiles(cfg)?;

    // Calibrate the arrival rate to the target executor load: with
    // `mean_job_service` total work per job, an inter-arrival gap of
    // work / (load × executors) keeps the offered load constant across
    // cluster sizes.
    let mean_job_service: f64 =
        profiles.iter().map(|p| p.total_service_ns).sum::<f64>() / profiles.len() as f64;
    let mean_inter = mean_job_service / (cfg.target_load * cfg.executors as f64);
    let arrivals = crate::job::arrivals(cfg, mean_inter);

    if S::ENABLED {
        sink.name_process(DRIVER_PID, "cluster driver");
        sink.name_thread(DRIVER_PID, T_MAIN, "scheduler");
        if cfg.fault.enabled() {
            sink.name_thread(DRIVER_PID, T_FAIL, "faults");
        }
    }

    // The fault machinery only exists when it can fire, so a zero-rate
    // run is byte-identical to one with no fault domain at all.
    let faults = cfg.fault.enabled().then(|| {
        let seed = cfg.seed ^ CLUSTER_FAULT_SCOPE;
        Faults {
            exec: (0..cfg.executors)
                .map(|e| stream(seed, u64::from(CLUSTER_PID_BASE + e as u32)))
                .collect(),
            node: (0..cfg.nodes())
                .map(|n| stream(seed, NODE_FAULT_SCOPE ^ n as u64))
                .collect(),
            node_crash_pending: vec![false; cfg.nodes()],
            du_failed: vec![false; cfg.nodes()],
        }
    });

    let mut sched = Sched {
        cfg,
        profiles: &profiles,
        jobs: Vec::with_capacity(arrivals.len()),
        attempts: Vec::new(),
        pending: VecDeque::new(),
        pending_live: 0,
        free: (0..cfg.executors).collect(),
        fabric: Fabric::full_mesh(cfg.executors, cfg.executors, cfg.link),
        du_free: vec![vec![0.0; cfg.du_contexts_per_node]; cfg.nodes()],
        q: EventQueue::new(),
        exec_used: vec![false; cfg.executors],
        execs: vec![
            ExecHealth {
                state: ExecState::Alive,
                gen: 0,
                fails: 0,
                running: None
            };
            cfg.executors
        ],
        faults,
        running: 0,
        out: ClusterOutcome {
            per_tenant: vec![TenantStats::default(); cfg.tenants],
            ..ClusterOutcome::default()
        },
        flow_seq: 0,
        sink,
    };

    for (jid, a) in arrivals.iter().enumerate() {
        sched.jobs.push(JobState {
            tenant: a.tenant,
            arrival_ns: a.t_ns,
            stage: 0,
            stages: Vec::new(),
            status: JobStatus::Live,
            retries_used: 0,
            attempts: Vec::new(),
        });
        sched.q.push(a.t_ns, Event::Arrival(jid));
    }

    let bucket = cfg.timeline_bucket_ns;
    let mut next_sample = bucket;
    while let Some((now, ev)) = sched.q.pop() {
        if S::ENABLED && bucket > 0.0 {
            // Gauge snapshots land on the fixed bucket grid *before*
            // the event at `now` applies, so each sample reflects the
            // state that held across the bucket boundary — the gauges
            // are step functions of the event clock.
            while next_sample <= now {
                sched.emit_timeline(next_sample);
                next_sample += bucket;
            }
        }
        match ev {
            Event::Arrival(jid) => {
                sched.out.arrivals += 1;
                sched.sink.count("cluster.arrivals", 1);
                if S::ENABLED {
                    let tenant = sched.jobs[jid].tenant as u64;
                    sched.sink.instant(Instant {
                        entity: EntityId {
                            pid: DRIVER_PID,
                            tid: T_MAIN,
                        },
                        name: "job.arrival",
                        t_ns: now,
                        attrs: vec![("job", (jid as u64).into()), ("tenant", tenant.into())],
                    });
                }
                let watermark = cfg.fault.shed_queue_depth;
                if watermark > 0 && sched.pending_live >= watermark {
                    // Admission control: shedding beats collapsing.
                    sched.jobs[jid].status = JobStatus::Shed;
                    sched.out.jobs_shed += 1;
                    sched.out.makespan_ns = sched.out.makespan_ns.max(now);
                    sched.sink.count("cluster.jobs_shed", 1);
                    sched.driver_fail_instant("job.shed", now, jid);
                } else {
                    sched.enqueue_stage(now, jid, 0);
                }
            }
            Event::Finish(a) => sched.on_finish(now, a),
            Event::SpecCheck(orig) => sched.on_spec_check(now, orig),
            Event::Crash { exec, gen } => {
                if sched.execs[exec].gen == gen {
                    sched.crash_exec(now, exec);
                }
            }
            Event::NodeCrash { node } => {
                if let Some(fx) = &mut sched.faults {
                    fx.node_crash_pending[node] = false;
                }
                sched.out.node_crashes += 1;
                sched.sink.count("cluster.node_crashes", 1);
                if S::ENABLED {
                    sched.sink.instant(Instant {
                        entity: EntityId {
                            pid: DRIVER_PID,
                            tid: T_FAIL,
                        },
                        name: "node.crash",
                        t_ns: now,
                        attrs: vec![("node", (node as u64).into())],
                    });
                }
                let epn = cfg.executors_per_node;
                let hi = ((node + 1) * epn).min(cfg.executors);
                for e in node * epn..hi {
                    sched.crash_exec(now, e);
                }
            }
            Event::TaskFail(a) => sched.on_task_fail(now, a),
            Event::Dead { exec, gen } => {
                if sched.execs[exec].gen == gen {
                    sched.declare_dead(now, exec, DeathCause::Heartbeat);
                }
            }
            Event::Up { exec, gen } => sched.on_up(now, exec, gen),
            Event::Retry { job, stage, task } => sched.on_retry(now, job, stage, task),
        }
        sched.dispatch(now);
    }

    assert!(
        sched.jobs.iter().all(|j| j.status != JobStatus::Live),
        "the run must drain every job"
    );
    assert_eq!(
        sched.out.jobs_completed + sched.out.jobs_shed + sched.out.jobs_failed,
        sched.out.arrivals,
        "every arrival must reach exactly one terminal state"
    );
    assert_eq!(sched.pending_live, 0, "no attempts may be left queued");
    assert!(sched.q.is_empty(), "no leaked timers after the last event");
    sched.out.executors_used = sched.exec_used.iter().filter(|&&u| u).count() as u64;
    sched.out.fabric_messages = sched.fabric.messages();
    sched.out.fabric_bytes = sched.fabric.total_bytes();
    // Digest of digests, in arrival order — stable across scheduling
    // differences (speculation, contention, recovery) by construction:
    // a completed job answers with its profile digest, a shed/failed
    // job with zero.
    let mut fold = workloads::Fold::new();
    for (i, job) in sched.jobs.iter().enumerate() {
        let done = job.status == JobStatus::Completed;
        let d = if done {
            profiles[job.tenant].fold_checksum
        } else {
            0
        };
        fold.insert(i as u64, (1, f64::from_bits(d)));
    }
    sched.out.fold_checksum = fold_checksum(&fold);
    Ok(sched.out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates_guard_zero_denominators() {
        // A run that did nothing: no executors used, no completions,
        // zero makespan. Every derived rate must be 0.0, not NaN/inf.
        let out = ClusterOutcome::default();
        assert_eq!(out.mean_latency_ns(), 0.0, "0 completions");
        assert_eq!(out.utilization(0), 0.0, "0 executors");
        assert_eq!(out.utilization(64), 0.0, "0 makespan");
        assert_eq!(out.goodput(), 0.0, "no work at all");
        assert_eq!(out.recompute_share(), 0.0);
        assert_eq!(out.shed_rate(), 0.0, "0 arrivals");
        assert_eq!(out.throughput_per_sec(), 0.0);

        let some = ClusterOutcome {
            jobs_completed: 4,
            job_latency_sum_ns: 8.0,
            busy_ns: 3.0,
            wasted_ns: 1.0,
            recompute_busy_ns: 1.5,
            makespan_ns: 2e9,
            arrivals: 8,
            jobs_shed: 2,
            ..ClusterOutcome::default()
        };
        assert_eq!(some.mean_latency_ns(), 2.0);
        assert_eq!(some.utilization(0), 0.0, "still guards 0 executors");
        assert!((some.utilization(1) - 3.0 / 2e9).abs() < 1e-18);
        assert_eq!(some.goodput(), 0.75);
        assert_eq!(some.recompute_share(), 0.5);
        assert_eq!(some.shed_rate(), 0.25);
        assert_eq!(some.throughput_per_sec(), 2.0);
    }
}
