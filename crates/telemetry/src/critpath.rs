//! Causal-trace analysis: critical path extraction and latency blame.
//!
//! The cluster scheduler emits a causally-identified trace: every
//! winning task attempt is a `task.*` span carrying its job / stage /
//! task coordinates, its queueing milestones (`pend`, `fetch_done`,
//! `work_start`), its origin (`fresh` / `spec` / `retry` / `crash` /
//! `recompute`), and the profiled component fractions of its service
//! window; the driver emits `job.arrival` / `stage.ready` /
//! `job.complete` instants; the fault domain emits `exec.blacklist` /
//! `exec.rejoin` instants. [`analyze`] rebuilds each completed job's
//! stage DAG from those events, walks the **critical path** backward
//! (each stage's barrier is the span that finished last — its `t1_ns`
//! *is* the next stage's ready time, on the simulated clock, exactly),
//! and attributes every nanosecond of job latency to one of
//! [`CATEGORIES`].
//!
//! The attribution obeys a **conservation law**, enforced as a hard
//! check rather than trusted: per job, the nine categories sum to the
//! job's latency to within accumulation tolerance, and the longest
//! per-job critical path never exceeds the cluster makespan. A trace
//! that violates either is corrupt (a missing barrier span, a
//! mis-threaded causal id) and analysis fails loudly instead of
//! producing a plausible-looking lie.
//!
//! Everything here is pure function of a [`Recorder`] — byte-identical
//! output for any worker-thread count, nothing when tracing is off.

use crate::json::JsonWriter;
use crate::span::{Attr, AttrValue, Recorder, Span};
use std::collections::BTreeMap;

/// The closed blame category set, in rendering order. Every nanosecond
/// of every completed job's latency lands in exactly one bucket.
pub const CATEGORIES: [&str; 9] = [
    "queue",
    "compute",
    "serde",
    "fetch",
    "du_wait",
    "gc",
    "recovery",
    "speculation",
    "blacklist",
];

/// Index of `"queue"` — ready-to-dispatch wait with free capacity.
pub const CAT_QUEUE: usize = 0;
/// Index of `"compute"` — the service window minus serde/GC shares.
pub const CAT_COMPUTE: usize = 1;
/// Index of `"serde"` — serialize + deserialize share of the service.
pub const CAT_SERDE: usize = 2;
/// Index of `"fetch"` — network shuffle/scan input transfer.
pub const CAT_FETCH: usize = 3;
/// Index of `"du_wait"` — queueing for a shared DU context.
pub const CAT_DU_WAIT: usize = 4;
/// Index of `"gc"` — GC-pressure share of the service window.
pub const CAT_GC: usize = 5;
/// Index of `"recovery"` — re-execution delay after a detected failure.
pub const CAT_RECOVERY: usize = 6;
/// Index of `"speculation"` — delay until a speculative copy launched.
pub const CAT_SPECULATION: usize = 7;
/// Index of `"blacklist"` — dispatch wait while capacity was
/// blacklisted.
pub const CAT_BLACKLIST: usize = 8;

/// Why a trace failed causal analysis. Any of these means the trace is
/// corrupt — callers should treat it like a failed reconciliation.
#[derive(Clone, Debug, PartialEq)]
pub enum CritPathError {
    /// A completed job is missing its `job.arrival` instant.
    MissingArrival {
        /// The job.
        job: u64,
    },
    /// A job's stage has no `stage.ready` instant.
    MissingReady {
        /// The job.
        job: u64,
        /// The stage.
        stage: u64,
    },
    /// No task span's `t1_ns` matches the stage barrier exactly.
    MissingBarrierSpan {
        /// The job.
        job: u64,
        /// The stage.
        stage: u64,
    },
    /// A critical span's milestones are out of causal order.
    BadMilestones {
        /// The job.
        job: u64,
        /// The stage.
        stage: u64,
    },
    /// A job's categories do not sum to its latency.
    ConservationViolated {
        /// The job.
        job: u64,
        /// Category sum, nanoseconds.
        sum_ns: f64,
        /// Job latency, nanoseconds.
        latency_ns: f64,
    },
    /// The longest job critical path exceeds the cluster makespan.
    ExceedsMakespan {
        /// Longest per-job critical path, nanoseconds.
        critical_path_ns: f64,
        /// Cluster makespan, nanoseconds.
        makespan_ns: f64,
    },
}

impl std::fmt::Display for CritPathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CritPathError::MissingArrival { job } => {
                write!(f, "job {job}: no job.arrival instant")
            }
            CritPathError::MissingReady { job, stage } => {
                write!(f, "job {job} stage {stage}: no stage.ready instant")
            }
            CritPathError::MissingBarrierSpan { job, stage } => {
                write!(
                    f,
                    "job {job} stage {stage}: no task span ends at the barrier"
                )
            }
            CritPathError::BadMilestones { job, stage } => {
                write!(f, "job {job} stage {stage}: milestones out of causal order")
            }
            CritPathError::ConservationViolated {
                job,
                sum_ns,
                latency_ns,
            } => {
                write!(
                    f,
                    "job {job}: blame sums to {sum_ns} ns but latency is {latency_ns} ns"
                )
            }
            CritPathError::ExceedsMakespan {
                critical_path_ns,
                makespan_ns,
            } => {
                write!(
                    f,
                    "critical path {critical_path_ns} ns exceeds makespan {makespan_ns} ns"
                )
            }
        }
    }
}

impl std::error::Error for CritPathError {}

/// One completed job's critical-path attribution.
#[derive(Clone, Debug, PartialEq)]
pub struct JobBlame {
    /// The job id.
    pub job: u64,
    /// The tenant the job belongs to.
    pub tenant: u64,
    /// Arrival on the simulated clock, nanoseconds.
    pub arrival_ns: f64,
    /// Completion on the simulated clock, nanoseconds.
    pub complete_ns: f64,
    /// End-to-end latency, nanoseconds.
    pub latency_ns: f64,
    /// Per-category nanoseconds, indexed like [`CATEGORIES`]; sums to
    /// `latency_ns` (enforced).
    pub blame: [f64; 9],
}

/// One tenant's aggregate over its completed jobs.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantBlame {
    /// The tenant id.
    pub tenant: u64,
    /// Completed jobs.
    pub jobs: u64,
    /// Exact median latency (rank `ceil(0.50 n)`), nanoseconds.
    pub p50_ns: f64,
    /// Exact p95 latency, nanoseconds.
    pub p95_ns: f64,
    /// Exact p99 latency, nanoseconds.
    pub p99_ns: f64,
    /// Summed latency, nanoseconds.
    pub latency_sum_ns: f64,
    /// Per-category nanoseconds summed over the tenant's jobs.
    pub blame: [f64; 9],
}

/// The full causal analysis of one cluster trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Analysis {
    /// Per-job attributions, in job-id order.
    pub jobs: Vec<JobBlame>,
    /// Per-tenant aggregates, in tenant-id order.
    pub tenants: Vec<TenantBlame>,
    /// Longest per-job critical path, nanoseconds.
    pub critical_path_ns: f64,
    /// The cluster makespan the caller measured, nanoseconds.
    pub makespan_ns: f64,
}

fn attr_u64(attrs: &[Attr], key: &str) -> Option<u64> {
    attrs.iter().find_map(|(k, v)| match v {
        AttrValue::U64(n) if *k == key => Some(*n),
        _ => None,
    })
}

fn attr_f64(attrs: &[Attr], key: &str) -> Option<f64> {
    attrs.iter().find_map(|(k, v)| match v {
        AttrValue::F64(x) if *k == key => Some(*x),
        _ => None,
    })
}

fn attr_str<'a>(attrs: &'a [Attr], key: &str) -> Option<&'a str> {
    attrs.iter().find_map(|(k, v)| match v {
        AttrValue::Str(s) if *k == key => Some(*s),
        _ => None,
    })
}

/// Simulated intervals during which at least one executor was
/// blacklisted, merged from per-pid `exec.blacklist` / `exec.rejoin`
/// instant pairs (an unmatched blacklist extends to infinity).
fn blacklist_union(rec: &Recorder) -> Vec<(f64, f64)> {
    let mut per_pid: BTreeMap<u32, Vec<(f64, bool)>> = BTreeMap::new();
    for e in &rec.instants {
        let on = match e.name {
            "exec.blacklist" => true,
            "exec.rejoin" => false,
            _ => continue,
        };
        per_pid.entry(e.entity.pid).or_default().push((e.t_ns, on));
    }
    let mut intervals: Vec<(f64, f64)> = Vec::new();
    for marks in per_pid.values_mut() {
        marks.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut open: Option<f64> = None;
        for &(t, on) in marks.iter() {
            match (on, open) {
                (true, None) => open = Some(t),
                (false, Some(t0)) => {
                    intervals.push((t0, t));
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(t0) = open {
            intervals.push((t0, f64::INFINITY));
        }
    }
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for (a, b) in intervals {
        match merged.last_mut() {
            Some(last) if a <= last.1 => last.1 = last.1.max(b),
            _ => merged.push((a, b)),
        }
    }
    merged
}

/// Length of `[a, b]` covered by the interval union.
fn covered(union: &[(f64, f64)], a: f64, b: f64) -> f64 {
    let mut cov = 0.0;
    for &(x, y) in union {
        let lo = x.max(a);
        let hi = y.min(b);
        if hi > lo {
            cov += hi - lo;
        }
    }
    cov.min(b - a)
}

/// Rank-`ceil(q·n)` order statistic over an ascending-sorted slice —
/// the same exact-percentile convention the histogram documents.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Rebuilds every completed job's stage DAG from the trace, extracts
/// each critical path, and attributes all latency to [`CATEGORIES`].
///
/// # Errors
/// Returns a [`CritPathError`] when the trace is causally incomplete or
/// the conservation law fails — callers must treat that as a corrupt
/// trace, not a soft condition.
pub fn analyze(rec: &Recorder, makespan_ns: f64) -> Result<Analysis, CritPathError> {
    // Driver milestones, keyed by causal id.
    let mut arrival: BTreeMap<u64, (f64, u64)> = BTreeMap::new(); // job -> (t, tenant)
    let mut ready: BTreeMap<(u64, u64), f64> = BTreeMap::new(); // (job, stage) -> t
    let mut complete: BTreeMap<u64, f64> = BTreeMap::new(); // job -> t
    for e in &rec.instants {
        match e.name {
            "job.arrival" => {
                if let (Some(j), Some(t)) =
                    (attr_u64(&e.attrs, "job"), attr_u64(&e.attrs, "tenant"))
                {
                    arrival.insert(j, (e.t_ns, t));
                }
            }
            "stage.ready" => {
                if let (Some(j), Some(s)) = (attr_u64(&e.attrs, "job"), attr_u64(&e.attrs, "stage"))
                {
                    ready.insert((j, s), e.t_ns);
                }
            }
            "job.complete" => {
                if let Some(j) = attr_u64(&e.attrs, "job") {
                    complete.insert(j, e.t_ns);
                }
            }
            _ => {}
        }
    }

    // Task spans by (job, stage), in emission order.
    let mut tasks: BTreeMap<(u64, u64), Vec<&Span>> = BTreeMap::new();
    for s in &rec.spans {
        if !s.name.starts_with("task.") {
            continue;
        }
        if let (Some(j), Some(st)) = (attr_u64(&s.attrs, "job"), attr_u64(&s.attrs, "stage")) {
            tasks.entry((j, st)).or_default().push(s);
        }
    }

    let bl_union = blacklist_union(rec);
    let mut jobs: Vec<JobBlame> = Vec::new();
    for (&job, &done) in &complete {
        let &(arr, tenant) = arrival
            .get(&job)
            .ok_or(CritPathError::MissingArrival { job })?;
        let latency = done - arr;
        let stages = (0u64..)
            .take_while(|s| ready.contains_key(&(job, *s)))
            .count() as u64;
        if stages == 0 {
            return Err(CritPathError::MissingReady { job, stage: 0 });
        }
        let mut blame = [0.0f64; 9];
        for s in 0..stages {
            let stage_ready = ready[&(job, s)];
            // The stage barrier: the next stage became ready (or the
            // job completed) the instant the last task span ended —
            // the same simulated `now` flows to both, so the match is
            // exact, not approximate.
            let barrier = if s + 1 < stages {
                ready[&(job, s + 1)]
            } else {
                done
            };
            let spans = tasks
                .get(&(job, s))
                .ok_or(CritPathError::MissingBarrierSpan { job, stage: s })?;
            // Last match in emission order: the span whose completion
            // event actually advanced the barrier.
            let crit = spans
                .iter()
                .rev()
                .find(|sp| sp.t1_ns == barrier)
                .ok_or(CritPathError::MissingBarrierSpan { job, stage: s })?;

            let pend = attr_f64(&crit.attrs, "pend").unwrap_or(crit.t0_ns);
            let fetch_done = attr_f64(&crit.attrs, "fetch_done").unwrap_or(crit.t0_ns);
            let work_start = attr_f64(&crit.attrs, "work_start").unwrap_or(fetch_done);
            let eps = 1e-6 * barrier.abs().max(1.0);
            let ordered = stage_ready - eps <= pend
                && pend - eps <= crit.t0_ns
                && crit.t0_ns - eps <= fetch_done
                && fetch_done - eps <= work_start
                && work_start - eps <= crit.t1_ns;
            if !ordered {
                return Err(CritPathError::BadMilestones { job, stage: s });
            }

            // [ready -> pend]: how long the stage waited for this
            // attempt to even exist — blamed on why it was re-launched.
            let origin_wait = (pend - stage_ready).max(0.0);
            let origin_cat = match attr_str(&crit.attrs, "origin") {
                Some("spec") => CAT_SPECULATION,
                Some("retry") | Some("crash") | Some("recompute") => CAT_RECOVERY,
                _ => CAT_QUEUE,
            };
            blame[origin_cat] += origin_wait;

            // [pend -> dispatch]: queue wait, with the sub-window in
            // which any executor sat blacklisted charged to the drain.
            let disp_wait = (crit.t0_ns - pend).max(0.0);
            let bl = covered(&bl_union, pend, pend + disp_wait).max(0.0);
            blame[CAT_BLACKLIST] += bl;
            blame[CAT_QUEUE] += disp_wait - bl;

            // [dispatch -> fetch_done]: input transfer over the fabric.
            blame[CAT_FETCH] += (fetch_done - crit.t0_ns).max(0.0);
            // [fetch_done -> work_start]: DU-context queueing.
            blame[CAT_DU_WAIT] += (work_start - fetch_done).max(0.0);

            // [work_start -> t1]: the service window, split by the
            // profiled component fractions; compute is the residual so
            // the window partitions exactly.
            let c = (crit.t1_ns - work_start).max(0.0);
            let ser = attr_f64(&crit.attrs, "ser_frac").unwrap_or(0.0) * c;
            let de = attr_f64(&crit.attrs, "de_frac").unwrap_or(0.0) * c;
            let gc = attr_f64(&crit.attrs, "gc_frac").unwrap_or(0.0) * c;
            let mut comp = c - ser - de - gc;
            if comp < 0.0 {
                if comp < -1e-6 * c.max(1.0) {
                    return Err(CritPathError::BadMilestones { job, stage: s });
                }
                comp = 0.0;
            }
            blame[CAT_SERDE] += ser + de;
            blame[CAT_GC] += gc;
            blame[CAT_COMPUTE] += comp;
        }
        // The conservation law: the nine categories partition the
        // latency. Telescoping over exact barrier matches leaves only
        // f64 accumulation error — anything beyond tolerance means the
        // causal chain is broken.
        let sum: f64 = blame.iter().sum();
        if (sum - latency).abs() > 1e-9 * latency.abs().max(1.0) {
            return Err(CritPathError::ConservationViolated {
                job,
                sum_ns: sum,
                latency_ns: latency,
            });
        }
        jobs.push(JobBlame {
            job,
            tenant,
            arrival_ns: arr,
            complete_ns: done,
            latency_ns: latency,
            blame,
        });
    }

    let critical_path_ns = jobs.iter().map(|j| j.latency_ns).fold(0.0, f64::max);
    if critical_path_ns > makespan_ns + 1e-9 * makespan_ns.abs().max(1.0) {
        return Err(CritPathError::ExceedsMakespan {
            critical_path_ns,
            makespan_ns,
        });
    }

    let mut by_tenant: BTreeMap<u64, Vec<&JobBlame>> = BTreeMap::new();
    for j in &jobs {
        by_tenant.entry(j.tenant).or_default().push(j);
    }
    let tenants = by_tenant
        .into_iter()
        .map(|(tenant, js)| {
            let mut lat: Vec<f64> = js.iter().map(|j| j.latency_ns).collect();
            lat.sort_by(f64::total_cmp);
            let mut blame = [0.0f64; 9];
            for j in &js {
                for (acc, v) in blame.iter_mut().zip(j.blame) {
                    *acc += v;
                }
            }
            TenantBlame {
                tenant,
                jobs: js.len() as u64,
                p50_ns: percentile(&lat, 0.50),
                p95_ns: percentile(&lat, 0.95),
                p99_ns: percentile(&lat, 0.99),
                latency_sum_ns: lat.iter().sum(),
                blame,
            }
        })
        .collect();

    Ok(Analysis {
        jobs,
        tenants,
        critical_path_ns,
        makespan_ns,
    })
}

impl Analysis {
    /// Per-category nanoseconds summed over every completed job.
    pub fn total_blame(&self) -> [f64; 9] {
        let mut total = [0.0f64; 9];
        for j in &self.jobs {
            for (acc, v) in total.iter_mut().zip(j.blame) {
                *acc += v;
            }
        }
        total
    }

    /// The category holding the largest share of total latency.
    pub fn dominant_category(&self) -> &'static str {
        let total = self.total_blame();
        let mut best = 0;
        for (i, v) in total.iter().enumerate() {
            if *v > total[best] {
                best = i;
            }
        }
        CATEGORIES[best]
    }

    /// Renders the analysis as the `blame` JSON block: category names,
    /// conservation totals, and one row per tenant with exact latency
    /// percentiles and per-category blame columns.
    pub fn render(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("categories");
        w.begin_arr();
        for c in CATEGORIES {
            w.str_val(c);
        }
        w.end_arr();
        w.field_u64("jobs", self.jobs.len() as u64);
        w.field_f64("makespan_ns", self.makespan_ns, 3);
        w.field_f64("critical_path_ns", self.critical_path_ns, 3);
        w.field_str("dominant", self.dominant_category());
        let total = self.total_blame();
        w.key("total_ns");
        w.begin_obj();
        for (name, v) in CATEGORIES.iter().zip(total) {
            w.field_f64(name, v, 3);
        }
        w.end_obj();
        w.key("tenants");
        w.begin_arr();
        for t in &self.tenants {
            w.begin_obj();
            w.field_u64("tenant", t.tenant);
            w.field_u64("jobs", t.jobs);
            w.field_f64("p50_ns", t.p50_ns, 3);
            w.field_f64("p95_ns", t.p95_ns, 3);
            w.field_f64("p99_ns", t.p99_ns, 3);
            w.field_f64("latency_sum_ns", t.latency_sum_ns, 3);
            w.key("blame_ns");
            w.begin_obj();
            for (name, v) in CATEGORIES.iter().zip(t.blame) {
                w.field_f64(name, v, 3);
            }
            w.end_obj();
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
    }
}

/// The time-sliced gauge timeline: every [`crate::span::Sample`]
/// series in the trace, grouped by name, in emission (= simulated
/// time) order.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// `(series name, [(t_ns, value)])`, sorted by name.
    pub series: Vec<(String, Vec<(f64, f64)>)>,
}

impl Timeline {
    /// Collects the recorder's samples into named series.
    pub fn from_recorder(rec: &Recorder) -> Timeline {
        let mut by_name: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &rec.samples {
            by_name.entry(s.name).or_default().push((s.t_ns, s.value));
        }
        Timeline {
            series: by_name
                .into_iter()
                .map(|(n, pts)| (n.to_string(), pts))
                .collect(),
        }
    }

    /// Renders the timeline as `{series: {name: {t_ns: [...],
    /// value: [...]}}}` — columnar so the fixed bucket grid is obvious.
    pub fn render(&self, w: &mut JsonWriter) {
        w.begin_obj();
        for (name, pts) in &self.series {
            w.key(name);
            w.begin_obj();
            w.key("t_ns");
            w.begin_arr();
            for &(t, _) in pts {
                w.f64_val(t, 1);
            }
            w.end_arr();
            w.key("value");
            w.begin_arr();
            for &(_, v) in pts {
                w.f64_val(v, 3);
            }
            w.end_arr();
            w.end_obj();
        }
        w.end_obj();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{EntityId, Instant, Sample, Sink};

    const DRIVER: EntityId = EntityId { pid: 1, tid: 0 };
    const EXEC: EntityId = EntityId {
        pid: 10_000,
        tid: 0,
    };

    fn instant(name: &'static str, t: f64, attrs: Vec<Attr>) -> Instant {
        Instant {
            entity: DRIVER,
            name,
            t_ns: t,
            attrs,
        }
    }

    /// One job, one stage, one task: arrival 0, dispatched at 10,
    /// fetched until 30, DU wait until 40, service until 100 with
    /// ser_frac 0.25.
    fn one_task_trace() -> Recorder {
        let mut r = Recorder::new();
        r.instant(instant(
            "job.arrival",
            0.0,
            vec![("job", 0u64.into()), ("tenant", 3u64.into())],
        ));
        r.instant(instant(
            "stage.ready",
            0.0,
            vec![("job", 0u64.into()), ("stage", 0u64.into())],
        ));
        r.span(Span {
            entity: EXEC,
            name: "task.map",
            t0_ns: 10.0,
            t1_ns: 100.0,
            attrs: vec![
                ("job", 0u64.into()),
                ("stage", 0u64.into()),
                ("task", 0u64.into()),
                ("origin", "fresh".into()),
                ("pend", 0.0f64.into()),
                ("fetch_done", 30.0f64.into()),
                ("work_start", 40.0f64.into()),
                ("ser_frac", 0.25f64.into()),
                ("de_frac", 0.0f64.into()),
                ("gc_frac", 0.0f64.into()),
            ],
        });
        r.instant(instant("job.complete", 100.0, vec![("job", 0u64.into())]));
        r
    }

    #[test]
    fn one_task_blame_partitions_latency() {
        let a = analyze(&one_task_trace(), 100.0).expect("analyzes");
        assert_eq!(a.jobs.len(), 1);
        let j = &a.jobs[0];
        assert_eq!(j.tenant, 3);
        assert_eq!(j.latency_ns, 100.0);
        assert_eq!(j.blame[CAT_QUEUE], 10.0);
        assert_eq!(j.blame[CAT_FETCH], 20.0);
        assert_eq!(j.blame[CAT_DU_WAIT], 10.0);
        assert_eq!(j.blame[CAT_SERDE], 15.0); // 0.25 * 60
        assert_eq!(j.blame[CAT_COMPUTE], 45.0);
        assert_eq!(j.blame.iter().sum::<f64>(), 100.0);
        assert_eq!(a.critical_path_ns, 100.0);
        assert_eq!(a.tenants.len(), 1);
        assert_eq!(a.tenants[0].p50_ns, 100.0);
        assert_eq!(a.dominant_category(), "compute");
    }

    #[test]
    fn blacklist_overlap_is_charged_to_the_drain() {
        let mut r = one_task_trace();
        // Executor blacklisted over [2, 6] — 4 ns of the 10 ns dispatch
        // wait.
        r.instant(Instant {
            entity: EntityId {
                pid: 10_001,
                tid: 5,
            },
            name: "exec.blacklist",
            t_ns: 2.0,
            attrs: Vec::new(),
        });
        r.instant(Instant {
            entity: EntityId {
                pid: 10_001,
                tid: 5,
            },
            name: "exec.rejoin",
            t_ns: 6.0,
            attrs: Vec::new(),
        });
        let a = analyze(&r, 100.0).expect("analyzes");
        let j = &a.jobs[0];
        assert_eq!(j.blame[CAT_BLACKLIST], 4.0);
        assert_eq!(j.blame[CAT_QUEUE], 6.0);
        assert_eq!(j.blame.iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn spec_and_retry_origins_move_the_wait() {
        for (origin, cat) in [("spec", CAT_SPECULATION), ("crash", CAT_RECOVERY)] {
            let mut r = one_task_trace();
            let sp = &mut r.spans[0];
            sp.attrs.retain(|(k, _)| *k != "origin" && *k != "pend");
            sp.attrs.push(("origin", origin.into()));
            sp.attrs.push(("pend", 8.0f64.into()));
            let a = analyze(&r, 100.0).expect("analyzes");
            let j = &a.jobs[0];
            assert_eq!(j.blame[cat], 8.0, "origin {origin}");
            assert_eq!(j.blame[CAT_QUEUE], 2.0);
            assert_eq!(j.blame.iter().sum::<f64>(), 100.0);
        }
    }

    #[test]
    fn missing_barrier_span_is_a_hard_error() {
        let mut r = one_task_trace();
        r.spans[0].t1_ns = 99.0; // no longer matches the barrier
        assert_eq!(
            analyze(&r, 100.0),
            Err(CritPathError::MissingBarrierSpan { job: 0, stage: 0 })
        );
    }

    #[test]
    fn critical_path_cannot_exceed_makespan() {
        let r = one_task_trace();
        assert_eq!(
            analyze(&r, 50.0),
            Err(CritPathError::ExceedsMakespan {
                critical_path_ns: 100.0,
                makespan_ns: 50.0
            })
        );
    }

    #[test]
    fn incomplete_jobs_are_skipped() {
        let mut r = one_task_trace();
        // A shed job: arrival but no completion.
        r.instant(instant(
            "job.arrival",
            5.0,
            vec![("job", 1u64.into()), ("tenant", 0u64.into())],
        ));
        let a = analyze(&r, 100.0).expect("analyzes");
        assert_eq!(a.jobs.len(), 1);
    }

    #[test]
    fn timeline_groups_series_by_name() {
        let mut r = Recorder::new();
        for (t, v) in [(50.0, 1.0), (100.0, 3.0)] {
            r.sample(Sample {
                entity: DRIVER,
                name: "b.depth",
                t_ns: t,
                value: v,
            });
        }
        r.sample(Sample {
            entity: DRIVER,
            name: "a.util",
            t_ns: 50.0,
            value: 0.5,
        });
        let tl = Timeline::from_recorder(&r);
        assert_eq!(tl.series.len(), 2);
        assert_eq!(tl.series[0].0, "a.util");
        assert_eq!(tl.series[1].1, vec![(50.0, 1.0), (100.0, 3.0)]);
        let mut w = JsonWriter::new();
        tl.render(&mut w);
        let json = w.finish();
        assert!(json.contains("\"b.depth\""));
        assert!(json.contains("\"t_ns\": [50.0, 100.0]"));
    }
}
