//! The shared run shape of every workload: set up several times (the
//! median is `setup_s`), then repeat one iteration of work until the
//! run's seconds are spent, checking each iteration's simulated values
//! against the first.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::clock::Clock;

/// Set-up repetitions per run (`setup_s` is their median).
pub const SETUP_REPS: usize = 5;
/// Fewest timed iterations per run, however long one takes.
pub const MIN_ITERS: usize = 3;

/// The run's command-line settings and its clock.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub clock: Clock,
}

/// Operations attempted and failed. A failure is recorded, never
/// raised.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation.
    pub fn op<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                None
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// One timed iteration's results.
#[derive(Default)]
pub struct Iter {
    pub tally: Tally,
    /// Units of work completed (round trips, requests, tasks), for
    /// `tasks_per_s`.
    pub tasks: u64,
    /// Host-clock timings of single operations, for the rate metrics:
    /// `(metric, operation, seconds, work)`. An operation's work (bytes,
    /// round trips, micro-ops) is the same on every iteration.
    pub samples: Vec<(&'static str, String, f64, f64)>,
    /// Every simulated value and count, exactly (`f64` as bits): these
    /// must repeat on every iteration, run and seed-for-seed.
    pub sim: Vec<(String, u64)>,
    /// Simulated metric values by metric name (also in `sim`).
    pub sim_metrics: Vec<(&'static str, f64)>,
}

impl Iter {
    pub fn sim_f64(&mut self, name: impl Into<String>, v: f64) {
        self.sim.push((name.into(), v.to_bits()));
    }

    pub fn sim_u64(&mut self, name: impl Into<String>, v: u64) {
        self.sim.push((name.into(), v));
    }

    /// One timed operation contributing `work` to rate metric `metric`.
    pub fn sample(&mut self, metric: &'static str, op: impl Into<String>, secs: f64, work: f64) {
        self.samples.push((metric, op.into(), secs, work));
    }

    /// Runs one named part of the iteration, timing it for `wall_s`.
    pub fn part<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Iter) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self);
        self.sample("wall_s", name, t0.elapsed().as_secs_f64(), 0.0);
        out
    }

    /// A simulated end-to-end or per-layer metric: reported from the
    /// first iteration, checked exactly on every other.
    pub fn sim_metric(&mut self, name: &'static str, v: f64) {
        self.sim_f64(name, v);
        self.sim_metrics.push((name, v));
    }
}

/// A workload run, ready to report.
#[derive(Default)]
pub struct Run {
    pub tally: Tally,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// The simulated fingerprint of this seed (determinism guard).
    pub sim: Vec<(String, u64)>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Run {
    /// A run that could not start (its set-up failed).
    pub fn failed(e: String) -> Run {
        let mut run = Run::default();
        run.tally.op::<()>(Err(e));
        run
    }

    /// Checks a second computation of the simulated fingerprint (the
    /// traced twin, a repeated pass) against the first.
    pub fn same_sim(&mut self, what: &str, a: &[(String, u64)], b: &[(String, u64)]) {
        self.tally
            .op(first_difference(a, b).map_or(Ok(()), |d| Err(format!("{what}: {d}"))));
    }
}

/// The first entry where two fingerprints differ.
pub fn first_difference(a: &[(String, u64)], b: &[(String, u64)]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} simulated values vs {}", a.len(), b.len()));
    }
    a.iter()
        .zip(b)
        .find(|(x, y)| x != y)
        .map(|(x, y)| format!("{} = {:#x} vs {} = {:#x}", x.0, x.1, y.0, y.1))
}

/// Set-up: `value` from the last repetition, the median seconds, and
/// the median per-layer self seconds of the repetitions.
pub struct Setup<T> {
    pub value: T,
    pub setup_s: f64,
    pub layers: BTreeMap<&'static str, f64>,
}

/// Builds the workload's inputs `reps` times.
pub fn setup<T>(ctx: &Ctx, reps: usize, mut build: impl FnMut() -> T) -> Setup<T> {
    let mut secs = Vec::new();
    let mut per_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut value = None;
    for _ in 0..reps {
        drop(value.take()); // free the previous inputs before building the next
        let t0 = Instant::now();
        value = Some(build());
        secs.push(t0.elapsed().as_secs_f64());
        for (k, v) in ctx.clock.drain() {
            per_layer.entry(k).or_default().push(v);
        }
    }
    Setup {
        value: value.expect("at least one set-up repetition"),
        setup_s: median(&secs),
        layers: per_layer
            .into_iter()
            .map(|(k, v)| (k, median(&v)))
            .collect(),
    }
}

/// The timed region's results.
pub struct Timed {
    pub iters: Vec<Iter>,
    /// Host seconds per iteration.
    pub walls: Vec<f64>,
    /// Mean self seconds per iteration, per span name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Peak heap memory up to the end of the timed region.
    pub peak_heap_mb: f64,
}

/// Repeats `iter` until `ctx.seconds` have passed (at least
/// [`MIN_ITERS`] times).
pub fn timed<S>(ctx: &Ctx, state: &mut S, mut iter: impl FnMut(&Ctx, &mut S) -> Iter) -> Timed {
    let start = Instant::now();
    let mut iters = Vec::new();
    let mut walls = Vec::new();
    while iters.len() < MIN_ITERS || start.elapsed().as_secs_f64() < ctx.seconds {
        let t0 = Instant::now();
        let it = iter(ctx, state);
        walls.push(t0.elapsed().as_secs_f64());
        iters.push(it);
    }
    let n = iters.len() as f64;
    let layers = ctx
        .clock
        .drain()
        .into_iter()
        .map(|(k, v)| (k, v / n))
        .collect();
    Timed {
        iters,
        walls,
        layers,
        peak_heap_mb: crate::mem::peak_mb(),
    }
}

impl Timed {
    /// Starts the run's report: counts, drift checks, the host-clock
    /// end-to-end metrics and the simulated ones.
    pub fn into_run(mut self, setup_s: f64) -> Run {
        let mut run = Run::default();
        for i in 0..self.iters.len() {
            run.tally.absorb(std::mem::take(&mut self.iters[i].tally));
            if i > 0 {
                run.same_sim(
                    &format!("iteration {i} drifted"),
                    &self.iters[0].sim,
                    &self.iters[i].sim,
                );
            }
        }
        run.sim = self.iters[0].sim.clone();
        // Host times are the fastest of their repetitions: on a shared
        // machine interference only ever adds time, and it comes in
        // phases of seconds that a median still sees (the log shows the
        // medians too). A rate is its operations' work over the sum of
        // each operation's fastest time; `wall_s` is the sum of the
        // fastest times of the parts an iteration is made of, or the
        // fastest whole iteration when a workload names no parts.
        let mut ops: BTreeMap<&'static str, BTreeMap<&str, (f64, Vec<f64>)>> = BTreeMap::new();
        for it in &self.iters {
            for (metric, op, secs, work) in &it.samples {
                ops.entry(metric)
                    .or_default()
                    .entry(op)
                    .or_insert((*work, Vec::new()))
                    .1
                    .push(*secs);
            }
        }
        let fastest_iter = fastest(&self.walls);
        run.e2e.insert("wall_s", fastest_iter);
        for (metric, ops) in ops {
            let work: f64 = ops.values().map(|o| o.0).sum();
            let best: f64 = ops.values().map(|o| fastest(&o.1)).sum();
            let typical: f64 = ops.values().map(|o| median(&o.1)).sum();
            if metric == "wall_s" {
                run.e2e.insert(metric, best);
                run.notes
                    .push(format!("wall_s: {typical:.6} from the median of each part"));
            } else {
                run.e2e.insert(metric, work / best);
                run.notes.push(format!(
                    "{metric}: {:.6} from the median of each operation",
                    work / typical
                ));
            }
        }
        run.e2e.insert(
            "tasks_per_s",
            self.iters[0].tasks as f64 / run.e2e["wall_s"],
        );
        run.e2e.insert("setup_s", setup_s);
        run.e2e.insert("peak_heap_mb", self.peak_heap_mb);
        for &(k, v) in &self.iters[0].sim_metrics {
            if crate::metrics::is_e2e(k) {
                run.e2e.insert(k, v);
            } else {
                run.layers.insert(k, v);
            }
        }
        let covered: f64 = self.layers.values().sum();
        let wall_mean = self.walls.iter().sum::<f64>() / self.walls.len() as f64;
        if !self.layers.is_empty() {
            // Conservation: layer self times are disjoint slices of the
            // iteration, so they can never exceed it.
            run.tally.op(if covered <= wall_mean * (1.0 + 1e-9) {
                Ok(())
            } else {
                Err(format!(
                    "layer self times {covered:.6} s exceed wall {wall_mean:.6} s"
                ))
            });
            run.layers
                .insert("bench.unattributed_s", wall_mean - covered);
        }
        run.layers.extend(self.layers);
        run.notes.push(format!(
            "timed: {} iterations, fastest {fastest_iter:.4} s, median {:.4} s, {} (n={})",
            self.walls.len(),
            median(&self.walls),
            tail_label(&self.walls),
            self.walls.len()
        ));
        run
    }
}

/// The smallest of `v`.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median (mean of the middle pair for even counts).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` at `q` in `[0, 1]`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Exact rank-`ceil(q·n)` percentile of simulated samples; NaN (which
/// the metric checks count as a failure) when every sample was lost.
pub fn rank_percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it, rendered for the log.
pub fn tail_label(v: &[f64]) -> String {
    let n = v.len() as f64;
    let tails = [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90"), (0.5, "p50")];
    match tails
        .into_iter()
        .find(|(q, _)| (n * (1.0 - q)).round() >= 10.0)
    {
        Some((q, label)) => format!("{label} {:.4} s", quantile(v, q)),
        None => format!(
            "max {:.4} s (too few samples for a tail percentile)",
            quantile(v, 1.0)
        ),
    }
}

/// Runs `f`, turning a panic into an error: the benchmark counts
/// failures, it never dies of one.
pub fn guard<T>(what: &str, f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-text panic".into());
        Err(format!("{what} panicked: {msg}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_ranks_do_not() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(rank_percentile(&v, 0.5), 2.0);
        assert_eq!(rank_percentile(&v, 0.99), 4.0);
        assert!(rank_percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail_label(&v).starts_with("p90"));
        assert!(tail_label(&v[..5]).starts_with("max"));
    }

    #[test]
    fn guard_turns_panics_into_errors() {
        let r: Result<(), String> = guard("x", || panic!("boom"));
        assert!(r.unwrap_err().contains("boom"));
    }
}
