//! `paper_sim`: the Fig. 3/Fig. 10 method on both clocks.
//!
//! Java, Kryo and Skyway narrate every round trip op by op into
//! `sim::Cpu`; the Cereal paper and vanilla configurations run on the
//! accelerator model. Shapes sit on both sides of the modelled 11 MB
//! LLC; the one past it is simulated once per run, outside the timed
//! iterations. Here the model, not the serializers, takes most host
//! time.

use std::collections::BTreeMap;

use cereal::CerealConfig;
use serializers::{JavaSd, Kryo, NullSink, Serializer, Skyway};
use workloads::{MicroBench, Scale};

use crate::clock::Clock;
use crate::graphs::{self, Graph};
use crate::harness::{self, guard, rank_percentile, Ctx, Iter, Run, Tally};
use crate::{metrics, narrate};

/// A binary tree past the modelled LLC: 262,142 nodes of 48 B, 12 MB.
const BIG_TREE_NODES: usize = 262_142;

/// Passes over the small shapes per iteration: each takes about a
/// millisecond, so repeating them gives their fastest time more samples.
const SMALL_REPEAT: usize = 4;

/// A narrated software serializer and its span / metric names.
struct Sw {
    ser: Box<dyn Serializer>,
    spans: (&'static str, &'static str),
    twins: (&'static str, &'static str),
    sim_ns: (&'static str, &'static str),
}

macro_rules! sw {
    ($key:literal, $ser:expr) => {
        Sw {
            ser: Box::new($ser),
            spans: (
                concat!("sim.", $key, ".ser_s"),
                concat!("sim.", $key, ".de_s"),
            ),
            twins: (
                concat!("serializers.", $key, ".ser_s"),
                concat!("serializers.", $key, ".de_s"),
            ),
            sim_ns: (
                concat!("sim.", $key, ".ser_sim_ns"),
                concat!("sim.", $key, ".de_sim_ns"),
            ),
        }
    };
}

/// An accelerator configuration and its span / metric names.
struct Acc {
    cfg: CerealConfig,
    spans: (&'static str, &'static str),
    sim_ns: (&'static str, &'static str),
}

macro_rules! acc {
    ($key:literal, $cfg:expr) => {
        Acc {
            cfg: $cfg,
            spans: (
                concat!("core.accel.", $key, ".ser_s"),
                concat!("core.accel.", $key, ".de_s"),
            ),
            sim_ns: (
                concat!("core.accel.", $key, ".ser_sim_ns"),
                concat!("core.accel.", $key, ".de_sim_ns"),
            ),
        }
    };
}

struct State {
    sws: Vec<Sw>,
    accs: Vec<Acc>,
    /// (graph, is it in the small mix): the shapes timed every iteration.
    graphs: Vec<(Graph, bool)>,
    /// The simulated values of the shape past the modelled LLC, from
    /// its one pass after set-up (see [`untimed_pass`]).
    untimed: Totals,
}

/// Set-up's result: the timed state and the shape past the LLC.
struct Built {
    state: State,
    past_llc: Graph,
}

fn build(ctx: &Ctx) -> Built {
    let seed = ctx.seed;
    let (graphs, past_llc) = ctx.clock.span("heap.build_s", || {
        let mut small = graphs::tiny_shapes(seed);
        small.push(graphs::media());
        let large = vec![
            graphs::micro(MicroBench::TreeNarrow, Scale::Scaled, seed),
            graphs::micro(MicroBench::GraphSparse, Scale::Scaled, seed),
            graphs::micro(MicroBench::GraphDense, Scale::Scaled, seed),
        ];
        let graphs = small
            .into_iter()
            .map(|g| (g, true))
            .chain(large.into_iter().map(|g| (g, false)))
            .collect();
        let past_llc =
            graphs::micro_sized(MicroBench::TreeNarrow, BIG_TREE_NODES, 2, seed, "past-llc");
        (graphs, past_llc)
    });
    Built {
        state: state(graphs),
        past_llc,
    }
}

fn state(graphs: Vec<(Graph, bool)>) -> State {
    State {
        sws: vec![
            sw!("java", JavaSd::new()),
            sw!("kryo", Kryo::new()),
            sw!("skyway", Skyway::new()),
        ],
        accs: vec![
            acc!("paper", CerealConfig::paper()),
            acc!("vanilla", CerealConfig::vanilla()),
        ],
        graphs,
        untimed: Totals::default(),
    }
}

/// A copy of `ctx` whose clock records nothing.
fn quiet(ctx: &Ctx) -> Ctx {
    Ctx {
        seed: ctx.seed,
        seconds: ctx.seconds,
        threads: ctx.threads,
        clock: Clock::new(false),
    }
}

/// This workload's method over another workload's small graphs, with
/// tracing off: the simulated metrics and `sim_uops_per_s` of a
/// workload that does no simulated work itself.
pub struct Narrated {
    ctx: Ctx,
    st: State,
}

impl Narrated {
    pub fn new(ctx: &Ctx, small: Vec<Graph>) -> Narrated {
        Narrated {
            ctx: quiet(ctx),
            st: state(small.into_iter().map(|g| (g, true)).collect()),
        }
    }

    /// One pass over the graphs into `it`: its checks, its simulated
    /// values, its end-to-end simulated metrics and its
    /// `sim_uops_per_s` samples (its other host timings are dropped).
    pub fn pass(&mut self, it: &mut Iter) {
        let n = iterate(&self.ctx, &mut self.st);
        it.tally.absorb(n.tally);
        it.sim.extend(n.sim);
        it.sim_metrics
            .extend(n.sim_metrics.into_iter().filter(|m| metrics::is_e2e(m.0)));
        it.samples
            .extend(n.samples.into_iter().filter(|s| s.0 == "sim_uops_per_s"));
    }
}

/// The functional twin of a narrated round trip (`NullSink`), timed so
/// the traced run can subtract it: `sim.cpu.self_s`.
fn twin(ctx: &Ctx, s: &Sw, g: &mut Graph) -> Result<(), String> {
    let bytes = ctx.clock.span(s.twins.0, || {
        s.ser.serialize(&mut g.heap, &g.reg, g.root, &mut NullSink)
    });
    let bytes = bytes.map_err(|e| format!("{} twin ser: {e}", s.ser.name()))?;
    ctx.clock
        .span(s.twins.1, || {
            let mut dst = narrate::dst_heap(&g.heap);
            s.ser
                .deserialize(&bytes, &g.reg, &mut dst, &mut NullSink)
                .map(|_| ())
        })
        .map_err(|e| format!("{} twin de: {e}", s.ser.name()))
}

/// Simulated totals by per-layer metric name.
type SimTotals = BTreeMap<&'static str, f64>;

/// The simulated results of a set of round trips, before they become
/// metrics.
#[derive(Clone, Default)]
struct Totals {
    sim: SimTotals,
    uops: u64,
    cycles: f64,
    /// Σ LLC miss rate × micro-ops.
    llc_w: f64,
    dram: u64,
    /// `bw_util` of each Cereal paper round trip.
    bw: Vec<f64>,
    /// Simulated ser+de time of each request.
    jobs: Vec<f64>,
    /// Every per-request simulated value, for the determinism checks.
    values: Vec<(String, u64)>,
}

/// Every configuration's round trips of `g` into `it` (checks, host
/// samples, `wall_s` parts) and `tot` (simulated values), [`SMALL_REPEAT`]
/// times for a small graph.
fn trips(
    ctx: &Ctx,
    (sws, accs): (&[Sw], &[Acc]),
    g: &mut Graph,
    small: bool,
    it: &mut Iter,
    tot: &mut Totals,
) {
    let reps = if small { SMALL_REPEAT } else { 1 };
    for rep in 0..reps {
        for s in sws {
            let op = format!("{}/{}", s.spans.0, g.name);
            let r = it.part(format!("{op}/{rep}"), |it| {
                let r = guard("narrated round trip", || {
                    narrate::software(&ctx.clock, s.ser.as_ref(), g, s.spans)
                });
                if ctx.clock.on() {
                    it.tally.op(guard("functional twin", || twin(ctx, s, g)));
                }
                r
            });
            let Some(t) = it.tally.op(r) else { continue };
            it.tasks += 1;
            it.sample("ser_MBps", op.clone(), t.ser_s, t.bytes as f64 / 1e6);
            it.sample("de_MBps", op.clone(), t.de_s, t.bytes as f64 / 1e6);
            let uops = t.ser.uops + t.de.uops;
            it.sample("sim_uops_per_s", op.clone(), t.ser_s + t.de_s, uops as f64);
            if small {
                it.sample("small_rt_per_s", op.clone(), t.ser_s + t.de_s, 1.0);
            }
            if rep > 0 {
                continue; // a repetition's simulated values are the first's
            }
            *tot.sim.entry(s.sim_ns.0).or_default() += t.ser.ns;
            *tot.sim.entry(s.sim_ns.1).or_default() += t.de.ns;
            for rep in [&t.ser, &t.de] {
                tot.cycles += rep.cycles;
                tot.llc_w += rep.llc_miss_rate * rep.uops as f64;
                tot.dram += rep.dram_bytes;
            }
            tot.uops += uops;
            tot.jobs.push(t.ser.ns + t.de.ns);
            tot.values.push((format!("{op}/uops"), uops));
            tot.values.push((format!("{op}/ser_ns"), t.ser.ns.to_bits()));
            tot.values.push((format!("{op}/de_ns"), t.de.ns.to_bits()));
        }
        for a in accs {
            let op = format!("{}/{}", a.spans.0, g.name);
            let r = it.part(format!("{op}/{rep}"), |_| {
                guard("accelerator round trip", || {
                    narrate::accel(&ctx.clock, a.cfg, g, a.spans)
                })
            });
            let Some(t) = it.tally.op(r) else { continue };
            it.tasks += 1;
            it.sample("ser_MBps", op.clone(), t.ser_s, t.bytes as f64 / 1e6);
            it.sample("de_MBps", op.clone(), t.de_s, t.bytes as f64 / 1e6);
            if small {
                it.sample("small_rt_per_s", op.clone(), t.ser_s + t.de_s, 1.0);
            }
            if rep > 0 {
                continue;
            }
            *tot.sim.entry(a.sim_ns.0).or_default() += t.ser_ns;
            *tot.sim.entry(a.sim_ns.1).or_default() += t.de_ns;
            if a.spans.0 == "core.accel.paper.ser_s" {
                tot.bw.push(t.bw_util);
            }
            tot.jobs.push(t.ser_ns + t.de_ns);
            tot.values.push((format!("{op}/ser_ns"), t.ser_ns.to_bits()));
            tot.values.push((format!("{op}/de_ns"), t.de_ns.to_bits()));
        }
    }
}

/// The shape past the modelled LLC, once through every configuration
/// with an untraced clock: its simulated values only. Timed every
/// iteration it would take four fifths of the iteration's host time,
/// leave room for only a few iterations in a run, and bring in a
/// memory-bound host time that moves with other tenants' use of the
/// shared cache.
fn untimed_pass(ctx: &Ctx, st: &State, mut g: Graph) -> (Tally, Totals) {
    let mut it = Iter::default();
    let mut tot = Totals::default();
    trips(&quiet(ctx), (&st.sws, &st.accs), &mut g, false, &mut it, &mut tot);
    (it.tally, tot)
}

fn iterate(ctx: &Ctx, st: &mut State) -> Iter {
    let mut it = Iter::default();
    let mut tot = st.untimed.clone();
    for (g, small) in st.graphs.iter_mut() {
        trips(ctx, (&st.sws, &st.accs), g, *small, &mut it, &mut tot);
    }
    let Totals {
        mut sim,
        uops,
        cycles,
        llc_w,
        dram,
        bw,
        jobs,
        values,
    } = tot;
    it.sim.extend(values);
    // Zero when every accelerator trip failed: the metric check counts it.
    let paper = |k| sim.get(k).copied().unwrap_or(0.0);
    let accel = paper("core.accel.paper.ser_sim_ns") + paper("core.accel.paper.de_sim_ns");
    sim.insert("accel_sd_sim_ns", accel);
    sim.insert("makespan_sim_ns", jobs.iter().sum());
    sim.insert("job_p50_sim_ns", rank_percentile(&jobs, 0.5));
    sim.insert("job_p99_sim_ns", rank_percentile(&jobs, 0.99));
    sim.insert("sim.cpu.uops", uops as f64);
    sim.insert("sim.cpu.ipc", uops as f64 / cycles);
    sim.insert("sim.cpu.llc_miss_rate", llc_w / uops as f64);
    sim.insert("sim.cpu.dram_bytes", dram as f64);
    sim.insert(
        "core.accel.bw_util",
        bw.iter().sum::<f64>() / bw.len().max(1) as f64,
    );
    for (k, v) in sim {
        it.sim_metric(k, v);
    }
    it
}

pub fn run(ctx: &Ctx) -> Run {
    let setup = harness::setup(ctx, harness::SETUP_REPS, || build(ctx));
    let Built {
        mut state,
        past_llc,
    } = setup.value;
    let (untimed_tally, untimed) = untimed_pass(ctx, &state, past_llc);
    state.untimed = untimed;
    let timed = harness::timed(ctx, &mut state, iterate);
    let mut run = timed.into_run(setup.setup_s);
    run.tally.absorb(untimed_tally);
    for (k, v) in setup.layers {
        run.layers.entry(k).or_insert(v);
    }
    if ctx.clock.on() {
        // The model's own host cost: narrated calls minus their
        // functional twins.
        let sum = |prefix: &str| -> f64 {
            ["java", "kryo", "skyway"]
                .iter()
                .flat_map(|k| [format!("{prefix}.{k}.ser_s"), format!("{prefix}.{k}.de_s")])
                .map(|n| run.layers.get(n.as_str()).copied().unwrap_or(0.0))
                .sum()
        };
        let self_s = sum("sim") - sum("serializers");
        run.layers.insert("sim.cpu.self_s", self_s);
    }
    run
}
