//! `shuffle_store`: the write path (serialize, spill) beside the read
//! path (reduce, cached re-read, disk fetch vs recompute).
//!
//! Each iteration shuffles one dataset through Kryo, Archive and Cereal
//! with `shuffle::run_backend` — map executors with map-side spill and
//! CRC frames, reduce executors, the fabric timeline — on `threads`
//! worker threads, then runs two iterative cached-RDD jobs over a memory
//! region smaller than the dataset with Zipf access: one spilling
//! evictions to disk, one dropping them for lineage recompute.
//!
//! `run_backend` is one call, so each shuffle runs a second time in
//! stages ([`staged`]): the public map executor, reduce executor and
//! timeline composition `run_backend` is made of, each timed on its own.
//! The staged shuffle must reproduce `run_backend`'s report and
//! aggregate exactly; it supplies the map (serialize) and reduce
//! (deserialize) stage times and each batch's simulated time.

use std::collections::BTreeMap;
use std::hint::black_box;

use sdformat::frame;
use shuffle::{
    compose_sunk, fold_checksum, run_backend_sunk, run_mapper_sunk, run_reducer_sunk, Backend,
    BackendReport, FaultTotals, MapOutcome, Message, ShuffleConfig,
};
use sim::DiskConfig;
use store::{build_part, par_map, run_rdd_sunk, AccessPattern, MissPolicy, RddConfig};
use telemetry::{NoopSink, Recorder, Sink};
use workloads::{AggConfig, KeySkew};

use crate::clock::Clock;
use crate::harness::{self, guard, rank_percentile, Ctx, Iter, Run};

const BACKENDS: [Backend; 3] = [Backend::Kryo, Backend::Archive, Backend::Cereal];

pub type Fold = BTreeMap<u64, (u64, f64)>;

struct State {
    cfg: ShuffleConfig,
    rdds: Vec<RddConfig>,
    /// The shuffle dataset's independently computed aggregate.
    expected: Fold,
}

fn build(ctx: &Ctx) -> State {
    let cfg = ShuffleConfig {
        seed: ctx.seed,
        // Half of `full()`'s records: each iteration shuffles the
        // dataset twice (whole and staged).
        records_per_mapper: 1024,
        spill_bytes: 32 << 10,
        checksum: true,
        jobs: ctx.threads,
        ..ShuffleConfig::full()
    };
    let rdd = |policy| RddConfig {
        agg: AggConfig {
            mappers: 16,
            records_per_mapper: 512,
            distinct_keys: 256,
            seed: ctx.seed ^ 0x57_0AE5,
            skew: KeySkew::Uniform,
        },
        backend: Backend::Kryo,
        memory_fraction: 0.5,
        passes: 4,
        policy,
        disk: DiskConfig::ssd(),
        access: AccessPattern::Zipf(0.99),
        jobs: ctx.threads,
        checksum: true,
        fault: None,
    };
    let expected = ctx.clock.span("heap.build_s", || cfg.agg().expected_fold());
    let rdds = vec![rdd(MissPolicy::Fetch), rdd(MissPolicy::Recompute)];
    // Warm-up: one untimed executor per backend and per cached dataset
    // (registries, plan caches, class tables).
    for b in BACKENDS {
        let _ = black_box(shuffle::run_mapper(&cfg, b, 0).map(|o| o.messages.len()));
    }
    for rc in &rdds {
        black_box(build_part(rc, 0).bytes.len());
    }
    State {
        cfg,
        rdds,
        expected,
    }
}

/// A shuffle's simulated totals (one backend's, or summed).
#[derive(Clone, Copy, Default, PartialEq)]
pub struct Stats {
    pub messages: u64,
    pub wire_bytes: u64,
    ser_busy_ns: f64,
    de_busy_ns: f64,
    makespan_ns: f64,
    backpressure_blocks: u64,
    backpressure_wait_ns: f64,
    spill_bytes: u64,
}

impl Stats {
    fn of(r: &BackendReport) -> Stats {
        Stats {
            messages: r.messages,
            wire_bytes: r.wire_bytes,
            ser_busy_ns: r.ser_busy_ns,
            de_busy_ns: r.de_busy_ns,
            makespan_ns: r.net.makespan_ns,
            backpressure_blocks: r.net.backpressure_blocks,
            backpressure_wait_ns: r.net.backpressure_wait_ns,
            spill_bytes: r.spill.as_ref().map_or(0, |s| s.spilled_bytes),
        }
    }

    fn add(&mut self, o: &Stats) {
        self.messages += o.messages;
        self.wire_bytes += o.wire_bytes;
        self.ser_busy_ns += o.ser_busy_ns;
        self.de_busy_ns += o.de_busy_ns;
        self.makespan_ns += o.makespan_ns;
        self.backpressure_blocks += o.backpressure_blocks;
        self.backpressure_wait_ns += o.backpressure_wait_ns;
        self.spill_bytes += o.spill_bytes;
    }

    fn fingerprint(&self, name: &str, it: &mut Iter) {
        it.sim_u64(format!("{name}/messages"), self.messages);
        it.sim_u64(format!("{name}/wire_bytes"), self.wire_bytes);
        it.sim_f64(format!("{name}/ser_busy_ns"), self.ser_busy_ns);
        it.sim_f64(format!("{name}/de_busy_ns"), self.de_busy_ns);
        it.sim_f64(format!("{name}/makespan_ns"), self.makespan_ns);
        it.sim_u64(
            format!("{name}/backpressure_blocks"),
            self.backpressure_blocks,
        );
        it.sim_f64(
            format!("{name}/backpressure_wait_ns"),
            self.backpressure_wait_ns,
        );
        it.sim_u64(format!("{name}/spill_bytes"), self.spill_bytes);
    }
}

/// One backend through `shuffle::run_backend_sunk`.
fn whole<S: Sink>(
    clock: &Clock,
    cfg: &ShuffleConfig,
    b: Backend,
    sink: &mut S,
) -> Result<(Stats, Fold), String> {
    let run = clock.span("shuffle.run_backend_s", || run_backend_sunk(cfg, b, sink));
    let run = run.map_err(|e| format!("{} run_backend: {e}", b.name()))?;
    Ok((Stats::of(&run.report), run.fold))
}

/// What a staged shuffle produced.
pub struct Staged {
    pub stats: Stats,
    pub fold: Fold,
    /// Simulated ser+de ns of each batch.
    pub per_msg_sim_ns: Vec<f64>,
    /// Host seconds of the map stage (serialize, spill).
    pub map_s: f64,
    /// Host seconds of the reduce stage (deserialize, fold).
    pub reduce_s: f64,
}

/// One fault-free backend through the stages `run_backend` is made of —
/// map fan-out, per-reducer delivery in `(src, seq)` order, reduce
/// fan-out, timeline composition, fold merge — with every executor's
/// telemetry absorbed into `sink`. With the clock on, every CRC frame is
/// also verified.
pub fn staged<S: Sink>(
    clock: &Clock,
    cfg: &ShuffleConfig,
    b: Backend,
    sink: &mut S,
) -> Result<Staged, String> {
    let (maps, map_s) = clock.timed("shuffle.map_s", || {
        par_map(cfg.jobs, cfg.mappers, |m| {
            let mut child = S::default();
            run_mapper_sunk(cfg, b, m, &mut child).map(|o| (o, child))
        })
    });
    let mut outs: Vec<MapOutcome> = Vec::with_capacity(cfg.mappers);
    for r in maps {
        let (o, child) = r.map_err(|e| format!("{} mapper: {e}", b.name()))?;
        sink.absorb(child);
        outs.push(o);
    }
    let all: Vec<&Message> = outs.iter().flat_map(|o| o.messages.iter()).collect();
    let mut per_reducer: Vec<Vec<usize>> = vec![Vec::new(); cfg.reducers];
    for (i, m) in all.iter().enumerate() {
        per_reducer[m.dst].push(i);
    }
    let reg = cfg.agg().registry();
    let cap = cfg.agg().heap_capacity();
    let (reds, reduce_s) = clock.timed("shuffle.reduce_s", || {
        par_map(cfg.jobs, cfg.reducers, |r| {
            let msgs: Vec<&Message> = per_reducer[r].iter().map(|&i| all[i]).collect();
            let mut child = S::default();
            run_reducer_sunk(b, &reg, cap, &msgs, &[], cfg.checksum, r, &mut child)
                .map(|o| (o, child))
        })
    });
    let mut de_ns = vec![0.0f64; all.len()];
    let mut fold = Fold::new();
    let mut de_busy = 0.0;
    for (r, red) in reds.into_iter().enumerate() {
        let (o, child) = red.map_err(|e| format!("{} reducer: {e}", b.name()))?;
        sink.absorb(child);
        for (k, &i) in per_reducer[r].iter().enumerate() {
            de_ns[i] = o.de_ns[k];
        }
        de_busy += o.de_busy_ns;
        for (k, v) in o.fold {
            if fold.insert(k, v).is_some() {
                return Err(format!("{}: key {k} reduced twice", b.name()));
            }
        }
    }
    let net = clock.span("shuffle.compose_s", || {
        compose_sunk(cfg, &all, &de_ns, &[], &mut FaultTotals::default(), sink)
    });
    if clock.on()
        && !clock.span("format.frame.verify_s", || {
            all.iter().all(|m| frame::verify(&m.bytes).is_ok())
        })
    {
        return Err(format!("{}: a CRC frame failed", b.name()));
    }
    let stats = Stats {
        messages: all.len() as u64,
        wire_bytes: all.iter().map(|m| m.bytes.len() as u64).sum(),
        ser_busy_ns: outs.iter().map(|o| o.ser_busy_ns).sum(),
        de_busy_ns: de_busy,
        makespan_ns: net.makespan_ns,
        backpressure_blocks: net.backpressure_blocks,
        backpressure_wait_ns: net.backpressure_wait_ns,
        spill_bytes: outs
            .iter()
            .filter_map(|o| o.spill.as_ref())
            .map(|s| s.spilled_bytes)
            .sum(),
    };
    let per_msg_sim_ns = all.iter().zip(&de_ns).map(|(m, d)| m.ser_ns + d).collect();
    Ok(Staged {
        stats,
        fold,
        per_msg_sim_ns,
        map_s,
        reduce_s,
    })
}

/// One full pass: three shuffles (each whole, then staged) and two
/// cached-RDD jobs. `sink` receives the whole shuffles' and the RDD
/// jobs' telemetry.
fn pass<S: Sink>(ctx: &Ctx, st: &State, sink: &mut S) -> Iter {
    let mut it = Iter::default();
    let mut jobs = Vec::new();
    let mut first_fold: Option<u64> = None;
    let mut total = Stats::default();
    let mut accel = 0.0;
    for b in BACKENDS {
        let r = it.part(b.name(), |_| {
            guard("shuffle", || whole(&ctx.clock, &st.cfg, b, &mut *sink))
        });
        let Some((stats, fold)) = it.tally.op(r) else {
            continue;
        };
        it.tasks += (st.cfg.mappers + st.cfg.reducers) as u64;
        let digest = fold_checksum(&fold);
        // Every backend must compute the dataset's exact aggregate.
        it.tally.op(if fold == st.expected {
            Ok(())
        } else {
            Err(format!("{}: fold differs from the dataset", b.name()))
        });
        it.tally.op(match first_fold {
            Some(d) if d != digest => Err(format!(
                "{}: fold checksum differs across backends",
                b.name()
            )),
            _ => Ok(()),
        });
        first_fold.get_or_insert(digest);
        it.sim_u64(format!("{}/fold_checksum", b.name()), digest);
        stats.fingerprint(b.name(), &mut it);
        total.add(&stats);
        if b == Backend::Cereal {
            accel = stats.ser_busy_ns + stats.de_busy_ns;
        }

        let r = guard("staged shuffle", || {
            staged(&ctx.clock, &st.cfg, b, &mut NoopSink)
        });
        let Some(s) = it.tally.op(r) else { continue };
        it.tally.op(if s.stats == stats && s.fold == fold {
            Ok(())
        } else {
            Err(format!(
                "{}: staged shuffle differs from run_backend",
                b.name()
            ))
        });
        let mb = stats.wire_bytes as f64 / 1e6;
        it.sample("ser_MBps", b.name(), s.map_s, mb);
        it.sample("de_MBps", b.name(), s.reduce_s, mb);
        it.sample(
            "small_rt_per_s",
            b.name(),
            s.map_s + s.reduce_s,
            stats.messages as f64,
        );
        jobs.extend(s.per_msg_sim_ns);
    }
    let mut rdd_ns = 0.0;
    let (mut hits, mut accesses, mut evictions, mut fetches, mut recomputes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut disk_read, mut seeks) = (0u64, 0u64);
    for rc in &st.rdds {
        let r = it.part(rc.policy.name(), |it| {
            if ctx.clock.on() {
                let r = guard("build_part", || {
                    let parts = ctx.clock.span("store.build_part_s", || {
                        par_map(rc.jobs, rc.agg.mappers, |m| build_part(rc, m))
                    });
                    Ok(parts.len())
                });
                it.tally.op(r);
            }
            guard("rdd", || {
                ctx.clock
                    .span("store.rdd_s", || run_rdd_sunk(rc, &mut *sink))
                    .map_err(|e| format!("rdd {}: {e}", rc.policy.name()))
            })
        });
        let Some(o) = it.tally.op(r) else { continue };
        it.tally.op(if o.fold_ok {
            Ok(())
        } else {
            Err(format!(
                "rdd {}: fold differs from the dataset",
                rc.policy.name()
            ))
        });
        let p = rc.policy.name();
        it.sim_f64(format!("rdd/{p}/total_ns"), o.total_ns);
        it.sim_u64(format!("rdd/{p}/hits"), o.store.hits);
        it.sim_u64(format!("rdd/{p}/evictions"), o.store.evictions);
        it.sim_u64(format!("rdd/{p}/disk_fetches"), o.store.disk_fetches);
        it.sim_u64(format!("rdd/{p}/recomputes"), o.store.recomputes);
        it.sim_u64(format!("rdd/{p}/disk_read_bytes"), o.disk_read_bytes);
        it.sim_u64(format!("rdd/{p}/disk_seeks"), o.disk_seeks);
        rdd_ns += o.total_ns;
        hits += o.store.hits;
        accesses += o
            .passes
            .iter()
            .map(|s| s.hits + s.disk_fetches + s.recomputes)
            .sum::<u64>();
        evictions += o.store.evictions;
        fetches += o.store.disk_fetches;
        recomputes += o.store.recomputes;
        disk_read += o.disk_read_bytes;
        seeks += o.disk_seeks;
        it.tasks += (rc.agg.mappers * (1 + rc.passes)) as u64;
    }
    let metrics = [
        ("accel_sd_sim_ns", accel),
        ("makespan_sim_ns", total.makespan_ns + rdd_ns),
        ("job_p50_sim_ns", rank_percentile(&jobs, 0.5)),
        ("job_p99_sim_ns", rank_percentile(&jobs, 0.99)),
        ("shuffle.messages", total.messages as f64),
        ("shuffle.wire_bytes", total.wire_bytes as f64),
        ("shuffle.ser_busy_sim_ns", total.ser_busy_ns),
        ("shuffle.de_busy_sim_ns", total.de_busy_ns),
        (
            "shuffle.backpressure_blocks",
            total.backpressure_blocks as f64,
        ),
        (
            "shuffle.backpressure_wait_sim_ns",
            total.backpressure_wait_ns,
        ),
        ("shuffle.spill_bytes", total.spill_bytes as f64),
        ("store.hit_rate", hits as f64 / accesses.max(1) as f64),
        ("store.evictions", evictions as f64),
        ("store.disk_fetches", fetches as f64),
        ("store.recomputes", recomputes as f64),
        ("sim.disk.read_bytes", disk_read as f64),
        ("sim.disk.seeks", seeks as f64),
    ];
    for (k, v) in metrics {
        it.sim_metric(k, v);
    }
    it
}

pub fn run(ctx: &Ctx) -> Run {
    let setup = harness::setup(ctx, harness::SETUP_REPS, || build(ctx));
    let mut st = setup.value;
    let timed = harness::timed(ctx, &mut st, |ctx, st| pass(ctx, st, &mut NoopSink));
    let mut run = timed.into_run(setup.setup_s);
    for (k, v) in setup.layers {
        run.layers.entry(k).or_insert(v);
    }
    // The traced twin: the same pass into a telemetry recorder must
    // reproduce every simulated value, and it counts the modelled CPU's
    // micro-ops (`cpu.uops`, booked per software request).
    let mut rec = Recorder::new();
    let traced = pass(ctx, &st, &mut rec);
    ctx.clock.drain();
    let sim = run.sim.clone();
    run.same_sim("traced pass", &sim, &traced.sim);
    run.tally.absorb(traced.tally);
    let uops = rec.metrics.counter("cpu.uops");
    run.e2e
        .insert("sim_uops_per_s", uops as f64 / run.e2e["wall_s"]);
    run.layers.insert("sim.cpu.uops", uops as f64);
    run.sim.push(("cpu.uops".into(), uops));
    run
}
