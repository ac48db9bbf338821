//! The shuffle service top level: fan the executors out over threads,
//! stitch their simulated clocks into one deterministic report.

use crate::exec::{run_mapper_sunk, GcTotals, MapOutcome, Message, SpillTotals};
use crate::faults::{death_scope, plan_message, FaultTotals, MsgPlan, ShuffleError};
use crate::reduce::{run_reducer_sunk, ReduceOutcome};
use crate::report::{fold_checksum, BackendReport, ShuffleReport};
use crate::timeline::compose_sunk;
use crate::ShuffleConfig;
use sim::fault::{interior, stream};
use store::{par_map, Backend};
use telemetry::ids::{MAPPER_PID_BASE, T_MAIN};
use telemetry::{EntityId, Instant, NoopSink, Sink};
use workloads::Fold;

/// One backend's full run: the report plus the merged aggregate (kept
/// out of the report; tests check it against the dataset's expected
/// fold).
#[derive(Debug)]
pub struct BackendRun {
    /// The measurements.
    pub report: BackendReport,
    /// The merged key → `(count, sum)` aggregate over all reducers.
    pub fold: Fold,
}

/// Runs one backend through the whole shuffle: map fan-out (with
/// Spark-style re-execution of mappers whose executor dies mid-stage),
/// reduce fan-out, timeline composition.
///
/// Each executor traces into its own `S::default()` child sink on its
/// worker thread; the children are absorbed into `sink` in executor
/// order, so the merged telemetry is byte-identical for any `jobs`
/// count — exactly the report's determinism argument, applied to the
/// trace. A mapper death shifts its child's whole timeline by the lost
/// work plus the detection timeout (the rerun's timeline) and leaves a
/// `mapper.death` instant at the moment the first execution died. The
/// returned run is identical for any sink; callers that do not trace
/// pass [`NoopSink`].
///
/// # Errors
/// [`ShuffleError::InvalidConfig`] when [`ShuffleConfig::validate`]
/// rejects `cfg`; [`ShuffleError::ChecksumRequired`] when wire
/// corruption is injected without checksum frames; otherwise whatever
/// a stage surfaced (undetected corruption, decode failures,
/// spill-store faults, duplicate keys).
pub fn run_backend_sunk<S: Sink>(
    cfg: &ShuffleConfig,
    backend: Backend,
    sink: &mut S,
) -> Result<BackendRun, ShuffleError> {
    cfg.validate()?;
    if !cfg.checksum && cfg.faults.is_some_and(|f| f.wire_corruption > 0.0) {
        return Err(ShuffleError::ChecksumRequired);
    }

    // Map stage: one self-contained executor per mapper, on real
    // threads. Results land in mapper order regardless of scheduling.
    // A mapper whose death draw fires is re-executed from scratch: the
    // rerun reproduces the identical messages (the executor is
    // deterministic), shifted by the work lost at death plus the
    // scheduler's detection timeout.
    let maps: Vec<Result<(MapOutcome, S), ShuffleError>> =
        par_map(cfg.jobs, cfg.mappers, |m| {
            let mut child = S::default();
            let mut outcome = run_mapper_sunk(cfg, backend, m, &mut child)?;
            if let Some(fc) = cfg.faults {
                let mut rng = stream(fc.seed, death_scope(m));
                if let Some(frac) = interior(&mut rng, fc.mapper_death) {
                    let died_at = frac * outcome.clock_ns;
                    let death_ns = died_at + fc.timeout_ns;
                    for msg in &mut outcome.messages {
                        msg.ser_done_ns += death_ns;
                    }
                    outcome.clock_ns += death_ns;
                    outcome.faults.mapper_deaths += 1;
                    outcome.faults.reexec_ns += death_ns;
                    outcome.faults.recovery_ns += death_ns;
                    if S::ENABLED {
                        // The child's events now describe the rerun;
                        // mark when the first execution was lost.
                        child.shift(death_ns);
                        child.count("shuffle.mapper_deaths", 1);
                        child.instant(Instant {
                            entity: EntityId { pid: MAPPER_PID_BASE + m as u32, tid: T_MAIN },
                            name: "mapper.death",
                            t_ns: died_at,
                            attrs: vec![("timeout_ns", fc.timeout_ns.into())],
                        });
                    }
                }
            }
            Ok((outcome, child))
        });
    let mut absorbed = Vec::with_capacity(cfg.mappers);
    for r in maps {
        let (outcome, child) = r?;
        sink.absorb(child);
        absorbed.push(outcome);
    }
    let maps: Vec<MapOutcome> = absorbed;

    // Global message list in (mapper, flush) order; per reducer this is
    // ascending (src, seq) — the deterministic delivery order.
    let all: Vec<&Message> = maps.iter().flat_map(|o| o.messages.iter()).collect();
    let mut per_reducer: Vec<Vec<usize>> = vec![Vec::new(); cfg.reducers];
    for (i, msg) in all.iter().enumerate() {
        per_reducer[msg.dst].push(i);
    }

    // Wire-fault plans, one per message, drawn from streams scoped by
    // the global message index — the reduce stage (detection) and the
    // timeline (recovery timing) replay the same schedule.
    let plans: Vec<MsgPlan> = match &cfg.faults {
        Some(fc) if fc.enabled() => all
            .iter()
            .enumerate()
            .map(|(i, m)| plan_message(fc, i, m.bytes.len()))
            .collect(),
        _ => Vec::new(),
    };

    // Reduce stage: one executor per reducer, on real threads.
    let agg = cfg.agg();
    let reg = agg.registry();
    let capacity = agg.heap_capacity();
    let reduces: Vec<Result<(ReduceOutcome, S), ShuffleError>> =
        par_map(cfg.jobs, cfg.reducers, |r| {
            let msgs: Vec<&Message> = per_reducer[r].iter().map(|&i| all[i]).collect();
            let rplans: Vec<&MsgPlan> = if plans.is_empty() {
                Vec::new()
            } else {
                per_reducer[r].iter().map(|&i| &plans[i]).collect()
            };
            let mut child = S::default();
            let outcome =
                run_reducer_sunk(backend, &reg, capacity, &msgs, &rplans, cfg.checksum, r, &mut child)?;
            Ok((outcome, child))
        });
    let mut absorbed = Vec::with_capacity(cfg.reducers);
    for r in reduces {
        let (outcome, child) = r?;
        sink.absorb(child);
        absorbed.push(outcome);
    }
    let reduces: Vec<ReduceOutcome> = absorbed;

    // Stitch per-message deserialization times back to the global list.
    let mut de_ns = vec![0.0f64; all.len()];
    for (r, outcome) in reduces.iter().enumerate() {
        for (k, &i) in per_reducer[r].iter().enumerate() {
            de_ns[i] = outcome.de_ns[k];
        }
    }

    // Timeline composition: sequential and order-deterministic.
    let mut fault_totals = FaultTotals::default();
    let net = compose_sunk(cfg, &all, &de_ns, &plans, &mut fault_totals, sink);

    // Merge the folds; key spaces are disjoint (key % reducers routing).
    let mut fold = Fold::new();
    for outcome in &reduces {
        for (&k, &v) in &outcome.fold {
            if fold.insert(k, v).is_some() {
                return Err(ShuffleError::DuplicateKey(k));
            }
        }
    }

    let mut gc_totals = GcTotals::default();
    let mut spill_totals = SpillTotals::default();
    for o in &maps {
        gc_totals.merge(&o.gc);
        fault_totals.merge(&o.faults);
        if let Some(s) = &o.spill {
            spill_totals.merge(s);
        }
    }
    fault_totals.checksum_errors += reduces.iter().map(|o| o.checksum_errors).sum::<u64>();
    let report = BackendReport {
        name: backend.name(),
        messages: all.len() as u64,
        wire_bytes: all.iter().map(|m| m.bytes.len() as u64).sum(),
        records: reduces.iter().map(|o| o.records).sum(),
        ser_busy_ns: maps.iter().map(|o| o.ser_busy_ns).sum(),
        map_makespan_ns: maps.iter().map(|o| o.clock_ns).fold(0.0, f64::max),
        de_busy_ns: reduces.iter().map(|o| o.de_busy_ns).sum(),
        net,
        gc: cfg.gc_pressure.then_some(gc_totals),
        spill: (cfg.spill_bytes > 0).then_some(spill_totals),
        faults: cfg.faults.map(|_| fault_totals),
        fold_checksum: fold_checksum(&fold),
    };
    Ok(BackendRun { report, fold })
}

/// Runs a list of backends and checks they all computed the same
/// aggregate.
///
/// # Errors
/// [`ShuffleError::FoldMismatch`] when two backends disagree on the
/// aggregate — a round-trip correctness failure — plus anything
/// [`run_backend_sunk`] surfaces.
pub fn run_suite(cfg: &ShuffleConfig, backends: &[Backend]) -> Result<ShuffleReport, ShuffleError> {
    let mut reports = Vec::with_capacity(backends.len());
    let mut first_fold: Option<(&'static str, Fold)> = None;
    for &b in backends {
        let run = run_backend_sunk(cfg, b, &mut NoopSink)?;
        match &first_fold {
            None => first_fold = Some((b.name(), run.fold)),
            Some((name, fold)) => {
                if *fold != run.fold {
                    return Err(ShuffleError::FoldMismatch { a: name, b: b.name() });
                }
            }
        }
        reports.push(run.report);
    }
    Ok(ShuffleReport {
        config: *cfg,
        backends: reports,
    })
}
