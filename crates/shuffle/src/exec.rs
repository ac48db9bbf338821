//! The map-side executor: partition, coalesce, serialize, (optionally)
//! collect garbage between waves.

use crate::faults::{accel_scope, FaultTotals, ShuffleError};
use crate::ShuffleConfig;
use sdheap::{Addr, GcStats};
use sim::fault::stream;
use sim::FaultConfig;
use store::{Backend, BlockStore, Engine, MissPolicy, NoLineage, StoreConfig};
use telemetry::ids::{MAPPER_PID_BASE, T_DISK, T_MAIN, T_NIC, T_SEND};
use telemetry::{EntityId, Instant, NoopSink, Sink, Span};
use workloads::spark::agg::{self, RECORD_HEAP_BYTES};

/// One serialized batch on its way from a mapper to a reducer.
#[derive(Clone, Debug)]
pub struct Message {
    /// Source mapper.
    pub src: usize,
    /// Destination reducer.
    pub dst: usize,
    /// Per-`(src, dst)` flush sequence number.
    pub seq: u64,
    /// The serialized stream.
    pub bytes: Vec<u8>,
    /// Records coalesced into this batch.
    pub records: u64,
    /// The backend that produced `bytes` — normally the run's backend,
    /// but an accelerator-faulted flush degrades to the software
    /// fallback ([`Backend::FALLBACK`]), and the reducer must decode
    /// with the match.
    pub backend: Backend,
    /// Engine busy time serializing the batch.
    pub ser_ns: f64,
    /// Completion time on the mapper's simulated clock (includes any GC
    /// pauses charged before this flush).
    pub ser_done_ns: f64,
}

/// Accumulated GC activity of one executor (or a whole stage).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GcTotals {
    /// Collections run.
    pub collections: u64,
    /// Total simulated stop-the-world pause.
    pub pause_ns: f64,
    /// Bytes reclaimed across collections (shipped batches and already
    /// serialized records become garbage).
    pub reclaimed_bytes: u64,
    /// Live bytes evacuated across collections.
    pub live_bytes: u64,
}

impl GcTotals {
    fn absorb(&mut self, s: &GcStats) {
        self.collections += 1;
        self.pause_ns += s.simulated_cost_ns();
        self.reclaimed_bytes += s.reclaimed_bytes;
        self.live_bytes += s.live_bytes;
    }

    /// Merges another executor's totals into this one.
    pub fn merge(&mut self, other: &GcTotals) {
        self.collections += other.collections;
        self.pause_ns += other.pause_ns;
        self.reclaimed_bytes += other.reclaimed_bytes;
        self.live_bytes += other.live_bytes;
    }
}

/// Accumulated spill activity of one mapper's block store (or a whole
/// stage).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpillTotals {
    /// Batches evicted to the simulated disk.
    pub spills: u64,
    /// Bytes written to spill files.
    pub spilled_bytes: u64,
    /// Simulated time spent writing spill files.
    pub spill_ns: f64,
    /// Batches read back from spill files at serve time.
    pub fetches: u64,
    /// Simulated time spent reading spill files.
    pub fetch_ns: f64,
}

impl SpillTotals {
    /// Merges another executor's totals into this one.
    pub fn merge(&mut self, other: &SpillTotals) {
        self.spills += other.spills;
        self.spilled_bytes += other.spilled_bytes;
        self.spill_ns += other.spill_ns;
        self.fetches += other.fetches;
        self.fetch_ns += other.fetch_ns;
    }
}

/// Everything one map executor produced.
#[derive(Debug)]
pub struct MapOutcome {
    /// Serialized batches in flush order.
    pub messages: Vec<Message>,
    /// The mapper's clock when its last batch finished (includes GC
    /// pauses and any spill/serve disk time).
    pub clock_ns: f64,
    /// Summed engine busy time.
    pub ser_busy_ns: f64,
    /// GC activity (zero when GC pressure is off).
    pub gc: GcTotals,
    /// Block-store spill activity (`None` when spilling is disabled).
    pub spill: Option<SpillTotals>,
    /// Fault activity on this executor (accelerator faults, spill read
    /// retries; the service adds deaths and wire faults).
    pub faults: FaultTotals,
}

/// Runs map executor `m` to completion: builds its partition, shuffles
/// every record into a per-reducer pending queue, flushes each queue as
/// a coalesced `Object[]` batch whenever the estimated heap bytes reach
/// `cfg.flush_bytes`, and serializes each flush with the backend's
/// engine. With `cfg.gc_pressure`, a semispace collection runs between
/// record waves; unprocessed records and pending queues are the roots
/// (and get relocated), everything already serialized is reclaimed, and
/// the simulated pause is charged to the mapper's clock.
///
/// With `cfg.spill_bytes` set, serialized batches go into a per-mapper
/// [`BlockStore`] as they are produced — batches past the budget spill
/// to a simulated SSD — and are read back in flush order once the input
/// is exhausted (the shuffle-file serve), so each message's
/// `ser_done_ns` becomes its retrieval completion and all disk time
/// lands on the mapper's clock.
///
/// Under fault injection, each Cereal flush can draw an **accelerator
/// fault**: the partition degrades to the software fallback serializer,
/// [`Backend::FALLBACK`] (its slower busy time charged to the mapper's
/// clock, the message tagged with the fallback backend so the reducer
/// decodes with the match), and spill reads can draw transient errors
/// recovered by the store's retry loop.
///
/// # Errors
/// [`ShuffleError::InvalidConfig`] when [`ShuffleConfig::validate`]
/// rejects `cfg`; propagates [`ShuffleError::Store`] from
/// unrecoverable spill faults.
// Untraced wrapper kept because the frozen `perfbench/` calls it.
pub fn run_mapper(
    cfg: &ShuffleConfig,
    backend: Backend,
    m: usize,
) -> Result<MapOutcome, ShuffleError> {
    run_mapper_sunk(cfg, backend, m, &mut NoopSink)
}

/// [`run_mapper`] with a telemetry sink: the mapper's simulated
/// timeline is emitted as spans on its own process — `serialize` spans
/// (and `accel.fault` instants) on the main lane, `gc.pause` spans
/// between waves, `serve.fetch` spans for the shuffle-file serve, and
/// the spill store's device busy windows as `disk.read`/`disk.write`
/// spans on the disk lane. Counters (`shuffle.*`) are booked at the
/// event sites so they reconcile with the composed [`MapOutcome`] by
/// construction. The returned outcome is identical to the untraced
/// path for any sink.
///
/// # Errors
/// Same as [`run_mapper`].
pub fn run_mapper_sunk<S: Sink>(
    cfg: &ShuffleConfig,
    backend: Backend,
    m: usize,
    sink: &mut S,
) -> Result<MapOutcome, ShuffleError> {
    cfg.validate()?;
    let pid = MAPPER_PID_BASE + m as u32;
    let main = EntityId { pid, tid: T_MAIN };
    if S::ENABLED {
        sink.name_process(pid, &format!("mapper {m}"));
        sink.name_thread(pid, T_MAIN, "map");
        sink.name_thread(pid, T_DISK, "spill disk");
        sink.name_thread(pid, T_SEND, "send");
        sink.name_thread(pid, T_NIC, "nic");
    }
    let part = cfg.agg().build_partition(m);
    let mut heap = part.heap;
    let reg = part.reg;
    let batch_klass = part.batch_klass;
    let mut records = part.records;
    let mut engine = Engine::new(backend, &reg);

    let reducers = cfg.reducers;
    let mut pending: Vec<Vec<Addr>> = vec![Vec::new(); reducers];
    let mut seq = vec![0u64; reducers];
    let mut messages = Vec::new();
    let mut clock = 0.0f64;
    let mut pause_total = 0.0f64;
    let mut ser_busy = 0.0f64;
    let mut gc = GcTotals::default();
    let mut faults = FaultTotals::default();
    // Accelerator faults are drawn per flush from this mapper's private
    // stream (only the Cereal engine can fault in hardware).
    let mut accel = if backend == Backend::Cereal {
        cfg.faults.map(|f| (f.accel_fault, stream(f.seed, accel_scope(m))))
    } else {
        None
    };
    let mut fallback: Option<Engine> = None;
    // Shuffle batches have no cheap lineage: evictions always spill, and
    // injected spill *corruption* is zeroed here (a corrupt shuffle file
    // would be unrecoverable without re-running the mapper); the
    // transient read-error class still applies, recovered by the
    // store's device-level retry loop.
    let mut blocks = (cfg.spill_bytes > 0).then(|| {
        let fault = cfg.faults.map(|f| FaultConfig {
            seed: f.seed ^ (0x5B11_0000_0000 | m as u64),
            spill_corruption: 0.0,
            ..f
        });
        BlockStore::new(StoreConfig {
            memory_budget: cfg.spill_bytes,
            disk: sim::DiskConfig::ssd(),
            policy: MissPolicy::Fetch,
            fault,
            checksum: cfg.checksum,
        })
    });
    if S::ENABLED {
        if let Some(store) = &mut blocks {
            store.record_disk_tape();
        }
    }

    let mut flush = |dst: usize,
                     pending: &mut Vec<Addr>,
                     heap: &mut sdheap::Heap,
                     engine: &mut Engine,
                     blocks: &mut Option<BlockStore>,
                     clock: &mut f64,
                     pause_total: f64,
                     sink: &mut S| {
        if pending.is_empty() {
            return;
        }
        let batch = agg::coalesce(heap, &reg, batch_klass, pending);
        let accel_faulted = accel.as_mut().is_some_and(|(rate, rng)| rng.gen_bool(*rate));
        let (bytes, t, used_backend) = if accel_faulted {
            // Hardware request faulted: this partition degrades to the
            // software fallback, paying its busy time on the host core.
            let fb = fallback.get_or_insert_with(|| Engine::new(Backend::FALLBACK, &reg));
            let (bytes, t) = fb.serialize(heap, &reg, batch, cfg.checksum, sink);
            faults.accel_faults += 1;
            faults.fallback_ns += t.busy_ns;
            (bytes, t, Backend::FALLBACK)
        } else {
            let (bytes, t) = engine.serialize(heap, &reg, batch, cfg.checksum, sink);
            (bytes, t, backend)
        };
        let ser_done = match t.done_ns {
            // The accelerator schedules across its units on its own
            // timeline; GC pauses shift that timeline wholesale.
            Some(end_ns) => end_ns + pause_total,
            // Software serializes on the mapper's single host core.
            None => *clock + t.busy_ns,
        };
        *clock = clock.max(ser_done);
        ser_busy += t.busy_ns;
        if S::ENABLED {
            sink.count("shuffle.messages", 1);
            sink.count("shuffle.wire_bytes", bytes.len() as u64);
            sink.observe("shuffle.ser_busy_ns", t.busy_ns);
            sink.span(Span {
                entity: main,
                name: "serialize",
                t0_ns: ser_done - t.busy_ns,
                t1_ns: ser_done,
                attrs: vec![
                    ("dst", (dst as u64).into()),
                    ("bytes", (bytes.len() as u64).into()),
                    ("records", (pending.len() as u64).into()),
                    ("backend", used_backend.name().into()),
                ],
            });
            if accel_faulted {
                sink.count("shuffle.accel_faults", 1);
                sink.instant(Instant {
                    entity: main,
                    name: "accel.fault",
                    t_ns: ser_done - t.busy_ns,
                    attrs: Vec::new(),
                });
            }
        }
        let bytes = match blocks {
            // Batches park in the block store until serve time; eviction
            // spill writes are charged to the mapper's clock here.
            Some(store) => {
                let (_, done) = store.put(bytes, f64::INFINITY, *clock);
                *clock = done;
                Vec::new()
            }
            None => bytes,
        };
        messages.push(Message {
            src: m,
            dst,
            seq: seq[dst],
            bytes,
            records: pending.len() as u64,
            backend: used_backend,
            ser_ns: t.busy_ns,
            ser_done_ns: ser_done,
        });
        seq[dst] += 1;
        pending.clear();
    };

    let waves = if cfg.gc_pressure { cfg.gc_waves.max(1) } else { 1 };
    let wave_len = records.len().div_ceil(waves).max(1);
    let mut i = 0usize;
    for wave in 0..waves {
        let end = ((wave + 1) * wave_len).min(records.len());
        while i < end {
            let r = records[i];
            let dst = (agg::record_key(&heap, r) % reducers as u64) as usize;
            pending[dst].push(r);
            if pending[dst].len() as u64 * RECORD_HEAP_BYTES >= cfg.flush_bytes {
                let mut q = std::mem::take(&mut pending[dst]);
                flush(dst, &mut q, &mut heap, &mut engine, &mut blocks, &mut clock, pause_total, &mut *sink);
                pending[dst] = q;
            }
            i += 1;
        }
        if cfg.gc_pressure && wave + 1 < waves {
            // Roots: records not yet shuffled, then the pending queues in
            // reducer order. Shipped batches (and the records inside
            // them that are no longer rooted) are garbage.
            let mut roots: Vec<Addr> = records[i..].to_vec();
            for q in &pending {
                roots.extend_from_slice(q);
            }
            let (new_heap, new_roots, stats) =
                sdheap::gc::collect(&heap, &reg, &roots).expect("live set fits the semispace");
            heap = new_heap;
            let mut relocated = new_roots.into_iter();
            for slot in records[i..].iter_mut() {
                *slot = relocated.next().expect("one relocation per root");
            }
            for q in pending.iter_mut() {
                for slot in q.iter_mut() {
                    *slot = relocated.next().expect("one relocation per root");
                }
            }
            let pause = stats.simulated_cost_ns();
            if S::ENABLED {
                sink.count("shuffle.gc_collections", 1);
                sink.observe("shuffle.gc_pause_ns", pause);
                sink.span(Span {
                    entity: main,
                    name: "gc.pause",
                    t0_ns: clock,
                    t1_ns: clock + pause,
                    attrs: vec![
                        ("reclaimed_bytes", stats.reclaimed_bytes.into()),
                        ("live_bytes", stats.live_bytes.into()),
                    ],
                });
            }
            clock += pause;
            pause_total += pause;
            gc.absorb(&stats);
        }
    }
    for (dst, q) in pending.iter_mut().enumerate() {
        flush(dst, q, &mut heap, &mut engine, &mut blocks, &mut clock, pause_total, &mut *sink);
    }

    // Serve the shuffle files: read every batch back out of the store in
    // flush order. Resident batches are free; spilled ones pay the disk
    // (and any injected transient read errors pay the retry loop), on
    // the mapper's clock. Each message completes — and so becomes
    // sendable — when its batch is back in memory.
    let spill = match blocks {
        Some(mut store) => {
            let mut none = NoLineage;
            for (i, msg) in messages.iter_mut().enumerate() {
                let before = clock;
                let access = store.get(i, clock, &mut none)?;
                clock = access.done_ns;
                if S::ENABLED && clock > before {
                    sink.span(Span {
                        entity: main,
                        name: "serve.fetch",
                        t0_ns: before,
                        t1_ns: clock,
                        attrs: vec![("batch", (i as u64).into())],
                    });
                }
                msg.bytes = store.bytes(i).expect("fetch policy retains every block").to_vec();
                msg.ser_done_ns = clock;
            }
            let s = store.stats();
            faults.spill_retries += s.read_retries;
            faults.recovery_ns += s.retry_ns;
            if S::ENABLED {
                store.emit_disk_tape(sink, EntityId { pid, tid: T_DISK });
                sink.count("shuffle.spills", s.spills);
                sink.count("shuffle.spilled_bytes", s.spilled_bytes);
                sink.count("shuffle.spill_fetches", s.disk_fetches);
                sink.count("shuffle.spill_retries", s.read_retries);
            }
            Some(SpillTotals {
                spills: s.spills,
                spilled_bytes: s.spilled_bytes,
                spill_ns: s.spill_ns,
                fetches: s.disk_fetches,
                fetch_ns: s.fetch_ns,
            })
        }
        None => None,
    };

    Ok(MapOutcome {
        messages,
        clock_ns: clock,
        ser_busy_ns: ser_busy,
        gc,
        spill,
        faults,
    })
}
