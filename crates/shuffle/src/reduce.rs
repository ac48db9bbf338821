//! The reduce-side executor: deserialize incoming batches, fold by key.

use crate::exec::Message;
use crate::faults::{Attempt, MsgPlan, ShuffleError};
use sdheap::{Addr, KlassRegistry};
use store::{validate_archive_sunk, Backend, Engine, EngineError};
use telemetry::ids::{REDUCER_PID_BASE, T_MAIN, T_NIC};
use telemetry::{NoopSink, Sink};
use workloads::{fold_record, Fold};

/// Everything one reduce executor produced.
#[derive(Debug)]
pub struct ReduceOutcome {
    /// Deserialization busy time per incoming message, in the order the
    /// messages were given (sorted by `(src, seq)`).
    pub de_ns: Vec<f64>,
    /// The reducer's aggregate: key → `(count, sum)`.
    pub fold: Fold,
    /// Summed engine busy time.
    pub de_busy_ns: f64,
    /// Records decoded.
    pub records: u64,
    /// Corrupted arrivals the CRC frame check caught (each re-fetched;
    /// the timing lands in the timeline composition).
    pub checksum_errors: u64,
}

/// Runs one reduce executor over its incoming messages, which must be
/// sorted by `(src, seq)` — the service's deterministic delivery order.
/// Each message is reconstructed into a fresh destination heap
/// ([`Backend::Archive`] batches skip reconstruction: the image is
/// validated once and folded in place) and its records folded in array
/// order, so for any one key the values
/// accumulate in `(mapper, generation)` order: exactly the order
/// [`workloads::AggConfig::expected_fold`] uses, making the sums
/// bit-identical.
///
/// `plans` aligns with `msgs` (empty = fault-free): for every planned
/// [`Attempt::Corrupt`], the reducer really applies the byte flip to a
/// copy of the stream and demonstrates the checksum rejects it — an
/// undetected corruption is a [`ShuffleError::UndetectedCorruption`],
/// never a silent wrong fold. Messages are decoded with the engine
/// matching their [`Message::backend`] (accelerator-faulted batches
/// arrive in the fallback software format).
///
/// `r` is the reducer index (for the process id). The reducer books
/// decode-site counters (`shuffle.records`, `shuffle.checksum_errors`)
/// and the `shuffle.de_busy_ns` histogram; its timeline *spans* are
/// emitted by the composition stage, which is where arrival and
/// completion times exist. The returned outcome is identical for any
/// sink; callers that do not trace pass [`NoopSink`].
///
/// # Errors
/// [`ShuffleError::Engine`] when an intact stream fails to decode;
/// [`ShuffleError::BadBatch`] on a record-count mismatch;
/// [`ShuffleError::UndetectedCorruption`] if a planned flip decodes.
#[allow(clippy::too_many_arguments)]
pub fn run_reducer_sunk<S: Sink>(
    backend: Backend,
    reg: &KlassRegistry,
    capacity: u64,
    msgs: &[&Message],
    plans: &[&MsgPlan],
    checksum: bool,
    r: usize,
    sink: &mut S,
) -> Result<ReduceOutcome, ShuffleError> {
    if S::ENABLED {
        let pid = REDUCER_PID_BASE + r as u32;
        sink.name_process(pid, &format!("reducer {r}"));
        sink.name_thread(pid, T_MAIN, "reduce");
        sink.name_thread(pid, T_NIC, "nic");
    }
    // One engine per wire format seen; the run's backend first.
    let mut engines: Vec<(Backend, Engine)> = vec![(backend, Engine::new(backend, reg))];
    let mut out = ReduceOutcome {
        de_ns: Vec::with_capacity(msgs.len()),
        fold: Fold::new(),
        de_busy_ns: 0.0,
        records: 0,
        checksum_errors: 0,
    };
    for (i, msg) in msgs.iter().enumerate() {
        let idx = match engines.iter().position(|(b, _)| *b == msg.backend) {
            Some(i) => i,
            None => {
                engines.push((msg.backend, Engine::new(msg.backend, reg)));
                engines.len() - 1
            }
        };
        let engine = &mut engines[idx].1;
        // Corrupt arrivals first: the CRC check must reject every
        // planned flip before the clean retransmission decodes.
        if let Some(plan) = plans.get(i) {
            for a in &plan.attempts {
                if let Attempt::Corrupt { pos, mask } = a {
                    let mut bad = msg.bytes.clone();
                    bad[*pos] ^= *mask;
                    match engine.deserialize(&bad, reg, capacity, true, &mut NoopSink) {
                        Err(EngineError::Checksum(_)) => {
                            out.checksum_errors += 1;
                            if S::ENABLED {
                                sink.count("shuffle.checksum_errors", 1);
                            }
                        }
                        _ => {
                            return Err(ShuffleError::UndetectedCorruption {
                                src: msg.src,
                                dst: msg.dst,
                                seq: msg.seq,
                            })
                        }
                    }
                }
            }
        }
        let bad_batch = || ShuffleError::BadBatch { src: msg.src, dst: msg.dst, seq: msg.seq };
        let (n, ns) = if msg.backend == Backend::Archive {
            // Zero-copy path: validate the image once and fold straight
            // off the wire bytes — no destination heap is ever built.
            // The fold visits the same records in the same array order
            // as the reconstructing path below, so the sums are
            // bit-identical (the suite cross-checks every backend).
            let (view, ns) = validate_archive_sunk(&msg.bytes, reg, checksum, sink)?;
            let root = view.root().ok_or_else(bad_batch)?;
            let n = view.array_len(root);
            if n as u64 != msg.records {
                return Err(bad_batch());
            }
            for j in 0..n {
                let rec = view.array_elem_ref(root, j).ok_or_else(bad_batch)?;
                let key = view.field(rec, 0);
                let value = f64::from_bits(view.field(rec, 1));
                fold_record(&mut out.fold, key, value);
            }
            (n, ns)
        } else {
            let (heap, root, ns) = engine.deserialize(&msg.bytes, reg, capacity, checksum, sink)?;
            let n = heap.array_len(root);
            if n as u64 != msg.records {
                return Err(bad_batch());
            }
            for j in 0..n {
                let rec = Addr(heap.array_elem(root, j));
                let key = heap.field(rec, 0);
                let value = f64::from_bits(heap.field(rec, 1));
                fold_record(&mut out.fold, key, value);
            }
            (n, ns)
        };
        if S::ENABLED {
            sink.count("shuffle.records", n as u64);
            sink.observe("shuffle.de_busy_ns", ns);
        }
        out.records += n as u64;
        out.de_busy_ns += ns;
        out.de_ns.push(ns);
    }
    Ok(out)
}
