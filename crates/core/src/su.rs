//! Serialization Unit timing model (paper §V-B, Fig. 7).
//!
//! Replays a [`SerWorkload`] against the
//! shared memory system, reproducing the pipeline structure of Fig. 7:
//!
//! * the **header manager** walks traversal steps in order. Object
//!   addresses come from its work queue, so header fetches for upcoming
//!   objects are issued ahead of time (lookahead = queue depth); but the
//!   manager *commits* objects serially — it "cannot process another
//!   object until it receives the object size from the object metadata
//!   manager and updates its counter", which makes the metadata-fetch
//!   round trip the per-object critical path;
//! * the **object metadata manager** fetches the type descriptor as soon
//!   as the header (klass pointer) is available;
//! * the **object handler** streams the object body through the MAI —
//!   responses are forced in order by a reorder buffer — and drains the
//!   value array to memory in 64 B bursts;
//! * the **reference array writer** and the bitmap output of the metadata
//!   manager drain their packed bytes as they are produced.
//!
//! With `vanilla = true` (the paper's ablation) the stages run strictly
//! serially per object: header fetch, then metadata fetch, then object
//! fetch, then writes, with no overlap between objects.

use crate::config::{CerealConfig, COHERENCE_NS, CYCLE_NS, HM_STEP_CYCLES, SU_LOOKAHEAD};
use crate::functional::{SerEvent, SerWorkload};
use serializers::OUT_STREAM_BASE;
use sim::{Dram, Mai, ReorderBuffer, Tlb};

/// Timing outcome of one serialization request on one SU.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitRun {
    /// Request start time (ns).
    pub start_ns: f64,
    /// Request completion time (ns).
    pub end_ns: f64,
    /// Bytes read from DRAM by this request.
    pub read_bytes: u64,
    /// Bytes written to DRAM by this request.
    pub write_bytes: u64,
}

impl UnitRun {
    /// Busy duration in nanoseconds.
    pub fn busy_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

/// One serialization unit's private front-end state (its MAI bank, TLB
/// slice and reorder buffer). DRAM is shared across all units.
#[derive(Debug, Default)]
pub struct SerializationUnit {
    mai: Mai,
    tlb: Tlb,
    /// Scratch reused across requests (per-event commit times); purely an
    /// allocation-churn optimization, timing is unaffected.
    scratch_commit: Vec<f64>,
    /// Scratch reused across requests (per-event header-fetch times).
    scratch_header_done: Vec<f64>,
}

impl SerializationUnit {
    /// A unit configured per `cfg`.
    pub fn new(cfg: &CerealConfig) -> Self {
        SerializationUnit {
            mai: Mai::new(cfg.mai),
            tlb: Tlb::new(cfg.tlb),
            scratch_commit: Vec::new(),
            scratch_header_done: Vec::new(),
        }
    }

    /// Replays `workload` starting at `start_ns` against the shared DRAM,
    /// returning the request timing.
    pub fn run(
        &mut self,
        cfg: &CerealConfig,
        workload: &SerWorkload,
        start_ns: f64,
        dram: &mut Dram,
    ) -> UnitRun {
        let hm_step = f64::from(HM_STEP_CYCLES) * CYCLE_NS;
        let lookahead = if cfg.vanilla { 0 } else { SU_LOOKAHEAD };

        let bytes_before = dram.total_bytes();
        let mut reads = 0u64;
        let mut writes = 0u64;

        // Per-event commit times (header-manager order), in buffers
        // reused across requests.
        let n = workload.events.len();
        let mut commit = std::mem::take(&mut self.scratch_commit);
        commit.clear();
        commit.resize(n.max(1), start_ns);
        // Header fetch completion per event, issued with lookahead.
        let mut header_done = std::mem::take(&mut self.scratch_header_done);
        header_done.clear();
        header_done.resize(n, start_ns);
        let mut rob = ReorderBuffer::new();

        // Output drains: value array, reference array, bitmaps. Each is a
        // sequential write stream; we batch at 64 B.
        let mut value_pending: u64 = 0;
        let mut value_written: u64 = 0;
        let mut out_tail = start_ns;

        let mut last_commit = start_ns;
        for i in 0..n {
            // Issue the header fetch for event i at the commit time of the
            // event `lookahead` back (the queue gives that much notice).
            let issue_at = if i <= lookahead {
                start_ns
            } else {
                commit[i - 1 - lookahead]
            };
            let (addr, _is_new) = match &workload.events[i] {
                SerEvent::New(v) => (v.addr, true),
                SerEvent::Revisit { addr } => (*addr, false),
            };
            // Heap reads carry a coherence round trip (§V-E).
            let t = issue_at + self.tlb.translate(addr) + COHERENCE_NS;
            header_done[i] = self.mai.read(dram, addr, 8, t);
            reads += 1;

            let prev = if i == 0 { start_ns } else { commit[i - 1] };
            let committed = match &workload.events[i] {
                SerEvent::Revisit { .. } => {
                    // Relative address is already in the (fetched) header.
                    prev.max(header_done[i]) + hm_step
                }
                SerEvent::New(v) => {
                    // The header manager sends the klass address to the
                    // metadata manager when it processes this object — so
                    // the fetch needs both the (possibly prefetched)
                    // header and the previous object's commit. Its round
                    // trip is the per-object critical path in both modes;
                    // pipelining hides the header/body fetches and the
                    // output drains, not this.
                    let meta_issue = prev.max(header_done[i]);
                    let meta_done = self.mai.read(
                        dram,
                        v.meta_addr,
                        u64::from(v.meta_bytes),
                        meta_issue + self.tlb.translate(v.meta_addr) + COHERENCE_NS,
                    );
                    reads += 1;
                    // Header update (visited mark + relative address):
                    // an atomic RMW that does not stall the pipeline.
                    writes += 1;
                    let _ = self.mai.write(dram, v.addr, 8, meta_done);

                    // The size returns to the header manager: serial
                    // commit point.
                    let committed = prev.max(meta_done) + hm_step;

                    // Object handler: fetch the body, in order.
                    let body_issue = if cfg.vanilla { committed } else { meta_done };
                    let body_done = rob.deliver(self.mai.read(
                        dram,
                        v.addr,
                        u64::from(v.size_bytes),
                        body_issue + COHERENCE_NS,
                    ));
                    reads += 1;

                    // Value array drain at 64 B granularity.
                    value_pending += u64::from(v.value_bytes);
                    while value_pending >= 64 {
                        let at = if cfg.vanilla {
                            out_tail.max(body_done)
                        } else {
                            body_done
                        };
                        out_tail = self
                            .mai
                            .write(dram, OUT_STREAM_BASE + value_written, 64, at);
                        writes += 1;
                        value_pending -= 64;
                        value_written += 64;
                    }
                    if cfg.vanilla {
                        out_tail.max(body_done).max(committed)
                    } else {
                        committed
                    }
                }
            };
            commit[i] = committed;
            last_commit = committed;
        }

        // Flush the remaining value bytes plus the packed reference array
        // and bitmaps (sequential writes at the stream tail).
        let mut tail = last_commit.max(out_tail);
        let remaining =
            value_pending + workload.ref_bytes + workload.bitmap_bytes + 64 /* header */;
        let mut off = value_written;
        let mut left = remaining;
        while left > 0 {
            let chunk = left.min(64);
            tail = self.mai.write(dram, OUT_STREAM_BASE + off, chunk, tail);
            writes += 1;
            off += chunk;
            left -= chunk;
        }

        let end = tail.max(last_commit);
        self.scratch_commit = commit;
        self.scratch_header_done = header_done;
        // The authoritative byte meter is the shared DRAM model; the
        // per-request split is apportioned by transaction counts.
        let moved = dram.total_bytes() - bytes_before;
        let txns = (reads + writes).max(1);
        UnitRun {
            start_ns,
            end_ns: end,
            read_bytes: moved * reads / txns,
            write_bytes: moved * writes / txns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::{ObjVisit, SerEvent};

    fn synthetic_workload(objects: usize, size_bytes: u32) -> SerWorkload {
        let events = (0..objects)
            .map(|i| {
                SerEvent::New(ObjVisit {
                    addr: 0x4000_0000 + (i as u64) * u64::from(size_bytes),
                    meta_addr: 0x1000_0000,
                    meta_bytes: 24,
                    size_bytes,
                    value_bytes: size_bytes - 16,
                    refs: 2,
                })
            })
            .collect();
        SerWorkload {
            events,
            value_bytes: objects as u64 * u64::from(size_bytes - 16),
            ref_bytes: objects as u64 * 2,
            bitmap_bytes: objects as u64,
            image_bytes: objects as u64 * u64::from(size_bytes),
        }
    }

    #[test]
    fn pipelined_throughput_is_metadata_latency_bound() {
        let cfg = CerealConfig::paper();
        let mut dram = Dram::new(cfg.dram);
        let mut su = SerializationUnit::new(&cfg);
        let w = synthetic_workload(1000, 48);
        let run = su.run(&cfg, &w, 0.0, &mut dram);
        let per_obj = run.busy_ns() / 1000.0;
        // One metadata round trip (~40 ns zero-load + queueing) per object.
        assert!(
            per_obj > 35.0 && per_obj < 120.0,
            "per-object {per_obj} ns should be about one DRAM round trip"
        );
    }

    #[test]
    fn vanilla_is_substantially_slower() {
        let cfg = CerealConfig::paper();
        let vcfg = CerealConfig::vanilla();
        let w = synthetic_workload(500, 48);
        let mut d1 = Dram::new(cfg.dram);
        let mut d2 = Dram::new(cfg.dram);
        let t_pipe = SerializationUnit::new(&cfg)
            .run(&cfg, &w, 0.0, &mut d1)
            .busy_ns();
        let t_van = SerializationUnit::new(&vcfg)
            .run(&vcfg, &w, 0.0, &mut d2)
            .busy_ns();
        assert!(
            t_van > t_pipe * 1.5,
            "vanilla {t_van} ns must be well above pipelined {t_pipe} ns"
        );
    }

    #[test]
    fn revisits_are_cheaper_than_new_objects() {
        let cfg = CerealConfig::paper();
        let mut w_new = synthetic_workload(200, 48);
        let mut w_rev = synthetic_workload(100, 48);
        for i in 0..100 {
            w_rev.events.push(SerEvent::Revisit {
                addr: 0x4000_0000 + i * 48,
            });
        }
        w_new.image_bytes = w_rev.image_bytes;
        let mut d1 = Dram::new(cfg.dram);
        let mut d2 = Dram::new(cfg.dram);
        let t_new = SerializationUnit::new(&cfg)
            .run(&cfg, &w_new, 0.0, &mut d1)
            .busy_ns();
        let t_rev = SerializationUnit::new(&cfg)
            .run(&cfg, &w_rev, 0.0, &mut d2)
            .busy_ns();
        assert!(t_rev < t_new, "revisit-heavy {t_rev} vs new-heavy {t_new}");
    }

    #[test]
    fn starts_after_start_time() {
        let cfg = CerealConfig::paper();
        let mut dram = Dram::new(cfg.dram);
        let w = synthetic_workload(10, 48);
        let run = SerializationUnit::new(&cfg).run(&cfg, &w, 500.0, &mut dram);
        assert_eq!(run.start_ns, 500.0);
        assert!(run.end_ns > 500.0);
    }

    #[test]
    fn empty_workload_costs_only_flush() {
        let cfg = CerealConfig::paper();
        let mut dram = Dram::new(cfg.dram);
        let w = SerWorkload::default();
        let run = SerializationUnit::new(&cfg).run(&cfg, &w, 0.0, &mut dram);
        assert!(run.busy_ns() < 200.0);
    }
}
