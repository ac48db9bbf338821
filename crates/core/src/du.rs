//! Deserialization Unit timing model (paper §V-C, Fig. 8).
//!
//! Replays a [`DeWorkload`]:
//!
//! * the **layout manager**'s bitmap loader and the **block manager**'s
//!   value/reference loaders are *eager prefetchers*: each streams its
//!   section of the serialized input sequentially, as far ahead as its
//!   internal buffer allows ([`StreamPrefetcher`]);
//! * the block manager dispatches one 64 B block per `DISPATCH_CYCLES`
//!   once the block's bitmap chunk, values and references are all
//!   buffered — the per-block value/reference counts come straight from
//!   the unpacked bitmap, exactly as in the paper;
//! * each **block reconstructor** holds a block for `reconstruct_cycles`
//!   (scan the 8-bit bitmap, place values/references, translate a class
//!   ID through the Class ID Table) and then writes the 64 B result to
//!   its destination; with one reconstructor per DU (the
//!   [`CerealConfig::vanilla`] ablation of Fig. 10) a single
//!   reconstructor serializes everything.
//!
//! Because all three input streams and the output stream are sequential,
//! the DU's throughput is bandwidth- rather than latency-bound — the
//! design property behind Cereal's much larger deserialization speedups.

use crate::config::{CerealConfig, CYCLE_NS, DISPATCH_CYCLES, PREFETCH_BUFFER_BYTES};
use crate::functional::DeWorkload;
use crate::su::UnitRun;
use serializers::IN_STREAM_BASE;
use sim::{Dram, Mai, Tlb};

/// An eager sequential prefetcher over one section of the input stream.
///
/// Issues 64 B fetches as far ahead as its internal buffer allows and
/// answers "when are the next `n` bytes available?" for its consumer.
#[derive(Clone, Debug, Default)]
pub struct StreamPrefetcher {
    base: u64,
    total: u64,
    fetched: u64,
    consumed: u64,
    buffer: u64,
    /// (end offset, completion time) of in-buffer chunks, fetch order.
    chunks: std::collections::VecDeque<(u64, f64)>,
    /// Completion of the latest chunk already consumed past.
    consumed_ready: f64,
}

impl StreamPrefetcher {
    /// A prefetcher over `[base, base+total)` with `buffer` bytes of
    /// run-ahead.
    pub fn new(base: u64, total: u64, buffer: u64) -> Self {
        let mut p = StreamPrefetcher::default();
        p.reset(base, total, buffer);
        p
    }

    /// Re-arms the prefetcher for a new stream section, keeping the
    /// chunk-queue allocation. Timing state is fully cleared; only the
    /// backing storage is reused across requests.
    pub fn reset(&mut self, base: u64, total: u64, buffer: u64) {
        self.base = base;
        self.total = total;
        self.fetched = 0;
        self.consumed = 0;
        self.buffer = buffer.max(64);
        self.chunks.clear();
        self.consumed_ready = 0.0;
    }

    /// Issues fetches allowed by the buffer at time `now`.
    fn pump(&mut self, mai: &mut Mai, dram: &mut Dram, now: f64) {
        let limit = (self.consumed + self.buffer).min(self.total);
        while self.fetched < limit {
            let chunk = (limit - self.fetched).min(64);
            let done = mai.read(dram, self.base + self.fetched, chunk, now);
            self.fetched += chunk;
            self.chunks.push_back((self.fetched, done));
        }
    }

    /// Bytes consumed so far.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Consumes `bytes`, returning when they are available at time `now`.
    pub fn consume(&mut self, mai: &mut Mai, dram: &mut Dram, bytes: u64, now: f64) -> f64 {
        debug_assert!(self.consumed + bytes <= self.total, "prefetcher overrun");
        self.pump(mai, dram, now);
        self.consumed += bytes;
        while let Some(&(end, done)) = self.chunks.front() {
            if end <= self.consumed {
                self.consumed_ready = self.consumed_ready.max(done);
                self.chunks.pop_front();
            } else {
                // The needed bytes end inside this chunk: wait for it too.
                if bytes > 0 {
                    self.consumed_ready = self.consumed_ready.max(done);
                }
                break;
            }
        }
        // Refill the freed buffer space eagerly.
        self.pump(mai, dram, now);
        self.consumed_ready.max(now)
    }
}

/// One deserialization unit.
#[derive(Debug, Default)]
pub struct DeserializationUnit {
    mai: Mai,
    tlb: Tlb,
    /// Per-request structures reused across requests (the SU's
    /// `scratch_commit`/`scratch_header_done` treatment): the
    /// reconstructor-pool free times and the three stream prefetchers
    /// with their chunk queues. Purely an allocation-churn optimization —
    /// timing is unaffected.
    scratch_recon_free: Vec<f64>,
    values: StreamPrefetcher,
    refs: StreamPrefetcher,
    bitmaps: StreamPrefetcher,
}

impl DeserializationUnit {
    /// A unit configured per `cfg`.
    pub fn new(cfg: &CerealConfig) -> Self {
        DeserializationUnit {
            mai: Mai::new(cfg.mai),
            tlb: Tlb::new(cfg.tlb),
            ..DeserializationUnit::default()
        }
    }

    /// Replays `workload` starting at `start_ns` against the shared DRAM.
    pub fn run(
        &mut self,
        cfg: &CerealConfig,
        workload: &DeWorkload,
        start_ns: f64,
        dram: &mut Dram,
        dst_base: u64,
    ) -> UnitRun {
        let dispatch_ns = f64::from(DISPATCH_CYCLES) * CYCLE_NS;
        let recon_ns = f64::from(cfg.reconstruct_cycles) * CYCLE_NS;
        let nrecon = cfg.reconstructors_per_du;

        let bytes_before = dram.total_bytes();
        let mut reads = 0u64;
        let mut writes = 0u64;

        if workload.image_bytes == 0 {
            return UnitRun {
                start_ns,
                end_ns: start_ns,
                read_bytes: 0,
                write_bytes: 0,
            };
        }

        // Section layout within the input stream (header, then sections).
        // The prefetchers are re-armed in place, reusing their chunk
        // queues across requests.
        let v_base = IN_STREAM_BASE + 64;
        let r_base = v_base + workload.value_bytes;
        let b_base = r_base + workload.ref_bytes;
        self.values
            .reset(v_base, workload.value_bytes, PREFETCH_BUFFER_BYTES);
        self.refs
            .reset(r_base, workload.ref_bytes, PREFETCH_BUFFER_BYTES);
        self.bitmaps
            .reset(b_base, workload.bitmap_bytes, PREFETCH_BUFFER_BYTES);

        // Average packed-reference item size (the loader consumes whole
        // items; we apportion bytes uniformly).
        let ref_bytes_per_item = if workload.ref_count == 0 {
            0.0
        } else {
            workload.ref_bytes as f64 / workload.ref_count as f64
        };

        // Reconstructor pool: next-free times, in a buffer reused across
        // requests.
        let mut recon_free = std::mem::take(&mut self.scratch_recon_free);
        recon_free.clear();
        recon_free.resize(nrecon, start_ns);
        let mut dispatch_tail = start_ns;
        let mut end = start_ns;
        let mut ref_bytes_consumed = 0.0f64;
        let mut ref_items_consumed = 0u64;

        for (bi, counts) in workload.per_block.iter().enumerate() {
            let now = dispatch_tail;
            // Layout manager: 1 bitmap byte covers one 64 B block.
            let bm_ready = self.bitmaps.consume(&mut self.mai, dram, 1, now);
            reads += 1;
            // Value loader: `values` words of 8 B. Under header stripping
            // mark words are regenerated in the reconstructor rather than
            // fetched, so consumption is clamped to the stream's content.
            let v_take =
                (u64::from(counts.values) * 8).min(workload.value_bytes - self.values.consumed());
            let v_ready = self.values.consume(&mut self.mai, dram, v_take, now);
            // Reference loader: whole packed items.
            ref_items_consumed += u64::from(counts.refs);
            let target = ref_items_consumed as f64 * ref_bytes_per_item;
            let take = (target - ref_bytes_consumed).max(0.0).round() as u64;
            let take = take.min(workload.ref_bytes.saturating_sub(self.refs.consumed));
            ref_bytes_consumed += take as f64;
            let r_ready = self.refs.consume(&mut self.mai, dram, take, now);

            // Block manager dispatch: serial, one block per dispatch slot,
            // once all three inputs are buffered.
            let ready = bm_ready.max(v_ready).max(r_ready).max(dispatch_tail);
            dispatch_tail = ready + dispatch_ns;

            // Pick the earliest-free reconstructor.
            let (slot, _) = recon_free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
                .expect("nrecon > 0");
            let begin = dispatch_tail.max(recon_free[slot]);
            let done = begin + recon_ns;
            // Output write of the reconstructed 64 B block.
            let dst = dst_base + bi as u64 * 64;
            let wdone = self
                .mai
                .write(dram, dst, 64, done + self.tlb.translate(dst));
            writes += 1;
            recon_free[slot] = done;
            end = end.max(wdone);
        }

        self.scratch_recon_free = recon_free;
        let moved = dram.total_bytes() - bytes_before;
        let txns = (reads + writes).max(1);
        UnitRun {
            start_ns,
            end_ns: end.max(dispatch_tail),
            read_bytes: moved * reads / txns,
            write_bytes: moved * writes / txns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdformat::layout::LayoutCounts;

    fn synthetic_workload(image_bytes: u64, ref_fraction: f64) -> DeWorkload {
        let words = image_bytes / 8;
        let blocks = image_bytes.div_ceil(64) as usize;
        let mut per_block = Vec::with_capacity(blocks);
        let mut refs_total = 0u64;
        let mut remaining = words;
        for _ in 0..blocks {
            let w = remaining.min(8) as u32;
            remaining -= u64::from(w);
            let r = (f64::from(w) * ref_fraction).round() as u32;
            refs_total += u64::from(r);
            per_block.push(LayoutCounts {
                values: w - r,
                refs: r,
            });
        }
        let value_bytes = (words - refs_total) * 8;
        DeWorkload {
            image_bytes,
            object_count: image_bytes / 48,
            value_bytes,
            ref_bytes: refs_total * 2, // ~2 packed bytes per reference
            ref_count: refs_total,
            bitmap_bytes: blocks as u64,
            per_block,
        }
    }

    #[test]
    fn streaming_deserialization_approaches_bandwidth() {
        let cfg = CerealConfig::paper();
        let mut dram = Dram::new(cfg.dram);
        let mut du = DeserializationUnit::new(&cfg);
        let w = synthetic_workload(4 << 20, 0.1); // 4 MB image
        let run = du.run(&cfg, &w, 0.0, &mut dram, 0x9_0000_0000);
        let gbps = dram.total_bytes() as f64 / run.busy_ns();
        // A single DU must reach multi-GB/s (sequential streams), but stay
        // under the 76.8 GB/s aggregate peak.
        assert!(gbps > 4.0, "single-DU bandwidth {gbps} GB/s too low");
        assert!(gbps < 76.8);
    }

    #[test]
    fn vanilla_single_reconstructor_is_slower() {
        let cfg = CerealConfig::paper();
        let vcfg = CerealConfig::vanilla();
        let w = synthetic_workload(1 << 20, 0.1);
        let mut d1 = Dram::new(cfg.dram);
        let mut d2 = Dram::new(vcfg.dram);
        let t = DeserializationUnit::new(&cfg)
            .run(&cfg, &w, 0.0, &mut d1, 0x9_0000_0000)
            .busy_ns();
        let tv = DeserializationUnit::new(&vcfg)
            .run(&vcfg, &w, 0.0, &mut d2, 0x9_0000_0000)
            .busy_ns();
        assert!(tv > t * 1.5, "vanilla {tv} ns vs pipelined {t} ns");
    }

    #[test]
    fn per_block_dispatch_is_serial() {
        // With enormous reconstruct time, total ≈ blocks × reconstruct /
        // nrecon: the pool parallelism shows through.
        let mut cfg = CerealConfig::paper();
        cfg.reconstruct_cycles = 400;
        let w = synthetic_workload(64 * 1000, 0.0); // 1000 blocks
        let mut dram = Dram::new(cfg.dram);
        let t = DeserializationUnit::new(&cfg)
            .run(&cfg, &w, 0.0, &mut dram, 0x9_0000_0000)
            .busy_ns();
        let serial_estimate = 1000.0 * 400.0;
        assert!(
            t < serial_estimate / 2.0,
            "4 reconstructors should cut the serial {serial_estimate} ns to ~1/4, got {t}"
        );
        assert!(t > serial_estimate / 8.0);
    }

    #[test]
    fn empty_image_is_instant() {
        let cfg = CerealConfig::paper();
        let mut dram = Dram::new(cfg.dram);
        let run = DeserializationUnit::new(&cfg).run(
            &cfg,
            &DeWorkload::default(),
            7.0,
            &mut dram,
            0x9_0000_0000,
        );
        assert_eq!(run.start_ns, 7.0);
        assert_eq!(run.end_ns, 7.0);
    }

    #[test]
    fn traffic_scales_with_image() {
        let cfg = CerealConfig::paper();
        let mut dram = Dram::new(cfg.dram);
        let w = synthetic_workload(1 << 20, 0.1);
        let run = DeserializationUnit::new(&cfg).run(&cfg, &w, 0.0, &mut dram, 0x9_0000_0000);
        let total = run.read_bytes + run.write_bytes;
        // Roughly: read the stream (~0.9 MB values + refs + bitmaps) and
        // write the 1 MB image.
        assert!(total as f64 > 1.5 * (1 << 20) as f64, "total {total}");
        assert!((run.write_bytes as f64) > 0.8 * (1 << 20) as f64);
    }
}
