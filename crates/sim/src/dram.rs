//! DDR4 memory-system model.
//!
//! Mirrors the paper's Table I memory system: DDR4-2400, 4 channels,
//! 19.2 GB/s per channel (76.8 GB/s aggregate), 40 ns zero-load latency.
//!
//! The model is a per-channel bandwidth queue: an access occupies its
//! channel for `bytes / channel_bandwidth` and completes one zero-load
//! latency after its service slot starts. Each channel's capacity is
//! booked on a [`crate::ledger::Ledger`]. Channels are interleaved on
//! 64 B line granularity. This is the same class of DRAM abstraction used
//! by the architectural simulators the paper builds on (ZSim, Sniper) and
//! is what both the CPU model and the Cereal accelerator model share — so
//! bandwidth-utilization comparisons (Figs. 11 and 15) come from one
//! meter.

use crate::ledger::Ledger;

/// DRAM configuration.
#[derive(Clone, Copy, Debug)]
pub struct DramConfig {
    /// Number of channels.
    pub channels: usize,
    /// Per-channel bandwidth in bytes per nanosecond (19.2 GB/s = 19.2 B/ns).
    pub channel_bytes_per_ns: f64,
    /// Zero-load latency in nanoseconds (a row-buffer *miss*).
    pub zero_load_ns: f64,
    /// Interleave granularity in bytes.
    pub interleave_bytes: u64,
    /// Banks per channel (row-buffer tracking granularity).
    pub banks_per_channel: usize,
    /// Row-buffer size in bytes.
    pub row_bytes: u64,
    /// Latency of a row-buffer *hit* in nanoseconds. The default equals
    /// `zero_load_ns` — row-buffer modeling off — so the Table I
    /// calibration is unchanged; use [`DramConfig::with_row_buffer`] for
    /// the finer model.
    pub row_hit_ns: f64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 4,
            channel_bytes_per_ns: 19.2,
            zero_load_ns: 40.0,
            interleave_bytes: 64,
            banks_per_channel: 4,
            row_bytes: 8192,
            row_hit_ns: 40.0,
        }
    }
}

impl DramConfig {
    /// The Table I system with open-row tracking: sequential streams pay
    /// ~26 ns row hits; random accesses pay the full 44 ns activate +
    /// access path.
    pub fn with_row_buffer() -> Self {
        DramConfig {
            zero_load_ns: 44.0,
            row_hit_ns: 26.0,
            ..Self::default()
        }
    }
}

impl DramConfig {
    /// Aggregate peak bandwidth in bytes per nanosecond (== GB/s).
    pub fn peak_bytes_per_ns(&self) -> f64 {
        self.channels as f64 * self.channel_bytes_per_ns
    }
}

/// Time-bucket granularity of the per-channel capacity ledger, in
/// nanoseconds. Fine enough to resolve zero-load-latency-scale queueing,
/// coarse enough to stay cheap.
const BUCKET_NS: f64 = 100.0;

/// The DRAM timing and accounting model.
///
/// ```
/// use sim::{Dram, DramConfig};
/// let mut dram = Dram::new(DramConfig::default());
/// let done = dram.read(0x1000, 64, 0.0);
/// assert!(done > 40.0, "zero-load latency applies");
/// assert_eq!(dram.total_bytes(), 64);
/// ```
///
/// Each channel is a fluid queue tracked in `BUCKET_NS` time buckets
/// by its own [`Ledger`]: an access books `bytes` of channel capacity
/// starting at its issue bucket, spilling into later buckets when one is
/// full. Booking is order-*insensitive*, so independent requesters (the
/// 8 SUs, 8 DUs, or a CPU core) can be simulated one after another and
/// still overlap in simulated time exactly as concurrent hardware would.
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    /// One capacity ledger per channel.
    ledger: Vec<Ledger>,
    /// Open row per (channel, bank).
    open_rows: Vec<Option<u64>>,
    row_hits: u64,
    row_misses: u64,
    total_bytes: u64,
    reads: u64,
    writes: u64,
}

impl Dram {
    /// A DRAM with the given configuration.
    pub fn new(cfg: DramConfig) -> Self {
        Dram {
            ledger: vec![Ledger::new(); cfg.channels],
            open_rows: vec![None; cfg.channels * cfg.banks_per_channel],
            row_hits: 0,
            row_misses: 0,
            cfg,
            total_bytes: 0,
            reads: 0,
            writes: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Issues a read of `bytes` at `addr` at time `now_ns`; returns the
    /// completion time (data available).
    pub fn read(&mut self, addr: u64, bytes: u64, now_ns: f64) -> f64 {
        self.reads += 1;
        self.access(addr, bytes, now_ns)
    }

    /// Issues a write of `bytes` at `addr` at time `now_ns`; returns the
    /// completion time (write drained).
    pub fn write(&mut self, addr: u64, bytes: u64, now_ns: f64) -> f64 {
        self.writes += 1;
        self.access(addr, bytes, now_ns)
    }

    fn access(&mut self, addr: u64, bytes: u64, now_ns: f64) -> f64 {
        debug_assert!(bytes > 0);
        let ch = ((addr / self.cfg.interleave_bytes) as usize) % self.cfg.channels;
        // Row-buffer lookup: same row in the same bank serves faster.
        let row = addr / self.cfg.row_bytes;
        let bank = (row as usize) % self.cfg.banks_per_channel;
        let slot = ch * self.cfg.banks_per_channel + bank;
        let latency = if self.open_rows[slot] == Some(row) {
            self.row_hits += 1;
            self.cfg.row_hit_ns
        } else {
            self.row_misses += 1;
            self.open_rows[slot] = Some(row);
            self.cfg.zero_load_ns
        };
        let finish = self.ledger[ch].book(now_ns, bytes, BUCKET_NS, self.cfg.channel_bytes_per_ns);
        let service = bytes as f64 / self.cfg.channel_bytes_per_ns;
        self.total_bytes += bytes;
        finish.max(now_ns + service) + latency
    }

    /// Total bytes transferred so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Read transactions issued.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Write transactions issued.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Fraction of aggregate peak bandwidth used over `elapsed_ns` — the
    /// meter behind Figs. 11 and 15.
    pub fn utilization(&self, elapsed_ns: f64) -> f64 {
        telemetry::ratio(
            self.total_bytes as f64,
            elapsed_ns * self.cfg.peak_bytes_per_ns(),
        )
    }

    /// Achieved bandwidth in GB/s over `elapsed_ns`.
    pub fn bandwidth_gbps(&self, elapsed_ns: f64) -> f64 {
        telemetry::ratio(self.total_bytes as f64, elapsed_ns)
    }

    /// Row-buffer hits observed (meaningful with
    /// [`DramConfig::with_row_buffer`]).
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer misses observed.
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }

    /// Returns the DRAM to its state at construction: empty channel
    /// ledgers, no open rows, zero counters. The ledgers keep their
    /// allocations.
    pub fn reset(&mut self) {
        self.ledger.iter_mut().for_each(Ledger::clear);
        self.open_rows.fill(None);
        self.total_bytes = 0;
        self.reads = 0;
        self.writes = 0;
        self.row_hits = 0;
        self.row_misses = 0;
    }
}

impl Default for Dram {
    fn default() -> Self {
        Dram::new(DramConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_load_latency_applies() {
        let mut d = Dram::default();
        let done = d.read(0, 64, 0.0);
        // 64 B at 19.2 B/ns ≈ 3.33 ns service + 40 ns latency.
        assert!((done - (64.0 / 19.2 + 40.0)).abs() < 1e-9);
    }

    #[test]
    fn same_channel_queues() {
        let mut d = Dram::default();
        let a = d.read(0, 64, 0.0);
        let b = d.read(0, 64, 0.0); // same channel (same line)
        assert!(b > a, "second access must queue behind the first");
    }

    #[test]
    fn different_channels_overlap() {
        let mut d = Dram::default();
        let a = d.read(0, 64, 0.0);
        let b = d.read(64, 64, 0.0); // next line → next channel
        assert!((a - b).abs() < 1e-9, "distinct channels serve in parallel");
    }

    #[test]
    fn peak_bandwidth_is_sustainable() {
        let mut d = Dram::default();
        // Stream 1 MB across all channels back-to-back.
        let mut now = 0.0f64;
        let lines = 16384; // 1 MB / 64 B
        let mut last = 0.0f64;
        for i in 0..lines {
            last = last.max(d.read(i * 64, 64, now));
            // Issue as fast as possible; channel queues absorb.
            now += 64.0 / d.config().peak_bytes_per_ns();
        }
        let elapsed = last;
        let util = d.utilization(elapsed);
        assert!(util > 0.9, "streaming should approach peak, got {util}");
        assert!(util <= 1.0 + 1e-9);
    }

    #[test]
    fn single_channel_hotspot_caps_at_quarter() {
        let mut d = Dram::default();
        let mut now = 0.0f64;
        let mut last = 0.0f64;
        for _ in 0..4096 {
            last = last.max(d.read(0, 64, now));
            now += 1.0;
        }
        let util = d.utilization(last);
        assert!(
            util <= 0.25 + 1e-6,
            "one channel is a quarter of peak, got {util}"
        );
    }

    #[test]
    fn row_buffer_rewards_sequential_streams() {
        let mut d = Dram::new(DramConfig::with_row_buffer());
        // Sequential within one 8 KB row on one channel: first access
        // opens the row, the rest hit.
        let mut now = 0.0;
        for i in 0..8u64 {
            d.read(i * 256, 64, now); // same channel? stride 256 → ch rotates
            now += 100.0;
        }
        assert!(d.row_hits() > 0, "sequential accesses should hit open rows");

        let mut rand = Dram::new(DramConfig::with_row_buffer());
        let mut now = 0.0;
        for i in 0..8u64 {
            // Same channel+bank, alternating rows: all misses.
            rand.read((i % 2) * 8192 * 16, 64, now);
            now += 100.0;
        }
        assert_eq!(rand.row_hits(), 0);
        assert_eq!(rand.row_misses(), 8);
    }

    #[test]
    fn row_buffer_changes_latency() {
        let mut d = Dram::new(DramConfig::with_row_buffer());
        let miss = d.read(0, 64, 0.0);
        let hit = d.read(64 * 4, 64, 1000.0) - 1000.0; // same row, same channel 0? stride 256 → ch (256/64)%4=0 ✓
        assert!(
            hit < miss,
            "row hit ({hit}) must be faster than the opening miss ({miss})"
        );
    }

    #[test]
    fn default_config_has_row_buffer_off() {
        let c = DramConfig::default();
        assert_eq!(
            c.row_hit_ns, c.zero_load_ns,
            "defaults preserve calibration"
        );
    }

    #[test]
    fn counters_and_reset() {
        let mut d = Dram::default();
        d.read(0, 64, 0.0);
        d.write(64, 32, 0.0);
        assert_eq!(d.total_bytes(), 96);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
        d.reset();
        assert_eq!(d.total_bytes(), 0);
    }

    /// A seeded mix of reads and writes over a few rows and channels, at
    /// issue times that queue; returns every completion time as bits.
    fn drive(d: &mut Dram, seed: u64) -> Vec<u64> {
        let mut x = seed;
        (0..4000)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = (x >> 24) % (1 << 20) / 64 * 64;
                let now = i as f64 * 2.5;
                let done = if x >> 63 == 1 {
                    d.write(addr, 64, now)
                } else {
                    d.read(addr, 128, now)
                };
                done.to_bits()
            })
            .collect()
    }

    #[test]
    fn reset_dram_replays_a_new_one() {
        for cfg in [DramConfig::default(), DramConfig::with_row_buffer()] {
            let mut used = Dram::new(cfg);
            drive(&mut used, 1);
            used.reset();
            let mut fresh = Dram::new(cfg);
            assert_eq!(drive(&mut used, 2), drive(&mut fresh, 2));
            let counters = |d: &Dram| {
                (
                    d.total_bytes(),
                    d.reads(),
                    d.writes(),
                    d.row_hits(),
                    d.row_misses(),
                )
            };
            assert_eq!(counters(&used), counters(&fresh));
        }
    }

    #[test]
    fn utilization_handles_zero_elapsed() {
        let d = Dram::default();
        assert_eq!(d.utilization(0.0), 0.0);
        assert_eq!(d.bandwidth_gbps(0.0), 0.0);
    }
}
