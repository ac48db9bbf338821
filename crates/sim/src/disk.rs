//! Disk device model for spill and persistence.
//!
//! The block store (`crates/store`) needs a fourth device class next to
//! DRAM, caches, and the network: a block device with a per-operation
//! positioning cost and finite transfer bandwidth. The model books its
//! bandwidth on the same order-insensitive [`crate::ledger::Ledger`] as
//! [`crate::dram`] and [`crate::net`], so requests issued by sequentially
//! simulated executors overlap in simulated time exactly as they would
//! on real hardware:
//!
//! * **seek**: an access whose offset is not where the previous access
//!   left the head pays the configured positioning latency (mechanical
//!   seek + rotational delay on an HDD; FTL/translation and command
//!   overhead on flash). Sequential continuation is free — the regime
//!   spill files are laid out for;
//! * **transfer**: `bytes / bytes_per_ns`, booked against the device's
//!   bandwidth ledger so concurrent spills and fetches queue instead of
//!   magically overlapping.

use crate::ledger::Ledger;

/// Disk configuration.
#[derive(Clone, Copy, Debug)]
pub struct DiskConfig {
    /// Sustained transfer bandwidth in bytes per nanosecond
    /// (1 GB/s = 1.0 B/ns).
    pub bytes_per_ns: f64,
    /// Positioning cost in nanoseconds for a non-sequential access.
    pub seek_ns: f64,
    /// Display name for reports.
    pub name: &'static str,
}

impl DiskConfig {
    /// A 7200 rpm hard disk: ~160 MB/s sustained, ~8 ms average
    /// seek + rotational delay.
    pub fn hdd() -> Self {
        DiskConfig {
            bytes_per_ns: 0.16,
            seek_ns: 8_000_000.0,
            name: "hdd",
        }
    }

    /// A SATA SSD: ~500 MB/s, ~60 µs access overhead.
    pub fn ssd() -> Self {
        DiskConfig {
            bytes_per_ns: 0.5,
            seek_ns: 60_000.0,
            name: "ssd",
        }
    }

    /// An NVMe flash drive: ~3 GB/s, ~10 µs access overhead.
    pub fn nvme() -> Self {
        DiskConfig {
            bytes_per_ns: 3.0,
            seek_ns: 10_000.0,
            name: "nvme",
        }
    }

    /// Estimated uncontended service time of one `bytes`-sized
    /// non-sequential access — what a cost-based policy compares against
    /// a recomputation estimate before choosing a path.
    pub fn access_estimate_ns(&self, bytes: u64) -> f64 {
        self.seek_ns + bytes as f64 / self.bytes_per_ns
    }
}

/// Bucket granularity of the bandwidth ledger. Disk latencies are
/// tens-of-µs to ms scale; 1 µs buckets resolve queueing without
/// bloating the ledger.
const BUCKET_NS: f64 = 1000.0;

/// One serviced access on the device timeline — what the telemetry
/// exporter renders as a disk busy window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiskWindow {
    /// Issue time (includes any seek in the window).
    pub start_ns: f64,
    /// Completion time.
    pub end_ns: f64,
    /// Bytes transferred.
    pub bytes: u64,
    /// Write (`true`) or read (`false`).
    pub write: bool,
}

/// The disk model: one head/queue position, one bandwidth ledger.
#[derive(Clone, Debug)]
pub struct Disk {
    cfg: DiskConfig,
    ledger: Ledger,
    /// Byte offset just past the previous access (sequential detection).
    head: u64,
    read_bytes: u64,
    write_bytes: u64,
    reads: u64,
    writes: u64,
    seeks: u64,
    /// Busy-window tape, recorded only when telemetry asks for it.
    tape: Option<Vec<DiskWindow>>,
}

impl Disk {
    /// A disk with the given configuration.
    pub fn new(cfg: DiskConfig) -> Self {
        Disk {
            cfg,
            ledger: Ledger::new(),
            head: 0,
            read_bytes: 0,
            write_bytes: 0,
            reads: 0,
            writes: 0,
            seeks: 0,
            tape: None,
        }
    }

    /// Starts recording one [`DiskWindow`] per access. Off by default —
    /// the hot path pays one `Option` check.
    pub fn record_tape(&mut self) {
        self.tape.get_or_insert_with(Vec::new);
    }

    /// Drains the recorded busy windows (empty unless
    /// [`Disk::record_tape`] was called).
    pub fn take_tape(&mut self) -> Vec<DiskWindow> {
        self.tape.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// The configuration.
    pub fn config(&self) -> DiskConfig {
        self.cfg
    }

    fn access(&mut self, offset: u64, bytes: u64, now_ns: f64, is_write: bool) -> f64 {
        debug_assert!(bytes > 0);
        let latency = if offset == self.head {
            0.0
        } else {
            self.seeks += 1;
            self.cfg.seek_ns
        };
        self.head = offset + bytes;
        let start = now_ns.max(0.0) + latency;
        let finish = self
            .ledger
            .book(start, bytes, BUCKET_NS, self.cfg.bytes_per_ns);
        let service = bytes as f64 / self.cfg.bytes_per_ns;
        let done = finish.max(start + service);
        if let Some(tape) = &mut self.tape {
            tape.push(DiskWindow {
                start_ns: now_ns.max(0.0),
                end_ns: done,
                bytes,
                write: is_write,
            });
        }
        done
    }

    /// Reads `bytes` at `offset` starting at `now_ns`; returns the
    /// completion time.
    pub fn read(&mut self, offset: u64, bytes: u64, now_ns: f64) -> f64 {
        self.reads += 1;
        self.read_bytes += bytes;
        self.access(offset, bytes, now_ns, false)
    }

    /// Writes `bytes` at `offset` starting at `now_ns`; returns the
    /// completion time (data durable).
    pub fn write(&mut self, offset: u64, bytes: u64, now_ns: f64) -> f64 {
        self.writes += 1;
        self.write_bytes += bytes;
        self.access(offset, bytes, now_ns, true)
    }

    /// Bytes read so far.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Bytes written so far.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Read operations issued.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Write operations issued.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Non-sequential accesses that paid the positioning cost.
    pub fn seeks(&self) -> u64 {
        self.seeks
    }

    /// Fraction of transfer bandwidth used over `elapsed_ns`.
    pub fn utilization(&self, elapsed_ns: f64) -> f64 {
        telemetry::ratio(
            (self.read_bytes + self.write_bytes) as f64,
            elapsed_ns * self.cfg.bytes_per_ns,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_access_pays_seek() {
        let mut d = Disk::new(DiskConfig::ssd());
        let done = d.write(1 << 20, 1000, 0.0);
        // seek + 1000 B / 0.5 B/ns = 60 µs + 2 µs.
        assert!(done >= 60_000.0 + 2000.0 - 1.0, "got {done}");
        assert_eq!(d.seeks(), 1);
    }

    #[test]
    fn sequential_continuation_skips_seek() {
        let mut d = Disk::new(DiskConfig::ssd());
        let a = d.write(0, 4096, 0.0); // offset 0 == initial head: sequential
        let b = d.write(4096, 4096, a);
        assert_eq!(d.seeks(), 0, "back-to-back appends never seek");
        assert!(
            b - a < 10_000.0,
            "continuation is transfer-only, got {}",
            b - a
        );
    }

    #[test]
    fn hdd_seeks_dominate_small_random_reads() {
        let mut hdd = Disk::new(DiskConfig::hdd());
        let mut nvme = Disk::new(DiskConfig::nvme());
        let mut h = 0.0f64;
        let mut n = 0.0f64;
        for i in 0..10u64 {
            // Alternating far offsets: every access seeks (the first
            // starts past the initial head position).
            let off = (i % 2) * (1 << 30) + (i + 1) * (1 << 20);
            h = hdd.read(off, 4096, h);
            n = nvme.read(off, 4096, n);
        }
        assert!(
            h > n * 100.0,
            "hdd {h} should be orders slower than nvme {n}"
        );
        assert_eq!(hdd.seeks(), 10);
    }

    #[test]
    fn bandwidth_saturates_and_queues() {
        let mut d = Disk::new(DiskConfig::nvme());
        // 100 × 1 MB sequential writes issued at t=0: they must queue.
        let mut last = 0.0f64;
        let mut off = 0u64;
        for _ in 0..100 {
            last = last.max(d.write(off, 1 << 20, 0.0));
            off += 1 << 20;
        }
        let util = d.utilization(last);
        assert!(util > 0.5, "util {util}");
        assert!(util <= 1.0 + 1e-9);
        // 100 MB at 3 GB/s ≈ 33 ms.
        assert!(last >= 100.0 * (1 << 20) as f64 / 3.0);
    }

    #[test]
    fn counters() {
        let mut d = Disk::new(DiskConfig::ssd());
        d.write(0, 100, 0.0);
        let t = d.read(0, 100, 1e9);
        assert!(t > 1e9);
        assert_eq!(d.read_bytes(), 100);
        assert_eq!(d.write_bytes(), 100);
        assert_eq!(d.reads(), 1);
        assert_eq!(d.writes(), 1);
        assert_eq!(d.utilization(0.0), 0.0);
    }

    #[test]
    fn tape_records_only_when_enabled() {
        let mut d = Disk::new(DiskConfig::ssd());
        d.write(0, 64, 0.0);
        assert!(d.take_tape().is_empty(), "tape off by default");
        d.record_tape();
        let done = d.write(64, 4096, 10.0);
        let t = d.take_tape();
        assert_eq!(t.len(), 1);
        assert_eq!(t[0].bytes, 4096);
        assert!(t[0].write);
        assert_eq!(t[0].start_ns, 10.0);
        assert_eq!(t[0].end_ns, done);
        assert!(d.take_tape().is_empty(), "take drains");
    }

    #[test]
    fn access_estimate_matches_uncontended_access() {
        let cfg = DiskConfig::hdd();
        let mut d = Disk::new(cfg);
        let est = cfg.access_estimate_ns(1 << 20);
        let done = d.read(1 << 30, 1 << 20, 0.0);
        assert!(
            (done - est).abs() < BUCKET_NS + 1.0,
            "estimate {est} vs actual {done}"
        );
    }
}
