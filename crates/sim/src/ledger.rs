//! The time-bucket capacity ledger shared by every bandwidth-limited
//! device: DRAM channels ([`crate::dram`]), network links
//! ([`crate::net`]) and the disk ([`crate::disk`]).
//!
//! A device is a fluid queue tracked in fixed-width time buckets, each
//! holding `bucket_ns × bytes_per_ns` bytes of capacity. A booking of
//! `bytes` starting at time `t` fills the bucket containing `t`, then
//! spills into later buckets until all its bytes fit, and completes at
//! the cumulative fill point of the last bucket it touched. Booking is
//! order-*insensitive*: independent requesters simulated one after
//! another still overlap in simulated time as concurrent hardware
//! would, where a plain "free-at" frontier would falsely serialize
//! them.
//!
//! **Frontier skip.** The ledger also keeps a frontier: every bucket
//! below it is known to be full. A walk that starts below the frontier
//! would only visit full buckets there, each contributing `free == 0.0`
//! and leaving the bytes still to place unchanged, so the walk jumps
//! straight to the frontier. Finish times and booked bytes are
//! bit-identical to a walk that ticks through every bucket, which
//! `tests/ledger_equiv.rs` keeps as its reference.
//!
//! Bucket maps are keyed through `IntMap`, a multiplicative integer
//! hash: they are never iterated, so the hash cannot change an output,
//! and it is far cheaper than the default SipHash on the booking walk.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed by integers through [`IntHasher`].
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A multiplicative (Fibonacci) hasher for integer keys. Low bits of
/// consecutive keys spread across the table; high bits depend on every
/// key bit. Not DoS-resistant — keys here are simulator-internal.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IntHasher(u64);

/// 2^64 / φ, odd, so multiplication is a bijection on `u64`.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(FIB);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(8) ^ n).wrapping_mul(FIB);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// One device's bucket → booked-bytes ledger with its frontier.
///
/// The device's bucket width and drain rate are passed to each
/// [`Ledger::book`] rather than stored: a 1000-executor fabric holds a
/// ledger per materialized pair link, so the ledger stays as small as
/// the bare map it replaced.
///
/// ```
/// use sim::ledger::Ledger;
/// // 1 µs buckets at 1 B/ns: 1000 B of capacity each.
/// let mut l = Ledger::new();
/// assert_eq!(l.book(0.0, 400, 1000.0, 1.0), 400.0);
/// // Spills past the first bucket: 600 B left there, 400 B in the next.
/// assert_eq!(l.book(0.0, 1000, 1000.0, 1.0), 1400.0);
/// assert_eq!(l.booked(0), 1000.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    booked: IntMap<u64, f64>,
    /// Every bucket below this index is full.
    frontier: u64,
}

impl Ledger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Books `bytes` (> 0) of capacity from `start_ns` on, in
    /// `bucket_ns`-wide buckets draining at `bytes_per_ns`; returns when
    /// the last byte drains, by cumulative fill of its bucket. Callers
    /// clamp this against `start + bytes / bytes_per_ns` and add their
    /// own latency. A ledger must always be booked with the same
    /// geometry.
    pub fn book(&mut self, start_ns: f64, bytes: u64, bucket_ns: f64, bytes_per_ns: f64) -> f64 {
        debug_assert!(bytes > 0);
        let cap = bucket_ns * bytes_per_ns;
        let mut bucket = ((start_ns.max(0.0) / bucket_ns) as u64).max(self.frontier);
        let first = bucket;
        let mut left = bytes as f64;
        let finish;
        loop {
            let used = self.booked.entry(bucket).or_insert(0.0);
            let free = cap - *used;
            if free >= left {
                *used += left;
                finish = bucket as f64 * bucket_ns + *used / bytes_per_ns;
                break;
            }
            left -= free;
            *used = cap;
            bucket += 1;
        }
        // The walk saturated [first, bucket); if it started at or below
        // the frontier, everything below `bucket` is now full.
        if first <= self.frontier && bucket > self.frontier {
            self.frontier = bucket;
        }
        finish
    }

    /// Empties the ledger (every bucket free, frontier 0), keeping the
    /// map's allocation.
    pub fn clear(&mut self) {
        self.booked.clear();
        self.frontier = 0;
    }

    /// Bytes booked in `bucket` (0.0 if never touched).
    pub fn booked(&self, bucket: u64) -> f64 {
        self.booked.get(&bucket).copied().unwrap_or(0.0)
    }
}
