//! The frontier skip in `sim::ledger::Ledger` is a pure host-time
//! optimization: with it on, every booking must finish at the same f64
//! bits, and leave the same booked bytes in every bucket, as the
//! tick-every-bucket walk the DRAM, network and disk models each used
//! to carry. This test keeps a copy of that walk as the reference and
//! drives both with seeded random bookings — out of order in time,
//! spanning many buckets, filling buckets exactly to capacity, and
//! starting below the frontier — at the bucket width and bandwidth of
//! each device that books on a ledger.

use std::collections::HashMap;

use sdheap::rng::Rng;
use sim::ledger::Ledger;

/// The walk as each device model carried it: tick through every bucket
/// from the start bucket, full or not.
struct TickLedger {
    bucket_ns: f64,
    bytes_per_ns: f64,
    booked: HashMap<u64, f64>,
}

impl TickLedger {
    fn book(&mut self, start_ns: f64, bytes: u64) -> f64 {
        let cap = self.bucket_ns * self.bytes_per_ns;
        let mut bucket = (start_ns.max(0.0) / self.bucket_ns) as u64;
        let mut left = bytes as f64;
        loop {
            let used = self.booked.entry(bucket).or_insert(0.0);
            let free = cap - *used;
            if free >= left {
                *used += left;
                return bucket as f64 * self.bucket_ns + *used / self.bytes_per_ns;
            }
            left -= free;
            *used = cap;
            bucket += 1;
        }
    }

    fn free_at(&self, bucket: u64) -> f64 {
        self.bucket_ns * self.bytes_per_ns - self.booked.get(&bucket).copied().unwrap_or(0.0)
    }
}

/// `(name, bucket_ns, bytes_per_ns)` of every ledger in the simulator:
/// one DRAM channel, a 10 GbE link (pair link and NICs alike), and the
/// three disk presets.
const DEVICES: [(&str, f64, f64); 5] = [
    ("dram", 100.0, 19.2),
    ("10gbe", 1000.0, 1.25),
    ("hdd", 1000.0, 0.16),
    ("ssd", 1000.0, 0.5),
    ("nvme", 1000.0, 3.0),
];

fn check_device(name: &str, bucket_ns: f64, bytes_per_ns: f64, seed: u64) {
    let cap = bucket_ns * bytes_per_ns;
    let mut rng = Rng::new(seed);
    let mut skip = Ledger::new(true);
    let mut tick = Ledger::new(false);
    let mut reference = TickLedger {
        bucket_ns,
        bytes_per_ns,
        booked: HashMap::new(),
    };
    let mut clock = 0.0f64;
    let (mut exact_fills, mut starts_in_full, mut spans) = (0, 0, 0);
    for i in 0..2000 {
        // Mostly at the advancing clock, sometimes back in the booked
        // past.
        clock += rng.gen_range_f64(0.0, 4.0 * bucket_ns);
        let now = match rng.gen_range_u64(0, 10) {
            0 => 0.0,
            1 => rng.gen_range_f64(0.0, clock),
            _ => clock,
        };
        let start_bucket = (now / bucket_ns) as u64;
        let free = reference.free_at(start_bucket);
        let bytes = match rng.gen_range_u64(0, 8) {
            // Exactly what is left in the start bucket (when whole).
            0 | 1 if free >= 1.0 && free.fract() == 0.0 => {
                exact_fills += 1;
                free as u64
            }
            // A multi-bucket span.
            2 => {
                spans += 1;
                rng.gen_range_u64(cap as u64 + 1, 6 * cap as u64)
            }
            // Exactly one bucket's capacity.
            3 => cap.ceil() as u64,
            _ => rng.gen_range_u64(1, cap.ceil() as u64),
        };
        if free == 0.0 {
            starts_in_full += 1;
        }
        let want = reference.book(now, bytes);
        let got = skip.book(now, bytes, bucket_ns, bytes_per_ns);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{name} booking {i}: {got} vs {want}"
        );
        assert_eq!(
            tick.book(now, bytes, bucket_ns, bytes_per_ns).to_bits(),
            want.to_bits(),
            "{name} tick {i}"
        );
    }
    assert!(
        exact_fills > 100 && spans > 100,
        "{name}: exact fills and spans exercised"
    );
    assert!(
        starts_in_full > 100,
        "{name}: only {starts_in_full} starts in full buckets"
    );
    let last = *reference.booked.keys().max().expect("bookings made");
    for b in 0..=last + 1 {
        let want = reference.booked.get(&b).copied().unwrap_or(0.0);
        assert_eq!(
            skip.booked(b).to_bits(),
            want.to_bits(),
            "{name} bucket {b}"
        );
        assert_eq!(
            tick.booked(b).to_bits(),
            want.to_bits(),
            "{name} tick bucket {b}"
        );
    }
}

#[test]
fn skip_matches_tick_reference_on_every_device() {
    for (k, (name, bucket_ns, bytes_per_ns)) in DEVICES.into_iter().enumerate() {
        for seed in 0..4u64 {
            check_device(
                name,
                bucket_ns,
                bytes_per_ns,
                0x1ED6_0000 + 16 * k as u64 + seed,
            );
        }
    }
}
