//! Frozen behaviour of the cache model, access for access.
//!
//! Two seeded streams run through `sim::cache`:
//!
//! - [`hierarchy_stream`] drives `Hierarchy::i7_7820x()` with reads and
//!   writes over an L1-sized, an L2-sized and an LLC-sized region,
//!   multi-line `access_range` spans, and a write sweep then a read
//!   sweep past the 11 MB LLC, so dirty LLC lines write back.
//! - [`small_cache_stream`] drives one 8-set `1024/2/64` `Cache` and
//!   calls `fill` directly, also for lines already present, so a set can
//!   hold the same tag twice and the victim's way order shows.
//!
//! Each pins an FNV-1a-64 over every returned `HitLevel` (or hit bit)
//! and every `fill` eviction address, plus the write-back count and each
//! level's hits and misses. Any change to hit/miss, the LRU victim, its
//! tie-break or the dirty bit moves a row. On a mismatch the test prints
//! the actual row.

use sdheap::rng::Rng;
use sim::cache::{Cache, Hierarchy, HitLevel, LevelConfig};

/// Streaming FNV-1a-64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
struct Row {
    digest: u64,
    writebacks: u64,
    /// `(hits, misses)` per level, L1 first.
    levels: Vec<(u64, u64)>,
}

fn level_byte(level: HitLevel) -> u8 {
    match level {
        HitLevel::L1 => 1,
        HitLevel::L2 => 2,
        HitLevel::L3 => 3,
        HitLevel::Memory => 4,
    }
}

fn hierarchy_stream(seed: u64) -> Row {
    let mut h = Hierarchy::i7_7820x();
    let mut rng = Rng::new(seed);
    let mut fnv = Fnv::new();
    let mut mixed = |h: &mut Hierarchy, fnv: &mut Fnv, n: usize| {
        for _ in 0..n {
            let region = match rng.gen_range_u64(0, 10) {
                0..=3 => 24 << 10,
                4..=6 => 768 << 10,
                7..=8 => 8 << 20,
                _ => 16 << 20,
            };
            let addr = rng.gen_range_u64(0, region);
            let write = rng.gen_bool(0.4);
            let level = if rng.gen_bool(0.3) {
                h.access_range(addr, rng.gen_range_u64(1, 300), write)
            } else {
                h.access(addr, write)
            };
            fnv.eat(&[level_byte(level)]);
        }
    };
    mixed(&mut h, &mut fnv, 60_000);
    // Dirty the LLC past its capacity, then stream reads through it.
    for addr in (0..12u64 << 20).step_by(64) {
        fnv.eat(&[level_byte(h.access(addr, true))]);
    }
    for addr in (32u64 << 20..44 << 20).step_by(64) {
        fnv.eat(&[level_byte(h.access(addr, false))]);
    }
    mixed(&mut h, &mut fnv, 60_000);
    Row {
        digest: fnv.0,
        writebacks: h.writebacks,
        levels: [&h.l1, &h.l2, &h.l3]
            .iter()
            .map(|c| (c.hits(), c.misses()))
            .collect(),
    }
}

fn small_cache_stream(seed: u64) -> Row {
    let mut c = Cache::new(LevelConfig {
        capacity: 1024,
        ways: 2,
        line: 64,
    });
    let mut rng = Rng::new(seed);
    let mut fnv = Fnv::new();
    let mut writebacks = 0;
    for _ in 0..50_000 {
        // 64 lines over 8 sets of 2 ways: hits, misses and conflicts.
        let addr = rng.gen_range_u64(0, 4096);
        let write = rng.gen_bool(0.5);
        let fill = if rng.gen_bool(0.15) {
            // A fill with no lookup first, as a prefetch would issue.
            true
        } else {
            let hit = c.access(addr, write);
            fnv.eat(&[u8::from(hit)]);
            !hit
        };
        if fill {
            let evicted = c.fill(addr, write);
            writebacks += u64::from(evicted.is_some());
            fnv.eat(&[u8::from(evicted.is_some())]);
            fnv.eat(&evicted.unwrap_or(0).to_le_bytes());
        }
    }
    Row {
        digest: fnv.0,
        writebacks,
        levels: vec![(c.hits(), c.misses())],
    }
}

fn check(name: &str, actual: Row, expected: Row) {
    assert_eq!(
        actual, expected,
        "{name}: actual digest {:#x}, writebacks {}, levels {:?}",
        actual.digest, actual.writebacks, actual.levels
    );
}

#[test]
fn i7_7820x_hierarchy_is_frozen() {
    check(
        "hierarchy",
        hierarchy_stream(0xCAC4E),
        Row {
            digest: 0xa74a_c322_474b_07c1,
            writebacks: 194_882,
            levels: vec![(39_312, 557_957), (84_185, 473_772), (39_739, 434_033)],
        },
    );
}

#[test]
fn eight_set_cache_with_direct_fills_is_frozen() {
    check(
        "small cache",
        small_cache_stream(0x5E7),
        Row {
            digest: 0x050e_249a_1713_5328,
            writebacks: 22_097,
            levels: vec![(10_581, 31_952)],
        },
    );
}
