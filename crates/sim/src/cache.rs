//! Set-associative cache hierarchy (the paper's host: i7-7820X).
//!
//! Three levels with Table I geometry — 32 KB L1D, 1 MB private L2,
//! 11 MB shared L3 — 64 B lines, LRU replacement, write-allocate,
//! write-back. The hierarchy reports which level served each access and
//! counts per-level hits/misses plus DRAM fill/write-back traffic, feeding
//! the LLC-miss-rate and bandwidth panels of Fig. 3.

/// Which level of the hierarchy served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HitLevel {
    /// Served by the L1 data cache.
    L1,
    /// Served by the private L2.
    L2,
    /// Served by the shared L3 (LLC).
    L3,
    /// Missed everywhere; served by DRAM.
    Memory,
}

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug)]
pub struct LevelConfig {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways).
    pub ways: usize,
    /// Line size in bytes.
    pub line: u64,
}

impl LevelConfig {
    fn sets(&self) -> usize {
        (self.capacity / (self.line * self.ways as u64)) as usize
    }
}

/// One set-associative cache level.
///
/// Lines are one flat, zero-initialised allocation of `sets × ways`
/// entries `[tag << 1 | dirty, lru]`, set after set. Every access and
/// fill advances the tick, and a fill stamps the line with it. A line is
/// valid only if `lru > epoch`: [`Cache::reset`] moves the epoch up to
/// the current tick, which invalidates every line in O(1) without
/// touching them, and a new cache (epoch 0, all `lru` 0) starts empty.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: LevelConfig,
    nsets: usize,
    lines: Vec<[u64; 2]>,
    tick: u64,
    /// Lines stamped at or before this tick are invalid.
    epoch: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// A cache with the given geometry.
    ///
    /// # Panics
    /// Panics if the geometry does not divide into whole sets.
    pub fn new(cfg: LevelConfig) -> Self {
        let nsets = cfg.sets();
        assert!(nsets > 0, "cache too small for its ways/line");
        assert_eq!(
            cfg.capacity,
            nsets as u64 * cfg.line * cfg.ways as u64,
            "geometry must tile capacity exactly"
        );
        Cache {
            cfg,
            nsets,
            lines: vec![[0; 2]; nsets * cfg.ways],
            tick: 0,
            epoch: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The set index, tag and lines of the set `addr` maps to.
    fn set(&mut self, addr: u64) -> (usize, u64, &mut [[u64; 2]]) {
        let block = addr / self.cfg.line;
        let set_idx = (block as usize) % self.nsets;
        let ways = self.cfg.ways;
        let set = &mut self.lines[set_idx * ways..][..ways];
        (set_idx, block / self.nsets as u64, set)
    }

    /// Looks up a line; on hit, refreshes LRU and applies `write` to the
    /// dirty bit. Returns whether it hit.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        self.tick += 1;
        let (tick, epoch) = (self.tick, self.epoch);
        let (_, tag, set) = self.set(addr);
        if let Some(line) = set.iter_mut().find(|l| l[0] >> 1 == tag && l[1] > epoch) {
            line[0] |= u64::from(write);
            line[1] = tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        false
    }

    /// Fills a line (after a miss was serviced below), returning the
    /// evicted dirty line's address if a write-back is needed.
    pub fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
        self.tick += 1;
        let (tick, epoch) = (self.tick, self.epoch);
        let (line_bytes, nsets) = (self.cfg.line, self.nsets as u64);
        let (set_idx, tag, set) = self.set(addr);
        // First least-recent line; invalid lines (lru <= epoch: key 0)
        // go first, and valid lines keep their LRU order.
        let victim = set
            .iter_mut()
            .min_by_key(|l| l[1].saturating_sub(epoch))
            .expect("ways > 0");
        // Only a valid dirty line writes back: a line a reset invalidated
        // keeps its dirty bit, but its data is gone.
        let evicted = (victim[1] > epoch && victim[0] & 1 == 1)
            .then(|| ((victim[0] >> 1) * nsets + set_idx as u64) * line_bytes);
        *victim = [tag << 1 | u64::from(write), tick];
        evicted
    }

    /// Empties the cache and zeroes its hit/miss counts in O(1): every
    /// line stamped so far falls at or below the new epoch. Afterwards
    /// the cache behaves access for access as a new one of its geometry
    /// (the tick keeps running, which shifts every `lru` stamp by the
    /// same amount and so leaves every LRU choice as it was).
    pub fn reset(&mut self) {
        self.epoch = self.tick;
        self.hits = 0;
        self.misses = 0;
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over all accesses (0 if never accessed).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Three-level hierarchy with the i7-7820X geometry.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// L1 data cache.
    pub l1: Cache,
    /// Private unified L2.
    pub l2: Cache,
    /// Shared LLC.
    pub l3: Cache,
    /// Line size shared by all levels.
    pub line: u64,
    /// 64 B lines written back to DRAM.
    pub writebacks: u64,
}

impl Hierarchy {
    /// The evaluation machine's hierarchy (Table I).
    pub fn i7_7820x() -> Self {
        let line = 64;
        Hierarchy {
            l1: Cache::new(LevelConfig {
                capacity: 32 << 10,
                ways: 8,
                line,
            }),
            l2: Cache::new(LevelConfig {
                capacity: 1 << 20,
                ways: 16,
                line,
            }),
            l3: Cache::new(LevelConfig {
                capacity: 11 << 20,
                ways: 11,
                line,
            }),
            line,
            writebacks: 0,
        }
    }

    /// Accesses one address (the caller splits multi-line accesses).
    /// Returns the serving level; misses are filled top-down
    /// (write-allocate) and dirty LLC evictions counted as write-backs.
    pub fn access(&mut self, addr: u64, write: bool) -> HitLevel {
        if self.l1.access(addr, write) {
            return HitLevel::L1;
        }
        if self.l2.access(addr, write) {
            self.l1.fill(addr, write);
            return HitLevel::L2;
        }
        if self.l3.access(addr, write) {
            self.l2.fill(addr, write);
            self.l1.fill(addr, write);
            return HitLevel::L3;
        }
        // Miss to memory: fill all levels; dirty LLC victims write back.
        if self.l3.fill(addr, write).is_some() {
            self.writebacks += 1;
        }
        self.l2.fill(addr, write);
        self.l1.fill(addr, write);
        HitLevel::Memory
    }

    /// Splits an arbitrary `[addr, addr+bytes)` access into line accesses
    /// and returns the worst (slowest) serving level.
    pub fn access_range(&mut self, addr: u64, bytes: u64, write: bool) -> HitLevel {
        let first = addr / self.line;
        let last = (addr + bytes.max(1) - 1) / self.line;
        let mut worst = HitLevel::L1;
        for block in first..=last {
            let level = self.access(block * self.line, write);
            if level > worst {
                worst = level;
            }
        }
        worst
    }

    /// Empties all three levels and zeroes the write-back count in O(1)
    /// (see [`Cache::reset`]).
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.l3.reset();
        self.writebacks = 0;
    }

    /// LLC (L3) miss rate — Fig. 3(b)'s metric.
    pub fn llc_miss_rate(&self) -> f64 {
        self.l3.miss_rate()
    }

    /// Total lines fetched from DRAM (L3 misses) — fill traffic.
    pub fn dram_fills(&self) -> u64 {
        self.l3.misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(LevelConfig {
            capacity: 1024,
            ways: 2,
            line: 64,
        }) // 8 sets
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x1000, false));
        c.fill(0x1000, false);
        assert!(c.access(0x1000, false));
        assert!(c.access(0x1038, false), "same 64 B line");
        assert!(!c.access(0x1040, false), "next line misses");
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small();
        // Three lines mapping to the same set (stride = sets*line = 512).
        c.fill(0x0, false);
        c.fill(0x200, false);
        assert!(c.access(0x0, false)); // refresh 0x0
        c.fill(0x400, false); // evicts 0x200 (LRU)
        assert!(c.access(0x0, false));
        assert!(!c.access(0x200, false));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small();
        c.fill(0x0, true); // dirty
        c.fill(0x200, false);
        let evicted = c.fill(0x400, false);
        assert_eq!(evicted, Some(0x0));
    }

    #[test]
    fn clean_eviction_reports_none() {
        let mut c = small();
        c.fill(0x0, false);
        c.fill(0x200, false);
        assert_eq!(c.fill(0x400, false), None);
    }

    #[test]
    fn reset_invalidates_every_line_and_zeroes_the_counts() {
        let mut c = small();
        c.fill(0x0, true); // set 0, tag 0, dirty, way 0
        c.fill(0x200, false); // set 0, tag 1, way 1
        assert!(c.access(0x0, false));
        assert!(!c.access(0x40, false));
        c.reset();
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert!(!c.access(0x0, false), "no hit after reset");
        assert!(!c.access(0x200, false), "no hit after reset");
        assert_eq!((c.hits(), c.misses()), (0, 2));
        // Both ways are invalid: the fill takes way 0, whose stale line
        // is dirty but must not write back.
        assert_eq!(
            c.fill(0x400, false),
            None,
            "a stale dirty victim never writes back"
        );
        assert_eq!(
            c.lines[0][0] >> 1,
            2,
            "the first invalid way (0) is the victim"
        );
        assert_eq!(c.fill(0x600, true), None);
        assert_eq!(c.lines[1][0] >> 1, 3, "then way 1");
        // Both ways now hold valid lines: plain LRU, and a valid dirty
        // line writes back again.
        assert_eq!(c.fill(0x800, false), None, "way 0 (clean) is the LRU line");
        assert_eq!(
            c.fill(0xa00, false),
            Some(0x600),
            "way 1 (dirty) writes back"
        );
    }

    #[test]
    fn reset_cache_replays_a_new_one() {
        let mut used = small();
        for i in 0..64u64 {
            used.fill(i * 0xc0, i % 3 == 0);
        }
        used.access(0x0, true);
        used.reset();
        let mut fresh = small();
        let mut x = 7u64;
        for _ in 0..20_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (addr, write) = ((x >> 20) % 0x1000, x >> 63 == 1);
            if (x >> 40) & 3 == 0 {
                assert_eq!(used.fill(addr, write), fresh.fill(addr, write));
            } else {
                assert_eq!(used.access(addr, write), fresh.access(addr, write));
            }
        }
        assert_eq!((used.hits(), used.misses()), (fresh.hits(), fresh.misses()));
    }

    #[test]
    fn reset_hierarchy_after_a_dirty_sweep_replays_a_new_one() {
        let mut used = Hierarchy::i7_7820x();
        // 12 MB of writes: every LLC line is valid and dirty.
        for i in 0..(12u64 << 20) / 64 {
            used.access(i * 64, true);
        }
        used.reset();
        assert_eq!(used.writebacks, 0);
        let mut fresh = Hierarchy::i7_7820x();
        for i in 0..40_000u64 {
            let addr = (i * 0x9e37_79b9) % (24 << 20);
            assert_eq!(
                used.access(addr, i % 3 == 0),
                fresh.access(addr, i % 3 == 0)
            );
        }
        assert_eq!(used.writebacks, fresh.writebacks);
        for (u, f) in [
            (&used.l1, &fresh.l1),
            (&used.l2, &fresh.l2),
            (&used.l3, &fresh.l3),
        ] {
            assert_eq!((u.hits(), u.misses()), (f.hits(), f.misses()));
        }
    }

    #[test]
    fn hierarchy_promotes_through_levels() {
        let mut h = Hierarchy::i7_7820x();
        assert_eq!(h.access(0x1000, false), HitLevel::Memory);
        assert_eq!(h.access(0x1000, false), HitLevel::L1);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = Hierarchy::i7_7820x();
        h.access(0x0, false);
        // Blow out L1 (32 KB, 8-way, 64 sets): 9+ lines in the same set.
        // Set stride in L1 = 64 sets * 64 B = 4 KB.
        for i in 1..=16u64 {
            h.access(i * 4096, false);
        }
        // 0x0 was evicted from L1 but lives in L2.
        assert_eq!(h.access(0x0, false), HitLevel::L2);
    }

    #[test]
    fn streaming_misses_dominate() {
        let mut h = Hierarchy::i7_7820x();
        // Stream 64 MB: far beyond LLC, every new line misses.
        for i in 0..100_000u64 {
            h.access(i * 64, false);
        }
        assert!(h.llc_miss_rate() > 0.99);
        assert_eq!(h.dram_fills(), 100_000);
    }

    #[test]
    fn working_set_in_l1_hits() {
        let mut h = Hierarchy::i7_7820x();
        for round in 0..10 {
            for i in 0..256u64 {
                // 16 KB working set
                h.access(i * 64, false);
            }
            if round == 0 {
                continue;
            }
        }
        assert!(h.l1.miss_rate() < 0.15, "rate {}", h.l1.miss_rate());
    }

    #[test]
    fn writebacks_counted_at_llc() {
        let mut h = Hierarchy::i7_7820x();
        // Write-stream far beyond LLC capacity twice so dirty lines evict.
        for i in 0..400_000u64 {
            h.access(i * 64, true);
        }
        assert!(h.writebacks > 0);
    }

    #[test]
    fn range_access_splits_lines() {
        let mut h = Hierarchy::i7_7820x();
        // 128 B spanning two lines: worst level is Memory on first touch.
        assert_eq!(h.access_range(0x100, 128, false), HitLevel::Memory);
        assert_eq!(h.access_range(0x100, 128, false), HitLevel::L1);
        // Crossing a line boundary mid-word also touches two lines.
        assert_eq!(h.access_range(0x1fc, 8, false), HitLevel::Memory);
        assert_eq!(h.access_range(0x200, 8, false), HitLevel::L1);
    }

    #[test]
    fn hitlevel_ordering() {
        assert!(HitLevel::L1 < HitLevel::L2);
        assert!(HitLevel::L3 < HitLevel::Memory);
    }
}
