//! The block manager: a bounded memory region of serialized blocks with
//! LRU eviction, simulated disk spill, and lineage recomputation.
//!
//! Modeled on Spark's `BlockManager` in `MEMORY_SER` mode: each block is
//! a serialized object-graph stream produced by an
//! [`Engine`](crate::Engine). Blocks live in a memory region bounded by
//! [`StoreConfig::memory_budget`]; inserting past the budget evicts the
//! least-recently-used blocks, which either **spill** to a simulated
//! [`sim::Disk`] or are **dropped** for later lineage recomputation,
//! per [`MissPolicy`]. Every transition is charged on the caller's
//! simulated timeline: spill writes and fetch reads go through the
//! disk's seek + bandwidth time-bucket ledger, recomputation costs what
//! the [`BlockSource`] reports.
//!
//! The spill file holds the real bytes (this crate's components are
//! functional, not just timed), so a fetched block is byte-identical to
//! what was stored — test-enforced per backend. A block fetched back
//! from disk is promoted to memory but keeps its disk image: re-evicting
//! it later costs nothing, exactly like Spark's shuffle-safe spill
//! files, and bounds file growth under thrash.
//!
//! Faults: with [`StoreConfig::fault`] set, spill reloads can fail. A
//! **transient read error** ([`sim::FaultConfig::disk_read_error`]) is
//! retried with exponential backoff, every failed attempt's disk time
//! and backoff charged to the caller's clock; the final attempt within
//! the retry budget succeeds (the device-level retry model). A
//! **corrupted reload** ([`sim::FaultConfig::spill_corruption`],
//! only drawn for checksummed stores) really flips a byte of the
//! reloaded image, fails the [`sdformat::frame`] CRC check, and falls
//! back to the existing recompute-from-lineage path — the same
//! [`BlockSource`] that serves dropped blocks. Anomalies surface as
//! typed [`StoreError`]s, never panics.

use std::collections::BTreeMap;
use std::fmt;

use sdheap::rng::Rng;
use sim::fault::{corrupt_byte, stream};
use sim::{Disk, DiskConfig, FaultConfig};
use telemetry::{EntityId, Sink, Span};

/// What a cache miss does with a block that is no longer in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MissPolicy {
    /// Evictions spill to disk; misses fetch and deserialize.
    Fetch,
    /// Evictions drop the bytes; misses recompute from lineage (and
    /// re-serialize). The disk is never written.
    Recompute,
    /// Evictions compare the block's future fetch cost
    /// ([`DiskConfig::access_estimate_ns`]) against its recorded
    /// recomputation cost and pick the cheaper side.
    Auto,
}

impl MissPolicy {
    /// Display name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MissPolicy::Fetch => "fetch",
            MissPolicy::Recompute => "recompute",
            MissPolicy::Auto => "auto",
        }
    }
}

/// Block-store configuration.
#[derive(Clone, Copy, Debug)]
pub struct StoreConfig {
    /// Memory region for resident serialized blocks, in bytes.
    pub memory_budget: u64,
    /// Spill device model.
    pub disk: DiskConfig,
    /// Eviction/miss policy.
    pub policy: MissPolicy,
    /// Fault injection for spill reloads (`None` = fault-free). The
    /// caller mixes its scope (e.g. the mapper index) into the seed so
    /// per-store streams are independent and thread-count invariant.
    pub fault: Option<FaultConfig>,
    /// Whether stored blocks carry the [`sdformat::frame`] CRC footer;
    /// required for reload-corruption injection to be detectable.
    pub checksum: bool,
}

impl StoreConfig {
    /// A fault-free, checksum-less configuration — the pre-fault-model
    /// behaviour.
    pub fn plain(memory_budget: u64, disk: DiskConfig, policy: MissPolicy) -> Self {
        StoreConfig {
            memory_budget,
            disk,
            policy,
            fault: None,
            checksum: false,
        }
    }
}

/// Errors from a block-store operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The block id was never [`BlockStore::put`].
    UnknownBlock(usize),
    /// The block's bytes are gone (dropped, or its reload was corrupt)
    /// and the store has no lineage to rebuild it from.
    NoLineage(usize),
    /// Reload-corruption injection is configured but blocks carry no
    /// checksum frame, so corruption would be undetectable.
    ChecksumRequired,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownBlock(id) => write!(f, "unknown block {id}"),
            StoreError::NoLineage(id) => {
                write!(f, "block {id} is unrecoverable: no lineage to rebuild it from")
            }
            StoreError::ChecksumRequired => {
                write!(f, "spill-corruption injection requires checksummed blocks")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Rebuilds dropped blocks from lineage.
///
/// `recompute` returns the block's bytes — which must be identical to
/// what was originally stored (lineage is deterministic) — plus the
/// simulated nanoseconds the rebuild cost (graph construction, GC
/// pressure, and re-serialization).
pub trait BlockSource {
    /// Recomputes block `id` from lineage.
    ///
    /// # Errors
    /// [`StoreError::NoLineage`] when the block cannot be rebuilt.
    fn recompute(&mut self, id: usize) -> Result<(Vec<u8>, f64), StoreError>;
}

/// A [`BlockSource`] for stores whose blocks are never dropped
/// (spill-only configurations, e.g. shuffle spill files). Asking it to
/// rebuild anything is a typed error, not a panic.
pub struct NoLineage;

impl BlockSource for NoLineage {
    fn recompute(&mut self, id: usize) -> Result<(Vec<u8>, f64), StoreError> {
        Err(StoreError::NoLineage(id))
    }
}

/// How one [`BlockStore::get`] was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The block was resident in memory.
    Hit,
    /// The block was read back from the spill file.
    DiskFetch,
    /// The block was rebuilt from lineage.
    Recomputed,
}

/// One completed [`BlockStore::get`].
#[derive(Clone, Copy, Debug)]
pub struct Access {
    /// How the access was served.
    pub outcome: AccessOutcome,
    /// Completion time on the caller's simulated timeline (includes any
    /// eviction spill writes the access itself triggered).
    pub done_ns: f64,
}

/// Counters over a store's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StoreStats {
    /// Blocks inserted.
    pub puts: u64,
    /// Accesses served from memory.
    pub hits: u64,
    /// Accesses served from the spill file.
    pub disk_fetches: u64,
    /// Accesses served by lineage recomputation.
    pub recomputes: u64,
    /// Blocks evicted from the memory region.
    pub evictions: u64,
    /// Bytes evicted from the memory region.
    pub evicted_bytes: u64,
    /// Evictions that wrote a new spill image.
    pub spills: u64,
    /// Bytes newly written to the spill file.
    pub spilled_bytes: u64,
    /// Simulated time spent writing spill images.
    pub spill_ns: f64,
    /// Simulated time spent reading blocks back from disk.
    pub fetch_ns: f64,
    /// Simulated time spent recomputing dropped blocks.
    pub recompute_ns: f64,
    /// Transient disk read errors that were retried.
    pub read_retries: u64,
    /// Simulated time lost to failed reads and retry backoff.
    pub retry_ns: f64,
    /// Corrupted reloads detected by the block checksum (each recovered
    /// through lineage recomputation).
    pub checksum_errors: u64,
}

/// Where a block's bytes currently live.
struct Block {
    /// Resident serialized bytes (`None` once evicted).
    bytes: Option<Vec<u8>>,
    /// Stream length (survives eviction).
    len: u64,
    /// Offset of the block's spill image, if one was ever written.
    disk_offset: Option<u64>,
    /// Lineage rebuild cost recorded at `put`.
    recompute_ns: f64,
    /// Recency tick while resident (key into the LRU index).
    tick: Option<u64>,
}

/// Scope id for a store's private fault stream (the caller
/// differentiates stores via the fault seed).
const STORE_FAULT_SCOPE: u64 = 0x0D15_C0DE;

/// The block manager.
pub struct BlockStore {
    cfg: StoreConfig,
    disk: Disk,
    blocks: Vec<Block>,
    /// Append-only spill image: the real bytes behind the disk model.
    spill: Vec<u8>,
    /// Resident bytes.
    used: u64,
    /// Monotonic recency clock.
    clock: u64,
    /// LRU index: recency tick → block id (oldest first).
    lru: BTreeMap<u64, usize>,
    /// Seeded fault stream for spill reloads (`Some` iff `cfg.fault` is).
    fault_rng: Option<Rng>,
    stats: StoreStats,
}

impl BlockStore {
    /// An empty store.
    pub fn new(cfg: StoreConfig) -> BlockStore {
        BlockStore {
            disk: Disk::new(cfg.disk),
            blocks: Vec::new(),
            spill: Vec::new(),
            used: 0,
            clock: 0,
            lru: BTreeMap::new(),
            fault_rng: cfg.fault.map(|f| stream(f.seed, STORE_FAULT_SCOPE)),
            cfg,
            stats: StoreStats::default(),
        }
    }

    /// Inserts a new block, evicting LRU blocks past the memory budget.
    /// Returns the block's id (dense, in insertion order) and the
    /// completion time — `now_ns` plus any spill writes the insertion
    /// triggered.
    pub fn put(&mut self, bytes: Vec<u8>, recompute_ns: f64, now_ns: f64) -> (usize, f64) {
        let id = self.blocks.len();
        let len = bytes.len() as u64;
        self.used += len;
        self.blocks.push(Block {
            bytes: Some(bytes),
            len,
            disk_offset: None,
            recompute_ns,
            tick: None,
        });
        self.touch(id);
        self.stats.puts += 1;
        let done = self.enforce_budget(now_ns);
        (id, done)
    }

    /// Accesses a block: a resident block is a hit; an evicted one is
    /// fetched from disk or recomputed via `source`, promoted back into
    /// memory, and may in turn evict others. Returns how the access was
    /// served and when it completed on the simulated timeline.
    ///
    /// Under fault injection a reload can fail: transient read errors
    /// retry with exponential backoff (each failed read's disk time and
    /// the backoff charged to the clock), and a corrupted reload fails
    /// the frame checksum and falls back to lineage recomputation.
    ///
    /// # Errors
    /// [`StoreError::UnknownBlock`] for an id never put;
    /// [`StoreError::ChecksumRequired`] when corruption injection fires
    /// on a checksum-less store; [`StoreError::NoLineage`] when a
    /// dropped or corrupt block has no lineage.
    pub fn get(
        &mut self,
        id: usize,
        now_ns: f64,
        source: &mut dyn BlockSource,
    ) -> Result<Access, StoreError> {
        if id >= self.blocks.len() {
            return Err(StoreError::UnknownBlock(id));
        }
        if self.blocks[id].bytes.is_some() {
            self.touch(id);
            self.stats.hits += 1;
            return Ok(Access { outcome: AccessOutcome::Hit, done_ns: now_ns });
        }
        let (outcome, mut now) = if let Some(off) = self.blocks[id].disk_offset {
            let (bytes, outcome, done) = self.reload(id, off, now_ns, source)?;
            self.blocks[id].bytes = Some(bytes);
            (outcome, done)
        } else {
            let (bytes, cost_ns) = self.recompute_into(id, source)?;
            self.blocks[id].bytes = Some(bytes);
            (AccessOutcome::Recomputed, now_ns + cost_ns)
        };
        self.used += self.blocks[id].len;
        self.touch(id);
        now = self.enforce_budget(now);
        Ok(Access { outcome, done_ns: now })
    }

    /// Rebuilds block `id` via the lineage source, checking the length
    /// invariant and booking the recompute counters.
    fn recompute_into(
        &mut self,
        id: usize,
        source: &mut dyn BlockSource,
    ) -> Result<(Vec<u8>, f64), StoreError> {
        let (bytes, cost_ns) = source.recompute(id)?;
        assert_eq!(
            bytes.len() as u64,
            self.blocks[id].len,
            "recomputed block {id} changed length"
        );
        self.stats.recomputes += 1;
        self.stats.recompute_ns += cost_ns;
        Ok((bytes, cost_ns))
    }

    /// Reads block `id` back from its spill image at `off`, surviving
    /// injected faults. Returns the block's bytes, how the access was
    /// ultimately served, and its completion time.
    fn reload(
        &mut self,
        id: usize,
        off: u64,
        now_ns: f64,
        source: &mut dyn BlockSource,
    ) -> Result<(Vec<u8>, AccessOutcome, f64), StoreError> {
        let len = self.blocks[id].len;
        let mut now = now_ns;
        let mut attempt = 0u32;
        loop {
            let done = self.disk.read(off, len, now);
            // Fault draws are per attempt, in a fixed order, from the
            // store's private stream — deterministic for any thread
            // count because the store simulation itself is sequential.
            let (transient, corrupt) = match (&self.cfg.fault, &mut self.fault_rng) {
                (Some(f), Some(rng)) => {
                    let budget_left = attempt < f.max_retries;
                    let transient = rng.gen_bool(f.disk_read_error) && budget_left;
                    (transient, rng.gen_bool(f.spill_corruption))
                }
                _ => (false, false),
            };
            if corrupt {
                if !self.cfg.checksum {
                    return Err(StoreError::ChecksumRequired);
                }
                // The image on disk is damaged: re-reading cannot help.
                // Really corrupt the reloaded copy, demonstrate the
                // frame check catches it, then rebuild from lineage.
                let mut image = self.spill[off as usize..(off + len) as usize].to_vec();
                let rng = self.fault_rng.as_mut().expect("corrupt implies a fault stream");
                let (pos, mask) = corrupt_byte(rng, image.len());
                image[pos] ^= mask;
                debug_assert!(
                    sdformat::frame::verify(&image).is_err(),
                    "single-byte corruption must fail the CRC"
                );
                self.stats.checksum_errors += 1;
                self.stats.fetch_ns += done - now;
                let (bytes, cost_ns) = self.recompute_into(id, source)?;
                return Ok((bytes, AccessOutcome::Recomputed, done + cost_ns));
            }
            if transient {
                // Device-level read error: charge the failed read and
                // the backoff, then try again. The budget check above
                // forces the last attempt to succeed, so the store
                // always makes progress.
                let f = self.cfg.fault.expect("transient implies a fault config");
                let resume = done + f.retry_backoff_ns(attempt);
                self.stats.read_retries += 1;
                self.stats.retry_ns += resume - now;
                now = resume;
                attempt += 1;
                continue;
            }
            self.stats.disk_fetches += 1;
            self.stats.fetch_ns += done - now;
            let image = self.spill[off as usize..(off + len) as usize].to_vec();
            return Ok((image, AccessOutcome::DiskFetch, done));
        }
    }

    /// The block's current bytes: resident memory first, else the spill
    /// image, else `None` (dropped).
    pub fn bytes(&self, id: usize) -> Option<&[u8]> {
        let b = self.blocks.get(id)?;
        if let Some(bytes) = &b.bytes {
            return Some(bytes);
        }
        let off = b.disk_offset? as usize;
        Some(&self.spill[off..off + b.len as usize])
    }

    /// Whether the block is resident in the memory region.
    pub fn in_memory(&self, id: usize) -> bool {
        self.blocks.get(id).is_some_and(|b| b.bytes.is_some())
    }

    /// Whether the block has a spill image on disk.
    pub fn on_disk(&self, id: usize) -> bool {
        self.blocks.get(id).is_some_and(|b| b.disk_offset.is_some())
    }

    /// Blocks inserted so far.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The spill device (byte meters, seek counts, utilization).
    pub fn disk(&self) -> &Disk {
        &self.disk
    }

    /// Starts recording one [`sim::DiskWindow`] per spill-device access
    /// (telemetry's disk busy lanes). Off by default.
    pub fn record_disk_tape(&mut self) {
        self.disk.record_tape();
    }

    /// Drains the spill device's recorded access windows (none unless
    /// [`BlockStore::record_disk_tape`] was called) into `sink` as
    /// `disk.read`/`disk.write` spans on `lane`, in access order.
    pub fn emit_disk_tape<S: Sink>(&mut self, sink: &mut S, lane: EntityId) {
        for w in self.disk.take_tape() {
            sink.span(Span {
                entity: lane,
                name: if w.write { "disk.write" } else { "disk.read" },
                t0_ns: w.start_ns,
                t1_ns: w.end_ns,
                attrs: vec![("bytes", w.bytes.into())],
            });
        }
    }

    /// Moves `id` to the most-recently-used position.
    fn touch(&mut self, id: usize) {
        if let Some(t) = self.blocks[id].tick.take() {
            self.lru.remove(&t);
        }
        self.clock += 1;
        self.blocks[id].tick = Some(self.clock);
        self.lru.insert(self.clock, id);
    }

    /// Evicts LRU blocks until the region fits the budget, charging any
    /// spill writes from `now_ns`; returns the completion time.
    fn enforce_budget(&mut self, now_ns: f64) -> f64 {
        let mut now = now_ns;
        while self.used > self.cfg.memory_budget {
            let (&tick, &victim) = self.lru.iter().next().expect("used > 0 implies a resident block");
            self.lru.remove(&tick);
            let b = &mut self.blocks[victim];
            b.tick = None;
            let bytes = b.bytes.take().expect("LRU index only holds resident blocks");
            self.used -= b.len;
            self.stats.evictions += 1;
            self.stats.evicted_bytes += b.len;
            let spill = match self.cfg.policy {
                MissPolicy::Fetch => true,
                MissPolicy::Recompute => false,
                MissPolicy::Auto => {
                    self.cfg.disk.access_estimate_ns(b.len) <= b.recompute_ns
                }
            };
            if spill && b.disk_offset.is_none() {
                let off = self.spill.len() as u64;
                self.spill.extend_from_slice(&bytes);
                b.disk_offset = Some(off);
                let done = self.disk.write(off, b.len, now);
                self.stats.spills += 1;
                self.stats.spilled_bytes += b.len;
                self.stats.spill_ns += done - now;
                now = done;
            }
            // A block with an existing spill image is dropped for free:
            // the image is immutable, so re-eviction needs no write.
        }
        now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(budget: u64, policy: MissPolicy) -> BlockStore {
        BlockStore::new(StoreConfig::plain(budget, DiskConfig::ssd(), policy))
    }

    fn block(fill: u8, len: usize) -> Vec<u8> {
        vec![fill; len]
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut s = store(300, MissPolicy::Fetch);
        let mut now = 0.0;
        for i in 0..3 {
            let (_, done) = s.put(block(i, 100), 1e6, now);
            now = done;
        }
        assert!(s.in_memory(0) && s.in_memory(1) && s.in_memory(2));
        // Touch 0 so 1 becomes the LRU victim.
        let mut none = NoLineage;
        now = s.get(0, now, &mut none).unwrap().done_ns;
        let (id, done) = s.put(block(9, 100), 1e6, now);
        now = done;
        assert_eq!(id, 3);
        assert!(s.in_memory(0), "recently touched block survives");
        assert!(!s.in_memory(1), "LRU block evicted");
        assert!(s.on_disk(1), "fetch policy spills");
        assert_eq!(s.stats().evictions, 1);
        assert_eq!(s.stats().evicted_bytes, 100);

        // Fetch promotes and keeps the disk image.
        let a = s.get(1, now, &mut none).unwrap();
        assert_eq!(a.outcome, AccessOutcome::DiskFetch);
        assert!(a.done_ns > now, "disk read takes simulated time");
        assert!(s.on_disk(1), "spill image survives promotion");
        // The promotion evicted the new LRU victim (block 2).
        assert!(!s.in_memory(2));
        assert_eq!(s.bytes(1).unwrap(), &block(1, 100)[..], "byte-identical after reload");
    }

    #[test]
    fn recompute_policy_never_writes_disk() {
        let mut s = store(100, MissPolicy::Recompute);
        let (_, n1) = s.put(block(1, 80), 5e3, 0.0);
        let (_, n2) = s.put(block(2, 80), 5e3, n1);
        assert!(!s.in_memory(0));
        assert!(!s.on_disk(0));
        assert!(s.bytes(0).is_none(), "dropped block has no bytes");
        struct Src;
        impl BlockSource for Src {
            fn recompute(&mut self, _id: usize) -> Result<(Vec<u8>, f64), StoreError> {
                Ok((block(1, 80), 5e3))
            }
        }
        let a = s.get(0, n2, &mut Src).unwrap();
        assert_eq!(a.outcome, AccessOutcome::Recomputed);
        assert_eq!(a.done_ns, n2 + 5e3);
        assert_eq!(s.disk().write_bytes(), 0);
        assert_eq!(s.stats().recomputes, 1);
    }

    #[test]
    fn auto_policy_picks_the_cheaper_side() {
        // Cheap recompute vs an HDD seek: drop.
        let mut s = BlockStore::new(StoreConfig::plain(100, DiskConfig::hdd(), MissPolicy::Auto));
        s.put(block(1, 80), 1e3, 0.0);
        s.put(block(2, 80), 1e3, 0.0);
        assert!(!s.on_disk(0), "recompute is cheaper than an HDD seek");

        // Expensive recompute vs NVMe: spill.
        let mut s = BlockStore::new(StoreConfig::plain(100, DiskConfig::nvme(), MissPolicy::Auto));
        s.put(block(1, 80), 1e9, 0.0);
        s.put(block(2, 80), 1e9, 0.0);
        assert!(s.on_disk(0), "NVMe fetch is cheaper than recomputing");
    }

    #[test]
    fn hits_are_free_and_counted() {
        let mut s = store(1 << 20, MissPolicy::Fetch);
        let (id, now) = s.put(block(7, 64), 1e6, 0.0);
        let a = s.get(id, now, &mut NoLineage).unwrap();
        assert_eq!(a.outcome, AccessOutcome::Hit);
        assert_eq!(a.done_ns, now, "memory hits cost no store time");
        assert_eq!(s.stats().hits, 1);
    }

    #[test]
    fn oversized_block_thrashes_but_stays_reachable() {
        let mut s = store(50, MissPolicy::Fetch);
        let (id, now) = s.put(block(3, 200), 1e6, 0.0);
        assert!(!s.in_memory(id), "block larger than the budget cannot stay resident");
        assert!(s.on_disk(id));
        let a = s.get(id, now, &mut NoLineage).unwrap();
        assert_eq!(a.outcome, AccessOutcome::DiskFetch);
        assert_eq!(s.bytes(id).unwrap(), &block(3, 200)[..]);
        // Re-eviction of the promoted copy reused the existing image.
        assert_eq!(s.stats().spills, 1);
    }

    #[test]
    fn missing_lineage_is_a_typed_error() {
        let mut s = store(100, MissPolicy::Recompute);
        let (_, n1) = s.put(block(1, 80), 5e3, 0.0);
        let (_, n2) = s.put(block(2, 80), 5e3, n1);
        assert_eq!(
            s.get(0, n2, &mut NoLineage).unwrap_err(),
            StoreError::NoLineage(0),
            "dropped block without lineage must not panic"
        );
        assert_eq!(
            s.get(99, n2, &mut NoLineage).unwrap_err(),
            StoreError::UnknownBlock(99)
        );
    }

    #[test]
    fn transient_read_errors_retry_with_backoff() {
        let fault = FaultConfig {
            disk_read_error: 1.0,
            ..FaultConfig::none()
        };
        let cfg = StoreConfig {
            fault: Some(fault),
            ..StoreConfig::plain(100, DiskConfig::ssd(), MissPolicy::Fetch)
        };
        let mut s = BlockStore::new(cfg);
        let (_, n1) = s.put(block(1, 80), 1e6, 0.0);
        let (_, n2) = s.put(block(2, 80), 1e6, n1);
        assert!(s.on_disk(0));
        let a = s.get(0, n2, &mut NoLineage).unwrap();
        assert_eq!(a.outcome, AccessOutcome::DiskFetch, "budget forces eventual success");
        assert_eq!(s.stats().read_retries, u64::from(fault.max_retries));
        assert!(s.stats().retry_ns > 0.0, "failed reads and backoff cost time");
        // Backoff alone is 50k * (1+2+4+8); the access must absorb it.
        assert!(a.done_ns - n2 > 15.0 * fault.backoff_ns, "{}", a.done_ns - n2);
        assert_eq!(s.bytes(0).unwrap(), &block(1, 80)[..], "reload is still byte-exact");
    }

    #[test]
    fn corrupt_reload_falls_back_to_lineage() {
        let fault = FaultConfig {
            spill_corruption: 1.0,
            ..FaultConfig::none()
        };
        let cfg = StoreConfig {
            fault: Some(fault),
            checksum: true,
            ..StoreConfig::plain(100, DiskConfig::ssd(), MissPolicy::Fetch)
        };
        let mut s = BlockStore::new(cfg);
        // Checksummed stores hold sealed frames.
        let framed = sdformat::seal(block(1, 72));
        let len = framed.len();
        let (_, n1) = s.put(framed.clone(), 1e6, 0.0);
        let (_, n2) = s.put(sdformat::seal(block(2, 72)), 1e6, n1);
        assert!(s.on_disk(0));
        struct Src(Vec<u8>);
        impl BlockSource for Src {
            fn recompute(&mut self, _id: usize) -> Result<(Vec<u8>, f64), StoreError> {
                Ok((self.0.clone(), 7e3))
            }
        }
        let a = s.get(0, n2, &mut Src(framed.clone())).unwrap();
        assert_eq!(a.outcome, AccessOutcome::Recomputed, "corruption is unrecoverable by re-read");
        assert_eq!(s.stats().checksum_errors, 1);
        assert_eq!(s.stats().recomputes, 1);
        assert_eq!(s.bytes(0).unwrap(), &framed[..len], "lineage restores the exact frame");
    }

    #[test]
    fn corruption_injection_requires_checksums() {
        let cfg = StoreConfig {
            fault: Some(FaultConfig {
                spill_corruption: 1.0,
                ..FaultConfig::none()
            }),
            ..StoreConfig::plain(100, DiskConfig::ssd(), MissPolicy::Fetch)
        };
        let mut s = BlockStore::new(cfg);
        let (_, n1) = s.put(block(1, 80), 1e6, 0.0);
        let (_, n2) = s.put(block(2, 80), 1e6, n1);
        assert_eq!(
            s.get(0, n2, &mut NoLineage).unwrap_err(),
            StoreError::ChecksumRequired,
            "undetectable corruption must be rejected, not simulated"
        );
    }

    #[test]
    fn zero_rate_injector_matches_fault_free_run() {
        let run = |fault: Option<FaultConfig>| {
            let cfg = StoreConfig {
                fault,
                ..StoreConfig::plain(100, DiskConfig::ssd(), MissPolicy::Fetch)
            };
            let mut s = BlockStore::new(cfg);
            let mut now = 0.0;
            for i in 0..4 {
                let (_, done) = s.put(block(i, 60), 1e6, now);
                now = done;
            }
            for id in [0usize, 1, 2, 0] {
                now = s.get(id, now, &mut NoLineage).unwrap().done_ns;
            }
            (now, s.stats())
        };
        assert_eq!(
            run(None),
            run(Some(FaultConfig::none())),
            "a zero-rate injector must add zero overhead"
        );
    }

    #[test]
    fn re_eviction_reuses_the_spill_image() {
        let mut s = store(100, MissPolicy::Fetch);
        let mut now = 0.0;
        for i in 0..2 {
            let (_, done) = s.put(block(i, 80), 1e6, now);
            now = done;
        }
        assert_eq!(s.stats().spills, 1); // block 0 spilled
        now = s.get(0, now, &mut NoLineage).unwrap().done_ns; // promotes 0, evicts 1
        now = s.get(1, now, &mut NoLineage).unwrap().done_ns; // promotes 1, evicts 0 again
        let _ = now;
        assert_eq!(s.stats().spills, 2, "only first evictions write images");
        assert_eq!(s.stats().evictions, 3);
        assert_eq!(s.disk().writes(), 2);
    }
}
