//! Deterministic fault injection for the distributed-stack models.
//!
//! The shuffle service and block store model the happy path; real
//! Spark-class deployments spend a meaningful fraction of wall-clock on
//! stragglers, failed fetches, and lineage recomputation. This module
//! provides the seeded anomaly source every layer shares:
//!
//! * **wire corruption** — a byte of a [`crate::net`] transfer is
//!   flipped in flight; the receiver detects it via the stream's CRC
//!   frame (`sdformat`-level) and re-fetches;
//! * **link loss** — a transfer vanishes; the sender times out and
//!   retries with exponential backoff;
//! * **disk read error** — a [`crate::disk`] access returns a bad
//!   image; spill reloads retry, checksummed blocks with lineage fall
//!   back to recomputation;
//! * **mapper death** — a map executor dies mid-stage and its task is
//!   re-executed from scratch (Spark-style lineage re-execution);
//! * **accelerator fault** — one hardware serialization request fails
//!   and the affected partition degrades to a configured software
//!   serializer;
//! * **executor crash** — a cluster executor silently stops mid-task;
//!   the scheduler's heartbeat detector declares it dead, kills its
//!   in-flight attempt, and recomputes any lost outputs;
//! * **node failure** — a whole node (all its executors and its DU
//!   device contexts) goes down at once;
//! * **task failure** — one task attempt fails without taking its
//!   executor down (a flaky host); repeated failures on the same
//!   executor feed the scheduler's blacklist accounting.
//!
//! Determinism is the contract: every draw comes from a
//! [`sdheap::rng::Rng`] stream derived from `(seed, scope)`, where the
//! scope is a stable entity id (mapper index, global message index,
//! store instance) — never a thread or wall-clock artifact. Two runs
//! with the same seed see byte-identical fault schedules for any
//! worker-thread count, which is what lets CI `cmp` fault-sweep
//! reports.

use sdheap::rng::Rng;

/// Fault rates and recovery knobs. All rates are per-event
/// probabilities in `[0, 1]`; a rate of `0` disables that class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Base seed all scoped injector streams derive from.
    pub seed: u64,
    /// Per-transfer probability that one wire byte is corrupted.
    pub wire_corruption: f64,
    /// Per-transfer probability that the message is lost outright.
    pub link_loss: f64,
    /// Per-read probability that a disk access returns a bad image.
    pub disk_read_error: f64,
    /// Per-mapper probability that the executor dies mid-map-stage.
    pub mapper_death: f64,
    /// Per-request probability that the accelerator faults and the
    /// partition degrades to the software fallback serializer.
    pub accel_fault: f64,
    /// Per-reload probability that a spill image comes back corrupted
    /// (detected by the block checksum; recovered via lineage).
    pub spill_corruption: f64,
    /// Per-dispatch probability that a cluster executor crashes while
    /// running the dispatched attempt (drawn from the executor's scoped
    /// stream; the crash lands at an interior fraction of the service).
    pub exec_crash: f64,
    /// Per-dispatch probability that the executor's whole node fails
    /// (drawn from the node's scoped stream).
    pub node_failure: f64,
    /// Per-dispatch probability that the attempt fails without killing
    /// its executor (a flaky-task failure, retried with backoff).
    pub task_failure: f64,
    /// Retry budget: failed fetches are retried at most this many
    /// times; the final attempt within the budget always succeeds (the
    /// model guarantees forward progress, so folds stay exact).
    pub max_retries: u32,
    /// Initial retry backoff; see [`FaultConfig::retry_backoff_ns`].
    pub backoff_ns: f64,
    /// Loss-detection timeout a sender waits before declaring a
    /// transfer lost and retrying.
    pub timeout_ns: f64,
}

impl FaultConfig {
    /// All fault classes disabled (rates zero); recovery knobs keep
    /// their defaults so a zero-rate run is byte-identical to one with
    /// no injector at all.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            wire_corruption: 0.0,
            link_loss: 0.0,
            disk_read_error: 0.0,
            mapper_death: 0.0,
            accel_fault: 0.0,
            spill_corruption: 0.0,
            exec_crash: 0.0,
            node_failure: 0.0,
            task_failure: 0.0,
            max_retries: 4,
            backoff_ns: 50_000.0,
            timeout_ns: 1_000_000.0,
        }
    }

    /// Every fault class at the same `rate`, seeded.
    pub fn uniform(rate: f64, seed: u64) -> Self {
        FaultConfig {
            seed,
            wire_corruption: rate,
            link_loss: rate,
            disk_read_error: rate,
            mapper_death: rate,
            accel_fault: rate,
            spill_corruption: rate,
            exec_crash: rate,
            node_failure: rate,
            task_failure: rate,
            ..FaultConfig::none()
        }
    }

    /// Whether any fault class can fire.
    pub fn enabled(&self) -> bool {
        self.wire_corruption > 0.0
            || self.link_loss > 0.0
            || self.disk_read_error > 0.0
            || self.mapper_death > 0.0
            || self.accel_fault > 0.0
            || self.spill_corruption > 0.0
            || self.exec_crash > 0.0
            || self.node_failure > 0.0
            || self.task_failure > 0.0
    }

    /// The injector stream for a stable entity id.
    pub fn scoped(&self, scope: u64) -> FaultInjector {
        FaultInjector::scoped(*self, scope)
    }

    /// [`exp_backoff_ns`] from this config's `backoff_ns`.
    pub fn retry_backoff_ns(&self, k: u32) -> f64 {
        exp_backoff_ns(self.backoff_ns, k)
    }
}

/// Exponential backoff before retry attempt `k` (0-based):
/// `base_ns · 2^min(k, 16)`. The shuffle, the store and the cluster
/// scheduler all retry on this schedule.
pub fn exp_backoff_ns(base_ns: f64, k: u32) -> f64 {
    base_ns * f64::from(1u32 << k.min(16))
}

/// One seeded fault stream. Each injector owns an independent PRNG
/// stream, so the draw order within a scope is fixed and scopes never
/// interfere — the foundation of thread-count invariance.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: Rng,
}

/// Mixes the scope into the seed (SplitMix64 finalizer) so neighboring
/// scope ids land in unrelated stream states.
fn mix(seed: u64, scope: u64) -> u64 {
    let mut z = seed ^ scope.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// The injector stream for `(cfg.seed, scope)`.
    pub fn scoped(cfg: FaultConfig, scope: u64) -> Self {
        FaultInjector {
            rng: Rng::new(mix(cfg.seed, scope)),
            cfg,
        }
    }

    /// The configuration behind this stream.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether the next wire transfer is corrupted.
    pub fn corrupt_wire(&mut self) -> bool {
        self.rng.gen_bool(self.cfg.wire_corruption)
    }

    /// Whether the next wire transfer is lost.
    pub fn lose_message(&mut self) -> bool {
        self.rng.gen_bool(self.cfg.link_loss)
    }

    /// Whether the next disk read errors.
    pub fn disk_read_fails(&mut self) -> bool {
        self.rng.gen_bool(self.cfg.disk_read_error)
    }

    /// Whether the next spill reload comes back corrupted.
    pub fn corrupt_spill(&mut self) -> bool {
        self.rng.gen_bool(self.cfg.spill_corruption)
    }

    /// Whether the next accelerator request faults.
    pub fn accel_faults(&mut self) -> bool {
        self.rng.gen_bool(self.cfg.accel_fault)
    }

    /// Whether this mapper dies, and if so at which fraction of its map
    /// work (in `(0, 1)`); the task re-executes from scratch after the
    /// death point.
    pub fn mapper_dies(&mut self) -> Option<f64> {
        if self.rng.gen_bool(self.cfg.mapper_death) {
            // Never exactly 0 or 1: the death interrupts real progress.
            Some(self.rng.gen_range_f64(0.05, 0.95))
        } else {
            None
        }
    }

    /// Whether the executor behind this stream crashes during the
    /// attempt just dispatched, and if so at which interior fraction of
    /// the attempt's service the machine stops.
    pub fn exec_crashes(&mut self) -> Option<f64> {
        if self.rng.gen_bool(self.cfg.exec_crash) {
            Some(self.rng.gen_range_f64(0.05, 0.95))
        } else {
            None
        }
    }

    /// Whether the node behind this stream fails during the attempt
    /// just dispatched on one of its executors, and if so at which
    /// interior fraction of that attempt's service.
    pub fn node_fails(&mut self) -> Option<f64> {
        if self.rng.gen_bool(self.cfg.node_failure) {
            Some(self.rng.gen_range_f64(0.05, 0.95))
        } else {
            None
        }
    }

    /// Whether the attempt just dispatched fails (without killing its
    /// executor), and if so at which interior fraction of its service.
    pub fn task_fails(&mut self) -> Option<f64> {
        if self.rng.gen_bool(self.cfg.task_failure) {
            Some(self.rng.gen_range_f64(0.05, 0.95))
        } else {
            None
        }
    }

    /// A seeded uniform draw in `[0, 1)` — cooldown/backoff jitter that
    /// stays on this scope's deterministic stream.
    pub fn jitter(&mut self) -> f64 {
        self.rng.gen_f64()
    }

    /// A deterministic single-byte corruption for a `len`-byte payload:
    /// `(position, xor mask)` with a non-zero mask, so the byte always
    /// changes.
    pub fn corrupt_byte(&mut self, len: usize) -> (usize, u8) {
        debug_assert!(len > 0, "cannot corrupt an empty payload");
        let pos = self.rng.gen_range_usize(0, len);
        let mask = self.rng.gen_range_u64(1, 256) as u8;
        (pos, mask)
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_fire() {
        let mut inj = FaultConfig::none().scoped(7);
        for _ in 0..1000 {
            assert!(!inj.corrupt_wire());
            assert!(!inj.lose_message());
            assert!(!inj.disk_read_fails());
            assert!(!inj.corrupt_spill());
            assert!(!inj.accel_faults());
            assert!(inj.mapper_dies().is_none());
        }
    }

    #[test]
    fn scoped_streams_are_deterministic_and_independent() {
        let cfg = FaultConfig::uniform(0.5, 42);
        let a: Vec<bool> = {
            let mut i = cfg.scoped(3);
            (0..64).map(|_| i.corrupt_wire()).collect()
        };
        let b: Vec<bool> = {
            let mut i = cfg.scoped(3);
            (0..64).map(|_| i.corrupt_wire()).collect()
        };
        assert_eq!(a, b, "same scope replays the same schedule");
        let c: Vec<bool> = {
            let mut i = cfg.scoped(4);
            (0..64).map(|_| i.corrupt_wire()).collect()
        };
        assert_ne!(a, c, "different scopes draw different schedules");
    }

    #[test]
    fn rates_track_probability() {
        let cfg = FaultConfig::uniform(0.25, 9);
        let mut inj = cfg.scoped(0);
        let hits = (0..10_000).filter(|_| inj.lose_message()).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }

    #[test]
    fn corrupt_byte_changes_the_payload() {
        let mut inj = FaultConfig::uniform(1.0, 1).scoped(5);
        for len in [1usize, 2, 64, 4096] {
            let (pos, mask) = inj.corrupt_byte(len);
            assert!(pos < len);
            assert_ne!(mask, 0, "xor mask must flip at least one bit");
        }
    }

    #[test]
    fn death_fraction_is_interior() {
        let mut inj = FaultConfig::uniform(1.0, 2).scoped(0);
        for _ in 0..100 {
            let f = inj.mapper_dies().expect("rate 1 always fires");
            assert!(f > 0.0 && f < 1.0, "{f}");
        }
    }

    #[test]
    fn cluster_fault_draws_fire_and_stay_interior() {
        let mut zero = FaultConfig::none().scoped(11);
        for _ in 0..200 {
            assert!(zero.exec_crashes().is_none());
            assert!(zero.node_fails().is_none());
            assert!(zero.task_fails().is_none());
        }
        let mut hot = FaultConfig::uniform(1.0, 11).scoped(11);
        for _ in 0..200 {
            for f in [
                hot.exec_crashes().expect("rate 1 fires"),
                hot.node_fails().expect("rate 1 fires"),
                hot.task_fails().expect("rate 1 fires"),
            ] {
                assert!(f > 0.0 && f < 1.0, "{f}");
            }
            let j = hot.jitter();
            assert!((0.0..1.0).contains(&j), "{j}");
        }
    }

    #[test]
    fn backoff_grows_exponentially() {
        let cfg = FaultConfig::none();
        assert_eq!(cfg.retry_backoff_ns(0), cfg.backoff_ns);
        assert_eq!(cfg.retry_backoff_ns(1), 2.0 * cfg.retry_backoff_ns(0));
        assert_eq!(cfg.retry_backoff_ns(3), 8.0 * cfg.retry_backoff_ns(0));
        assert_eq!(cfg.retry_backoff_ns(40), cfg.retry_backoff_ns(16), "capped at 2^16");
    }
}
