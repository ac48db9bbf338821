//! Deterministic fault injection for the distributed-stack models.
//!
//! The shuffle service and block store model the happy path; real
//! Spark-class deployments spend a meaningful fraction of wall-clock on
//! stragglers, failed fetches, and lineage recomputation. This module
//! provides the seeded anomaly source every layer shares. The classes
//! whose rates [`FaultConfig`] holds:
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
//! * **spill corruption** — a reloaded spill image comes back damaged
//!   and the block is rebuilt from lineage.
//!
//! The cluster scheduler's executor crashes, node failures, clean task
//! failures and DU device failures draw from the same kind of stream;
//! their rates live in the cluster crate's own fault config.
//!
//! Determinism is the contract: a fault stream is a plain
//! [`sdheap::rng::Rng`] from [`stream`]`(seed, scope)`, where the scope
//! is a stable entity id (mapper index, global message index, store
//! instance, executor) — never a thread or wall-clock artifact. A
//! caller draws a class with `rng.gen_bool(rate)` (every draw consumes
//! the stream, also at rate 0, so the layout never depends on which
//! faults fire), a landing point with [`interior`], a damaged byte with
//! [`corrupt_byte`] and jitter with `rng.gen_f64()`. Two runs with the
//! same seed see byte-identical fault schedules for any worker-thread
//! count, which is what lets CI `cmp` fault-sweep reports.

use sdheap::rng::Rng;

/// Fault rates and recovery knobs. All rates are per-event
/// probabilities in `[0, 1]`; a rate of `0` disables that class.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Base seed every scoped [`stream`] derives from.
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
    /// no fault config at all.
    pub fn none() -> Self {
        FaultConfig {
            seed: 0,
            wire_corruption: 0.0,
            link_loss: 0.0,
            disk_read_error: 0.0,
            mapper_death: 0.0,
            accel_fault: 0.0,
            spill_corruption: 0.0,
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
            ..FaultConfig::none()
        }
    }

    /// Whether any fault class can fire.
    pub fn enabled(&self) -> bool {
        self.rates().iter().any(|&(rate, _)| rate > 0.0)
    }

    /// The six rates, each with the error [`FaultConfig::validate`]
    /// reports when it lies outside `[0, 1]`.
    fn rates(&self) -> [(f64, &'static str); 6] {
        [
            (self.wire_corruption, "faults.wire_corruption must be in [0, 1]"),
            (self.link_loss, "faults.link_loss must be in [0, 1]"),
            (self.disk_read_error, "faults.disk_read_error must be in [0, 1]"),
            (self.mapper_death, "faults.mapper_death must be in [0, 1]"),
            (self.accel_fault, "faults.accel_fault must be in [0, 1]"),
            (self.spill_corruption, "faults.spill_corruption must be in [0, 1]"),
        ]
    }

    /// Checks that every rate lies in `[0, 1]` (NaN does not) and that
    /// both recovery times are finite and `>= 0`.
    ///
    /// # Errors
    /// A message naming the first offending field.
    pub fn validate(&self) -> Result<(), &'static str> {
        for (rate, why) in self.rates() {
            if !(0.0..=1.0).contains(&rate) {
                return Err(why);
            }
        }
        for (x, why) in [
            (self.backoff_ns, "faults.backoff_ns must be finite and >= 0"),
            (self.timeout_ns, "faults.timeout_ns must be finite and >= 0"),
        ] {
            if !(x.is_finite() && x >= 0.0) {
                return Err(why);
            }
        }
        Ok(())
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

/// The fault stream of a stable entity id. The scope is mixed into the
/// seed (SplitMix64 finalizer) so neighbouring scope ids land in
/// unrelated stream states; each stream is independent, so the draw
/// order within a scope is fixed and scopes never interfere.
pub fn stream(seed: u64, scope: u64) -> Rng {
    let mut z = seed ^ scope.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Rng::new(z ^ (z >> 31))
}

/// Whether a fault at `rate` fires, and if so at which fraction of the
/// interrupted work (in `[0.05, 0.95)`: never exactly 0 or 1, so the
/// fault interrupts real progress and always beats the work's finish).
pub fn interior(rng: &mut Rng, rate: f64) -> Option<f64> {
    if rng.gen_bool(rate) {
        Some(rng.gen_range_f64(0.05, 0.95))
    } else {
        None
    }
}

/// A single-byte corruption of a `len`-byte payload: `(position, xor
/// mask)` with a non-zero mask, so the byte always changes.
pub fn corrupt_byte(rng: &mut Rng, len: usize) -> (usize, u8) {
    debug_assert!(len > 0, "cannot corrupt an empty payload");
    let pos = rng.gen_range_usize(0, len);
    let mask = rng.gen_range_u64(1, 256) as u8;
    (pos, mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_never_fire() {
        let mut rng = stream(0, 7);
        for _ in 0..1000 {
            assert!(!rng.gen_bool(0.0));
            assert!(interior(&mut rng, 0.0).is_none());
        }
        assert!(!FaultConfig::none().enabled());
        assert!(FaultConfig::uniform(0.1, 0).enabled());
    }

    #[test]
    fn scoped_streams_are_deterministic_and_independent() {
        let draws = |scope| -> Vec<bool> {
            let mut rng = stream(42, scope);
            (0..64).map(|_| rng.gen_bool(0.5)).collect()
        };
        assert_eq!(draws(3), draws(3), "same scope replays the same schedule");
        assert_ne!(draws(3), draws(4), "different scopes draw different schedules");
    }

    #[test]
    fn rates_track_probability() {
        let mut rng = stream(9, 0);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }

    #[test]
    fn corrupt_byte_changes_the_payload() {
        let mut rng = stream(1, 5);
        for len in [1usize, 2, 64, 4096] {
            let (pos, mask) = corrupt_byte(&mut rng, len);
            assert!(pos < len);
            assert_ne!(mask, 0, "xor mask must flip at least one bit");
        }
    }

    #[test]
    fn interior_fraction_is_interior() {
        let mut rng = stream(2, 0);
        for _ in 0..100 {
            let f = interior(&mut rng, 1.0).expect("rate 1 always fires");
            assert!(f > 0.0 && f < 1.0, "{f}");
        }
    }

    #[test]
    fn validate_rejects_out_of_range_rates_and_times() {
        assert_eq!(FaultConfig::none().validate(), Ok(()));
        assert_eq!(FaultConfig::uniform(1.0, 3).validate(), Ok(()));
        let nan = FaultConfig { link_loss: f64::NAN, ..FaultConfig::none() };
        assert_eq!(nan.validate(), Err("faults.link_loss must be in [0, 1]"));
        let high = FaultConfig { spill_corruption: 1.5, ..FaultConfig::none() };
        assert_eq!(high.validate(), Err("faults.spill_corruption must be in [0, 1]"));
        let back = FaultConfig { backoff_ns: -1.0, ..FaultConfig::none() };
        assert_eq!(back.validate(), Err("faults.backoff_ns must be finite and >= 0"));
        let time = FaultConfig { timeout_ns: f64::INFINITY, ..FaultConfig::none() };
        assert_eq!(time.validate(), Err("faults.timeout_ns must be finite and >= 0"));
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
