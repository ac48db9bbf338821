//! Shuffle fault model: typed errors, the injection spec, per-message
//! wire-fault plans, and the recovery counters.
//!
//! Fault *decisions* are made here, ahead of the stages that act on
//! them: every message's retry plan is drawn from a PRNG stream scoped
//! by its **global message index** (the message list order is
//! deterministic), so the reduce stage (which demonstrates detection by
//! really flipping the planned byte) and the timeline composition
//! (which charges the retries, timeouts and backoff) see the same
//! schedule regardless of worker-thread count.

use sim::fault::{corrupt_byte, stream};
use sim::FaultConfig;
use std::fmt;
use store::{EngineError, StoreError};

/// Errors a shuffle run can surface. Anomalies are values, not panics:
/// binaries render them, tests assert the variant.
#[derive(Clone, Debug, PartialEq)]
pub enum ShuffleError {
    /// [`crate::ShuffleConfig::validate`] rejected the config; the
    /// message names the offending field and the range it must lie in.
    InvalidConfig(&'static str),
    /// Wire-corruption injection is configured but streams carry no
    /// checksum frame, so corruption would be undetectable.
    ChecksumRequired,
    /// A planned corruption was *not* detected: the corrupted stream
    /// decoded without a checksum error.
    UndetectedCorruption {
        /// Source mapper of the corrupted batch.
        src: usize,
        /// Destination reducer.
        dst: usize,
        /// Flush sequence number.
        seq: u64,
    },
    /// A decoded batch did not hold the record count it was sent with.
    BadBatch {
        /// Source mapper.
        src: usize,
        /// Destination reducer.
        dst: usize,
        /// Flush sequence number.
        seq: u64,
    },
    /// Two reducers folded the same key — the partitioning broke.
    DuplicateKey(u64),
    /// Two backends disagree on the merged aggregate.
    FoldMismatch {
        /// First backend's display name.
        a: &'static str,
        /// Disagreeing backend's display name.
        b: &'static str,
    },
    /// A mapper's spill store failed.
    Store(StoreError),
    /// An engine rejected a stream (checksum or decode failure outside
    /// any planned fault).
    Engine(EngineError),
}

impl fmt::Display for ShuffleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShuffleError::InvalidConfig(why) => write!(f, "invalid shuffle config: {why}"),
            ShuffleError::ChecksumRequired => {
                write!(f, "wire-corruption injection requires checksummed frames")
            }
            ShuffleError::UndetectedCorruption { src, dst, seq } => write!(
                f,
                "corrupted batch {src}->{dst}#{seq} decoded without a checksum error"
            ),
            ShuffleError::BadBatch { src, dst, seq } => {
                write!(f, "batch {src}->{dst}#{seq} decoded to the wrong record count")
            }
            ShuffleError::DuplicateKey(k) => write!(f, "key {k} folded by two reducers"),
            ShuffleError::FoldMismatch { a, b } => {
                write!(f, "{a} and {b} disagree on the aggregate")
            }
            ShuffleError::Store(e) => write!(f, "spill store: {e}"),
            ShuffleError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for ShuffleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShuffleError::Store(e) => Some(e),
            ShuffleError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for ShuffleError {
    fn from(e: StoreError) -> Self {
        ShuffleError::Store(e)
    }
}

impl From<EngineError> for ShuffleError {
    fn from(e: EngineError) -> Self {
        ShuffleError::Engine(e)
    }
}

/// Fault-stream scope for message `i` of the global list (wire faults).
pub(crate) fn wire_scope(i: usize) -> u64 {
    0x77AE_0000_0000 | i as u64
}

/// Fault-stream scope for mapper `m`'s death draw.
pub(crate) fn death_scope(m: usize) -> u64 {
    0xDEAD_0000_0000 | m as u64
}

/// Fault-stream scope for mapper `m`'s accelerator-fault draws.
pub(crate) fn accel_scope(m: usize) -> u64 {
    0xACCE_0000_0000 | m as u64
}

/// One transmission attempt of a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Attempt {
    /// The transfer vanishes; the sender times out and retries.
    Lost,
    /// One wire byte is flipped in flight; the receiver's CRC check
    /// detects it, NACKs, and the sender retries.
    Corrupt {
        /// Byte position flipped.
        pos: usize,
        /// Non-zero xor mask applied to it.
        mask: u8,
    },
    /// The transfer arrives intact.
    Clean,
}

/// A message's full transmission plan: zero or more failed attempts,
/// then exactly one final [`Attempt::Clean`] (the retry budget forces
/// eventual success, so folds stay exact).
#[derive(Clone, Debug, Default)]
pub struct MsgPlan {
    /// Attempts in order; empty means "no plan" (fault-free path).
    pub attempts: Vec<Attempt>,
}

impl MsgPlan {
    /// Failed attempts (retries the plan forces).
    pub fn retries(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }
}

/// Draws message `i`'s transmission plan. `wire_len` is the framed
/// stream length (corruption positions index into it). Both draws
/// happen on every attempt, in a fixed order, so the stream layout is
/// independent of which faults actually fire.
pub(crate) fn plan_message(cfg: &FaultConfig, i: usize, wire_len: usize) -> MsgPlan {
    let mut rng = stream(cfg.seed, wire_scope(i));
    let mut attempts = Vec::new();
    for k in 0..=cfg.max_retries {
        let lost = rng.gen_bool(cfg.link_loss);
        let corrupt = rng.gen_bool(cfg.wire_corruption);
        if k == cfg.max_retries {
            break;
        }
        if lost {
            attempts.push(Attempt::Lost);
        } else if corrupt {
            let (pos, mask) = corrupt_byte(&mut rng, wire_len);
            attempts.push(Attempt::Corrupt { pos, mask });
        } else {
            break;
        }
    }
    attempts.push(Attempt::Clean);
    MsgPlan { attempts }
}

/// Recovery counters of one shuffle run, summed across stages.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultTotals {
    /// Wire transfers whose CRC check failed at the receiver.
    pub wire_corruptions: u64,
    /// Wire transfers lost outright (sender timed out).
    pub lost_messages: u64,
    /// Retransmissions (lost + corrupt attempts).
    pub retries: u64,
    /// Map executors that died mid-stage and were re-executed.
    pub mapper_deaths: u64,
    /// Simulated time lost to death detection and re-execution.
    pub reexec_ns: f64,
    /// Accelerator requests that faulted and degraded to software.
    pub accel_faults: u64,
    /// Engine busy time spent in the software fallback serializer.
    pub fallback_ns: f64,
    /// Corrupted streams detected by the CRC check (wire + spill).
    pub checksum_errors: u64,
    /// Spill-reload read errors retried on mapper disks.
    pub spill_retries: u64,
    /// Simulated time lost to failed transfers, timeouts and backoff.
    pub recovery_ns: f64,
    /// Total bytes the fabric carried, retransmissions included.
    pub fabric_bytes: u64,
}

impl FaultTotals {
    /// Merges another stage's counters into this one.
    pub fn merge(&mut self, other: &FaultTotals) {
        self.wire_corruptions += other.wire_corruptions;
        self.lost_messages += other.lost_messages;
        self.retries += other.retries;
        self.mapper_deaths += other.mapper_deaths;
        self.reexec_ns += other.reexec_ns;
        self.accel_faults += other.accel_faults;
        self.fallback_ns += other.fallback_ns;
        self.checksum_errors += other.checksum_errors;
        self.spill_retries += other.spill_retries;
        self.recovery_ns += other.recovery_ns;
        self.fabric_bytes += other.fabric_bytes;
    }

    /// Useful wire bytes over total fabric bytes (1.0 when nothing was
    /// retransmitted; 0 when nothing was carried).
    pub fn goodput(&self, wire_bytes: u64) -> f64 {
        telemetry::ratio(wire_bytes as f64, self.fabric_bytes as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_end_clean_within_budget() {
        let cfg = FaultConfig::uniform(0.9, 77);
        for i in 0..200 {
            let plan = plan_message(&cfg, i, 1024);
            assert_eq!(*plan.attempts.last().unwrap(), Attempt::Clean);
            assert!(plan.attempts.len() as u32 <= cfg.max_retries + 1);
            for a in &plan.attempts[..plan.attempts.len() - 1] {
                assert_ne!(*a, Attempt::Clean, "only the final attempt is clean");
            }
        }
    }

    #[test]
    fn zero_rate_plans_are_single_clean() {
        let cfg = FaultConfig::none();
        for i in 0..50 {
            assert_eq!(plan_message(&cfg, i, 64).attempts, vec![Attempt::Clean]);
        }
    }

    #[test]
    fn plans_replay_identically() {
        let cfg = FaultConfig::uniform(0.5, 123);
        for i in 0..100 {
            let a = plan_message(&cfg, i, 512);
            let b = plan_message(&cfg, i, 512);
            assert_eq!(a.attempts, b.attempts, "message {i} plan must be stable");
        }
    }
}
