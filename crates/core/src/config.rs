//! Architectural parameters of the Cereal accelerator (paper Table I and
//! §V-E), plus the knobs for the paper's own ablation ("Cereal Vanilla").
//!
//! Parameters the evaluation never varies are constants: the clock, the
//! class-table capacity, the header-manager and dispatch cycle counts,
//! the DU prefetch buffer, the SU lookahead and the coherence latency.
//! [`CerealConfig`] holds the ones the figures, ablations and tests turn.

use sim::{DramConfig, MaiConfig, TlbConfig};

/// Accelerator clock in GHz. The paper synthesizes at 40 nm but does not
/// state a clock; 1 GHz is assumed (documented in DESIGN.md) and only
/// scales the non-memory latencies.
pub const CLOCK_GHZ: f64 = 1.0;
/// Nanoseconds per accelerator cycle.
pub(crate) const CYCLE_NS: f64 = 1.0 / CLOCK_GHZ;
/// Maximum registered classes (Klass Pointer Table / Class ID Table
/// capacity, §V-E: 4 K entries).
pub const MAX_CLASSES: usize = 4096;
/// Header-manager processing time per traversal step, in cycles.
pub(crate) const HM_STEP_CYCLES: u32 = 1;
/// Block-manager dispatch time per block, in cycles.
pub(crate) const DISPATCH_CYCLES: u32 = 1;
/// Per-stream eager-prefetch buffer in the DU, in bytes.
pub(crate) const PREFETCH_BUFFER_BYTES: u64 = 4096;
/// Header-prefetch lookahead of the SU's work queue, in objects.
pub(crate) const SU_LOOKAHEAD: usize = 8;
/// Extra latency per heap access for cache-coherence `get` messages
/// (§V-E: Cereal participates in the on-chip coherence domain to fetch
/// up-to-date copies; the pipeline tolerates the added latency). In
/// nanoseconds.
pub(crate) const COHERENCE_NS: f64 = 10.0;

/// Full accelerator configuration.
#[derive(Clone, Copy, Debug)]
pub struct CerealConfig {
    /// Number of serialization units.
    pub num_su: usize,
    /// Number of deserialization units.
    pub num_du: usize,
    /// Block reconstructors per DU (paper: four).
    pub reconstructors_per_du: usize,
    /// MAI geometry (Table I: 64 entries, 32 B blocks).
    pub mai: MaiConfig,
    /// TLB geometry (Table I: 128 entries, 1 GB pages).
    pub tlb: TlbConfig,
    /// DRAM system shared with the host (Table I).
    pub dram: DramConfig,
    /// Block-reconstructor occupancy per 64 B block, in cycles.
    pub reconstruct_cycles: u32,
    /// Strip mark words from the value array (Fig. 16's "Header Strip").
    pub strip_mark_words: bool,
    /// The paper's ablation: disable pipelining in the SU ("Cereal
    /// Vanilla", Fig. 10). Operation-level parallelism across units
    /// remains. The DU reads only `reconstructors_per_du`, so the
    /// ablation's single block reconstructor per DU is set there, as
    /// [`CerealConfig::vanilla`] does.
    pub vanilla: bool,
}

impl Default for CerealConfig {
    fn default() -> Self {
        CerealConfig {
            num_su: 8,
            num_du: 8,
            reconstructors_per_du: 4,
            mai: MaiConfig::default(),
            tlb: TlbConfig::default(),
            dram: DramConfig::default(),
            reconstruct_cycles: 8,
            strip_mark_words: false,
            vanilla: false,
        }
    }
}

impl CerealConfig {
    /// The evaluation configuration (Table I).
    pub fn paper() -> Self {
        Self::default()
    }

    /// The "Cereal Vanilla" ablation: no fine-grained parallelism, only
    /// operation-level parallelism across units.
    pub fn vanilla() -> Self {
        CerealConfig {
            vanilla: true,
            reconstructors_per_du: 1,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table1() {
        let c = CerealConfig::paper();
        assert_eq!(c.num_su, 8);
        assert_eq!(c.num_du, 8);
        assert_eq!(c.reconstructors_per_du, 4);
        assert_eq!(c.mai.entries, 64);
        assert_eq!(c.mai.block_bytes, 32);
        assert_eq!(c.tlb.entries, 128);
        const _: () = assert!(MAX_CLASSES == 4096);
        assert!((c.dram.peak_bytes_per_ns() - 76.8).abs() < 1e-9);
    }

    #[test]
    fn vanilla_disables_fine_grained_parallelism() {
        let v = CerealConfig::vanilla();
        assert!(v.vanilla);
        assert_eq!(v.reconstructors_per_du, 1);
        assert!(!CerealConfig::paper().vanilla);
        assert_eq!(CerealConfig::paper().reconstructors_per_du, 4);
    }

    #[test]
    fn cycle_time() {
        const _: () = assert!(CYCLE_NS == 1.0);
    }
}
