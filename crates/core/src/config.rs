//! Architectural parameters of the Cereal accelerator (paper Table I and
//! §V-E), plus the knobs for the paper's own ablation ("Cereal Vanilla").

use sim::{DramConfig, MaiConfig, TlbConfig};

/// Full accelerator configuration.
#[derive(Clone, Copy, Debug)]
pub struct CerealConfig {
    /// Number of serialization units.
    pub num_su: usize,
    /// Number of deserialization units.
    pub num_du: usize,
    /// Block reconstructors per DU (paper: four).
    pub reconstructors_per_du: usize,
    /// Accelerator clock in GHz. The paper synthesizes at 40 nm but does
    /// not state a clock; 1 GHz is assumed (documented in DESIGN.md) and
    /// only scales the non-memory latencies.
    pub clock_ghz: f64,
    /// Maximum registered classes (Klass Pointer Table / Class ID Table
    /// capacity, §V-E: 4 K entries).
    pub max_classes: usize,
    /// MAI geometry (Table I: 64 entries, 32 B blocks).
    pub mai: MaiConfig,
    /// TLB geometry (Table I: 128 entries, 1 GB pages).
    pub tlb: TlbConfig,
    /// DRAM system shared with the host (Table I).
    pub dram: DramConfig,
    /// Header-manager processing time per traversal step, in cycles.
    pub hm_step_cycles: u32,
    /// Block-reconstructor occupancy per 64 B block, in cycles.
    pub reconstruct_cycles: u32,
    /// Block-manager dispatch time per block, in cycles.
    pub dispatch_cycles: u32,
    /// Per-stream eager-prefetch buffer in the DU, in bytes.
    pub prefetch_buffer_bytes: u64,
    /// Header-prefetch lookahead of the SU's work queue, in objects.
    pub su_lookahead: usize,
    /// Extra latency per heap access for cache-coherence `get` messages
    /// (§V-E: Cereal participates in the on-chip coherence domain to
    /// fetch up-to-date copies; the pipeline tolerates the added
    /// latency). In nanoseconds.
    pub coherence_ns: f64,
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
            clock_ghz: 1.0,
            max_classes: 4096,
            mai: MaiConfig::default(),
            tlb: TlbConfig::default(),
            dram: DramConfig::default(),
            hm_step_cycles: 1,
            reconstruct_cycles: 8,
            dispatch_cycles: 1,
            prefetch_buffer_bytes: 4096,
            su_lookahead: 8,
            coherence_ns: 10.0,
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

    /// Nanoseconds per accelerator cycle.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.clock_ghz
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
        assert_eq!(c.max_classes, 4096);
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
        assert!((CerealConfig::paper().cycle_ns() - 1.0).abs() < 1e-12);
    }
}
