//! Microbenchmark suite: the measurements behind Fig. 3, Fig. 10,
//! Fig. 11 and Table IV.

use crate::runners::{run_cereal, run_software, SdMeasure};
use cereal::CerealConfig;
use workloads::{MicroBench, Scale};

/// Requests issued per benchmark (keeps all 8 units busy; the paper's
/// JSBS methodology repeats each S/D operation many times).
pub const REQUESTS: usize = 8;

/// All measurements for one microbenchmark.
#[derive(Clone, Debug)]
pub struct MicroResult {
    /// Which benchmark.
    pub bench: MicroBench,
    /// Java S/D baseline.
    pub java: SdMeasure,
    /// Kryo baseline.
    pub kryo: SdMeasure,
    /// Skyway baseline.
    pub skyway: SdMeasure,
    /// Full Cereal.
    pub cereal: SdMeasure,
    /// The Vanilla ablation.
    pub vanilla: SdMeasure,
}

/// Runs one microbenchmark at `scale`. Each benchmark is fully
/// self-contained (private heap, deterministic build), so callers may
/// fan benchmarks out across threads without changing any measurement.
pub fn run_one(bench: MicroBench, scale: Scale) -> MicroResult {
    let (mut heap, reg, root) = bench.build(scale);
    let roots = vec![root; REQUESTS];
    MicroResult {
        bench,
        java: run_software(&serializers::JavaSd::new(), &mut heap, &reg, &roots),
        kryo: run_software(&serializers::Kryo::new(), &mut heap, &reg, &roots),
        skyway: run_software(&serializers::Skyway::new(), &mut heap, &reg, &roots),
        cereal: run_cereal(CerealConfig::paper(), &mut heap, &reg, &roots),
        vanilla: run_cereal(CerealConfig::vanilla(), &mut heap, &reg, &roots),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_suite_preserves_paper_orderings() {
        let results: Vec<MicroResult> = MicroBench::all()
            .into_iter()
            .map(|bench| run_one(bench, Scale::Tiny))
            .collect();
        assert_eq!(results.len(), 6);
        for r in &results {
            let name = r.bench.name();
            // Fig. 10 ordering: Cereal fastest, Java slowest.
            assert!(r.cereal.ser_ns < r.java.ser_ns, "{name} ser");
            assert!(r.cereal.de_ns < r.java.de_ns, "{name} de");
            assert!(r.kryo.ser_ns < r.java.ser_ns, "{name} kryo ser");
            // Vanilla between Java and Cereal on deserialization.
            assert!(r.vanilla.de_ns >= r.cereal.de_ns, "{name} vanilla");
        }
        // Table IV: Kryo smallest on trees/lists; Cereal wins on the
        // reference-heavy dense graph thanks to object packing.
        let dense = results
            .iter()
            .find(|r| r.bench == MicroBench::GraphDense)
            .unwrap();
        assert!(
            dense.cereal.bytes < dense.java.bytes,
            "packing must beat Java S/D on dense graphs: {} vs {}",
            dense.cereal.bytes,
            dense.java.bytes
        );
        // NOTE: the paper's Table IV reports Cereal at 2.4 MB on both
        // graphs — far below Kryo — which is unreachable with the paper's
        // own ≥1-byte-per-item packing at 16.7M references; we assert the
        // mechanism's real deliverable (beats Java; see EXPERIMENTS.md).
        let list = results
            .iter()
            .find(|r| r.bench == MicroBench::ListSmall)
            .unwrap();
        assert!(
            list.kryo.bytes < list.cereal.bytes,
            "Kryo smallest on lists"
        );
    }
}
