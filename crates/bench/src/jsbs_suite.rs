//! JSBS suite: the measurements behind Fig. 12.
//!
//! Cereal against every serializer this repository runs, one experiment
//! unit per [`Backend::ALL`] entry, over JSBS's media-content object. The
//! paper's 88-library population is not reproduced: every library here
//! is measured.

use crate::runners::{run_cereal, run_software, SdMeasure};
use cereal::CerealConfig;
use store::Backend;
use workloads::jsbs::media_content;

/// S/D repetitions over the media-content object (the paper uses 1000).
pub const REPS: usize = 64;

/// Fig. 12's measurements.
#[derive(Clone, Debug)]
pub struct JsbsResult {
    /// Every software library, in [`Backend::ALL`] order.
    pub libraries: Vec<SdMeasure>,
    /// Cereal's measurement.
    pub cereal: SdMeasure,
}

/// Runs `backend` for [`REPS`] round trips on a private media-content
/// heap.
///
/// The builder is seed-fixed, object graphs get identical layouts and
/// identity hashes in every heap, and the software serializers do not
/// write to the source heap, so the units can run on any worker in any
/// order without changing a measurement.
pub fn run(backend: Backend) -> SdMeasure {
    let (mut heap, reg, root) = media_content();
    let roots = vec![root; REPS];
    match backend.software() {
        Some(ser) => run_software(ser.as_ref(), &mut heap, &reg, &roots),
        None => run_cereal(CerealConfig::paper(), &mut heap, &reg, &roots),
    }
}

impl JsbsResult {
    /// Splits one [`run`] per backend into the libraries and Cereal.
    ///
    /// # Panics
    /// Panics if Cereal did not run.
    pub fn new(runs: impl IntoIterator<Item = (Backend, SdMeasure)>) -> Self {
        let (mut libraries, mut cereal) = (Vec::new(), None);
        for (backend, m) in runs {
            match backend {
                Backend::Cereal => cereal = Some(m),
                _ => libraries.push(m),
            }
        }
        JsbsResult {
            libraries,
            cereal: cereal.expect("Cereal ran"),
        }
    }

    /// Cereal's speedup over `lib`.
    pub fn speedup(&self, lib: &SdMeasure) -> f64 {
        lib.sd_ns() / self.cereal.sd_ns()
    }

    /// Cereal's geometric-mean speedup over the measured libraries (the
    /// paper's 43.4× is over 88 JSBS libraries).
    pub fn cereal_geomean_speedup(&self) -> f64 {
        crate::table::geomean(
            &self
                .libraries
                .iter()
                .map(|l| self.speedup(l))
                .collect::<Vec<_>>(),
        )
    }

    /// The fastest measured software library (paper: kryo-manual).
    pub fn fastest_software(&self) -> &SdMeasure {
        self.libraries
            .iter()
            .min_by(|a, b| a.sd_ns().total_cmp(&b.sd_ns()))
            .expect("non-empty")
    }

    /// Cereal's stream size over the measured libraries' average (paper:
    /// 46 % smaller).
    pub fn cereal_size_vs_average(&self) -> f64 {
        let total: u64 = self.libraries.iter().map(|l| l.bytes).sum();
        self.cereal.bytes as f64 / (total as f64 / self.libraries.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_shapes_hold() {
        let r = JsbsResult::new(Backend::ALL.iter().map(|&b| (b, run(b))));
        let names: Vec<&str> = r.libraries.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(
            names,
            ["Java", "Kryo", "Skyway", "JsonLike", "ProtoLike", "Archive"]
        );

        // Cereal beats every software library, including the fastest.
        let fastest = r.fastest_software();
        assert!(
            r.cereal.sd_ns() < fastest.sd_ns(),
            "Cereal {} vs fastest software {} ({})",
            r.cereal.sd_ns(),
            fastest.sd_ns(),
            fastest.name
        );
        let g = r.cereal_geomean_speedup();
        assert!(g > 10.0, "geomean {g}");

        // The measured classes sit where JSBS puts them: codegen faster
        // than Kryo, JSON text and string-typed Java S/D slower.
        let sd = |name: &str| r.libraries.iter().find(|l| l.name == name).unwrap().sd_ns();
        assert!(sd("ProtoLike") < sd("Kryo"), "proto vs kryo");
        assert!(sd("Kryo") < sd("JsonLike"), "kryo vs json");
        assert!(sd("Kryo") < sd("Java"), "kryo vs java");
    }
}
