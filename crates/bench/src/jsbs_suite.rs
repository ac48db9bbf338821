//! JSBS suite: the measurements behind Fig. 12.

use crate::runners::{repeat_root, run_cereal, run_software, SdMeasure};
use cereal::CerealConfig;
use workloads::jsbs::{catalog, media_content, LibClass};

/// S/D repetitions over the media-content object (the paper uses 1000;
/// the modeled libraries are scale-free so 64 measured reps suffice).
pub const REPS: usize = 64;

/// One library's outcome on the suite.
#[derive(Clone, Debug)]
pub struct JsbsEntry {
    /// Library name.
    pub name: String,
    /// Implementation class.
    pub class: LibClass,
    /// Total S/D time (ns) for [`REPS`] round trips.
    pub sd_ns: f64,
    /// Serialized size in bytes (one object).
    pub size: u64,
    /// Whether this entry was measured mechanistically.
    pub measured: bool,
}

/// Full suite outcome.
#[derive(Clone, Debug)]
pub struct JsbsResult {
    /// All 88 software libraries.
    pub libraries: Vec<JsbsEntry>,
    /// Cereal's measurement.
    pub cereal: SdMeasure,
}

/// Number of independently schedulable measured runs: the five software
/// serializers plus Cereal. Each builds its own deterministic
/// media-content heap, so the units can run on any worker in any order
/// without changing a measurement.
pub const MEASURED_UNITS: usize = 6;

/// Runs measured unit `unit` (see [`MEASURED_UNITS`]) on a private heap.
///
/// The builder is seed-fixed, object graphs get identical layouts and
/// identity hashes in every heap, and the software serializers do not
/// write to the source heap — so per-unit heaps measure exactly what the
/// old single-heap sequential pass measured.
pub fn run_measured(unit: usize) -> SdMeasure {
    let (mut heap, reg, root) = media_content();
    let roots = repeat_root(root, REPS);
    match unit {
        0 => run_software(&serializers::JavaSd::new(), &mut heap, &reg, &roots),
        1 => run_software(&serializers::Kryo::new(), &mut heap, &reg, &roots),
        2 => run_software(&serializers::Skyway::new(), &mut heap, &reg, &roots),
        3 => run_software(&serializers::JsonLike::new(), &mut heap, &reg, &roots),
        4 => run_software(&serializers::ProtoLike::new(), &mut heap, &reg, &roots),
        5 => run_cereal(CerealConfig::paper(), &mut heap, &reg, &roots),
        _ => panic!("JSBS has {MEASURED_UNITS} measured units, got {unit}"),
    }
}

/// Derives the full 88-library suite outcome from the six measured runs
/// (in [`run_measured`] unit order).
pub fn assemble(measures: &[SdMeasure]) -> JsbsResult {
    assert_eq!(measures.len(), MEASURED_UNITS, "one measure per unit");
    let (java, kryo, skyway, json, proto, cereal) = (
        &measures[0],
        &measures[1],
        &measures[2],
        &measures[3],
        &measures[4],
        measures[5].clone(),
    );

    let per_obj = |m: &SdMeasure| m.bytes / REPS as u64;
    let measured_entry = |lib: &workloads::LibraryProfile, m: &SdMeasure| JsbsEntry {
        name: lib.name.clone(),
        class: lib.class,
        sd_ns: m.sd_ns(),
        size: per_obj(m),
        measured: true,
    };
    let mut libraries = Vec::new();
    for lib in catalog() {
        let entry = match (lib.class, lib.name.as_str()) {
            (LibClass::Implemented, "java-built-in") => measured_entry(&lib, java),
            (LibClass::Implemented, "kryo") => measured_entry(&lib, kryo),
            (LibClass::Implemented, "skyway") => measured_entry(&lib, skyway),
            (LibClass::Implemented, "json-gson-like") => measured_entry(&lib, json),
            (LibClass::Implemented, _) => measured_entry(&lib, proto),
            _ => JsbsEntry {
                name: lib.name,
                class: lib.class,
                // Modeled: factors are relative to the measured Java run.
                sd_ns: java.ser_ns * lib.ser_rel + java.de_ns * lib.de_rel,
                size: (per_obj(java) as f64 * lib.size_rel) as u64,
                measured: false,
            },
        };
        libraries.push(entry);
    }
    JsbsResult { libraries, cereal }
}

impl JsbsResult {
    /// Cereal's geometric-mean speedup over all 88 libraries (the paper's
    /// 43.4× headline).
    pub fn cereal_geomean_speedup(&self) -> f64 {
        crate::table::geomean(
            &self
                .libraries
                .iter()
                .map(|l| l.sd_ns / self.cereal.sd_ns())
                .collect::<Vec<_>>(),
        )
    }

    /// The fastest software library (paper: kryo-manual).
    pub fn fastest_software(&self) -> &JsbsEntry {
        self.libraries
            .iter()
            .min_by(|a, b| a.sd_ns.partial_cmp(&b.sd_ns).expect("no NaN"))
            .expect("non-empty")
    }

    /// Cereal size vs the library average (paper: 46 % smaller).
    pub fn cereal_size_vs_average(&self) -> f64 {
        let avg = self.libraries.iter().map(|l| l.size as f64).sum::<f64>()
            / self.libraries.len() as f64;
        (self.cereal.bytes as f64 / REPS as f64) / avg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_shapes_hold() {
        let measures: Vec<SdMeasure> = (0..MEASURED_UNITS).map(run_measured).collect();
        let r = assemble(&measures);
        assert_eq!(r.libraries.len(), 88);

        // Cereal beats every software library, including the fastest.
        let fastest = r.fastest_software();
        assert!(
            r.cereal.sd_ns() < fastest.sd_ns,
            "Cereal {} vs fastest software {} ({})",
            r.cereal.sd_ns(),
            fastest.sd_ns,
            fastest.name
        );
        // The fastest software library is a manual one (kryo-manual in
        // the paper).
        assert_eq!(fastest.class, LibClass::Manual, "{}", fastest.name);

        // Large geomean speedup (paper: 43.4×; same decade here).
        let g = r.cereal_geomean_speedup();
        assert!(g > 10.0, "geomean {g}");

        // Measured entries present and sane.
        assert_eq!(r.libraries.iter().filter(|l| l.measured).count(), 5);
        let java = r.libraries.iter().find(|l| l.name == "java-built-in").unwrap();
        let kryo = r.libraries.iter().find(|l| l.name == "kryo").unwrap();
        let json = r.libraries.iter().find(|l| l.name == "json-gson-like").unwrap();
        let proto = r.libraries.iter().find(|l| l.name == "proto-codegen-like").unwrap();
        assert!(kryo.sd_ns < java.sd_ns);
        // The measured classes sit where JSBS puts them: codegen faster
        // than Kryo, JSON text slower than Kryo.
        assert!(proto.sd_ns < kryo.sd_ns, "proto {} vs kryo {}", proto.sd_ns, kryo.sd_ns);
        assert!(json.sd_ns > kryo.sd_ns, "json {} vs kryo {}", json.sd_ns, kryo.sd_ns);
    }
}
