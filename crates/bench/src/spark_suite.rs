//! Spark application suite: the measurements behind Fig. 2 and
//! Figs. 13–17.

use crate::runners::{run_cereal, run_software, SdMeasure};
use cereal::CerealConfig;
use workloads::spark::phases::{self, AppRun};
use workloads::{Scale, SparkApp};

/// All measurements for one application.
#[derive(Clone, Debug)]
pub struct SparkResult {
    /// Which application.
    pub app: SparkApp,
    /// Java S/D measurements over all shuffle batches.
    pub java: SdMeasure,
    /// Kryo measurements.
    pub kryo: SdMeasure,
    /// Cereal measurements.
    pub cereal: SdMeasure,
    /// End-to-end run under Java S/D (phase model).
    pub java_run: AppRun,
    /// End-to-end run under Kryo.
    pub kryo_run: AppRun,
    /// End-to-end run under Cereal.
    pub cereal_run: AppRun,
    /// Packed vs baseline-format sizes (for Fig. 16): (packed, baseline,
    /// packed-with-header-strip).
    pub format_sizes: (u64, u64, u64),
}

/// Runs one application at `scale` on its own dataset — the unit of
/// fan-out scheduling (each app builds a private heap, so apps can run
/// on any worker in any order).
pub fn run_one(app: SparkApp, scale: Scale) -> SparkResult {
    let mut ds = app.build(scale);
    let roots = ds.batches.clone();
    let java = run_software(&serializers::JavaSd::new(), &mut ds.heap, &ds.reg, &roots);
    let kryo = run_software(&serializers::Kryo::new(), &mut ds.heap, &ds.reg, &roots);
    let cereal = run_cereal(CerealConfig::paper(), &mut ds.heap, &ds.reg, &roots);

    let java_run = phases::java_run(app, java.sd_ns(), java.bytes);
    let kryo_run = phases::swapped_run(&java_run, kryo.sd_ns(), kryo.bytes, java.bytes);
    let cereal_run = phases::swapped_run(&java_run, cereal.sd_ns(), cereal.bytes, java.bytes);

    let format_sizes = format_sizes(&mut ds, &roots);

    SparkResult {
        app,
        java,
        kryo,
        cereal,
        java_run,
        kryo_run,
        cereal_run,
        format_sizes,
    }
}

/// Computes (packed, unpacked-baseline, packed+header-strip) stream sizes
/// for Fig. 16's compression-rate comparison.
fn format_sizes(ds: &mut workloads::SparkDataset, roots: &[sdheap::Addr]) -> (u64, u64, u64) {
    let mut tables = cereal::ClassTables::new(4096);
    tables.register_all(&ds.reg).expect("register");
    // The accelerator runs above already stamped serialization counters
    // into the header extensions; clear them (the paper's GC reset) so
    // our fresh counters do not collide with stale visited marks.
    ds.heap.gc_clear_serialization_metadata(&ds.reg);
    let mut packed = 0u64;
    let mut baseline = 0u64;
    let mut stripped = 0u64;
    for (i, &root) in roots.iter().enumerate() {
        let out = cereal::functional::encode(
            &mut ds.heap,
            &ds.reg,
            &tables,
            (2 * i + 1) as u16,
            0,
            false,
        )
        .run(root)
        .expect("encode");
        packed += out.stream.wire_bytes() as u64;
        baseline += out.stream.baseline_wire_bytes() as u64;
        let strip =
            cereal::functional::encode(&mut ds.heap, &ds.reg, &tables, (2 * i + 2) as u16, 0, true)
                .run(root)
                .expect("encode strip");
        stripped += strip.stream.wire_bytes() as u64;
    }
    (packed, baseline, stripped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::geomean;

    #[test]
    fn tiny_suite_preserves_paper_shapes() {
        let results: Vec<SparkResult> = SparkApp::all()
            .into_iter()
            .map(|app| run_one(app, Scale::Tiny))
            .collect();
        assert_eq!(results.len(), 6);

        // Fig. 13 shape: Cereal > Kryo > Java on S/D time, every app.
        for r in &results {
            assert!(r.kryo.sd_ns() < r.java.sd_ns(), "{}", r.app.name());
            assert!(r.cereal.sd_ns() < r.kryo.sd_ns(), "{}", r.app.name());
        }
        let cereal_vs_java = geomean(
            &results
                .iter()
                .map(|r| r.java.sd_ns() / r.cereal.sd_ns())
                .collect::<Vec<_>>(),
        );
        assert!(cereal_vs_java > 3.0, "paper: 7.97x, got {cereal_vs_java}");

        // Fig. 14 shape: end-to-end speedup > 1 everywhere, biggest for
        // the S/D-dominated SVM.
        let mut best_app = None;
        let mut best = 0.0;
        for r in &results {
            let sp = r.java_run.total_ns() / r.cereal_run.total_ns();
            assert!(sp > 1.0, "{}: {sp}", r.app.name());
            if sp > best {
                best = sp;
                best_app = Some(r.app);
            }
        }
        assert_eq!(
            best_app,
            Some(SparkApp::Svm),
            "SVM gains most (paper: 4.66x)"
        );

        // Fig. 17 shape: Cereal saves orders of magnitude of energy.
        for r in &results {
            assert!(
                r.java.sd_energy_uj() / r.cereal.sd_energy_uj() > 20.0,
                "{}",
                r.app.name()
            );
        }

        // Fig. 16 shape: packing always helps; most on ref-heavy NWeight.
        let rates: Vec<(SparkApp, f64)> = results
            .iter()
            .map(|r| {
                let (p, b, _) = r.format_sizes;
                (r.app, 1.0 - p as f64 / b as f64)
            })
            .collect();
        for &(app, rate) in &rates {
            assert!(rate > 0.0, "{}: {rate}", app.name());
        }
        let nweight = rates
            .iter()
            .find(|(a, _)| *a == SparkApp::NWeight)
            .unwrap()
            .1;
        let svm = rates.iter().find(|(a, _)| *a == SparkApp::Svm).unwrap().1;
        assert!(
            nweight > svm,
            "packing helps ref-heavy NWeight ({nweight}) more than SVM ({svm})"
        );
    }
}
