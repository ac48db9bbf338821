//! Spark application workload models (paper §VI-A, Table III).
//!
//! The paper evaluates six HiBench applications on Apache Spark,
//! measuring the S/D operations inside shuffles, caching and spills. We
//! model each application's *S/D-visible* data: the batches of records a
//! Spark executor serializes per partition, with each application's
//! characteristic record shape:
//!
//! | App | Type (Table III) | Record shape |
//! |---|---|---|
//! | NWeight | Graph | adjacency records with edge-object arrays (reference-heavy) |
//! | SVM | Machine learning | dense `LabeledPoint` with a `double[]` feature vector |
//! | Bayes | Machine learning | sparse vectors (`int[]` indices + `double[]` values) |
//! | LR | Machine learning | dense `LabeledPoint` |
//! | Terasort | Sort | 10-byte-key/90-byte-value records |
//! | ALS | Machine learning | tiny `Rating {user, product, rating}` tuples |
//!
//! Each batch (one `Object[]` of records) is one S/D request — Spark
//! serializes per partition, which is where Cereal's operation-level
//! parallelism comes from. Input sizes follow Table III, divided by 256
//! at [`Scale::Scaled`] and [`Scale::Paper`] alike (the full inputs are
//! not modeled; ratios, not absolute times, are what the figures
//! report), or a few batches at [`Scale::Tiny`].

pub mod agg;
pub mod phases;

use crate::Scale;
use sdheap::builder::Init;
use sdheap::rng::Rng;
use sdheap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};

/// The six evaluated applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SparkApp {
    /// Graph processing (156 MB input).
    NWeight,
    /// Support Vector Machine (1740 MB).
    Svm,
    /// Bayesian Classification (1126 MB).
    Bayes,
    /// Logistic Regression (1945 MB).
    Lr,
    /// Terasort (3072 MB).
    Terasort,
    /// Alternating Least Squares (1331 MB).
    Als,
}

/// A generated dataset: one heap holding `batches` independent S/D
/// request roots.
#[derive(Debug)]
pub struct SparkDataset {
    /// The heap holding every batch.
    pub heap: Heap,
    /// The shared klass registry.
    pub reg: KlassRegistry,
    /// One root per S/D request (a batch of records).
    pub batches: Vec<Addr>,
}

impl SparkApp {
    /// All applications in Table III order.
    pub fn all() -> [SparkApp; 6] {
        [
            SparkApp::NWeight,
            SparkApp::Svm,
            SparkApp::Bayes,
            SparkApp::Lr,
            SparkApp::Terasort,
            SparkApp::Als,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            SparkApp::NWeight => "NWeight",
            SparkApp::Svm => "SVM",
            SparkApp::Bayes => "Bayes",
            SparkApp::Lr => "LR",
            SparkApp::Terasort => "Terasort",
            SparkApp::Als => "ALS",
        }
    }

    /// Workload type as in Table III.
    pub fn workload_type(&self) -> &'static str {
        match self {
            SparkApp::NWeight => "Graph",
            SparkApp::Terasort => "Sort",
            _ => "Machine learning",
        }
    }

    /// Table III input size in MB.
    pub fn input_mb(&self) -> u64 {
        match self {
            SparkApp::NWeight => 156,
            SparkApp::Svm => 1740,
            SparkApp::Bayes => 1126,
            SparkApp::Lr => 1945,
            SparkApp::Terasort => 3072,
            SparkApp::Als => 1331,
        }
    }

    /// Target S/D-visible bytes at a scale: the Table III size divided
    /// by 256 at `Scaled` and `Paper`, a few batches at `Tiny`.
    pub fn target_bytes(&self, scale: Scale) -> u64 {
        match scale {
            Scale::Scaled | Scale::Paper => self.input_mb() * (1 << 20) / 256,
            Scale::Tiny => 64 << 10,
        }
    }

    /// Builds the dataset.
    pub fn build(&self, scale: Scale) -> SparkDataset {
        let target = self.target_bytes(scale);
        let mut b = GraphBuilder::new(target * 6 + (1 << 20));
        let mut rng = Rng::new(0x5EED ^ (*self as u64) << 8);
        let batch_klass = b.array_klass("Object[]", FieldKind::Ref);

        let mut batches = Vec::new();
        let mut bytes_so_far = 0u64;
        let records_per_batch = 256;
        while bytes_so_far < target {
            let mut records = Vec::with_capacity(records_per_batch);
            for _ in 0..records_per_batch {
                let (rec, sz) = self.build_record(&mut b, &mut rng);
                records.push(rec);
                bytes_so_far += sz;
            }
            let batch = b.ref_array(batch_klass, &records).expect("sized");
            bytes_so_far += (records.len() as u64 + 4) * 8;
            batches.push(batch);
            if bytes_so_far >= target {
                break;
            }
        }
        let (heap, reg) = b.finish();
        SparkDataset { heap, reg, batches }
    }

    /// Builds one record; returns (root, approx bytes).
    fn build_record(&self, b: &mut GraphBuilder, rng: &mut Rng) -> (Addr, u64) {
        match self {
            SparkApp::NWeight => {
                // Adjacency record: { id, edges: Edge[] }, Edge { dst, w }.
                let edge = b.klass(
                    "Edge",
                    vec![
                        FieldKind::Value(ValueType::Long),   // dst vertex
                        FieldKind::Value(ValueType::Double), // weight
                        FieldKind::Value(ValueType::Long),   // edge attrs
                    ],
                );
                let edges_arr = b.array_klass("Edge[]", FieldKind::Ref);
                let vertex = b.klass(
                    "Vertex",
                    vec![FieldKind::Value(ValueType::Long), FieldKind::Ref],
                );
                let n_edges = rng.gen_range_usize(8, 32);
                let mut edges = Vec::with_capacity(n_edges);
                for _ in 0..n_edges {
                    edges.push(
                        b.object(
                            edge,
                            &[
                                Init::Val(rng.gen_range_u64(0, 1_000_000)),
                                Init::Val(f64::to_bits(rng.gen_range_f64(0.0, 1.0))),
                                Init::Val(rng.next_u64()),
                            ],
                        )
                        .expect("sized"),
                    );
                }
                let arr = b.ref_array(edges_arr, &edges).expect("sized");
                let v = b
                    .object(vertex, &[Init::Val(rng.gen_range_u64(0, 1_000_000)), Init::Ref(arr)])
                    .expect("sized");
                (v, (n_edges as u64) * 48 + (n_edges as u64 + 4) * 8 + 40)
            }
            SparkApp::Svm | SparkApp::Lr => {
                let dims = if *self == SparkApp::Svm { 64 } else { 32 };
                let doubles = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
                let point = b.klass(
                    "LabeledPoint",
                    vec![FieldKind::Value(ValueType::Double), FieldKind::Ref],
                );
                let feats: Vec<u64> = (0..dims)
                    .map(|_| f64::to_bits(rng.gen_range_f64(-1.0, 1.0)))
                    .collect();
                let arr = b.value_array(doubles, &feats).expect("sized");
                let p = b
                    .object(
                        point,
                        &[
                            Init::Val(f64::to_bits(if rng.gen_bool(0.5) { 1.0 } else { -1.0 })),
                            Init::Ref(arr),
                        ],
                    )
                    .expect("sized");
                (p, dims as u64 * 8 + 32 + 40)
            }
            SparkApp::Bayes => {
                let ints = b.array_klass("int[]", FieldKind::Value(ValueType::Int));
                let doubles = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
                let sparse = b.klass(
                    "SparseVector",
                    vec![
                        FieldKind::Value(ValueType::Double), // label
                        FieldKind::Ref,                      // indices
                        FieldKind::Ref,                      // values
                    ],
                );
                let k = rng.gen_range_usize(8, 24);
                let idx: Vec<u64> = (0..k).map(|_| rng.gen_range_u64(0, 10_000)).collect();
                let vals: Vec<u64> =
                    (0..k).map(|_| f64::to_bits(rng.gen_range_f64(0.0, 5.0))).collect();
                let ia = b.value_array(ints, &idx).expect("sized");
                let va = b.value_array(doubles, &vals).expect("sized");
                let s = b
                    .object(
                        sparse,
                        &[
                            Init::Val(f64::to_bits(rng.gen_range_f64(0.0, 20.0))),
                            Init::Ref(ia),
                            Init::Ref(va),
                        ],
                    )
                    .expect("sized");
                (s, k as u64 * 16 + 64 + 48)
            }
            SparkApp::Terasort => {
                // 10 B keys / 90 B values, packed 8 bytes per heap word
                // (as HotSpot packs byte[] backing stores): 2 + 12 words.
                let words = b.array_klass("long[]", FieldKind::Value(ValueType::Long));
                let rec = b.klass("Record", vec![FieldKind::Ref, FieldKind::Ref]);
                let key: Vec<u64> = (0..2).map(|_| rng.next_u64()).collect();
                let val: Vec<u64> = (0..12).map(|_| rng.next_u64()).collect();
                let ka = b.value_array(words, &key).expect("sized");
                let va = b.value_array(words, &val).expect("sized");
                let r = b
                    .object(rec, &[Init::Ref(ka), Init::Ref(va)])
                    .expect("sized");
                (r, (2 + 12) * 8 + 64 + 40)
            }
            SparkApp::Als => {
                // ALS shuffles user/item factor vectors between the
                // alternating solves (rank-16 latent factors), not raw
                // ratings.
                let doubles = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
                let fv = b.klass(
                    "FactorVector",
                    vec![FieldKind::Value(ValueType::Int), FieldKind::Ref],
                );
                let rank = 16;
                let factors: Vec<u64> = (0..rank)
                    .map(|_| f64::to_bits(rng.gen_range_f64(-1.0, 1.0)))
                    .collect();
                let arr = b.value_array(doubles, &factors).expect("sized");
                let r = b
                    .object(fv, &[Init::Val(rng.gen_range_u64(0, 100_000)), Init::Ref(arr)])
                    .expect("sized");
                (r, rank as u64 * 8 + 32 + 40)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdheap::GraphStats;

    #[test]
    fn all_apps_build_tiny_datasets() {
        for app in SparkApp::all() {
            let ds = app.build(Scale::Tiny);
            assert!(!ds.batches.is_empty(), "{}", app.name());
            let s = GraphStats::measure(&ds.heap, &ds.reg, ds.batches[0]);
            assert!(s.objects > 100, "{}: {} objects", app.name(), s.objects);
        }
    }

    #[test]
    fn table3_sizes() {
        assert_eq!(SparkApp::NWeight.input_mb(), 156);
        assert_eq!(SparkApp::Svm.input_mb(), 1740);
        assert_eq!(SparkApp::Bayes.input_mb(), 1126);
        assert_eq!(SparkApp::Lr.input_mb(), 1945);
        assert_eq!(SparkApp::Terasort.input_mb(), 3072);
        assert_eq!(SparkApp::Als.input_mb(), 1331);
    }

    #[test]
    fn nweight_is_reference_heavy_svm_is_not() {
        let nw = SparkApp::NWeight.build(Scale::Tiny);
        let svm = SparkApp::Svm.build(Scale::Tiny);
        let s_nw = GraphStats::measure(&nw.heap, &nw.reg, nw.batches[0]);
        let s_svm = GraphStats::measure(&svm.heap, &svm.reg, svm.batches[0]);
        let refs_per_byte_nw = s_nw.live_refs as f64 / s_nw.total_bytes as f64;
        let refs_per_byte_svm = s_svm.live_refs as f64 / s_svm.total_bytes as f64;
        assert!(
            refs_per_byte_nw > refs_per_byte_svm * 2.0,
            "NWeight {refs_per_byte_nw} vs SVM {refs_per_byte_svm}"
        );
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = SparkApp::Als.build(Scale::Tiny);
        let b = SparkApp::Als.build(Scale::Tiny);
        assert_eq!(a.batches.len(), b.batches.len());
        assert!(sdheap::isomorphic_with(
            &a.heap,
            &a.reg,
            a.batches[0],
            &b.heap,
            b.batches[0],
            sdheap::IsoOptions {
                check_identity_hash: false
            }
        ));
    }

    #[test]
    fn scaled_dataset_hits_target_bytes() {
        let ds = SparkApp::NWeight.build(Scale::Scaled);
        let target = SparkApp::NWeight.target_bytes(Scale::Scaled);
        let total: u64 = ds
            .batches
            .iter()
            .map(|&r| GraphStats::measure(&ds.heap, &ds.reg, r).total_bytes)
            .sum();
        assert!(
            total > target / 2 && total < target * 3,
            "target {target}, built {total}"
        );
    }
}
