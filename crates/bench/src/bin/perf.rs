//! Deterministic accelerator and zero-copy numbers
//! (`cargo run --release --bin perf`), written to `BENCH_PERF.json`:
//!
//! * **accelerator simulation** — the simulated serialize and
//!   deserialize nanoseconds of one full cycle-model run over a fixed
//!   microbenchmark, an anchor that any model change moves;
//! * **archive crossover** — the zero-copy Archive backend's
//!   deserialization (validate in place + fold off the wire, simulated
//!   ns) against the Cereal DU and the fastest compiled software
//!   backend on dense, pointer-heavy, and text workload shapes.
//!
//! Every number is simulated, so the report regenerates byte-identical
//! on any host. Host ser/de time per backend is measured by perfbench
//! (`serde_host --trace 1`). Flag: `--out PATH` (default
//! `BENCH_PERF.json`).

use cereal::CerealConfig;
use cereal_bench::{out_path, run_cereal};
use sdheap::rng::Rng;
use sdheap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};
use serializers::{fold_words_heap, Archive, ArchiveView, NullSink, Serializer};
use store::{Backend, Engine};
use telemetry::NoopSink;
use workloads::{MicroBench, Scale};

struct CrossoverPerf {
    workload: &'static str,
    records: u32,
    stream_bytes: usize,
    archive_validate_ns: f64,
    archive_fold_ns: f64,
    cereal_du_ns: f64,
    sw_name: &'static str,
    sw_de_ns: f64,
}

impl CrossoverPerf {
    /// Archive's full receive-side decode cost: validate once, then
    /// consume every data word off the wire.
    fn archive_de_ns(&self) -> f64 {
        self.archive_validate_ns + self.archive_fold_ns
    }
    fn speedup_vs_sw(&self) -> f64 {
        self.sw_de_ns / self.archive_de_ns()
    }
    fn speedup_vs_cereal(&self) -> f64 {
        self.cereal_du_ns / self.archive_de_ns()
    }
}

/// A payload-dominated graph: 64 `double[256]` arrays under one
/// `Object[]` root — almost all bytes are value words, the regime where
/// validation (per record + per reference) costs the least relative to
/// reconstruction (per word).
fn dense_arrays_graph() -> (Heap, KlassRegistry, Addr) {
    let mut b = GraphBuilder::new(1 << 21);
    let d = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
    let o = b.array_klass("Object[]", FieldKind::Ref);
    let mut rng = Rng::new(0xA2C4_11E5);
    let arrays: Vec<Addr> = (0..64)
        .map(|_| {
            let vals: Vec<u64> =
                (0..256).map(|_| f64::to_bits(rng.next_u64() as f64 * 1e-3)).collect();
            b.value_array(d, &vals).unwrap()
        })
        .collect();
    let root = b.ref_array(o, &arrays).unwrap();
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// The accelerator-vs-zero-copy crossover study (simulated ns, fully
/// deterministic). For each workload shape, Archive's deserialization
/// (validate the image once + a narrated fold over every data word on
/// the wire) is compared against the Cereal DU's reconstruction and the
/// fastest compiled software backend's reconstruction — both of which
/// leave subsequent heap reads unaccounted, exactly as the suites do,
/// so the comparison is conservative *against* Archive. The wire fold
/// is asserted bit-identical to the mirror heap walk before anything is
/// reported.
fn archive_crossover() -> Vec<CrossoverPerf> {
    let workloads: Vec<(&'static str, (Heap, KlassRegistry, Addr))> = vec![
        ("dense_arrays", dense_arrays_graph()),
        ("pointer_tree", MicroBench::TreeNarrow.build(Scale::Tiny)),
        ("text_media", workloads::jsbs::media_content()),
    ];
    workloads
        .into_iter()
        .map(|(name, (mut heap, reg, root))| {
            let mut sink = NullSink;
            heap.gc_clear_serialization_metadata(&reg);
            let bytes = Archive::new()
                .serialize(&mut heap, &reg, root, &mut sink)
                .expect("archive serialize");
            // Validate and fold on one core: the fold continues on the
            // caches validation warmed, exactly like a consumer that
            // checks a batch and immediately reduces it.
            let mut cpu = sim::Cpu::host();
            let view = ArchiveView::validate(&bytes, &reg, &mut cpu).expect("fresh archive");
            let archive_validate_ns = cpu.report().ns;
            let wire_fold = view.fold_words(&mut cpu);
            let archive_fold_ns = cpu.report().ns - archive_validate_ns;
            assert_eq!(
                wire_fold,
                fold_words_heap(&heap, &reg, root),
                "{name}: zero-copy fold diverged from the heap walk"
            );
            let records = view.object_count();
            drop(view);

            let compiled = [Backend::Java, Backend::Kryo, Backend::Skyway, Backend::ProtoLike];
            let (sw_name, sw_de_ns) = compiled
                .into_iter()
                .map(|backend| {
                    heap.gc_clear_serialization_metadata(&reg);
                    let mut engine = Engine::new(backend, &reg);
                    let (sbytes, _) = engine.serialize(&mut heap, &reg, root, false, &mut NoopSink);
                    let (_, _, de_ns) = engine
                        .deserialize(&sbytes, &reg, heap.capacity_bytes(), false, &mut NoopSink)
                        .expect("deserialize");
                    (backend.name(), de_ns)
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty backend list");

            let m = run_cereal(CerealConfig::paper(), &mut heap, &reg, &[root]);

            CrossoverPerf {
                workload: name,
                records,
                stream_bytes: bytes.len(),
                archive_validate_ns,
                archive_fold_ns,
                cereal_du_ns: m.de_ns,
                sw_name,
                sw_de_ns,
            }
        })
        .collect()
}

struct AccelPerf {
    bench: &'static str,
    sim_ser_ns: f64,
    sim_de_ns: f64,
    stream_bytes: u64,
}

/// One full accelerator serialize + deserialize cycle-model run: a
/// change that moves these simulated nanoseconds changed the model.
fn accel_sim() -> AccelPerf {
    let bench = MicroBench::TreeNarrow;
    let (mut heap, reg, root) = bench.build(Scale::Tiny);
    let roots = vec![root; 8];
    let m = run_cereal(CerealConfig::paper(), &mut heap, &reg, &roots);
    AccelPerf {
        bench: bench.name(),
        sim_ser_ns: m.ser_ns,
        sim_de_ns: m.de_ns,
        stream_bytes: m.bytes,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = out_path(&args, "BENCH_PERF.json");

    eprintln!("accelerator simulation run...");
    let accel = accel_sim();
    eprintln!(
        "  {}: simulated ser {:.1} ns, de {:.1} ns",
        accel.bench, accel.sim_ser_ns, accel.sim_de_ns
    );

    eprintln!("archive crossover (zero-copy validate+fold vs Cereal DU vs fastest software)...");
    let crossover = archive_crossover();
    for c in &crossover {
        eprintln!(
            "  {:<13} archive {:.1} ns (validate {:.1} + fold {:.1}) vs {} {:.1} ns ({:.2}x) \
             vs Cereal DU {:.1} ns ({:.2}x), {} records, {} B",
            c.workload,
            c.archive_de_ns(),
            c.archive_validate_ns,
            c.archive_fold_ns,
            c.sw_name,
            c.sw_de_ns,
            c.speedup_vs_sw(),
            c.cereal_du_ns,
            c.speedup_vs_cereal(),
            c.records,
            c.stream_bytes
        );
    }

    let mut crossover_json = String::new();
    for (i, c) in crossover.iter().enumerate() {
        if i > 0 {
            crossover_json.push_str(",\n");
        }
        crossover_json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"records\": {}, \"stream_bytes\": {}, \
             \"archive_validate_ns\": {:.3}, \"archive_fold_ns\": {:.3}, \
             \"archive_de_ns\": {:.3}, \
             \"cereal_du_ns\": {:.3}, \"speedup_vs_cereal\": {:.3}, \
             \"sw_name\": \"{}\", \"sw_de_ns\": {:.3}, \"speedup_vs_sw\": {:.3}, \
             \"folds_identical\": true}}",
            c.workload,
            c.records,
            c.stream_bytes,
            c.archive_validate_ns,
            c.archive_fold_ns,
            c.archive_de_ns(),
            c.cereal_du_ns,
            c.speedup_vs_cereal(),
            c.sw_name,
            c.sw_de_ns,
            c.speedup_vs_sw(),
        ));
    }
    let json = format!(
        "{{\n\
         \x20 \"generated_by\": \"cereal-bench --bin perf\",\n\
         \x20 \"accel_sim\": {{\n\
         \x20   \"bench\": \"{ab}\",\n\
         \x20   \"sim_ser_ns\": {asn:.3}, \"sim_de_ns\": {adn:.3}, \"stream_bytes\": {asb}\n\
         \x20 }},\n\
         \x20 \"archive_crossover\": [\n{cj}\n\x20 ]\n\
         }}\n",
        cj = crossover_json,
        ab = accel.bench,
        asn = accel.sim_ser_ns,
        adn = accel.sim_de_ns,
        asb = accel.stream_bytes,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");
    print!("{json}");
}
