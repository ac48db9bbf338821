//! Performance trajectory harness (`cargo run --release --bin perf`).
//!
//! Times the functional hot paths over fixed seeds and writes
//! `BENCH_PERF.json` so future PRs can compare their wall-clock numbers
//! against a committed baseline:
//!
//! * **pack/unpack kernel** — the word-at-a-time `Packer`/`Unpacker`
//!   against the retained bit-by-bit reference
//!   (`sdformat::bitio::naive`), with byte-identical streams asserted
//!   before timing;
//! * **serializer round trips** — serialize + deserialize per software
//!   baseline on a fixed microbenchmark graph;
//! * **accelerator simulation** — wall-clock of one full cycle-model run
//!   (the simulated nanoseconds are recorded too, as a determinism
//!   anchor: optimizations must not move them);
//! * **archive crossover** — the zero-copy Archive backend's
//!   deserialization (validate in place + fold off the wire, simulated
//!   ns) against the Cereal DU and the fastest compiled software
//!   backend on dense, pointer-heavy, and text workload shapes.
//!
//! Simulated times are deterministic; the wall-clock numbers in the JSON
//! are machine-dependent and only comparable against runs on the same
//! host. Flags: `--smoke` (shrinks every iteration count for CI),
//! `--out PATH` (default `BENCH_PERF.json`).

use std::hint::black_box;
use std::time::Instant;

use cereal::CerealConfig;
use cereal_bench::{out_path, repeat_root, run_cereal};
use sdformat::bitio::naive::{NaiveBitReader, NaiveBitWriter};
use sdformat::pack::{EndMap, Packed};
use sdheap::rng::Rng;
use sdheap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};
use serializers::{
    fold_words_heap, Archive, ArchiveView, JavaSd, JsonLike, Kryo, NullSink, ProtoLike, Serializer,
    Skyway,
};
use workloads::{MicroBench, Scale};

/// Destination-heap base for reconstruction (clear of every source).
const DST_BASE: u64 = 0x40_0000_0000;

/// Milliseconds of the best (fastest) of `reps` runs of `f`, plus the
/// last result for correctness checks.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps > 0);
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (best, last.expect("reps > 0"))
}

/// Fixed-seed mixed-width integer items — the relative addresses the
/// packer sees in practice, from 1-bit to full 64-bit values.
fn kernel_values(n: usize) -> Vec<u64> {
    let mut rng = Rng::new(0x5EED_CAFE);
    (0..n)
        .map(|_| {
            let width = rng.gen_range_u64(1, 65) as u32;
            rng.next_u64() >> (64 - width)
        })
        .collect()
}

/// The pre-optimization pack path: bit-by-bit writer, per-byte end-map
/// pushes. Semantically identical to `Packer::push_value`.
fn naive_pack(values: &[u64]) -> Packed {
    let mut w = NaiveBitWriter::new();
    let mut end_map = EndMap::new();
    for &v in values {
        let sig = (64 - v.leading_zeros()).max(1);
        let start = w.bit_len() / 8;
        w.push_bits(v, sig);
        w.push(true); // end bit
        w.pad_to_byte();
        let end = w.bit_len() / 8;
        for b in start..end {
            end_map.push(b == end - 1);
        }
    }
    Packed {
        bytes: w.into_bytes(),
        end_map,
        count: values.len(),
    }
}

/// The pre-optimization unpack path: per-bit end-map scan, bit-by-bit
/// decode through an intermediate bit vector.
fn naive_unpack(p: &Packed) -> Vec<u64> {
    let mut out = Vec::with_capacity(p.count);
    let mut byte_pos = 0usize;
    let limit = p.bytes.len().min(p.end_map.len());
    while byte_pos < limit {
        let start = byte_pos;
        let mut end = None;
        for i in start..limit {
            if p.end_map.get(i) {
                end = Some(i);
                break;
            }
        }
        let Some(end) = end else { break };
        byte_pos = end + 1;
        let mut bits = Vec::new();
        let mut r = NaiveBitReader::new(&p.bytes[start..=end]);
        while let Some(b) = r.next_bit() {
            bits.push(b);
        }
        let last = bits.iter().rposition(|&b| b).expect("end bit present");
        let mut v = 0u64;
        for &b in &bits[..last] {
            v = (v << 1) | u64::from(b);
        }
        out.push(v);
    }
    out
}

struct KernelPerf {
    values: usize,
    reps: usize,
    naive_pack_ms: f64,
    fast_pack_ms: f64,
    naive_unpack_ms: f64,
    fast_unpack_ms: f64,
}

impl KernelPerf {
    fn pack_speedup(&self) -> f64 {
        self.naive_pack_ms / self.fast_pack_ms
    }
    fn unpack_speedup(&self) -> f64 {
        self.naive_unpack_ms / self.fast_unpack_ms
    }
}

fn kernel_bench(n: usize, reps: usize) -> KernelPerf {
    let values = kernel_values(n);
    let (naive_pack_ms, naive_packed) = best_of(reps, || naive_pack(black_box(&values)));
    let (fast_pack_ms, fast_packed) = best_of(reps, || {
        Packed::from_values(black_box(&values).iter().copied())
    });
    assert_eq!(
        naive_packed.bytes, fast_packed.bytes,
        "fast packer must emit the reference byte stream"
    );
    assert_eq!(naive_packed.end_map, fast_packed.end_map, "end maps must match");

    let (naive_unpack_ms, naive_out) = best_of(reps, || naive_unpack(black_box(&fast_packed)));
    let (fast_unpack_ms, fast_out) = best_of(reps, || black_box(&fast_packed).to_values());
    assert_eq!(naive_out, values, "naive unpack round trip");
    assert_eq!(fast_out, values, "fast unpack round trip");

    KernelPerf {
        values: n,
        reps,
        naive_pack_ms,
        fast_pack_ms,
        naive_unpack_ms,
        fast_unpack_ms,
    }
}

/// The pre-optimization end-map scan: bit-at-a-time `get` probing,
/// semantically identical to `EndMap::next_set`.
fn naive_next_set(map: &EndMap, from: usize, limit: usize) -> Option<usize> {
    let limit = limit.min(map.len());
    (from..limit).find(|&i| map.get(i))
}

struct EndMapPerf {
    bench: &'static str,
    payload_bytes: usize,
    items: usize,
    reps: usize,
    naive_ms: f64,
    fast_ms: f64,
}

impl EndMapPerf {
    fn speedup(&self) -> f64 {
        self.naive_ms / self.fast_ms
    }
}

/// End-map item scan over a dense-graph accelerator stream — the regime
/// where one layout bitmap spans hundreds of payload bytes, so
/// `next_set` walks long runs of clear bits. Splits the whole bitmap
/// section into items with the word-at-a-time scan vs the bit-at-a-time
/// reference, with identical item boundaries asserted.
fn endmap_bench(scale: Scale, reps: usize) -> EndMapPerf {
    let bench = MicroBench::GraphDense;
    let (mut heap, reg, root) = bench.build(scale);
    let mut accel = cereal::Accelerator::new(CerealConfig::paper());
    accel.register_all(&reg).expect("register classes");
    let bytes = accel.serialize(&mut heap, &reg, root).expect("serialize").bytes;
    let stream = sdformat::stream::CerealStream::from_bytes(&bytes).expect("well-formed stream");
    let map = stream.bitmaps.end_map;

    let scan = |next: &dyn Fn(usize, usize) -> Option<usize>| {
        let mut pos = 0usize;
        let mut items = 0usize;
        while let Some(end) = next(pos, map.len()) {
            items += 1;
            pos = end + 1;
        }
        items
    };
    let (naive_ms, naive_items) =
        best_of(reps, || scan(&|f, l| naive_next_set(black_box(&map), f, l)));
    let (fast_ms, fast_items) = best_of(reps, || scan(&|f, l| black_box(&map).next_set(f, l)));
    assert_eq!(naive_items, fast_items, "scans must agree on item boundaries");
    assert_eq!(fast_items, map.item_count(), "scan must find every item");

    EndMapPerf {
        bench: bench.name(),
        payload_bytes: map.len(),
        items: fast_items,
        reps,
        naive_ms,
        fast_ms,
    }
}

struct SerPerf {
    name: String,
    iters: usize,
    ser_ms: f64,
    de_ms: f64,
    stream_bytes: usize,
}

/// Serialize + deserialize wall-clock per software baseline over a fixed
/// Tiny microbenchmark graph. Serialization reuses one output buffer
/// (`serialize_into`); deserialization reconstructs into a fresh heap
/// each iteration, as the benchmark suites do.
fn serializer_roundtrips(iters: usize) -> Vec<SerPerf> {
    let (mut heap, reg, root) = MicroBench::ListSmall.build(Scale::Tiny);
    let cap = heap.capacity_bytes();
    let sers: Vec<Box<dyn Serializer>> = vec![
        Box::new(JavaSd::new()),
        Box::new(Kryo::new()),
        Box::new(Skyway::new()),
        Box::new(JsonLike::new()),
        Box::new(ProtoLike::new()),
        Box::new(Archive::new()),
    ];
    sers.iter()
        .map(|ser| {
            let mut sink = NullSink;
            let mut out = Vec::new();
            // Warm-up establishes the reference stream length.
            ser.serialize_into(&mut heap, &reg, root, &mut sink, &mut out)
                .expect("serialize");
            let stream_bytes = out.len();

            let t0 = Instant::now();
            for _ in 0..iters {
                let n = ser
                    .serialize_into(&mut heap, &reg, root, &mut sink, &mut out)
                    .expect("serialize");
                assert_eq!(n, stream_bytes, "{}: stream length drifted", ser.name());
            }
            let ser_ms = t0.elapsed().as_secs_f64() * 1e3;

            let t0 = Instant::now();
            for _ in 0..iters {
                let mut dst = Heap::with_base(Addr(DST_BASE), cap);
                ser.deserialize(&out, &reg, &mut dst, &mut sink)
                    .expect("deserialize");
                black_box(&dst);
            }
            let de_ms = t0.elapsed().as_secs_f64() * 1e3;

            SerPerf {
                name: ser.name().to_string(),
                iters,
                ser_ms,
                de_ms,
                stream_bytes,
            }
        })
        .collect()
}

struct CrossoverPerf {
    workload: &'static str,
    records: u32,
    stream_bytes: usize,
    archive_validate_ns: f64,
    archive_fold_ns: f64,
    cereal_du_ns: f64,
    sw_name: String,
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

            let sers: Vec<Box<dyn Serializer>> = vec![
                Box::new(JavaSd::new()),
                Box::new(Kryo::new()),
                Box::new(Skyway::new()),
                Box::new(ProtoLike::new()),
            ];
            let (sw_name, sw_de_ns) = sers
                .iter()
                .map(|ser| {
                    heap.gc_clear_serialization_metadata(&reg);
                    let sbytes =
                        ser.serialize(&mut heap, &reg, root, &mut sink).expect("serialize");
                    let mut cpu = sim::Cpu::host();
                    let mut dst = Heap::with_base(Addr(DST_BASE), heap.capacity_bytes());
                    ser.deserialize(&sbytes, &reg, &mut dst, &mut cpu).expect("deserialize");
                    (ser.name().to_string(), cpu.report().ns)
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
    wall_ms: f64,
    sim_ser_ns: f64,
    sim_de_ns: f64,
    stream_bytes: u64,
}

/// One full accelerator serialize + deserialize cycle-model run. The
/// simulated nanoseconds are part of the record: a perf PR that moves
/// them changed the model, not just the wall clock.
fn accel_sim() -> AccelPerf {
    let bench = MicroBench::TreeNarrow;
    let (mut heap, reg, root) = bench.build(Scale::Tiny);
    let roots = repeat_root(root, 8);
    let t0 = Instant::now();
    let m = run_cereal(CerealConfig::paper(), &mut heap, &reg, &roots);
    AccelPerf {
        bench: bench.name(),
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        sim_ser_ns: m.ser_ns,
        sim_de_ns: m.de_ns,
        stream_bytes: m.bytes,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = out_path(&args, "BENCH_PERF.json");
    // Fixed workload sizes; --smoke shrinks them for CI.
    let (kernel_n, kernel_reps, ser_iters) =
        if smoke { (1 << 12, 3, 8) } else { (1 << 16, 5, 64) };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!("pack/unpack kernel ({kernel_n} values, best of {kernel_reps})...");
    let kernel = kernel_bench(kernel_n, kernel_reps);
    eprintln!(
        "  pack   naive {:.3} ms / fast {:.3} ms = {:.1}x",
        kernel.naive_pack_ms,
        kernel.fast_pack_ms,
        kernel.pack_speedup()
    );
    eprintln!(
        "  unpack naive {:.3} ms / fast {:.3} ms = {:.1}x",
        kernel.naive_unpack_ms,
        kernel.fast_unpack_ms,
        kernel.unpack_speedup()
    );

    let endmap_scale = if smoke { Scale::Tiny } else { Scale::Scaled };
    eprintln!("end-map item scan (Graph-dense, best of {kernel_reps})...");
    let endmap = endmap_bench(endmap_scale, kernel_reps);
    eprintln!(
        "  {} items over {} B: naive {:.3} ms / fast {:.3} ms = {:.1}x",
        endmap.items,
        endmap.payload_bytes,
        endmap.naive_ms,
        endmap.fast_ms,
        endmap.speedup()
    );

    eprintln!("serializer round trips ({ser_iters} iterations each)...");
    let sers = serializer_roundtrips(ser_iters);
    for s in &sers {
        eprintln!(
            "  {:<10} ser {:.3} ms, de {:.3} ms ({} B/stream)",
            s.name, s.ser_ms, s.de_ms, s.stream_bytes
        );
    }

    eprintln!("accelerator simulation run...");
    let accel = accel_sim();
    eprintln!(
        "  {} in {:.3} ms wall (simulated ser {:.1} ns, de {:.1} ns)",
        accel.bench, accel.wall_ms, accel.sim_ser_ns, accel.sim_de_ns
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

    let mut sers_json = String::new();
    for (i, s) in sers.iter().enumerate() {
        if i > 0 {
            sers_json.push_str(",\n");
        }
        sers_json.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"ser_ms\": {:.3}, \"de_ms\": {:.3}, \"stream_bytes\": {}}}",
            s.name, s.iters, s.ser_ms, s.de_ms, s.stream_bytes
        ));
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
         \x20 \"smoke\": {smoke},\n\
         \x20 \"available_parallelism\": {cores},\n\
         \x20 \"pack_kernel\": {{\n\
         \x20   \"values\": {kv}, \"reps\": {kr},\n\
         \x20   \"naive_pack_ms\": {np:.3}, \"fast_pack_ms\": {fp:.3}, \"pack_speedup\": {ps:.2},\n\
         \x20   \"naive_unpack_ms\": {nu:.3}, \"fast_unpack_ms\": {fu:.3}, \"unpack_speedup\": {us:.2},\n\
         \x20   \"streams_identical\": true\n\
         \x20 }},\n\
         \x20 \"endmap_scan\": {{\n\
         \x20   \"bench\": \"{eb}\", \"payload_bytes\": {epb}, \"items\": {ei}, \"reps\": {er},\n\
         \x20   \"naive_ms\": {en:.3}, \"fast_ms\": {ef:.3}, \"speedup\": {es:.2},\n\
         \x20   \"boundaries_identical\": true\n\
         \x20 }},\n\
         \x20 \"serializers\": [\n{sj}\n\x20 ],\n\
         \x20 \"accel_sim\": {{\n\
         \x20   \"bench\": \"{ab}\", \"wall_ms\": {aw:.3},\n\
         \x20   \"sim_ser_ns\": {asn:.3}, \"sim_de_ns\": {adn:.3}, \"stream_bytes\": {asb}\n\
         \x20 }},\n\
         \x20 \"archive_crossover\": [\n{cj}\n\x20 ]\n\
         }}\n",
        kv = kernel.values,
        kr = kernel.reps,
        np = kernel.naive_pack_ms,
        fp = kernel.fast_pack_ms,
        ps = kernel.pack_speedup(),
        nu = kernel.naive_unpack_ms,
        fu = kernel.fast_unpack_ms,
        us = kernel.unpack_speedup(),
        eb = endmap.bench,
        epb = endmap.payload_bytes,
        ei = endmap.items,
        er = endmap.reps,
        en = endmap.naive_ms,
        ef = endmap.fast_ms,
        es = endmap.speedup(),
        sj = sers_json,
        cj = crossover_json,
        ab = accel.bench,
        aw = accel.wall_ms,
        asn = accel.sim_ser_ns,
        adn = accel.sim_de_ns,
        asb = accel.stream_bytes,
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("wrote {out_path}");
    print!("{json}");
}
