//! Extension ablations promised in DESIGN.md §4 (beyond the paper's own
//! Vanilla ablation): unit-count scaling, block-reconstructor scaling,
//! and the packing on/off size comparison.

use cereal::CerealConfig;
use cereal_bench::table::{bytes as fmt_bytes, ns, pct, Table};
use cereal_bench::{run_cereal, scale_arg};
use workloads::{MicroBench, Scale};

fn main() {
    let scale = scale_arg();
    unit_sweep(scale);
    reconstructor_sweep(scale);
    packing_sweep(scale);
    row_buffer_sweep(scale);
}

/// SU/DU count sweep: throughput scaling of operation-level parallelism.
fn unit_sweep(scale: Scale) {
    println!("Ablation A — unit-count sweep (Tree-narrow, 16 concurrent requests)\n");
    let (mut heap, reg, root) = MicroBench::TreeNarrow.build(scale);
    let mut t = Table::new(&[
        "units",
        "ser makespan",
        "de makespan",
        "ser scaling",
        "de scaling",
    ]);
    let mut base: Option<(f64, f64)> = None;
    for units in [1usize, 2, 4, 8, 16] {
        let cfg = CerealConfig {
            num_su: units,
            num_du: units,
            ..CerealConfig::paper()
        };
        let m = run_cereal(cfg, &mut heap, &reg, &[root; 16]);
        let (bs, bd) = *base.get_or_insert((m.ser_ns, m.de_ns));
        t.row(vec![
            units.to_string(),
            ns(m.ser_ns),
            ns(m.de_ns),
            format!("{:.2}x", bs / m.ser_ns),
            format!("{:.2}x", bd / m.de_ns),
        ]);
    }
    println!("{}", t.render());
    println!(
        "serialization scales with units until the serial metadata chain is hidden;\n\
         deserialization saturates once the DUs reach DRAM bandwidth.\n"
    );
}

/// Block-reconstructor sweep inside one DU.
fn reconstructor_sweep(scale: Scale) {
    println!("Ablation B — block reconstructors per DU (List-large, 1 request)\n");
    let (mut heap, reg, root) = MicroBench::ListLarge.build(scale);
    let mut t = Table::new(&["reconstructors", "de time", "speedup vs 1"]);
    let mut base = None;
    for recon in [1usize, 2, 4, 8] {
        let cfg = CerealConfig {
            reconstructors_per_du: recon,
            ..CerealConfig::paper()
        };
        let de_ns = run_cereal(cfg, &mut heap, &reg, &[root]).de_ns;
        let b = *base.get_or_insert(de_ns);
        t.row(vec![
            recon.to_string(),
            ns(de_ns),
            format!("{:.2}x", b / de_ns),
        ]);
    }
    println!("{}", t.render());
    println!("the paper's choice of four reconstructors sits at the knee.\n");
}

/// Packing on/off: the §IV-A baseline format vs the §IV-B packed format.
fn packing_sweep(scale: Scale) {
    println!("Ablation C — object packing on/off (stream sizes)\n");
    let mut t = Table::new(&["bench", "packed", "unpacked baseline", "saving"]);
    for bench in MicroBench::all() {
        let (mut heap, reg, root) = bench.build(scale);
        let mut tables = cereal::ClassTables::new(4096);
        tables.register_all(&reg).expect("register");
        let out = cereal::functional::encode(&mut heap, &reg, &tables, 1, 0, false)
            .run(root)
            .expect("encode");
        let packed = out.stream.wire_bytes() as u64;
        let baseline = out.stream.baseline_wire_bytes() as u64;
        t.row(vec![
            bench.name().to_string(),
            fmt_bytes(packed),
            fmt_bytes(baseline),
            pct(1.0 - packed as f64 / baseline as f64),
        ]);
    }
    println!("{}", t.render());
    println!("packing matters most where references and bitmaps dominate (graphs).\n");
}

/// DRAM row-buffer sensitivity: the flat-latency Table I calibration vs
/// the open-row model (26 ns hits / 44 ns misses).
fn row_buffer_sweep(scale: Scale) {
    println!("Ablation D — DRAM row-buffer model (Tree-narrow, 8 requests)\n");
    let (mut heap, reg, root) = MicroBench::TreeNarrow.build(scale);
    let mut t = Table::new(&["DRAM model", "ser makespan", "de makespan"]);
    for (name, dram) in [
        (
            "flat 40 ns (Table I calibration)",
            sim::DramConfig::default(),
        ),
        ("open-row 26/44 ns", sim::DramConfig::with_row_buffer()),
    ] {
        let cfg = CerealConfig {
            dram,
            ..CerealConfig::paper()
        };
        let m = run_cereal(cfg, &mut heap, &reg, &[root; 8]);
        t.row(vec![name.to_string(), ns(m.ser_ns), ns(m.de_ns)]);
    }
    println!("{}", t.render());
    println!(
        "with open rows, the SU's repeated metadata fetches and the DU's sequential\n\
         streams both become row hits — the flat calibration is mildly pessimistic."
    );
}
