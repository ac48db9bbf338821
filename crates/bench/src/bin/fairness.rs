//! Extension experiment: multicore fairness.
//!
//! The paper compares Cereal against single-threaded serializer runs and
//! argues (§III, §V-D) that software can only add operation-level
//! parallelism by burning more cores — cores that big-data apps need for
//! user computation. This experiment quantifies it: Kryo on 1/2/4/8 host
//! cores vs the 8-unit accelerator, on the Tree-narrow microbenchmark.

use cereal_bench::runners::{run_cereal, run_software_parallel};
use cereal_bench::scale_arg;
use cereal_bench::table::{ns, x, Table};
use serializers::Kryo;
use workloads::MicroBench;

fn main() {
    let scale = scale_arg();
    let (mut heap, reg, root) = MicroBench::TreeNarrow.build(scale);
    let roots = vec![root; 16];

    println!("Fairness — Kryo on N host cores vs the 8-unit Cereal accelerator");
    println!("(Tree-narrow, 16 concurrent S/D requests)\n");

    let mut t = Table::new(&["configuration", "ser", "de", "S/D energy (µJ)"]);
    let mut kryo1 = None;
    for cores in [1usize, 2, 4, 8] {
        let m = run_software_parallel(&Kryo::new(), &mut heap, &reg, &roots, cores);
        if cores == 1 {
            kryo1 = Some(m.clone());
        }
        t.row(vec![
            m.name.clone(),
            ns(m.ser_ns),
            ns(m.de_ns),
            format!("{:.1}", m.sd_energy_uj()),
        ]);
    }
    let cereal = run_cereal(cereal::CerealConfig::paper(), &mut heap, &reg, &roots);
    t.row(vec![
        "Cereal (8 SU / 8 DU)".into(),
        ns(cereal.ser_ns),
        ns(cereal.de_ns),
        format!("{:.1}", cereal.sd_energy_uj()),
    ]);
    println!("{}", t.render());

    let kryo1 = kryo1.expect("measured");
    let kryo8 = run_software_parallel(&Kryo::new(), &mut heap, &reg, &roots, 8);
    println!(
        "8-core Kryo scales serialization {} over 1 core; Cereal is still {} faster than\n\
         8-core Kryo at S/D while consuming {} less energy — and leaves all 8 cores free.",
        x(kryo1.ser_ns / kryo8.ser_ns),
        x(kryo8.sd_ns() / cereal.sd_ns()),
        x(kryo8.sd_energy_uj() / cereal.sd_energy_uj()),
    );
}
