//! Extension experiment: TLB pressure (paper §V-E).
//!
//! The paper's prototype never misses its 128-entry, 1 GB-page TLB, but
//! §V-E argues that on larger memories "the cost of missing TLB can be
//! amortized" for the DU (sequential access) while SU misses "can
//! potentially become a performance bottleneck" (random access). We test
//! that claim by shrinking pages until the working set overflows the
//! TLB and measuring both units.

use cereal::CerealConfig;
use cereal_bench::table::{ns, pct, Table};
use cereal_bench::{run_cereal, scale_arg};
use sim::TlbConfig;
use workloads::MicroBench;

fn main() {
    let scale = scale_arg();
    // Graph-sparse: random reference targets → random SU header fetches.
    let (mut heap, reg, root) = MicroBench::GraphSparse.build(scale);

    println!("TLB pressure — Graph-sparse, shrinking pages under an 8-entry TLB\n");
    let mut t = Table::new(&[
        "page size",
        "ser (pipelined)",
        "slowdown",
        "ser (no prefetch)",
        "slowdown",
        "de",
        "slowdown",
    ]);
    let mut base: Option<(f64, f64, f64)> = None;
    for page_bits in [30u32, 20, 14, 12] {
        let tlb = TlbConfig {
            entries: 8,
            page_bits,
            walk_ns: 200.0,
        };
        // One request each way, measured as every other ablation is:
        // the deserialize starts on reset meters, not on the units and
        // DRAM the serialize left busy.
        let run = |vanilla: bool, heap: &mut sdheap::Heap| {
            let base = if vanilla { CerealConfig::vanilla() } else { CerealConfig::paper() };
            let cfg = CerealConfig { tlb, ..base };
            let m = run_cereal(cfg, heap, &reg, &[root]);
            (m.ser_ns, m.de_ns)
        };
        let (pipe_ser, de_ns) = run(false, &mut heap);
        let (van_ser, _) = run(true, &mut heap);
        let (b_pipe, b_van, b_de) = *base.get_or_insert((pipe_ser, van_ser, de_ns));
        t.row(vec![
            human_page(page_bits),
            ns(pipe_ser),
            pct(pipe_ser / b_pipe - 1.0),
            ns(van_ser),
            pct(van_ser / b_van - 1.0),
            ns(de_ns),
            pct(de_ns / b_de - 1.0),
        ]);
    }
    println!("{}", t.render());
    println!(
        "finding: the SU's header-prefetch lookahead hides page walks just as it\n\
         hides header latency, so even 4 KB pages barely hurt the pipelined design;\n\
         without prefetch (the Vanilla datapath) walks land on the critical path —\n\
         the §V-E concern applies to the unpipelined design, and the DU's sequential\n\
         streams amortize walks either way."
    );
}

fn human_page(bits: u32) -> String {
    match bits {
        30 => "1 GB".into(),
        24 => "16 MB".into(),
        20 => "1 MB".into(),
        16 => "64 KB".into(),
        _ => format!("2^{bits} B"),
    }
}
