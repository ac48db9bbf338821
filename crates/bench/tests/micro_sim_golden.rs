//! Frozen accelerator timings for the six Fig. 10 microbenchmarks.
//!
//! Each Tiny microbenchmark graph is served as 8 repeated requests by
//! `run_cereal(CerealConfig::paper(), ..)`, and [`ROWS`] pins the
//! simulated serialize and deserialize makespans and the serialize-side
//! DRAM bandwidth utilization as f64 bits, plus the total stream bytes.
//! Any change to the SU/DU, MAI or DRAM timing model moves a row here.
//! On a mismatch the test prints the actual rows.

use cereal::CerealConfig;
use cereal_bench::run_cereal;
use workloads::micro::{MicroBench, Scale};

#[derive(Debug, PartialEq, Eq)]
struct Row {
    name: &'static str,
    ser_ns_bits: u64,
    de_ns_bits: u64,
    ser_bw_util_bits: u64,
    bytes: u64,
}

const ROWS: [Row; 6] = [
    Row {
        name: "Tree-narrow",
        ser_ns_bits: 0x40d52ce2aaaaaaa5,
        de_ns_bits: 0x40a1b2aaaaaaaaab,
        ser_bw_util_bits: 0x3fc75e6eab139c55,
        bytes: 58208,
    },
    Row {
        name: "Tree-wide",
        ser_ns_bits: 0x40e66fa455555570,
        de_ns_bits: 0x40c0ec8000000001,
        ser_bw_util_bits: 0x3fd15d8d10dad105,
        bytes: 172424,
    },
    Row {
        name: "List-small",
        ser_ns_bits: 0x40c1053aaaaaaaad,
        de_ns_bits: 0x40912bffffffffff,
        ser_bw_util_bits: 0x3fd008df2747aea6,
        bytes: 28320,
    },
    Row {
        name: "List-large",
        ser_ns_bits: 0x40e0aaaeaaaaaabb,
        de_ns_bits: 0x40ae475555555556,
        ser_bw_util_bits: 0x3fd058c8e073a11c,
        bytes: 112416,
    },
    Row {
        name: "Graph-sparse",
        ser_ns_bits: 0x40c9dc9d55555558,
        de_ns_bits: 0x40922aaaaaaaaaab,
        ser_bw_util_bits: 0x3fc4d68389ca320c,
        bytes: 30000,
    },
    Row {
        name: "Graph-dense",
        ser_ns_bits: 0x40ea5d0100000034,
        de_ns_bits: 0x40b6600000000000,
        ser_bw_util_bits: 0x3fd6327d6b641277,
        bytes: 106104,
    },
];

#[test]
fn micro_accelerator_timings_match_frozen_rows() {
    let actual: Vec<Row> = MicroBench::all()
        .into_iter()
        .map(|mb| {
            let (mut heap, reg, root) = mb.build(Scale::Tiny);
            let m = run_cereal(CerealConfig::paper(), &mut heap, &reg, &[root; 8]);
            Row {
                name: mb.name(),
                ser_ns_bits: m.ser_ns.to_bits(),
                de_ns_bits: m.de_ns.to_bits(),
                ser_bw_util_bits: m.ser_bw_util.to_bits(),
                bytes: m.bytes,
            }
        })
        .collect();
    if actual.as_slice() != ROWS.as_slice() {
        let mut text = String::new();
        for r in &actual {
            text.push_str(&format!(
                "    Row {{\n        name: {:?},\n        ser_ns_bits: {:#018x},\n        \
                 de_ns_bits: {:#018x},\n        ser_bw_util_bits: {:#018x},\n        \
                 bytes: {},\n    }},\n",
                r.name, r.ser_ns_bits, r.de_ns_bits, r.ser_bw_util_bits, r.bytes
            ));
        }
        panic!("accelerator timings drifted; actual rows:\n{text}");
    }
}
