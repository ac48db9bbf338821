//! Per-figure/table renderers: each produces the rows/series the paper
//! reports, side by side with the paper's own numbers where it states
//! them.

use crate::jsbs_suite::JsbsResult;
use crate::micro_suite::MicroResult;
use crate::spark_suite::SparkResult;
use crate::table::{bytes, geomean, ns, pct, x, Table};
use cereal::energy::{self, ModuleGroup};
use workloads::spark::phases::AppRun;

fn breakdown_row(name: &str, run: &AppRun) -> Vec<String> {
    let t = run.total_ns();
    vec![
        name.to_string(),
        pct(run.compute_ns / t),
        pct(run.gc_ns / t),
        pct(run.io_ns / t),
        pct(run.sd_ns / t),
        ns(t),
    ]
}

/// Fig. 2: runtime breakdown of the Spark applications under Java S/D
/// and Kryo.
pub fn fig2(results: &[SparkResult]) -> String {
    let mut out = String::from("Fig. 2 — Runtime breakdown (compute / GC / I/O / S/D)\n\n");
    for (label, pick) in [
        ("(a) Java S/D", 0usize),
        ("(b) Kryo", 1),
    ] {
        out.push_str(label);
        out.push('\n');
        let mut t = Table::new(&["app", "compute", "GC", "I/O", "S/D", "total"]);
        for r in results {
            let run = if pick == 0 { &r.java_run } else { &r.kryo_run };
            t.row(breakdown_row(r.app.name(), run));
        }
        out.push_str(&t.render());
        let avg = results
            .iter()
            .map(|r| {
                let run = if pick == 0 { &r.java_run } else { &r.kryo_run };
                run.sd_fraction()
            })
            .sum::<f64>()
            / results.len() as f64;
        out.push_str(&format!(
            "average S/D fraction: {}   (paper: {})\n\n",
            pct(avg),
            if pick == 0 { "39.5%" } else { "28.3%" }
        ));
    }
    out
}

/// Fig. 3: IPC, LLC miss rate, bandwidth and Kryo-vs-Java speedup on the
/// microbenchmarks (software serializers on the host CPU).
pub fn fig3(results: &[MicroResult]) -> String {
    let mut out = String::from("Fig. 3 — S/D process analysis on the host CPU\n\n");
    let mut t = Table::new(&[
        "bench",
        "Java IPC",
        "Kryo IPC",
        "Java LLC-miss",
        "Java BW",
        "Kryo BW",
        "Kryo ser speedup",
        "Kryo de speedup",
    ]);
    for r in results {
        t.row(vec![
            r.bench.name().to_string(),
            format!("{:.2}", r.java.ser_ipc),
            format!("{:.2}", r.kryo.ser_ipc),
            pct(r.java.ser_llc_miss_rate),
            pct(r.java.ser_bw_util),
            pct(r.kryo.ser_bw_util),
            x(r.java.ser_ns / r.kryo.ser_ns),
            x(r.java.de_ns / r.kryo.de_ns),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "paper: IPC ≈ 1.0 for both, high LLC miss rates, Java/Kryo use only\n\
         2.71%/4.12% of DRAM bandwidth; Kryo averages 2.30x (ser) and 52.3x (de).\n",
    );
    out
}

/// Fig. 10: S/D speedups over Java S/D on the microbenchmarks.
pub fn fig10(results: &[MicroResult]) -> String {
    let mut out =
        String::from("Fig. 10 — Speedup over Java S/D (log scale in the paper)\n\n");
    let mut t = Table::new(&[
        "bench",
        "Kryo ser",
        "Skyway ser",
        "Vanilla ser",
        "Cereal ser",
        "Kryo de",
        "Skyway de",
        "Vanilla de",
        "Cereal de",
    ]);
    for r in results {
        t.row(vec![
            r.bench.name().to_string(),
            x(r.java.ser_ns / r.kryo.ser_ns),
            x(r.java.ser_ns / r.skyway.ser_ns),
            x(r.java.ser_ns / r.vanilla.ser_ns),
            x(r.java.ser_ns / r.cereal.ser_ns),
            x(r.java.de_ns / r.kryo.de_ns),
            x(r.java.de_ns / r.skyway.de_ns),
            x(r.java.de_ns / r.vanilla.de_ns),
            x(r.java.de_ns / r.cereal.de_ns),
        ]);
    }
    out.push_str(&t.render());
    let g = |f: &dyn Fn(&MicroResult) -> f64| {
        geomean(&results.iter().map(f).collect::<Vec<_>>())
    };
    out.push_str(&format!(
        "geomean: Kryo {} ser / {} de; Cereal {} ser / {} de\n",
        x(g(&|r| r.java.ser_ns / r.kryo.ser_ns)),
        x(g(&|r| r.java.de_ns / r.kryo.de_ns)),
        x(g(&|r| r.java.ser_ns / r.cereal.ser_ns)),
        x(g(&|r| r.java.de_ns / r.cereal.de_ns)),
    ));
    out.push_str("paper: Kryo 2.30x ser / 52.3x de; Cereal 26.5x ser / 364.5x de.\n");
    out
}

/// Fig. 11: DRAM bandwidth utilization on the microbenchmarks.
pub fn fig11(results: &[MicroResult]) -> String {
    let mut out = String::from("Fig. 11 — DRAM bandwidth utilization\n\n");
    let mut t = Table::new(&[
        "bench",
        "Java ser",
        "Kryo ser",
        "Cereal ser",
        "Java de",
        "Kryo de",
        "Cereal de",
    ]);
    for r in results {
        t.row(vec![
            r.bench.name().to_string(),
            pct(r.java.ser_bw_util),
            pct(r.kryo.ser_bw_util),
            pct(r.cereal.ser_bw_util),
            pct(r.java.de_bw_util),
            pct(r.kryo.de_bw_util),
            pct(r.cereal.de_bw_util),
        ]);
    }
    out.push_str(&t.render());
    let avg = |f: &dyn Fn(&MicroResult) -> f64| {
        results.iter().map(f).sum::<f64>() / results.len() as f64
    };
    out.push_str(&format!(
        "averages: Java {} / Kryo {} / Cereal {} (ser); Java {} / Kryo {} / Cereal {} (de)\n",
        pct(avg(&|r| r.java.ser_bw_util)),
        pct(avg(&|r| r.kryo.ser_bw_util)),
        pct(avg(&|r| r.cereal.ser_bw_util)),
        pct(avg(&|r| r.java.de_bw_util)),
        pct(avg(&|r| r.kryo.de_bw_util)),
        pct(avg(&|r| r.cereal.de_bw_util)),
    ));
    out.push_str(
        "paper: ser 2.71% / 4.12% / 20.9% (up to 74.5%); de 3.48% / 4.50% / 31.1% (up to 83.3%).\n",
    );
    out
}

/// Table IV: serialized sizes across the microbenchmarks.
pub fn table4(results: &[MicroResult]) -> String {
    let mut out = String::from("Table IV — Serialized object sizes\n\n");
    let mut t = Table::new(&["bench", "Java S/D", "Kryo", "Skyway", "Cereal"]);
    for r in results {
        t.row(vec![
            r.bench.name().to_string(),
            bytes(r.java.bytes / crate::micro_suite::REQUESTS as u64),
            bytes(r.kryo.bytes / crate::micro_suite::REQUESTS as u64),
            bytes(r.skyway.bytes / crate::micro_suite::REQUESTS as u64),
            bytes(r.cereal.bytes / crate::micro_suite::REQUESTS as u64),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "paper (MB, at Table II scale): Tree-narrow 23.0/12.0/16.1, Tree-wide\n\
         148.6/48.0/80.0, List-small 8.0/2.5/16.0, List-large 59.4/10.0/47.8,\n\
         Graph-sparse 22.1/10.8/2.4, Graph-dense 115.5/51.1/2.4 — Kryo smallest on\n\
         value-heavy shapes, Cereal's packing wins on reference-heavy graphs.\n",
    );
    out
}

/// Fig. 12: the JSBS comparison.
pub fn fig12(r: &JsbsResult) -> String {
    let mut out = String::from("Fig. 12 — JSBS: Cereal vs the measured serializer libraries\n\n");
    let mut sorted: Vec<_> = r.libraries.iter().collect();
    sorted.sort_by(|a, b| a.sd_ns().total_cmp(&b.sd_ns()));
    let reps = crate::jsbs_suite::REPS;
    let mut t = Table::new(&["library", "S/D time", "size", "Cereal speedup"]);
    for lib in sorted {
        t.row(vec![
            lib.name.clone(),
            ns(lib.sd_ns()),
            bytes(lib.bytes / reps as u64),
            x(r.speedup(lib)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\nCereal: {} for {reps} round trips, size {}\n",
        ns(r.cereal.sd_ns()),
        bytes(r.cereal.bytes / reps as u64),
    ));
    out.push_str(&format!(
        "Cereal geomean speedup over {} measured libraries: {}   (paper: 43.4x over 88 JSBS libraries)\n",
        r.libraries.len(),
        x(r.cereal_geomean_speedup())
    ));
    let fastest = r.fastest_software();
    out.push_str(&format!(
        "vs fastest measured software ({}): {}   (paper: 15.1x over kryo-manual)\n",
        fastest.name,
        x(r.speedup(fastest))
    ));
    out.push_str(&format!(
        "Cereal size vs measured-library average: {}   (paper: 46% smaller)\n",
        pct(r.cereal_size_vs_average())
    ));
    out
}

/// Fig. 13: S/D speedups on the Spark applications.
pub fn fig13(results: &[SparkResult]) -> String {
    let mut out = String::from("Fig. 13 — S/D speedups on Spark applications\n\n");
    let mut t = Table::new(&["app", "Kryo vs Java", "Cereal vs Java", "Cereal vs Kryo"]);
    for r in results {
        t.row(vec![
            r.app.name().to_string(),
            x(r.java.sd_ns() / r.kryo.sd_ns()),
            x(r.java.sd_ns() / r.cereal.sd_ns()),
            x(r.kryo.sd_ns() / r.cereal.sd_ns()),
        ]);
    }
    out.push_str(&t.render());
    let g = |f: &dyn Fn(&SparkResult) -> f64| {
        geomean(&results.iter().map(f).collect::<Vec<_>>())
    };
    out.push_str(&format!(
        "geomean: Kryo {} / Cereal {} over Java; Cereal {} over Kryo\n",
        x(g(&|r| r.java.sd_ns() / r.kryo.sd_ns())),
        x(g(&|r| r.java.sd_ns() / r.cereal.sd_ns())),
        x(g(&|r| r.kryo.sd_ns() / r.cereal.sd_ns())),
    ));
    out.push_str("paper: Kryo 1.67x; Cereal 7.97x over Java, 4.81x over Kryo.\n");
    out
}

/// Fig. 14: end-to-end program speedups.
pub fn fig14(results: &[SparkResult]) -> String {
    let mut out = String::from("Fig. 14 — Program speedups on Spark applications\n\n");
    let mut t = Table::new(&["app", "Cereal vs Java", "Cereal vs Kryo"]);
    for r in results {
        t.row(vec![
            r.app.name().to_string(),
            x(r.java_run.total_ns() / r.cereal_run.total_ns()),
            x(r.kryo_run.total_ns() / r.cereal_run.total_ns()),
        ]);
    }
    out.push_str(&t.render());
    let g = |f: &dyn Fn(&SparkResult) -> f64| {
        geomean(&results.iter().map(f).collect::<Vec<_>>())
    };
    out.push_str(&format!(
        "geomean: {} over Java, {} over Kryo\n",
        x(g(&|r| r.java_run.total_ns() / r.cereal_run.total_ns())),
        x(g(&|r| r.kryo_run.total_ns() / r.cereal_run.total_ns())),
    ));
    out.push_str("paper: 1.81x (up to 4.66x) over Java; 1.69x (up to 4.53x) over Kryo.\n");
    out
}

/// Fig. 15: bandwidth utilization on the Spark applications.
pub fn fig15(results: &[SparkResult]) -> String {
    let mut out = String::from("Fig. 15 — DRAM bandwidth utilization on Spark applications\n\n");
    let mut t = Table::new(&["app", "Java ser", "Kryo ser", "Cereal ser", "Java de", "Kryo de", "Cereal de"]);
    for r in results {
        t.row(vec![
            r.app.name().to_string(),
            pct(r.java.ser_bw_util),
            pct(r.kryo.ser_bw_util),
            pct(r.cereal.ser_bw_util),
            pct(r.java.de_bw_util),
            pct(r.kryo.de_bw_util),
            pct(r.cereal.de_bw_util),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "paper: Cereal uses substantially more bandwidth than software, and\n\
         deserialization significantly more than serialization.\n",
    );
    out
}

/// Fig. 16: compression rate of the object packing scheme.
pub fn fig16(results: &[SparkResult]) -> String {
    let mut out = String::from(
        "Fig. 16 — Compression rate of object packing (vs the unpacked §IV-A baseline format)\n\n",
    );
    let mut t = Table::new(&["app", "packing", "packing + header strip"]);
    let mut rates = Vec::new();
    for r in results {
        let (packed, baseline, stripped) = r.format_sizes;
        let rate = 1.0 - packed as f64 / baseline as f64;
        let rate_strip = 1.0 - stripped as f64 / baseline as f64;
        rates.push(rate);
        t.row(vec![r.app.name().to_string(), pct(rate), pct(rate_strip)]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "average packing compression: {}   (paper: 28.3% on average; most\n\
         effective on reference-heavy NWeight, little effect on SVM/Bayes/LR)\n",
        pct(rates.iter().sum::<f64>() / rates.len() as f64)
    ));
    out
}

/// Fig. 17: normalized S/D energy.
pub fn fig17(results: &[SparkResult]) -> String {
    let mut out = String::from("Fig. 17 — S/D energy (normalized to Java S/D)\n\n");
    let mut t = Table::new(&[
        "app",
        "Kryo ser",
        "Cereal ser",
        "Kryo de",
        "Cereal de",
    ]);
    for r in results {
        t.row(vec![
            r.app.name().to_string(),
            format!("{:.3}", r.kryo.ser_energy_uj / r.java.ser_energy_uj),
            format!("{:.5}", r.cereal.ser_energy_uj / r.java.ser_energy_uj),
            format!("{:.3}", r.kryo.de_energy_uj / r.java.de_energy_uj),
            format!("{:.5}", r.cereal.de_energy_uj / r.java.de_energy_uj),
        ]);
    }
    out.push_str(&t.render());
    let g = |f: &dyn Fn(&SparkResult) -> f64| {
        geomean(&results.iter().map(f).collect::<Vec<_>>())
    };
    out.push_str(&format!(
        "geomean savings vs Java: Cereal {} (ser) / {} (de); combined S/D {}\n",
        x(g(&|r| r.java.ser_energy_uj / r.cereal.ser_energy_uj)),
        x(g(&|r| r.java.de_energy_uj / r.cereal.de_energy_uj)),
        x(g(&|r| r.java.sd_energy_uj() / r.cereal.sd_energy_uj())),
    ));
    out.push_str(&format!(
        "geomean savings vs Kryo: combined S/D {}\n",
        x(g(&|r| r.kryo.sd_energy_uj() / r.cereal.sd_energy_uj())),
    ));
    out.push_str(
        "paper: 313.6x/165.4x vs Java (ser/de), 227.75x combined; 136.28x vs Kryo.\n",
    );
    out
}

/// Table I: architectural parameters (configuration echo).
pub fn table1() -> String {
    let cfg = cereal::CerealConfig::paper();
    let dram = cfg.dram;
    let mut out = String::from("Table I — Architectural parameters\n\n");
    let mut t = Table::new(&["parameter", "value"]);
    t.row(vec!["Host core".into(), "i7-7820X-class, 3.6 GHz, 4-wide, MLP 10".into()]);
    t.row(vec!["L1/L2/L3".into(), "32KB / 1MB / 11MB (64B lines, LRU)".into()]);
    t.row(vec![
        "DRAM".into(),
        format!(
            "DDR4-2400, {} channels, {:.1} GB/s, {:.0} ns zero-load",
            dram.channels,
            dram.peak_bytes_per_ns(),
            dram.zero_load_ns
        ),
    ]);
    t.row(vec![
        "Cereal units".into(),
        format!("{} SU, {} DU ({} reconstructors/DU)", cfg.num_su, cfg.num_du, cfg.reconstructors_per_du),
    ]);
    t.row(vec![
        "MAI".into(),
        format!("{} entries, {} B blocks", cfg.mai.entries, cfg.mai.block_bytes),
    ]);
    t.row(vec![
        "TLB".into(),
        format!("{} entries, 1 GB pages", cfg.tlb.entries),
    ]);
    t.row(vec!["Max classes".into(), format!("{}", cfg.max_classes)]);
    t.row(vec!["Accelerator clock".into(), format!("{} GHz (assumed; see DESIGN.md)", cfg.clock_ghz)]);
    out.push_str(&t.render());
    out
}

/// Table V: area and power breakdown.
pub fn table5() -> String {
    let mut out = String::from("Table V — Area/power breakdown (TSMC 40 nm, from the paper's synthesis)\n\n");
    let mut t = Table::new(&["module", "area (mm²)", "power (mW)", "count", "total area", "total power"]);
    for m in energy::table_v() {
        t.row(vec![
            m.name.to_string(),
            format!("{:.3}", m.area_mm2),
            format!("{:.1}", m.power_mw),
            format!("{}", m.count),
            format!("{:.3}", m.area_mm2 * f64::from(m.count)),
            format!("{:.1}", m.power_mw * f64::from(m.count)),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "total: {:.3} mm² / {:.1} mW  (paper: 3.857 mm² / 1231.6 mW; {:.1}x smaller than the host die)\n",
        energy::total_area_mm2(),
        energy::total_power_mw(),
        energy::HOST_DIE_MM2 / energy::total_area_mm2(),
    ));
    let _ = ModuleGroup::System;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let t1 = table1();
        assert!(t1.contains("DDR4-2400"));
        assert!(t1.contains("8 SU, 8 DU"));
        let t5 = table5();
        assert!(t5.contains("Block reconstructor"));
        assert!(t5.contains("3.857"));
    }
}
