//! `cereal-bench` — the experiment harness that regenerates every table
//! and figure in the Cereal paper's evaluation (§VI).
//!
//! One binary per figure/table (`cargo run -p cereal-bench --release
//! --bin fig10`), plus `--bin all`, which runs the whole evaluation and
//! emits an EXPERIMENTS.md-style report. Set `CEREAL_SCALE=tiny` for a
//! quick pass; the default `scaled` runs the DESIGN.md workload sizes.
//!
//! | Experiment | Module |
//! |---|---|
//! | Fig. 2 (runtime breakdown) | [`render::fig2`] over [`spark_suite`] |
//! | Fig. 3 (CPU S/D analysis) | [`render::fig3`] over [`micro_suite`] |
//! | Fig. 10 (microbench speedups) | [`render::fig10`] |
//! | Fig. 11 (microbench bandwidth) | [`render::fig11`] |
//! | Table IV (serialized sizes) | [`render::table4`] |
//! | Fig. 12 (JSBS, 88 libraries) | [`render::fig12`] over [`jsbs_suite`] |
//! | Fig. 13–17 (Spark) | [`render::fig13`] … [`render::fig17`] |
//! | Tables I & V | [`render::table1`], [`render::table5`] |

pub mod jsbs_suite;
pub mod micro_suite;
pub mod render;
pub mod runners;
pub mod spark_suite;
pub mod table;
pub mod trace_suite;

pub use runners::{repeat_root, run_cereal, run_software, SdMeasure};

/// The report path from `--out PATH` in `args`, else `default`.
pub fn out_path(args: &[String], default: &str) -> String {
    args.iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Worker threads from `--jobs N` in `args`, else the available
/// parallelism clamped to `1..=8`.
pub fn jobs_arg(args: &[String]) -> usize {
    args.iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .clamp(1, 8)
        })
}
