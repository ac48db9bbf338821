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

/// Worker threads from `--jobs N` or `--jobs=N` in `args`, else the
/// available parallelism clamped to `1..=8`. A missing, zero or
/// non-numeric value prints an error and exits with status 2.
pub fn jobs_arg(args: &[String]) -> usize {
    parse_jobs(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// [`jobs_arg`] without the exit: `Err` describes a bad `--jobs` value.
fn parse_jobs(args: &[String]) -> Result<usize, String> {
    let value = args
        .iter()
        .enumerate()
        .find_map(|(i, a)| match a.strip_prefix("--jobs") {
            Some("") => Some(args.get(i + 1).map(String::as_str)),
            Some(rest) => rest.strip_prefix('=').map(Some),
            None => None,
        });
    match value {
        None => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8)),
        Some(v) => match v.map(str::parse::<usize>) {
            Some(Ok(n)) if n > 0 => Ok(n),
            _ => Err(format!(
                "--jobs needs a positive integer, got {}",
                v.map_or("nothing".to_string(), |v| format!("{v:?}"))
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::parse_jobs;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn jobs_accepts_both_spellings() {
        assert_eq!(parse_jobs(&args(&["bin", "--jobs", "3"])), Ok(3));
        assert_eq!(parse_jobs(&args(&["bin", "--smoke", "--jobs=4"])), Ok(4));
        let default = parse_jobs(&args(&["bin", "--smoke"])).unwrap();
        assert!((1..=8).contains(&default));
    }

    #[test]
    fn jobs_rejects_missing_zero_and_non_numeric_values() {
        for bad in [
            &["bin", "--jobs"][..],
            &["bin", "--jobs", "--smoke"],
            &["bin", "--jobs", "0"],
            &["bin", "--jobs=0"],
            &["bin", "--jobs=four"],
            &["bin", "--jobs="],
        ] {
            assert!(parse_jobs(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
