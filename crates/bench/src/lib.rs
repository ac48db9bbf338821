//! `cereal-bench` — the experiment harness that regenerates every table
//! and figure in the Cereal paper's evaluation (§VI).
//!
//! `cargo run -p cereal-bench --release --bin all` runs the whole
//! evaluation and emits an EXPERIMENTS.md-style report; `--only <id>`
//! (an id of [`figures::FIGURES`], e.g. `fig10`) renders one figure and
//! runs only the suites it reads. Set `CEREAL_SCALE=tiny` for a quick
//! pass; the default `scaled` runs the DESIGN.md workload sizes.
//!
//! | Experiment | `--only` | Module |
//! |---|---|---|
//! | Table I (architectural parameters) | `table1` | [`render::table1`] |
//! | Fig. 2 (runtime breakdown) | `fig2` | [`render::fig2`] over [`spark_suite`] |
//! | Fig. 3 (CPU S/D analysis) | `fig3` | [`render::fig3`] over [`micro_suite`] |
//! | Fig. 10 (microbench speedups) | `fig10` | [`render::fig10`] |
//! | Fig. 11 (microbench bandwidth) | `fig11` | [`render::fig11`] |
//! | Table IV (serialized sizes) | `table4` | [`render::table4`] |
//! | Fig. 12 (JSBS, measured libraries) | `fig12` | [`render::fig12`] over [`jsbs_suite`] |
//! | Fig. 13–17 (Spark) | `fig13` … `fig17` | [`render::fig13`] … [`render::fig17`] |
//! | Table V (area/power) | `table5` | [`render::table5`] |

pub mod figures;
pub mod jsbs_suite;
pub mod micro_suite;
pub mod render;
pub mod runners;
pub mod spark_suite;
pub mod table;
pub mod trace_suite;

pub use runners::{run_cereal, run_software, SdMeasure};
use workloads::Scale;

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
    match flag_value(args, "--jobs") {
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

/// The value of `flag` in `args`, spelled `flag VALUE` or `flag=VALUE`:
/// `None` when the flag is absent, `Some(None)` when it has no value.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<Option<&'a str>> {
    args.iter().enumerate().find_map(|(i, a)| match a.strip_prefix(flag) {
        Some("") => Some(args.get(i + 1).map(String::as_str)),
        Some(rest) => rest.strip_prefix('=').map(Some),
        None => None,
    })
}

/// The experiment scale from `CEREAL_SCALE`: `tiny`, `scaled` or
/// `paper`, and scaled when unset. Any other value prints an error and
/// exits with status 2.
pub fn scale_arg() -> Scale {
    let value = std::env::var_os("CEREAL_SCALE");
    parse_scale(value.as_ref().map(|v| v.to_string_lossy()).as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// [`scale_arg`] without the exit: `Err` describes a bad value.
fn parse_scale(value: Option<&str>) -> Result<Scale, String> {
    match value {
        None | Some("scaled") => Ok(Scale::Scaled),
        Some("tiny") => Ok(Scale::Tiny),
        Some("paper") => Ok(Scale::Paper),
        Some(v) => Err(format!("CEREAL_SCALE must be tiny, scaled or paper, got {v:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_jobs, parse_scale};
    use workloads::Scale;

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

    #[test]
    fn scale_accepts_its_three_names_and_defaults_to_scaled() {
        assert_eq!(parse_scale(None), Ok(Scale::Scaled));
        assert_eq!(parse_scale(Some("scaled")), Ok(Scale::Scaled));
        assert_eq!(parse_scale(Some("tiny")), Ok(Scale::Tiny));
        assert_eq!(parse_scale(Some("paper")), Ok(Scale::Paper));
    }

    #[test]
    fn scale_rejects_typos() {
        for bad in ["Tiny", "tiny ", "", "small", "PAPER"] {
            let e = parse_scale(Some(bad)).expect_err(bad);
            assert!(e.contains("tiny, scaled or paper"), "{e}");
        }
    }
}
