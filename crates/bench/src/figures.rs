//! The evaluation's figure table and the experiment-unit fan-out behind
//! it: `--bin all` renders every [`FIGURES`] entry, `--bin all --only
//! <id>` one of them.
//!
//! The experiment units (six microbenchmarks, one JSBS run per
//! [`store::Backend`], six Spark applications) are independent: each builds
//! its own heap and seeds its own PRNG, so they fan out across worker
//! threads ([`store::par_map`]) without changing any measurement. Only
//! the suites the requested figures read are run. Rendering happens
//! after every unit completes, in table order, so the report is
//! byte-identical for any job count.

use crate::jsbs_suite::{self, JsbsResult};
use crate::micro_suite::{self, MicroResult};
use crate::render;
use crate::runners::SdMeasure;
use crate::spark_suite::{self, SparkResult};
use store::{par_map, Backend};
use workloads::{MicroBench, Scale, SparkApp};

/// What a figure renders from.
enum Source {
    /// Configuration only: no suite runs.
    Fixed(fn() -> String),
    /// The microbenchmark suite.
    Micro(fn(&[MicroResult]) -> String),
    /// The JSBS suite.
    Jsbs(fn(&JsbsResult) -> String),
    /// The Spark application suite.
    Spark(fn(&[SparkResult]) -> String),
}

/// One figure or table of the evaluation.
pub struct Figure {
    /// The name `--only` takes (`fig10`, `table4`, ...).
    pub id: &'static str,
    source: Source,
}

/// Every figure and table, in report order.
#[rustfmt::skip]
pub static FIGURES: [Figure; 13] = [
    Figure { id: "table1", source: Source::Fixed(render::table1) },
    Figure { id: "fig2", source: Source::Spark(render::fig2) },
    Figure { id: "fig3", source: Source::Micro(render::fig3) },
    Figure { id: "fig10", source: Source::Micro(render::fig10) },
    Figure { id: "fig11", source: Source::Micro(render::fig11) },
    Figure { id: "table4", source: Source::Micro(render::table4) },
    Figure { id: "fig12", source: Source::Jsbs(render::fig12) },
    Figure { id: "fig13", source: Source::Spark(render::fig13) },
    Figure { id: "fig14", source: Source::Spark(render::fig14) },
    Figure { id: "fig15", source: Source::Spark(render::fig15) },
    Figure { id: "fig16", source: Source::Spark(render::fig16) },
    Figure { id: "fig17", source: Source::Spark(render::fig17) },
    Figure { id: "table5", source: Source::Fixed(render::table5) },
];

/// The figures to render from `--only ID` or `--only=ID` in `args`, else
/// all of them. A missing or unknown id prints an error naming the valid
/// ids and exits with status 2.
pub fn only_arg(args: &[String]) -> &'static [Figure] {
    parse_only(args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// [`only_arg`] without the exit: `Err` describes a bad `--only` value.
fn parse_only(args: &[String]) -> Result<&'static [Figure], String> {
    let Some(value) = crate::flag_value(args, "--only") else {
        return Ok(&FIGURES);
    };
    match FIGURES.iter().position(|f| Some(f.id) == value) {
        Some(i) => Ok(&FIGURES[i..=i]),
        None => Err(format!(
            "--only needs one of {}, got {}",
            FIGURES.iter().map(|f| f.id).collect::<Vec<_>>().join(", "),
            value.map_or("nothing".to_string(), |v| format!("{v:?}"))
        )),
    }
}

/// One independent experiment unit.
#[derive(Clone, Copy)]
enum Unit {
    Micro(MicroBench),
    Jsbs(Backend),
    Spark(SparkApp),
}

/// What a [`Unit`] measured.
enum Measured {
    Micro(MicroResult),
    Jsbs(Backend, SdMeasure),
    Spark(SparkResult),
}

/// Runs the suites `figures` read at `scale` on `jobs` worker threads and
/// renders each figure, in the order given.
pub fn run(figures: &[Figure], scale: Scale, jobs: usize) -> Vec<String> {
    let needs = |pick: fn(&Source) -> bool| figures.iter().any(|f| pick(&f.source));
    let mut units = Vec::new();
    if needs(|s| matches!(s, Source::Micro(_))) {
        units.extend(MicroBench::all().map(Unit::Micro));
    }
    if needs(|s| matches!(s, Source::Jsbs(_))) {
        units.extend(Backend::ALL.iter().copied().map(Unit::Jsbs));
    }
    if needs(|s| matches!(s, Source::Spark(_))) {
        units.extend(SparkApp::all().map(Unit::Spark));
    }
    eprintln!(
        "running {} experiment units on {jobs} worker thread(s) \
         ({scale:?})...",
        units.len()
    );

    let measured = par_map(jobs, units.len(), |i| match units[i] {
        Unit::Micro(bench) => {
            eprintln!("  micro: {}...", bench.name());
            Measured::Micro(micro_suite::run_one(bench, scale))
        }
        Unit::Jsbs(backend) => {
            eprintln!("  JSBS: {}...", backend.name());
            Measured::Jsbs(backend, jsbs_suite::run(backend))
        }
        Unit::Spark(app) => {
            eprintln!("  Spark: {}...", app.name());
            Measured::Spark(spark_suite::run_one(app, scale))
        }
    });
    let (mut micro, mut jsbs_runs, mut spark) = (Vec::new(), Vec::new(), Vec::new());
    for m in measured {
        match m {
            Measured::Micro(r) => micro.push(r),
            Measured::Jsbs(backend, r) => jsbs_runs.push((backend, r)),
            Measured::Spark(r) => spark.push(r),
        }
    }
    let jsbs = (!jsbs_runs.is_empty()).then(|| JsbsResult::new(jsbs_runs));

    figures
        .iter()
        .map(|f| match f.source {
            Source::Fixed(render) => render(),
            Source::Micro(render) => render(&micro),
            Source::Jsbs(render) => render(jsbs.as_ref().expect("JSBS suite ran")),
            Source::Spark(render) => render(&spark),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::{parse_only, FIGURES};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn only_picks_one_figure_and_defaults_to_all() {
        let all = parse_only(&args(&["all", "--jobs", "2"])).unwrap();
        assert_eq!(all.len(), FIGURES.len());
        for f in &FIGURES {
            let one = parse_only(&args(&["all", "--only", f.id])).unwrap();
            assert_eq!(one.iter().map(|f| f.id).collect::<Vec<_>>(), [f.id]);
        }
        let one = parse_only(&args(&["all", "--only=table4"])).unwrap();
        assert_eq!(one[0].id, "table4");
    }
}
