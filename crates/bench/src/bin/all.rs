//! Runs the complete evaluation — every figure and table — in one pass,
//! reusing each suite's measurements.
//!
//! The eighteen experiment units (six microbenchmarks, six JSBS measured
//! serializer runs, six Spark applications) are independent: each builds
//! its own heap and seeds its own PRNG, so they fan out across worker
//! threads ([`store::par_map`]; `--jobs N` or `--jobs=N`, default:
//! available parallelism up to 8) without changing any measurement.
//! Rendering happens only after every unit completes, in the fixed
//! figure order, so the report is byte-identical for any job count.

use cereal_bench::micro_suite::MicroResult;
use cereal_bench::runners::SdMeasure;
use cereal_bench::spark_suite::SparkResult;
use cereal_bench::{jobs_arg, jsbs_suite, micro_suite, render, spark_suite};
use store::par_map;
use workloads::{MicroBench, SparkApp};

/// One independent experiment unit: a microbenchmark, a JSBS measured
/// serializer run, or a Spark application.
#[derive(Clone, Copy)]
enum Unit {
    Micro(MicroBench),
    Jsbs(usize),
    Spark(SparkApp),
}

/// What a [`Unit`] measured.
enum Measured {
    Micro(MicroResult),
    Jsbs(SdMeasure),
    Spark(SparkResult),
}

fn main() {
    let micro_scale = micro_suite::scale_from_env();
    let spark_scale = spark_suite::scale_from_env();
    let args: Vec<String> = std::env::args().collect();
    let jobs = jobs_arg(&args);
    let units: Vec<Unit> = MicroBench::all()
        .into_iter()
        .map(Unit::Micro)
        .chain((0..jsbs_suite::MEASURED_UNITS).map(Unit::Jsbs))
        .chain(SparkApp::all().into_iter().map(Unit::Spark))
        .collect();
    eprintln!(
        "running {} experiment units on {jobs} worker thread(s) \
         (micro {micro_scale:?}, spark {spark_scale:?})...",
        units.len()
    );

    let measured = par_map(jobs, units.len(), |i| match units[i] {
        Unit::Micro(bench) => {
            eprintln!("  micro: {}...", bench.name());
            Measured::Micro(micro_suite::run_one(bench, micro_scale))
        }
        Unit::Jsbs(m) => {
            eprintln!("  JSBS measured run {m}...");
            Measured::Jsbs(jsbs_suite::run_measured(m))
        }
        Unit::Spark(app) => {
            eprintln!("  Spark: {}...", app.name());
            Measured::Spark(spark_suite::run_one(app, spark_scale))
        }
    });
    let (mut micro, mut jsbs_measures, mut spark) = (Vec::new(), Vec::new(), Vec::new());
    for m in measured {
        match m {
            Measured::Micro(r) => micro.push(r),
            Measured::Jsbs(r) => jsbs_measures.push(r),
            Measured::Spark(r) => spark.push(r),
        }
    }
    let jsbs = jsbs_suite::assemble(&jsbs_measures);

    println!("{}", render::table1());
    println!("{}", render::fig2(&spark));
    println!("{}", render::fig3(&micro));
    println!("{}", render::fig10(&micro));
    println!("{}", render::fig11(&micro));
    println!("{}", render::table4(&micro));
    println!("{}", render::fig12(&jsbs));
    println!("{}", render::fig13(&spark));
    println!("{}", render::fig14(&spark));
    println!("{}", render::fig15(&spark));
    println!("{}", render::fig16(&spark));
    println!("{}", render::fig17(&spark));
    println!("{}", render::table5());
}
