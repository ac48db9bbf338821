//! Runs the evaluation — every figure and table — in one pass, reusing
//! each suite's measurements; `--only <id>` renders one figure (see
//! [`cereal_bench::figures::FIGURES`] for the ids) and runs only the
//! suites it reads.
//!
//! The experiment units fan out across worker threads (`--jobs N` or
//! `--jobs=N`, default: available parallelism up to 8); the report is
//! byte-identical for any job count.

use cereal_bench::{figures, jobs_arg, scale_arg};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let jobs = jobs_arg(&args);
    let only = figures::only_arg(&args);
    let scale = scale_arg();
    for text in figures::run(only, scale, jobs) {
        println!("{text}");
    }
}
