//! `perfbench` — the repository's benchmark, on both clocks.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serde_host|paper_sim|shuffle_store|cluster> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures with tracing off and reports every end-to-end
//! metric; `--trace 1` records host-clock spans around the benchmark's
//! own calls into each layer and reports every per-layer metric. Either
//! way every output is checked, and every simulated value must repeat
//! exactly: across iterations, between traced and untraced passes, and
//! across runs of the same binary with the same seed. The last line of
//! standard output is the result as JSON; the line before it records
//! the machine and build. A correctness or determinism failure exits 1.

mod clock;
mod cluster_wl;
mod graphs;
mod harness;
mod mem;
mod metrics;
mod narrate;
mod paper_sim;
mod serde_host;
mod shuffle_store;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use clock::Clock;
use harness::{Ctx, Run};

#[global_allocator]
static ALLOC: mem::Counting = mem::Counting;

/// A workload's whole run: set-up, timed region and checks.
type Workload = fn(&Ctx) -> Run;

const WORKLOADS: [(&str, Workload); 4] = [
    ("serde_host", serde_host::run),
    ("paper_sim", paper_sim::run),
    ("shuffle_store", shuffle_store::run),
    ("cluster", cluster_wl::run),
];

/// Worker threads of every fan-out (shuffle, RDD, cluster profile
/// build). On the shared two-vCPU machine this benchmark was built on, a
/// two-thread fan-out ran slower than one thread, and at two speeds from
/// run to run as the second vCPU was free or taken by another tenant.
/// No result depends on the thread count.
const DESIGN_THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The machine and build every result is recorded with.
fn machine(threads: usize, cores: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cmd = |prog: &str, args: &[&str]| {
        std::process::Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"machine\": {{\"nproc\": {cores}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"threads\": {threads}}}}}",
        esc(&cpu),
        esc(&cmd("rustc", &["-V"])),
        esc(&cmd("git", &["rev-parse", "HEAD"])),
    )
}

fn esc(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .collect::<String>()
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
}

/// FNV-1a of this executable, so recorded simulated values are only
/// compared against the same build.
fn exe_hash() -> Option<(PathBuf, u64)> {
    let exe = std::env::current_exe().ok()?;
    let bytes = std::fs::read(&exe).ok()?;
    let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    Some((exe.parent()?.join("perfbench-sim"), h))
}

/// Cross-run determinism: the first run of a (build, workload, seed)
/// records its simulated fingerprint next to the executable; every
/// later run — traced or not — must reproduce it bit for bit.
fn check_record(workload: &str, seed: u64, run: &mut Run) {
    let Some((dir, hash)) = exe_hash() else {
        return;
    };
    let path = dir.join(format!("{workload}-{seed}-{hash:016x}.txt"));
    let mut text = String::new();
    for (k, v) in &run.sim {
        let _ = writeln!(text, "{k} {v:#x}");
    }
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev != text => {
            let diff = prev.lines().zip(text.lines()).find(|(a, b)| a != b);
            run.tally.op::<()>(Err(format!(
                "simulated values differ from an earlier run of this build: {diff:?}"
            )));
        }
        Ok(_) => {
            run.tally.op(Ok(()));
        }
        Err(_) => {
            let _ = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &text));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(name, workload)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    // Never more worker threads than the machine offers.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = DESIGN_THREADS.min(cores);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        clock: Clock::new(args.trace),
    };
    let mut run = workload(&ctx);
    check_record(name, args.seed, &mut run);

    let (table, kind) = if args.trace {
        (metrics::LAYERS, "per-layer")
    } else {
        (metrics::E2E, "end-to-end")
    };
    let value = |run: &Run, m: &str| {
        if args.trace {
            run.layers.get(m).copied().unwrap_or(0.0)
        } else {
            run.e2e.get(m).copied().unwrap_or(f64::NAN)
        }
    };
    for &(m, _) in table {
        let v = value(&run, m);
        if !v.is_finite() || (!args.trace && v <= 0.0) {
            run.tally.op::<()>(Err(format!("{kind} metric {m} is {v}")));
        }
    }
    let t = &run.tally;
    let error_rate = t.failed as f64 / t.attempted.max(1) as f64;
    run.layers.insert("bench.error_rate", error_rate);
    let mut out = String::new();
    for &(m, unit) in table {
        let v = value(&run, m);
        eprintln!("{name:>13} {m:<36} {v:>18.6} {unit}");
        if !out.is_empty() {
            out.push_str(", ");
        }
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(out, "\"{m}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    for n in &run.notes {
        eprintln!("{name}: {n}");
    }
    let t = &run.tally;
    for e in t.errors.iter().take(20) {
        eprintln!("{name}: FAILED: {e}");
    }
    eprintln!(
        "{name}: {} of {} operations failed ({error_rate:.6} error rate)",
        t.failed, t.attempted
    );
    println!("{}", machine(threads, cores));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{out}}}}}",
        t.failed == 0,
        t.attempted.max(1),
        t.failed
    );
    if t.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
