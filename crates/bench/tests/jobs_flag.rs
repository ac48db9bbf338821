//! A bad `--jobs` value stops a bench binary with exit status 2 before
//! it runs anything.

use std::process::Command;

#[test]
fn bad_jobs_value_exits_2() {
    for bad in [&["--jobs"][..], &["--jobs", "x"], &["--jobs=0"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_shuffle"))
            .args(["--smoke", "--out", "/nonexistent/BENCH_SHUFFLE.json"])
            .args(bad)
            .output()
            .expect("spawn shuffle");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--jobs needs a positive integer"),
            "{stderr}"
        );
    }
}
