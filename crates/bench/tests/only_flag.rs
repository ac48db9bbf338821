//! `all --only` takes exactly one figure id; a missing or unknown id, or
//! a `CEREAL_SCALE` typo, stops the binary with exit status 2 before it
//! runs anything.

use std::process::Command;

#[test]
fn bad_only_value_exits_2_and_lists_the_ids() {
    for bad in [
        &["--only"][..],
        &["--only", "--jobs", "2"],
        &["--only", "fig1"],
        &["--only", "fig10,fig11"],
        &["--only="],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_all"))
            .env("CEREAL_SCALE", "tiny")
            .args(bad)
            .output()
            .expect("spawn all");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        assert!(out.stdout.is_empty(), "{bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(
                "--only needs one of table1, fig2, fig3, fig10, fig11, table4, \
                             fig12, fig13, fig14, fig15, fig16, fig17, table5"
            ),
            "{stderr}"
        );
    }
}

#[test]
fn bad_scale_exits_2() {
    for bad in ["Tiny", "tiny ", ""] {
        let out = Command::new(env!("CARGO_BIN_EXE_all"))
            .env("CEREAL_SCALE", bad)
            .args(["--only", "table1"])
            .output()
            .expect("spawn all");
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("CEREAL_SCALE must be tiny, scaled or paper"),
            "{stderr}"
        );
    }
}
