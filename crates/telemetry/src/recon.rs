//! The shared counter-reconciliation checklist.
//!
//! Instrumented subsystems book counters at their event sites; reports
//! accumulate the same quantities independently. A [`Recon`] collects
//! the cross-checks between the two — exact for counters, to
//! accumulation tolerance for f64 sums — so the bench binaries
//! (`--bin trace`, `--bin cluster`) drive one checklist implementation
//! instead of hand-copying it, render the same JSON table, and exit
//! non-zero on any disagreement.

use crate::json::JsonWriter;

/// One reconciliation check: a trace-side value against its
/// report-side twin (condition-only checks record `1`/`0`).
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// Telemetry-side name of the quantity checked.
    pub name: String,
    /// What the trace recorded.
    pub traced: f64,
    /// What the report measured.
    pub reported: f64,
    /// Whether they agree.
    pub ok: bool,
}

/// A reconciliation checklist in progress. Failures are collected, not
/// fatal per-check — the driver reports them all, then exits non-zero.
#[derive(Clone, Debug)]
pub struct Recon {
    /// Every check run, in order.
    pub checks: Vec<Check>,
    rel_tol: f64,
}

impl Recon {
    /// A checklist whose [`Recon::close`] comparisons allow the given
    /// relative tolerance (floors at `1.0` absolute for tiny values).
    pub fn new(rel_tol: f64) -> Recon {
        Recon {
            checks: Vec::new(),
            rel_tol,
        }
    }

    /// Records a condition-only check (no numeric twin).
    pub fn cond(&mut self, ok: bool, name: &str) {
        self.checks.push(Check {
            name: name.to_string(),
            traced: if ok { 1.0 } else { 0.0 },
            reported: 1.0,
            ok,
        });
    }

    /// Checks an exact counter against its report twin.
    pub fn exact(&mut self, name: &str, traced: u64, reported: u64) {
        self.checks.push(Check {
            name: name.to_string(),
            traced: traced as f64,
            reported: reported as f64,
            ok: traced == reported,
        });
    }

    /// Checks an accumulated f64 (histogram sum, simulated-time total)
    /// against its report twin to the checklist's relative tolerance.
    pub fn close(&mut self, name: &str, traced: f64, reported: f64) {
        let tol = self.rel_tol * traced.abs().max(reported.abs()).max(1.0);
        self.checks.push(Check {
            name: name.to_string(),
            traced,
            reported,
            ok: (traced - reported).abs() <= tol,
        });
    }

    /// Total checks run.
    pub fn total(&self) -> u64 {
        self.checks.len() as u64
    }

    /// Checks that disagreed.
    pub fn failures(&self) -> u64 {
        self.checks.iter().filter(|c| !c.ok).count() as u64
    }

    /// Checks that agreed.
    pub fn passed(&self) -> u64 {
        self.total() - self.failures()
    }

    /// Whether every check agreed.
    pub fn all_ok(&self) -> bool {
        self.failures() == 0
    }

    /// Prints one line per failed check to stderr, prefixed by `label`.
    pub fn eprint_failures(&self, label: &str) {
        for c in self.checks.iter().filter(|c| !c.ok) {
            eprintln!(
                "{label}: reconcile FAIL {}: traced {} != reported {}",
                c.name, c.traced, c.reported
            );
        }
    }

    /// Renders the checklist as a JSON array of
    /// `{name, traced, reported, ok}` rows.
    pub fn render(&self, w: &mut JsonWriter) {
        w.begin_arr();
        for c in &self.checks {
            w.begin_obj();
            w.field_str("name", &c.name);
            w.field_f64("traced", c.traced, 3);
            w.field_f64("reported", c.reported, 3);
            w.field_bool("ok", c.ok);
            w.end_obj();
        }
        w.end_arr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparators_classify_agreement() {
        let mut r = Recon::new(1e-9);
        r.exact("a", 5, 5);
        r.exact("b", 5, 6);
        r.close("c", 1e12, 1e12 + 1.0); // within 1e-9 relative
        r.close("d", 1.0, 3.0);
        r.cond(true, "e");
        assert_eq!(r.total(), 5);
        assert_eq!(r.failures(), 2);
        assert_eq!(r.passed(), 3);
        assert!(!r.all_ok());
        assert!(r.checks[2].ok, "relative tolerance floors at the magnitude");
    }

    #[test]
    fn render_emits_one_row_per_check() {
        let mut r = Recon::new(1e-6);
        r.exact("x", 1, 1);
        let mut w = JsonWriter::new();
        r.render(&mut w);
        let json = w.finish();
        assert!(json.contains("\"name\": \"x\""));
        assert!(json.contains("\"ok\": true"));
    }
}
