//! The host clock: spans the benchmark records around its own calls into
//! each layer's public functions.
//!
//! With tracing off, [`Clock::timed`] still measures the call it wraps
//! (end-to-end metrics such as `ser_MBps` need per-call host time) but
//! records nothing. With tracing on, every span is kept in memory with
//! its parent; [`Clock::drain`] turns them into per-layer *self* time —
//! a span's duration minus the part of it its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Rec {
    name: &'static str,
    t0: f64,
    t1: f64,
    parent: Option<usize>,
}

/// Closes span `idx` when dropped, so a span a panic leaves (the
/// benchmark catches panics and counts them) still ends and unstacks.
struct Open<'a> {
    clock: &'a Clock,
    idx: usize,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        self.clock.open.borrow_mut().pop();
        let t1 = self.clock.now();
        self.clock.spans.borrow_mut()[self.idx].t1 = t1;
    }
}

/// Host-clock span recorder (single-threaded: spans wrap whole
/// fan-outs, never the worker threads inside them).
pub struct Clock {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Rec>>,
    open: RefCell<Vec<usize>>,
}

impl Clock {
    /// A clock that records spans only when `on`.
    pub fn new(on: bool) -> Clock {
        Clock {
            on,
            origin: Instant::now(),
            spans: RefCell::default(),
            open: RefCell::default(),
        }
    }

    /// Whether spans are recorded (the traced run).
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` in a span named `name`; returns its result and its
    /// inclusive host seconds.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.on {
            let t0 = Instant::now();
            let out = f();
            return (out, t0.elapsed().as_secs_f64());
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Rec {
                name,
                t0: self.now(),
                t1: f64::NAN,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let open = Open { clock: self, idx };
        let out = f();
        drop(open);
        let spans = self.spans.borrow();
        (out, spans[idx].t1 - spans[idx].t0)
    }

    /// Runs `f` in a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.on {
            self.timed(name, f).0
        } else {
            f()
        }
    }

    /// Self seconds per span name over every span recorded since the
    /// last drain, then forgets them.
    pub fn drain(&self) -> BTreeMap<&'static str, f64> {
        assert!(
            self.open.borrow().is_empty(),
            "drain with a span still open"
        );
        let spans = std::mem::take(&mut *self.spans.borrow_mut());
        let mut child = vec![0.0f64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child[p] += s.t1 - s.t0;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += (s.t1 - s.t0) - c;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let c = Clock::new(true);
        c.span("outer", || {
            c.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(50))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let selfs = c.drain();
        assert!(selfs["inner"] >= 0.05);
        // Without the child subtracted, outer would read at least 55 ms.
        assert!(selfs["outer"] >= 0.005 && selfs["outer"] < 0.05);
        assert!(c.drain().is_empty(), "drain forgets");
    }

    #[test]
    fn a_panicking_span_still_closes() {
        let c = Clock::new(true);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.span("outer", || c.span("inner", || panic!("boom")))
        }));
        assert!(r.is_err());
        let selfs = c.drain();
        assert!(selfs["outer"].is_finite() && selfs["inner"].is_finite());
    }

    #[test]
    fn untraced_clock_records_nothing_but_still_times() {
        let c = Clock::new(false);
        let ((), secs) = c.timed("x", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!(secs >= 0.005);
        assert!(c.drain().is_empty());
    }
}
