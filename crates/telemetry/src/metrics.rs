//! The metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Everything is keyed by name in sorted maps and merged in the
//! caller's (entity-ordered) merge sequence, so a registry assembled
//! from per-worker children renders byte-identically for any thread
//! count.

use crate::json::JsonWriter;
use std::collections::BTreeMap;

/// A sampled value: last/min/max plus sum and sample count (so merged
/// gauges can still report an average).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gauge {
    /// Most recently sampled value.
    pub last: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sum of all samples.
    pub sum: f64,
    /// Number of samples.
    pub samples: u64,
}

impl Gauge {
    fn record(&mut self, v: f64) {
        self.last = v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.samples += 1;
    }

    fn merge(&mut self, other: &Gauge) {
        // "last" follows merge order — deterministic because merges are.
        self.last = other.last;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.samples += other.samples;
    }

    fn new(v: f64) -> Gauge {
        Gauge {
            last: v,
            min: v,
            max: v,
            sum: v,
            samples: 1,
        }
    }
}

/// Default histogram bucket edges: powers of four from 1, covering
/// sub-nanosecond costs up to ≈ 1 simulated second (and byte sizes up
/// to ≈ 1 GB) in 16 buckets plus overflow.
pub const DEFAULT_BOUNDS: [f64; 16] = [
    1.0,
    4.0,
    16.0,
    64.0,
    256.0,
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
    1048576.0,
    4194304.0,
    16777216.0,
    67108864.0,
    268435456.0,
    1073741824.0,
];

/// A fixed-bucket histogram. Bucket `i` counts observations
/// `<= bounds[i]` (and above the previous bound); one overflow bucket
/// catches the rest. Exact `count`/`sum`/`min`/`max` ride along so
/// totals reconcile exactly even though per-bucket resolution is
/// bounded.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Histogram {
    /// A histogram over the given strictly increasing upper bounds
    /// (plus an implicit overflow bucket).
    ///
    /// # Panics
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// A histogram with the workspace default bounds.
    pub fn default_bounds() -> Histogram {
        Histogram::new(&DEFAULT_BOUNDS)
    }

    /// Records one observation.
    pub fn record(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The inclusive value range `[lo, hi]` the `q`-quantile
    /// observation fell in (bucket bounds tightened by the observed
    /// min/max). `None` when empty. `q` is clamped to `[0, 1]` (NaN
    /// clamps to 0). p0 and p100 are exact: the observed min and max
    /// are tracked outside the buckets, so both endpoints collapse to
    /// a zero-width interval instead of a whole-bucket guess.
    pub fn percentile_bounds(&self, q: f64) -> Option<(f64, f64)> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        if q == 0.0 {
            return Some((self.min, self.min));
        }
        if q == 1.0 {
            return Some((self.max, self.max));
        }
        // 1-based rank of the quantile observation.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let lo = if i == 0 {
                    f64::NEG_INFINITY
                } else {
                    self.bounds[i - 1]
                };
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    f64::INFINITY
                };
                return Some((lo.max(self.min), hi.min(self.max)));
            }
        }
        unreachable!("rank <= count implies a bucket is found")
    }

    /// A point estimate of the `q`-quantile: the upper edge of its
    /// bucket, clamped to the observed range (exact for p0/p100).
    /// `None` when empty — the caller decides how to render "no data".
    pub fn percentile(&self, q: f64) -> Option<f64> {
        self.percentile_bounds(q).map(|(_, hi)| hi)
    }

    /// Merges another histogram recorded over the same bounds.
    ///
    /// # Panics
    /// Panics on mismatched bounds.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram bounds mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// `(upper_bound, count)` per non-empty bucket; the overflow bucket
    /// reports `f64::INFINITY`.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let hi = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    f64::INFINITY
                };
                (hi, c)
            })
            .collect()
    }
}

/// The registry: named counters, gauges and histograms.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, Gauge>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to the named counter.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Samples the named gauge.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(g) => g.record(value),
            None => {
                self.gauges.insert(name, Gauge::new(value));
            }
        }
    }

    /// Records one observation into the named histogram (created with
    /// [`DEFAULT_BOUNDS`] on first use).
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.hists
            .entry(name)
            .or_insert_with(Histogram::default_bounds)
            .record(value);
    }

    /// The named counter's value (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The named gauge, if ever sampled.
    pub fn gauge_value(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    /// The named histogram, if ever observed.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Merges another registry into this one. Callers merge children in
    /// a fixed entity order, so sums accumulate deterministically.
    pub fn merge(&mut self, other: Metrics) {
        for (name, v) in other.counters {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, g) in other.gauges {
            match self.gauges.get_mut(name) {
                Some(mine) => mine.merge(&g),
                None => {
                    self.gauges.insert(name, g);
                }
            }
        }
        for (name, h) in other.hists {
            match self.hists.get_mut(name) {
                Some(mine) => mine.merge(&h),
                None => {
                    self.hists.insert(name, h);
                }
            }
        }
    }

    /// Renders the registry as deterministic JSON: counters, gauges,
    /// then histograms (with p50/p90/p99 estimates and non-empty
    /// buckets), all in name order.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("counters");
        w.begin_obj();
        for (&name, &v) in &self.counters {
            w.field_u64(name, v);
        }
        w.end_obj();
        w.key("gauges");
        w.begin_obj();
        for (&name, g) in &self.gauges {
            w.key(name);
            w.begin_obj();
            w.field_f64("last", g.last, 6);
            w.field_f64("min", g.min, 6);
            w.field_f64("max", g.max, 6);
            w.field_f64("sum", g.sum, 6);
            w.field_u64("samples", g.samples);
            w.end_obj();
        }
        w.end_obj();
        w.key("histograms");
        w.begin_obj();
        for (&name, h) in &self.hists {
            w.key(name);
            w.begin_obj();
            w.field_u64("count", h.count);
            w.field_f64("sum", h.sum, 3);
            // An empty histogram (min/max still at ±∞) renders as
            // zeros rather than panicking or emitting non-finite JSON.
            w.field_f64("min", if h.count > 0 { h.min } else { 0.0 }, 3);
            w.field_f64("max", if h.count > 0 { h.max } else { 0.0 }, 3);
            w.field_f64("p50", h.percentile(0.50).unwrap_or(0.0), 3);
            w.field_f64("p90", h.percentile(0.90).unwrap_or(0.0), 3);
            w.field_f64("p99", h.percentile(0.99).unwrap_or(0.0), 3);
            w.key("buckets");
            w.begin_arr();
            for (hi, c) in h.nonzero_buckets() {
                w.begin_arr();
                if hi.is_finite() {
                    w.f64_val(hi, 1);
                } else {
                    w.str_val("inf");
                }
                w.u64_val(c);
                w.end_arr();
            }
            w.end_arr();
            w.end_obj();
        }
        w.end_obj();
        w.end_obj();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Metrics::new();
        a.count("x", 3);
        a.count("x", 4);
        let mut b = Metrics::new();
        b.count("x", 5);
        b.count("y", 1);
        a.merge(b);
        assert_eq!(a.counter("x"), 12);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.counter("missing"), 0);
    }

    #[test]
    fn gauge_tracks_extremes() {
        let mut m = Metrics::new();
        m.gauge("g", 5.0);
        m.gauge("g", 1.0);
        m.gauge("g", 9.0);
        let g = m.gauge_value("g").unwrap();
        assert_eq!(g.last, 9.0);
        assert_eq!(g.min, 1.0);
        assert_eq!(g.max, 9.0);
        assert_eq!(g.samples, 3);
    }

    #[test]
    fn histogram_totals_are_exact() {
        let mut h = Histogram::default_bounds();
        for v in [0.5, 3.0, 100.0, 1e9, 5e9] {
            h.record(v);
        }
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 0.5 + 3.0 + 100.0 + 1e9 + 5e9);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 5e9);
        // 5e9 lands in the overflow bucket.
        assert_eq!(h.nonzero_buckets().last().unwrap().0, f64::INFINITY);
    }

    #[test]
    fn percentile_bounds_bracket_the_rank() {
        let mut h = Histogram::new(&[10.0, 100.0, 1000.0]);
        for v in [1.0, 2.0, 50.0, 60.0, 500.0] {
            h.record(v);
        }
        // Rank of p50 over 5 samples = 3rd smallest = 50.0.
        let (lo, hi) = h.percentile_bounds(0.5).unwrap();
        assert!(lo <= 50.0 && 50.0 <= hi, "[{lo}, {hi}]");
        // p100 is exact: the observed max, not a bucket edge.
        assert_eq!(h.percentile(1.0).unwrap(), 500.0);
        assert_eq!(h.percentile_bounds(1.0).unwrap(), (500.0, 500.0));
        // p0 is exact: the observed min, not the bucket's upper edge.
        assert_eq!(h.percentile(0.0).unwrap(), 1.0);
        assert_eq!(h.percentile_bounds(0.0).unwrap(), (1.0, 1.0));
        assert!(Histogram::default_bounds().percentile(0.5).is_none());
    }

    #[test]
    fn percentile_edge_cases_are_defined() {
        // Empty: every quantile is None, never a panic or ±∞.
        let empty = Histogram::default_bounds();
        for q in [f64::NAN, -1.0, 0.0, 0.5, 1.0, 2.0] {
            assert!(empty.percentile(q).is_none());
            assert!(empty.percentile_bounds(q).is_none());
        }

        // Single observation: all quantiles collapse onto it.
        let mut one = Histogram::default_bounds();
        one.record(42.0);
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(one.percentile(q).unwrap(), 42.0, "q={q}");
        }

        // Out-of-range and NaN quantiles clamp to the endpoints.
        let mut h = Histogram::new(&[10.0, 100.0]);
        h.record(3.0);
        h.record(70.0);
        assert_eq!(h.percentile(-0.5).unwrap(), 3.0);
        assert_eq!(h.percentile(2.0).unwrap(), 70.0);
        assert_eq!(h.percentile(f64::NAN).unwrap(), 3.0);
    }

    #[test]
    fn empty_histogram_renders_zeros_not_garbage() {
        let mut m = Metrics::new();
        // Merging a registry that holds a never-observed histogram is
        // the one path that gets an empty histogram into `to_json`.
        let mut other = Metrics::new();
        other.hists.insert("lat", Histogram::default_bounds());
        m.merge(other);
        let json = m.to_json();
        assert!(json.contains("\"count\": 0"));
        assert!(json.contains("\"min\": 0.000"));
        assert!(json.contains("\"p99\": 0.000"));
        assert!(!json.contains("inf") || json.contains("\"inf\""));
    }

    #[test]
    fn merge_requires_matching_bounds() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let mut b = Histogram::new(&[1.0, 2.0]);
        a.record(0.5);
        b.record(1.5);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.max, 9.0);
    }

    #[test]
    fn json_is_deterministic() {
        let build = || {
            let mut m = Metrics::new();
            m.count("b", 2);
            m.count("a", 1);
            m.gauge("util", 0.5);
            m.observe("lat", 123.0);
            m.to_json()
        };
        let j = build();
        assert_eq!(j, build());
        assert!(j.contains("\"a\": 1"));
        assert!(j.contains("\"p50\""));
    }
}
