//! Spans, instant events, the streaming [`Sink`] trait, and the
//! [`Recorder`] that collects everything for export.
//!
//! Instrumented code is generic over `S: Sink`. With [`NoopSink`] the
//! calls monomorphize to empty inlined bodies and [`Sink::ENABLED`] is
//! `false`, so even argument construction can be skipped — tracing
//! costs nothing when it is off. With [`Recorder`] every event is kept,
//! merged deterministically, and exported.

use crate::metrics::Metrics;
use std::collections::BTreeMap;

/// Who an event belongs to: Chrome's `(pid, tid)` pair. The workspace
/// convention lives in [`crate::ids`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EntityId {
    /// Process id — one per executor or device.
    pub pid: u32,
    /// Thread id — one per work stream of that executor.
    pub tid: u32,
}

/// A typed span/instant attribute value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttrValue {
    /// An unsigned counter-like value.
    U64(u64),
    /// A simulated-time or ratio value.
    F64(f64),
    /// A static label.
    Str(&'static str),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        AttrValue::Str(v)
    }
}

/// A named attribute.
pub type Attr = (&'static str, AttrValue);

/// One completed stage on an entity's simulated timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The entity the stage ran on.
    pub entity: EntityId,
    /// Stage name (e.g. `"serialize"`, `"gc.pause"`, `"wire"`).
    pub name: &'static str,
    /// Start on the simulated clock, nanoseconds.
    pub t0_ns: f64,
    /// End on the simulated clock, nanoseconds.
    pub t1_ns: f64,
    /// Attributes shown in the trace viewer's args panel.
    pub attrs: Vec<Attr>,
}

/// A causal edge between two entities' timelines: work at `src` (the
/// binding point `t0_ns`) caused work at `dst` (visible from `t1_ns`).
/// Rendered as a Chrome flow-event pair so Perfetto draws the arrow.
///
/// `id` must be unique among flows sharing a `name` within one trace;
/// emitters keep a monotonic per-subsystem counter (the event loops are
/// sequential on the simulated clock, so the numbering is
/// deterministic).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowEvent {
    /// Flow id, unique per `name` within a trace.
    pub id: u64,
    /// Edge kind (e.g. `"flow.fetch"`, `"flow.recovery"`).
    pub name: &'static str,
    /// Where the cause happened.
    pub src: EntityId,
    /// When the cause happened, simulated nanoseconds.
    pub t0_ns: f64,
    /// Where the effect landed.
    pub dst: EntityId,
    /// When the effect became visible, simulated nanoseconds.
    pub t1_ns: f64,
}

/// One timestamped gauge sample — unlike [`crate::metrics::Gauge`]
/// (which only keeps an aggregate) these retain *when* each value was
/// observed, so a time-sliced timeline can be rebuilt after the run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// The entity the series belongs to (usually the driver).
    pub entity: EntityId,
    /// Series name (e.g. `"cluster.timeline.queue_depth"`).
    pub name: &'static str,
    /// Sample time, simulated nanoseconds.
    pub t_ns: f64,
    /// Sampled value.
    pub value: f64,
}

/// A point event on an entity's simulated timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Instant {
    /// The entity the event happened on.
    pub entity: EntityId,
    /// Event name (e.g. `"mapper.death"`, `"evict"`).
    pub name: &'static str,
    /// When, on the simulated clock, nanoseconds.
    pub t_ns: f64,
    /// Attributes shown in the trace viewer's args panel.
    pub attrs: Vec<Attr>,
}

/// A streaming telemetry sink.
///
/// Every method has an empty default body and [`Sink::ENABLED`]
/// defaults to `false`: a sink that overrides nothing ([`NoopSink`])
/// compiles away entirely. Instrumentation that must build strings or
/// compute deltas guards on `S::ENABLED` so that work is skipped too.
///
/// `Default + Send` let fan-out stages construct one private sink per
/// worker thread and merge them back (via [`Sink::absorb`]) in a fixed
/// entity order — the merge is deterministic for any thread count.
pub trait Sink: Default + Send {
    /// Whether this sink keeps anything. Instrumentation guards
    /// non-trivial event construction on this constant.
    const ENABLED: bool = false;

    /// Records a completed span.
    #[inline(always)]
    fn span(&mut self, _span: Span) {}

    /// Records an instant event.
    #[inline(always)]
    fn instant(&mut self, _event: Instant) {}

    /// Records a causal edge between two entities.
    #[inline(always)]
    fn flow(&mut self, _flow: FlowEvent) {}

    /// Records one timestamped gauge sample.
    #[inline(always)]
    fn sample(&mut self, _sample: Sample) {}

    /// Adds `_delta` to the named counter.
    #[inline(always)]
    fn count(&mut self, _name: &'static str, _delta: u64) {}

    /// Samples the named gauge.
    #[inline(always)]
    fn gauge(&mut self, _name: &'static str, _value: f64) {}

    /// Records one observation into the named histogram.
    #[inline(always)]
    fn observe(&mut self, _hist: &'static str, _value: f64) {}

    /// Names a trace process (an executor or device).
    #[inline(always)]
    fn name_process(&mut self, _pid: u32, _name: &str) {}

    /// Names a trace thread (a work stream).
    #[inline(always)]
    fn name_thread(&mut self, _pid: u32, _tid: u32, _name: &str) {}

    /// Shifts every recorded timestamp by `_delta_ns` — how a replayed
    /// timeline (a re-executed mapper) lands at its recovery position.
    #[inline(always)]
    fn shift(&mut self, _delta_ns: f64) {}

    /// Merges a child sink produced by a worker thread into this one.
    /// Callers invoke this in a fixed entity order, which makes the
    /// merged stream deterministic for any thread count.
    #[inline(always)]
    fn absorb(&mut self, _child: Self) {}
}

/// The sink that keeps nothing. All trait defaults: instrumented code
/// monomorphized over `NoopSink` carries no tracing cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl Sink for NoopSink {}

/// The collecting sink: keeps every span, instant, metric and name for
/// export.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    /// Recorded spans, in emission/merge order.
    pub spans: Vec<Span>,
    /// Recorded instant events, in emission/merge order.
    pub instants: Vec<Instant>,
    /// Recorded causal edges, in emission/merge order.
    pub flows: Vec<FlowEvent>,
    /// Recorded timestamped gauge samples, in emission/merge order.
    pub samples: Vec<Sample>,
    /// The metrics registry.
    pub metrics: Metrics,
    /// Process names by pid.
    pub process_names: BTreeMap<u32, String>,
    /// Thread names by `(pid, tid)`.
    pub thread_names: BTreeMap<(u32, u32), String>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Total recorded events (spans + instants).
    pub fn events(&self) -> usize {
        self.spans.len() + self.instants.len()
    }
}

impl Sink for Recorder {
    const ENABLED: bool = true;

    fn span(&mut self, span: Span) {
        debug_assert!(
            span.t1_ns >= span.t0_ns,
            "span {} ends before it starts",
            span.name
        );
        self.spans.push(span);
    }

    fn instant(&mut self, event: Instant) {
        self.instants.push(event);
    }

    fn flow(&mut self, flow: FlowEvent) {
        debug_assert!(
            flow.t1_ns >= flow.t0_ns,
            "flow {} arrives before it departs",
            flow.name
        );
        self.flows.push(flow);
    }

    fn sample(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    fn count(&mut self, name: &'static str, delta: u64) {
        self.metrics.count(name, delta);
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.metrics.gauge(name, value);
    }

    fn observe(&mut self, hist: &'static str, value: f64) {
        self.metrics.observe(hist, value);
    }

    fn name_process(&mut self, pid: u32, name: &str) {
        self.process_names
            .entry(pid)
            .or_insert_with(|| name.to_string());
    }

    fn name_thread(&mut self, pid: u32, tid: u32, name: &str) {
        self.thread_names
            .entry((pid, tid))
            .or_insert_with(|| name.to_string());
    }

    fn shift(&mut self, delta_ns: f64) {
        for s in &mut self.spans {
            s.t0_ns += delta_ns;
            s.t1_ns += delta_ns;
        }
        for e in &mut self.instants {
            e.t_ns += delta_ns;
        }
        for f in &mut self.flows {
            f.t0_ns += delta_ns;
            f.t1_ns += delta_ns;
        }
        for s in &mut self.samples {
            s.t_ns += delta_ns;
        }
    }

    fn absorb(&mut self, child: Recorder) {
        self.spans.extend(child.spans);
        self.instants.extend(child.instants);
        self.flows.extend(child.flows);
        self.samples.extend(child.samples);
        self.metrics.merge(child.metrics);
        for (pid, name) in child.process_names {
            self.process_names.entry(pid).or_insert(name);
        }
        for (key, name) in child.thread_names {
            self.thread_names.entry(key).or_insert(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(pid: u32, t0: f64, t1: f64) -> Span {
        Span {
            entity: EntityId { pid, tid: 0 },
            name: "work",
            t0_ns: t0,
            t1_ns: t1,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn recorder_keeps_and_shifts() {
        let mut r = Recorder::new();
        r.span(span(1, 10.0, 20.0));
        r.instant(Instant {
            entity: EntityId { pid: 1, tid: 0 },
            name: "tick",
            t_ns: 15.0,
            attrs: Vec::new(),
        });
        r.shift(100.0);
        assert_eq!(r.spans[0].t0_ns, 110.0);
        assert_eq!(r.spans[0].t1_ns, 120.0);
        assert_eq!(r.instants[0].t_ns, 115.0);
    }

    #[test]
    fn absorb_merges_in_call_order() {
        let mut parent = Recorder::new();
        let mut a = Recorder::new();
        a.span(span(1, 0.0, 1.0));
        a.count("n", 2);
        let mut b = Recorder::new();
        b.span(span(2, 0.0, 1.0));
        b.count("n", 3);
        parent.absorb(a);
        parent.absorb(b);
        assert_eq!(parent.spans.len(), 2);
        assert_eq!(parent.spans[0].entity.pid, 1);
        assert_eq!(parent.metrics.counter("n"), 5);
    }

    #[test]
    fn flows_and_samples_shift_and_absorb() {
        let mut parent = Recorder::new();
        let mut child = Recorder::new();
        child.flow(FlowEvent {
            id: 0,
            name: "flow.fetch",
            src: EntityId { pid: 1, tid: 0 },
            t0_ns: 5.0,
            dst: EntityId { pid: 2, tid: 0 },
            t1_ns: 9.0,
        });
        child.sample(Sample {
            entity: EntityId { pid: 1, tid: 0 },
            name: "depth",
            t_ns: 7.0,
            value: 3.0,
        });
        child.shift(100.0);
        parent.absorb(child);
        assert_eq!(parent.flows.len(), 1);
        assert_eq!(parent.flows[0].t0_ns, 105.0);
        assert_eq!(parent.flows[0].t1_ns, 109.0);
        assert_eq!(parent.samples[0].t_ns, 107.0);
    }

    #[test]
    fn first_name_wins() {
        let mut r = Recorder::new();
        r.name_process(7, "mapper 7");
        r.name_process(7, "other");
        assert_eq!(r.process_names[&7], "mapper 7");
    }

    #[test]
    fn noop_is_default_constructible() {
        // The whole point: generic call sites can make one per worker.
        fn takes<S: Sink>() -> S {
            S::default()
        }
        let _: NoopSink = takes();
        const { assert!(!NoopSink::ENABLED) };
        const { assert!(Recorder::ENABLED) };
    }
}
