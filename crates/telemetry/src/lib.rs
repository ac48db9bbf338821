//! `telemetry` — deterministic observability on the **simulated clock**.
//!
//! Every number the workspace reports is simulated time or a
//! deterministic counter; this crate gives those numbers a *timeline*.
//! It is the measurement substrate the rest of the stack instruments
//! itself with:
//!
//! * [`span`] — structured spans and instant events over
//!   `(entity, stage, t_start_ns, t_end_ns, attrs)`, delivered through
//!   the [`Sink`] trait. The default method bodies are empty and
//!   [`Sink::ENABLED`] is `false`, so instrumented hot paths
//!   monomorphize to nothing when tracing is off ([`NoopSink`]) — the
//!   instrumentation is free unless a [`Recorder`] is plugged in;
//! * [`metrics`] — a registry of counters, gauges and fixed-bucket
//!   histograms keyed by name. Registries merge deterministically
//!   (sorted maps, entity-ordered merge), so exported metrics are
//!   byte-identical for any worker-thread count;
//! * [`chrome`] — an exporter writing Chrome trace-event JSON loadable
//!   in Perfetto / `chrome://tracing`: one "process" per executor or
//!   device, one "thread" per work stream (serialize, spill disk, flow
//!   control, NIC), flow arrows for cross-entity causal edges, counter
//!   tracks for timestamped gauge samples;
//! * [`critpath`] — the causal-trace analysis layer: rebuilds each
//!   job's dependency DAG from a [`Recorder`], walks the critical
//!   path, and attributes every nanosecond of job latency to a closed
//!   blame category set under an exact conservation law;
//! * [`recon`] — the shared counter-reconciliation checklist the bench
//!   binaries drive to prove exported telemetry agrees with the
//!   report-side numbers;
//! * [`json`] — the one shared pretty-JSON writer behind every report
//!   and exporter in the workspace (deduplicating the hand-rolled
//!   `format!` JSON the shuffle and store reports used to copy-paste);
//! * [`rate`] — zero/negative-denominator-safe rate helpers used
//!   everywhere a rate or ratio is rendered;
//! * [`ids`] — the workspace-wide process/thread id convention so
//!   recorders from different subsystems merge into one coherent trace.
//!
//! Nothing here touches the wall clock, the filesystem, or any
//! dependency outside `std`.

pub mod chrome;
pub mod critpath;
pub mod ids;
pub mod json;
pub mod metrics;
pub mod rate;
pub mod recon;
pub mod span;

pub use chrome::chrome_trace;
pub use json::JsonWriter;
pub use metrics::{Gauge, Histogram, Metrics};
pub use rate::{per_sec, ratio};
pub use recon::{Check, Recon};
pub use span::{AttrValue, EntityId, FlowEvent, Instant, NoopSink, Recorder, Sample, Sink, Span};
