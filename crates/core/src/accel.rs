//! The accelerator top level: command queue, request scheduler, and the
//! SU/DU pools (paper Fig. 6).
//!
//! The host issues serialization/deserialization requests; the scheduler
//! hands each to the earliest-available unit of the right kind
//! (operation-level parallelism, §V-D). All units share the DRAM system,
//! so concurrent requests contend for channel bandwidth exactly as the
//! software baselines do.
//!
//! Every request is executed *functionally* (real bytes in, real bytes
//! out, verified by the round-trip tests) and *temporally* (the workload
//! descriptor is replayed through the unit timing models).

use sdheap::{Addr, Heap, KlassId, KlassRegistry};
use serializers::SerError;
use sim::Dram;
use telemetry::ids::DU_TID_BASE;
use telemetry::{EntityId, Sink, Span};

use crate::config::{CerealConfig, MAX_CLASSES};
use crate::du::DeserializationUnit;
use crate::energy;
use crate::functional::{decode, encode};
use crate::su::{SerializationUnit, UnitRun};
use crate::tables::ClassTables;

/// Timed result of one serialization request.
#[derive(Clone, Debug)]
pub struct SerResult {
    /// The serialized stream bytes.
    pub bytes: Vec<u8>,
    /// Unit timing.
    pub run: UnitRun,
    /// Which SU executed the request.
    pub unit: usize,
}

/// Timing and placement of one serialization request, without the
/// stream bytes — what [`Accelerator::serialize_into`] returns after
/// writing the stream into the caller's arena.
#[derive(Clone, Copy, Debug)]
pub struct SerMeta {
    /// Encoded stream length in bytes.
    pub len: usize,
    /// Unit timing.
    pub run: UnitRun,
    /// Which SU executed the request.
    pub unit: usize,
}

/// Timed result of one deserialization request.
#[derive(Clone, Copy, Debug)]
pub struct DeResult {
    /// Root of the reconstructed graph.
    pub root: Addr,
    /// Unit timing.
    pub run: UnitRun,
    /// Which DU executed the request.
    pub unit: usize,
}

/// Aggregate report over everything the accelerator has executed since
/// construction (or the last [`Accelerator::reset_meters`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct AccelReport {
    /// Serialization requests completed.
    pub ser_requests: u64,
    /// Deserialization requests completed.
    pub de_requests: u64,
    /// Completion time of the last serialization request (ns).
    pub ser_makespan_ns: f64,
    /// Completion time of the last deserialization request (ns).
    pub de_makespan_ns: f64,
    /// Completion time over all requests (ns).
    pub makespan_ns: f64,
    /// Summed SU busy time (ns).
    pub su_busy_ns: f64,
    /// Summed DU busy time (ns).
    pub du_busy_ns: f64,
    /// Total DRAM bytes moved.
    pub dram_bytes: u64,
    /// Fraction of peak DRAM bandwidth used over the makespan.
    pub bandwidth_util: f64,
    /// Accelerator energy in microjoules (Table V model).
    pub energy_uj: f64,
}

/// The Cereal accelerator.
#[derive(Debug)]
pub struct Accelerator {
    cfg: CerealConfig,
    tables: ClassTables,
    dram: Dram,
    su: Vec<SerializationUnit>,
    du: Vec<DeserializationUnit>,
    su_free: Vec<f64>,
    du_free: Vec<f64>,
    serial_counter: u16,
    su_busy: f64,
    du_busy: f64,
    ser_requests: u64,
    de_requests: u64,
    ser_makespan: f64,
    de_makespan: f64,
}

impl Accelerator {
    /// An accelerator with the given configuration (`Initialize` in the
    /// paper's software interface).
    pub fn new(cfg: CerealConfig) -> Self {
        Accelerator {
            tables: ClassTables::new(MAX_CLASSES),
            dram: Dram::new(cfg.dram),
            su: (0..cfg.num_su)
                .map(|_| SerializationUnit::new(&cfg))
                .collect(),
            du: (0..cfg.num_du)
                .map(|_| DeserializationUnit::new(&cfg))
                .collect(),
            su_free: vec![0.0; cfg.num_su],
            du_free: vec![0.0; cfg.num_du],
            serial_counter: 0,
            su_busy: 0.0,
            du_busy: 0.0,
            ser_requests: 0,
            de_requests: 0,
            ser_makespan: 0.0,
            de_makespan: 0.0,
            cfg,
        }
    }

    /// The Table I configuration.
    pub fn paper() -> Self {
        Accelerator::new(CerealConfig::paper())
    }

    /// The "Cereal Vanilla" ablation.
    pub fn vanilla() -> Self {
        Accelerator::new(CerealConfig::vanilla())
    }

    /// The active configuration.
    pub fn config(&self) -> &CerealConfig {
        &self.cfg
    }

    /// `RegisterClass(Class Type)`: makes one class serializable.
    ///
    /// # Errors
    /// [`SerError::Unsupported`] when the hardware table is full.
    pub fn register_class(&mut self, reg: &KlassRegistry, id: KlassId) -> Result<(), SerError> {
        self.tables.register(reg, id)
    }

    /// Registers every class of a registry.
    ///
    /// # Errors
    /// [`SerError::Unsupported`] when the hardware table is full.
    pub fn register_all(&mut self, reg: &KlassRegistry) -> Result<(), SerError> {
        self.tables.register_all(reg)
    }

    /// Number of classes registered with the hardware.
    pub fn registered_classes(&self) -> usize {
        self.tables.len()
    }

    fn next_counter(&mut self, heap: &mut Heap, reg: &KlassRegistry) -> u16 {
        if self.serial_counter == u16::MAX {
            // Counter about to overflow: the paper forces a GC, which
            // clears the per-object serialization metadata (§V-E).
            heap.gc_clear_serialization_metadata(reg);
            self.serial_counter = 0;
        }
        self.serial_counter += 1;
        self.serial_counter
    }

    /// Serializes the graph rooted at `root` (the `WriteObject` call):
    /// functional bytes plus unit timing.
    ///
    /// # Errors
    /// [`SerError`] for unregistered classes, or
    /// [`SerError::Unsupported`] when another unit reserved a shared
    /// object's header (§V-E's case for software serialization).
    pub fn serialize(
        &mut self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
    ) -> Result<SerResult, SerError> {
        let mut bytes = Vec::new();
        let meta = self.serialize_into(heap, reg, root, &mut bytes)?;
        Ok(SerResult {
            bytes,
            run: meta.run,
            unit: meta.unit,
        })
    }

    /// Like [`Accelerator::serialize`], but encodes the stream into a
    /// caller-provided arena instead of allocating a fresh `Vec` per
    /// request. `out` is cleared first, so a reused arena amortizes its
    /// allocation across requests. Its callers are
    /// [`Accelerator::serialize`] (with a fresh `Vec`; the shuffle and
    /// store services reach the accelerator that way, through
    /// `store::Engine`), [`Accelerator::serialize_into_traced`], and the
    /// [`crate::iface::CerealSerializer`] adapter behind the
    /// [`serializers::Serializer`] trait. Bytes and timing are identical
    /// to [`Accelerator::serialize`].
    ///
    /// # Errors
    /// [`SerError`] for unregistered classes, or
    /// [`SerError::Unsupported`] when another unit reserved a shared
    /// object's header (§V-E's case for software serialization).
    pub fn serialize_into(
        &mut self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
        out: &mut Vec<u8>,
    ) -> Result<SerMeta, SerError> {
        let counter = self.next_counter(heap, reg);
        // Pick the earliest-free SU.
        let unit = (0..self.cfg.num_su)
            .min_by(|&a, &b| {
                self.su_free[a]
                    .partial_cmp(&self.su_free[b])
                    .expect("no NaN")
            })
            .expect("num_su > 0");
        let outcome = encode(
            heap,
            reg,
            &self.tables,
            counter,
            unit as u8,
            self.cfg.strip_mark_words,
        )
        .run(root)?;
        let start = self.su_free[unit];
        let run = self.su[unit].run(&self.cfg, &outcome.workload, start, &mut self.dram);
        self.su_free[unit] = run.end_ns;
        self.su_busy += run.busy_ns();
        self.ser_requests += 1;
        self.ser_makespan = self.ser_makespan.max(run.end_ns);
        out.clear();
        outcome.stream.to_bytes_into(out);
        Ok(SerMeta {
            len: out.len(),
            run,
            unit,
        })
    }

    /// [`Accelerator::serialize_into`] plus telemetry: emits one
    /// `su.serialize` span on `(pid, unit)` per request and the
    /// accelerator request/byte/busy metrics. With a no-op sink this is
    /// exactly `serialize_into`.
    ///
    /// # Errors
    /// [`SerError`] for unregistered classes, or
    /// [`SerError::Unsupported`] when another unit reserved a shared
    /// object's header (§V-E's case for software serialization).
    pub fn serialize_into_traced<S: Sink>(
        &mut self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
        out: &mut Vec<u8>,
        sink: &mut S,
        pid: u32,
    ) -> Result<SerMeta, SerError> {
        let meta = self.serialize_into(heap, reg, root, out)?;
        if S::ENABLED {
            let tid = meta.unit as u32;
            sink.name_process(pid, "cereal accelerator");
            sink.name_thread(pid, tid, &format!("SU {}", meta.unit));
            sink.span(Span {
                entity: EntityId { pid, tid },
                name: "su.serialize",
                t0_ns: meta.run.start_ns,
                t1_ns: meta.run.end_ns,
                attrs: vec![
                    ("stream_bytes", (meta.len as u64).into()),
                    ("read_bytes", meta.run.read_bytes.into()),
                    ("write_bytes", meta.run.write_bytes.into()),
                ],
            });
            sink.count("accel.ser_requests", 1);
            sink.count("accel.ser_bytes", meta.len as u64);
            sink.observe("accel.su_busy_ns", meta.run.busy_ns());
        }
        Ok(meta)
    }

    /// Deserializes `bytes` into `dst` (the `ReadObject` call).
    ///
    /// # Errors
    /// [`SerError`] on malformed streams, unregistered class IDs, or heap
    /// exhaustion.
    pub fn deserialize(&mut self, bytes: &[u8], dst: &mut Heap) -> Result<DeResult, SerError> {
        let stream = sdformat::CerealStream::from_bytes(bytes)
            .map_err(|_| SerError::Malformed("undecodable Cereal stream"))?;
        let unit = (0..self.cfg.num_du)
            .min_by(|&a, &b| {
                self.du_free[a]
                    .partial_cmp(&self.du_free[b])
                    .expect("no NaN")
            })
            .expect("num_du > 0");
        let dst_base = dst.top_addr().get();
        let (root, workload) = decode(&stream, &self.tables, dst, self.cfg.strip_mark_words)?;
        let start = self.du_free[unit];
        let run = self.du[unit].run(&self.cfg, &workload, start, &mut self.dram, dst_base);
        self.du_free[unit] = run.end_ns;
        self.du_busy += run.busy_ns();
        self.de_requests += 1;
        self.de_makespan = self.de_makespan.max(run.end_ns);
        Ok(DeResult { root, run, unit })
    }

    /// [`Accelerator::deserialize`] plus telemetry: emits one
    /// `du.deserialize` span on `(pid, DU_TID_BASE + unit)` per request
    /// and the request/busy metrics. With a no-op sink this is exactly
    /// `deserialize`.
    ///
    /// # Errors
    /// [`SerError`] on malformed streams, unregistered class IDs, or heap
    /// exhaustion.
    pub fn deserialize_traced<S: Sink>(
        &mut self,
        bytes: &[u8],
        dst: &mut Heap,
        sink: &mut S,
        pid: u32,
    ) -> Result<DeResult, SerError> {
        let res = self.deserialize(bytes, dst)?;
        if S::ENABLED {
            let tid = DU_TID_BASE + res.unit as u32;
            sink.name_process(pid, "cereal accelerator");
            sink.name_thread(pid, tid, &format!("DU {}", res.unit));
            sink.span(Span {
                entity: EntityId { pid, tid },
                name: "du.deserialize",
                t0_ns: res.run.start_ns,
                t1_ns: res.run.end_ns,
                attrs: vec![
                    ("stream_bytes", (bytes.len() as u64).into()),
                    ("read_bytes", res.run.read_bytes.into()),
                    ("write_bytes", res.run.write_bytes.into()),
                ],
            });
            sink.count("accel.de_requests", 1);
            sink.count("accel.de_bytes", bytes.len() as u64);
            sink.observe("accel.du_busy_ns", res.run.busy_ns());
        }
        Ok(res)
    }

    /// Aggregate report since the last meter reset.
    pub fn report(&self) -> AccelReport {
        let makespan = self.ser_makespan.max(self.de_makespan);
        AccelReport {
            ser_requests: self.ser_requests,
            de_requests: self.de_requests,
            ser_makespan_ns: self.ser_makespan,
            de_makespan_ns: self.de_makespan,
            makespan_ns: makespan,
            su_busy_ns: self.su_busy,
            du_busy_ns: self.du_busy,
            dram_bytes: self.dram.total_bytes(),
            bandwidth_util: self.dram.utilization(makespan),
            energy_uj: energy::cereal_energy_uj(self.su_busy, self.du_busy, makespan),
        }
    }

    /// Resets all timing/traffic meters (unit availability, DRAM bytes,
    /// busy counters) while keeping registered classes.
    pub fn reset_meters(&mut self) {
        self.dram = Dram::new(self.cfg.dram);
        self.su = (0..self.cfg.num_su)
            .map(|_| SerializationUnit::new(&self.cfg))
            .collect();
        self.du = (0..self.cfg.num_du)
            .map(|_| DeserializationUnit::new(&self.cfg))
            .collect();
        self.su_free = vec![0.0; self.cfg.num_su];
        self.du_free = vec![0.0; self.cfg.num_du];
        self.su_busy = 0.0;
        self.du_busy = 0.0;
        self.ser_requests = 0;
        self.de_requests = 0;
        self.ser_makespan = 0.0;
        self.de_makespan = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdheap::builder::Init;
    use sdheap::{isomorphic, FieldKind, GraphBuilder, ValueType};

    fn list(n: usize) -> (Heap, KlassRegistry, Addr) {
        let mut b = GraphBuilder::new(1 << 22);
        let k = b.klass("L", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
        let mut head = b.object(k, &[Init::Val(0), Init::Null]).unwrap();
        for i in 1..n as u64 {
            head = b.object(k, &[Init::Val(i), Init::Ref(head)]).unwrap();
        }
        let (heap, reg) = b.finish();
        (heap, reg, head)
    }

    #[test]
    fn end_to_end_roundtrip_with_timing() {
        let (mut heap, reg, root) = list(500);
        let mut accel = Accelerator::paper();
        accel.register_all(&reg).unwrap();
        let ser = accel.serialize(&mut heap, &reg, root).unwrap();
        assert!(ser.run.busy_ns() > 0.0);
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 22);
        let de = accel.deserialize(&ser.bytes, &mut dst).unwrap();
        assert!(isomorphic(&heap, &reg, root, &dst, de.root));
        let r = accel.report();
        assert_eq!(r.ser_requests, 1);
        assert_eq!(r.de_requests, 1);
        assert!(r.energy_uj > 0.0);
        assert!(r.dram_bytes > 0);
    }

    #[test]
    fn requests_spread_across_units() {
        let (mut heap, reg, root) = list(100);
        let mut accel = Accelerator::paper();
        accel.register_all(&reg).unwrap();
        let mut units = std::collections::HashSet::new();
        for _ in 0..8 {
            let r = accel.serialize(&mut heap, &reg, root).unwrap();
            units.insert(r.unit);
        }
        assert_eq!(units.len(), 8, "8 requests occupy 8 distinct SUs");
    }

    #[test]
    fn eight_units_give_near_linear_throughput() {
        let (mut heap, reg, root) = list(2000);
        let mut accel = Accelerator::paper();
        accel.register_all(&reg).unwrap();
        // One request...
        accel.serialize(&mut heap, &reg, root).unwrap();
        let t1 = accel.report().ser_makespan_ns;
        accel.reset_meters();
        // ...vs eight concurrent ones.
        for _ in 0..8 {
            accel.serialize(&mut heap, &reg, root).unwrap();
        }
        let t8 = accel.report().ser_makespan_ns;
        let scaling = 8.0 * t1 / t8;
        assert!(
            scaling > 4.0,
            "8 units should give ≫1 throughput scaling, got {scaling}"
        );
    }

    #[test]
    fn unregistered_class_rejected() {
        let (mut heap, reg, root) = list(3);
        let mut accel = Accelerator::paper();
        // no register_all
        assert!(accel.serialize(&mut heap, &reg, root).is_err());
    }

    #[test]
    fn counter_wrap_forces_gc() {
        let (mut heap, reg, root) = list(2);
        let mut accel = Accelerator::paper();
        accel.register_all(&reg).unwrap();
        accel.serial_counter = u16::MAX;
        accel.serialize(&mut heap, &reg, root).unwrap();
        assert_eq!(accel.serial_counter, 1, "wrapped and restarted after GC");
    }

    #[test]
    fn reserved_header_is_rejected() {
        let (mut heap, reg, root) = list(50);
        let mut accel = Accelerator::paper();
        accel.register_all(&reg).unwrap();
        accel.serialize(&mut heap, &reg, root).unwrap();

        // Reserve a mid-list object for another unit at the *next*
        // counter value: the SU must refuse the request (§V-E).
        let victim = heap.ref_field(root, 1).unwrap();
        heap.set_ext_word(
            victim,
            sdheap::ExtWord::new()
                .with_counter(accel.serial_counter + 1)
                .with_reserving_unit(5),
        );
        let err = accel.serialize(&mut heap, &reg, root).unwrap_err();
        assert!(matches!(err, SerError::Unsupported(_)));
    }

    #[test]
    fn serialize_into_matches_serialize() {
        let (mut heap, reg, root) = list(100);
        let mut a = Accelerator::paper();
        let mut b = Accelerator::paper();
        a.register_all(&reg).unwrap();
        b.register_all(&reg).unwrap();
        // Two passes (not interleaved calls: both accelerators would use
        // the same counter values, and a's visit marks would read as b's
        // revisits). Counter mismatch across passes forces fresh visits.
        let owned: Vec<_> = (0..3)
            .map(|_| a.serialize(&mut heap, &reg, root).unwrap())
            .collect();
        // Stale contents in the arena must not leak into the stream.
        let mut arena = vec![0xAAu8; 64];
        for owned in &owned {
            let meta = b.serialize_into(&mut heap, &reg, root, &mut arena).unwrap();
            assert_eq!(arena, owned.bytes);
            assert_eq!(meta.len, owned.bytes.len());
            assert_eq!(meta.unit, owned.unit);
            assert_eq!(meta.run.start_ns.to_bits(), owned.run.start_ns.to_bits());
            assert_eq!(meta.run.end_ns.to_bits(), owned.run.end_ns.to_bits());
        }
        assert_eq!(a.report().ser_requests, b.report().ser_requests);
    }

    #[test]
    fn traced_paths_match_untraced_and_record_unit_spans() {
        use telemetry::{NoopSink, Recorder};
        // Two identical heaps: sharing one would make the first pass's
        // visit marks read as the second accelerator's revisits (the
        // counter-collision noted in serialize_into_matches_serialize).
        let (mut heap, reg, root) = list(100);
        let (mut heap_t, reg_t, root_t) = list(100);
        let mut plain = Accelerator::paper();
        let mut traced = Accelerator::paper();
        plain.register_all(&reg).unwrap();
        traced.register_all(&reg_t).unwrap();

        let mut rec = Recorder::new();
        let mut buf_a = Vec::new();
        let mut buf_b = Vec::new();
        let a = plain
            .serialize_into(&mut heap, &reg, root, &mut buf_a)
            .unwrap();
        let b = traced
            .serialize_into_traced(&mut heap_t, &reg_t, root_t, &mut buf_b, &mut rec, 900)
            .unwrap();
        // Identical bytes and bit-identical timing: tracing observes, it
        // never perturbs.
        assert_eq!(buf_a, buf_b);
        assert_eq!(a.run.end_ns.to_bits(), b.run.end_ns.to_bits());
        assert_eq!(rec.spans.len(), 1);
        assert_eq!(rec.spans[0].name, "su.serialize");
        assert_eq!(rec.spans[0].entity.pid, 900);
        assert_eq!(rec.metrics.counter("accel.ser_bytes"), buf_b.len() as u64);

        let mut dst_a = Heap::with_base(Addr(0x2_0000_0000), 1 << 22);
        let mut dst_b = Heap::with_base(Addr(0x2_0000_0000), 1 << 22);
        let da = plain.deserialize(&buf_a, &mut dst_a).unwrap();
        let db = traced
            .deserialize_traced(&buf_b, &mut dst_b, &mut rec, 900)
            .unwrap();
        assert_eq!(da.run.end_ns.to_bits(), db.run.end_ns.to_bits());
        assert_eq!(rec.spans[1].name, "du.deserialize");
        assert_eq!(rec.spans[1].entity.tid, telemetry::ids::DU_TID_BASE);
        assert_eq!(rec.metrics.counter("accel.de_requests"), 1);

        // The no-op sink compiles through the same call.
        let mut noop = NoopSink;
        let mut buf_c = Vec::new();
        traced
            .serialize_into_traced(&mut heap_t, &reg_t, root_t, &mut buf_c, &mut noop, 900)
            .unwrap();
        assert_eq!(buf_c, buf_a);
    }

    #[test]
    fn report_meters_reset() {
        let (mut heap, reg, root) = list(10);
        let mut accel = Accelerator::paper();
        accel.register_all(&reg).unwrap();
        accel.serialize(&mut heap, &reg, root).unwrap();
        accel.reset_meters();
        let r = accel.report();
        assert_eq!(r.ser_requests, 0);
        assert_eq!(r.dram_bytes, 0);
        assert_eq!(accel.registered_classes(), 1, "classes survive reset");
    }
}
