//! Per-executor serialization engines.
//!
//! Every executor owns one engine: a software [`Serializer`] timed on
//! the engine's own [`sim::Cpu`] host core, reset to cold before each
//! request (the harness's convention: every request starts with cold
//! caches), or a private Cereal [`Accelerator`] whose unit models time
//! and schedule requests internally. The engine lives here (rather
//! than in `shuffle`) because both the shuffle service and the block
//! store serialize through it.
//!
//! The engine also owns the *read* of an aggregation batch
//! ([`Engine::fold_batch`]): an [`Backend::Archive`] engine validates the
//! image and folds it in place, every other engine reconstructs a heap
//! and folds that. Shuffle reducers and the cached-RDD job both read
//! through it.
//!
//! Checksummed frames: with the `checksum` flag, streams leave the
//! engine sealed with the [`sdformat::frame`] CRC-32 footer and every
//! deserialization verifies integrity *before* decoding — so a
//! corrupted stream surfaces as [`EngineError::Checksum`] for every
//! backend, software and accelerator alike, instead of decoding
//! garbage. Sealing and verification charge [`sdformat::crc_ns`] to the
//! request's busy time.

use cereal::Accelerator;
use sdformat::frame;
use sdheap::{Addr, Heap, KlassRegistry};
use serializers::{
    Archive, ArchiveView, JavaSd, JsonLike, Kryo, ProtoLike, SerError, Serializer, Skyway,
};
use sim::Cpu;
use std::fmt;
use telemetry::Sink;
use workloads::spark::agg::{self, Fold};

/// Runs one software request on the engine's own host core, reset to
/// cold before each request (the harness's convention: every request
/// starts with cold caches; [`Cpu::reset`] makes that O(1) and
/// bit-identical to a new core), and returns its result with the core's
/// busy time. A traced request that succeeds books its per-op-class
/// time and uop count.
fn on_host_core<S: Sink, T, E>(
    cpu: &mut Cpu,
    sink: &mut S,
    request: impl FnOnce(&mut Cpu) -> Result<T, E>,
) -> Result<(T, f64), E> {
    cpu.reset();
    let out = request(cpu)?;
    if S::ENABLED {
        for (hist, ns, uops) in cpu.op_classes() {
            sink.observe(hist, ns);
            sink.count("cpu.uops", uops);
        }
    }
    Ok((out, cpu.report().ns))
}

/// The payload of `bytes` and the cost of checking it: with `checksum`,
/// the CRC frame is verified (and its scan charged); without, the bytes
/// pass through for free.
fn unframe(bytes: &[u8], checksum: bool) -> Result<(&[u8], f64), EngineError> {
    if checksum {
        Ok((frame::verify(bytes)?, Engine::verify_ns(bytes.len())))
    } else {
        Ok((bytes, 0.0))
    }
}

/// Destination-heap base for reconstruction (clear of every source).
pub const DST_BASE: u64 = 0x40_0000_0000;

/// A serialization backend an executor can run on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Java built-in serialization model.
    Java,
    /// Kryo model.
    Kryo,
    /// Skyway model.
    Skyway,
    /// JSON-text model.
    JsonLike,
    /// Protobuf-like model.
    ProtoLike,
    /// Zero-copy archive: deserialize = validate in place, fold off the
    /// wire bytes (the software rival to the Cereal DU).
    Archive,
    /// The Cereal accelerator (Table I configuration).
    Cereal,
}

impl Backend {
    /// Every backend, software baselines first, the accelerator last.
    /// This is the single roster site: adding a variant means extending
    /// this slice (plus the `software`/`name` match arms the compiler
    /// then points at).
    pub const ALL: &'static [Backend] = &[
        Backend::Java,
        Backend::Kryo,
        Backend::Skyway,
        Backend::JsonLike,
        Backend::ProtoLike,
        Backend::Archive,
        Backend::Cereal,
    ];

    /// The software serializer an accelerator-faulted shuffle partition
    /// (and a DU-failed cluster node) degrades to.
    pub const FALLBACK: Backend = Backend::Kryo;

    /// The software serializer this backend models; `None` for the
    /// accelerator.
    pub fn software(&self) -> Option<Box<dyn Serializer>> {
        let ser: Box<dyn Serializer> = match self {
            Backend::Java => Box::new(JavaSd::new()),
            Backend::Kryo => Box::new(Kryo::new()),
            Backend::Skyway => Box::new(Skyway::new()),
            Backend::JsonLike => Box::new(JsonLike::new()),
            Backend::ProtoLike => Box::new(ProtoLike::new()),
            Backend::Archive => Box::new(Archive::new()),
            Backend::Cereal => return None,
        };
        Some(ser)
    }

    /// Display name (matching the figure harness).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Java => "Java",
            Backend::Kryo => "Kryo",
            Backend::Skyway => "Skyway",
            Backend::JsonLike => "JsonLike",
            Backend::ProtoLike => "ProtoLike",
            Backend::Archive => "Archive",
            Backend::Cereal => "Cereal",
        }
    }
}

/// Errors from a fallible engine operation.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The stream failed its CRC frame check — corruption detected
    /// before any backend decoded a byte.
    Checksum(sdformat::FrameError),
    /// The backend rejected the (intact) stream.
    Ser(SerError),
    /// The stream decoded, but not to a batch of records: a null root
    /// or a null element.
    NotABatch,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Checksum(e) => write!(f, "checksum: {e}"),
            EngineError::Ser(e) => write!(f, "serializer: {e}"),
            EngineError::NotABatch => write!(f, "the stream is not a batch of records"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Checksum(e) => Some(e),
            EngineError::Ser(e) => Some(e),
            EngineError::NotABatch => None,
        }
    }
}

impl From<sdformat::FrameError> for EngineError {
    fn from(e: sdformat::FrameError) -> Self {
        EngineError::Checksum(e)
    }
}

impl From<SerError> for EngineError {
    fn from(e: SerError) -> Self {
        EngineError::Ser(e)
    }
}

/// Timing of one engine-serialized batch.
pub struct SerTiming {
    /// Time the engine was busy with this request.
    pub busy_ns: f64,
    /// Completion time on the engine's own timeline (accelerators
    /// schedule internally across units); `None` for the serial
    /// one-core software path.
    pub done_ns: Option<f64>,
}

/// One executor's engine.
pub enum Engine {
    /// A software serializer baseline (and the backend it models) with
    /// the host core it runs on.
    Software(Backend, Box<dyn Serializer>, Box<Cpu>),
    /// A private Cereal accelerator.
    Cereal(Box<Accelerator>),
}

impl Engine {
    /// Builds the engine for `backend`, registering every class of `reg`
    /// with the accelerator's hardware table when applicable.
    pub fn new(backend: Backend, reg: &KlassRegistry) -> Engine {
        match backend.software() {
            Some(ser) => Engine::Software(backend, ser, Box::new(Cpu::host())),
            None => {
                let mut accel = Accelerator::paper();
                accel.register_all(reg).expect("class table sized for workload");
                Engine::Cereal(Box::new(accel))
            }
        }
    }

    /// The backend this engine was built for.
    pub fn backend(&self) -> Backend {
        match self {
            Engine::Software(backend, ..) => *backend,
            Engine::Cereal(_) => Backend::Cereal,
        }
    }

    /// Serializes the graph at `root`, returning the stream and timing.
    /// With `checksum`, the stream is sealed with the CRC frame footer;
    /// the sealing cost ([`sdformat::crc_ns`] over the payload) is
    /// charged to the request's busy time (and to its completion time on
    /// the accelerator's timeline).
    ///
    /// Traced software requests book per-op-class host-CPU time (the
    /// §III bottleneck breakdown), traced accelerator requests book SU
    /// busy time and request/byte counters. The returned bytes and
    /// timing are identical for any sink; callers that do not trace pass
    /// [`telemetry::NoopSink`].
    pub fn serialize<S: Sink>(
        &mut self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
        checksum: bool,
        sink: &mut S,
    ) -> (Vec<u8>, SerTiming) {
        let (mut bytes, mut t) = match self {
            Engine::Software(_, ser, cpu) => {
                let (bytes, busy_ns) =
                    on_host_core(cpu, sink, |cpu| ser.serialize(heap, reg, root, cpu))
                        .expect("workload registers every class");
                (bytes, SerTiming { busy_ns, done_ns: None })
            }
            Engine::Cereal(accel) => {
                let r = accel.serialize(heap, reg, root).expect("workload registers every class");
                let t = SerTiming { busy_ns: r.run.busy_ns(), done_ns: Some(r.run.end_ns) };
                if S::ENABLED {
                    sink.count("accel.ser_requests", 1);
                    sink.count("accel.ser_bytes", r.bytes.len() as u64);
                    sink.observe("accel.su_busy_ns", t.busy_ns);
                }
                (r.bytes, t)
            }
        };
        if checksum {
            let seal_ns = frame::crc_ns(bytes.len());
            frame::seal_into(&mut bytes);
            t.busy_ns += seal_ns;
            t.done_ns = t.done_ns.map(|d| d + seal_ns);
        }
        (bytes, t)
    }

    /// Reconstructs a stream into a fresh destination heap; returns the
    /// heap, the root, and the request's busy time. With `checksum`, the
    /// stream's CRC frame is verified *before* any decoding — corruption
    /// surfaces as [`EngineError::Checksum`] for every backend — and the
    /// verification cost is charged to the returned busy time.
    ///
    /// Traced software requests book per-op-class host-CPU time, traced
    /// accelerator requests book DU busy time and request/byte counters.
    ///
    /// # Errors
    /// [`EngineError::Checksum`] on frame damage;
    /// [`EngineError::Ser`] when the backend rejects the stream.
    pub fn deserialize<S: Sink>(
        &mut self,
        bytes: &[u8],
        reg: &KlassRegistry,
        capacity: u64,
        checksum: bool,
        sink: &mut S,
    ) -> Result<(Heap, Addr, f64), EngineError> {
        let (payload, verify_ns) = unframe(bytes, checksum)?;
        let mut dst = Heap::with_base(Addr(DST_BASE), capacity);
        match self {
            Engine::Software(_, ser, cpu) => {
                let (root, ns) =
                    on_host_core(cpu, sink, |cpu| ser.deserialize(payload, reg, &mut dst, cpu))?;
                Ok((dst, root, ns + verify_ns))
            }
            Engine::Cereal(accel) => {
                let r = accel.deserialize(payload, &mut dst)?;
                if S::ENABLED {
                    sink.count("accel.de_requests", 1);
                    sink.count("accel.de_bytes", payload.len() as u64);
                    sink.observe("accel.du_busy_ns", r.run.busy_ns());
                }
                Ok((dst, r.root, r.run.busy_ns() + verify_ns))
            }
        }
    }

    /// Reads one aggregation batch (see [`workloads::spark::agg`]) and
    /// folds its records into `fold` in array order; returns the record
    /// count and the request's busy time. With `checksum`, the CRC frame
    /// is verified first and its scan charged, as in
    /// [`Engine::deserialize`].
    ///
    /// An [`Backend::Archive`] engine validates the image in place on its
    /// host core and folds straight off the wire bytes: no destination
    /// heap, so its cost is the validation, which scales with records and
    /// references rather than payload bytes. Every other engine
    /// reconstructs the batch with [`Engine::deserialize`] and folds the
    /// heap. Both visit the same records in the same order, so the sums
    /// are bit-identical.
    ///
    /// # Errors
    /// [`EngineError::Checksum`] on frame damage; [`EngineError::Ser`]
    /// when the backend rejects the stream (for Archive, the typed
    /// [`serializers::ArchiveError`] rendering);
    /// [`EngineError::NotABatch`] for a null root or element.
    pub fn fold_batch<S: Sink>(
        &mut self,
        bytes: &[u8],
        reg: &KlassRegistry,
        capacity: u64,
        checksum: bool,
        fold: &mut Fold,
        sink: &mut S,
    ) -> Result<(usize, f64), EngineError> {
        if let Engine::Software(Backend::Archive, _, cpu) = self {
            let (payload, verify_ns) = unframe(bytes, checksum)?;
            let (view, ns) = on_host_core(cpu, sink, |cpu| ArchiveView::validate(payload, reg, cpu))
                .map_err(SerError::from)?;
            let n = agg::fold_archive_batch(&view, fold).ok_or(EngineError::NotABatch)?;
            return Ok((n, ns + verify_ns));
        }
        let (heap, root, ns) = self.deserialize(bytes, reg, capacity, checksum, sink)?;
        let n = agg::fold_heap_batch(&heap, root, fold).ok_or(EngineError::NotABatch)?;
        Ok((n, ns))
    }

    /// The simulated cost of verifying a framed stream of `framed_len`
    /// total bytes (what a receiver pays to *detect* a corrupt frame
    /// before requesting a retry).
    pub fn verify_ns(framed_len: usize) -> f64 {
        frame::crc_ns(framed_len.saturating_sub(frame::FOOTER_BYTES))
    }
}
