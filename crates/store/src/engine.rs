//! Per-executor serialization engines.
//!
//! Every executor owns one engine: a software [`Serializer`] timed on a
//! fresh [`sim::Cpu`] host-core model per request (the harness's
//! convention), or a private Cereal [`Accelerator`] whose unit models
//! time and schedule requests internally. The engine lives here (rather
//! than in `shuffle`) because both the shuffle service and the block
//! store serialize through it.
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

/// Histogram names for per-op-class host-CPU time, index-aligned with
/// [`sim::OP_CLASS_NAMES`].
const CPU_CLASS_HISTS: [&str; 10] = [
    "cpu.load.dep_ns",
    "cpu.load.indep_ns",
    "cpu.store_ns",
    "cpu.alu_ns",
    "cpu.branch_ns",
    "cpu.call_ns",
    "cpu.reflect_call_ns",
    "cpu.str_compare_ns",
    "cpu.hash_lookup_ns",
    "cpu.alloc_ns",
];

/// Books a traced request's per-op-class time and uop count.
fn emit_cpu_classes<S: Sink>(sink: &mut S, cpu: &Cpu) {
    for (name, ns, uops) in cpu.op_classes() {
        let i = sim::OP_CLASS_NAMES
            .iter()
            .position(|n| *n == name)
            .expect("class name comes from the same table");
        sink.observe(CPU_CLASS_HISTS[i], ns);
        sink.count("cpu.uops", uops);
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
    /// this slice (plus the `name`/`Engine::new` match arms the compiler
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

    /// All backends, software baselines first.
    pub fn all() -> &'static [Backend] {
        Backend::ALL
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
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Checksum(e) => write!(f, "checksum: {e}"),
            EngineError::Ser(e) => write!(f, "serializer: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Checksum(e) => Some(e),
            EngineError::Ser(e) => Some(e),
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
    /// A software serializer baseline.
    Software(Box<dyn Serializer>),
    /// A private Cereal accelerator.
    Cereal(Box<Accelerator>),
}

impl Engine {
    /// Builds the engine for `backend`, registering every class of `reg`
    /// with the accelerator's hardware table when applicable.
    pub fn new(backend: Backend, reg: &KlassRegistry) -> Engine {
        match backend {
            Backend::Java => Engine::Software(Box::new(JavaSd::new())),
            Backend::Kryo => Engine::Software(Box::new(Kryo::new())),
            Backend::Skyway => Engine::Software(Box::new(Skyway::new())),
            Backend::JsonLike => Engine::Software(Box::new(JsonLike::new())),
            Backend::ProtoLike => Engine::Software(Box::new(ProtoLike::new())),
            Backend::Archive => Engine::Software(Box::new(Archive::new())),
            Backend::Cereal => {
                let mut accel = Accelerator::paper();
                accel.register_all(reg).expect("class table sized for workload");
                Engine::Cereal(Box::new(accel))
            }
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
            Engine::Software(ser) => {
                let mut cpu = Cpu::host();
                let bytes = ser
                    .serialize(heap, reg, root, &mut cpu)
                    .expect("workload registers every class");
                if S::ENABLED {
                    emit_cpu_classes(sink, &cpu);
                }
                (bytes, SerTiming { busy_ns: cpu.report().ns, done_ns: None })
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
        let (payload, verify_ns) = if checksum {
            (frame::verify(bytes)?, frame::crc_ns(bytes.len() - frame::FOOTER_BYTES))
        } else {
            (bytes, 0.0)
        };
        let mut dst = Heap::with_base(Addr(DST_BASE), capacity);
        match self {
            Engine::Software(ser) => {
                let mut cpu = Cpu::host();
                let root = ser.deserialize(payload, reg, &mut dst, &mut cpu)?;
                if S::ENABLED {
                    emit_cpu_classes(sink, &cpu);
                }
                Ok((dst, root, cpu.report().ns + verify_ns))
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

    /// The simulated cost of verifying a framed stream of `framed_len`
    /// total bytes (what a receiver pays to *detect* a corrupt frame
    /// before requesting a retry).
    pub fn verify_ns(framed_len: usize) -> f64 {
        frame::crc_ns(framed_len.saturating_sub(frame::FOOTER_BYTES))
    }
}

/// The zero-copy deserialization path for [`Backend::Archive`] streams:
/// CRC-verify the frame (when `checksum`), validate the archive in
/// place, and hand back the [`ArchiveView`] — no destination heap, no
/// reconstruction. The returned time is the full receive-side decode
/// cost on the host-CPU model: CRC scan (when framed) plus validation,
/// which scales with records and references rather than payload bytes.
///
/// Consumers that fold straight off the view (shuffle reducers, the
/// cached-RDD job) pay this instead of
/// [`Engine::deserialize`]'s reconstruction.
///
/// # Errors
/// [`EngineError::Checksum`] on frame damage; [`EngineError::Ser`]
/// (carrying the typed [`serializers::ArchiveError`] rendering) when
/// validation rejects the image.
pub fn validate_archive_sunk<'a, S: Sink>(
    bytes: &'a [u8],
    reg: &KlassRegistry,
    checksum: bool,
    sink: &mut S,
) -> Result<(ArchiveView<'a>, f64), EngineError> {
    let (payload, verify_ns) = if checksum {
        (frame::verify(bytes)?, frame::crc_ns(bytes.len() - frame::FOOTER_BYTES))
    } else {
        (bytes, 0.0)
    };
    let mut cpu = Cpu::host();
    let view = ArchiveView::validate(payload, reg, &mut cpu).map_err(SerError::from)?;
    if S::ENABLED {
        emit_cpu_classes(sink, &cpu);
    }
    Ok((view, cpu.report().ns + verify_ns))
}
