//! Simulated-clock round trips: the paper's Fig. 3/Fig. 10 method.
//!
//! A software serializer narrates its work op by op into a modelled host
//! core ([`sim::Cpu`]); the Cereal accelerator times itself with its SU/DU
//! and memory-interface models. Each call here is one request on a fresh
//! model, so every request yields its own simulated time.

use cereal::{Accelerator, CerealConfig};
use sdheap::{Addr, Heap};
use serializers::{fold_words_heap, Serializer};
use sim::{Cpu, CpuReport};

use crate::clock::Clock;
use crate::graphs::Graph;

/// Destination-heap base for reconstruction (clear of every source).
const DST_BASE: u64 = 0x40_0000_0000;

/// A fresh destination heap with `src`'s capacity.
pub fn dst_heap(src: &Heap) -> Heap {
    Heap::with_base(Addr(DST_BASE), src.capacity_bytes())
}

/// One narrated software round trip.
pub struct SwTrip {
    pub ser: CpuReport,
    pub de: CpuReport,
    pub bytes: u64,
    pub ser_s: f64,
    pub de_s: f64,
}

/// Serializes `g` narrated into one modelled core and deserializes the
/// stream into another, checking the reconstruction's fold. Spans are
/// named `ser_span`/`de_span`.
///
/// # Errors
/// A serializer error or a round-trip fold mismatch, as text.
pub fn software(
    clock: &Clock,
    ser: &dyn Serializer,
    g: &mut Graph,
    (ser_span, de_span): (&'static str, &'static str),
) -> Result<SwTrip, String> {
    let mut cpu = Cpu::host();
    let (bytes, ser_s) = clock.timed(ser_span, || {
        ser.serialize(&mut g.heap, &g.reg, g.root, &mut cpu)
    });
    let bytes = bytes.map_err(|e| format!("{} ser {}: {e}", ser.name(), g.name))?;
    let ser_rep = cpu.report();
    let mut cpu = Cpu::host();
    let (dst, de_s) = clock.timed(de_span, || {
        let mut dst = dst_heap(&g.heap);
        ser.deserialize(&bytes, &g.reg, &mut dst, &mut cpu)
            .map(|root| (dst, root))
    });
    let (dst, root) = dst.map_err(|e| format!("{} de {}: {e}", ser.name(), g.name))?;
    let fold = clock.span("heap.fold_s", || fold_words_heap(&dst, &g.reg, root));
    if fold != g.fold {
        return Err(format!(
            "{} {}: round trip changed the fold",
            ser.name(),
            g.name
        ));
    }
    Ok(SwTrip {
        ser: ser_rep,
        de: cpu.report(),
        bytes: bytes.len() as u64,
        ser_s,
        de_s,
    })
}

/// One accelerator round trip.
pub struct AccelTrip {
    pub ser_ns: f64,
    pub de_ns: f64,
    pub bw_util: f64,
    pub bytes: u64,
    pub ser_s: f64,
    pub de_s: f64,
}

/// Runs `g` through a fresh accelerator of configuration `cfg`:
/// serialize, then deserialize, checking the reconstruction's fold.
///
/// # Errors
/// An accelerator error or a round-trip fold mismatch, as text.
pub fn accel(
    clock: &Clock,
    cfg: CerealConfig,
    g: &mut Graph,
    (ser_span, de_span): (&'static str, &'static str),
) -> Result<AccelTrip, String> {
    let mut acc = Accelerator::new(cfg);
    acc.register_all(&g.reg)
        .map_err(|e| format!("register {}: {e}", g.name))?;
    // Play the GC's role: clear counters a previous run left in headers.
    g.heap.gc_clear_serialization_metadata(&g.reg);
    let (out, ser_s) = clock.timed(ser_span, || acc.serialize(&mut g.heap, &g.reg, g.root));
    let bytes = out.map_err(|e| format!("accel ser {}: {e}", g.name))?.bytes;
    let ser_rep = acc.report();
    acc.reset_meters();
    let (dst, de_s) = clock.timed(de_span, || {
        let mut dst = dst_heap(&g.heap);
        acc.deserialize(&bytes, &mut dst).map(|r| (dst, r.root))
    });
    let (dst, root) = dst.map_err(|e| format!("accel de {}: {e}", g.name))?;
    let de_rep = acc.report();
    let fold = clock.span("heap.fold_s", || fold_words_heap(&dst, &g.reg, root));
    if fold != g.fold {
        return Err(format!("accel {}: round trip changed the fold", g.name));
    }
    Ok(AccelTrip {
        ser_ns: ser_rep.ser_makespan_ns,
        de_ns: de_rep.de_makespan_ns,
        bw_util: (ser_rep.bandwidth_util + de_rep.bandwidth_util) / 2.0,
        bytes: bytes.len() as u64,
        ser_s,
        de_s,
    })
}
