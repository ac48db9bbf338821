//! Shared measurement machinery for the experiment harness.
//!
//! Two paths, mirroring the paper's methodology:
//!
//! * [`run_software`] — a software serializer processes every request
//!   sequentially on one modeled host core ([`sim::Cpu`]);
//! * [`run_cereal`] — the accelerator executes the same requests with
//!   operation-level parallelism across its units; makespan, bandwidth
//!   and energy come from the shared accelerator meters.
//!
//! Both return the common [`SdMeasure`] consumed by the figure renderers.

use cereal::{Accelerator, CerealConfig};
use sdheap::{Addr, Heap, KlassRegistry};
use serializers::Serializer;
use sim::Cpu;
use store::DST_BASE;

/// One serializer's measured behaviour on one workload.
#[derive(Clone, Debug)]
pub struct SdMeasure {
    /// Serializer display name.
    pub name: String,
    /// Total serialization time (ns) over all requests.
    pub ser_ns: f64,
    /// Total deserialization time (ns) over all requests.
    pub de_ns: f64,
    /// Total serialized bytes over all requests.
    pub bytes: u64,
    /// Serialization-phase IPC (CPU paths only; 0 for hardware).
    pub ser_ipc: f64,
    /// Deserialization-phase IPC.
    pub de_ipc: f64,
    /// Serialization-phase LLC miss rate (CPU paths only).
    pub ser_llc_miss_rate: f64,
    /// Serialization-phase DRAM bandwidth utilization.
    pub ser_bw_util: f64,
    /// Deserialization-phase DRAM bandwidth utilization.
    pub de_bw_util: f64,
    /// Serialization energy (µJ).
    pub ser_energy_uj: f64,
    /// Deserialization energy (µJ).
    pub de_energy_uj: f64,
}

impl SdMeasure {
    /// Combined S/D time.
    pub fn sd_ns(&self) -> f64 {
        self.ser_ns + self.de_ns
    }

    /// Combined S/D energy.
    pub fn sd_energy_uj(&self) -> f64 {
        self.ser_energy_uj + self.de_energy_uj
    }
}

/// Runs a software serializer over all `roots` sequentially on the
/// modeled host core: serialization on one core, deserialization on a
/// second. Each stream is deserialized as soon as it is written and then
/// dropped, so only one is held at a time.
///
/// # Panics
/// Panics if any request fails (workloads register everything needed).
pub fn run_software(
    ser: &dyn Serializer,
    heap: &mut Heap,
    reg: &KlassRegistry,
    roots: &[Addr],
) -> SdMeasure {
    let (mut ser_cpu, mut de_cpu) = (Cpu::host(), Cpu::host());
    let cap = heap.capacity_bytes();
    let mut bytes = 0;
    for &root in roots {
        let stream = ser.serialize(heap, reg, root, &mut ser_cpu).expect("serialize");
        let mut dst = Heap::with_base(Addr(DST_BASE), cap);
        ser.deserialize(&stream, reg, &mut dst, &mut de_cpu).expect("deserialize");
        bytes += stream.len() as u64;
    }
    let (ser_report, de_report) = (ser_cpu.report(), de_cpu.report());

    SdMeasure {
        name: ser.name().to_string(),
        ser_ns: ser_report.ns,
        de_ns: de_report.ns,
        bytes,
        ser_ipc: ser_report.ipc,
        de_ipc: de_report.ipc,
        ser_llc_miss_rate: ser_report.llc_miss_rate,
        ser_bw_util: ser_report.bandwidth_util,
        de_bw_util: de_report.bandwidth_util,
        ser_energy_uj: cereal::energy::cpu_energy_uj(ser_report.ns),
        de_energy_uj: cereal::energy::cpu_energy_uj(de_report.ns),
    }
}

/// Runs the accelerator over all `roots` as concurrent requests.
///
/// # Panics
/// Panics if any request fails.
pub fn run_cereal(
    cfg: CerealConfig,
    heap: &mut Heap,
    reg: &KlassRegistry,
    roots: &[Addr],
) -> SdMeasure {
    let mut accel = Accelerator::new(cfg);
    accel.register_all(reg).expect("register classes");
    // Play the GC's role: clear serialization counters left in header
    // extensions by any previous accelerator run over this heap, so this
    // accelerator's fresh counters cannot collide with stale marks.
    heap.gc_clear_serialization_metadata(reg);

    let mut streams = Vec::with_capacity(roots.len());
    for &root in roots {
        streams.push(accel.serialize(heap, reg, root).expect("serialize").bytes);
    }
    let ser_rep = accel.report();
    accel.reset_meters();

    let cap = heap.capacity_bytes();
    for bytes in &streams {
        let mut dst = Heap::with_base(Addr(DST_BASE), cap);
        accel.deserialize(bytes, &mut dst).expect("deserialize");
    }
    let de_rep = accel.report();

    let name = if cfg.vanilla { "Cereal Vanilla" } else { "Cereal" };
    SdMeasure {
        name: name.to_string(),
        ser_ns: ser_rep.ser_makespan_ns,
        de_ns: de_rep.de_makespan_ns,
        bytes: streams.iter().map(|s| s.len() as u64).sum(),
        ser_ipc: 0.0,
        de_ipc: 0.0,
        ser_llc_miss_rate: 0.0,
        ser_bw_util: ser_rep.bandwidth_util,
        de_bw_util: de_rep.bandwidth_util,
        ser_energy_uj: ser_rep.energy_uj,
        de_energy_uj: de_rep.energy_uj,
    }
}

/// Runs a software serializer across `cores` host cores (the paper's
/// §V-D observation that software exploits operation-level parallelism
/// through multithreading). Requests are distributed round-robin; each
/// core has private caches, and all cores contend for the shared DDR4
/// channels. Reported times are the slowest core (the makespan).
///
/// # Panics
/// Panics if any request fails or `cores == 0`.
pub fn run_software_parallel(
    ser: &dyn Serializer,
    heap: &mut Heap,
    reg: &KlassRegistry,
    roots: &[Addr],
    cores: usize,
) -> SdMeasure {
    assert!(cores > 0, "need at least one core");
    let chunks: Vec<Vec<Addr>> = (0..cores)
        .map(|c| roots.iter().copied().skip(c).step_by(cores).collect())
        .collect();

    // Serialization phase: all cores share one DRAM.
    let mut dram = sim::Dram::default();
    let mut ser_ns = 0.0f64;
    let mut streams_per_core: Vec<Vec<Vec<u8>>> = Vec::with_capacity(cores);
    let mut ser_energy_core_ns = 0.0;
    for chunk in &chunks {
        let mut cpu = Cpu::with_dram(sim::CpuConfig::default(), dram);
        let mut streams = Vec::with_capacity(chunk.len());
        for &root in chunk {
            streams.push(ser.serialize(heap, reg, root, &mut cpu).expect("serialize"));
        }
        let r = cpu.report();
        ser_ns = ser_ns.max(r.ns);
        ser_energy_core_ns += r.ns;
        dram = cpu.into_dram();
        streams_per_core.push(streams);
    }
    let ser_bw_util = dram.utilization(ser_ns);
    let bytes: u64 = streams_per_core
        .iter()
        .flatten()
        .map(|s| s.len() as u64)
        .sum();

    // Deserialization phase.
    let mut dram = sim::Dram::default();
    let mut de_ns = 0.0f64;
    let mut de_energy_core_ns = 0.0;
    let cap = heap.capacity_bytes();
    for streams in &streams_per_core {
        let mut cpu = Cpu::with_dram(sim::CpuConfig::default(), dram);
        for bytes in streams {
            let mut dst = Heap::with_base(Addr(DST_BASE), cap);
            ser.deserialize(bytes, reg, &mut dst, &mut cpu).expect("deserialize");
        }
        let r = cpu.report();
        de_ns = de_ns.max(r.ns);
        de_energy_core_ns += r.ns;
        dram = cpu.into_dram();
    }
    let de_bw_util = dram.utilization(de_ns);

    SdMeasure {
        name: format!("{} x{}", ser.name(), cores),
        ser_ns,
        de_ns,
        bytes,
        ser_ipc: 0.0,
        de_ipc: 0.0,
        ser_llc_miss_rate: 0.0,
        ser_bw_util,
        de_bw_util,
        // Energy: each busy core burns its per-core share of the TDP.
        ser_energy_uj: cereal::energy::cpu_energy_uj(ser_energy_core_ns) / 8.0,
        de_energy_uj: cereal::energy::cpu_energy_uj(de_energy_core_ns) / 8.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdheap::builder::Init;
    use sdheap::{FieldKind, GraphBuilder, ValueType};
    use serializers::{JavaSd, Kryo};

    fn small_list() -> (Heap, KlassRegistry, Addr) {
        let mut b = GraphBuilder::new(1 << 20);
        let k = b.klass("L", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
        let mut head = b.object(k, &[Init::Val(0), Init::Null]).unwrap();
        for i in 1..200u64 {
            head = b.object(k, &[Init::Val(i), Init::Ref(head)]).unwrap();
        }
        let (heap, reg) = b.finish();
        (heap, reg, head)
    }

    #[test]
    fn software_and_cereal_agree_on_shape() {
        let (mut heap, reg, root) = small_list();
        let roots = vec![root; 4];
        let java = run_software(&JavaSd::new(), &mut heap, &reg, &roots);
        let kryo = run_software(&Kryo::new(), &mut heap, &reg, &roots);
        let cer = run_cereal(CerealConfig::paper(), &mut heap, &reg, &roots);
        assert!(java.ser_ns > kryo.ser_ns);
        assert!(kryo.ser_ns > cer.ser_ns);
        assert!(cer.sd_energy_uj() < java.sd_energy_uj() / 10.0);
        assert!(java.bytes > kryo.bytes);
        assert!(cer.bytes > 0);
    }

    #[test]
    fn vanilla_reports_its_name() {
        let (mut heap, reg, root) = small_list();
        let m = run_cereal(CerealConfig::vanilla(), &mut heap, &reg, &[root]);
        assert_eq!(m.name, "Cereal Vanilla");
    }
}
