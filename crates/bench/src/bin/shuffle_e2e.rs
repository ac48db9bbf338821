//! Extension experiment: end-to-end distributed shuffle.
//!
//! The paper motivates Cereal with inter-node data transfers: the sender
//! serializes, the wire carries bytes, the receiver deserializes, and the
//! three stages pipeline per partition. This experiment runs that whole
//! path for Java S/D, Kryo and Cereal over 10/40/100 GbE and reports
//! where the bottleneck sits — the punchline being that Cereal moves the
//! bottleneck from S/D to the network itself.

use cereal_bench::table::{ns, Table};
use cereal_bench::scale_arg;
use sdheap::Addr;
use sim::{Link, LinkConfig};
use store::{Backend, Engine};
use telemetry::NoopSink;
use workloads::{SparkApp, SparkDataset};

/// Per-batch stage timings for one serializer.
struct StageTimes {
    name: &'static str,
    /// Parallel servers per S/D stage: 1 host core for software, 8 units
    /// for the accelerator.
    ways: usize,
    ser: Vec<f64>,
    net_bytes: Vec<u64>,
    de: Vec<f64>,
}

/// Times every batch's serialize and deserialize on one `backend`
/// engine, without checksum frames.
fn stages(backend: Backend, ds: &mut SparkDataset, batches: &[Addr]) -> StageTimes {
    let mut out = StageTimes {
        name: backend.name(),
        ways: if backend == Backend::Cereal { 8 } else { 1 },
        ser: Vec::new(),
        net_bytes: Vec::new(),
        de: Vec::new(),
    };
    let mut engine = Engine::new(backend, &ds.reg);
    // Play the GC's role: clear serialization counters left in header
    // extensions by any earlier accelerator run over this heap.
    ds.heap.gc_clear_serialization_metadata(&ds.reg);
    let capacity = ds.heap.capacity_bytes();
    for &b in batches {
        let (bytes, t) = engine.serialize(&mut ds.heap, &ds.reg, b, false, &mut NoopSink);
        out.ser.push(t.busy_ns);
        out.net_bytes.push(bytes.len() as u64);
        let (_, _, de_ns) =
            engine.deserialize(&bytes, &ds.reg, capacity, false, &mut NoopSink).expect("ok");
        out.de.push(de_ns);
    }
    out
}

/// Pipelines the three stages per batch: batch i can be on the wire while
/// batch i+1 serializes and batch i−1 deserializes. Returns (makespan,
/// bottleneck label).
fn pipeline(stages: &StageTimes, link_cfg: LinkConfig) -> (f64, &'static str) {
    let mut link = Link::new(link_cfg);
    let mut ser_free = vec![0.0f64; stages.ways];
    let mut de_free = vec![0.0f64; stages.ways];
    let (mut ser_busy, mut net_busy, mut de_busy) = (0.0, 0.0, 0.0);
    let mut makespan = 0.0f64;
    for i in 0..stages.ser.len() {
        // Sender: earliest-free unit/core takes the partition.
        let s = i % stages.ways;
        let ser_done = ser_free[s] + stages.ser[i];
        ser_free[s] = ser_done;
        ser_busy += stages.ser[i];
        let arrived = link.send(stages.net_bytes[i].max(1), ser_done);
        net_busy += stages.net_bytes[i] as f64 / link_cfg.bytes_per_ns;
        // Receiver: likewise.
        let d = i % stages.ways;
        let start = arrived.max(de_free[d]);
        de_free[d] = start + stages.de[i];
        de_busy += stages.de[i];
        makespan = makespan.max(de_free[d]);
    }
    // Busy time is divided across the stage's servers for the bottleneck
    // comparison.
    let ser_eff = ser_busy / stages.ways as f64;
    let de_eff = de_busy / stages.ways as f64;
    let label = if ser_eff >= net_busy && ser_eff >= de_eff {
        "serialization"
    } else if net_busy >= de_eff {
        "network"
    } else {
        "deserialization"
    };
    (makespan, label)
}

fn main() {
    let app = SparkApp::Terasort;
    let mut ds = app.build(scale_arg());
    let batches = ds.batches.clone();
    println!(
        "End-to-end shuffle — {} ({} partitions), sender S/D → link → receiver S/D\n",
        app.name(),
        batches.len()
    );

    let stage_sets: Vec<StageTimes> = [Backend::Java, Backend::Kryo, Backend::Cereal]
        .into_iter()
        .map(|backend| stages(backend, &mut ds, &batches))
        .collect();

    let mut t = Table::new(&["serializer", "10GbE", "bottleneck", "40GbE", "bottleneck", "100GbE", "bottleneck"]);
    for s in &stage_sets {
        let (t10, b10) = pipeline(s, LinkConfig::ten_gbe());
        let (t40, b40) = pipeline(s, LinkConfig::forty_gbe());
        let (t100, b100) = pipeline(s, LinkConfig::hundred_gbe());
        t.row(vec![
            s.name.into(),
            ns(t10),
            b10.into(),
            ns(t40),
            b40.into(),
            ns(t100),
            b100.into(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "the paper's motivation, end to end: with software serializers the shuffle is\n\
         S/D-bound even on 10 GbE; with Cereal the wire itself becomes the bottleneck,\n\
         so faster links keep paying off."
    );
}
