//! Frozen host-CPU timings of every software request over the serializer
//! fixture corpus.
//!
//! Each of the six software backends serializes each corpus graph on a
//! fresh `Cpu::host()` and deserializes the stream on another. A row in
//! [`ROWS`] pins both requests' timing as an FNV-1a-64 over every
//! `CpuReport` field and every `op_classes()` entry, each f64 as its
//! bits ([`fingerprint`]). Every simulated number a software engine
//! reports is one of these measurements, so a change to how a request's
//! host core is built must leave this table exactly as it is.
//!
//! The table was recorded with a fresh core per request. A single core
//! `Cpu::reset` before each request must reproduce it bit for bit,
//! including after a 12 MB write sweep has left every LLC line valid and
//! dirty: a stale line that still hit, or that wrote back when evicted,
//! would change the next request's time and DRAM bytes.
//!
//! On a mismatch the test prints the actual rows.

use cereal_repro::arch::Cpu;
use cereal_repro::baselines::{Op, TraceSink};
use cereal_repro::heap::{Addr, Heap};
use common::corpus::{backends, corpus, DST_BASE};
use common::Fnv;
use std::fmt;

mod common;

/// FNV-1a-64 over the core's report (every field; f64s as bits) and its
/// per-op-class `(name, ns, uops)` attribution.
fn fingerprint(cpu: &Cpu) -> u64 {
    let r = cpu.report();
    let mut h = Fnv::new();
    for x in [
        r.cycles,
        r.ns,
        r.ipc,
        r.llc_miss_rate,
        r.bandwidth_gbps,
        r.bandwidth_util,
    ] {
        h.eat(&x.to_bits().to_le_bytes());
    }
    h.eat(&r.uops.to_le_bytes());
    h.eat(&r.dram_bytes.to_le_bytes());
    for (name, ns, uops) in cpu.op_classes() {
        h.eat(name.as_bytes());
        h.eat(&ns.to_bits().to_le_bytes());
        h.eat(&uops.to_le_bytes());
    }
    h.0
}

/// One backend × graph fixture: the fingerprints of its serialize and
/// deserialize requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row {
    backend: &'static str,
    graph: &'static str,
    ser: u64,
    de: u64,
}

/// Prints a row as the Rust literal the table holds.
impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "    Row {{ backend: {:?}, graph: {:?}, ser: {:#018x}, de: {:#018x} }},",
            self.backend, self.graph, self.ser, self.de
        )
    }
}

/// Runs every corpus request, in corpus then backend order, through
/// `on_core` — which runs the request it is handed on some host core
/// and returns that core's [`fingerprint`] — and prints every row that
/// is not in [`ROWS`].
fn diffs(mut on_core: impl FnMut(&mut dyn FnMut(&mut Cpu)) -> u64) -> String {
    let mut diffs = String::new();
    for (graph, (mut heap, reg, root)) in corpus() {
        let capacity = heap.capacity_bytes();
        for (backend, ser) in backends() {
            let mut bytes = Vec::new();
            let ser_fp = on_core(&mut |cpu| {
                bytes = ser
                    .serialize(&mut heap, &reg, root, cpu)
                    .unwrap_or_else(|e| panic!("{backend}/{graph}: serialize failed: {e}"));
            });
            // A decode the backend rejects (JsonLike's nesting cap on
            // List-large) is pinned too: its ops up to the error ran.
            let de_fp = on_core(&mut |cpu| {
                let mut dst = Heap::with_base(Addr(DST_BASE), capacity);
                let _ = ser.deserialize(&bytes, &reg, &mut dst, cpu);
            });
            let actual = Row {
                backend,
                graph,
                ser: ser_fp,
                de: de_fp,
            };
            if !ROWS.contains(&actual) {
                diffs.push_str(&actual.to_string());
            }
        }
    }
    diffs
}

#[test]
fn fresh_host_cores_match_the_frozen_table() {
    let diffs = diffs(|request| {
        let mut cpu = Cpu::host();
        request(&mut cpu);
        fingerprint(&cpu)
    });
    assert!(
        diffs.is_empty(),
        "rows differ from the fixtures; actual:\n{diffs}"
    );
    assert_eq!(ROWS.len(), 18 * 6, "one row per graph and backend");
}

#[test]
fn one_host_core_reset_before_each_request_matches_the_frozen_table() {
    let mut cpu = Cpu::host();
    // The sweep covers the destination heap every decode writes to.
    for line in 0..(12u64 << 20) / 64 {
        cpu.op(Op::Store {
            addr: DST_BASE + line * 64,
            bytes: 8,
        });
    }
    assert!(cpu.cache().writebacks > 0, "the sweep overflows the LLC");
    let diffs = diffs(|request| {
        cpu.reset();
        request(&mut cpu);
        fingerprint(&cpu)
    });
    assert!(
        diffs.is_empty(),
        "rows differ from the fixtures; actual:\n{diffs}"
    );
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

#[rustfmt::skip]
static ROWS: [Row; 108] = [
    Row { backend: "JavaSd", graph: "diamond", ser: 0x86f135e174246767, de: 0x19487505ee5253f6 },
    Row { backend: "Kryo", graph: "diamond", ser: 0xcb80c200c342ffcc, de: 0x7372a7377bb923b9 },
    Row { backend: "ProtoLike", graph: "diamond", ser: 0xd9102c46844fe9d3, de: 0x7c9639a97b9ed113 },
    Row { backend: "Skyway", graph: "diamond", ser: 0xcff437d640a5ded2, de: 0x10ae075f1ee42483 },
    Row { backend: "Archive", graph: "diamond", ser: 0xea6924025780d056, de: 0x1d82df044e2c8a3d },
    Row { backend: "JsonLike", graph: "diamond", ser: 0xa5a717d328614bf5, de: 0x6238fd66c1097de9 },
    Row { backend: "JavaSd", graph: "cycle", ser: 0x96321eeac026fb34, de: 0x4c10b7a71a5bb8a5 },
    Row { backend: "Kryo", graph: "cycle", ser: 0xe1e90ba088aa3b4a, de: 0x030a7890a8f73c36 },
    Row { backend: "ProtoLike", graph: "cycle", ser: 0x4f9d23cf4ceceb30, de: 0x9ec2fc5a1fec8f9e },
    Row { backend: "Skyway", graph: "cycle", ser: 0x4afbb60f36d90aaf, de: 0x5ffce76d95602407 },
    Row { backend: "Archive", graph: "cycle", ser: 0xfb202a5fe9cfc36e, de: 0x787b50a906dfefff },
    Row { backend: "JsonLike", graph: "cycle", ser: 0x298db70ddd9cdfa2, de: 0x49b7d58e0b15d981 },
    Row { backend: "JavaSd", graph: "arrays", ser: 0x5781546cf6f548b8, de: 0x257b37d2e2af18a5 },
    Row { backend: "Kryo", graph: "arrays", ser: 0x9822fd4ad748faa2, de: 0x5769132c8a349d17 },
    Row { backend: "ProtoLike", graph: "arrays", ser: 0x3649bd07fc2f3b61, de: 0xbae224360ba958fc },
    Row { backend: "Skyway", graph: "arrays", ser: 0x54c90dfb1812a9a5, de: 0x9b34aaf26cf113b2 },
    Row { backend: "Archive", graph: "arrays", ser: 0xd85fe68e3e5d5e73, de: 0x84863fdd58bce66a },
    Row { backend: "JsonLike", graph: "arrays", ser: 0x638c3cc594aee10b, de: 0xd7698260c15fbd9c },
    Row { backend: "JavaSd", graph: "deep_list", ser: 0x50d3c726ebd21376, de: 0xe313d7d70f491552 },
    Row { backend: "Kryo", graph: "deep_list", ser: 0xa3259aff6c3edaea, de: 0x2c884f3679eec971 },
    Row { backend: "ProtoLike", graph: "deep_list", ser: 0x8e4cb84477cc24ce, de: 0x6260bec5964c96a3 },
    Row { backend: "Skyway", graph: "deep_list", ser: 0xb9e2a7757f8c1265, de: 0x07bc7c006a28c8e3 },
    Row { backend: "Archive", graph: "deep_list", ser: 0xc60fc0d94931902f, de: 0x8ac2d8867e826769 },
    Row { backend: "JsonLike", graph: "deep_list", ser: 0x52336084d90f68bd, de: 0x8bd40bcacacd42e4 },
    Row { backend: "JavaSd", graph: "null_root", ser: 0xc948a23103e0b352, de: 0x94e7a37198dd3afd },
    Row { backend: "Kryo", graph: "null_root", ser: 0x0f175b68db63cb9f, de: 0x015f43661e8a9748 },
    Row { backend: "ProtoLike", graph: "null_root", ser: 0x4f093509beca25ea, de: 0xc9791c74a35bac1f },
    Row { backend: "Skyway", graph: "null_root", ser: 0x31c0853b6fb91fdb, de: 0xfb54be0e8e0816a7 },
    Row { backend: "Archive", graph: "null_root", ser: 0xc434f41345856bb3, de: 0x4177661271d2d906 },
    Row { backend: "JsonLike", graph: "null_root", ser: 0x05451b84d2ce499b, de: 0x2a090678ad8b23ba },
    Row { backend: "JavaSd", graph: "Tree-narrow", ser: 0x3d2600fc144f959c, de: 0xde0393c9b4b94261 },
    Row { backend: "Kryo", graph: "Tree-narrow", ser: 0xa8b55365424c1769, de: 0xf49caa0d8998b3b1 },
    Row { backend: "ProtoLike", graph: "Tree-narrow", ser: 0x1ce6a92b8e90ef5b, de: 0xc2abf4a47d421424 },
    Row { backend: "Skyway", graph: "Tree-narrow", ser: 0xb8d10d8528cad60b, de: 0xeecff8d595751cfe },
    Row { backend: "Archive", graph: "Tree-narrow", ser: 0x45a9dda47b528a0f, de: 0x85b041ceccc650f2 },
    Row { backend: "JsonLike", graph: "Tree-narrow", ser: 0x11e75065f7e84440, de: 0xe5a041e0eabce991 },
    Row { backend: "JavaSd", graph: "Tree-wide", ser: 0xecda2b83caf8d46c, de: 0x73913617ffb14cf3 },
    Row { backend: "Kryo", graph: "Tree-wide", ser: 0x57b51b05d6094724, de: 0xc6f57056f7a1371f },
    Row { backend: "ProtoLike", graph: "Tree-wide", ser: 0x0341f7fcf0b07204, de: 0x7e3c10ea3b63cca6 },
    Row { backend: "Skyway", graph: "Tree-wide", ser: 0x80eee789f40e9936, de: 0x196cd126c99d7d46 },
    Row { backend: "Archive", graph: "Tree-wide", ser: 0xdf476e847082cd5a, de: 0x3efd13253ade5cdf },
    Row { backend: "JsonLike", graph: "Tree-wide", ser: 0xd655ddac790094c3, de: 0xc77aab352c3675ed },
    Row { backend: "JavaSd", graph: "List-small", ser: 0x1c829ffaad0a6dd5, de: 0xee063b11a5d8853c },
    Row { backend: "Kryo", graph: "List-small", ser: 0xebbbafee32505248, de: 0x058953ef00f24675 },
    Row { backend: "ProtoLike", graph: "List-small", ser: 0xb84f528237221225, de: 0x48d6970a5674627c },
    Row { backend: "Skyway", graph: "List-small", ser: 0x533d72c466de801f, de: 0x74107bf55cd1ce94 },
    Row { backend: "Archive", graph: "List-small", ser: 0x3dc0936a352474e3, de: 0x2403fcf4911240dc },
    Row { backend: "JsonLike", graph: "List-small", ser: 0x32516ea2ca96bb1f, de: 0x74367ac0dacd8f4c },
    Row { backend: "JavaSd", graph: "List-large", ser: 0x2dd20653c8e82969, de: 0x544ba343eb258943 },
    Row { backend: "Kryo", graph: "List-large", ser: 0xf8b0e155dde2187c, de: 0x746838ea92f47777 },
    Row { backend: "ProtoLike", graph: "List-large", ser: 0xa9d119cdf8927f5a, de: 0xc01437f1e1008281 },
    Row { backend: "Skyway", graph: "List-large", ser: 0xf507274d3ae52675, de: 0xbee08aa6f3f59b0c },
    Row { backend: "Archive", graph: "List-large", ser: 0xca18243d73a31ed4, de: 0x7346812783f77e42 },
    Row { backend: "JsonLike", graph: "List-large", ser: 0x8c19b9d4596794aa, de: 0x2790742522f72786 },
    Row { backend: "JavaSd", graph: "Graph-sparse", ser: 0x735b5f2fd0ef895f, de: 0x509b8cf4dbedb6ef },
    Row { backend: "Kryo", graph: "Graph-sparse", ser: 0x42428aeeae918752, de: 0xba52ac87bc550231 },
    Row { backend: "ProtoLike", graph: "Graph-sparse", ser: 0xbbc6cde314157612, de: 0xacbadad559b33fdc },
    Row { backend: "Skyway", graph: "Graph-sparse", ser: 0x7938bc04601b8a90, de: 0x56ccbf61d733abec },
    Row { backend: "Archive", graph: "Graph-sparse", ser: 0x37754c532da69e50, de: 0x514365c2c9066067 },
    Row { backend: "JsonLike", graph: "Graph-sparse", ser: 0x5e36d0205b59bce3, de: 0x69e4de48d3bd655e },
    Row { backend: "JavaSd", graph: "Graph-dense", ser: 0xea875fecd74b0eb7, de: 0x713e7bc1895c79f7 },
    Row { backend: "Kryo", graph: "Graph-dense", ser: 0xcd5bfbf1be14f0a0, de: 0xfb33f5966a8a097e },
    Row { backend: "ProtoLike", graph: "Graph-dense", ser: 0xec436cd3819ccf49, de: 0x0cbc110afd0252c7 },
    Row { backend: "Skyway", graph: "Graph-dense", ser: 0xe3217a701140bc53, de: 0xdef99dd786a73a4c },
    Row { backend: "Archive", graph: "Graph-dense", ser: 0x86f5e43b3eecdda5, de: 0x34e60e6f8e5c5f26 },
    Row { backend: "JsonLike", graph: "Graph-dense", ser: 0x0d4d9eb8b1249943, de: 0xc8aa69a23bbb5700 },
    Row { backend: "JavaSd", graph: "media_content", ser: 0x9de3a81f06fd04f9, de: 0x96ac5f3e180f9cc6 },
    Row { backend: "Kryo", graph: "media_content", ser: 0x5f2ed404514401c2, de: 0xb3684a6b04252f6c },
    Row { backend: "ProtoLike", graph: "media_content", ser: 0x2a1b6da029b03143, de: 0xd264abfd57209711 },
    Row { backend: "Skyway", graph: "media_content", ser: 0x4973a73f7f956ab0, de: 0x8e1a008238ae581c },
    Row { backend: "Archive", graph: "media_content", ser: 0xe8d61cfc6890bc7c, de: 0xfef7039f46ddf165 },
    Row { backend: "JsonLike", graph: "media_content", ser: 0x584a4ecaef5293e7, de: 0x643c928c3c08874f },
    Row { backend: "JavaSd", graph: "NWeight", ser: 0x8ce5aa009c9cd9dd, de: 0x6fc944787b2ef642 },
    Row { backend: "Kryo", graph: "NWeight", ser: 0xa54b302f626f02de, de: 0x5ac022b943c5ade0 },
    Row { backend: "ProtoLike", graph: "NWeight", ser: 0xf80247e66b97c145, de: 0xfeb86fed6106ad45 },
    Row { backend: "Skyway", graph: "NWeight", ser: 0x6494c52d892284c6, de: 0x5eab682618b84ece },
    Row { backend: "Archive", graph: "NWeight", ser: 0x6a9c772a2b83455e, de: 0xa155a06c5787816e },
    Row { backend: "JsonLike", graph: "NWeight", ser: 0x2fb8a7f5a2bf17d5, de: 0x4c129eba61743a59 },
    Row { backend: "JavaSd", graph: "SVM", ser: 0x13cc9570145d8c02, de: 0xc9311058221a0a8e },
    Row { backend: "Kryo", graph: "SVM", ser: 0x94868adcde9104d6, de: 0x3734036fcf3e5044 },
    Row { backend: "ProtoLike", graph: "SVM", ser: 0xac1027c94eddc23d, de: 0x179f098c3c81964f },
    Row { backend: "Skyway", graph: "SVM", ser: 0xe839c7c26e150747, de: 0x7b6291d09dc5e9d3 },
    Row { backend: "Archive", graph: "SVM", ser: 0xf1fdf6f2cedae547, de: 0x1d757cbdf4327e61 },
    Row { backend: "JsonLike", graph: "SVM", ser: 0x37a9d1146aa19d46, de: 0x4b7a557de2495703 },
    Row { backend: "JavaSd", graph: "Bayes", ser: 0x91464c8c3facf696, de: 0x6d866a4bc5b59da1 },
    Row { backend: "Kryo", graph: "Bayes", ser: 0x8d2de27c9439e3a5, de: 0x997c67e4b5ad3232 },
    Row { backend: "ProtoLike", graph: "Bayes", ser: 0x470bacdea032f4a4, de: 0x1a20750dffe904a7 },
    Row { backend: "Skyway", graph: "Bayes", ser: 0x906c8960aa8982b3, de: 0x8a8ea7e9b2a671a7 },
    Row { backend: "Archive", graph: "Bayes", ser: 0xb82104b9e9cb67e9, de: 0x784860968da01bcd },
    Row { backend: "JsonLike", graph: "Bayes", ser: 0xd93ce70b58512d8d, de: 0xc4d8cc7c76832189 },
    Row { backend: "JavaSd", graph: "LR", ser: 0xd407f477e2bc6fdc, de: 0x5e092401713429e9 },
    Row { backend: "Kryo", graph: "LR", ser: 0xcfde258199c570aa, de: 0x0b4f0b5473a1f2c3 },
    Row { backend: "ProtoLike", graph: "LR", ser: 0x65964d151cf88b08, de: 0xc05c7a953aab4a2d },
    Row { backend: "Skyway", graph: "LR", ser: 0xa34fa23dce9a2cbe, de: 0x4af9d3d6e5411750 },
    Row { backend: "Archive", graph: "LR", ser: 0x8af4e2ebe2b1ec3d, de: 0xb2d293d8c600edef },
    Row { backend: "JsonLike", graph: "LR", ser: 0x008a0a09b8d20eec, de: 0x7ddb87739fec465e },
    Row { backend: "JavaSd", graph: "Terasort", ser: 0x3900e9d49efe6aeb, de: 0x8d530654e37ebf23 },
    Row { backend: "Kryo", graph: "Terasort", ser: 0x8f20ae9937bc1959, de: 0xa00079ed92a8535a },
    Row { backend: "ProtoLike", graph: "Terasort", ser: 0xfa936d7b1fd76538, de: 0x5330a40bcb0ecab4 },
    Row { backend: "Skyway", graph: "Terasort", ser: 0xf68bfcc6631a795e, de: 0xa23233288bb09a32 },
    Row { backend: "Archive", graph: "Terasort", ser: 0x3772173f7ed13ce2, de: 0x8671bbccc5b2b963 },
    Row { backend: "JsonLike", graph: "Terasort", ser: 0x5b74f6d7fc4321f2, de: 0x65244ca7418d2aa0 },
    Row { backend: "JavaSd", graph: "ALS", ser: 0xce2a3d282a715c26, de: 0x37a87f8b2e83ac95 },
    Row { backend: "Kryo", graph: "ALS", ser: 0x43c4b3c9b905b9d5, de: 0x82e542b62d34134f },
    Row { backend: "ProtoLike", graph: "ALS", ser: 0xbcb7008be1a5dc42, de: 0x45c11c9598ec21ba },
    Row { backend: "Skyway", graph: "ALS", ser: 0xb9ea1fc78dc9c577, de: 0xe93143731a5444b1 },
    Row { backend: "Archive", graph: "ALS", ser: 0xa8c10ffe059915f1, de: 0x69f1330056098ce1 },
    Row { backend: "JsonLike", graph: "ALS", ser: 0xf32689d80addf5ec, de: 0xb2051a0e440806dd },
];
