//! Frozen fixtures for the six software serializers (Java S/D, Kryo,
//! ProtoLike, Skyway, Archive, JsonLike) and for Cereal's functional
//! model.
//!
//! Every simulated number in the repository is derived from two things
//! these backends produce: the byte stream and the narrated [`Op`]
//! sequence. This test pins both, per backend, over an 18-graph corpus:
//! the five handcrafted shapes of [`common::corpus`], every microbenchmark at
//! `Scale::Tiny`, the JSBS media object, and the first batch of every
//! Spark application at `Scale::Tiny`. For each graph a row in
//! [`ROWS`] records
//!
//! * the stream length and its FNV-1a-64;
//! * the serialize and deserialize op counts, each with an FNV-1a-64 over
//!   a canonical byte encoding of the ops ([`eat_op`]);
//! * the deserialize outcome: a digest of the rebuilt graph, the typed
//!   error, or why the returned root does not walk
//!   ([`common::graph_digest`] checks every object before reading it);
//! * for the stream cut at 1, len/3, len/2 and len−1 bytes: the outcome,
//!   plus the count and digest of the ops narrated before it.
//!
//! For the five binary backends over five small graphs, [`SWEEP`] also
//! pins one digest over *every* cut `0..len`, so each decoder error exit
//! is frozen.
//!
//! The full streams of `diamond`, `cycle` and `null_root` are pinned byte
//! for byte in [`STREAMS`].
//!
//! [`CEREAL`] pins Cereal's functional model over the same corpus, with
//! and without mark-word stripping: the `functional::encode` stream and
//! SU workload (the header-mark traversal, the only Cereal encoder), and
//! the `functional::decode` outcome with its DU workload.
//!
//! On a mismatch the tests print the actual rows.

use cereal_repro::accel::{functional, ClassTables};
use cereal_repro::baselines::{NullSink, Op, SerError, Serializer, TraceSink};
use cereal_repro::bench_workloads::media_content;
use cereal_repro::heap::{Addr, Heap, KlassRegistry};
use common::corpus::{arrays, backends, corpus, cycle, diamond, null_root, Graph, DST_BASE};
use common::{graph_digest, Fnv};
use std::fmt;

mod common;

// ---------------------------------------------------------------------------
// Digests
// ---------------------------------------------------------------------------

/// Canonical byte encoding of one op: a tag byte, then every field
/// little-endian.
fn eat_op(h: &mut Fnv, op: Op) {
    match op {
        Op::Load {
            addr,
            bytes,
            dependent,
        } => {
            h.eat(&[0]);
            h.eat(&addr.to_le_bytes());
            h.eat(&bytes.to_le_bytes());
            h.eat(&[u8::from(dependent)]);
        }
        Op::Store { addr, bytes } => {
            h.eat(&[1]);
            h.eat(&addr.to_le_bytes());
            h.eat(&bytes.to_le_bytes());
        }
        Op::Alu(n) => {
            h.eat(&[2]);
            h.eat(&n.to_le_bytes());
        }
        Op::Branch => h.eat(&[3]),
        Op::Call => h.eat(&[4]),
        Op::ReflectCall => h.eat(&[5]),
        Op::StrCompare(n) => {
            h.eat(&[6]);
            h.eat(&n.to_le_bytes());
        }
        Op::HashLookup => h.eat(&[7]),
        Op::Alloc(n) => {
            h.eat(&[8]);
            h.eat(&n.to_le_bytes());
        }
    }
}

/// Counts the narrated ops and digests their canonical encoding.
struct OpDigest {
    count: u64,
    fnv: Fnv,
}

impl OpDigest {
    fn new() -> Self {
        OpDigest {
            count: 0,
            fnv: Fnv::new(),
        }
    }

    fn get(&self) -> (u64, u64) {
        (self.count, self.fnv.0)
    }
}

impl TraceSink for OpDigest {
    fn op(&mut self, op: Op) {
        self.count += 1;
        eat_op(&mut self.fnv, op);
    }
}

/// The outcome string of a decode: the digest of the rebuilt graph, or
/// why the returned root does not walk.
fn outcome(heap: &Heap, reg: &KlassRegistry, root: Addr) -> String {
    match graph_digest(heap, reg, root) {
        Ok(d) => format!("Ok({d:#018x})"),
        Err(why) => format!("Unwalkable({why})"),
    }
}

/// Deserializes `bytes` into a fresh heap; returns the outcome and the
/// narrated ops.
fn decode(
    ser: &dyn Serializer,
    bytes: &[u8],
    reg: &KlassRegistry,
    capacity: u64,
) -> (String, (u64, u64)) {
    let mut dst = Heap::with_base(Addr(DST_BASE), capacity);
    let mut ops = OpDigest::new();
    let outcome = match ser.deserialize(bytes, reg, &mut dst, &mut ops) {
        Ok(root) => outcome(&dst, reg, root),
        Err(e) => format!("{:?}", Err::<(), SerError>(e)),
    };
    (outcome, ops.get())
}

// ---------------------------------------------------------------------------
// Rows
// ---------------------------------------------------------------------------

/// One backend × graph fixture. Op tallies are `(count, digest)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Row {
    backend: &'static str,
    graph: &'static str,
    len: usize,
    stream: u64,
    ser: (u64, u64),
    de: (u64, u64),
    result: &'static str,
    /// `(outcome, ops)` for the cuts at 1, len/3, len/2 and len−1.
    cuts: [(&'static str, (u64, u64)); 4],
}

/// Prints a row as the Rust literal the table holds.
impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ops = |(n, d): (u64, u64)| format!("({n}, {d:#018x})");
        writeln!(
            f,
            "    Row {{ backend: {:?}, graph: {:?}, len: {}, stream: {:#018x},",
            self.backend, self.graph, self.len, self.stream
        )?;
        writeln!(
            f,
            "        ser: {}, de: {}, result: {:?},",
            ops(self.ser),
            ops(self.de),
            self.result
        )?;
        writeln!(f, "        cuts: [")?;
        for (outcome, o) in self.cuts {
            writeln!(f, "            ({outcome:?}, {}),", ops(o))?;
        }
        writeln!(f, "        ] }},")
    }
}

/// Runtime strings become `'static` so actual rows compare directly
/// against the table (a few hundred bytes leaked per test run).
fn leak(s: String) -> &'static str {
    Box::leak(s.into_boxed_str())
}

fn measure(
    backend: &'static str,
    ser: &dyn Serializer,
    graph: &'static str,
    (heap, reg, root): &mut Graph,
) -> (Row, Vec<u8>) {
    let capacity = heap.capacity_bytes();
    let mut ser_ops = OpDigest::new();
    let bytes = ser
        .serialize(heap, reg, *root, &mut ser_ops)
        .unwrap_or_else(|e| panic!("{backend}/{graph}: serialize failed: {e}"));
    let (result, de) = decode(ser, &bytes, reg, capacity);
    if result.starts_with("Ok") {
        let source = outcome(heap, reg, *root);
        assert_eq!(
            result, source,
            "{backend}/{graph}: round trip changed the graph"
        );
    }
    let len = bytes.len();
    let cuts = [1, len / 3, len / 2, len.saturating_sub(1)].map(|cut| {
        let (outcome, ops) = decode(ser, &bytes[..cut], reg, capacity);
        (leak(outcome), ops)
    });
    let row = Row {
        backend,
        graph,
        len,
        stream: Fnv::of(&bytes),
        ser: ser_ops.get(),
        de,
        result: leak(result),
        cuts,
    };
    (row, bytes)
}

/// Hex for binary streams, the text itself for JsonLike.
fn show(backend: &str, bytes: &[u8]) -> String {
    if backend == "JsonLike" {
        String::from_utf8(bytes.to_vec()).expect("JsonLike emits UTF-8")
    } else {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
}

#[test]
fn streams_ops_and_errors_match_the_frozen_fixtures() {
    let mut diffs = String::new();
    for (graph, mut g) in corpus() {
        for (backend, ser) in backends() {
            let (actual, bytes) = measure(backend, ser.as_ref(), graph, &mut g);
            if !ROWS.contains(&actual) {
                diffs.push_str(&actual.to_string());
            }
            if STREAM_GRAPHS.contains(&graph) {
                let shown = show(backend, &bytes);
                if !STREAMS.contains(&(backend, graph, shown.as_str())) {
                    diffs.push_str(&format!("    ({backend:?}, {graph:?}, {shown:?}),\n"));
                }
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "rows differ from the fixtures; actual:\n{diffs}"
    );
    assert_eq!(ROWS.len(), 18 * 6, "one row per graph and backend");
}

#[test]
fn serialize_into_reuses_the_buffer() {
    let (mut heap, reg, root) = diamond();
    for (backend, ser) in backends() {
        let expect = ser.serialize(&mut heap, &reg, root, &mut NullSink).unwrap();
        let mut out = Vec::new();
        for _ in 0..3 {
            let n = ser
                .serialize_into(&mut heap, &reg, root, &mut NullSink, &mut out)
                .unwrap();
            assert_eq!(n, expect.len(), "{backend}: serialize_into length");
            assert_eq!(out, expect, "{backend}: serialize_into bytes");
        }
    }
}

/// Decodes every proper prefix `0..len` of the binary streams of a few
/// small graphs and digests, per cut, the outcome, the op count and the
/// op digest. This pins every error exit of the binary decoders: cuts
/// inside a class descriptor, a primitive array, an id varint, a handle,
/// an image header or record body.
#[test]
fn every_cut_of_the_binary_streams_matches_the_frozen_sweep() {
    let graphs: [(&str, Graph); 5] = [
        ("diamond", diamond()),
        ("cycle", cycle()),
        ("arrays", arrays()),
        ("null_root", null_root()),
        ("media_content", media_content()),
    ];
    let mut diffs = String::new();
    for (graph, (mut heap, reg, root)) in graphs {
        let capacity = heap.capacity_bytes();
        for (backend, ser) in &backends()[..5] {
            let bytes = ser.serialize(&mut heap, &reg, root, &mut NullSink).unwrap();
            let mut h = Fnv::new();
            for cut in 0..bytes.len() {
                let (outcome, (count, digest)) =
                    decode(ser.as_ref(), &bytes[..cut], &reg, capacity);
                h.eat(outcome.as_bytes());
                h.eat(&[0xff]);
                h.eat(&count.to_le_bytes());
                h.eat(&digest.to_le_bytes());
            }
            let actual = (*backend, graph, h.0);
            if !SWEEP.contains(&actual) {
                diffs.push_str(&format!("    ({backend:?}, {graph:?}, {:#018x}),\n", h.0));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "sweeps differ from the fixtures; actual:\n{diffs}"
    );
}

/// One graph × strip-mode fixture of Cereal's functional model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CerealRow {
    graph: &'static str,
    strip: bool,
    /// `functional::encode`: wire length, FNV of the wire bytes, and FNV
    /// of the SU workload's `{:?}` (events, sizes).
    len: usize,
    stream: u64,
    su: u64,
    /// `functional::decode`: the outcome and FNV of the DU workload's
    /// `{:?}` (0 on error).
    result: &'static str,
    du: u64,
}

impl fmt::Display for CerealRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "    CerealRow {{ graph: {:?}, strip: {}, len: {}, stream: {:#018x}, su: {:#018x},",
            self.graph, self.strip, self.len, self.stream, self.su
        )?;
        writeln!(
            f,
            "        result: {:?}, du: {:#018x} }},",
            self.result, self.du
        )
    }
}

fn measure_cereal(graph: &'static str, strip: bool, (heap, reg, root): &mut Graph) -> CerealRow {
    let mut tables = ClassTables::new(4096);
    tables.register_all(reg).expect("corpus klasses fit");
    let counter = 1 + u16::from(strip);
    let out = functional::encode(heap, reg, &tables, counter, 0, strip)
        .run(*root)
        .unwrap_or_else(|e| panic!("Cereal/{graph}: encode failed: {e}"));
    let wire = out.stream.to_bytes();
    let mut dst = Heap::with_base(Addr(DST_BASE), heap.capacity_bytes());
    let (result, du) = match functional::decode(&out.stream, &tables, &mut dst, strip) {
        Ok((new_root, work)) => (
            outcome(&dst, reg, new_root),
            Fnv::of(format!("{work:?}").as_bytes()),
        ),
        Err(e) => (format!("{:?}", Err::<(), SerError>(e)), 0),
    };
    CerealRow {
        graph,
        strip,
        len: wire.len(),
        stream: Fnv::of(&wire),
        su: Fnv::of(format!("{:?}", out.workload).as_bytes()),
        result: leak(result),
        du,
    }
}

#[test]
fn cereal_functional_model_matches_the_frozen_table() {
    let mut diffs = String::new();
    for (graph, mut g) in corpus() {
        let source = outcome(&g.0, &g.1, g.2);
        for strip in [false, true] {
            let actual = measure_cereal(graph, strip, &mut g);
            assert_eq!(
                actual.result, source,
                "Cereal/{graph}: round trip changed the graph"
            );
            if !CEREAL.contains(&actual) {
                diffs.push_str(&actual.to_string());
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "Cereal rows differ from the fixtures; actual:\n{diffs}"
    );
    assert_eq!(CEREAL.len(), 18 * 2, "one row per graph and strip mode");
}

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// `(backend, graph, digest)` of every cut's outcome and ops, for
/// [`every_cut_of_the_binary_streams_matches_the_frozen_sweep`].
#[rustfmt::skip]
const SWEEP: [(&str, &str, u64); 25] = [
    ("JavaSd", "diamond", 0xadeb3ab180715284),
    ("Kryo", "diamond", 0xc9f414f1a0888141),
    ("ProtoLike", "diamond", 0x6bc6011fc60c53e5),
    ("JavaSd", "cycle", 0x9cf86796b7951ea2),
    ("Kryo", "cycle", 0x2559dfe480c8b4d5),
    ("ProtoLike", "cycle", 0x78483bb356cac165),
    ("JavaSd", "arrays", 0x259772c78af1cdf2),
    ("Kryo", "arrays", 0x624d498e14c210ad),
    ("ProtoLike", "arrays", 0xe8d614bf52de06c2),
    ("JavaSd", "null_root", 0x87c4078b64863f31),
    ("Kryo", "null_root", 0x5cdffa4be8e51b2b),
    ("ProtoLike", "null_root", 0x062ce95fc6c32f59),
    ("JavaSd", "media_content", 0x6b5906657c3f997c),
    ("Kryo", "media_content", 0x0b8b92dbf312b9d7),
    ("ProtoLike", "media_content", 0x79198471fb3a81a3),
    ("Skyway", "diamond", 0xa11fb2ec1861a0cd),
    ("Archive", "diamond", 0x47c3d2a8c350fd35),
    ("Skyway", "cycle", 0x704e603622798afd),
    ("Archive", "cycle", 0x7225a2fad0792c45),
    ("Skyway", "arrays", 0xf0a8326bb0f12bdd),
    ("Archive", "arrays", 0xdea28bb96169b8e5),
    ("Skyway", "null_root", 0x7416ad9c42b6451d),
    ("Archive", "null_root", 0x4068d821205ecd25),
    ("Skyway", "media_content", 0x1a43732c6c249d7d),
    ("Archive", "media_content", 0x750f23dd24c444c5),
];

/// Graphs whose whole stream is pinned in [`STREAMS`].
const STREAM_GRAPHS: [&str; 3] = ["diamond", "cycle", "null_root"];

/// `(backend, graph, stream)`: hex, or the text itself for JsonLike.
#[rustfmt::skip]
const STREAMS: [(&str, &str, &str); 18] = [
    ("JavaSd", "diamond", "aced0005737200054d6978656400000000046e9bdb0200094a000266304900026631430002663242000266334c000266345a0002663544000266364c0002663749000266380000000000000001000000020003047376000000000123456789abcdeffffffffe00417f75720008646f75626c655b5d000002985107d6f3020000000000033ff8000000000000c0020000000000000000000000000000013fe0000000000000700000002a00c00e000000000000710000000400000005"),
    ("Kryo", "diamond", "01000100000000000000020300040100efcdab8967452301feffffff0f41007f010103000000000000f83f00000000000002c0000000000000000001000000000000e03f002a000000000000000ec0020205"),
    ("ProtoLike", "diamond", "010002040300040100deb7de9af1d9a2a302fcffffff1f41007f010103000000000000f83f00000000000002c0000000000000000001000000000000e03f0054000000000000000ec002020a"),
    ("JsonLike", "diamond", "{\"@c\":\"Mixed\",\"@id\":0,\"f0\":1,\"f1\":2,\"f2\":3,\"f3\":4,\"f4\":{\"@c\":\"Mixed\",\"@id\":1,\"f0\":81985529216486895,\"f1\":4294967294,\"f2\":65,\"f3\":127,\"f4\":{\"@c\":\"double[]\",\"@id\":2,\"e\":[1.5,-2.25,0.0]},\"f5\":true,\"f6\":0.5,\"f7\":null,\"f8\":42},\"f5\":false,\"f6\":-3.75,\"f7\":{\"@r\":2},\"f8\":5}"),
    ("JavaSd", "cycle", "aced0005737200014300000000000000430200024a000266304c00026631000000000000000273760000000000000000000000017100000001"),
    ("Kryo", "cycle", "01000200000000000000010001000000000000000200"),
    ("ProtoLike", "cycle", "0100040100020200"),
    ("JsonLike", "cycle", "{\"@c\":\"C\",\"@id\":0,\"f0\":2,\"f1\":{\"@c\":\"C\",\"@id\":1,\"f0\":1,\"f1\":{\"@r\":0}}}"),
    ("JavaSd", "null_root", "aced000570"),
    ("Kryo", "null_root", "00"),
    ("ProtoLike", "null_root", "00"),
    ("JsonLike", "null_root", "null"),
    ("Skyway", "diamond", "f80000000300000000d80399e4000000000000000000000000000000000000000100000000000000020000000000000003000000000000000400000000000000610000000000000000000000000000000000000000000ec0c1000000000000000500000000000000009e8a120000000000000000000000000000000000000000efcdab8967452301feffffff0000000041000000000000007f00000000000000c1000000000000000100000000000000000000000000e03f00000000000000002a0000000000000000e8cb7243000000010000000000000000000000000000000300000000000000000000000000f83f00000000000002c00000000000000000"),
    ("Archive", "diamond", "4152435601000000f80000000300000000d80399e4000000000000000000000000000000000000000100000000000000020000000000000003000000000000000400000000000000610000000000000000000000000000000000000000000ec0c1000000000000000500000000000000009e8a120000000000000000000000000000000000000000efcdab8967452301feffffff0000000041000000000000007f00000000000000c1000000000000000100000000000000000000000000e03f00000000000000002a0000000000000000e8cb7243000000010000000000000000000000000000000300000000000000000000000000f83f00000000000002c00000000000000000"),
    ("Skyway", "cycle", "5000000002000000009e8a1200000000000000000000000000000000000000000200000000000000290000000000000000e8cb72430000000000000000000000000000000000000001000000000000000100000000000000"),
    ("Archive", "cycle", "41524356010000005000000002000000009e8a1200000000000000000000000000000000000000000200000000000000290000000000000000e8cb72430000000000000000000000000000000000000001000000000000000100000000000000"),
    ("Skyway", "null_root", "0000000000000000"),
    ("Archive", "null_root", "41524356010000000000000000000000"),
];

#[rustfmt::skip]
static ROWS: [Row; 108] = [
    Row { backend: "JavaSd", graph: "diamond", len: 188, stream: 0xdb121f0384990b65,
        ser: (163, 0x8b891dbbf9d54d50), de: (151, 0x70e8af0141277ac6), result: "Ok(0xfed9db775820f7a8)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (43, 0x79238a41888cdb4f)),
            ("Err(Malformed(\"truncated stream\"))", (77, 0xd54b8794a776c5be)),
            ("Err(Malformed(\"truncated stream\"))", (147, 0xef2d39da766f98d6)),
        ] },
    Row { backend: "Kryo", graph: "diamond", len: 82, stream: 0xf343fe559c4c81da,
        ser: (96, 0x824d13b84d4a0404), de: (95, 0x051f07334c502a4c), result: "Ok(0xfed9db775820f7a8)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"bad varint\"))", (34, 0x04433a18fbd50aca)),
            ("Err(Malformed(\"truncated stream\"))", (54, 0x6657d2f89bc900ab)),
            ("Err(Malformed(\"bad varint\"))", (91, 0x3a9b11b6409cddf4)),
        ] },
    Row { backend: "ProtoLike", graph: "diamond", len: 76, stream: 0x82d31e6496ff47e6,
        ser: (88, 0x8db862bb3e9a0750), de: (87, 0xc137addc05d5f9f2), result: "Ok(0xfed9db775820f7a8)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"truncated stream\"))", (39, 0x2c2cffb34c77e79b)),
            ("Err(Malformed(\"truncated stream\"))", (53, 0xf2ab62f53753d99e)),
            ("Err(Malformed(\"bad varint\"))", (84, 0xfe3f55e8c3dda63e)),
        ] },
    Row { backend: "JsonLike", graph: "diamond", len: 265, stream: 0x628adbb3491daa97,
        ser: (148, 0x382d56a46ea4d727), de: (521, 0x4fbafd951ae0b402), result: "Ok(0xfed9db775820f7a8)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unterminated token\"))", (194, 0x396ec2f2bc74a64e)),
            ("Err(Malformed(\"unterminated token\"))", (245, 0x8921599e81a7d44c)),
            ("Err(Malformed(\"unterminated token\"))", (516, 0x98f7a2e9a691714a)),
        ] },
    Row { backend: "JavaSd", graph: "cycle", len: 57, stream: 0x9b63436562b7846e,
        ser: (55, 0x387bfaa947107138), de: (48, 0x01e94bb8e3b93111), result: "Ok(0xa27b74f539891e65)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (12, 0xd802b067dd1429f9)),
            ("Err(Malformed(\"truncated stream\"))", (19, 0x1a4aa43ee910a1c4)),
            ("Err(Malformed(\"truncated stream\"))", (44, 0x9a86a437bcd43209)),
        ] },
    Row { backend: "Kryo", graph: "cycle", len: 22, stream: 0xd1c8066fb9da0dbc,
        ser: (32, 0xfad5691c48f3d359), de: (32, 0x64263eb6014548f1), result: "Ok(0xa27b74f539891e65)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (8, 0xc9f598e82f3e0e76)),
            ("Err(Malformed(\"bad varint\"))", (14, 0xc6975d48bd82ed5b)),
            ("Err(Malformed(\"bad varint\"))", (27, 0x42dc5d523dd574be)),
        ] },
    Row { backend: "ProtoLike", graph: "cycle", len: 8, stream: 0x01f76436ec8904cb,
        ser: (27, 0x96002ae13960c0fe), de: (26, 0x4fe1e60b2eb11ce7), result: "Ok(0xa27b74f539891e65)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"bad varint\"))", (7, 0x92ad3e4a360451bd)),
            ("Err(Malformed(\"bad varint\"))", (12, 0xd797bcb9056ba4d5)),
            ("Err(Malformed(\"bad varint\"))", (23, 0xc715f82d07437eb3)),
        ] },
    Row { backend: "JsonLike", graph: "cycle", len: 70, stream: 0x621ab7ead7f59a23,
        ser: (41, 0x6e454b0a284ed68b), de: (188, 0x8969a5449a41b0d6), result: "Ok(0xa27b74f539891e65)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unterminated token\"))", (63, 0xc4e5adfdb95eea65)),
            ("Err(Malformed(\"unexpected end of text\"))", (92, 0x616725c9ec6a54e9)),
            ("Err(Malformed(\"unexpected end of text\"))", (185, 0xffdd820e464b4fd6)),
        ] },
    Row { backend: "JavaSd", graph: "arrays", len: 155, stream: 0x836c6098eee07767,
        ser: (93, 0x9d6300c22aead47a), de: (80, 0xd6a454b6f0a37aa8), result: "Ok(0xdcdabf4eaf4c5f10)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (26, 0x49fbf46126c40f5a)),
            ("Err(Malformed(\"truncated stream\"))", (34, 0x7664673b1197800f)),
            ("Err(Malformed(\"truncated stream\"))", (76, 0x7340798eb70d923b)),
        ] },
    Row { backend: "Kryo", graph: "arrays", len: 71, stream: 0xe302c4e30c1023cc,
        ser: (72, 0x00d4cbaaf8499bb3), de: (68, 0xbfeac27a2acc21d9), result: "Ok(0xdcdabf4eaf4c5f10)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (24, 0x9589d22d6a215ab4)),
            ("Err(Malformed(\"truncated stream\"))", (26, 0x6a13ccbacc73fd95)),
            ("Err(Malformed(\"bad varint\"))", (63, 0x1ef328256d7154b7)),
        ] },
    Row { backend: "ProtoLike", graph: "arrays", len: 42, stream: 0x6a739981bb4a678a,
        ser: (70, 0x6ad42023f3f4de81), de: (69, 0xa3efaba58cfb3a0c), result: "Ok(0xdcdabf4eaf4c5f10)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"bad varint\"))", (33, 0xc83dded2f769e364)),
            ("Err(Malformed(\"truncated stream\"))", (49, 0xa69bff71f73b10f5)),
            ("Err(Malformed(\"bad varint\"))", (64, 0x9fa2b22028b04ca3)),
        ] },
    Row { backend: "JsonLike", graph: "arrays", len: 192, stream: 0x817ed47c574ead70,
        ser: (93, 0x455964519e3dd1ad), de: (367, 0x511ebc9b8157b193), result: "Ok(0xdcdabf4eaf4c5f10)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unterminated token\"))", (138, 0xc8b514f43133fb39)),
            ("Err(Malformed(\"unterminated token\"))", (146, 0xd54fe503f7acd8a4)),
            ("Err(Malformed(\"unexpected end of text\"))", (358, 0xdb8e446809c0d1da)),
        ] },
    Row { backend: "JavaSd", graph: "deep_list", len: 2125, stream: 0x909b57a7e1170304,
        ser: (2568, 0xbbe48f3dce1c310e), de: (2118, 0xfa1570cd2b1eafcc), result: "Ok(0xd34c065a1fbeb462)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (695, 0x89046174d88cbdc8)),
            ("Err(Malformed(\"truncated stream\"))", (1053, 0xfcdee5a55f0bd292)),
            ("Err(Malformed(\"truncated stream\"))", (2115, 0xbebf31a9478444f4)),
        ] },
    Row { backend: "Kryo", graph: "deep_list", len: 1501, stream: 0xcfba9db49f6bbdac,
        ser: (1953, 0x9799705ef658cac8), de: (1953, 0xc044593108a44752), result: "Ok(0xd34c065a1fbeb462)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (650, 0xc6938f211e550ff2)),
            ("Err(Malformed(\"truncated stream\"))", (975, 0xe43daa1f48b4aeb0)),
            ("Err(Malformed(\"truncated stream\"))", (1950, 0xb404380058c056d6)),
        ] },
    Row { backend: "ProtoLike", graph: "deep_list", len: 537, stream: 0x01dbd4bc8430db29,
        ser: (1652, 0xb2569f47585ad238), de: (1652, 0xf5d682e09114db6e), result: "Ok(0xd34c065a1fbeb462)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"bad varint\"))", (491, 0x343fcb70a97a0b61)),
            ("Err(Malformed(\"truncated stream\"))", (737, 0xd4a568f977711e1e)),
            ("Err(Malformed(\"truncated stream\"))", (1650, 0x6a311ef8bf311655)),
        ] },
    Row { backend: "JsonLike", graph: "deep_list", len: 5034, stream: 0x0ea1abd22a31ff16,
        ser: (2704, 0xe7878cd6ddb059a4), de: (12613, 0xdfb839a0ea263058), result: "Ok(0xd34c065a1fbeb462)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unexpected end of text\"))", (4095, 0x1b605509e707c935)),
            ("Err(Malformed(\"unexpected end of text\"))", (6197, 0x0f465513864037a9)),
            ("Err(Malformed(\"unexpected end of text\"))", (12610, 0xd1e8c906458f845f)),
        ] },
    Row { backend: "JavaSd", graph: "null_root", len: 5, stream: 0xae3c1df1878629db,
        ser: (5, 0xe2e2da60931507be), de: (5, 0xc1f6f2e45edb0a15), result: "Ok(0xcbf29ce484222325)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (1, 0xe9b770a3dc6989a7)),
            ("Err(Malformed(\"truncated stream\"))", (4, 0xf01bc5550f340126)),
        ] },
    Row { backend: "Kryo", graph: "null_root", len: 1, stream: 0x1162bb718601b7df,
        ser: (3, 0x47fb727b139952a2), de: (3, 0xadfc43854c865a43), result: "Ok(0xcbf29ce484222325)",
        cuts: [
            ("Ok(0xcbf29ce484222325)", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (2, 0x10c62c2ab4dfde30)),
            ("Err(Malformed(\"truncated stream\"))", (2, 0x10c62c2ab4dfde30)),
            ("Err(Malformed(\"truncated stream\"))", (2, 0x10c62c2ab4dfde30)),
        ] },
    Row { backend: "ProtoLike", graph: "null_root", len: 1, stream: 0x1162bb718601b7df,
        ser: (2, 0xdc04fac526c61e88), de: (2, 0x30f7e1ff9429c895), result: "Ok(0xcbf29ce484222325)",
        cuts: [
            ("Ok(0xcbf29ce484222325)", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"truncated stream\"))", (1, 0x1162bb728601b992)),
            ("Err(Malformed(\"truncated stream\"))", (1, 0x1162bb728601b992)),
            ("Err(Malformed(\"truncated stream\"))", (1, 0x1162bb728601b992)),
        ] },
    Row { backend: "JsonLike", graph: "null_root", len: 4, stream: 0xa6b1d0e3528108e4,
        ser: (4, 0x2cb3ed8e3e110ffb), de: (13, 0x2a4f6207e29cde0b), result: "Ok(0xcbf29ce484222325)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unexpected end of text\"))", (7, 0xccd44c4f83868b30)),
            ("Err(Malformed(\"unexpected end of text\"))", (10, 0xb96b8ec98e8aa329)),
        ] },
    Row { backend: "JavaSd", graph: "Tree-narrow", len: 3848, stream: 0x98cd898adc1af93d,
        ser: (5864, 0x15c8cdcad86c2243), de: (4848, 0xf4649ebbc5c15f3f), result: "Ok(0xcb6eb1d750fe8585)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (1583, 0x85d6e96fe93ca9f1)),
            ("Err(Malformed(\"truncated stream\"))", (2397, 0x983400edbf0b64f5)),
            ("Err(Malformed(\"truncated stream\"))", (4845, 0x9f1745884651a1d5)),
        ] },
    Row { backend: "Kryo", graph: "Tree-narrow", len: 2795, stream: 0xab26f4d868c7fe79,
        ser: (4575, 0x3c3edf270cc3340d), de: (4575, 0x79a82d52f2d93256), result: "Ok(0xcb6eb1d750fe8585)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"bad varint\"))", (1506, 0xed748f6eadb19dc6)),
            ("Err(Malformed(\"bad varint\"))", (2282, 0x53c46821c81bb56c)),
            ("Err(Malformed(\"truncated stream\"))", (4572, 0x8a90bad5dea937cb)),
        ] },
    Row { backend: "ProtoLike", graph: "Tree-narrow", len: 1080, stream: 0x04c70db5c677a6d8,
        ser: (3558, 0x76c39bfa0b88319e), de: (3558, 0xd273774bf40b1fc9), result: "Ok(0xcb6eb1d750fe8585)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"bad varint\"))", (1261, 0x83af283367100860)),
            ("Err(Malformed(\"truncated stream\"))", (1886, 0x5b161edb70d256a2)),
            ("Err(Malformed(\"truncated stream\"))", (3556, 0x0199c17e51588587)),
        ] },
    Row { backend: "JsonLike", graph: "Tree-narrow", len: 13074, stream: 0xc2afae7764f2f428,
        ser: (6608, 0xbf16ed6646a4496a), de: (28715, 0x02d4a6c89a50ebff), result: "Ok(0xcb6eb1d750fe8585)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unterminated token\"))", (9738, 0x35a56cd2afd4b51e)),
            ("Err(Malformed(\"unterminated token\"))", (14531, 0xb25d9a68bebadbef)),
            ("Err(Malformed(\"unexpected end of text\"))", (28712, 0xfb334ac94fc0eddc)),
        ] },
    Row { backend: "JavaSd", graph: "Tree-wide", len: 12332, stream: 0x7ed5d449ed4bd678,
        ser: (34502, 0x08b8ade937a87927), de: (28662, 0xcb412514e350456a), result: "Ok(0xd27bbef80c67095e)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (9450, 0x82b67978b9637af9)),
            ("Err(Malformed(\"truncated stream\"))", (14242, 0x4113a71388f11b37)),
            ("Err(Malformed(\"truncated stream\"))", (28659, 0xc892f11f004049d6)),
        ] },
    Row { backend: "Kryo", graph: "Tree-wide", len: 9929, stream: 0x0b973140dfa82b73,
        ser: (28035, 0x80256b703e9ce8c1), de: (28035, 0xff03feb155f296ee), result: "Ok(0xd27bbef80c67095e)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (9303, 0x57ddbfb937c6b898)),
            ("Err(Malformed(\"truncated stream\"))", (14004, 0x0a964552b3bc7504)),
            ("Err(Malformed(\"truncated stream\"))", (28032, 0x3fb6647ff461d6dc)),
        ] },
    Row { backend: "ProtoLike", graph: "Tree-wide", len: 6288, stream: 0x3124ebc267be5e82,
        ser: (18690, 0x8a8c4681b1ab25b1), de: (18690, 0xc50758d2bbd94658), result: "Ok(0xd27bbef80c67095e)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"truncated stream\"))", (6358, 0x36ed41892485801a)),
            ("Err(Malformed(\"truncated stream\"))", (9444, 0xd29e7334664789e9)),
            ("Err(Malformed(\"truncated stream\"))", (18688, 0x3a2650ab485aab4f)),
        ] },
    Row { backend: "JsonLike", graph: "Tree-wide", len: 65684, stream: 0xbb547a1fb1aead57,
        ser: (43220, 0x12f6a9ec58169949), de: (167621, 0xd1817f9d60d73a9d), result: "Ok(0xd27bbef80c67095e)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unexpected end of text\"))", (56223, 0x68592c0df82eab7d)),
            ("Err(Malformed(\"unterminated token\"))", (84071, 0xa3b320a967789d8e)),
            ("Err(Malformed(\"unexpected end of text\"))", (167618, 0x0fc7c2f4d7542fbc)),
        ] },
    Row { backend: "JavaSd", graph: "List-small", len: 1824, stream: 0xee6b2aad48704195,
        ser: (2194, 0xf745d3dadcdc5b03), de: (1810, 0x82097f3c87c1c69c), result: "Ok(0x08c1c76ade366684)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (591, 0xdde25533e7b5ee2d)),
            ("Err(Malformed(\"truncated stream\"))", (891, 0x27bb3e792b2e11c2)),
            ("Err(Malformed(\"truncated stream\"))", (1807, 0x3802a9b6e6222ac2)),
        ] },
    Row { backend: "Kryo", graph: "List-small", len: 1281, stream: 0x97b9775e45ae48df,
        ser: (1667, 0xc7a5dcef5aea2d52), de: (1667, 0xf7f5af81cb03e7d7), result: "Ok(0x08c1c76ade366684)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (554, 0xa4404d0d5af5b6ec)),
            ("Err(Malformed(\"truncated stream\"))", (832, 0x82dc3d689fdb29fd)),
            ("Err(Malformed(\"truncated stream\"))", (1664, 0x9768fb7bcc7b6adb)),
        ] },
    Row { backend: "ProtoLike", graph: "List-small", len: 449, stream: 0x56a4d6fd0f2bef5f,
        ser: (1410, 0xf5c179f3c1cd7113), de: (1410, 0x4e48e50da1ca68e2), result: "Ok(0x08c1c76ade366684)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"bad varint\"))", (408, 0x0fb38d92a49bbbed)),
            ("Err(Malformed(\"truncated stream\"))", (616, 0x756e676383f55bdb)),
            ("Err(Malformed(\"truncated stream\"))", (1408, 0x1de65da457b8a3ae)),
        ] },
    Row { backend: "JsonLike", graph: "List-small", len: 5160, stream: 0x5d219057415b830a,
        ser: (2308, 0xe1d0f6604a9ed25e), de: (10765, 0xddff1806fcab390d), result: "Ok(0x08c1c76ade366684)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unterminated token\"))", (3486, 0xb89487525819a79e)),
            ("Err(Malformed(\"unterminated token\"))", (5254, 0xbae011ddc0aa7bee)),
            ("Err(Malformed(\"unexpected end of text\"))", (10762, 0x59195bd1d2c637ef)),
        ] },
    Row { backend: "JavaSd", graph: "List-large", len: 7200, stream: 0xf16c3cfe51c03995,
        ser: (8722, 0x0ed201b8c63ef2af), de: (7186, 0xe518852cc0987b16), result: "Ok(0x05cec3e564a9a37a)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (2383, 0x222ac56e6600c76e)),
            ("Err(Malformed(\"truncated stream\"))", (3579, 0xe6b25fa807a444b7)),
            ("Err(Malformed(\"truncated stream\"))", (7183, 0xe71ae7d92415dbdb)),
        ] },
    Row { backend: "Kryo", graph: "List-large", len: 5121, stream: 0xe03f278ec45e28df,
        ser: (6659, 0x216b4e02bbd87de2), de: (6659, 0xbc8e73f01d1aa40f), result: "Ok(0x05cec3e564a9a37a)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (2218, 0xe3073afa24844b35)),
            ("Err(Malformed(\"truncated stream\"))", (3328, 0x7111a85a66278830)),
            ("Err(Malformed(\"truncated stream\"))", (6656, 0xf80ad4f9b97cc526)),
        ] },
    Row { backend: "ProtoLike", graph: "List-large", len: 1985, stream: 0x1314918e1a3ab25f,
        ser: (5634, 0x44bbdd41c55fe609), de: (5634, 0x0ebd6a5fd1fb0be4), result: "Ok(0x05cec3e564a9a37a)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"bad varint\"))", (1816, 0x01242fba79a5896d)),
            ("Err(Malformed(\"truncated stream\"))", (2728, 0xc9707d0d5d158743)),
            ("Err(Malformed(\"truncated stream\"))", (5632, 0x39319739408f6cda)),
        ] },
    Row { backend: "JsonLike", graph: "List-large", len: 21288, stream: 0xa333f8f4097f78e2,
        ser: (9220, 0xf1589b56f7e42259), de: (16001, 0xcce454abb302d7dc), result: "Err(Malformed(\"nesting too deep\"))",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unexpected end of text\"))", (14060, 0x1a64a05b5c09de5b)),
            ("Err(Malformed(\"nesting too deep\"))", (16001, 0xcce454abb302d7dc)),
            ("Err(Malformed(\"nesting too deep\"))", (16001, 0xcce454abb302d7dc)),
        ] },
    Row { backend: "JavaSd", graph: "Graph-sparse", len: 1932, stream: 0x0a89dd7fdd991b5f,
        ser: (2417, 0x6092a74d530806db), de: (1963, 0xb9ec75950d773d20), result: "Ok(0xdffa8797434c9ed8)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (614, 0x2659f30eb134a74c)),
            ("Err(Malformed(\"truncated stream\"))", (944, 0xfc8f5711009eb696)),
            ("Err(Malformed(\"truncated stream\"))", (1960, 0x9e520b47f4274a41)),
        ] },
    Row { backend: "Kryo", graph: "Graph-sparse", len: 973, stream: 0x8086f24ac0d04b84,
        ser: (2072, 0x8bae3b96d97a8ae9), de: (2007, 0x1b8c50aed6c616c0), result: "Ok(0xdffa8797434c9ed8)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (619, 0x6909aee24d8f6b83)),
            ("Err(Malformed(\"bad varint\"))", (947, 0xece07d1196b731df)),
            ("Err(Malformed(\"bad varint\"))", (2003, 0xec0b8ee9a7ab9b0f)),
        ] },
    Row { backend: "ProtoLike", graph: "Graph-sparse", len: 518, stream: 0x0266eeb0efa13e9d,
        ser: (1683, 0xff52bd0759bce496), de: (1619, 0x1ab227c60005a580), result: "Ok(0xdffa8797434c9ed8)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"truncated stream\"))", (560, 0xdbfba3002d3775bc)),
            ("Err(Malformed(\"truncated stream\"))", (836, 0x26181eeba08c26fb)),
            ("Err(Malformed(\"bad varint\"))", (1616, 0xc443ef35d358ad62)),
        ] },
    Row { backend: "JsonLike", graph: "Graph-sparse", len: 5669, stream: 0xa6ffcaae63ef6b6e,
        ser: (2394, 0x9a3714f4689b24de), de: (11737, 0x08772d385c626ba6), result: "Ok(0xdffa8797434c9ed8)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unexpected end of text\"))", (3853, 0xa4c1105d459891d6)),
            ("Err(Malformed(\"unexpected end of text\"))", (5813, 0x330edd9fe2a56841)),
            ("Err(Malformed(\"unexpected end of text\"))", (11734, 0x55575674cd45e6b7)),
        ] },
    Row { backend: "JavaSd", graph: "Graph-dense", len: 21772, stream: 0xb03b1f9318cbcf11,
        ser: (30193, 0x01e74fc52ad3d15a), de: (25771, 0x6ff28343e9f801e4), result: "Ok(0x539ddd1d1f33179a)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (8355, 0xc5014b73f2b18112)),
            ("Err(Malformed(\"truncated stream\"))", (12706, 0x01056ad465c9640e)),
            ("Err(Malformed(\"truncated stream\"))", (25768, 0xbe23d59c3fecc6ab)),
        ] },
    Row { backend: "Kryo", graph: "Graph-dense", len: 8977, stream: 0xce71b3eee72e35e0,
        ser: (29848, 0x8392428e3887a5e9), de: (29783, 0xbb201edc61eb2618), result: "Ok(0x539ddd1d1f33179a)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (9016, 0xe368896c7bbcd7f3)),
            ("Err(Malformed(\"truncated stream\"))", (14203, 0x7555335805e5f88c)),
            ("Err(Malformed(\"bad varint\"))", (29779, 0x63249b4525357717)),
        ] },
    Row { backend: "ProtoLike", graph: "Graph-dense", len: 8522, stream: 0x2c6925ca4bf71313,
        ser: (25491, 0x26bba091f85e9541), de: (21459, 0x4f43a56b9b10d1c5), result: "Ok(0x539ddd1d1f33179a)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"truncated stream\"))", (7370, 0x5ea97fd667ff2337)),
            ("Err(Malformed(\"bad varint\"))", (10891, 0x89b5ca64e80244c7)),
            ("Err(Malformed(\"bad varint\"))", (21456, 0x4ee4e84114a6e3f0)),
        ] },
    Row { backend: "JsonLike", graph: "Graph-dense", len: 46046, stream: 0x26b9f8d858536aba,
        ser: (34138, 0x2cfef9f8a7251b41), de: (106969, 0x3478f1f111b54513), result: "Ok(0x539ddd1d1f33179a)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unexpected end of text\"))", (34191, 0xffe1c1de6ba5c3e5)),
            ("Err(Malformed(\"unterminated token\"))", (52375, 0xeb71a00a1e76e432)),
            ("Err(Malformed(\"unexpected end of text\"))", (106966, 0xefe8258cf1389134)),
        ] },
    Row { backend: "JavaSd", graph: "media_content", len: 759, stream: 0x45782efe348ac9a8,
        ser: (458, 0x17e1b441174e34b3), de: (406, 0x2e08f3e666666ca1), result: "Ok(0xc5e32975a2988ef1)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (137, 0x7df16cd68d101c6a)),
            ("Err(Malformed(\"truncated stream\"))", (208, 0x0aca112de11a36ad)),
            ("Err(Malformed(\"truncated stream\"))", (402, 0xbe744fe911d2bdd3)),
        ] },
    Row { backend: "Kryo", graph: "media_content", len: 452, stream: 0xdfdb5590f1fc7961,
        ser: (322, 0xbf9a371e998f1d77), de: (311, 0x0ab5804b2988ed39), result: "Ok(0xc5e32975a2988ef1)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (95, 0x416378040dac02ed)),
            ("Err(Malformed(\"truncated stream\"))", (188, 0xe35b7a46c090a253)),
            ("Err(Malformed(\"bad varint\"))", (307, 0xa644f14afb28c6df)),
        ] },
    Row { backend: "ProtoLike", graph: "media_content", len: 422, stream: 0x3d409ef6971f7e6d,
        ser: (365, 0xbd6b9c64731824a2), de: (365, 0x37a2ec231fa50c9b), result: "Ok(0xc5e32975a2988ef1)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"bad varint\"))", (124, 0x6c1ed9064a97f387)),
            ("Err(Malformed(\"bad varint\"))", (207, 0x9dfd442863cd8ac8)),
            ("Err(Malformed(\"bad varint\"))", (362, 0xe2024afd86bd6195)),
        ] },
    Row { backend: "JsonLike", graph: "media_content", len: 1401, stream: 0x1933c69649b57c4b,
        ser: (487, 0x059ad64c333d0cbd), de: (1607, 0x14ab14eeeeaa5b43), result: "Ok(0xc5e32975a2988ef1)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unexpected end of text\"))", (538, 0xc2352a6c64c8973a)),
            ("Err(Malformed(\"unexpected end of text\"))", (914, 0xf641df415e04f0e9)),
            ("Err(Malformed(\"unexpected end of text\"))", (1604, 0x99e65bef83d87615)),
        ] },
    Row { backend: "JavaSd", graph: "NWeight", len: 158073, stream: 0x5ec683789efe33b3,
        ser: (124137, 0xf4731e76e218e52c), de: (112476, 0x8249467c4fbe748a), result: "Ok(0x462da0b87258eb12)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (37516, 0xa625d9e3f55381c7)),
            ("Err(Malformed(\"truncated stream\"))", (56250, 0xa8c0b35801b51a69)),
            ("Err(Malformed(\"truncated stream\"))", (112472, 0x4af09e56aedf4311)),
        ] },
    Row { backend: "Kryo", graph: "NWeight", len: 134918, stream: 0x8443566d975aeda2,
        ser: (97509, 0x087a964f81712029), de: (97252, 0xb85fa09339d0040b), result: "Ok(0x462da0b87258eb12)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (32494, 0x080fc705599598a1)),
            ("Err(Malformed(\"truncated stream\"))", (48673, 0xae113a1e7fb6a08f)),
            ("Err(Malformed(\"truncated stream\"))", (97249, 0x548149215fa08203)),
        ] },
    Row { backend: "ProtoLike", graph: "NWeight", len: 115807, stream: 0xde2a30c67fce97e4,
        ser: (96226, 0x29e510315801fd11), de: (96226, 0xf7a53e087bd6f748), result: "Ok(0x462da0b87258eb12)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"truncated stream\"))", (32150, 0x8feb217439483566)),
            ("Err(Malformed(\"bad varint\"))", (48158, 0xb51d1f9fbcc69901)),
            ("Err(Malformed(\"bad varint\"))", (96223, 0xc6fe5101d480bd5d)),
        ] },
    Row { backend: "JsonLike", graph: "NWeight", len: 456793, stream: 0x6759783331442d57,
        ser: (154201, 0x1a1e9374b28e2ee3), de: (576727, 0x81ea010f4710b031), result: "Ok(0x462da0b87258eb12)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unterminated token\"))", (193375, 0x5014e0a17f485d00)),
            ("Err(Malformed(\"unterminated token\"))", (289058, 0x7468d8d38d3ab129)),
            ("Err(Malformed(\"unexpected end of text\"))", (576467, 0x67a99b11c4334742)),
        ] },
    Row { backend: "JavaSd", graph: "SVM", len: 137295, stream: 0x86934100f12431a2,
        ser: (40485, 0x87b7c12ff3912017), de: (38946, 0xcc57fd63e65a7fab), result: "Ok(0x4f4c41fb10b06ad2)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (13000, 0x37370e769067d261)),
            ("Err(Malformed(\"truncated stream\"))", (19478, 0x5198d0856662df99)),
            ("Err(Malformed(\"truncated stream\"))", (38942, 0x02ace9a1af0836c0)),
        ] },
    Row { backend: "Kryo", graph: "SVM", len: 134404, stream: 0xfab3cefbd39c4dae,
        ser: (39179, 0x11a6e972a4833300), de: (38922, 0x977b4525375ef6e5), result: "Ok(0x4f4c41fb10b06ad2)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (12990, 0xe28d78a963770fbb)),
            ("Err(Malformed(\"truncated stream\"))", (19462, 0x1b30760216907c52)),
            ("Err(Malformed(\"truncated stream\"))", (38918, 0xcce70e2dcc3cfcc0)),
        ] },
    Row { backend: "ProtoLike", graph: "SVM", len: 134404, stream: 0xfab3cefbd39c4dae,
        ser: (54024, 0xd2e2fc8468f7658c), de: (54024, 0x8f31df021f7188e6), result: "Ok(0x4f4c41fb10b06ad2)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"truncated stream\"))", (18019, 0xb8569b549f738158)),
            ("Err(Malformed(\"truncated stream\"))", (27013, 0x1642e2e165b09fcf)),
            ("Err(Malformed(\"truncated stream\"))", (54021, 0x31c0895c28c83c4d)),
        ] },
    Row { backend: "JsonLike", graph: "SVM", len: 344381, stream: 0xd2e7e1063ac35331,
        ser: (89352, 0x949b447dfc9935a0), de: (122181, 0x80a7aa3b0f693a38), result: "Ok(0x4f4c41fb10b06ad2)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unterminated token\"))", (40750, 0x0444342496fc1318)),
            ("Err(Malformed(\"unexpected end of text\"))", (61018, 0xf25ebec2e6daab87)),
            ("Err(Malformed(\"unexpected end of text\"))", (121921, 0x7d8929c13593d4e5)),
        ] },
    Row { backend: "JavaSd", graph: "Bayes", len: 57126, stream: 0x154dbb876b354534,
        ser: (27674, 0x02805fda24a590e4), de: (25111, 0xd13f9cd185429b9f), result: "Ok(0x6d8da1e39165dc19)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (8443, 0x9e4d1c22345890c7)),
            ("Err(Malformed(\"truncated stream\"))", (12682, 0x66e06bc4b7578ac2)),
            ("Err(Malformed(\"truncated stream\"))", (25107, 0xcf4c76411b2d900a)),
        ] },
    Row { backend: "Kryo", graph: "Bayes", len: 44315, stream: 0x0db5e77080c8e150,
        ser: (29874, 0x9e377ac4216a2962), de: (29361, 0x619939b32b8175f2), result: "Ok(0x6d8da1e39165dc19)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (9929, 0x743083cca81ce4d5)),
            ("Err(Malformed(\"bad varint\"))", (14851, 0x7f727b90b91395af)),
            ("Err(Malformed(\"truncated stream\"))", (29357, 0x356cd6524fe642a3)),
        ] },
    Row { backend: "ProtoLike", graph: "Bayes", len: 45062, stream: 0xdd7a9dd82ec72d8e,
        ser: (35365, 0x8d68112ed3ad8c31), de: (35365, 0x7be4e322abaac26f), result: "Ok(0x6d8da1e39165dc19)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"truncated stream\"))", (11903, 0x5008df779ebe316d)),
            ("Err(Malformed(\"bad varint\"))", (17805, 0x017117cb8cffdcfe)),
            ("Err(Malformed(\"truncated stream\"))", (35362, 0x27f82fa648609ad3)),
        ] },
    Row { backend: "JsonLike", graph: "Bayes", len: 127886, stream: 0x56802467aa0fdfc3,
        ser: (50774, 0xf02a0661ff3a1e2f), de: (102291, 0xcfac186616f69ad5), result: "Ok(0x6d8da1e39165dc19)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unexpected end of text\"))", (34575, 0x97c097888a0cc370)),
            ("Err(Malformed(\"unexpected end of text\"))", (51824, 0x86aa92bb87ec4f57)),
            ("Err(Malformed(\"unexpected end of text\"))", (102031, 0x3b2405896175a243)),
        ] },
    Row { backend: "JavaSd", graph: "LR", len: 71759, stream: 0x322409f6a89540d1,
        ser: (24101, 0x37ffa66c7dd756e2), de: (22562, 0x0e0ddef437757bf2), result: "Ok(0x5e7e5cccffbb1693)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (7540, 0xcd1e5d1184efc813)),
            ("Err(Malformed(\"truncated stream\"))", (11286, 0x186fc8ccd14c545e)),
            ("Err(Malformed(\"truncated stream\"))", (22558, 0x81ea7b2f760b24cd)),
        ] },
    Row { backend: "Kryo", graph: "LR", len: 68868, stream: 0x87299b0a3ee7efa3,
        ser: (22795, 0xe8b40446f6bbb02c), de: (22538, 0xd1098e0b2f2a2dd1), result: "Ok(0x5e7e5cccffbb1693)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (7530, 0x43f33132af1e3c36)),
            ("Err(Malformed(\"truncated stream\"))", (11270, 0x46999387dfd083a6)),
            ("Err(Malformed(\"truncated stream\"))", (22534, 0x8984865bf46dc7ae)),
        ] },
    Row { backend: "ProtoLike", graph: "LR", len: 68868, stream: 0x87299b0a3ee7efa3,
        ser: (29448, 0x21a7a7d77bd34aa5), de: (29448, 0x1c0c2934f089e584), result: "Ok(0x5e7e5cccffbb1693)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"truncated stream\"))", (9829, 0x1213dd12cd8b7ac1)),
            ("Err(Malformed(\"truncated stream\"))", (14725, 0x4aee999747d99211)),
            ("Err(Malformed(\"truncated stream\"))", (29445, 0xad91a18ff7115405)),
        ] },
    Row { backend: "JsonLike", graph: "LR", len: 182533, stream: 0xb8b425e090b46d38,
        ser: (48392, 0xc2180d7efb17c899), de: (81221, 0x91b86f12f9e5ed94), result: "Ok(0x5e7e5cccffbb1693)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unterminated token\"))", (27110, 0xc60cee22dad48d54)),
            ("Err(Malformed(\"unexpected end of text\"))", (40541, 0xda352ae233d0158d)),
            ("Err(Malformed(\"unexpected end of text\"))", (80961, 0xe957e02a99c81cdc)),
        ] },
    Row { backend: "JavaSd", graph: "Terasort", len: 35399, stream: 0x20caf4dfb921f8b9,
        ser: (17701, 0xb40af41791df4488), de: (15138, 0xeb71ca096ff21446), result: "Ok(0x391c9b05b72217a8)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (5045, 0x3887780cdb378b6d)),
            ("Err(Malformed(\"truncated stream\"))", (7574, 0xb476d7e03566f274)),
            ("Err(Malformed(\"truncated stream\"))", (15134, 0x32acdcc614198815)),
        ] },
    Row { backend: "Kryo", graph: "Terasort", len: 30724, stream: 0x4e65efcb0959d914,
        ser: (16139, 0x388a7975058614b7), de: (15626, 0x1765617802a14f90), result: "Ok(0x391c9b05b72217a8)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (5232, 0xac9d010f20f5932f)),
            ("Err(Malformed(\"truncated stream\"))", (7814, 0x612be4abf34fbc5c)),
            ("Err(Malformed(\"truncated stream\"))", (15622, 0x4ead0a687f94a8f8)),
        ] },
    Row { backend: "ProtoLike", graph: "Terasort", len: 36090, stream: 0x37222ad670effb0a,
        ser: (20744, 0x0f02224d2ba06b09), de: (20744, 0x9df981d10c4c6903), result: "Ok(0x391c9b05b72217a8)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"bad varint\"))", (6909, 0xcaf1a3ad9e14433b)),
            ("Err(Malformed(\"bad varint\"))", (10368, 0xd8c209fd00a3c9eb)),
            ("Err(Malformed(\"bad varint\"))", (20740, 0xecba905680690dc1)),
        ] },
    Row { backend: "JsonLike", graph: "Terasort", len: 98594, stream: 0x9f73a231cb6a47a1,
        ser: (26888, 0xd9a780a6ffe0e31f), de: (75589, 0x8f3f10a4160c95fa), result: "Ok(0x391c9b05b72217a8)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unterminated token\"))", (25286, 0xbb26cf5492a71c90)),
            ("Err(Malformed(\"unexpected end of text\"))", (37794, 0xb7a83ce68a1d20d7)),
            ("Err(Malformed(\"unexpected end of text\"))", (75329, 0xd84abdc115b1be10)),
        ] },
    Row { backend: "JavaSd", graph: "ALS", len: 37967, stream: 0x99f5f1a0e130dab8,
        ser: (15909, 0x85fda01e7fe17aa1), de: (14370, 0xaae8dc827ee5d1af), result: "Ok(0xb8c235c0e5ddf9b1)",
        cuts: [
            ("Err(Malformed(\"truncated stream\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated stream\"))", (4790, 0x90997812d9f0ec47)),
            ("Err(Malformed(\"truncated stream\"))", (7190, 0x1e9ac12f388f7b13)),
            ("Err(Malformed(\"truncated stream\"))", (14366, 0x24146c22751b80e4)),
        ] },
    Row { backend: "Kryo", graph: "ALS", len: 34773, stream: 0x79b3819a2ee6ceb5,
        ser: (14859, 0xdf97c71089498b1c), de: (14602, 0xec646a2235f0df77), result: "Ok(0xb8c235c0e5ddf9b1)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (3, 0xadfc43854c865a43)),
            ("Err(Malformed(\"truncated stream\"))", (4886, 0x4ba989570a5d70fd)),
            ("Err(Malformed(\"truncated stream\"))", (7302, 0x7d28db3cda701ce2)),
            ("Err(Malformed(\"truncated stream\"))", (14598, 0x6c875461a8a409f2)),
        ] },
    Row { backend: "ProtoLike", graph: "ALS", len: 34803, stream: 0x5234651308575663,
        ser: (17416, 0x2cb8825e477dface), de: (17416, 0x1f6fa2449ddc144a), result: "Ok(0xb8c235c0e5ddf9b1)",
        cuts: [
            ("Err(Malformed(\"bad varint\"))", (2, 0x30f7e1ff9429c895)),
            ("Err(Malformed(\"truncated stream\"))", (5820, 0x4123c1fdbc1c7ee1)),
            ("Err(Malformed(\"truncated stream\"))", (8709, 0xee1acb709294c8b3)),
            ("Err(Malformed(\"truncated stream\"))", (17413, 0xf6c1217eae6b0663)),
        ] },
    Row { backend: "JsonLike", graph: "ALS", len: 101893, stream: 0xa6a147ff3d91a87e,
        ser: (27912, 0x656605d527139c1a), de: (60741, 0x28942ce95153ba96), result: "Ok(0xb8c235c0e5ddf9b1)",
        cuts: [
            ("Err(Malformed(\"unexpected end of text\"))", (4, 0xf174fc0b68e7ebe4)),
            ("Err(Malformed(\"unterminated token\"))", (20290, 0xeb24cad2aa5421da)),
            ("Err(Malformed(\"unterminated token\"))", (30360, 0x6b7d6c63d66030c7)),
            ("Err(Malformed(\"unexpected end of text\"))", (60481, 0xe6d844a890501584)),
        ] },
    Row { backend: "Skyway", graph: "diamond", len: 256, stream: 0x878e1dd6ec47d82c,
        ser: (84, 0x007151f39e59ea2e), de: (80, 0x9a28b38cb189975f), result: "Ok(0xfed9db775820f7a8)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "diamond", len: 264, stream: 0x065cfee6c9d30f9b,
        ser: (77, 0x0e47dda9c73aaad0), de: (99, 0x248f305dab911a8b), result: "Ok(0xfed9db775820f7a8)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "cycle", len: 88, stream: 0xda89c3d52d7e72a0,
        ser: (34, 0xe01592d6d8479761), de: (31, 0x9108d140c6550c63), result: "Ok(0xa27b74f539891e65)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "cycle", len: 96, stream: 0xd2baeb78ea6a092f,
        ser: (29, 0x197613cfe2d4cb9e), de: (40, 0x69bae7fb4ce668d7), result: "Ok(0xa27b74f539891e65)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "arrays", len: 232, stream: 0xc8d19cdf793285b3,
        ser: (84, 0x40a3540889f62d13), de: (79, 0x0aaea6b70950a286), result: "Ok(0xdcdabf4eaf4c5f10)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "arrays", len: 240, stream: 0x070c80dd4f4b38dc,
        ser: (75, 0xde2e068262d3927c), de: (108, 0x2677365dcd939638), result: "Ok(0xdcdabf4eaf4c5f10)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "deep_list", len: 6008, stream: 0x72893592309aa90e,
        ser: (2402, 0x416a22374781e2af), de: (2250, 0xc7e6c0f3a3218bff), result: "Ok(0xd34c065a1fbeb462)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "deep_list", len: 6016, stream: 0x6d97bfeb28342771,
        ser: (2101, 0x10902bb2c3217e66), de: (2852, 0x90c0305332559186), result: "Ok(0xd34c065a1fbeb462)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "null_root", len: 8, stream: 0x21ae156a281a39c5,
        ser: (2, 0x67067b401265413b), de: (1, 0xcf6b02a6ec8d0b55), result: "Ok(0xcbf29ce484222325)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
        ] },
    Row { backend: "Archive", graph: "null_root", len: 16, stream: 0x21e8e447d9022016,
        ser: (1, 0xc77552dd1be3195c), de: (2, 0x8fb521c5d805189f), result: "Ok(0xcbf29ce484222325)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "Tree-narrow", len: 12200, stream: 0xe8ce389623ffc0ca,
        ser: (5082, 0x00d67149979d3992), de: (4826, 0x37b038a30d8f6bf3), result: "Ok(0xcb6eb1d750fe8585)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "Tree-narrow", len: 12208, stream: 0xe224ea0bb366b2e1,
        ser: (4573, 0x914a1bd5bfd80f6a), de: (6860, 0x87f42bf0aecef6db), result: "Ok(0xcb6eb1d750fe8585)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "Tree-wide", len: 56072, stream: 0x5b1855b9873d49f5,
        ser: (25698, 0xbabdc88e767311a2), de: (25112, 0xb2fd4e83392d1af7), result: "Ok(0xd27bbef80c67095e)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "Tree-wide", len: 56080, stream: 0x59149d9e0bdbe6ca,
        ser: (24529, 0xc1f9c0bb5229cd24), de: (43802, 0x357ea0536e0c6b45), result: "Ok(0xd27bbef80c67095e)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "List-small", len: 5128, stream: 0x1ff2165e15521b2a,
        ser: (2050, 0x86d9c54c5421a8ab), de: (1920, 0x1ff067b98c9123f0), result: "Ok(0x08c1c76ade366684)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "List-small", len: 5136, stream: 0x123c93ccae8dfc55,
        ser: (1793, 0x9e894d5bcc818cec), de: (2434, 0x2fbaf943391f05ef), result: "Ok(0x08c1c76ade366684)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "List-large", len: 20488, stream: 0x1b35df93bb5fba5c,
        ser: (8194, 0xc2c347f424c2523b), de: (7680, 0x891ab9a4887d170c), result: "Ok(0x05cec3e564a9a37a)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "List-large", len: 20496, stream: 0xb02d41089bccf207,
        ser: (7169, 0x3f64b5071417fadc), de: (9730, 0x818e590e53f72a7f), result: "Ok(0x05cec3e564a9a37a)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "Graph-sparse", len: 5712, stream: 0x6aa8555335458d10,
        ser: (2334, 0x7d23fc8ca53f85a8), de: (2266, 0x6643856457bde538), result: "Ok(0xdffa8797434c9ed8)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "Graph-sparse", len: 5720, stream: 0x07c96772d3a0ddf7,
        ser: (2073, 0xded4b60a755d2eaf), de: (3106, 0x33fa47b5091d7fc4), result: "Ok(0xdffa8797434c9ed8)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "Graph-dense", len: 37456, stream: 0x8cb730d7b596be96,
        ser: (18206, 0x261eeefa7398fb94), de: (22106, 0x9e9d21729cfa9dac), result: "Ok(0x539ddd1d1f33179a)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "Graph-dense", len: 37464, stream: 0x1bbc02096ac707f5,
        ser: (17945, 0x71524cfa2a8fa05f), de: (34850, 0xb3a892e91202847c), result: "Ok(0x539ddd1d1f33179a)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "media_content", len: 1048, stream: 0x6811690a56534fd9,
        ser: (352, 0x2e79ac831abb0f19), de: (335, 0x8fdebdcfacfd85a4), result: "Ok(0xc5e32975a2988ef1)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "media_content", len: 1056, stream: 0xb71f0ec48a89adce,
        ser: (321, 0x7699d9254dd772ee), de: (419, 0x9889b3a66baa4b42), result: "Ok(0xc5e32975a2988ef1)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "NWeight", len: 303936, stream: 0x6aaf32dc8b144182,
        ser: (109426, 0x1953bfe4458e0203), de: (103850, 0xbc6f7fe4d9e7d6f1), result: "Ok(0x462da0b87258eb12)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "NWeight", len: 303944, stream: 0x95ce5c2ddf12a885,
        ser: (98277, 0x0b4e835e9f63b1a4), de: (126658, 0x3b1d2ff1eb4ae51f), result: "Ok(0x462da0b87258eb12)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "SVM", len: 151592, stream: 0x8537c420a4dd946c,
        ser: (40974, 0x6be5743fb7fb3c9b), de: (40459, 0xa192cfebd962109b), result: "Ok(0x4f4c41fb10b06ad2)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "SVM", len: 151600, stream: 0x632933e2cbf5f6c3,
        ser: (39947, 0x1d1582527119ca76), de: (43023, 0x338fdd45b5c6651b), result: "Ok(0x4f4c41fb10b06ad2)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "Bayes", len: 95192, stream: 0x8abb2cfaa8dd5bba,
        ser: (28410, 0x4d3052dbb276d06a), de: (27639, 0xfce125a282916a73), result: "Ok(0x6d8da1e39165dc19)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "Bayes", len: 95200, stream: 0xcb1784eff402c421,
        ser: (26871, 0x069060d0281ec7ab), de: (31739, 0xaa3ce3841f3f0104), result: "Ok(0x6d8da1e39165dc19)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "LR", len: 86056, stream: 0x24352a49301abdde,
        ser: (24590, 0xb6dbf5132e0363e4), de: (24075, 0xb65096401115d3c6), result: "Ok(0x5e7e5cccffbb1693)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "LR", len: 86064, stream: 0xc6fa16812d9365e1,
        ser: (23563, 0x0818e46ab99cc71c), de: (26639, 0x7056d07554ed25f3), result: "Ok(0x5e7e5cccffbb1693)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "Terasort", len: 57384, stream: 0x372bc845a1e7e456,
        ser: (18958, 0xf624a2837999d561), de: (18187, 0x83641f1c6adb301d), result: "Ok(0x391c9b05b72217a8)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "Terasort", len: 57392, stream: 0xc44e87222da2c185,
        ser: (17419, 0x59b30b765c252f0e), de: (22287, 0x066159478f93e7eb), result: "Ok(0x391c9b05b72217a8)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
    Row { backend: "Skyway", graph: "ALS", len: 53288, stream: 0x726acfa3ba04c10d,
        ser: (16398, 0xaf9e74b2eda75979), de: (15883, 0xbc631d43c78c6edd), result: "Ok(0xb8c235c0e5ddf9b1)",
        cuts: [
            ("Err(Malformed(\"truncated header\"))", (0, 0xcbf29ce484222325)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
            ("Err(Malformed(\"body size mismatch\"))", (1, 0xcf6b02a6ec8d0b55)),
        ] },
    Row { backend: "Archive", graph: "ALS", len: 53296, stream: 0x05a93a4a73f7a216,
        ser: (15371, 0x9f375d626dfd266e), de: (18447, 0x5deec6d7273b4ab3), result: "Ok(0xb8c235c0e5ddf9b1)",
        cuts: [
            ("Err(Malformed(\"truncated archive header\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
            ("Err(Malformed(\"image size mismatch\"))", (2, 0x8fb521c5d805189f)),
        ] },
];

/// Cereal's functional model per graph and strip mode, for
/// [`cereal_functional_model_matches_the_frozen_table`].
#[rustfmt::skip]
const CEREAL: [CerealRow; 36] = [
    CerealRow { graph: "diamond", strip: false, len: 245, stream: 0x67b1ed9fbe4fdf38, su: 0xb098d308ec740d58,
        result: "Ok(0xfed9db775820f7a8)", du: 0x8def36f814f7eb2f },
    CerealRow { graph: "diamond", strip: true, len: 221, stream: 0x84e8638079c08b08, su: 0xa6d72ca9ca86b34f,
        result: "Ok(0xfed9db775820f7a8)", du: 0x6809dab84b16e8be },
    CerealRow { graph: "cycle", strip: false, len: 94, stream: 0x002fc888cbbcc798, su: 0x8facc6b708144eff,
        result: "Ok(0xa27b74f539891e65)", du: 0xcedb79c334ef92a6 },
    CerealRow { graph: "cycle", strip: true, len: 78, stream: 0x45880af2a248b560, su: 0xfad20332dcad1122,
        result: "Ok(0xa27b74f539891e65)", du: 0x78178d3f5b7d86ef },
    CerealRow { graph: "arrays", strip: false, len: 207, stream: 0x53028b9f0b7a8777, su: 0xe5b0d1bfec182b4b,
        result: "Ok(0xdcdabf4eaf4c5f10)", du: 0xa1732c5c73d98f7a },
    CerealRow { graph: "arrays", strip: true, len: 175, stream: 0xcde284cf2ae93db3, su: 0x090150b985378144,
        result: "Ok(0xdcdabf4eaf4c5f10)", du: 0x46faf9ef44206f5b },
    CerealRow { graph: "deep_list", strip: false, len: 4142, stream: 0xed87442af59ed498, su: 0x535c98cb03ed2630,
        result: "Ok(0xd34c065a1fbeb462)", du: 0x69fa9c6f33f0f62e },
    CerealRow { graph: "deep_list", strip: true, len: 2942, stream: 0xa21392af725c6ecb, su: 0x1947a1a6d5af80b7,
        result: "Ok(0xd34c065a1fbeb462)", du: 0x0ffcf344d67d10cd },
    CerealRow { graph: "null_root", strip: false, len: 40, stream: 0x5668df0f6dd2618f, su: 0x0dc30b7ee7d61b2d,
        result: "Ok(0xcbf29ce484222325)", du: 0xd92665f492a81332 },
    CerealRow { graph: "null_root", strip: true, len: 40, stream: 0x5668df0f6dd2618f, su: 0x0dc30b7ee7d61b2d,
        result: "Ok(0xcbf29ce484222325)", du: 0xd92665f492a81332 },
    CerealRow { graph: "Tree-narrow", strip: false, len: 7276, stream: 0x8d93c62f47961a9d, su: 0x4ffec2be3a24d0fe,
        result: "Ok(0xcb6eb1d750fe8585)", du: 0x0918dcd4dbb3e7d3 },
    CerealRow { graph: "Tree-narrow", strip: true, len: 5244, stream: 0x46fb574e359b008e, su: 0x4cce7b5a9ce3e5e3,
        result: "Ok(0xcb6eb1d750fe8585)", du: 0x46126f0a45b4a77e },
    CerealRow { graph: "Tree-wide", strip: false, len: 21553, stream: 0x71b44aad0105aff5, su: 0xe1f75eca95904b89,
        result: "Ok(0xd27bbef80c67095e)", du: 0x17b49340b54b7b80 },
    CerealRow { graph: "Tree-wide", strip: true, len: 16881, stream: 0xd2718907d630d8b8, su: 0x492814e7c79c2613,
        result: "Ok(0xd27bbef80c67095e)", du: 0x0a0f4e1c4c72049e },
    CerealRow { graph: "List-small", strip: false, len: 3540, stream: 0xe967fad707b67116, su: 0x10b29c80e76c6457,
        result: "Ok(0x08c1c76ade366684)", du: 0xc28901ab206b8c69 },
    CerealRow { graph: "List-small", strip: true, len: 2516, stream: 0x9d52abaec4815ecc, su: 0xfc190e2872c0545b,
        result: "Ok(0x08c1c76ade366684)", du: 0x162ce4a5fdc80fdd },
    CerealRow { graph: "List-large", strip: false, len: 14052, stream: 0x4590b55812ce30a1, su: 0x21823a469bdd9eb5,
        result: "Ok(0x05cec3e564a9a37a)", du: 0x432c2e13b37b674d },
    CerealRow { graph: "List-large", strip: true, len: 9956, stream: 0x40b94d7dac77724b, su: 0x5e9038100efbca52,
        result: "Ok(0x05cec3e564a9a37a)", du: 0x41b963d1ab57d52a },
    CerealRow { graph: "Graph-sparse", strip: false, len: 3750, stream: 0x8111c32524f57b53, su: 0xd72c14215cac4528,
        result: "Ok(0xdffa8797434c9ed8)", du: 0xa471e83b80f66d41 },
    CerealRow { graph: "Graph-sparse", strip: true, len: 2710, stream: 0x90b3af367727c53e, su: 0xfef9630d9221e782,
        result: "Ok(0xdffa8797434c9ed8)", du: 0xc47c6b1ffecde1a1 },
    CerealRow { graph: "Graph-dense", strip: false, len: 13263, stream: 0x08eb7f16aeee23c8, su: 0x5ea470a32d35659c,
        result: "Ok(0x539ddd1d1f33179a)", du: 0xb151b5c3e2872925 },
    CerealRow { graph: "Graph-dense", strip: true, len: 12223, stream: 0x923fb856fd438a93, su: 0x61dd3f4ccebc7366,
        result: "Ok(0x539ddd1d1f33179a)", du: 0xaeeb204d3bbb71f5 },
    CerealRow { graph: "media_content", strip: false, len: 899, stream: 0x84ee788a3bde7124, su: 0xf49f3c8902d2c68d,
        result: "Ok(0xc5e32975a2988ef1)", du: 0x745aa64d6f6a7d6f },
    CerealRow { graph: "media_content", strip: true, len: 779, stream: 0x43de7baeb1b393ac, su: 0xdbf43441af35f62a,
        result: "Ok(0xc5e32975a2988ef1)", du: 0x13ed80d15aa97e41 },
    CerealRow { graph: "NWeight", strip: false, len: 240228, stream: 0x2e1cc8031cf042f8, su: 0x41e31a672c336f7c,
        result: "Ok(0x462da0b87258eb12)", du: 0xca55834cc93162da },
    CerealRow { graph: "NWeight", strip: true, len: 195636, stream: 0x8ea4d5fb5a5440ae, su: 0x71f760f59cacb70c,
        result: "Ok(0x462da0b87258eb12)", du: 0x7ec9727e123eebb4 },
    CerealRow { graph: "SVM", strip: false, len: 147740, stream: 0x7f3ea2d61d647ff6, su: 0xa488e2084710e47e,
        result: "Ok(0x4f4c41fb10b06ad2)", du: 0x98330954c3d48b53 },
    CerealRow { graph: "SVM", strip: true, len: 143636, stream: 0x494ec794e4d60319, su: 0xdb948e039e74a41f,
        result: "Ok(0x4f4c41fb10b06ad2)", du: 0x4ae843735b04aef7 },
    CerealRow { graph: "Bayes", strip: false, len: 87182, stream: 0xb5b1f42bec29163e, su: 0x5f388bfffaa08d5d,
        result: "Ok(0x6d8da1e39165dc19)", du: 0x3fc3960db7f39212 },
    CerealRow { graph: "Bayes", strip: true, len: 81030, stream: 0xadbc7c422b5310d0, su: 0x10ebf0ee9b3f7015,
        result: "Ok(0x6d8da1e39165dc19)", du: 0xcf0382f01c20094f },
    CerealRow { graph: "LR", strip: false, len: 81015, stream: 0xb8deb869392fc173, su: 0x7a47c31939174431,
        result: "Ok(0x5e7e5cccffbb1693)", du: 0xa18a1a0abc8e6ae8 },
    CerealRow { graph: "LR", strip: true, len: 76911, stream: 0x12ef1e0637edb1b2, su: 0x44d8e2b89924081f,
        result: "Ok(0x5e7e5cccffbb1693)", du: 0xb56aa030ff94054f },
    CerealRow { graph: "Terasort", strip: false, len: 48640, stream: 0xd1031924e4f4cfa6, su: 0xf6be230971fade4e,
        result: "Ok(0x391c9b05b72217a8)", du: 0x66ccdaf8c61f154a },
    CerealRow { graph: "Terasort", strip: true, len: 42488, stream: 0xfca318cbf1614150, su: 0xc98b11377d579e84,
        result: "Ok(0x391c9b05b72217a8)", du: 0x8c398de47e283a5d },
    CerealRow { graph: "ALS", strip: false, len: 47606, stream: 0x33276266258e612f, su: 0x5aa28f1ff4ab3959,
        result: "Ok(0xb8c235c0e5ddf9b1)", du: 0xf271d033f07e205b },
    CerealRow { graph: "ALS", strip: true, len: 43502, stream: 0x6af64c4b681e4d8c, su: 0xa389ee2f387248b9,
        result: "Ok(0xb8c235c0e5ddf9b1)", du: 0x43dbd7ab45e48f86 },
];
