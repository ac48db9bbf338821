//! Golden tests pinning the archive wire format for the canonical
//! graphs (mirroring the workspace's `tests/golden_serde.rs`), so the
//! format cannot drift
//! silently: any layout, header, encoding or ordering change must show
//! up here as an explicit diff against pinned words.
//!
//! Wire format v1 (all little-endian):
//! - 16-byte header: magic `"ARCV"`, version u32 = 1, image bytes u32,
//!   record count u32;
//! - image: records in depth-first reachability order from the root,
//!   root first; each record is the object's words with the klass
//!   pointer replaced by the integer klass id, the ext word zeroed,
//!   and every reference slot holding `target_image_offset + 1`
//!   (0 = null). The mark word (identity hash) travels verbatim.

use sdheap::builder::Init;
use sdheap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};
use serializers::{Archive, ArchiveView, NullSink, Serializer};

type Graph = (Heap, KlassRegistry, Addr);

/// Mixed-width fields with interleaved refs, diamond sharing of a value
/// array (same graph as `golden_serde`'s `diamond`).
fn diamond() -> Graph {
    let mut b = GraphBuilder::new(1 << 18);
    let m = b.klass(
        "Mixed",
        vec![
            FieldKind::Value(ValueType::Long),
            FieldKind::Value(ValueType::Int),
            FieldKind::Value(ValueType::Char),
            FieldKind::Value(ValueType::Byte),
            FieldKind::Ref,
            FieldKind::Value(ValueType::Boolean),
            FieldKind::Value(ValueType::Double),
            FieldKind::Ref,
            FieldKind::Value(ValueType::Int),
        ],
    );
    let d = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
    let shared = b
        .value_array(d, &[f64::to_bits(1.5), f64::to_bits(-2.25), 0])
        .unwrap();
    let left = b
        .object(
            m,
            &[
                Init::Val(0x0123_4567_89ab_cdef),
                Init::Val(0xffff_fffe),
                Init::Val(0x41),
                Init::Val(0x7f),
                Init::Ref(shared),
                Init::Val(1),
                Init::Val(f64::to_bits(0.5)),
                Init::Null,
                Init::Val(42),
            ],
        )
        .unwrap();
    let root = b
        .object(
            m,
            &[
                Init::Val(1),
                Init::Val(2),
                Init::Val(3),
                Init::Val(4),
                Init::Ref(left),
                Init::Val(0),
                Init::Val(f64::to_bits(-3.75)),
                Init::Ref(shared),
                Init::Val(5),
            ],
        )
        .unwrap();
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// A two-node cycle (back references must encode like any other).
fn cycle() -> Graph {
    let mut b = GraphBuilder::new(1 << 16);
    let k = b.klass("C", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
    let a = b.object(k, &[Init::Val(1), Init::Null]).unwrap();
    let c = b.object(k, &[Init::Val(2), Init::Ref(a)]).unwrap();
    let (mut heap, reg) = b.finish();
    heap.set_ref(a, 1, c);
    (heap, reg, c)
}

/// Value arrays of every width class plus a ref array with nulls and
/// sharing.
fn arrays() -> Graph {
    let mut b = GraphBuilder::new(1 << 18);
    let l = b.array_klass("long[]", FieldKind::Value(ValueType::Long));
    let d = b.array_klass("double[]", FieldKind::Value(ValueType::Double));
    let o = b.array_klass("Object[]", FieldKind::Ref);
    let longs = b.value_array(l, &[0, 1, u64::MAX, 300, 1 << 40]).unwrap();
    let doubles = b
        .value_array(d, &[f64::to_bits(0.0), f64::to_bits(6.25e3)])
        .unwrap();
    let empty = b.value_array(l, &[]).unwrap();
    let root = b
        .ref_array(o, &[longs, Addr::NULL, doubles, longs, empty])
        .unwrap();
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

/// A linked list deep enough that the record walk covers many records.
fn deep_list() -> Graph {
    let mut b = GraphBuilder::new(1 << 20);
    let k = b.klass("L", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
    let mut head = b.object(k, &[Init::Val(0), Init::Null]).unwrap();
    for i in 1..150u64 {
        head = b.object(k, &[Init::Val(i), Init::Ref(head)]).unwrap();
    }
    let (heap, reg) = b.finish();
    (heap, reg, head)
}

/// A registry with klasses but a null root.
fn null_root() -> Graph {
    let mut b = GraphBuilder::new(1 << 12);
    b.klass("N", vec![FieldKind::Value(ValueType::Long)]);
    let (heap, reg) = b.finish();
    (heap, reg, Addr::NULL)
}

fn archive(g: &mut Graph) -> Vec<u8> {
    let (heap, reg, root) = g;
    heap.gc_clear_serialization_metadata(reg);
    Archive::new()
        .serialize(heap, reg, *root, &mut NullSink)
        .expect("archive")
}

/// Splits a stream into its header and its image as u64 words.
fn parts(bytes: &[u8]) -> ([u8; 16], Vec<u64>) {
    let header: [u8; 16] = bytes[..16].try_into().unwrap();
    let words = bytes[16..]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    (header, words)
}

fn header_of(image_bytes: u32, records: u32) -> [u8; 16] {
    let mut h = [0u8; 16];
    h[..4].copy_from_slice(b"ARCV");
    h[4..8].copy_from_slice(&1u32.to_le_bytes());
    h[8..12].copy_from_slice(&image_bytes.to_le_bytes());
    h[12..16].copy_from_slice(&records.to_le_bytes());
    h
}

/// FNV-1a over the whole stream — the drift tripwire for graphs too
/// large to pin word by word.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// The null-root archive is exactly one empty header.
#[test]
fn golden_null_root() {
    let bytes = archive(&mut null_root());
    assert_eq!(bytes, header_of(0, 0));
}

/// Two 5-word records; the back edge encodes as `offset(root) + 1 = 1`
/// and the forward edge as `offset(a) + 1 = 41`.
#[test]
fn golden_cycle() {
    let bytes = archive(&mut cycle());
    let (header, words) = parts(&bytes);
    assert_eq!(header, header_of(80, 2));
    assert_eq!(
        words,
        vec![
            // root record `c` at offset 0: {long = 2, ref -> a @ 40}
            0x0000_0000_128a_9e00, // mark word (identity hash, verbatim)
            0,                     // klass id "C"
            0,                     // ext word zeroed
            2,
            41,
            // record `a` at offset 40: {long = 1, ref -> c @ 0}
            0x0000_0043_72cb_e800,
            0,
            0,
            1,
            1,
        ]
    );
}

/// Depth-first order: root Object[5] first, then its targets in element
/// order (shared `longs` emits once, at first visit).
#[test]
fn golden_arrays() {
    let bytes = archive(&mut arrays());
    let (header, words) = parts(&bytes);
    assert_eq!(header, header_of(224, 4));
    assert_eq!(
        words,
        vec![
            // Object[5] at 0: refs encode as target offset + 1.
            0x0000_00a3_50e9_3600, // mark word (identity hash)
            2,                     // klass id "Object[]"
            0,                     // ext word zeroed
            5,
            73,  // -> longs @ 72
            0,   // null
            145, // -> doubles @ 144
            73,  // -> longs again (sharing, same target)
            193, // -> empty @ 192
            // long[5] at 72.
            0x0000_0043_72cb_e800,
            0, // klass id "long[]"
            0,
            5,
            0,
            1,
            u64::MAX,
            300,
            1 << 40,
            // double[2] at 144.
            0x0000_0000_128a_9e00,
            1, // klass id "double[]"
            0,
            2,
            f64::to_bits(0.0),
            f64::to_bits(6.25e3),
            // long[0] at 192.
            0x0000_00e4_9903_d800,
            0,
            0,
            0,
        ]
    );
}

/// Instance records: nine declared fields in declaration order, refs
/// inline among the primitives exactly where the class declares them.
#[test]
fn golden_diamond() {
    let bytes = archive(&mut diamond());
    let (header, words) = parts(&bytes);
    assert_eq!(header, header_of(248, 3));
    assert_eq!(
        words,
        vec![
            // root Mixed at 0; ref fields 4 -> left @ 96, 7 -> shared @ 192.
            0x0000_00e4_9903_d800, // mark word (identity hash)
            0,                     // klass id "Mixed"
            0,                     // ext word zeroed
            1,
            2,
            3,
            4,
            97,
            0,
            f64::to_bits(-3.75),
            193,
            5,
            // left Mixed at 96; ref field 4 -> shared @ 192, field 7 null.
            0x0000_0000_128a_9e00,
            0,
            0,
            0x0123_4567_89ab_cdef,
            0xffff_fffe,
            0x41,
            0x7f,
            193,
            1,
            f64::to_bits(0.5),
            0,
            42,
            // shared double[3] at 192.
            0x0000_0043_72cb_e800,
            1, // klass id "double[]"
            0,
            3,
            f64::to_bits(1.5),
            f64::to_bits(-2.25),
            0,
        ]
    );
}

/// 150 list nodes: pinned by total shape, first/last record, and a
/// whole-stream fingerprint.
#[test]
fn golden_deep_list() {
    let bytes = archive(&mut deep_list());
    let (header, words) = parts(&bytes);
    assert_eq!(header, header_of(6000, 150));
    assert_eq!(words.len(), 750);
    // Root is the list head (value 149), pointing at the next node,
    // which the depth-first order places immediately after it.
    assert_eq!(words[3], 149);
    assert_eq!(words[4], 41);
    // The tail (value 0) is the last record; its next is null.
    assert_eq!(words[748], 0);
    assert_eq!(words[749], 0);
    assert_eq!(
        fnv1a(&bytes),
        0x6d97_bfeb_2834_2771,
        "whole-stream fingerprint"
    );
}

/// The pinned streams really are valid, fresh-looking archives: they
/// validate and reconstruct (sanity for the goldens themselves).
#[test]
fn goldens_validate() {
    for mut g in [diamond(), cycle(), arrays(), deep_list()] {
        let bytes = archive(&mut g);
        let view = ArchiveView::validate(&bytes, &g.1, &mut NullSink).expect("golden validates");
        assert!(view.object_count() > 0);
    }
}
