//! Seeded adversarial-input properties for the zero-copy archive:
//! [`ArchiveView::validate`] must never panic and never grant
//! out-of-bounds access, no matter how a valid archive is mutated.
//!
//! Validation proves *structure* (bounds, alignment, record acyclicity,
//! klass tags, reference targets); it deliberately does not checksum
//! payload words — that is the CRC frame's job one layer up. So the
//! properties split by mutation family:
//!
//! - **truncate / extend / header flips** break the structure the
//!   format self-describes → a typed [`ArchiveError`] every time;
//! - **arbitrary byte flips** either yield a typed error or leave a
//!   structurally valid archive (a payload flip), in which case every
//!   access the view serves — a full-image fold and a complete
//!   reconstruction — must stay in bounds and panic-free;
//! - **random garbage** never validates and never panics.

use sdheap::builder::Init;
use sdheap::rng::Rng;
use sdheap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};
use serializers::{Archive, ArchiveError, ArchiveView, NullSink, Serializer};

/// A compact recipe for a random object graph (same shape as
/// `prop_roundtrip`): per node a class pick, a value, and up to three
/// edges into the node list, allowing sharing and cycles.
struct GraphRecipe {
    nodes: Vec<(u8, u64, [u8; 3])>,
}

fn random_recipe(rng: &mut Rng) -> GraphRecipe {
    let n = rng.gen_range_usize(1, 40);
    GraphRecipe {
        nodes: (0..n)
            .map(|_| {
                let pick = rng.next_u64() as u8;
                let value = rng.next_u64();
                let edges = [
                    rng.next_u64() as u8,
                    rng.next_u64() as u8,
                    rng.next_u64() as u8,
                ];
                (pick, value, edges)
            })
            .collect(),
    }
}

/// Builds a heap from a recipe. Classes:
/// 0: {long, ref}  1: {ref, ref, int}  2: {long}  3: ref-array of up to 3
fn build(recipe: &GraphRecipe) -> (Heap, KlassRegistry, Addr) {
    let mut b = GraphBuilder::new(1 << 22);
    let k0 = b.klass("A", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
    let k1 = b.klass(
        "B",
        vec![FieldKind::Ref, FieldKind::Ref, FieldKind::Value(ValueType::Int)],
    );
    let k2 = b.klass("C", vec![FieldKind::Value(ValueType::Long)]);
    let k3 = b.array_klass("Object[]", FieldKind::Ref);

    let mut addrs = Vec::with_capacity(recipe.nodes.len());
    for &(pick, value, edges) in &recipe.nodes {
        let addr = match pick % 4 {
            0 => b.object(k0, &[Init::Val(value), Init::Null]).unwrap(),
            1 => b
                .object(k1, &[Init::Null, Init::Null, Init::Val(value & 0xffff_ffff)])
                .unwrap(),
            2 => b.object(k2, &[Init::Val(value)]).unwrap(),
            _ => {
                let len = (edges[0] % 4) as usize;
                b.ref_array(k3, &vec![Addr::NULL; len]).unwrap()
            }
        };
        addrs.push(addr);
    }
    let n = addrs.len();
    for (i, &(pick, _, edges)) in recipe.nodes.iter().enumerate() {
        let target = |e: u8| -> Addr {
            if e == 0 {
                Addr::NULL
            } else {
                addrs[(e as usize) % n]
            }
        };
        match pick % 4 {
            0 => b.link(addrs[i], 1, target(edges[0])),
            1 => {
                b.link(addrs[i], 0, target(edges[0]));
                b.link(addrs[i], 1, target(edges[1]));
            }
            2 => {}
            _ => {
                let len = (edges[0] % 4) as usize;
                for (slot, &e) in edges.iter().take(len).enumerate() {
                    b.set_array_ref(addrs[i], slot, target(e));
                }
            }
        }
    }
    let root = addrs[0];
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

fn archive_of(heap: &mut Heap, reg: &KlassRegistry, root: Addr) -> Vec<u8> {
    heap.gc_clear_serialization_metadata(reg);
    Archive::new()
        .serialize(heap, reg, root, &mut NullSink)
        .expect("valid graphs always archive")
}

/// Exhaustively exercises every access path a validated view offers —
/// the full-image fold and a complete reconstruction — and must return
/// without panicking for any structurally valid archive.
fn walk_everything(bytes: &[u8], reg: &KlassRegistry) {
    let view = ArchiveView::validate(bytes, reg, &mut NullSink).expect("caller checked Ok");
    let _ = view.fold_words(&mut NullSink);
    for i in 0..view.object_count() {
        let obj = view.starts()[i as usize];
        let _ = view.klass_id(obj);
        let _ = view.mark_word(obj);
    }
    drop(view);
    // Reconstruction touches every word and rebases every reference.
    let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 22);
    let _ = Archive::new().deserialize(bytes, reg, &mut dst, &mut NullSink);
}

const CASES: usize = 24;

/// Arbitrary single-byte flips: a typed error, or a payload-only change
/// that every access path survives. Never a panic.
#[test]
fn flipped_archives_error_or_stay_bounded() {
    let mut rng = Rng::new(0xA7C4_0001);
    for case in 0..CASES {
        let (mut heap, reg, root) = build(&random_recipe(&mut rng));
        let bytes = archive_of(&mut heap, &reg, root);
        for _ in 0..16 {
            let mut bad = bytes.clone();
            let pos = rng.gen_range_usize(0, bad.len());
            let mask = (rng.next_u64() as u8) | 1;
            bad[pos] ^= mask;
            match ArchiveView::validate(&bad, &reg, &mut NullSink) {
                // Typed rejection: rendering it exercises Display.
                Err(e) => assert!(!e.to_string().is_empty(), "case {case}"),
                // A payload flip: structure intact, access must stay
                // in bounds through a full fold and reconstruction.
                Ok(view) => {
                    drop(view);
                    walk_everything(&bad, &reg);
                }
            }
        }
    }
}

/// Truncation at any point is always a typed error: below the header it
/// cannot parse, inside the image the self-described sizes no longer
/// land on the declared end.
#[test]
fn truncated_archives_always_error() {
    let mut rng = Rng::new(0xA7C4_0002);
    for case in 0..CASES {
        let (mut heap, reg, root) = build(&random_recipe(&mut rng));
        let bytes = archive_of(&mut heap, &reg, root);
        for _ in 0..8 {
            let cut = rng.gen_range_usize(0, bytes.len());
            let err = ArchiveView::validate(&bytes[..cut], &reg, &mut NullSink)
                .map(|v| v.object_count())
                .expect_err("truncated archive must not validate");
            assert!(!err.to_string().is_empty(), "case {case} cut {cut}");
        }
    }
}

/// Trailing garbage is always a typed error: the declared image size
/// must match the buffer exactly, so no access past the image can ever
/// be justified by padding.
#[test]
fn extended_archives_always_error() {
    let mut rng = Rng::new(0xA7C4_0003);
    for case in 0..CASES {
        let (mut heap, reg, root) = build(&random_recipe(&mut rng));
        let bytes = archive_of(&mut heap, &reg, root);
        for _ in 0..8 {
            let mut bad = bytes.clone();
            let extra = rng.gen_range_usize(1, 64);
            for _ in 0..extra {
                bad.push(rng.next_u64() as u8);
            }
            let err = ArchiveView::validate(&bad, &reg, &mut NullSink)
                .map(|v| v.object_count())
                .expect_err("extended archive must not validate");
            assert!(!err.to_string().is_empty(), "case {case} extra {extra}");
        }
    }
}

/// Every flip inside the 16-byte header is a typed error: magic,
/// version, image size and record count are all load-bearing.
#[test]
fn header_flips_always_error() {
    let mut rng = Rng::new(0xA7C4_0004);
    for case in 0..CASES {
        let (mut heap, reg, root) = build(&random_recipe(&mut rng));
        let bytes = archive_of(&mut heap, &reg, root);
        for pos in 0..16 {
            let mut bad = bytes.clone();
            bad[pos] ^= (rng.next_u64() as u8) | 1;
            let err = ArchiveView::validate(&bad, &reg, &mut NullSink)
                .map(|v| v.object_count())
                .expect_err("header-corrupt archive must not validate");
            assert!(!err.to_string().is_empty(), "case {case} pos {pos}");
        }
    }
}

/// Random byte soups never validate and never panic — the magic alone
/// rejects them, and shorter-than-header inputs are typed truncations.
#[test]
fn garbage_never_validates() {
    let mut rng = Rng::new(0xA7C4_0005);
    let (_heap, reg, _root) = build(&random_recipe(&mut Rng::new(1)));
    for case in 0..256 {
        let len = rng.gen_range_usize(0, 512);
        let soup: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let err = ArchiveView::validate(&soup, &reg, &mut NullSink)
            .map(|v| v.object_count())
            .expect_err("garbage must not validate");
        assert!(!err.to_string().is_empty(), "case {case}");
    }
}

/// A header-only archive that declares `u32::MAX` records over an empty
/// image is a typed count mismatch: the declared count never sizes an
/// allocation before the walk has checked it.
#[test]
fn hostile_record_count_is_a_typed_error() {
    let (_heap, reg, _root) = build(&random_recipe(&mut Rng::new(1)));
    let mut evil = Vec::with_capacity(16);
    evil.extend_from_slice(b"ARCV");
    evil.extend_from_slice(&1u32.to_le_bytes());
    evil.extend_from_slice(&0u32.to_le_bytes());
    evil.extend_from_slice(&u32::MAX.to_le_bytes());
    let err = ArchiveView::validate(&evil, &reg, &mut NullSink)
        .map(|v| v.object_count())
        .expect_err("hostile count must not validate");
    assert_eq!(
        err,
        ArchiveError::CountMismatch {
            declared: u32::MAX,
            walked: 0
        }
    );
}
