//! Seeded randomized tests for the Cereal format primitives.
//!
//! Formerly proptest properties; now deterministic loops over the
//! in-repo PRNG so the suite runs offline with no external crates. Each
//! test fixes its seed, so a failure reproduces exactly.

use sdformat::pack::{Packed, Packer, Unpacker};
use sdformat::stream::{decode_ref, encode_ref, CerealStream};
use sdformat::varint::{read_varint, write_varint};
use sdformat::{BitReader, BitWriter};
use sdheap::rng::Rng;

fn random_values(rng: &mut Rng, max_len: usize) -> Vec<u64> {
    let len = rng.gen_range_usize(0, max_len + 1);
    (0..len)
        .map(|_| {
            // Mix widths so small and full-width values both appear.
            let v = rng.next_u64();
            v >> rng.gen_range_u64(0, 64)
        })
        .collect()
}

fn random_bits(rng: &mut Rng, max_len: usize) -> Vec<bool> {
    let len = rng.gen_range_usize(0, max_len + 1);
    (0..len).map(|_| rng.gen_bool(0.5)).collect()
}

/// Any sequence of u64 values survives pack → unpack.
#[test]
fn pack_roundtrips_values() {
    let mut rng = Rng::new(0xF0_0001);
    for _ in 0..200 {
        let values = random_values(&mut rng, 200);
        let packed = Packed::from_values(values.iter().copied());
        assert_eq!(packed.to_values(), values);
    }
}

/// Any sequence of bit strings (layout bitmaps) survives pack → unpack,
/// leading zeros included.
#[test]
fn pack_roundtrips_bitmaps() {
    let mut rng = Rng::new(0xF0_0002);
    for _ in 0..100 {
        let bitmaps: Vec<Vec<bool>> = (0..rng.gen_range_usize(0, 50))
            .map(|_| random_bits(&mut rng, 100))
            .collect();
        let mut p = Packer::new();
        for bm in &bitmaps {
            p.push_bits(bm);
        }
        let packed = p.finish();
        let mut u = Unpacker::new(&packed);
        for bm in &bitmaps {
            assert_eq!(u.next_item().as_deref(), Some(bm.as_slice()));
        }
        assert_eq!(u.next_item(), None);
    }
}

/// Mixed values and bit strings unpack in order.
#[test]
fn pack_mixed_items() {
    let mut rng = Rng::new(0xF0_0003);
    for _ in 0..100 {
        let items: Vec<Result<Vec<bool>, u64>> = (0..rng.gen_range_usize(0, 60))
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Err(rng.next_u64() >> rng.gen_range_u64(0, 64))
                } else {
                    Ok(random_bits(&mut rng, 40))
                }
            })
            .collect();
        let mut p = Packer::new();
        for item in &items {
            match item {
                Err(v) => p.push_value(*v),
                Ok(bits) => p.push_bits(bits),
            }
        }
        let packed = p.finish();
        let mut u = Unpacker::new(&packed);
        for item in &items {
            match item {
                Err(v) => assert_eq!(u.next_value(), Some(*v)),
                Ok(bits) => assert_eq!(u.next_item().as_deref(), Some(bits.as_slice())),
            }
        }
    }
}

/// Packed size never exceeds the naive 9-bytes-per-value bound and the
/// end map covers exactly the payload.
#[test]
fn pack_size_bounds() {
    let mut rng = Rng::new(0xF0_0004);
    for _ in 0..200 {
        let mut values = random_values(&mut rng, 99);
        values.push(rng.next_u64()); // at least one
        let packed = Packed::from_values(values.iter().copied());
        assert!(packed.bytes.len() <= values.len() * 9);
        assert!(packed.bytes.len() >= values.len()); // ≥ 1 byte per item
        assert_eq!(packed.end_map.len(), packed.bytes.len());
        assert_eq!(packed.end_map.item_count(), values.len());
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Frozen packed stream for 4096 fixed-seed values of every width from
/// 1 to 64 bits: payload length and FNV-1a-64, end-map length and
/// FNV-1a-64. Recorded while the bit-by-bit reference packer still
/// checked the same stream, so it stands in for that packer. A
/// word-at-a-time `next_set` scan must find every item boundary.
#[test]
fn pack_matches_frozen_stream() {
    let mut rng = Rng::new(0x5EED_CAFE);
    let values: Vec<u64> = (0..4096)
        .map(|_| {
            let width = rng.gen_range_u64(1, 65) as u32;
            rng.next_u64() >> (64 - width)
        })
        .collect();
    let packed = Packed::from_values(values.iter().copied());
    let map = &packed.end_map;
    assert_eq!(
        (
            packed.bytes.len(),
            fnv1a(&packed.bytes),
            map.len(),
            fnv1a(map.as_bytes())
        ),
        (18176, 0x0a4f_e5af_10c0_690a, 18176, 0x5066_3302_f1fd_07b4),
        "packed stream drifted"
    );
    let (mut pos, mut items) = (0, 0);
    while let Some(end) = map.next_set(pos, map.len()) {
        items += 1;
        pos = end + 1;
    }
    assert_eq!((items, pos), (values.len(), map.len()));
    assert_eq!(packed.to_values(), values);
}

/// Varints roundtrip.
#[test]
fn varint_roundtrip() {
    let mut rng = Rng::new(0xF0_0005);
    for _ in 0..200 {
        let values = random_values(&mut rng, 100);
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            let (decoded, next) = read_varint(&buf, pos).unwrap();
            assert_eq!(decoded, v);
            pos = next;
        }
        assert_eq!(pos, buf.len());
    }
}

/// Bit streams roundtrip arbitrary bit patterns.
#[test]
fn bitio_roundtrip() {
    let mut rng = Rng::new(0xF0_0006);
    for _ in 0..200 {
        let bits = random_bits(&mut rng, 500);
        let mut w = BitWriter::new();
        w.push_slice(&bits);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &b in &bits {
            assert_eq!(r.next_bit(), Some(b));
        }
    }
}

/// Reference encoding is a bijection between Option<u32> and its codes.
#[test]
fn ref_encoding_bijective() {
    let mut rng = Rng::new(0xF0_0007);
    assert_eq!(decode_ref(encode_ref(None)), None);
    for _ in 0..1000 {
        let rel = Some(rng.next_u64() as u32);
        assert_eq!(decode_ref(encode_ref(rel)), rel);
    }
}

/// Stream wire encoding roundtrips for arbitrary section contents.
#[test]
fn stream_wire_roundtrip() {
    let mut rng = Rng::new(0xF0_0008);
    for _ in 0..100 {
        let words = random_values(&mut rng, 50);
        let refs: Vec<Option<u32>> = (0..rng.gen_range_usize(0, 50))
            .map(|_| {
                if rng.gen_bool(0.2) {
                    None
                } else {
                    Some(rng.next_u64() as u32)
                }
            })
            .collect();
        let bitmaps: Vec<Vec<bool>> = (0..rng.gen_range_usize(0, 20))
            .map(|_| {
                let len = rng.gen_range_usize(1, 30);
                (0..len).map(|_| rng.gen_bool(0.5)).collect()
            })
            .collect();
        let mut value_array = Vec::new();
        for w in &words {
            value_array.extend_from_slice(&w.to_le_bytes());
        }
        let mut rp = Packer::new();
        for &r in &refs {
            rp.push_value(encode_ref(r));
        }
        let mut bp = Packer::new();
        for bm in &bitmaps {
            bp.push_bits(bm);
        }
        let s = CerealStream {
            total_object_bytes: (words.len() * 8) as u32,
            object_count: bitmaps.len() as u32,
            value_array,
            refs: rp.finish(),
            bitmaps: bp.finish(),
        };
        let decoded = CerealStream::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(&decoded, &s);
        // Unpacked refs survive the full wire trip.
        let decoded_refs: Vec<_> = decoded
            .refs
            .to_items()
            .iter()
            .map(|bits| bits.iter().fold(0u64, |a, &b| (a << 1) | u64::from(b)))
            .map(decode_ref)
            .collect();
        assert_eq!(decoded_refs, refs);
    }
}
