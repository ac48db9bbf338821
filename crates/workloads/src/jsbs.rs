//! The JSBS media-content object (paper §VI-C, Fig. 12).
//!
//! The Java Serialization Benchmark Suite repeatedly serializes one
//! predefined "media content" object with ~90 serializer libraries and
//! compares throughput and size. This module builds that object on the
//! `sdheap` object model: a `MediaContent` holding a `Media` record
//! (strings, numeric metadata, a person list) and two `Image` records.
//! Fig. 12 runs it through every serializer this repository implements.

use sdheap::builder::Init;
use sdheap::{Addr, FieldKind, GraphBuilder, Heap, KlassRegistry, ValueType};

/// Builds the JSBS media-content object graph.
///
/// Shape (after JSBS's `MediaContent`):
/// `MediaContent { media: Media, images: Image[2] }`,
/// `Media { uri: char[], title: char[], width, height, format: char[],
/// duration, size, bitrate, persons: char[][], player, copyright }`,
/// `Image { uri: char[], title: char[], width, height, size }`.
pub fn media_content() -> (Heap, KlassRegistry, Addr) {
    let mut b = GraphBuilder::new(1 << 18);
    // Strings are char arrays packed four 2 B chars per heap word, as
    // HotSpot packs char[] backing stores — so every serializer pays
    // 2 B/char, not one word per char.
    let chars = b.array_klass("char[]", FieldKind::Value(ValueType::Long));
    let strings = b.array_klass("String[]", FieldKind::Ref);
    let media = b.klass(
        "Media",
        vec![
            FieldKind::Ref,                        // uri
            FieldKind::Ref,                        // title
            FieldKind::Value(ValueType::Int),      // width
            FieldKind::Value(ValueType::Int),      // height
            FieldKind::Ref,                        // format
            FieldKind::Value(ValueType::Long),     // duration
            FieldKind::Value(ValueType::Long),     // size
            FieldKind::Value(ValueType::Int),      // bitrate
            FieldKind::Ref,                        // persons
            FieldKind::Value(ValueType::Int),      // player
            FieldKind::Ref,                        // copyright (nullable)
        ],
    );
    let image = b.klass(
        "Image",
        vec![
            FieldKind::Ref,                    // uri
            FieldKind::Ref,                    // title
            FieldKind::Value(ValueType::Int),  // width
            FieldKind::Value(ValueType::Int),  // height
            FieldKind::Value(ValueType::Int),  // size
        ],
    );
    let content = b.klass(
        "MediaContent",
        vec![FieldKind::Ref, FieldKind::Ref], // media, images
    );
    let images = b.array_klass("Image[]", FieldKind::Ref);

    let string = |b: &mut GraphBuilder, s: &str| -> Addr {
        b.value_array(chars, &pack_chars(s)).expect("sized")
    };

    let uri = string(&mut b, "http://javaone.com/keynote.mpg");
    let title = string(&mut b, "Javaone Keynote");
    let format = string(&mut b, "video/mpg4");
    let p1 = string(&mut b, "Bill Gates");
    let p2 = string(&mut b, "Steve Jobs");
    let persons = b.ref_array(strings, &[p1, p2]).expect("sized");
    let m = b
        .object(
            media,
            &[
                Init::Ref(uri),
                Init::Ref(title),
                Init::Val(640),
                Init::Val(480),
                Init::Ref(format),
                Init::Val(18_000_000),
                Init::Val(58_982_400),
                Init::Val(262_144),
                Init::Ref(persons),
                Init::Val(0), // JAVA player
                Init::Null,   // no copyright
            ],
        )
        .expect("sized");

    let img = |b: &mut GraphBuilder, u: &str, t: &str, w: u64, h: u64, s: u64| -> Addr {
        let uri = string_inner(b, chars, u);
        let title = string_inner(b, chars, t);
        b.object(
            image,
            &[Init::Ref(uri), Init::Ref(title), Init::Val(w), Init::Val(h), Init::Val(s)],
        )
        .expect("sized")
    };
    let i1 = img(&mut b, "http://javaone.com/keynote_large.jpg", "Javaone Keynote", 1024, 768, 0);
    let i2 = img(&mut b, "http://javaone.com/keynote_small.jpg", "Javaone Keynote", 320, 240, 1);
    let imgs = b.ref_array(images, &[i1, i2]).expect("sized");
    let root = b
        .object(content, &[Init::Ref(m), Init::Ref(imgs)])
        .expect("sized");
    let (heap, reg) = b.finish();
    (heap, reg, root)
}

fn string_inner(b: &mut GraphBuilder, chars: sdheap::KlassId, s: &str) -> Addr {
    b.value_array(chars, &pack_chars(s)).expect("sized")
}

/// Packs UTF-16-ish chars four per 8 B word.
fn pack_chars(s: &str) -> Vec<u64> {
    s.chars()
        .collect::<Vec<_>>()
        .chunks(4)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &c)| acc | (u64::from(c as u16) << (16 * i)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdheap::GraphStats;

    #[test]
    fn media_content_shape() {
        let (heap, reg, root) = media_content();
        let s = GraphStats::measure(&heap, &reg, root);
        // content + media + persons[] + 2 persons + uri/title/format +
        // images[] + 2 images + 4 image strings = 15 objects.
        assert_eq!(s.objects, 15);
        assert!(s.total_bytes > 500, "strings give it some body: {}", s.total_bytes);
        // The copyright field is null.
        let media = heap.ref_field(root, 0).unwrap();
        assert_eq!(heap.ref_field(media, 10), None);
    }

    #[test]
    fn media_content_is_deterministic() {
        let (h1, r1, root1) = media_content();
        let (h2, _, root2) = media_content();
        assert!(sdheap::isomorphic_with(
            &h1,
            &r1,
            root1,
            &h2,
            root2,
            sdheap::IsoOptions {
                check_identity_hash: false
            }
        ));
    }
}
