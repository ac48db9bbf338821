//! Block-level counting over layout bitmaps.
//!
//! The layout bitmap marks the location of each reference field: one bit
//! per 8 B heap word, set when the word holds a reference (paper Fig. 4a);
//! `sdheap::ObjectView::layout_bits` builds it per object.
//! Object size follows from the bitmap length (`bits × 8 B`), which is how
//! the deserialization unit sizes objects without any per-object length
//! field.
//!
//! [`LayoutCounts`] mirrors the layout manager's per-block popcount logic
//! (paper §V-C): for each 64 B block (8 bits of bitmap), how many words are
//! values/headers and how many are references — the numbers the block
//! manager uses to pull exactly the right amount from the value and
//! reference loaders.

/// Per-64 B-block value/reference counts over a concatenated layout
/// bitmap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayoutCounts {
    /// Words holding values or headers in this block (bitmap bit 0).
    pub values: u32,
    /// Words holding references in this block (bitmap bit 1).
    pub refs: u32,
}

impl LayoutCounts {
    /// Counts one 8-bit bitmap chunk (one 64 B block). Chunks shorter than
    /// 8 bits (the image tail) count only their live bits.
    pub fn of_chunk(chunk: &[bool]) -> LayoutCounts {
        debug_assert!(chunk.len() <= 8, "a block covers at most 8 words");
        let refs = chunk.iter().filter(|&&b| b).count() as u32;
        LayoutCounts {
            values: chunk.len() as u32 - refs,
            refs,
        }
    }

    /// Splits a concatenated image bitmap into per-block counts.
    pub fn per_block(image_bits: &[bool]) -> Vec<LayoutCounts> {
        image_bits.chunks(8).map(LayoutCounts::of_chunk).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdheap::builder::Init;
    use sdheap::{FieldKind, GraphBuilder, ValueType};

    #[test]
    fn bitmap_matches_object_view() {
        let mut b = GraphBuilder::new(1 << 16);
        let k = b.klass(
            "K",
            vec![
                FieldKind::Ref,
                FieldKind::Value(ValueType::Long),
                FieldKind::Ref,
            ],
        );
        let o = b
            .object(k, &[Init::Null, Init::Val(9), Init::Null])
            .unwrap();
        let (heap, reg) = b.finish();
        let bits = heap.object(&reg, o).layout_bits();
        assert_eq!(bits, vec![false, false, false, true, false, true]);
        // Size recoverable from bitmap length.
        assert_eq!(bits.len() as u64 * 8, heap.object(&reg, o).size_bytes());
    }

    #[test]
    fn counts_per_chunk() {
        let c = LayoutCounts::of_chunk(&[true, false, true, true, false, false, false, false]);
        assert_eq!(c, LayoutCounts { values: 5, refs: 3 });
    }

    #[test]
    fn tail_chunk_counts_partial() {
        let c = LayoutCounts::of_chunk(&[true, false, true]);
        assert_eq!(c, LayoutCounts { values: 1, refs: 2 });
    }

    #[test]
    fn per_block_covers_whole_image() {
        let bits: Vec<bool> = (0..20).map(|i| i % 5 == 0).collect();
        let blocks = LayoutCounts::per_block(&bits);
        assert_eq!(blocks.len(), 3);
        let total_refs: u32 = blocks.iter().map(|b| b.refs).sum();
        let total_vals: u32 = blocks.iter().map(|b| b.values).sum();
        assert_eq!(total_refs, 4);
        assert_eq!(total_vals + total_refs, 20);
    }

    #[test]
    fn empty_image_has_no_blocks() {
        assert!(LayoutCounts::per_block(&[]).is_empty());
    }
}
