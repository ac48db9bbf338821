//! The common serializer interface.
//!
//! All baselines (and the Cereal functional model in the `cereal` crate)
//! implement [`Serializer`]: serialize an object graph rooted at an
//! address into bytes, and reconstruct it into a destination heap. Both
//! directions narrate their work into a [`TraceSink`](crate::TraceSink)
//! for the timing models.

use crate::trace::TraceSink;
use sdheap::{Addr, Heap, HeapError, KlassRegistry};
use std::fmt;

/// Errors shared by all serializer implementations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SerError {
    /// The stream referenced a class not present in the registry.
    UnknownClass(String),
    /// The stream referenced a class id not present in the registry.
    UnknownClassId(u32),
    /// Malformed input stream.
    Malformed(&'static str),
    /// Destination heap exhausted during reconstruction.
    Heap(HeapError),
    /// The serializer cannot handle this graph (e.g. Cereal's shared-object
    /// fallback when another unit holds the header reservation).
    Unsupported(&'static str),
}

impl fmt::Display for SerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerError::UnknownClass(name) => write!(f, "unknown class {name:?}"),
            SerError::UnknownClassId(id) => write!(f, "unknown class id {id}"),
            SerError::Malformed(what) => write!(f, "malformed stream: {what}"),
            SerError::Heap(e) => write!(f, "heap error: {e}"),
            SerError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for SerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SerError::Heap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<HeapError> for SerError {
    fn from(e: HeapError) -> Self {
        SerError::Heap(e)
    }
}

/// A functional serializer with trace instrumentation.
pub trait Serializer {
    /// Short display name (as in the paper's figures: "Java", "Kryo", …).
    fn name(&self) -> &str;

    /// Serializes the graph rooted at `root` into a caller-owned buffer,
    /// replacing its contents, and returns the encoded length.
    /// Implementations that build their output incrementally write into
    /// `out` directly, so loops that serialize thousands of times reuse
    /// one allocation across calls.
    ///
    /// Takes `&mut Heap` because some implementations (Cereal) record
    /// visited-state in object headers; software baselines leave the heap
    /// untouched.
    ///
    /// # Errors
    /// Implementation-specific [`SerError`]s, e.g. unregistered classes.
    fn serialize_into(
        &self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
        sink: &mut dyn TraceSink,
        out: &mut Vec<u8>,
    ) -> Result<usize, SerError>;

    /// Serializes the graph rooted at `root` into a fresh buffer.
    ///
    /// # Errors
    /// Same as [`Serializer::serialize_into`].
    fn serialize(
        &self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
        sink: &mut dyn TraceSink,
    ) -> Result<Vec<u8>, SerError> {
        let mut out = Vec::new();
        self.serialize_into(heap, reg, root, sink, &mut out)?;
        Ok(out)
    }

    /// Reconstructs a graph from `bytes` into `dst`, returning the root
    /// address.
    ///
    /// # Errors
    /// [`SerError`] on malformed streams, unknown classes, or heap
    /// exhaustion.
    fn deserialize(
        &self,
        bytes: &[u8],
        reg: &KlassRegistry,
        dst: &mut Heap,
        sink: &mut dyn TraceSink,
    ) -> Result<Addr, SerError>;

    /// Whether reconstructed objects keep their original identity hashes
    /// (header-copying serializers do; re-allocating ones don't). Tests use
    /// this to pick the right isomorphism mode.
    fn preserves_identity_hash(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        assert!(SerError::UnknownClass("Foo".into()).to_string().contains("Foo"));
        assert!(SerError::UnknownClassId(7).to_string().contains('7'));
        assert!(SerError::Malformed("bad tag").to_string().contains("bad tag"));
        assert!(SerError::Unsupported("x").to_string().contains("unsupported"));
        let heap_err: SerError = HeapError::OutOfMemory {
            requested_words: 1,
            available_words: 0,
        }
        .into();
        assert!(heap_err.to_string().contains("heap error"));
        use std::error::Error;
        assert!(heap_err.source().is_some());
    }
}
