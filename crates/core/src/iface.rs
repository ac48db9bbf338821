//! Software interface (paper §V-A) and [`Serializer`]-trait adapter.
//!
//! The paper keeps Cereal's interface deliberately identical to Kryo's
//! and Skyway's so swapping serializers is trivial:
//!
//! * `Initialize` — [`Accelerator::new`] / [`initialize`];
//! * `RegisterClass(Class Type)` — [`Accelerator::register_class`];
//! * `WriteObject(ObjectOutputStream, Object)` — [`write_object`];
//! * `ReadObject(ObjectInputStream)` — [`read_object`].
//!
//! [`CerealSerializer`] additionally adapts the accelerator to the same
//! [`Serializer`] trait the software baselines implement, so the
//! round-trip and corruption property tests treat them all identically.

use std::cell::RefCell;

use sdheap::{Addr, Heap, KlassRegistry};
use serializers::{SerError, Serializer, TraceSink};

use crate::accel::Accelerator;
use crate::config::CerealConfig;

/// `Initialize`: secures the accelerator (and, in the paper, its memory
/// region) at application start.
pub fn initialize(cfg: CerealConfig) -> Accelerator {
    Accelerator::new(cfg)
}

/// An output stream that frames serialized objects back to back, each
/// length-prefixed — the `ObjectOutputStream oos` that is "often
/// connected to the FileStream for the output file".
#[derive(Clone, Debug, Default)]
pub struct ObjectOutputStream {
    buf: Vec<u8>,
}

impl ObjectOutputStream {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// All bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the stream.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn push_frame(&mut self, frame: &[u8]) {
        self.buf
            .extend_from_slice(&(frame.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(frame);
    }
}

/// The reading side: yields length-prefixed frames in write order.
#[derive(Clone, Debug)]
pub struct ObjectInputStream<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ObjectInputStream<'a> {
    /// A stream over previously written bytes.
    pub fn new(bytes: &'a [u8]) -> Self {
        ObjectInputStream { bytes, pos: 0 }
    }

    fn next_frame(&mut self) -> Result<&'a [u8], SerError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(SerError::Malformed("no more frames"));
        }
        let len =
            u32::from_le_bytes(self.bytes[self.pos..self.pos + 4].try_into().expect("4")) as usize;
        self.pos += 4;
        if self.pos + len > self.bytes.len() {
            return Err(SerError::Malformed("truncated frame"));
        }
        let frame = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(frame)
    }

    /// `true` when all frames have been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.bytes.len()
    }
}

/// `WriteObject(oos, obj)`: serializes one object graph into the stream.
///
/// # Errors
/// Propagates [`SerError`] from the accelerator.
pub fn write_object(
    accel: &mut Accelerator,
    oos: &mut ObjectOutputStream,
    heap: &mut Heap,
    reg: &KlassRegistry,
    obj: Addr,
) -> Result<(), SerError> {
    let result = accel.serialize(heap, reg, obj)?;
    oos.push_frame(&result.bytes);
    Ok(())
}

/// `ReadObject(ois)`: reconstructs the next object graph from the stream.
///
/// # Errors
/// Propagates [`SerError`] from the accelerator or stream framing.
pub fn read_object(
    accel: &mut Accelerator,
    ois: &mut ObjectInputStream<'_>,
    dst: &mut Heap,
) -> Result<Addr, SerError> {
    let frame = ois.next_frame()?;
    Ok(accel.deserialize(frame, dst)?.root)
}

/// Adapter exposing the accelerator through the common [`Serializer`]
/// trait. Classes are registered automatically on first use (the
/// harness-side equivalent of calling `RegisterClass` for each type).
#[derive(Debug)]
pub struct CerealSerializer {
    accel: RefCell<Accelerator>,
}

impl CerealSerializer {
    /// With the paper's configuration.
    pub fn new() -> Self {
        CerealSerializer {
            accel: RefCell::new(Accelerator::paper()),
        }
    }

    /// Access to the wrapped accelerator (timing reports).
    pub fn accelerator(&self) -> std::cell::RefMut<'_, Accelerator> {
        self.accel.borrow_mut()
    }
}

impl Default for CerealSerializer {
    fn default() -> Self {
        Self::new()
    }
}

impl Serializer for CerealSerializer {
    fn name(&self) -> &str {
        "Cereal"
    }

    fn serialize_into(
        &self,
        heap: &mut Heap,
        reg: &KlassRegistry,
        root: Addr,
        _sink: &mut dyn TraceSink,
        out: &mut Vec<u8>,
    ) -> Result<usize, SerError> {
        // Hardware executes the op: no CPU trace is emitted.
        let mut accel = self.accel.borrow_mut();
        accel.register_all(reg)?;
        Ok(accel.serialize_into(heap, reg, root, out)?.len)
    }

    fn deserialize(
        &self,
        bytes: &[u8],
        reg: &KlassRegistry,
        dst: &mut Heap,
        _sink: &mut dyn TraceSink,
    ) -> Result<Addr, SerError> {
        let mut accel = self.accel.borrow_mut();
        accel.register_all(reg)?;
        Ok(accel.deserialize(bytes, dst)?.root)
    }

    fn preserves_identity_hash(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdheap::builder::Init;
    use sdheap::{isomorphic, FieldKind, GraphBuilder, ValueType};
    use serializers::NullSink;

    fn pair_graph() -> (Heap, KlassRegistry, Addr, Addr) {
        let mut b = GraphBuilder::new(1 << 18);
        let k = b.klass("P", vec![FieldKind::Value(ValueType::Long), FieldKind::Ref]);
        let x = b.object(k, &[Init::Val(10), Init::Null]).unwrap();
        let y = b.object(k, &[Init::Val(20), Init::Ref(x)]).unwrap();
        let (heap, reg) = b.finish();
        (heap, reg, x, y)
    }

    #[test]
    fn write_read_object_multiple_frames() {
        let (mut heap, reg, x, y) = pair_graph();
        let mut accel = initialize(CerealConfig::paper());
        accel.register_all(&reg).unwrap();
        let mut oos = ObjectOutputStream::new();
        write_object(&mut accel, &mut oos, &mut heap, &reg, y).unwrap();
        write_object(&mut accel, &mut oos, &mut heap, &reg, x).unwrap();

        let bytes = oos.into_bytes();
        let mut ois = ObjectInputStream::new(&bytes);
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        let y2 = read_object(&mut accel, &mut ois, &mut dst).unwrap();
        let x2 = read_object(&mut accel, &mut ois, &mut dst).unwrap();
        assert!(ois.is_exhausted());
        assert!(isomorphic(&heap, &reg, y, &dst, y2));
        assert!(isomorphic(&heap, &reg, x, &dst, x2));
    }

    #[test]
    fn reading_past_end_fails() {
        let bytes = Vec::new();
        let mut ois = ObjectInputStream::new(&bytes);
        let mut accel = Accelerator::paper();
        let mut dst = Heap::new(1 << 12);
        assert!(read_object(&mut accel, &mut ois, &mut dst).is_err());
    }

    #[test]
    fn serializer_trait_roundtrip() {
        let (mut heap, reg, _, y) = pair_graph();
        let ser = CerealSerializer::new();
        let bytes = ser.serialize(&mut heap, &reg, y, &mut NullSink).unwrap();
        let mut dst = Heap::with_base(Addr(0x2_0000_0000), 1 << 18);
        let root = ser
            .deserialize(&bytes, &reg, &mut dst, &mut NullSink)
            .unwrap();
        assert!(isomorphic(&heap, &reg, y, &dst, root));
        assert!(ser.preserves_identity_hash());
        assert_eq!(ser.name(), "Cereal");
        // Timing is observable through the accelerator handle.
        assert!(ser.accelerator().report().ser_requests >= 1);
    }
}
