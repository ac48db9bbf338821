//! The plan runner shared by the binary serializers.
//!
//! Java S/D, Kryo and ProtoLike walk an object graph the same way: depth
//! first, with back-references for shared objects, driven by the field
//! programs [`crate::plan`] compiles once per klass. What differs is the
//! wire *dialect*: the bytes of an object or array header, how one
//! primitive is encoded, and what a field access and a reference store
//! cost in narrated [`Op`]s. This module owns the traversal, the
//! resumable frame stacks, the handle tables, the primitive-array loops
//! and the allocation narration; each backend supplies a [`Dialect`].
//! Dispatch is static, so every backend still runs one monomorphized loop.
//!
//! The byte streams and narrated op sequences are pinned by the frozen
//! fixtures in `tests/golden_serde.rs`.

use crate::api::SerError;
use crate::plan::{plans_for, PlanCache, Step};
use crate::trace::{Op, OpBuf, TraceSink, IN_STREAM_BASE, OUT_STREAM_BASE};
use sdformat::varint::{read_varint, write_varint};
use sdheap::{Addr, FieldKind, Heap, KlassId, KlassRegistry, ValueType, HEADER_WORDS};
use std::collections::HashMap;
use std::rc::Rc;

/// One backend's wire format and narration.
pub(crate) trait Dialect: Sized {
    /// Leading 2-byte stream words, each with the error a mismatch reports.
    const MAGIC: &'static [([u8; 2], &'static str)] = &[];
    /// Serializer state beyond the object handles (class tables).
    type SerState: Default;
    /// Deserializer state beyond the object handles (class tables).
    type DeState: Default;

    /// Writes the header of the reference `addr`: a null marker, a
    /// back-reference to one of [`Ser::handles`], or a new object's header
    /// (with the length, for an array). Returns the klass of a new object;
    /// the runner then numbers it and writes its body.
    fn write_head(s: &mut Ser<'_, Self>, addr: Addr) -> Option<KlassId>;

    /// Reads the header [`Dialect::write_head`] wrote.
    fn read_head(d: &mut De<'_, Self>) -> Result<Head, SerError>;

    /// Encodes one primitive.
    fn put_prim(w: &mut Writer, vt: ValueType, word: u64);

    /// Decodes one primitive.
    fn get_prim(r: &mut Reader<'_>, vt: ValueType) -> Result<u64, SerError>;

    /// Narrates one field access: before the load on serialize, after the
    /// decode on deserialize.
    fn field_access(ops: &mut OpBuf, name_len: u32);

    /// Narrates the store of a decoded reference into an object field.
    fn ref_store(ops: &mut OpBuf);
}

/// A decoded object header.
pub(crate) enum Head {
    /// Null, or a back-reference to an object already read.
    Ref(Addr),
    /// A new instance of the klass.
    Object(KlassId),
    /// A new array of the klass, with its declared length.
    Array(KlassId, u64),
}

/// Simulated address of word `i` past an object's header (an array's
/// length is word 0, its elements follow).
#[inline]
pub(crate) fn body_word(obj: Addr, i: usize) -> u64 {
    obj.add_words((HEADER_WORDS + i) as u64).get()
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

/// The output stream and its narration.
pub(crate) struct Writer {
    out: Vec<u8>,
    pub(crate) ops: OpBuf,
}

impl Writer {
    /// Appends `bytes`, narrated as one store.
    #[inline]
    pub(crate) fn put(&mut self, bytes: &[u8]) {
        self.ops
            .store(OUT_STREAM_BASE + self.out.len() as u64, bytes.len() as u32);
        self.out.extend_from_slice(bytes);
    }

    /// Appends an already encoded varint, narrated as a store plus one ALU
    /// op per byte.
    #[inline]
    pub(crate) fn put_varint_bytes(&mut self, bytes: &[u8]) {
        self.put(bytes);
        self.ops.push(Op::Alu(bytes.len() as u32));
    }

    /// Appends `v` as a varint, narrated like [`Writer::put_varint_bytes`].
    #[inline]
    pub(crate) fn put_varint(&mut self, v: u64) {
        let pos = OUT_STREAM_BASE + self.out.len() as u64;
        let n = write_varint(&mut self.out, v) as u32;
        self.ops.store(pos, n);
        self.ops.push(Op::Alu(n));
    }
}

/// Serializer context handed to [`Dialect::write_head`].
pub(crate) struct Ser<'a, D: Dialect> {
    pub(crate) heap: &'a Heap,
    pub(crate) reg: &'a KlassRegistry,
    pub(crate) plans: Rc<PlanCache>,
    pub(crate) w: Writer,
    /// Handle of every object written so far.
    pub(crate) handles: HashMap<Addr, u64>,
    /// The next handle; Java S/D class descriptors draw from it too.
    pub(crate) next_handle: u64,
    pub(crate) state: D::SerState,
}

enum SerFrame {
    Write(Addr),
    /// Resume an instance's field program at `step`.
    Fields {
        addr: Addr,
        step: usize,
        id: KlassId,
    },
    Elems {
        addr: Addr,
        idx: usize,
    },
}

impl<D: Dialect> Ser<'_, D> {
    fn run(&mut self, root: Addr, sink: &mut dyn TraceSink) {
        let plans = Rc::clone(&self.plans);
        let mut stack = vec![SerFrame::Write(root)];
        while let Some(frame) = stack.pop() {
            self.w.ops.maybe_flush(sink);
            match frame {
                SerFrame::Write(addr) => {
                    let Some(id) = D::write_head(self, addr) else {
                        continue;
                    };
                    self.handles.insert(addr, self.next_handle);
                    self.next_handle += 1;
                    match plans.plan(id).array_elem {
                        Some(FieldKind::Value(vt)) => {
                            let len = self.heap.array_len(addr);
                            let words = self.heap.array_words_slice(addr, 0, len);
                            for (i, &word) in words.iter().enumerate() {
                                self.w.ops.load(body_word(addr, 1 + i), 8);
                                D::put_prim(&mut self.w, vt, word);
                                self.w.ops.maybe_flush(sink);
                            }
                        }
                        Some(FieldKind::Ref) => stack.push(SerFrame::Elems { addr, idx: 0 }),
                        None => stack.push(SerFrame::Fields { addr, step: 0, id }),
                    }
                }
                SerFrame::Fields { addr, step, id } => {
                    let plan = plans.plan(id);
                    for (s, &step) in plan.steps.iter().enumerate().skip(step) {
                        match step {
                            Step::Run {
                                prim_start,
                                prim_len,
                            } => {
                                let prims = &plan.prims
                                    [prim_start as usize..(prim_start + prim_len) as usize];
                                let first = prims[0].idx as usize;
                                let words = self.heap.field_words(addr, first, prims.len());
                                for (j, (f, &word)) in prims.iter().zip(words).enumerate() {
                                    D::field_access(&mut self.w.ops, f.name_len);
                                    self.w.ops.load_word_dep(body_word(addr, first + j));
                                    D::put_prim(&mut self.w, f.vt, word);
                                }
                            }
                            Step::Ref { idx, name_len } => {
                                let idx = idx as usize;
                                D::field_access(&mut self.w.ops, name_len);
                                self.w.ops.load_word_dep(body_word(addr, idx));
                                let word = self.heap.field(addr, idx);
                                stack.push(SerFrame::Fields {
                                    addr,
                                    step: s + 1,
                                    id,
                                });
                                stack.push(SerFrame::Write(Addr(word)));
                                break;
                            }
                        }
                    }
                }
                SerFrame::Elems { addr, idx } => {
                    if idx < self.heap.array_len(addr) {
                        self.w.ops.load(body_word(addr, 1 + idx), 8);
                        let word = self.heap.array_elem(addr, idx);
                        stack.push(SerFrame::Elems { addr, idx: idx + 1 });
                        stack.push(SerFrame::Write(Addr(word)));
                    }
                }
            }
        }
    }
}

/// Serializes the graph at `root` in dialect `D` into `out`, clearing it
/// first; returns the stream length.
pub(crate) fn serialize_into<D: Dialect>(
    heap: &Heap,
    reg: &KlassRegistry,
    root: Addr,
    sink: &mut dyn TraceSink,
    out: &mut Vec<u8>,
) -> Result<usize, SerError> {
    out.clear();
    let mut s = Ser::<D> {
        heap,
        reg,
        plans: plans_for(reg),
        w: Writer {
            out: std::mem::take(out),
            ops: OpBuf::for_sink(&*sink),
        },
        handles: HashMap::new(),
        next_handle: 0,
        state: D::SerState::default(),
    };
    for (word, _) in D::MAGIC {
        s.w.put(word);
    }
    s.run(root, sink);
    s.w.ops.flush(sink);
    *out = s.w.out;
    Ok(out.len())
}

// ---------------------------------------------------------------------------
// Deserialization
// ---------------------------------------------------------------------------

/// The input stream and its narration.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    pub(crate) ops: OpBuf,
}

impl<'a> Reader<'a> {
    /// The next `n` bytes, narrated as one load. A stream too short for
    /// them fails before narrating anything.
    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SerError> {
        if n > self.bytes.len() - self.pos {
            return Err(SerError::Malformed("truncated stream"));
        }
        self.ops.load(IN_STREAM_BASE + self.pos as u64, n as u32);
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array, narrated like [`Reader::take`].
    #[inline]
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], SerError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// A varint, narrated as a load plus one ALU op per byte.
    #[inline]
    pub(crate) fn get_varint(&mut self) -> Result<u64, SerError> {
        let (v, next) =
            read_varint(self.bytes, self.pos).ok_or(SerError::Malformed("bad varint"))?;
        let n = (next - self.pos) as u32;
        self.ops.load(IN_STREAM_BASE + self.pos as u64, n);
        self.ops.push(Op::Alu(n));
        self.pos = next;
        Ok(v)
    }

    /// A class-id varint, which must fit a `u32`.
    pub(crate) fn get_class_id(&mut self) -> Result<u32, SerError> {
        u32::try_from(self.get_varint()?).map_err(|_| SerError::Malformed("class id out of range"))
    }
}

/// Deserializer context handed to [`Dialect::read_head`].
pub(crate) struct De<'a, D: Dialect> {
    pub(crate) r: Reader<'a>,
    pub(crate) reg: &'a KlassRegistry,
    pub(crate) plans: Rc<PlanCache>,
    heap: &'a mut Heap,
    /// The object of every handle read so far (Java S/D class handles
    /// hold a null placeholder).
    pub(crate) handles: Vec<Addr>,
    pub(crate) state: D::DeState,
}

#[derive(Clone, Copy)]
enum Dest {
    Root,
    Field(Addr, usize),
    Elem(Addr, usize),
}

enum DeFrame {
    Read(Dest),
    Fields {
        addr: Addr,
        step: usize,
        id: KlassId,
    },
    Elems {
        addr: Addr,
        idx: usize,
    },
}

impl<D: Dialect> De<'_, D> {
    /// The klass with wire id `raw`.
    pub(crate) fn klass(&self, raw: u32) -> Result<KlassId, SerError> {
        if raw as usize >= self.reg.len() {
            return Err(SerError::UnknownClassId(raw));
        }
        Ok(KlassId(raw))
    }

    /// The object of handle `h`; `bad` is the error for an unknown handle.
    pub(crate) fn object(&self, h: u64, bad: &'static str) -> Result<Addr, SerError> {
        usize::try_from(h)
            .ok()
            .and_then(|h| self.handles.get(h))
            .copied()
            .ok_or(SerError::Malformed(bad))
    }

    fn run(&mut self, sink: &mut dyn TraceSink) -> Result<Addr, SerError> {
        for &(word, bad) in D::MAGIC {
            if self.r.array()? != word {
                return Err(SerError::Malformed(bad));
            }
        }
        let plans = Rc::clone(&self.plans);
        let mut root = Addr::NULL;
        let mut stack = vec![DeFrame::Read(Dest::Root)];
        while let Some(frame) = stack.pop() {
            self.r.ops.maybe_flush(sink);
            match frame {
                DeFrame::Read(dest) => {
                    let addr = match D::read_head(self)? {
                        Head::Ref(addr) => addr,
                        Head::Object(id) => {
                            self.r.ops.push(Op::Alloc(plans.plan(id).instance_bytes));
                            let addr = self.heap.alloc(self.reg, id)?;
                            self.r.ops.store(addr.get(), 24);
                            self.handles.push(addr);
                            stack.push(DeFrame::Fields { addr, step: 0, id });
                            addr
                        }
                        Head::Array(id, len) => {
                            if len >= self.heap.capacity_bytes() / 8 {
                                return Err(SerError::Malformed("array length exceeds heap"));
                            }
                            let len = len as usize;
                            let bytes = self.reg.get(id).array_words(len) as u32 * 8;
                            self.r.ops.push(Op::Alloc(bytes));
                            let addr = self.heap.alloc_array(self.reg, id, len)?;
                            self.r.ops.store(addr.get(), 32);
                            self.handles.push(addr);
                            match plans.plan(id).array_elem {
                                Some(FieldKind::Value(vt)) => {
                                    let words = self.heap.array_words_slice_mut(addr, 0, len);
                                    for (i, slot) in words.iter_mut().enumerate() {
                                        *slot = D::get_prim(&mut self.r, vt)?;
                                        self.r.ops.store(body_word(addr, 1 + i), 8);
                                        self.r.ops.maybe_flush(sink);
                                    }
                                }
                                _ => stack.push(DeFrame::Elems { addr, idx: 0 }),
                            }
                            addr
                        }
                    };
                    match dest {
                        Dest::Root => root = addr,
                        Dest::Field(obj, i) => {
                            D::ref_store(&mut self.r.ops);
                            self.r.ops.store(body_word(obj, i), 8);
                            self.heap.set_ref(obj, i, addr);
                        }
                        Dest::Elem(arr, i) => {
                            self.r.ops.store(body_word(arr, 1 + i), 8);
                            self.heap.set_array_elem(arr, i, addr.get());
                        }
                    }
                }
                DeFrame::Fields { addr, step, id } => {
                    let plan = plans.plan(id);
                    for (s, &step) in plan.steps.iter().enumerate().skip(step) {
                        match step {
                            Step::Run {
                                prim_start,
                                prim_len,
                            } => {
                                let prims = &plan.prims
                                    [prim_start as usize..(prim_start + prim_len) as usize];
                                let first = prims[0].idx as usize;
                                let words = self.heap.field_words_mut(addr, first, prims.len());
                                for (j, (f, slot)) in prims.iter().zip(words).enumerate() {
                                    let v = D::get_prim(&mut self.r, f.vt)?;
                                    D::field_access(&mut self.r.ops, f.name_len);
                                    self.r.ops.store(body_word(addr, first + j), 8);
                                    *slot = v;
                                }
                            }
                            Step::Ref { idx, .. } => {
                                stack.push(DeFrame::Fields {
                                    addr,
                                    step: s + 1,
                                    id,
                                });
                                stack.push(DeFrame::Read(Dest::Field(addr, idx as usize)));
                                break;
                            }
                        }
                    }
                }
                DeFrame::Elems { addr, idx } => {
                    if idx < self.heap.array_len(addr) {
                        stack.push(DeFrame::Elems { addr, idx: idx + 1 });
                        stack.push(DeFrame::Read(Dest::Elem(addr, idx)));
                    }
                }
            }
        }
        Ok(root)
    }
}

/// Reconstructs a dialect-`D` stream into `dst`, returning the root.
pub(crate) fn deserialize<D: Dialect>(
    bytes: &[u8],
    reg: &KlassRegistry,
    dst: &mut Heap,
    sink: &mut dyn TraceSink,
) -> Result<Addr, SerError> {
    let mut d = De::<D> {
        r: Reader {
            bytes,
            pos: 0,
            ops: OpBuf::for_sink(&*sink),
        },
        reg,
        plans: plans_for(reg),
        heap: dst,
        handles: Vec::new(),
        state: D::DeState::default(),
    };
    let result = d.run(sink);
    // Ops buffered past the last flush reach the sink on the error path
    // too, or error traces would lose their tail.
    d.r.ops.flush(sink);
    result
}
